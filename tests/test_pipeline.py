import dataclasses
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rigidity as R
import rigidity.pipeline as P
from rigidity import check, isotypics, sdpfeas, spectra, symmetry

import fixtures as fx

LOWER, UPPER = R.TargetKind.LOWER, R.TargetKind.UPPER


def _run(graph, target=LOWER, **kw):
    return R.run_pipeline(graph, target, R.PipelineConfig(**kw))


def _run_with(monkeypatch, name, value, graph, target=LOWER, **kw):
    """Run with rigidity.pipeline's `name` replaced by `value`."""
    with monkeypatch.context() as mp:
        mp.setattr(P, name, value)
        return _run(graph, target, **kw)


def _c5_trivial():
    """C5 under the trivial group: lambda_2 has multiplicity 2 and fails the bound."""
    return fx.c5(), {"group": R.GroupGenerators(fx.c5(), ())}


def _c5_square_diagonal():
    """C5 x C5 and the config that restricts it to its diagonal C5."""
    c5 = fx.c5()
    prod = R.cartesian_product(c5, c5)
    return prod, {"group": fx.diagonal_gens(c5, prod)}


def _eigensolve_fails(*args):
    raise R.ConvergenceFailure("eigensolve failure injected by the test")


def _lapack_fails(*args):
    raise np.linalg.LinAlgError("LAPACK failure injected by the test")


def _raises(exc):
    """A stand-in for a pipeline function that raises exc."""
    def fake(*args):
        raise exc
    return fake


def _negative_first_coefficient(cone):
    """Cone membership whose first coefficient is made -1."""
    sol = R.solve_cone_membership(cone)
    return dataclasses.replace(sol, coeffs=(-1,) + tuple(sol.coeffs[1:]))


class TestConfig:
    def test_defaults_valid(self):
        cfg = R.PipelineConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["group", "seed"]
        assert cfg.group == ()
        assert cfg.seed == 0

    @pytest.mark.parametrize("kw", [
        {"group": "trivial"}, {"group": [0]}, {"group": (0.5,)}, {"seed": -1},
        {"seed": True}, {"group": (True,)},
    ], ids=["kw2", "kw5", "kw6", "kw7", "kw8", "kw9"])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            R.PipelineConfig(**kw)


class TestTransitions:
    def test_every_stage_reaches_a_terminal(self):
        terminals = {s.value for s in R.PipelineStatus}
        reachable = set()
        frontier = {"spectrum"}
        seen = set()
        while frontier:
            stage = frontier.pop()
            if stage in seen or stage in terminals:
                continue
            seen.add(stage)
            for nxt in R.TRANSITIONS[stage]:
                if nxt in terminals:
                    reachable.add(nxt)
                else:
                    frontier.add(nxt)
        assert reachable == terminals

    def test_route_is_valid_accepts_real_routes(self, battery_reports):
        for rep in battery_reports.values():
            assert R.route_is_valid(rep.route), rep.route

    # A search without a witness ends in the status of the branch before it.
    @pytest.mark.parametrize("branch,status,valid", [
        ("cone", "INCONCLUSIVE_SOLVER", True),
        ("mult_bound", "INCONCLUSIVE_NO_RANK1", True),
        ("subcone", "INCONCLUSIVE_MULTIPLICITY", True),
        ("cone", "INCONCLUSIVE_NO_RANK1", False),
        ("cone", "INCONCLUSIVE_MULTIPLICITY", False),
        ("mult_bound", "INCONCLUSIVE_MULTIPLICITY", False),
        ("subcone", "INCONCLUSIVE_NO_RANK1", False),
    ])
    def test_undecided_status_names_the_branch_before_the_search(
            self, branch, status, valid):
        head = ("spectrum", "cluster", "group", "orbits", "isotypics")
        head += ("mult_bound",) if branch == "subcone" else ()
        assert R.route_is_valid(head + (branch, "disproof", status)) is valid

    def test_route_is_valid_rejects_gibberish(self):
        assert not R.route_is_valid(("spectrum", "cone"))
        assert not R.route_is_valid(("cluster",))
        assert not R.route_is_valid(())


class TestStatuses:
    def test_disproved(self, battery_reports):
        # circulant(12,{2,3}) is lower rigid only: weights 4/3 and 2/3 on
        # the two orbits drop lambda_max from 7 to 20/3
        for name, target in (("barbell", LOWER), ("barbell", UPPER),
                             ("f3", LOWER), ("f3", UPPER),
                             ("circulant(12,{2,3})", UPPER)):
            rep = battery_reports[(name, target)]
            assert rep.status is R.PipelineStatus.DISPROVED, (name, target)
            assert rep.disproof is not None
            assert R.verify_disproof(rep.graph, rep.disproof, target)

    @staticmethod
    def _solves(g, monkeypatch):
        """The run's status, its eig_sym calls, and those on the uniform L."""
        L = R.laplacian(g, np.ones(g.m))
        uniform, real = [], R.eig_sym

        def spy(A):
            uniform.append(np.array_equal(A, L))
            return real(A)

        for module in ("spectra", "check", "certify"):
            monkeypatch.setattr(f"rigidity.{module}.eig_sym", spy)
        return _run(g).status, len(uniform), sum(uniform)

    def test_disproof_reuses_the_uniform_spectrum(self, monkeypatch):
        # find_disproof and verify_disproof take the spectrum stage's
        # decomposition; the other 7 solves are of trials and the witness.
        assert self._solves(fx.barbell(), monkeypatch) == (
            R.PipelineStatus.DISPROVED, 8, 1)

    def test_certificate_reuses_the_uniform_spectrum(self, monkeypatch):
        # verify_certificate takes the spectrum stage's decomposition.
        assert self._solves(fx.petersen(), monkeypatch) == (
            R.PipelineStatus.CERTIFIED_EXACT, 1, 1)

    def test_certified_battery(self, battery_reports):
        certified = {R.PipelineStatus.CERTIFIED_EXACT,
                     R.PipelineStatus.CERTIFIED_NUMERIC}
        both = ("circulant(4,{1,2})", "circulant(5,{1})",
                "circulant(7,{1})", "petersen", "circulant(21,{1,6})")
        for name in both:
            for target in (LOWER, UPPER):
                rep = battery_reports[(name, target)]
                assert rep.status in certified, (name, target, rep.status)
        rep = battery_reports[("circulant(12,{2,3})", LOWER)]
        assert rep.status in certified

    def test_certified_exact_via_exact_cone(self, z12_exact_report):
        rep = z12_exact_report
        assert rep.status is R.PipelineStatus.CERTIFIED_EXACT
        assert rep.certificate is not None and rep.certificate.exact
        assert rep.route[-1] == "CERTIFIED_EXACT"
        assert "cone" in rep.route and "verify" in rep.route

    def test_certified_numeric_when_exact_unavailable(self, battery_reports):
        rep = battery_reports[("circulant(5,{1})", LOWER)]
        assert rep.status is R.PipelineStatus.CERTIFIED_NUMERIC
        assert "EXACT_UNAVAILABLE" in rep.flags
        assert rep.certificate is not None and not rep.certificate.exact

    def test_inconclusive_no_rank1(self):
        # The bound fails, and the disproof search finds no witness.
        rep = _run(fx.c5(), group=R.GroupGenerators(fx.c5(), ()))
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_NO_RANK1
        assert rep.route[-3:] == ("mult_bound", "disproof",
                                  "INCONCLUSIVE_NO_RANK1")

    def test_inconclusive_multiplicity(self):
        # The bound holds, the sub-cone misses, and the search finds no witness.
        c5 = fx.c5()
        prod = R.cartesian_product(c5, c5)
        rep = _run(prod, group=fx.diagonal_gens(c5, prod))
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_MULTIPLICITY
        assert rep.route[-3:] == ("subcone", "disproof",
                                  "INCONCLUSIVE_MULTIPLICITY")

    def test_failed_multiplicity_bound_can_still_be_disproved(self):
        # atlas-136 of the benchmark: lambda_max's eigenspace is two copies
        # of one 1-dimensional irreducible, the bound fails, and the search
        # finds a witness that verifies.
        rep = _run(R.parse_graph6("E~^G"), UPPER)
        assert rep.status is R.PipelineStatus.DISPROVED
        assert rep.route[-3:] == ("mult_bound", "disproof", "DISPROVED")
        assert R.verify_disproof(rep.graph, rep.disproof, UPPER)

    def test_no_run_solves_the_sdp(self, monkeypatch):
        calls, real = [], sdpfeas.solve_feasibility

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sdpfeas, "solve_feasibility", spy)
        c5 = fx.c5()
        prod = R.cartesian_product(c5, c5)
        runs = [(g, target, {}) for g in fx.battery() for target in (LOWER, UPPER)]
        runs += [(c5, LOWER, {"group": R.GroupGenerators(c5, ())}),
                 (prod, LOWER, {"group": fx.diagonal_gens(c5, prod)}),
                 (R.parse_graph6("E~^G"), UPPER, {})]
        routes = [_run(g, target, **kw).route for g, target, kw in runs]
        assert sum("mult_bound" in route for route in routes) == 3
        assert calls == []

    # c5 builds the full cone; c5 x c5 under its diagonal C5 a sub-cone.
    @pytest.mark.parametrize("name,case", [
        ("build_cone", lambda: (fx.c5(), {})),
        ("subcone_model", _c5_square_diagonal),
    ], ids=["cone", "subcone"])
    def test_unstable_split_in_cone_stage(self, monkeypatch, name, case):
        def unstable(*args):
            raise R.UnstableSplit("unstable split injected by the test")

        graph, kw = case()
        monkeypatch.setattr(P, name, unstable)
        rep = _run(graph, **kw)
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-1] == "INCONCLUSIVE_SOLVER"
        assert rep.route[-2] in ("cone", "subcone")
        assert "ISOTYPIC_FAILURE" in rep.flags
        assert R.route_is_valid(rep.route)

    def test_inconclusive_solver_ambiguous_cluster(self, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(spectra, "CLUSTER_TOL", 10.0)
            rep = _run(fx.c5())
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert "AMBIGUOUS_CLUSTER" in rep.flags

    def test_failed_eigensolve_in_disproof_search(
            self, eigensolve_fails_after_first_call):
        rep = _run(fx.barbell())
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2:] == ("disproof", "INCONCLUSIVE_SOLVER")
        assert "EIGENSOLVE_FAILED" in rep.flags
        assert R.route_is_valid(rep.route)

    def test_failed_eigensolve_in_spectrum(self, monkeypatch):
        rep = _run_with(monkeypatch, "laplacian_spectrum", _eigensolve_fails,
                        fx.c5())
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route == ("spectrum", "INCONCLUSIVE_SOLVER")
        assert "EIGENSOLVE_FAILED" in rep.flags
        assert R.route_is_valid(rep.route)

    # c5 LOWER and the regular bipartite c4 UPPER reach verify through the
    # cone.
    @pytest.mark.parametrize("make,target", [(fx.c5, LOWER), (fx.c4, UPPER)],
                             ids=["cone", "cone-upper"])
    def test_failed_eigensolve_in_verify(self, monkeypatch, make, target):
        rep = _run_with(monkeypatch, "verify_certificate", _eigensolve_fails,
                        make(), target)
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2:] == ("verify", "INCONCLUSIVE_SOLVER")
        assert "EIGENSOLVE_FAILED" in rep.flags
        assert R.route_is_valid(rep.route)

    # Petersen LOWER runs the isotypic decomposition.
    @pytest.mark.parametrize("module,name,stage,case", [
        (isotypics, "_commutant", "isotypics", lambda: (fx.petersen(), {})),
        (isotypics, "_split_by_eigenvalues", "isotypics",
         lambda: (fx.petersen(), {})),
    ], ids=["commutant", "split"])
    def test_lapack_failure_is_inconclusive(self, monkeypatch, module, name,
                                            stage, case):
        monkeypatch.setattr(module, name, _lapack_fails)
        graph, kw = case()
        rep = _run(graph, **kw)
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2:] == (stage, "INCONCLUSIVE_SOLVER")
        assert "EIGENSOLVE_FAILED" in rep.flags
        assert R.route_is_valid(rep.route)

    def test_lapack_failure_in_disproof_oracle(self, monkeypatch):
        # P4's largest eigenvalue turns double along the search; only the
        # oracle of that direction solves a 2 x 2 matrix with eigh.
        real = np.linalg.eigh

        def eigh(M, *args, **kwargs):
            if np.shape(M) == (2, 2):
                _lapack_fails()
            return real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        rep = _run(R.parse_graph6("Ck"), UPPER)
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2:] == ("disproof", "INCONCLUSIVE_SOLVER")
        assert "EIGENSOLVE_FAILED" in rep.flags
        assert R.route_is_valid(rep.route)

    def test_non_invariant_eigenspace_is_an_isotypic_failure(self, monkeypatch):
        # Petersen's lambda_2 basis, perturbed by 1e-3 and re-orthonormalized,
        # is no longer mapped into itself by the automorphisms.
        real = P.target_cluster

        def perturbed(dec, target):
            c = real(dec, target)
            noise = np.random.default_rng(0).standard_normal(c.basis.shape)
            q, _ = np.linalg.qr(c.basis + 1e-3 * noise)
            return dataclasses.replace(c, basis=q)

        rep = _run_with(monkeypatch, "target_cluster", perturbed, fx.petersen())
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2:] == ("isotypics", "INCONCLUSIVE_SOLVER")
        assert "ISOTYPIC_FAILURE" in rep.flags
        assert rep.message.startswith(
            "isotypics stage failed: eigenspace is not invariant")
        assert R.route_is_valid(rep.route)

    # c5 LOWER is certified through the cone and the barbell LOWER disproved
    # after it; each injection turns one of them inconclusive at `stage`.
    @pytest.mark.parametrize("name,fake,make,stage,flag,message", [
        ("find_disproof", _raises(R.LineSearchFailed("line search injected")),
         fx.barbell, "disproof", "LINE_SEARCH_FAILED",
         "disproof stage failed: line search injected"),
        ("assemble_certificate", _raises(R.ResidualTooLarge("residual injected")),
         fx.c5, "assemble", "ASSEMBLY_FAILED",
         "assemble stage failed: residual injected"),
        ("solve_cone_membership", _negative_first_coefficient,
         fx.c5, "assemble", "ASSEMBLY_FAILED",
         "assemble stage failed: negative cone coefficient"),
        ("verify_certificate",
         lambda *a: R.VerificationReport(False, 0.0, "injected clause"),
         fx.c5, "verify", "VERIFY_FAILED",
         "assembled certificate failed verification at injected clause"),
        ("verify_disproof", lambda *a: False,
         fx.barbell, "disproof", "DISPROOF_VERIFY_FAILED",
         "certificate cone membership failed numerically; no verified "
         "witness weights found"),
    ], ids=["line_search", "residual", "negative_coefficient", "verify",
            "disproof_verify"])
    def test_injected_failure_ends_in_its_flag(self, monkeypatch, name, fake,
                                               make, stage, flag, message):
        rep = _run_with(monkeypatch, name, fake, make())
        assert rep.status is R.PipelineStatus.INCONCLUSIVE_SOLVER
        assert rep.route[-2] == stage
        assert flag in rep.flags
        assert rep.message == message
        assert R.route_is_valid(rep.route)

    def test_all_six_statuses_constructible(self, battery_reports,
                                            z12_exact_report, monkeypatch):
        c5, trivial = _c5_trivial()
        line_search_fails = _raises(R.LineSearchFailed("line search injected"))
        seen = {battery_reports[("barbell", LOWER)].status,
                battery_reports[("circulant(5,{1})", LOWER)].status,
                z12_exact_report.status,
                _run(c5, **trivial).status,
                _run_with(monkeypatch, "find_disproof", line_search_fails,
                          fx.barbell()).status}
        prod = R.cartesian_product(c5, c5)
        seen.add(_run(prod, group=fx.diagonal_gens(c5, prod)).status)
        assert seen == set(R.PipelineStatus)


class TestGroupHandling:
    def test_cap_exceeded_falls_back_to_trivial(self, monkeypatch):
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", 5)
        rep = _run(fx.petersen())
        assert "GROUP_CAP_EXCEEDED" in rep.flags
        assert rep.group_order == 1

    def test_budget_exceeded_falls_back_to_trivial(self, monkeypatch):
        monkeypatch.setattr(symmetry, "SEARCH_BUDGET", 1)
        rep = _run(fx.petersen())
        assert "GROUP_SEARCH_BUDGET_EXCEEDED" in rep.flags
        assert rep.group_order == 1

    def test_fix_mode_uses_stabilizer(self):
        rep = _run(fx.c5(), group=(0,))
        assert rep.group_order == 2

    def test_fixed_vertex_out_of_range_is_a_caller_error(self):
        with pytest.raises(ValueError, match="out of range"):
            _run(fx.c5(), group=(99,))

    def test_generators_of_another_graph_are_a_caller_error(self):
        # a C6 rotation moves the chord (0,3) of C6 + (0,3) off the edge set
        c6 = R.circulant(6, (1,))
        chorded = R.Graph(6, c6.edges + ((0, 3),))
        with pytest.raises(ValueError, match="another graph"):
            _run(chorded, group=fx.rotation_gens(c6, 6))

    def test_supplied_generators_used_verbatim(self, z12_exact_report):
        assert z12_exact_report.group_order == 12
        assert tuple(sorted(z12_exact_report.orbit_sizes)) == (12, 12)


class TestGeneratingSetIndependence:
    """Certificates depend on the group, not on the generators that name it."""

    @pytest.mark.parametrize("make, gens_of", [
        (fx.z12, lambda g: fx.rotation_gens(g, 12)),
        (fx.z21, lambda g: fx.rotation_gens(g, 21)),
        (fx.cn6b, R.automorphism_generators),
    ], ids=["z12-rotations", "z21-rotations", "cn6b"])
    def test_redundant_generators_give_the_same_certificate(self, make, gens_of):
        g = make()
        gens = gens_of(g)
        # the squares add nothing to the group, only to the generator list
        redundant = R.GroupGenerators(
            g, tuple(tuple(s[v] for v in s) for s in gens.gens) + gens.gens)
        a = _run(g, LOWER, group=gens)
        b = _run(g, LOWER, group=redundant)
        assert a.status is b.status
        assert a.status in (R.PipelineStatus.CERTIFIED_EXACT,
                            R.PipelineStatus.CERTIFIED_NUMERIC)
        assert a.group_order == b.group_order
        pairs_a = zip(a.certificate.coeffs, a.certificate.reps)
        pairs_b = zip(b.certificate.coeffs, b.certificate.reps)
        for (ca, va), (cb, vb) in zip(pairs_a, pairs_b, strict=True):
            assert abs(float(ca) - float(cb)) <= 1e-10
            assert np.max(np.abs(va - vb)) <= 1e-10


class TestQuaternionicComponent:
    def test_q8_cayley_graph_is_certified_exact(self):
        # K4,4 under Q8's left action: lambda_2 holds an endo_dim 4 isotypic,
        # and every later stage runs on it.
        g = fx.q8_cayley()
        rep = _run(g, LOWER, group=fx.q8_left_gens(g))
        assert rep.isotypics == ((1, 1, 1), (1, 1, 1), (4, 1, 4))
        assert rep.status is R.PipelineStatus.CERTIFIED_EXACT
        assert rep.flags == ()
        assert R.reverify_report(json.loads(R.emit_report(rep, "JSON")))


class TestStageTimings:
    @pytest.mark.parametrize("make, target, kw", [
        (fx.barbell, LOWER, {}),
        (fx.petersen, LOWER, {}),
        (fx.c4, UPPER, {}),
        (fx.z12, UPPER, {}),
        (fx.c5, LOWER, {"group": R.GroupGenerators(fx.c5(), ())}),
        (fx.c5, LOWER, {"CLUSTER_TOL": 10.0}),  # a rigidity.spectra constant
    ])
    def test_every_stage_timed_and_sum_is_wall_time(self, make, target, kw,
                                                    monkeypatch):
        for name in filter(str.isupper, kw):
            monkeypatch.setattr(spectra, name, kw[name])
        config = {k: v for k, v in kw.items() if not k.isupper()}
        graph, cfg = make(), R.PipelineConfig(**config)
        t0 = time.perf_counter()
        rep = R.run_pipeline(graph, target, cfg)
        wall = time.perf_counter() - t0
        assert list(rep.timings) == list(rep.route[:-1])
        assert abs(sum(rep.timings.values()) - wall) <= 0.010 + 0.05 * wall


    def test_time_goes_to_the_stage_that_spent_it(self, monkeypatch):
        def slowed(fn):
            def slow(*args, **kwargs):
                time.sleep(0.05)
                return fn(*args, **kwargs)
            return slow

        for name in ("automorphism_generators", "find_disproof"):
            monkeypatch.setattr(P, name, slowed(getattr(P, name)))
        rep = _run(fx.barbell(), LOWER)
        assert rep.status is R.PipelineStatus.DISPROVED
        assert rep.timings["group"] >= 0.05
        assert rep.timings["disproof"] >= 0.05
        assert rep.timings["orbits"] < 0.05

class TestBipartiteShortcut:
    """Regular bipartite upper targets need no shortcut of their own.

    The general route certifies them with the +-1 vector that alternates
    across every edge, which can be written down without an SDP.
    """

    @pytest.mark.parametrize("make", [fx.c4, fx.q3, fx.desargues])
    def test_upper_certified_without_sdp(self, make):
        g = make()
        rep = _run(g, UPPER)
        assert rep.status is R.PipelineStatus.CERTIFIED_EXACT
        assert abs(rep.lam - 2 * g.degrees[0]) <= 1e-10
        phi = np.asarray(rep.certificate.phi)
        assert np.max(np.abs(np.abs(phi) - abs(phi[0]))) <= 1e-12 * abs(phi[0])
        for u, v in g.edges:
            assert abs(phi[u] + phi[v]) <= 1e-12 * abs(phi[0])

    def test_lower_target_takes_the_general_cone_route(self):
        rep = _run(fx.c4(), LOWER)
        assert "cone" in rep.route


class TestReportSerialization:
    def test_json_deterministic(self, battery_reports):
        rep = battery_reports[("petersen", LOWER)]
        rep2 = _run(fx.petersen(), LOWER)
        assert R.emit_report(rep, "JSON") == R.emit_report(rep2, "JSON")

    def test_json_excludes_timings_text_includes(self, battery_reports):
        rep = battery_reports[("petersen", LOWER)]
        blob = R.emit_report(rep, "JSON").decode()
        assert "timings" not in blob
        text = R.emit_report(rep, "TEXT").decode()
        assert "spectrum" in text
        assert rep.graph_id in text

    def test_unknown_format_rejected(self, battery_reports):
        with pytest.raises(ValueError):
            R.emit_report(battery_reports[("petersen", LOWER)], "YAML")

    def test_exact_coefficients_serialized_as_strings(self, z12_exact_report):
        payload = json.loads(R.emit_report(z12_exact_report, "JSON"))
        coeffs = payload["certificate"]["a"]
        assert sorted(coeffs) == ["0", "1", "1/3"]
        assert payload["certificate"]["exact"] is True

    def test_disproved_payload_embeds_normalized_weights(self, battery_reports):
        rep = battery_reports[("barbell", LOWER)]
        payload = json.loads(R.emit_report(rep, "JSON"))
        w = payload["disproof"]["w"]
        assert len(w) == 7
        assert abs(sum(w) - 7.0) <= 1e-9

    def test_schema_2_payload_shape(self, battery_reports, z12_exact_report,
                                    tensegrity_report):
        top = {"schema", "graph_id", "graph6", "n", "m", "target", "route",
               "status", "group_order", "orbit_of", "orbit_sizes", "isotypics",
               "lambda", "certificate", "disproof",
               "residuals", "flags", "message"}
        cert_keys = {"a", "vectors", "lambda", "exact", "eigen_residual",
                     "orbit_residual", "flags"}
        exact, numeric, disproved = (
            json.loads(R.emit_report(rep, "JSON")) for rep in (
                z12_exact_report, tensegrity_report,
                battery_reports[("barbell", LOWER)]))
        for payload in (exact, numeric, disproved):
            assert payload["schema"] == 2
            assert set(payload) == top
        assert set(exact["certificate"]) == set(numeric["certificate"]) == cert_keys
        assert exact["certificate"]["flags"] == []
        assert numeric["certificate"]["flags"] == ["EXACT_UNAVAILABLE"]
        assert exact["disproof"] is None and disproved["certificate"] is None
        assert set(disproved["disproof"]) == {"w", "achieved", "baseline", "margin"}


class TestReverification:
    def test_certified_reports_reverify(self, battery_reports,
                                        z12_exact_report):
        for rep in (battery_reports[("petersen", LOWER)],
                    battery_reports[("circulant(21,{1,6})", UPPER)],
                    z12_exact_report):
            payload = json.loads(R.emit_report(rep, "JSON"))
            assert R.reverify_report(payload)

    def test_disproof_reports_reverify(self, battery_reports):
        payload = json.loads(R.emit_report(
            battery_reports[("f3", UPPER)], "JSON"))
        assert R.reverify_report(payload)

    def test_gram_matrix_is_no_certificate(self):
        rep = _run(fx.c5(), group=R.GroupGenerators(fx.c5(), ()))
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert payload["route"][-2:] == ["disproof", "INCONCLUSIVE_NO_RANK1"]
        assert R.reverify_report(payload)
        payload["status"] = "CERTIFIED_NUMERIC"
        assert not R.reverify_report(payload)
        # a route that may end in that status does not stand in for a certificate
        payload["route"][-2:] = ["subcone", "assemble", "verify", "CERTIFIED_NUMERIC"]
        assert payload["route"][-5] == "mult_bound"
        assert R.route_is_valid(tuple(payload["route"]))
        assert not R.reverify_report(payload)

    def test_route_through_the_sdp_no_longer_reverifies(self):
        # Earlier versions disproved atlas-136 UPPER after an infeasible SDP.
        rep = _run(R.parse_graph6("E~^G"), UPPER)
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert R.reverify_report(payload)
        payload["route"][-3:] = ["sdp", "disproof", "DISPROVED"]
        assert payload["route"][-4] == "isotypics"
        assert R.reverify_report(payload) is False

    @pytest.mark.parametrize("name,key", [
        ("verify_certificate", ("petersen", LOWER)),
        ("verify_disproof", ("barbell", LOWER)),
    ], ids=["certificate", "disproof"])
    def test_failed_eigensolve_is_rejected(self, monkeypatch, battery_reports,
                                           name, key):
        payload = json.loads(R.emit_report(battery_reports[key], "JSON"))
        monkeypatch.setattr(check, name, _eigensolve_fails)
        assert R.reverify_report(payload) is False

    def test_one_uniform_eigensolve_per_certificate(self, monkeypatch,
                                                    battery_reports):
        # The isotypics check and the certificate check share one spectrum.
        payload = json.loads(R.emit_report(
            battery_reports[("petersen", LOWER)], "JSON"))
        assert payload["isotypics"]
        calls, real = [], R.eig_sym

        def spy(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr("rigidity.spectra.eig_sym", spy)
        monkeypatch.setattr("rigidity.check.eig_sym", spy)
        assert R.reverify_report(payload)
        assert len(calls) == 1

    def test_one_uniform_eigensolve_per_disproof(self, monkeypatch,
                                                 battery_reports):
        # The isotypics check and the disproof check share one spectrum.
        g = fx.barbell()
        payload = json.loads(R.emit_report(battery_reports[("barbell", LOWER)],
                                           "JSON"))
        payload["isotypics"] = [[1, 1, 1]]  # lambda_2 is simple: this fits
        L = R.laplacian(g, np.ones(g.m))
        uniform, real = [], R.eig_sym

        def spy(A):
            uniform.append(np.array_equal(A, L))
            return real(A)

        monkeypatch.setattr("rigidity.spectra.eig_sym", spy)
        monkeypatch.setattr("rigidity.check.eig_sym", spy)
        assert R.reverify_report(payload)
        assert sum(uniform) == 1

    def test_tampered_certificate_fails(self, z12_exact_report):
        payload = json.loads(R.emit_report(z12_exact_report, "JSON"))
        payload["certificate"]["a"] = ["1", "1", "0"]
        assert not R.reverify_report(payload)

    @pytest.mark.parametrize("route", ["exact", "numeric"])
    @pytest.mark.parametrize("change", ["drop_last", "append_zero"])
    def test_orbit_labels_must_cover_each_edge_once(self, route, change,
                                                    battery_reports,
                                                    z12_exact_report):
        if route == "exact":
            rep = z12_exact_report
        else:
            rep = battery_reports[("circulant(5,{1})", LOWER)]
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert R.reverify_report(payload)
        labels = payload["orbit_of"]
        payload["orbit_of"] = labels[:-1] if change == "drop_last" else labels + [0]
        assert not R.reverify_report(payload)

    @pytest.mark.parametrize("change", [
        "report_m_wrong", "report_route_skips_stage", "report_status_off_route",
        "report_schema_1",
        "vector_entry_dropped", "vector_nan", "coefficient_nan",
        "certificate_lambda_null", "extra_coefficient",
        "disproof_mass_off", "disproof_w_short", "disproof_w_nan",
        "disproof_w_negative", "disproof_w_not_numbers",
        "disproof_w_missing", "disproof_not_a_mapping",
        "disproof_orbit_label_huge", "disproof_orbit_label_overflows",
        "disproof_achieved_not_a_number", "disproof_margin_off",
        "disproof_baseline_off", "disproof_lambda_off", "disproof_lambda_huge",
        "disproof_achieved_huge", "disproof_baseline_huge", "disproof_margin_huge",
        "certificate_top_lambda_huge", "exact_status_and_flag",
        "exact_status_and_flag_a_string", "exact_flag_only",
        "z12_coefficients_floats", "z12_flagged_unavailable", "graph6_malformed",
        "graph6_null", "target_unknown", "status_missing",
        "certificate_numbers_as_strings", "coefficient_bool",
        "disproof_w_strings", "disproof_margin_string",
    ])
    def test_malformed_payload_is_rejected(self, change, battery_reports,
                                           z12_exact_report):
        kind = change.split("_")[0]
        if kind == "report":  # INCONCLUSIVE_NO_RANK1
            rep = _run(fx.c5(), group=R.GroupGenerators(fx.c5(), ()))
        elif kind in ("disproof", "graph6", "target", "status"):
            rep = battery_reports[("barbell", LOWER)]
        elif change == "extra_coefficient" or kind == "z12":
            rep = z12_exact_report
        else:
            rep = battery_reports[("circulant(5,{1})", LOWER)]
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert R.reverify_report(payload)
        cert, disp = payload["certificate"], payload["disproof"]
        if change == "report_m_wrong":
            payload["m"] += 1
        elif change == "report_route_skips_stage":
            payload["route"].remove("isotypics")
        elif change == "report_status_off_route":
            payload["status"] = "INCONCLUSIVE_MULTIPLICITY"
        elif change == "report_schema_1":  # its routes ran the SDP first
            payload["schema"] = 1
        elif change == "vector_entry_dropped":
            cert["vectors"][0] = cert["vectors"][0][:-1]
        elif change == "vector_nan":
            cert["vectors"][0][0] = float("nan")
        elif change == "coefficient_nan":
            cert["a"][0] = float("nan")
        elif change == "certificate_lambda_null":
            cert["lambda"] = None
        elif change == "extra_coefficient":
            cert["a"].append("1")
        elif change == "disproof_mass_off":
            disp["w"][0] += 1.0
        elif change == "disproof_w_short":
            disp["w"] = disp["w"][:-1]
        elif change == "disproof_w_nan":
            disp["w"][1] = float("nan")
        elif change == "disproof_w_negative":
            disp["w"][1], disp["w"][2] = -1.0, disp["w"][2] + disp["w"][1] + 1.0
        elif change == "disproof_w_not_numbers":
            disp["w"] = ["heavy"] * len(disp["w"])
        elif change == "disproof_w_missing":
            del disp["w"]
        elif change == "disproof_not_a_mapping":
            payload["disproof"] = [1]
        elif change == "disproof_orbit_label_huge":  # no bincount of 10**12 bins
            payload["orbit_of"][-1] = 10**12
        elif change == "disproof_orbit_label_overflows":  # beyond int64
            payload["orbit_of"][-1] = 10**20
        elif change == "disproof_achieved_not_a_number":
            disp["achieved"] = "banana"
        elif change == "disproof_margin_off":
            disp["margin"] = 1e6
        elif change == "disproof_baseline_off":
            disp["baseline"] = -5.0
        elif change == "disproof_lambda_off":
            payload["lambda"] = 123.0
        elif change in ("disproof_lambda_huge", "certificate_top_lambda_huge"):
            payload["lambda"] = 10**400  # valid JSON, too large for a float
        elif change.endswith("_huge"):
            disp[change.split("_")[1]] = 10**400
        elif change.startswith("exact_"):  # claims more than C5's numeric report
            if "status" in change:
                payload["status"] = payload["route"][-1] = "CERTIFIED_EXACT"
            cert["exact"] = "yes" if change.endswith("a_string") else True
        elif change == "z12_coefficients_floats":
            cert["a"] = [float(Fraction(a)) for a in cert["a"]]
        elif change == "z12_flagged_unavailable":
            cert["flags"] = ["EXACT_UNAVAILABLE"]
        elif change == "certificate_numbers_as_strings":  # numpy reads them
            payload["lambda"] = str(payload["lambda"])
            cert["vectors"] = [[str(x) for x in v] for v in cert["vectors"]]
        elif change == "coefficient_bool":
            cert["a"][0] = True
        elif change == "disproof_w_strings":
            disp["w"] = [str(x) for x in disp["w"]]
        elif change == "disproof_margin_string":
            disp["margin"] = str(disp["margin"])
        elif change == "graph6_malformed":
            payload["graph6"] = "!!"
        elif change == "graph6_null":
            payload["graph6"] = None
        elif change == "target_unknown":
            payload["target"] = "MIDDLE"
        else:
            del payload["status"]
        assert R.reverify_report(payload) is False

    # Z12's coefficients are "1/3", "1", "0". Each respelling keeps the value
    # that Fraction reads, but only str(Fraction)'s own spelling is accepted.
    @pytest.mark.parametrize("index,coefficient", [
        (2, "1e10000000"), (0, " 1/3"), (1, "+1"), (1, "1.0"), (1, "1e0"),
        (1, "01"), (1, "1_0/1_0"), (1, "1" + "0" * 300 + "/1" + "0" * 300),
        (0, "1/0"),
    ], ids=["huge_exponent", "space", "plus", "decimal", "exponent",
            "leading_zero", "underscores", "overlong", "zero_denominator"])
    def test_exact_coefficient_outside_the_fraction_grammar_is_rejected(
            self, index, coefficient, z12_exact_report):
        payload = json.loads(R.emit_report(z12_exact_report, "JSON"))
        payload["certificate"]["a"][index] = coefficient
        start = time.perf_counter()
        assert R.reverify_report(payload) is False
        # Fraction("1e10000000") alone takes seconds: it is never called.
        assert time.perf_counter() - start < 0.5

    # Petersen's lambda_2 eigenspace is one 5-dimensional irreducible of S5.
    @pytest.mark.parametrize("isotypics", [
        [[7, 7, 7]], [], [[4, 1, 1]], [[5, 1, 1], [1, 1, 1]], [[5, 1, 0]],
        [[-5, -1, 1]], [[5, 1]], [[5.0, 1, 1]], [[5, True, True]],
        [[5, 1, 1, 1]], ["511"], [[5, 1, 2]], [[5, 1, 3]],
    ], ids=["claimed_7x7", "dropped", "too_few_dimensions",
            "too_many_dimensions", "endo_zero", "negative", "pair",
            "float_entry", "bool_entry", "four_entries", "string_entry",
            "endo_not_dividing", "endo_three"])
    def test_isotypics_must_fill_the_target_eigenspace(self, isotypics,
                                                       battery_reports):
        payload = json.loads(R.emit_report(
            battery_reports[("petersen", LOWER)], "JSON"))
        assert payload["isotypics"] == [[5, 1, 1]]
        assert "cone" in payload["route"]
        assert R.reverify_report(payload)
        payload["isotypics"] = isotypics
        assert R.reverify_report(payload) is False

    def test_isotypics_listed_off_the_mult_bound_route_are_checked(
            self, monkeypatch):
        # A run whose decomposition fails never lists isotypics.
        def unstable(*args):
            raise R.UnstableSplit("unstable split injected by the test")

        rep = _run_with(monkeypatch, "isotypic_decompose", unstable, fx.barbell())
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert payload["route"][-2:] == ["isotypics", "INCONCLUSIVE_SOLVER"]
        assert payload["isotypics"] == []
        payload["isotypics"] = [[1, 1, 1]]  # lambda_2 is simple: this fits
        assert R.reverify_report(payload)
        payload["isotypics"] = [[2, 1, 1]]
        assert R.reverify_report(payload) is False

    @pytest.mark.parametrize("change", [
        {"group_order": 999, "orbit_sizes": [1, 2]},
        {"orbit_sizes": [1, 14]},
        {"orbit_sizes": [15, 0]},
        {"group_order": 999},
        {"group_order": 0},
        {"group_order": 120.5},
        {"orbit_of": [False] * 15},
    ], ids=["order_and_sizes", "sizes_miscounted", "size_zero",
            "order_not_a_multiple", "order_zero", "order_not_an_integer",
            "labels_not_integers"])
    def test_group_order_and_orbit_sizes_must_fit_the_orbits(
            self, change, battery_reports):
        payload = json.loads(R.emit_report(
            battery_reports[("petersen", LOWER)], "JSON"))
        assert (payload["group_order"], payload["orbit_sizes"]) == (120, [15])
        assert R.reverify_report(payload)
        payload.update(change)
        assert R.reverify_report(payload) is False

    @pytest.mark.parametrize("change", [
        {"group_order": 1}, {"orbit_sizes": [5]}, {"orbit_of": [0] * 5},
    ], ids=["order", "sizes", "labels"])
    def test_run_stopped_before_orbits_claims_none(self, monkeypatch, change):
        with monkeypatch.context() as mp:
            mp.setattr(spectra, "CLUSTER_TOL", 10.0)
            rep = _run(fx.c5())
        payload = json.loads(R.emit_report(rep, "JSON"))
        assert payload["route"] == ["spectrum", "cluster", "INCONCLUSIVE_SOLVER"]
        assert R.reverify_report(payload)
        payload.update(change)
        assert R.reverify_report(payload) is False

    def test_tampered_disproof_fails(self, battery_reports):
        payload = json.loads(R.emit_report(
            battery_reports[("barbell", LOWER)], "JSON"))
        payload["disproof"]["w"] = [1.0] * 7
        assert not R.reverify_report(payload)


class TestSeedStability:
    def test_same_seed_same_bytes(self):
        a = _run(fx.z21(), LOWER, seed=11)
        b = _run(fx.z21(), LOWER, seed=11)
        assert R.emit_report(a, "JSON") == R.emit_report(b, "JSON")


def _pipeline_flags() -> set[str]:
    """Every flag string in pipeline.py: quoted SNAKE_CASE names, not statuses."""
    text = Path(P.__file__).read_text()
    names = set(re.findall(r'"([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)"', text))
    return names - {s.value for s in R.PipelineStatus}


def _readme_flags() -> set[str]:
    """The flags that the rows of README's flag table name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = text.split("| flag | stage | meaning |", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", table, re.M))


class TestReadmeFlagTable:
    def test_table_lists_every_flag_the_pipeline_raises(self):
        assert len(_pipeline_flags()) == 12
        assert _readme_flags() == _pipeline_flags()
