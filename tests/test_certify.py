import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import rigidity as R
from rigidity import certify, sdpfeas

import fixtures as fx


def _cluster(g, which=R.TargetKind.LOWER):
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    return R.cluster_eigenspace(dec, which)


def _auto_part(g):
    return R.edge_orbits(R.automorphism_generators(g))


def _z12_cone():
    g = fx.z12()
    gens = fx.rotation_gens(g, 12)
    iso = R.isotypic_decompose(_cluster(g), gens)
    part = R.edge_orbits(gens)
    return g, part, _cluster(g), R.build_cone(iso, part)


class TestRationalize:
    def test_small_rationals_recovered(self):
        assert R.rationalize_tight(1 / 3) == Fraction(1, 3)
        assert R.rationalize_tight(0.5) == Fraction(1, 2)
        assert R.rationalize_tight(-2.0) == Fraction(-2)
        assert R.rationalize_tight(0.0) == Fraction(0)
        assert R.rationalize_tight(7 / 58) == Fraction(7, 58)

    def test_quadratic_irrationals_rejected(self):
        # continued-fraction convergents with small denominators stay
        # ~1e-9 away from these, far outside the acceptance gate
        for x in ((1 + math.sqrt(5)) / 2, math.sqrt(2), (5 - math.sqrt(17)) / 2,
                  2 * (1 - math.cos(2 * math.pi / 7))):
            assert R.rationalize_tight(x) is None

    def test_loose_gate_still_rejects_irrationals(self):
        assert R.rationalize(math.sqrt(3)) is None
        assert R.rationalize(1 / 7) == Fraction(1, 7)


class TestExactNonnegSolve:
    def test_known_system(self):
        A = [[Fraction(6), Fraction(18), Fraction(6)],
             [Fraction(12), Fraction(0), Fraction(12)]]
        b = [Fraction(12), Fraction(12)]
        sol = R.exact_nonneg_solve(A, b)
        assert sol is not None
        assert all(x >= 0 for x in sol)
        for row, bi in zip(A, b):
            assert sum(a * x for a, x in zip(row, sol)) == bi

    def test_infeasible_system(self):
        assert R.exact_nonneg_solve([[Fraction(1)], [Fraction(1)]],
                                    [Fraction(1), Fraction(2)]) is None

    def test_negativity_required_is_infeasible(self):
        assert R.exact_nonneg_solve([[Fraction(1)]], [Fraction(-1)]) is None

    def test_matches_linprog_oracle(self, rng):
        # feasibility agreement with scipy's LP solver on random systems
        for _ in range(30):
            rows, cols = rng.integers(1, 4), rng.integers(1, 5)
            A = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                  for _ in range(cols)] for _ in range(rows)]
            b = [Fraction(int(rng.integers(-4, 5))) for _ in range(rows)]
            got = R.exact_nonneg_solve(A, b)
            lp = scipy.optimize.linprog(
                c=np.zeros(cols),
                A_eq=np.array([[float(x) for x in row] for row in A]),
                b_eq=np.array([float(x) for x in b]),
                bounds=[(0, None)] * cols, method="highs")
            assert (got is not None) == lp.success
            if got is not None:
                for row, bi in zip(A, b):
                    assert sum(a * x for a, x in zip(row, got)) == bi
                assert all(x >= 0 for x in got)


class TestBuildCone:
    def test_z12_generators(self):
        _, _, _, cone = _z12_cone()
        got = sorted(tuple(np.round(gv, 8)) for gv in cone.generators)
        assert got == [(6.0, 12.0), (6.0, 12.0), (18.0, 0.0)]
        assert np.array_equal(cone.part.size_vector, np.array([12.0, 12.0]))

    def test_generators_nonnegative_nonzero(self):
        for make in (fx.c5, fx.petersen, fx.cn6b):
            g = make()
            iso = R.isotypic_decompose(_cluster(g), R.automorphism_generators(g))
            cone = R.build_cone(iso, _auto_part(g))
            for gv in cone.generators:
                assert np.all(gv >= -1e-12)
                assert np.max(gv) > 1e-8

    def test_multiplicity_gate(self):
        g = fx.c5()
        trivial = R.GroupGenerators(g, ())
        iso = R.isotypic_decompose(_cluster(g), trivial)
        part = R.edge_orbits(trivial)
        with pytest.raises(R.MultiplicityNotOne):
            R.build_cone(iso, part)


class TestConeMembership:
    def test_z12_exact_coefficients(self):
        _, part, _, cone = _z12_cone()
        sol = R.solve_cone_membership(cone)
        assert sol.feasible and sol.exact
        assert sorted(sol.coeffs) == [Fraction(0), Fraction(1, 3), Fraction(1)]
        # exact resubstitution leaves zero rational residual
        total = [Fraction(0), Fraction(0)]
        for a, gv in zip(sol.coeffs, cone.generators):
            gf = [R.rationalize_tight(float(v)) for v in gv]
            total = [t + a * x for t, x in zip(total, gf)]
        assert total == [Fraction(int(s)) for s in part.sizes]

    def test_irrational_generators_fall_back_to_numeric(self):
        g = fx.c5()
        iso = R.isotypic_decompose(_cluster(g), R.automorphism_generators(g))
        cone = R.build_cone(iso, _auto_part(g))
        sol = R.solve_cone_membership(cone)
        assert sol.feasible and not sol.exact
        assert sol.residual <= 1e-10

    def test_irrational_entry_stops_rationalizing(self, monkeypatch):
        # One entry that fails the gate rules out the exact route.
        g = fx.gnp(30, 0.2, seed=0)
        trivial = R.GroupGenerators(g, ())
        iso = R.isotypic_decompose(_cluster(g), trivial)
        cone = R.build_cone(iso, R.edge_orbits(trivial))
        calls = _count_calls(monkeypatch, "rationalize_tight")
        sol = R.solve_cone_membership(cone)
        assert not sol.exact
        assert 1 <= len(calls) <= len(cone.generators)

    def test_exact_infeasible_cone(self):
        _, part, _, cone = _z12_cone()
        # the cone of (1, 0) misses the orbit-size vector (12, 12)
        off = R.ConeModel(generators=(np.array([1.0, 0.0]),),
                          reps=(cone.reps[0],), part=part)
        sol = R.solve_cone_membership(off)
        assert not sol.feasible
        assert sol.exact  # infeasibility established over the rationals


class TestAssemble:
    def test_z12_certificate(self):
        g, part, cl, cone = _z12_cone()
        sol = R.solve_cone_membership(cone)
        cert = R.assemble_certificate(cone, sol, cl)
        assert cert.exact
        assert cert.lam == cl.value
        assert cert.orbit_residual <= 1e-10
        assert cert.eigen_residual <= 1e-8
        # phi already folds the coefficients in (phi = sum sqrt(a_j) phi_j)
        vr = R.verify_certificate(part, [(1.0, cert.phi)],
                                  cl.value, R.TargetKind.LOWER)
        assert vr.ok

    def test_tampered_solution_rejected(self):
        g, part, cl, cone = _z12_cone()
        sol = R.solve_cone_membership(cone)
        bad = dataclasses.replace(
            sol, coeffs=tuple(float(c) + 0.2 for c in sol.coeffs), exact=False)
        with pytest.raises(R.ResidualTooLarge):
            R.assemble_certificate(cone, bad, cl)


class TestBipartiteShortcut:
    """Regular bipartite upper targets need no shortcut of their own.

    lambda_max = 2 deg is simple and its +-1 eigenvector has equal energy on
    every edge, so the general cone already yields that certificate.
    """

    @pytest.mark.parametrize("make", [fx.c4, fx.q3, fx.desargues])
    def test_regular_bipartite_certificate(self, make):
        g = make()
        cl = _cluster(g, R.TargetKind.UPPER)
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        cone = R.build_cone(R.isotypic_decompose(cl, gens), part)
        cert = R.assemble_certificate(cone, R.solve_cone_membership(cone), cl)
        assert cert.exact
        assert abs(cert.lam - 2.0 * g.degrees[0]) <= 1e-10
        assert len(cert.coeffs) == 1
        en = np.asarray(R.edge_energy(g, cert.phi))
        assert np.max(en) - np.min(en) <= 1e-12 * np.max(en)
        vr = R.verify_certificate(part, [(1.0, cert.phi)],
                                  cl.value, R.TargetKind.UPPER)
        assert vr.ok

    def test_upper_eigenvalue_is_two_d(self):
        g = fx.desargues()
        w = R.WeightVector.uniform(g)
        assert abs(R.laplacian_spectrum(g, w).eigenvalues[-1] - 6.0) <= 1e-10


class TestVerifyCertificate:
    def test_z21_lower_constant(self):
        g = fx.z21()
        part = R.edge_orbits(fx.rotation_gens(g, 21))
        t = 2 * np.pi * np.arange(21) / 21
        cl = _cluster(g)
        vr = R.verify_certificate(part, [(1.0, np.cos(3 * t)),
                                            (1.0, np.sin(3 * t))],
                                  cl.value, R.TargetKind.LOWER)
        assert vr.ok
        assert abs(vr.c - 2 * (1 - math.cos(2 * math.pi / 7))) <= 1e-6

    def test_z21_upper_constant(self):
        g = fx.z21()
        part = R.edge_orbits(fx.rotation_gens(g, 21))
        t = 2 * np.pi * np.arange(21) / 21
        cl = _cluster(g, R.TargetKind.UPPER)
        vr = R.verify_certificate(part, [(1.0, np.cos(9 * t)),
                                            (1.0, np.sin(9 * t))],
                                  cl.value, R.TargetKind.UPPER)
        assert vr.ok
        assert abs(vr.c - 2 * (1 - math.cos(6 * math.pi / 7))) <= 1e-6

    def test_failing_clauses(self):
        g = fx.barbell()
        part = _auto_part(g)
        cl = _cluster(g)
        phi = cl.basis[:, 0]

        vr = R.verify_certificate(part, [(1.0, phi)], cl.value,
                                  R.TargetKind.LOWER)
        assert not vr.ok and vr.failing_clause == "orbit_identity"

        vr = R.verify_certificate(part, [(1.0, np.ones(6))], cl.value,
                                  R.TargetKind.LOWER)
        assert not vr.ok and vr.failing_clause == "eigenvector"

        vr = R.verify_certificate(part, [(-1.0, phi)], cl.value,
                                  R.TargetKind.LOWER)
        assert not vr.ok and vr.failing_clause == "nonnegative_coefficients"

        vr = R.verify_certificate(part, [(1.0, np.zeros(6))], cl.value,
                                  R.TargetKind.LOWER)
        assert not vr.ok and vr.failing_clause == "positive_scale"

        # lambda2 eigenvector offered against the UPPER target
        vr = R.verify_certificate(part, [(1.0, phi)], cl.value,
                                  R.TargetKind.UPPER)
        assert not vr.ok and vr.failing_clause == "eigenvalue_position"


class TestQuadraticSystem:
    def test_c5_per_edge_system_has_no_solution(self):
        # d = 2: scan coefficient space; no x makes all edge energies 1
        g = fx.c5()
        cl = _cluster(g)
        part = R.edge_orbits(R.GroupGenerators(g, ()))  # singleton orbits
        best = np.inf
        for r in np.linspace(0.2, 3.0, 60):
            for theta in np.linspace(0, 2 * np.pi, 200, endpoint=False):
                x = r * np.array([np.cos(theta), np.sin(theta)])
                resid = R.orbit_energy(part, cl.basis @ x) - part.size_vector
                best = min(best, float(np.max(np.abs(resid))))
        assert best > 0.01

    def test_orbit_system_is_solvable_for_c5(self):
        g = fx.c5()
        cl = _cluster(g)
        part = _auto_part(g)
        x = np.array([math.sqrt(5 / cl.value), 0.0])
        resid = R.orbit_energy(part, cl.basis @ x) - part.size_vector
        assert np.max(np.abs(resid)) <= 1e-8


class TestRayleighCompression:
    @pytest.mark.parametrize("make,nrot", [(fx.c5, 5), (fx.z21, 21)])
    def test_bottom_eigenvalue_matches_sampled_minimum(self, make, nrot, rng):
        # lambda_min of sum y_i Ltilde^i == min over unit eigenspace vectors
        # of <y, orbit_energy(phi)>; 10000 samples
        g = make()
        cl = _cluster(g)
        gens = fx.rotation_gens(g, nrot)
        part = R.edge_orbits(gens)
        co = sdpfeas.compress_operators(cl, part)
        y = rng.uniform(-1.0, 1.0, size=len(co.ops))
        M = np.sum([yi * op for yi, op in zip(y, co.ops)], axis=0)
        lam_min = float(np.linalg.eigvalsh(M)[0])
        best = np.inf
        d = cl.basis.shape[1]
        for _ in range(10000):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            phi = cl.basis @ x
            best = min(best, float(np.dot(
                y, R.orbit_energy(part, phi))))
        assert abs(lam_min - best) <= 1e-6


class TestDisproof:
    def test_barbell_lower(self):
        g = fx.barbell()
        d = R.find_disproof(_cluster(g), _auto_part(g), R.TargetKind.LOWER)
        assert d is not None
        assert d.achieved >= 0.70
        assert abs(d.baseline - (5 - math.sqrt(17)) / 2) <= 1e-10
        assert R.verify_disproof(g, d, R.TargetKind.LOWER)

    def test_f3_upper(self):
        g = fx.f3()
        d = R.find_disproof(_cluster(g, R.TargetKind.UPPER), _auto_part(g),
                            R.TargetKind.UPPER)
        assert d is not None
        assert d.achieved < 7.0
        assert R.verify_disproof(g, d, R.TargetKind.UPPER)

    def test_rigid_graphs_yield_none(self):
        for make in (fx.k4, fx.c5):
            g = make()
            assert R.find_disproof(_cluster(g), _auto_part(g),
                                   R.TargetKind.LOWER) is None

    def test_line_search_failure(self, monkeypatch):
        g = fx.barbell()
        monkeypatch.setattr(certify, "DELTA_MAX", 1e-10)
        monkeypatch.setattr(certify, "DELTA_MIN", 1e-11)
        with pytest.raises(R.LineSearchFailed):
            R.find_disproof(_cluster(g), _auto_part(g), R.TargetKind.LOWER)

    def test_verify_disproof_rejects_bad_weights(self):
        g = fx.barbell()
        d = R.find_disproof(_cluster(g), _auto_part(g), R.TargetKind.LOWER)
        # uniform weights: no margin over the baseline
        flat = dataclasses.replace(
            d, w=R.WeightVector.uniform(g), achieved=d.baseline)
        assert not R.verify_disproof(g, flat, R.TargetKind.LOWER)
        # mass not normalized
        heavy = dataclasses.replace(
            d, w=R.WeightVector(2.0 * d.w.values, normalized=False))
        assert not R.verify_disproof(g, heavy, R.TargetKind.LOWER)

    def test_disproof_weights_are_normalized(self):
        g = fx.f3()
        d = R.find_disproof(_cluster(g, R.TargetKind.UPPER), _auto_part(g),
                            R.TargetKind.UPPER)
        assert np.all(d.w.values >= 0)
        assert abs(d.w.values.sum() - g.m) <= 1e-9 * g.m


def _disproof_case(case):
    if case == "barbell-lower":
        return fx.barbell(), R.TargetKind.LOWER
    if case == "p4-upper":
        return R.parse_graph6("Ck"), R.TargetKind.UPPER
    kind = R.TargetKind.LOWER if case == "gnp30-lower" else R.TargetKind.UPPER
    return fx.gnp(30, 0.2, seed=0), kind


def _count_calls(monkeypatch, name):
    """Wrap certify.<name> so that each call appends to the returned list."""
    calls, real = [], getattr(certify, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, name, spy)
    return calls


class TestDisproofWork:
    """At most one eigensolve per weight vector; only accepted steps are clustered.

    A direction on a one-dimensional eigenspace is one LP and nothing else;
    a higher-dimensional one keeps its operators and eigenvector oracle.
    """

    @pytest.mark.parametrize("case", ["barbell-lower", "gnp30-upper"])
    def test_each_weight_vector_solved_once(self, case, monkeypatch):
        g, kind = _disproof_case(case)
        cluster = _cluster(g, kind)
        solved, clustered = [], 0
        laplacian, cluster_eigenspace = certify.laplacian, certify.cluster_eigenspace

        def spy_laplacian(graph, w):
            solved.append(np.asarray(w, dtype=np.float64).tobytes())
            return laplacian(graph, w)

        def spy_cluster(*args, **kwargs):
            nonlocal clustered
            clustered += 1
            return cluster_eigenspace(*args, **kwargs)

        monkeypatch.setattr(certify, "laplacian", spy_laplacian)
        monkeypatch.setattr(certify, "cluster_eigenspace", spy_cluster)
        d = R.find_disproof(cluster, _auto_part(g), kind)
        assert d is not None
        repeats = len(solved) - len(set(solved))
        assert repeats == 0
        assert 1 <= clustered <= certify.MAX_ROUNDS

    @pytest.mark.parametrize("case", ["barbell-lower", "gnp30-upper"])
    def test_given_spectrum_is_not_solved_again(self, case, monkeypatch):
        # The caller's uniform spectrum saves one eigensolve and no step.
        g, kind = _disproof_case(case)
        cluster, part = _cluster(g, kind), _auto_part(g)
        spectrum = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
        solves = _count_calls(monkeypatch, "eig_sym")
        own = R.find_disproof(cluster, part, kind)
        own_solves = len(solves)
        given = R.find_disproof(cluster, part, kind, spectrum=spectrum)
        assert len(solves) - own_solves == own_solves - 1
        assert own is not None and given is not None
        assert given.w.values.tobytes() == own.w.values.tobytes()
        assert (given.achieved, given.baseline, given.margin) == (
            own.achieved, own.baseline, own.margin)

    @pytest.mark.parametrize("case", ["barbell-lower", "gnp30-upper"])
    def test_simple_eigenvalue_direction_is_one_lp(self, case, monkeypatch):
        g, kind = _disproof_case(case)
        directions = _count_calls(monkeypatch, "_cutting_plane_direction")
        lps = _count_calls(monkeypatch, "linprog")
        operators = _count_calls(monkeypatch, "orbit_laplacian")
        assert R.find_disproof(_cluster(g, kind), _auto_part(g),
                               kind) is not None
        assert all(basis.shape[1] == 1 for _, basis, _, _ in directions)
        assert operators == []
        assert len(lps) == len(directions) >= 1

    @pytest.mark.parametrize("kind", [R.TargetKind.LOWER, R.TargetKind.UPPER],
                             ids=["lower", "upper"])
    def test_simple_eigenvalue_guarantee_is_achieved_by_y(self, kind,
                                                          monkeypatch):
        # The solver's objective may exceed the guarantee y achieves by its
        # tolerance; the one cut is exact, so nothing is re-solved.
        g = fx.barbell()
        part = _auto_part(g)
        basis = _cluster(g, kind).basis
        assert basis.shape[1] == 1
        sign = 1.0 if kind is R.TargetKind.LOWER else -1.0
        cut = R.orbit_energy(part, basis[:, 0])
        real, calls = certify.linprog, []

        def linprog(*args, **kwargs):
            res = real(*args, **kwargs)
            # linprog minimizes -sign * cut @ y: a lower fun claims more.
            fun = res.fun - 1e-8
            calls.append(fun)
            return scipy.optimize.OptimizeResult(x=res.x.copy(), fun=fun,
                                                 success=True)

        monkeypatch.setattr(certify, "linprog", linprog)
        y, t = certify._cutting_plane_direction(
            part, basis, kind, np.random.default_rng(0))
        assert len(calls) == 1
        assert t == sign * float(cut @ y)
        assert certify.EPS < t < -calls[0]

    def test_degenerate_eigenvalue_keeps_the_oracle(self, monkeypatch):
        # P4's largest eigenvalue becomes double along the search: that
        # direction takes a cut from the oracle and a second LP.
        g, kind = _disproof_case("p4-upper")
        directions = _count_calls(monkeypatch, "_cutting_plane_direction")
        lps = _count_calls(monkeypatch, "linprog")
        operators = _count_calls(monkeypatch, "orbit_laplacian")
        assert R.find_disproof(_cluster(g, kind), _auto_part(g),
                               kind) is not None
        assert any(basis.shape[1] > 1 for _, basis, _, _ in directions)
        assert operators
        assert len(lps) > len(directions)

    @pytest.mark.parametrize("case", ["barbell-lower", "p4-upper",
                                      "gnp30-lower", "gnp30-upper"])
    def test_interlacing_skip_changes_no_step(self, case, monkeypatch):
        # The reference loop solves every trial with eig_sym.
        g, kind = _disproof_case(case)
        cluster, part = _cluster(g, kind), _auto_part(g)
        d = R.find_disproof(cluster, part, kind)
        monkeypatch.setattr(certify, "_interlacing_rejects", lambda *args: False)
        ref = R.find_disproof(cluster, part, kind)
        assert d is not None and ref is not None
        assert d.w.values.tobytes() == ref.w.values.tobytes()
        assert (d.achieved, d.baseline, d.margin) == (
            ref.achieved, ref.baseline, ref.margin)

    @pytest.mark.parametrize("case", ["barbell-lower", "gnp30-lower",
                                      "gnp30-upper"])
    def test_search_stops_when_a_round_stalls(self, case, monkeypatch):
        # STALL = 0 runs until no step is accepted or MAX_ROUNDS is reached.
        g, kind = _disproof_case(case)
        cluster, part = _cluster(g, kind), _auto_part(g)
        directions = _count_calls(monkeypatch, "_cutting_plane_direction")
        d = R.find_disproof(cluster, part, kind)
        stalled = len(directions)
        monkeypatch.setattr(certify, "STALL", 0.0)
        ref = R.find_disproof(cluster, part, kind)
        full = len(directions) - stalled
        assert d is not None and ref is not None
        assert R.verify_disproof(g, d, kind) and R.verify_disproof(g, ref, kind)
        assert stalled < full
        if case != "barbell-lower":
            assert 2 * stalled < full

    @pytest.mark.parametrize("case", ["gnp30-lower", "gnp30-upper"])
    def test_rejected_trials_skip_the_eigensolve(self, case, monkeypatch):
        g, kind = _disproof_case(case)
        trials = _count_calls(monkeypatch, "_interlacing_rejects")
        solves = _count_calls(monkeypatch, "eig_sym")
        assert R.find_disproof(_cluster(g, kind), _auto_part(g),
                               kind) is not None
        # One solve at uniform weights, then one per trial not skipped.
        assert 1 <= len(solves) < len(trials)


@st.composite
def _interlacing_case(draw):
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    g = R.Graph(n, tuple(sorted(edges)))
    weights = st.lists(st.floats(-1.0, 3.0), min_size=g.m, max_size=g.m)
    w = np.clip(draw(weights), 0.0, None)  # some weights clipped to 0
    other = np.array(draw(weights)) + 1.5  # Q comes from other weights
    p = draw(st.integers(2, n + 2))  # p >= n included
    return g, w, other, p


class TestInterlacingBound:
    @given(_interlacing_case())
    @settings(deadline=None, max_examples=80)
    def test_ritz_values_bound_the_spectrum(self, case):
        g, w, other, p = case
        lam = R.eig_sym(R.laplacian(g, w)).eigenvalues
        V = R.eig_sym(R.laplacian(g, other)).eigenvectors
        scale = max(1.0, float(np.linalg.norm(R.laplacian(g, w))))
        us, vs = g.endpoints
        for kind, Q in ((R.TargetKind.LOWER, V[:, :p]),
                        (R.TargetKind.UPPER, V[:, -p:])):
            D = Q[us] - Q[vs]
            mu = np.linalg.eigvalsh(D.T @ (w[:, None] * D))
            if kind is R.TargetKind.LOWER:
                assert mu[1] >= lam[1] - 1e-12 * scale
                target = lam[1]
            else:
                assert mu[-1] <= lam[-1] + 1e-12 * scale
                target = lam[-1]
            # A trial whose eigenvalue meets the threshold is never skipped.
            assert not certify._interlacing_rejects(g, D, w, target, kind)


class TestMonteCarloShadow:
    def test_certified_bounds_hold_under_sampling(self, rng):
        # spot check; the acceptance suite runs the full 1000-sample version
        for make, kind in ((fx.c5, R.TargetKind.LOWER),
                           (fx.z12, R.TargetKind.UPPER)):
            g = make()
            w0 = R.WeightVector.uniform(g)
            idx = 1 if kind is R.TargetKind.LOWER else -1
            base = R.laplacian_spectrum(g, w0).eigenvalues[idx]
            for _ in range(200):
                w = fx.random_weights(g, rng)
                val = R.laplacian_spectrum(g, w).eigenvalues[idx]
                if kind is R.TargetKind.LOWER:
                    assert val <= base + 1e-6
                else:
                    assert val >= base - 1e-6
