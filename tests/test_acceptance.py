"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"criterion NN <label>: PASS/FAIL" line so the suite doubles as a
checklist when run with -s or -rA.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import rigidity as R
from rigidity import sdpfeas
from rigidity.cli import main as cli_main

import fixtures as fx

LOWER, UPPER = R.TargetKind.LOWER, R.TargetKind.UPPER
CERTIFIED = {R.PipelineStatus.CERTIFIED_EXACT, R.PipelineStatus.CERTIFIED_NUMERIC}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def _cluster(g, which=None):
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    return R.cluster_eigenspace(dec, which or R.TargetKind.LOWER)


def _lam(g, w, idx):
    return float(np.linalg.eigvalsh(R.laplacian(g, w))[idx])


def _assert_edge_isometric(g, phi):
    """phi has the same energy on every edge, to 1e-12 relative."""
    en = np.asarray(R.edge_energy(g, phi))
    assert np.max(en) - np.min(en) <= 1e-12 * np.max(en)


def test_criterion_01_barbell_lower_disproof(battery_reports):
    with criterion("criterion 01 barbell lower disproof"):
        g = fx.barbell()
        base = _lam(g, R.WeightVector.uniform(g), 1)
        assert abs(base - (5 - math.sqrt(17)) / 2) <= 1e-10
        rep = battery_reports[("barbell", LOWER)]
        assert rep.status is R.PipelineStatus.DISPROVED
        assert rep.disproof.achieved >= 0.70
        assert R.verify_disproof(g, rep.disproof, LOWER)
        # reweighting: bridge 3, far triangle edges 0 (edge order is
        # (0,1),(0,2),(1,2),(2,3),(3,4),(3,5),(4,5) with bridge (2,3))
        w = R.WeightVector((0.0, 1.0, 1.0, 3.0, 1.0, 1.0, 0.0))
        assert abs(_lam(g, w, 1) - (9 - math.sqrt(57)) / 2) <= 1e-10


def test_criterion_02_friendship_upper_disproof(battery_reports):
    with criterion("criterion 02 friendship upper disproof"):
        g = fx.f3()
        assert abs(_lam(g, R.WeightVector.uniform(g), -1) - 7.0) <= 1e-10
        rep = battery_reports[("f3", UPPER)]
        assert rep.status is R.PipelineStatus.DISPROVED
        assert R.verify_disproof(g, rep.disproof, UPPER)
        # spokes at 0.5, triangle rims at 2
        w = R.WeightVector((0.5,) * 6 + (2.0,) * 3)
        assert abs(_lam(g, w, -1) - 4.5) <= 1e-10


def test_criterion_03_z21_certified_both_targets(battery_reports):
    with criterion("criterion 03 circulant(21,{1,6}) certified both targets"):
        g = fx.z21()
        for target in (LOWER, UPPER):
            rep = battery_reports[(g.name, target)]
            assert rep.status in CERTIFIED
            assert len(rep.certificate.coeffs) == 1
            assert tuple(rep.orbit_sizes) == (21, 21)
        # harmonic eigen-pairs verify with the known per-orbit constants
        part = R.edge_orbits(fx.rotation_gens(g, 21))
        t = 2 * np.pi * np.arange(21) / 21
        vr = R.verify_certificate(
            part, [(1.0, np.cos(3 * t)), (1.0, np.sin(3 * t))],
            _cluster(g).value, LOWER)
        assert vr.ok
        assert abs(vr.c - 2 * (1 - math.cos(2 * math.pi / 7))) <= 1e-6
        vr = R.verify_certificate(
            part, [(1.0, np.cos(9 * t)), (1.0, np.sin(9 * t))],
            _cluster(g, R.TargetKind.UPPER).value, UPPER)
        assert vr.ok
        assert abs(vr.c - 2 * (1 - math.cos(6 * math.pi / 7))) <= 1e-6


def test_criterion_04_z12_exact_certificate(z12_exact_report):
    with criterion("criterion 04 circulant(12,{2,3}) exact certificate"):
        g = fx.z12()
        cl = _cluster(g)
        assert abs(cl.value - 3.0) <= 1e-8
        assert cl.basis.shape[1] == 6
        rep = z12_exact_report
        assert rep.status is R.PipelineStatus.CERTIFIED_EXACT
        assert tuple(rep.isotypics) == ((2, 1, 2),) * 3
        rot = fx.rotation_gens(g, 12)
        iso = R.isotypic_decompose(cl, rot)
        part = R.edge_orbits(rot)
        cone = R.build_cone(iso, part)
        gens = [tuple(np.round(gv, 8)) for gv in cone.generators]
        assert sorted(gens) == [(6.0, 12.0), (6.0, 12.0), (18.0, 0.0)]
        sol = R.solve_cone_membership(cone)
        assert sol.feasible and sol.exact
        assert sorted(sol.coeffs) == [Fraction(0), Fraction(1, 3), Fraction(1)]
        # the 1/3 coefficient sits on the (18,0) generator
        assert sol.coeffs[gens.index((18.0, 0.0))] == Fraction(1, 3)
        # exact resubstitution: zero residual over the rationals
        total = [Fraction(0), Fraction(0)]
        for a, gv in zip(sol.coeffs, cone.generators):
            total = [t + a * R.rationalize_tight(float(v))
                     for t, v in zip(total, gv)]
        assert total == [Fraction(int(s)) for s in part.sizes]


def test_criterion_05_crossing_number_6b():
    with criterion("criterion 05 crossing-number-6B certificates"):
        g = fx.cn6b()
        cl = _cluster(g)
        assert abs(cl.value - 1.0) <= 1e-8
        assert cl.basis.shape[1] == 3
        part = R.edge_orbits(R.automorphism_generators(g))
        assert sorted(part.sizes) == [6, 12, 12]
        phi = ((1 - math.sqrt(2) / 2) * fx.CN6B_PHI1
               + 2 * fx.CN6B_PHI2 - 2 * fx.CN6B_PHI3)
        vr = R.verify_certificate(part, [(1.0, phi)], cl.value, LOWER)
        assert vr.ok
        oe = np.asarray(R.orbit_energy(part, phi))
        assert np.max(np.abs(oe - np.asarray(part.sizes, float))) <= 1e-8
        rep = R.run_pipeline(g, UPPER, R.PipelineConfig())
        assert rep.status is R.PipelineStatus.CERTIFIED_EXACT
        assert "cone" in rep.route
        _assert_edge_isometric(g, rep.certificate.phi)


def test_criterion_06_twenty_ten_numeric_certificate(tensegrity_report):
    with criterion("criterion 06 (20,10) graph numeric certificate"):
        rep = tensegrity_report
        assert rep.status is R.PipelineStatus.CERTIFIED_NUMERIC
        assert "EXACT_UNAVAILABLE" in rep.flags
        dims = sorted((c[0], c[2]) for c in rep.isotypics)
        assert dims == [(2, 2), (5, 1)]  # 2-dim complex type + 5-dim real
        g = fx.tensegrity20()
        cl = _cluster(g)
        assert cl.basis.shape[1] == 7
        gens = R.automorphism_generators(g)
        iso = R.isotypic_decompose(cl, gens)
        part = R.edge_orbits(gens)
        assert tuple(part.sizes) == (40, 10)
        cone = R.build_cone(iso, part)
        s5 = math.sqrt(5)
        ref = {0: np.array([230 - 90 * s5, 0.0]),
               1: np.array([180 - 68 * s5, 45 - 17 * s5])}
        # generators match the pinned values up to eigenvector scaling
        scale = {}
        for j, gv in enumerate(cone.generators):
            gv = np.asarray(gv)
            scale[j] = ref[j][0] / gv[0]
            assert scale[j] > 0
            assert np.max(np.abs(scale[j] * gv - ref[j])) <= 1e-6
        sol = R.solve_cone_membership(cone)
        assert sol.feasible and not sol.exact and sol.residual <= 1e-9
        a1, a2 = sol.coeffs
        assert a1 <= 1e-8
        # At the pinned generator scale the second orbit row forces
        # a2 = 10/(45-17*sqrt(5)) = (45+17*sqrt(5))/58, and the first
        # row is exactly 4x the second, which is why a1 = 0.
        a2_ref = a2 / scale[1]
        assert abs(a2_ref - (45 + 17 * s5) / 58) <= 1e-6


def test_criterion_07_c5_sdp_vs_per_edge(battery_reports):
    with criterion("criterion 07 C5 orbit SDP feasible, per-edge system not"):
        g = fx.c5()
        cl = _cluster(g)
        part = R.edge_orbits(R.automorphism_generators(g))
        res = sdpfeas.solve_feasibility(sdpfeas.compress_operators(cl, part))
        assert res.status is sdpfeas.SdpStatus.FEASIBLE
        assert np.linalg.matrix_rank(res.Z) == 2
        # no single vector solves the per-edge (1-dimensional) system
        singles = R.edge_orbits(R.GroupGenerators(g, ()))
        best = np.inf
        for r in np.linspace(0.2, 3.0, 60):
            for theta in np.linspace(0, 2 * np.pi, 200, endpoint=False):
                x = r * np.array([np.cos(theta), np.sin(theta)])
                resid = (R.orbit_energy(singles, cl.basis @ x)
                         - singles.size_vector)
                best = min(best, float(np.max(np.abs(resid))))
        assert best > 0.01
        for target in (LOWER, UPPER):
            assert battery_reports[(g.name, target)].status in CERTIFIED


# Regular bipartite upper targets need no shortcut: lambda_max = 2 deg is
# simple on a connected regular bipartite graph, and its +-1 eigenvector is
# edge-isometric, so the general cone route certifies it.
def test_criterion_08_regular_bipartite_shortcut():
    with criterion("criterion 08 regular bipartite upper certificates"):
        for make in (fx.c4, fx.q3, fx.desargues, fx.cn6b):
            g = make()
            rep = R.run_pipeline(g, UPPER, R.PipelineConfig())
            assert rep.status is R.PipelineStatus.CERTIFIED_EXACT, g.name
            assert "cone" in rep.route and "verify" in rep.route
            assert abs(rep.lam - 2 * g.degrees[0]) <= 1e-10
            assert len(rep.certificate.coeffs) == 1
            _assert_edge_isometric(g, rep.certificate.phi)
            assert R.reverify_report(json.loads(R.emit_report(rep, "JSON")))


def test_criterion_09_symmetry_reduced_constraint_counts():
    with criterion("criterion 09 product-graph constraint reduction"):
        prod = R.cartesian_product(fx.desargues(), fx.c5())
        assert prod.n == 100 and prod.m == 250
        gens = fx.lift_product_gens(fx.desargues(), fx.c5(), prod)
        part = R.edge_orbits(gens)
        cl = _cluster(prod)
        orbit_ops = sdpfeas.compress_operators(cl, part)
        singles = R.edge_orbits(R.GroupGenerators(prod, ()))
        edge_ops = sdpfeas.compress_operators(cl, singles)
        assert len(orbit_ops.ops) <= 10
        assert len(edge_ops.ops) == 250
        r_orbit = sdpfeas.solve_feasibility(orbit_ops)
        r_edge = sdpfeas.solve_feasibility(edge_ops)
        assert r_orbit.status is r_edge.status


def test_criterion_10_property_battery(battery_reports):
    with criterion("criterion 10 property battery"):
        rng = np.random.default_rng(20260816)
        for g in fx.battery():
            gens = R.automorphism_generators(g)
            # equivariance of edge energies under every generator
            perms = [(s, R.edge_permutation(g, s)) for s in gens.gens]
            for _ in range(50):
                phi = rng.standard_normal(g.n)
                base = np.asarray(R.edge_energy(g, phi))
                atol = 1e-12 * max(1.0, float(np.max(base)))
                for sigma, perm in perms:
                    moved = np.asarray(
                        R.edge_energy(g, phi[np.argsort(sigma.image)]))
                    assert np.max(np.abs(moved[perm] - base)) <= atol
            # energy identity over random (phi, w) pairs
            for _ in range(100):
                phi = rng.standard_normal(g.n)
                w = fx.random_weights(g, rng)
                lhs = float(phi @ R.laplacian(g, w) @ phi)
                rhs = float(np.asarray(w.values)
                            @ np.asarray(R.edge_energy(g, phi)))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            # symmetrizing never hurts either objective
            part = R.edge_orbits(gens)
            for _ in range(100):
                w = fx.random_weights(g, rng)
                ws = fx.orbit_mean(w, part)
                lam = np.linalg.eigvalsh(R.laplacian(g, w))
                lams = np.linalg.eigvalsh(R.laplacian(g, ws))
                slack = 1e-10 * max(1.0, lam[-1])
                assert lams[1] >= lam[1] - slack
                assert lams[-1] <= lam[-1] + slack
        # Monte-Carlo shadow for every certified (graph, target) pair
        by_name = {g.name: g for g in fx.battery()}
        certified_pairs = 0
        for (name, target), rep in battery_reports.items():
            if rep.status not in CERTIFIED:
                continue
            certified_pairs += 1
            g = by_name[name]
            for _ in range(1000):
                w = fx.random_weights(g, rng)
                sp = np.linalg.eigvalsh(R.laplacian(g, w))
                if target is LOWER:
                    assert sp[1] <= rep.lam + 1e-6
                else:
                    assert sp[-1] >= rep.lam - 1e-6
        assert certified_pairs == 11  # 5 graphs x 2 targets + z12 lower
        # a report never carries both a certificate and a disproof
        for rep in battery_reports.values():
            assert rep.certificate is None or rep.disproof is None
            if rep.status in CERTIFIED:
                assert rep.certificate is not None and rep.disproof is None
            if rep.status is R.PipelineStatus.DISPROVED:
                assert rep.disproof is not None and rep.certificate is None


def test_criterion_11_deterministic_reports(tmp_path):
    with criterion("criterion 11 byte-identical reports for equal seeds"):
        p = tmp_path / "c5.g6"
        p.write_text(R.to_graph6(fx.c5()) + "\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = cli_main(["check", str(p), "--target", "lower",
                           "--seed", "7", "--report", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
