import numpy as np
import pytest

import rigidity as R
from rigidity import sdpfeas

import fixtures as fx


def _cluster(g, which=R.TargetKind.LOWER):
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    return R.cluster_eigenspace(dec, which)


def _orbit_part(g):
    return R.edge_orbits(R.automorphism_generators(g))


def _compress(g, which=R.TargetKind.LOWER, orbits=True):
    part = _orbit_part(g) if orbits else R.edge_orbits(R.GroupGenerators(g, ()))
    return sdpfeas.compress_operators(_cluster(g, which), part)


def _operator_case(case):
    """(graph, target eigenspace, partition) for an operator comparison."""
    if case == "c5-trivial":
        g = fx.c5()
        return g, R.TargetKind.LOWER, R.edge_orbits(R.GroupGenerators(g, ()))
    if case == "z12-orbits":  # d = 2
        g = fx.z12()
        return g, R.TargetKind.UPPER, _orbit_part(g)
    if case == "petersen-largest":  # d = 4
        g = fx.petersen()
        return g, R.TargetKind.UPPER, _orbit_part(g)
    g = fx.gnp(30, 0.2, seed=0)
    return g, R.TargetKind.LOWER, R.edge_orbits(R.GroupGenerators(g, ()))


def _gram_pinv(ops):
    """The Gram-form reference: ops^T (ops ops^T)^+, cut at 1e-13 on the Gram."""
    return ops.T @ np.linalg.pinv(ops @ ops.T, rcond=1e-13)


# Every graph and eigenspace that TestSolveFeasibility solves.
SOLVE_BATTERY = [(fx.k4, R.TargetKind.LOWER), (fx.c5, R.TargetKind.LOWER),
                 (fx.c7, R.TargetKind.LOWER), (fx.petersen, R.TargetKind.LOWER),
                 (fx.petersen, R.TargetKind.UPPER), (fx.barbell, R.TargetKind.LOWER),
                 (fx.f3, R.TargetKind.UPPER), (fx.z12, R.TargetKind.LOWER),
                 (fx.z12, R.TargetKind.UPPER)]


class TestCompressOperators:
    @pytest.mark.parametrize("case", ["c5-trivial", "z12-orbits",
                                      "petersen-largest", "gnp30-trivial"])
    def test_ops_match_dense_reference(self, case):
        # ops[o] is B^T L_o B, with L_o the n x n Laplacian of orbit o.
        g, which, part = _operator_case(case)
        cl = _cluster(g, which)
        co = sdpfeas.compress_operators(cl, part)
        B = cl.basis
        d = B.shape[1]
        assert co.ops.shape == (part.s, d, d)
        tol = 1e-12 * max(1.0, cl.value)
        for o in range(part.s):
            ref = B.T @ R.orbit_laplacian(part, o) @ B
            assert np.max(np.abs(co.ops[o] - ref)) <= tol, o

    def test_per_edge_count_and_symmetry(self):
        g = fx.c5()
        co = _compress(g, orbits=False)
        assert len(co.ops) == g.m
        for op in co.ops:
            assert np.max(np.abs(op - op.T)) <= 1e-14

    def test_orbit_count(self):
        g = fx.z12()
        co = _compress(g)
        assert len(co.ops) == 2

    def test_orbit_ops_sum_to_scaled_identity(self):
        # orbit Laplacians partition L, so compressed ops sum to lambda I
        for make in (fx.c5, fx.z12, fx.cn6b):
            g = make()
            cl = _cluster(g)
            co = sdpfeas.compress_operators(cl, _orbit_part(g))
            total = np.sum(co.ops, axis=0)
            d = cl.basis.shape[1]
            assert np.max(np.abs(total - cl.value * np.eye(d))) <= 1e-8

    def test_orbit_laplacians_partition_laplacian(self):
        g = fx.barbell()
        part = _orbit_part(g)
        total = np.sum([R.orbit_laplacian(part, o)
                        for o in range(len(part.sizes))], axis=0)
        L = R.laplacian(g, R.WeightVector.uniform(g))
        assert np.max(np.abs(total - L)) <= 1e-14

    def test_targets_normalize_per_edge_energy_to_one(self):
        g = fx.z12()
        part = _orbit_part(g)
        co = sdpfeas.compress_operators(_cluster(g), part)
        assert np.array_equal(co.targets, np.asarray(part.sizes, dtype=float))
        co_edge = _compress(g, orbits=False)
        assert np.array_equal(co_edge.targets, np.ones(g.m))


class TestSolveFeasibility:
    def test_c5_feasible_rank_two(self):
        g = fx.c5()
        res = sdpfeas.solve_feasibility(_compress(g))
        assert res.status is sdpfeas.SdpStatus.FEASIBLE
        assert np.linalg.matrix_rank(res.Z) == 2
        assert res.max_residual <= 1e-9

    def test_feasible_solution_sound(self):
        # FEASIBLE must come with a PSD Z meeting every constraint
        for make, which in ((fx.c5, R.TargetKind.LOWER), (fx.z12, R.TargetKind.LOWER),
                            (fx.petersen, R.TargetKind.UPPER)):
            g = make()
            co = _compress(g, which)
            res = sdpfeas.solve_feasibility(co)
            assert res.status is sdpfeas.SdpStatus.FEASIBLE
            Z = res.Z
            assert np.linalg.eigvalsh(Z)[0] >= -1e-9
            for op, t in zip(co.ops, co.targets):
                assert abs(np.sum(op * Z) - t) <= 1e-9 * max(1.0, abs(t))

    def test_expanded_gram_is_eigenspace_embedding(self):
        g = fx.z12()
        cl = _cluster(g)
        co = sdpfeas.compress_operators(cl, _orbit_part(g))
        res = sdpfeas.solve_feasibility(co)
        G = co.basis @ res.Z @ co.basis.T  # the embedding's Gram B Z B^T
        L = R.laplacian(g, R.WeightVector.uniform(g))
        assert np.max(np.abs(L @ G - cl.value * G)) <= 1e-8
        assert np.linalg.eigvalsh(G)[0] >= -1e-9

    def test_barbell_lower_infeasible_both_modes(self):
        g = fx.barbell()
        for orbits in (True, False):
            res = sdpfeas.solve_feasibility(_compress(g, orbits=orbits))
            assert res.status is sdpfeas.SdpStatus.LIKELY_INFEASIBLE

    def test_f3_upper_infeasible(self):
        g = fx.f3()
        res = sdpfeas.solve_feasibility(_compress(g, R.TargetKind.UPPER))
        assert res.status is sdpfeas.SdpStatus.LIKELY_INFEASIBLE

    def test_inconsistent_system_detected_without_iterating(self):
        # a zero operator with a nonzero target is flagged immediately
        g = fx.barbell()
        res = sdpfeas.solve_feasibility(_compress(g, orbits=False))
        assert res.status is sdpfeas.SdpStatus.LIKELY_INFEASIBLE
        assert res.iterations == 0

    def test_iteration_limit(self):
        g = fx.c5()
        res = sdpfeas.solve_feasibility(_compress(g), max_iter=0)
        assert res.status is sdpfeas.SdpStatus.ITERATION_LIMIT

    def test_orbit_and_per_edge_agree(self):
        # same feasibility verdict whether or not symmetry reduction is used
        battery = [(fx.k4, R.TargetKind.LOWER), (fx.c5, R.TargetKind.LOWER),
                   (fx.c7, R.TargetKind.LOWER), (fx.petersen, R.TargetKind.LOWER),
                   (fx.barbell, R.TargetKind.LOWER), (fx.f3, R.TargetKind.UPPER),
                   (fx.z12, R.TargetKind.LOWER), (fx.z12, R.TargetKind.UPPER)]
        for make, which in battery:
            g = make()
            a = sdpfeas.solve_feasibility(_compress(g, which, orbits=True))
            b = sdpfeas.solve_feasibility(_compress(g, which, orbits=False))
            feas = {sdpfeas.SdpStatus.FEASIBLE}
            assert (a.status in feas) == (b.status in feas), g.name

    @pytest.mark.parametrize("orbits", [True, False], ids=["orbits", "edges"])
    @pytest.mark.parametrize(
        "make,which", SOLVE_BATTERY,
        ids=[f"{make.__name__}-{'second' if which is R.TargetKind.LOWER else 'largest'}"
             for make, which in SOLVE_BATTERY])
    def test_pseudo_inverse_matches_gram_form(self, make, which, orbits,
                                              monkeypatch):
        co = _compress(make(), which, orbits)
        res = sdpfeas.solve_feasibility(co)
        monkeypatch.setattr(sdpfeas, "_pinv", _gram_pinv)
        ref = sdpfeas.solve_feasibility(co)
        assert res.status is ref.status
        assert res.iterations == ref.iterations
        assert abs(res.max_residual - ref.max_residual) <= 1e-12 * max(
            1.0, abs(ref.max_residual))

    def test_tiny_singular_value_is_cut_like_its_gram_square(self, monkeypatch):
        # The operator matrix has singular values 1 and 1e-8, its Gram 1 and
        # 1e-16: below the Gram's 1e-13 cut, so both forms see rank one and
        # the second target, which only the dropped direction reaches, is
        # missed by the least-squares solution before any iteration.
        ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1e-8])])
        sv = np.linalg.svd(ops.reshape(2, -1), compute_uv=False)
        assert np.array_equal(sv, [1.0, 1e-8])
        co = sdpfeas.CompressedOperators(ops, np.ones(2), np.eye(2))
        res = sdpfeas.solve_feasibility(co)
        monkeypatch.setattr(sdpfeas, "_pinv", _gram_pinv)
        ref = sdpfeas.solve_feasibility(co)
        for r in (res, ref):
            assert r.status is sdpfeas.SdpStatus.LIKELY_INFEASIBLE
            assert r.iterations == 0
            assert r.max_residual == pytest.approx(1.0)
