import numpy as np
import pytest

import rigidity as R

import fixtures as fx


def _cluster(g, which=R.Which.SECOND):
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    return R.cluster_eigenspace(dec, which)


def _orbit_part(g):
    return R.edge_orbits(g, R.automorphism_generators(g))


def _compress(g, which=R.Which.SECOND, orbits=True):
    part = _orbit_part(g) if orbits else R.edge_orbits(g, R.GroupGenerators(g, ()))
    return R.compress_operators(_cluster(g, which), g, part)


class TestCompressOperators:
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
            co = R.compress_operators(cl, g, _orbit_part(g))
            total = np.sum(co.ops, axis=0)
            d = cl.basis.shape[1]
            assert np.max(np.abs(total - cl.value * np.eye(d))) <= 1e-8

    def test_orbit_laplacians_partition_laplacian(self):
        g = fx.barbell()
        part = _orbit_part(g)
        total = np.sum([R.orbit_laplacian(g, part, o)
                        for o in range(len(part.sizes))], axis=0)
        L = R.laplacian(g, R.WeightVector.uniform(g))
        assert np.max(np.abs(total - L)) <= 1e-14

    def test_targets_normalize_per_edge_energy_to_one(self):
        g = fx.z12()
        part = _orbit_part(g)
        co = R.compress_operators(_cluster(g), g, part)
        assert np.array_equal(co.targets, np.asarray(part.sizes, dtype=float))
        co_edge = _compress(g, orbits=False)
        assert np.array_equal(co_edge.targets, np.ones(g.m))


class TestSolveFeasibility:
    def test_c5_feasible_rank_two(self):
        g = fx.c5()
        res = R.solve_feasibility(_compress(g))
        assert res.status is R.SdpStatus.FEASIBLE
        assert np.linalg.matrix_rank(res.Z) == 2
        assert res.max_residual <= 1e-9

    def test_feasible_solution_sound(self):
        # FEASIBLE must come with a PSD Z meeting every constraint
        for make, which in ((fx.c5, R.Which.SECOND), (fx.z12, R.Which.SECOND),
                            (fx.petersen, R.Which.LARGEST)):
            g = make()
            co = _compress(g, which)
            res = R.solve_feasibility(co)
            assert res.status is R.SdpStatus.FEASIBLE
            Z = res.Z
            assert np.linalg.eigvalsh(Z)[0] >= -1e-9
            for op, t in zip(co.ops, co.targets):
                assert abs(np.sum(op * Z) - t) <= 1e-9 * max(1.0, abs(t))

    def test_expanded_gram_is_eigenspace_embedding(self):
        g = fx.z12()
        cl = _cluster(g)
        co = R.compress_operators(cl, g, _orbit_part(g))
        res = R.solve_feasibility(co)
        G = R.expand_gram(co, res.Z)
        L = R.laplacian(g, R.WeightVector.uniform(g))
        assert np.max(np.abs(L @ G - cl.value * G)) <= 1e-8
        assert np.linalg.eigvalsh(G)[0] >= -1e-9

    def test_barbell_lower_infeasible_both_modes(self):
        g = fx.barbell()
        for orbits in (True, False):
            res = R.solve_feasibility(_compress(g, orbits=orbits))
            assert res.status is R.SdpStatus.LIKELY_INFEASIBLE

    def test_f3_upper_infeasible(self):
        g = fx.f3()
        res = R.solve_feasibility(_compress(g, R.Which.LARGEST))
        assert res.status is R.SdpStatus.LIKELY_INFEASIBLE

    def test_inconsistent_system_detected_without_iterating(self):
        # a zero operator with a nonzero target is flagged immediately
        g = fx.barbell()
        res = R.solve_feasibility(_compress(g, orbits=False))
        assert res.status is R.SdpStatus.LIKELY_INFEASIBLE
        assert res.iterations == 0

    def test_iteration_limit(self):
        g = fx.c5()
        res = R.solve_feasibility(_compress(g), max_iter=0)
        assert res.status is R.SdpStatus.ITERATION_LIMIT

    def test_orbit_and_per_edge_agree(self):
        # same feasibility verdict whether or not symmetry reduction is used
        battery = [(fx.k4, R.Which.SECOND), (fx.c5, R.Which.SECOND),
                   (fx.c7, R.Which.SECOND), (fx.petersen, R.Which.SECOND),
                   (fx.barbell, R.Which.SECOND), (fx.f3, R.Which.LARGEST),
                   (fx.z12, R.Which.SECOND), (fx.z12, R.Which.LARGEST)]
        for make, which in battery:
            g = make()
            a = R.solve_feasibility(_compress(g, which, orbits=True))
            b = R.solve_feasibility(_compress(g, which, orbits=False))
            feas = {R.SdpStatus.FEASIBLE}
            assert (a.status in feas) == (b.status in feas), g.name

