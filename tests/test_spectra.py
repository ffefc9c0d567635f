import math

import numpy as np
import pytest

import rigidity as R

import fixtures as fx


def _uniform_spectrum(graph):
    return R.laplacian_spectrum(graph, np.ones(graph.m))


class TestEigSym:
    def test_matches_numpy(self, rng):
        A = rng.standard_normal((9, 9))
        A = A + A.T
        dec = R.eig_sym(A)
        assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(A),
                           rtol=0, atol=1e-10)

    def test_residual_and_orthonormality(self, rng):
        A = rng.standard_normal((12, 12))
        A = A + A.T
        dec = R.eig_sym(A)
        V, lam = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs(A @ V - V * lam)) <= 1e-10 * np.max(np.abs(A))
        assert np.max(np.abs(V.T @ V - np.eye(12))) <= 1e-12

    def test_sorted_ascending(self, rng):
        A = rng.standard_normal((8, 8))
        dec = R.eig_sym(A + A.T)
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_not_symmetric_rejected(self):
        with pytest.raises(R.NotSymmetric):
            R.eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestKnownSpectra:
    def test_k4(self):
        dec = _uniform_spectrum(fx.k4())
        assert np.allclose(dec.eigenvalues, [0, 4, 4, 4], atol=1e-10)

    def test_c4(self):
        dec = _uniform_spectrum(fx.c4())
        assert np.allclose(dec.eigenvalues, [0, 2, 2, 4], atol=1e-10)

    def test_cycle_formula(self):
        g = fx.c7()
        expected = sorted(2 - 2 * math.cos(2 * math.pi * k / 7) for k in range(7))
        dec = _uniform_spectrum(g)
        assert np.allclose(dec.eigenvalues, expected, atol=1e-10)

    def test_z12_lambda2_multiplicity_six(self):
        g = fx.z12()
        dec = _uniform_spectrum(g)
        cl = R.cluster_eigenspace(dec, R.TargetKind.LOWER)
        assert abs(cl.value - 3.0) <= 1e-8
        assert cl.basis.shape == (12, 6)

    def test_z12_lambda_max_multiplicity_two(self):
        g = fx.z12()
        dec = _uniform_spectrum(g)
        cl = R.cluster_eigenspace(dec, R.TargetKind.UPPER)
        assert abs(cl.value - 7.0) <= 1e-8
        assert cl.basis.shape == (12, 2)

    def test_barbell_lambda2(self):
        g = fx.barbell()
        lam2 = R.laplacian_spectrum(g, np.ones(g.m)).eigenvalues[1]
        assert abs(lam2 - (5 - math.sqrt(17)) / 2) <= 1e-10

    def test_f3_lambda_max(self):
        g = fx.f3()
        lam_n = R.laplacian_spectrum(g, np.ones(g.m)).eigenvalues[-1]
        assert abs(lam_n - 7.0) <= 1e-10

    def test_kernel_is_constant_vector(self):
        g = fx.petersen()
        dec = _uniform_spectrum(g)
        assert abs(dec.eigenvalues[0]) <= 1e-10 * 3.0
        v0 = dec.eigenvectors[:, 0]
        cosang = abs(float(v0 @ np.ones(g.n))) / math.sqrt(g.n)
        assert cosang >= 1.0 - 1e-8


class TestTargetOrientation:
    @pytest.mark.parametrize("kind", list(R.TargetKind), ids=["lower", "upper"])
    def test_index_and_sign_on_the_barbell(self, kind):
        g = fx.barbell()
        dec = _uniform_spectrum(g)
        expected = {R.TargetKind.LOWER: (5 - math.sqrt(17)) / 2,
                    R.TargetKind.UPPER: (5 + math.sqrt(17)) / 2}[kind]
        assert abs(dec.eigenvalues[kind.index] - expected) <= 1e-10
        part = R.edge_orbits(R.GroupGenerators(g, ()))
        d = R.find_disproof(R.cluster_eigenspace(dec, kind), part, kind, spectrum=dec)
        assert R.verify_disproof(g, d, kind)
        lam_u = float(dec.eigenvalues[kind.index])
        for w, better in ((d.w, True), (np.ones(g.m), False)):
            lam_w = float(R.laplacian_spectrum(g, w).eigenvalues[kind.index])
            assert (kind.sign * (lam_w - lam_u) > 0) is better


class TestScaling:
    def test_spectrum_scales_linearly(self, rng):
        g = fx.petersen()
        w = fx.random_weights(g, rng)
        c = 3.7
        base = R.laplacian_spectrum(g, w).eigenvalues
        scaled = R.laplacian_spectrum(g, c * w).eigenvalues
        assert np.max(np.abs(scaled - c * base)) <= 1e-12 * c * max(1, base[-1])

    def test_gershgorin_bound(self, rng):
        for g in (fx.barbell(), fx.f3(), fx.z12()):
            for _ in range(20):
                w = fx.random_weights(g, rng)
                L = R.laplacian(g, w)
                lam_n = R.laplacian_spectrum(g, w).eigenvalues[-1]
                assert lam_n <= 2.0 * np.max(np.diag(L)) + 1e-12


class TestCluster:
    def test_second_skips_kernel(self):
        dec = _uniform_spectrum(fx.k4())
        cl = R.cluster_eigenspace(dec, R.TargetKind.LOWER)
        assert cl.basis.shape == (4, 3)
        # the basis spans eigenvectors 1-3, never the kernel vector 0
        V = dec.eigenvectors[:, 1:4]
        assert np.allclose(cl.basis @ cl.basis.T, V @ V.T, atol=1e-12)

    def test_largest_cluster(self):
        dec = _uniform_spectrum(fx.c4())
        cl = R.cluster_eigenspace(dec, R.TargetKind.UPPER)
        assert cl.basis.shape == (4, 1)
        assert abs(cl.value - 4.0) <= 1e-10

    def test_ambiguous_when_tol_spans_gap(self):
        # P3 spectrum {0, 1, 3}: a tolerance wider than the gap is unusable
        g = R.Graph(3, ((0, 1), (1, 2)))
        dec = _uniform_spectrum(g)
        with pytest.raises(R.AmbiguousCluster):
            R.cluster_eigenspace(dec, R.TargetKind.LOWER, tol=10.0)

    def test_basis_spans_eigenspace(self):
        g = fx.z12()
        dec = _uniform_spectrum(g)
        cl = R.cluster_eigenspace(dec, R.TargetKind.LOWER)
        L = R.laplacian(g, np.ones(g.m))
        assert np.max(np.abs(L @ cl.basis - cl.value * cl.basis)) <= 1e-8

    def test_projector_invariant_under_reparametrization(self, rng):
        g = fx.z12()
        dec = _uniform_spectrum(g)
        cl = R.cluster_eigenspace(dec, R.TargetKind.LOWER)
        P = cl.basis @ cl.basis.T
        assert np.max(np.abs(P - P.T)) <= 1e-12
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        # rotate the basis by a random orthogonal map: projector unchanged
        d = cl.basis.shape[1]
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        import dataclasses
        cl2 = dataclasses.replace(cl, basis=cl.basis @ Q)
        assert np.max(np.abs(cl2.basis @ cl2.basis.T - P)) <= 1e-9
