import networkx as nx
import numpy as np
import pytest

import rigidity as R
import rigidity.isotypics as I

import fixtures as fx


def _cluster(g, which=R.TargetKind.LOWER):
    dec = R.laplacian_spectrum(g, np.ones(g.m))
    return R.cluster_eigenspace(dec, which)


def _full_group(g):
    return R.automorphism_generators(g)


def _shapes(dec):
    return sorted((c.irr_dim, c.mult, c.endo_dim) for c in dec.components)


class TestKnownDecompositions:
    def test_z12_rotation_subgroup_three_complex_planes(self):
        g = fx.z12()
        dec = R.isotypic_decompose(_cluster(g), fx.rotation_gens(g, 12))
        assert _shapes(dec) == [(2, 1, 2)] * 3

    def test_z12_full_group_merges_characters(self):
        # the multiplier automorphism fuses two character pairs into a
        # 4-dimensional real irreducible
        g = fx.z12()
        dec = R.isotypic_decompose(_cluster(g), _full_group(g))
        assert _shapes(dec) == [(2, 1, 1), (4, 1, 1)]

    def test_z21_single_complex_component(self):
        g = fx.z21()
        dec = R.isotypic_decompose(_cluster(g), fx.rotation_gens(g, 21))
        assert _shapes(dec) == [(2, 1, 2)]

    def test_cn6b_splits_one_plus_two(self):
        g = fx.cn6b()
        dec = R.isotypic_decompose(_cluster(g), _full_group(g))
        assert _shapes(dec) == [(1, 1, 1), (2, 1, 1)]

    def test_tensegrity_splits_two_plus_five(self):
        g = fx.tensegrity20()
        dec = R.isotypic_decompose(_cluster(g), _full_group(g))
        assert _shapes(dec) == [(2, 1, 2), (5, 1, 1)]
        assert R.all_multiplicity_one(dec)

    def test_q8_splits_off_a_quaternionic_four(self):
        # K4,4's lambda_2 space under Q8's regular action: two real
        # characters and the 4-dimensional real form of the quaternion rep.
        g = fx.q8_cayley()
        dec = R.isotypic_decompose(_cluster(g), fx.q8_left_gens(g))
        assert _shapes(dec) == [(1, 1, 1), (1, 1, 1), (4, 1, 4)]
        assert R.multiplicity_bound_ok(dec) and R.all_multiplicity_one(dec)

    def test_trivial_representation_on_kernel(self):
        # the constant-vector eigenspace carries the trivial rep: endo dim 1
        g = fx.petersen()
        basis = np.ones((g.n, 1)) / np.sqrt(g.n)
        cl = R.EigenspaceCluster(value=0.0, basis=basis)
        dec = R.isotypic_decompose(cl, _full_group(g))
        assert _shapes(dec) == [(1, 1, 1)]

    def test_trivial_group_merges_everything(self):
        g = fx.c5()
        dec = R.isotypic_decompose(_cluster(g), R.GroupGenerators(g, ()))
        assert _shapes(dec) == [(1, 2, 1)]
        assert not R.multiplicity_bound_ok(dec)
        assert not R.all_multiplicity_one(dec)

    def test_product_diagonal_action_doubles_multiplicity(self):
        c5 = fx.c5()
        prod = R.cartesian_product(c5, c5)
        dec = R.isotypic_decompose(_cluster(prod), fx.diagonal_gens(c5, prod))
        assert (2, 2, 1) in _shapes(dec)
        assert R.multiplicity_bound_ok(dec)
        assert not R.all_multiplicity_one(dec)


@pytest.fixture(scope="module")
def z12_dec():
    g = fx.z12()
    gens = fx.rotation_gens(g, 12)
    return g, gens, R.isotypic_decompose(_cluster(g), gens)


class TestStructuralInvariants:
    def test_dimensions_sum_to_eigenspace(self, z12_dec):
        g, gens, dec = z12_dec
        total = sum(c.irr_dim * c.mult for c in dec.components)
        assert total == _cluster(g).basis.shape[1]

    def test_projector_completeness(self, z12_dec):
        g, gens, dec = z12_dec
        B = _cluster(g).basis
        P = B @ B.T
        total = sum(c.basis @ c.basis.T for c in dec.components)
        assert np.max(np.abs(total - P)) <= 1e-8

    def test_components_pairwise_orthogonal(self, z12_dec):
        g, gens, dec = z12_dec
        for i, a in enumerate(dec.components):
            for b in dec.components[i + 1:]:
                assert np.max(np.abs(a.basis.T @ b.basis)) <= 1e-8

    def test_components_group_invariant(self, z12_dec):
        g, gens, dec = z12_dec
        for c in dec.components:
            B = c.basis
            for s in gens.gens:
                # (sigma . phi)(u) = phi(sigma^-1(u)), column by column
                rho_B = B[np.argsort(s)]
                # rho(sigma) B must stay inside the component
                resid = rho_B - B @ (B.T @ rho_B)
                assert np.max(np.abs(resid)) <= 1e-8

    def test_block_diagonalization_of_orbit_energy(self, z12_dec, rng):
        # cross terms between isotypics vanish: l_Psi(sum phi_j) = sum l_Psi(phi_j)
        g, gens, dec = z12_dec
        part = R.edge_orbits(gens)
        for _ in range(10):
            parts = [c.basis @ rng.standard_normal(c.basis.shape[1])
                     for c in dec.components]
            combined = R.orbit_energy(part, np.sum(parts, axis=0))
            summed = np.sum([R.orbit_energy(part, p) for p in parts],
                            axis=0)
            assert np.max(np.abs(combined - summed)) <= 1e-9 * max(1, combined.max())

    def test_seed_independent_projectors(self, z12_dec):
        g, gens, dec = z12_dec
        dec2 = R.isotypic_decompose(_cluster(g), gens, seed=1)
        assert _shapes(dec) == _shapes(dec2)
        for a in dec.components:
            Pa = a.basis @ a.basis.T
            best = min(np.max(np.abs(Pa - b.basis @ b.basis.T))
                       for b in dec2.components)
            assert best <= 1e-8

    def test_residual_reported_small(self, z12_dec):
        _, _, dec = z12_dec
        assert 0 <= dec.residual <= 1e-10


class TestRepresentativeVector:
    def test_lives_in_component_and_eigenspace(self):
        g = fx.z21()
        gens = fx.rotation_gens(g, 21)
        cl = _cluster(g)
        c = R.isotypic_decompose(cl, gens).components[0]
        phi = R.representative_vector(c, R.edge_orbits(gens))
        L = R.laplacian(g, np.ones(g.m))
        lam = cl.value
        assert np.max(np.abs(L @ phi - lam * phi)) <= 1e-8
        inside = c.basis @ (c.basis.T @ phi)
        assert np.max(np.abs(phi - inside)) <= 1e-10

    def test_deterministic_per_seed(self):
        g = fx.z21()
        gens = fx.rotation_gens(g, 21)
        dec = R.isotypic_decompose(_cluster(g), gens)
        c = dec.components[0]
        part = R.edge_orbits(gens)
        assert np.array_equal(R.representative_vector(c, part, seed=3),
                              R.representative_vector(c, part, seed=3))

    def test_multiplicity_gate(self):
        g = fx.c5()
        trivial = R.GroupGenerators(g, ())
        dec = R.isotypic_decompose(_cluster(g), trivial)
        with pytest.raises(R.MultiplicityNotOne):
            R.representative_vector(dec.components[0], R.edge_orbits(trivial))


def _restricted_commutant_dim(cluster, gens, Q):
    """The reference endo_dim: the dimension of the commutant of the action
    restricted to the summand Q (eigenspace coordinates), solved anew from
    the generators rather than read off the eigenspace's commutant."""
    mats = I._generator_action(cluster, gens)
    return I._commutant(Q.T @ mats @ Q, Q.shape[1]).shape[1]


class TestIrreducibility:
    """Schur's lemma proves each summand irreducible, whatever the split."""

    # C5's lambda_2 plane under the trivial group is two trivial summands,
    # and cn6b's lambda_2 space a line plus a plane under its group. Left
    # unsplit, each End has more than the scalars as symmetric part, and
    # the dimension that the error names is the restricted commutant's.
    @pytest.mark.parametrize("make, gens_of", [
        (fx.c5, lambda g: R.GroupGenerators(g, ())),
        (fx.cn6b, R.automorphism_generators),
    ], ids=["c5-trivial", "cn6b"])
    def test_unsplit_eigenspace_is_rejected(self, monkeypatch, make, gens_of):
        monkeypatch.setattr(I, "_split_by_eigenvalues",
                            lambda M: [np.eye(len(M))])
        g = make()
        cl, gens = _cluster(g), gens_of(g)
        d = cl.basis.shape[1]
        ref = _restricted_commutant_dim(cl, gens, np.eye(d))
        assert ref > 1
        with pytest.raises(R.UnstableSplit, match=f"dimension {ref} is not"):
            R.isotypic_decompose(cl, gens)


class TestEndomorphismField:
    """End(Q) read off the eigenspace's one commutant, against the commutant
    of the action restricted to Q."""

    @pytest.mark.parametrize("make, gens_of, which", [
        (fx.z12, lambda g: fx.rotation_gens(g, 12), R.TargetKind.LOWER),
        (fx.z21, lambda g: fx.rotation_gens(g, 21), R.TargetKind.LOWER),
        (fx.tensegrity20, R.automorphism_generators, R.TargetKind.LOWER),
        (fx.petersen, R.automorphism_generators, R.TargetKind.LOWER),
        (fx.petersen, R.automorphism_generators, R.TargetKind.UPPER),
        (fx.cn6b, R.automorphism_generators, R.TargetKind.LOWER),
        (fx.q8_cayley, fx.q8_left_gens, R.TargetKind.LOWER),
    ], ids=["z12-rotations", "z21-rotations", "tensegrity20", "petersen-lower",
            "petersen-upper", "cn6b", "q8"])
    def test_endo_dim_matches_the_restricted_commutant(self, make, gens_of,
                                                       which):
        g = make()
        cl, gens = _cluster(g, which), gens_of(g)
        for c in R.isotypic_decompose(cl, gens).components:
            for j in range(c.mult):
                Q = cl.basis.T @ c.basis[:, j * c.irr_dim:(j + 1) * c.irr_dim]
                assert _restricted_commutant_dim(cl, gens, Q) == c.endo_dim

    @pytest.mark.parametrize("make, gens_of", [
        (fx.z12, lambda g: fx.rotation_gens(g, 12)),
        (fx.cn6b, R.automorphism_generators),
        (fx.petersen, R.automorphism_generators),
        (fx.c5, lambda g: R.GroupGenerators(g, ())),
        (fx.q8_cayley, fx.q8_left_gens),
    ], ids=["z12-rotations", "cn6b", "petersen", "c5-trivial", "q8"])
    def test_one_commutant_per_decomposition(self, monkeypatch, make, gens_of):
        g = make()
        calls, real = [], I._commutant
        monkeypatch.setattr(
            I, "_commutant", lambda *args: calls.append(args) or real(*args))
        R.isotypic_decompose(_cluster(g), gens_of(g))
        assert len(calls) == 1


class TestCommutant:
    """The generator commutant against the group average it replaces."""

    @pytest.mark.parametrize("make, gens_of", [
        (fx.z12, lambda g: fx.rotation_gens(g, 12)),
        (fx.z21, lambda g: fx.rotation_gens(g, 21)),
        (fx.cn6b, R.automorphism_generators),
        (fx.petersen, R.automorphism_generators),
        (fx.c5, lambda g: R.GroupGenerators(g, ())),
    ], ids=["z12-rotations", "z21-rotations", "cn6b", "petersen", "c5-trivial"])
    def test_projection_equals_average_over_the_closure(self, make, gens_of, rng):
        g = make()
        gens = gens_of(g)
        cl = _cluster(g)
        B, d = cl.basis, cl.basis.shape[1]
        N = I._commutant(I._generator_action(cl, gens), d)
        X = rng.standard_normal((d, d))
        elements = fx.compose_closure(gens)
        avg = np.zeros((d, d))
        for sigma in elements:
            PB = np.empty_like(B)
            PB[list(sigma), :] = B
            Rs = B.T @ PB
            avg += Rs.T @ X @ Rs
        avg /= len(elements)
        assert np.max(np.abs(I._project(N, X) - avg)) <= 1e-10

    def test_simple_eigenvalue_solves_no_commutant(self, monkeypatch):
        # The barbell's lambda_2 is simple under a group of order 8: every
        # 1 x 1 matrix commutes, so _commutant runs no eigensolve.
        g = fx.barbell()
        gens = _full_group(g)
        assert gens.gens
        calls, real_commutant, real_eigh = [], I._commutant, np.linalg.eigh

        def commutant(*args):
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "eigh",
                           lambda M, *a: calls.append(M.shape) or real_eigh(M, *a))
                return real_commutant(*args)

        monkeypatch.setattr(I, "_commutant", commutant)
        dec = R.isotypic_decompose(_cluster(g), gens)
        assert _shapes(dec) == [(1, 1, 1)]
        assert calls == []


class TestComponentOrder:
    # networkx atlas graph 117 (6 vertices) has two (1, 1, 1) components for
    # lambda_2 whose rounded projectors first differ where one holds 0.0.
    @pytest.mark.parametrize("fixed", [(), (0,)], ids=["full", "stabilizer"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_negative_zeros_do_not_reorder_components(self, monkeypatch,
                                                       fixed, k):
        h = nx.graph_atlas(117)
        g = R.Graph(h.number_of_nodes(), tuple(map(tuple, map(sorted, h.edges()))))
        gens = R.automorphism_generators(g, fixed)

        def projectors():
            dec = R.isotypic_decompose(_cluster(g), gens)
            return [c.basis @ c.basis.T for c in dec.components]

        before = projectors()
        assert len(before) == 2
        calls, real = [], np.round

        def round_with_negative_zeros(a, decimals=0):
            # The k-th sort key's projector gets -0.0 for every 0.0.
            r = real(a, decimals)
            calls.append(1)
            return np.where(r == 0, -0.0, r) if len(calls) == k + 1 else r

        monkeypatch.setattr(np, "round", round_with_negative_zeros)
        after = projectors()
        assert len(calls) == 2
        assert all(np.allclose(p, q, atol=1e-12) for p, q in zip(before, after))
