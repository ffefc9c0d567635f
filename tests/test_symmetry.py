import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rigidity as R
from rigidity import symmetry

import fixtures as fx
from test_properties import connected_graphs


def _vf2_automorphism_count(g):
    """Independent group-order oracle via VF2 self-isomorphism enumeration."""
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(range(g.n))
    gm = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return sum(1 for _ in gm.isomorphisms_iter())


def _closure(g):
    return R.close_group(R.automorphism_generators(g))


class TestPermutation:
    def test_identity(self):
        e = R.Permutation.identity(5)
        assert e.is_identity()
        assert [e(i) for i in range(5)] == list(range(5))

    def test_compose_and_inverse(self):
        s = R.Permutation((1, 2, 0))
        t = R.Permutation((0, 2, 1))
        st = s.compose(t)
        # compose(t) applies t first, then s
        assert all(st(i) == s(t(i)) for i in range(3))
        assert s.compose(fx.inverse(s)).is_identity()
        assert fx.inverse(s).compose(s).is_identity()

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            R.Permutation((0, 0, 1))


class TestVerifyAutomorphism:
    def test_rotation_on_cycle(self):
        g = fx.c5()
        rot = R.Permutation(tuple((i + 1) % 5 for i in range(5)))
        assert R.verify_automorphism(g, rot)

    def test_non_automorphism(self):
        g = fx.c5()
        assert not R.verify_automorphism(g, R.Permutation((1, 0, 2, 3, 4)))

    def test_generators_validated_at_construction(self):
        with pytest.raises(ValueError):
            R.GroupGenerators(fx.c5(), (R.Permutation((1, 0, 2, 3, 4)),))

    @pytest.mark.parametrize("at", [0, 11, 23])
    @pytest.mark.parametrize("bad", [
        R.Permutation((1, 0) + tuple(range(2, 10))),  # moves edge (1, 2) off
        R.Permutation.identity(9),
        R.Permutation.identity(11),
    ], ids=["not_automorphism", "short", "long"])
    def test_one_bad_generator_among_many_rejected(self, at, bad):
        g = fx.petersen()
        good = R.automorphism_generators(g).gens
        assert len(good) == 23
        R.GroupGenerators(g, good)
        with pytest.raises(ValueError, match="not an automorphism"):
            R.GroupGenerators(g, good[:at] + (bad,) + good[at:])


class TestSearch:
    @pytest.mark.parametrize("make,order", [
        (fx.c5, 10), (fx.k4, 24), (fx.petersen, 120), (fx.barbell, 8),
        (fx.f3, 48), (fx.c4, 8),
    ])
    def test_known_group_orders(self, make, order):
        assert _closure(make()).size == order

    @pytest.mark.parametrize("make", [fx.c5, fx.barbell, fx.f3, fx.z12])
    def test_order_matches_vf2_oracle(self, make):
        g = make()
        assert _closure(g).size == _vf2_automorphism_count(g)

    def test_fixed_vertex_stabilizer(self):
        g = fx.c5()
        st = R.automorphism_generators(g, fixed=(0,))
        assert R.close_group(st).size == 2
        elements = fx.compose_closure(st)
        assert len(elements) == 2 and all(s(0) == 0 for s in elements)

    @pytest.mark.parametrize("make,order", [(fx.petersen, 12), (fx.barbell, 2)])
    def test_repeated_fixed_vertex_is_fixed_once(self, make, order):
        g = make()
        twice = R.automorphism_generators(g, (0, 0))
        assert twice == R.automorphism_generators(g, (0,))
        assert R.close_group(twice).size == order
        rep = R.run_pipeline(g, R.TargetKind.LOWER, R.PipelineConfig(group=(0, 0)))
        assert rep.group_order == order

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(symmetry, "SEARCH_BUDGET", 1)
        with pytest.raises(R.SearchBudgetExceeded):
            R.automorphism_generators(fx.petersen())

    def test_cap_exceeded(self, monkeypatch):
        gens = R.automorphism_generators(fx.petersen())
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", 5)
        with pytest.raises(R.CapExceeded):
            R.close_group(gens)


@st.composite
def complete_graph_generators(draw):
    """Up to three random permutations of K_n, n <= 6: all are automorphisms."""
    n = draw(st.integers(2, 6))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    graph = R.Graph(n, tuple(itertools.combinations(range(n), 2)))
    return R.GroupGenerators(graph, tuple(R.Permutation(tuple(p)) for p in perms))


class TestClosure:
    @settings(deadline=None, max_examples=60)
    @given(complete_graph_generators())
    def test_matches_compose_closure(self, gens):
        assert R.close_group(gens).size == len(fx.compose_closure(gens))

    @pytest.mark.parametrize("make,order", [(fx.c5, 10), (fx.petersen, 120)])
    def test_cap_boundary(self, make, order, monkeypatch):
        gens = R.automorphism_generators(make())
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", order)
        assert R.close_group(gens).size == order
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", order - 1)
        with pytest.raises(R.CapExceeded):
            R.close_group(gens)

    @pytest.mark.parametrize("n", [256, 257])
    def test_cycle_at_the_byte_limit(self, n):
        # C256 is the largest graph whose images fit one byte per vertex;
        # C257 takes the tuple encoding. Both must close in the same order.
        gens = R.automorphism_generators(R.circulant(n, (1,)))
        assert R.close_group(gens).size == len(fx.compose_closure(gens)) == 2 * n

    def test_closure_builds_no_permutation(self, monkeypatch):
        gens = R.automorphism_generators(R.circulant(6, (1, 2, 3)))
        built = []
        post_init = R.Permutation.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(R.Permutation, "__post_init__", spy)
        clo = R.close_group(gens)
        assert clo.size == 720
        assert built == []


def _rescan_refine(neighbors, cells):
    """The refinement rule spelled out: after every split, rescan from cell 0."""
    cells = [list(c) for c in cells]
    while True:
        for splitter in map(set, cells):
            split = False
            out = []
            for cell in cells:
                groups = {}
                for v in cell:
                    groups.setdefault(len(splitter.intersection(neighbors[v])), []).append(v)
                out.extend(groups[k] for k in sorted(groups))
                split |= len(groups) > 1
            if split:
                cells = out
                break
        else:
            return cells


@st.composite
def graphs_with_seed_partitions(draw):
    """A connected graph, an ordered partition of its vertices, a relabelling."""
    g = draw(connected_graphs(max_n=9))
    order = draw(st.permutations(range(g.n)))
    cuts = sorted(draw(st.sets(st.integers(1, g.n - 1))))
    bounds = [0, *cuts, g.n]
    cells = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    return g, cells, draw(st.permutations(range(g.n)))


class TestRefine:
    @given(graphs_with_seed_partitions())
    @settings(deadline=None, max_examples=150)
    def test_refinement_is_equitable_in_place_and_equivariant(self, case):
        g, cells, pi = case
        out = symmetry._refine(g.neighbors, cells)
        assert out == _rescan_refine(g.neighbors, cells)
        # equitable: a cell's vertices share their count into every cell
        for splitter in map(set, out):
            for cell in out:
                assert len({len(splitter.intersection(g.neighbors[v])) for v in cell}) == 1
        # sub-cells replace their parent in place, keeping vertex order
        parent = {v: i for i, c in enumerate(cells) for v in c}
        owners = [parent[c[0]] for c in out]
        assert all(parent[v] == o for c, o in zip(out, owners) for v in c)
        assert owners == sorted(owners) and set(owners) == set(range(len(cells)))
        assert sorted(v for c in out for v in c) == list(range(g.n))
        assert all(c == [v for v in cells[o] if v in c] for c, o in zip(out, owners))
        # relabelling commutes with refinement
        def relabel(part):
            return [[pi[v] for v in c] for c in part]

        moved = R.Graph(g.n, tuple((pi[u], pi[v]) for u, v in g.edges))
        assert symmetry._refine(moved.neighbors, relabel(cells)) == relabel(out)

    @pytest.mark.parametrize("spine,legs", [
        (2, ()), (3, ()), (8, ()), (31, ()), (60, ()),
        (5, (1,)), (12, (2, 0, 1)), (20, (1, 1, 0, 2)), (15, (3, 0)), (20, (0, 2)),
    ], ids=lambda x: str(x).replace(" ", ""))
    @pytest.mark.parametrize("individualized", [False, True])
    def test_paths_and_caterpillars_match_the_rescan(self, spine, legs,
                                                     individualized):
        # A spine path with legs[i % len(legs)] leaves on its i-th vertex,
        # at most 60 vertices, labelled in a shuffled order. Small cells
        # split off a big one again and again, so refining by the rest of
        # the big cell's parent is exercised at every step.
        edges = [(i, i + 1) for i in range(spine - 1)]
        n = spine
        for i in range(spine):
            for _ in range(legs[i % len(legs)] if legs else 0):
                edges.append((i, n))
                n += 1
        assert n <= 60
        label = list(range(n))
        random.Random(n).shuffle(label)
        g = R.Graph(n, tuple((label[u], label[v]) for u, v in edges))
        cells = [list(range(n))]
        if individualized:
            v = label[spine // 3]
            cells = [[v], [u for u in range(n) if u != v]]
        assert symmetry._refine(g.neighbors, cells) == _rescan_refine(g.neighbors, cells)

    @pytest.mark.parametrize("make", [
        fx.petersen,
        lambda: R.cartesian_product(fx.q3(), R.Graph(2, ((0, 1),))),
        lambda: fx.gnp(30, 0.08, 3),
    ], ids=["petersen", "q4", "gnp30"])
    def test_search_nodes_need_only_the_new_cells_live(self, make, monkeypatch):
        real = symmetry._refine
        live_sets = []

        def spy(neighbors, cells, live=None):
            out = real(neighbors, cells, live)
            assert out == real(neighbors, cells)
            live_sets.append(live)
            return out

        monkeypatch.setattr(symmetry, "_refine", spy)
        R.automorphism_generators(make())
        assert live_sets[0] is None
        assert len(live_sets) > 1 and all(len(live) == 2 for live in live_sets[1:])


class TestOrbits:
    @pytest.mark.parametrize("make,sizes", [
        (fx.c5, (5,)), (fx.petersen, (15,)), (fx.barbell, (1, 2, 4)),
        (fx.cn6b, (6, 12, 12)), (fx.z12, (12, 12)), (fx.f3, (3, 6)),
    ])
    def test_edge_orbit_sizes(self, make, sizes):
        g = make()
        part = R.edge_orbits(R.automorphism_generators(g))
        assert tuple(sorted(part.sizes)) == sizes
        assert sum(part.sizes) == g.m

    def test_orbits_match_brute_force_closure(self):
        # independent oracle: saturate edge orbits by applying every
        # closure element to every edge
        for make in (fx.barbell, fx.f3, fx.c5, fx.z12):
            g = make()
            gens = R.automorphism_generators(g)
            elements = fx.compose_closure(gens)
            part = R.edge_orbits(gens)
            index = {e: i for i, e in enumerate(g.edges)}
            for i, (u, v) in enumerate(g.edges):
                orbit = set()
                for s in elements:
                    a, b = s(u), s(v)
                    orbit.add(index[(a, b) if a < b else (b, a)])
                assert orbit == set(part.members(part.orbit_of[i]))

    def test_orbit_closed_under_generators(self):
        g = fx.cn6b()
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        for s in gens.gens:
            perm = fx.edge_permutation(g, s)
            for i in range(g.m):
                assert part.orbit_of[perm[i]] == part.orbit_of[i]

    def test_vertex_orbits(self):
        g = fx.barbell()
        vo = R.vertex_orbits(R.automorphism_generators(g))
        assert sorted(len(o) for o in vo.orbits) == [2, 4]


class TestEquivariance:
    def test_edge_energy_equivariance(self, rng):
        # l(sigma.phi) = sigma.l(phi) for 50 random phi; fx.edge_permutation
        # maps edge index i to the index of the image edge sigma(e_i)
        g = fx.petersen()
        gens = R.automorphism_generators(g)
        perms = [fx.edge_permutation(g, s) for s in gens.gens]
        for _ in range(50):
            phi = rng.standard_normal(g.n)
            base = R.edge_energy(g, phi)
            scale = max(1.0, float(base.max()))
            for s, perm in zip(gens.gens, perms):
                moved = R.edge_energy(g, phi[np.argsort(s.image)])
                assert np.max(np.abs(moved[perm] - base)) <= 1e-12 * scale

    def test_orbit_energy_invariance(self, rng):
        g = fx.cn6b()
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        for _ in range(20):
            phi = rng.standard_normal(g.n)
            base = R.orbit_energy(part, phi)
            for s in gens.gens:
                moved = R.orbit_energy(part, phi[np.argsort(s.image)])
                assert np.max(np.abs(moved - base)) <= 1e-10 * max(1, base.max())

    def test_orbit_energy_partitions_total(self, rng):
        g = fx.z12()
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        phi = rng.standard_normal(g.n)
        total = float(np.sum(R.edge_energy(g, phi)))
        assert abs(float(np.sum(R.orbit_energy(part, phi))) - total) \
            <= 1e-12 * max(1.0, total)


class TestSymmetrization:
    def test_constant_on_orbits(self, rng):
        g = fx.barbell()
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        w = fx.random_weights(g, rng)
        ws = fx.orbit_mean(w, part)
        for o in range(len(part.sizes)):
            vals = ws.values[list(part.members(o))]
            assert np.max(vals) - np.min(vals) <= 1e-12

    def test_preserves_total_and_uniform(self, rng):
        g = fx.f3()
        part = R.edge_orbits(R.automorphism_generators(g))
        w = fx.random_weights(g, rng)
        ws = fx.orbit_mean(w, part)
        assert abs(ws.values.sum() - w.values.sum()) <= 1e-10
        u = R.WeightVector.uniform(g)
        assert np.allclose(fx.orbit_mean(u, part).values, u.values,
                           rtol=0, atol=1e-14)

    def test_monotonicity(self, rng):
        # symmetrizing can only help both objectives (slack 1e-10)
        for make in (fx.c5, fx.barbell, fx.z12):
            g = make()
            part = R.edge_orbits(R.automorphism_generators(g))
            for _ in range(100):
                w = fx.random_weights(g, rng)
                ws = fx.orbit_mean(w, part)
                lam_s = R.laplacian_spectrum(g, ws).eigenvalues
                lam_w = R.laplacian_spectrum(g, w).eigenvalues
                assert lam_s[1] >= lam_w[1] - 1e-10
                assert lam_s[-1] <= lam_w[-1] + 1e-10


class TestGeneratorsJson:
    def test_roundtrip(self):
        g = fx.z12()
        gens = R.automorphism_generators(g)
        text = json.dumps([list(s.image) for s in gens.gens])
        back = R.generators_from_json(g, text)
        assert back.gens == gens.gens

    def test_json_is_plain_image_lists(self):
        g = fx.c4()
        gens = fx.rotation_gens(g, 4)
        assert [list(s.image) for s in gens.gens] == [[1, 2, 3, 0]]
        back = R.generators_from_json(g, json.dumps([[1, 2, 3, 0]]))
        assert back.gens == gens.gens

    def test_bad_json_rejected(self):
        g = fx.c4()
        with pytest.raises(ValueError):
            R.generators_from_json(g, "not json")
        with pytest.raises(ValueError):
            R.generators_from_json(g, "[[0, 1, 2]]")
        with pytest.raises(ValueError):
            R.generators_from_json(g, "[[1, 0, 2, 3]]")
