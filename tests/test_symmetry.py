import hashlib
import itertools
import json
import random
from pathlib import Path

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


def _complete(n):
    return R.circulant(n, range(1, n // 2 + 1))


def _hypercube(d):
    g = R.Graph(2, ((0, 1),))
    for _ in range(d - 1):
        g = R.cartesian_product(g, R.Graph(2, ((0, 1),)))
    return g


def _product(*factors):
    g = factors[0]
    for f in factors[1:]:
        g = R.cartesian_product(g, f)
    return g


def _c3_cubed():
    return _product(*[R.circulant(3, (1,))] * 3)


# The symmetric benchmark graphs (perfbench/workloads.py) other than Q6,
# built the same way.
SYMMETRIC = {
    "K5": lambda: _complete(5),
    "K6": lambda: _complete(6),
    "K7": lambda: _complete(7),
    "Q3": lambda: _hypercube(3),
    "Q4": lambda: _hypercube(4),
    "Q5": lambda: _hypercube(5),
    "petersen": fx.petersen,
    "desargues": fx.desargues,
    "cn6b": fx.cn6b,
    "tensegrity20": fx.tensegrity20,
    "C3xC3xC3": _c3_cubed,
    "C7xC7": lambda: _product(R.circulant(7, (1,)), R.circulant(7, (1,))),
    "C10(1,2)xC5": lambda: _product(R.circulant(10, (1, 2)), R.circulant(5, (1,))),
    "C60(1,11,17)": lambda: R.circulant(60, (1, 11, 17)),
    "C90(1,4,13)": lambda: R.circulant(90, (1, 4, 13)),
    "C120(1,11,17)": lambda: R.circulant(120, (1, 11, 17)),
    "C200(1,7,31)": lambda: R.circulant(200, (1, 7, 31)),
}

ATLAS_G6 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "atlas.g6"


def _images_bytes(gens):
    """The shape and images of the generators as little-endian 8-byte integers."""
    images = gens.images
    return (np.array(images.shape, dtype="<i8").tobytes()
            + np.ascontiguousarray(images, dtype="<i8").tobytes())


def _digest(gens):
    return hashlib.sha256(_images_bytes(gens)).hexdigest()


class TestVerifyAutomorphism:
    """GroupGenerators is the one check a generator passes."""

    def test_rotation_on_cycle(self):
        rot = tuple((i + 1) % 5 for i in range(5))
        assert R.GroupGenerators(fx.c5(), (rot,)).gens == (rot,)

    def test_non_automorphism(self):
        with pytest.raises(ValueError, match="generator 0 .* maps an edge to a non-edge"):
            R.GroupGenerators(fx.c5(), ((1, 0, 2, 3, 4),))

    def test_generators_validated_at_construction(self):
        # numpy integers pass, and rows are stored as tuples of Python ints.
        gens = R.GroupGenerators(fx.c5(), [list(np.roll(np.arange(5), -1))])
        assert gens.gens == ((1, 2, 3, 4, 0),)
        assert {type(v) for v in gens.gens[0]} == {int}
        assert gens.images.tolist() == [[1, 2, 3, 4, 0]]
        assert not gens.images.flags.writeable

    @pytest.mark.parametrize("at", [0, 11, 23])
    @pytest.mark.parametrize("bad", [
        (1, 0) + tuple(range(2, 10)),  # moves edge (1, 2) off
        tuple(range(9)),
        tuple(range(11)),
        # Each of these would read as the identity if its entries were
        # truncated to ints, taken mod 10, or read as 0 and 1.
        tuple(v + 0.5 for v in range(10)),
        (False, True) + tuple(range(2, 10)),
        (np.False_, np.True_) + tuple(range(2, 10)),
        tuple(range(-10, 0)),
        tuple(range(9)) + (10,),
        tuple(range(9)) + (2**64,),  # no intp holds it
    ], ids=["not_automorphism", "short", "long", "float", "bool", "numpy_bool",
            "negative", "out_of_range", "huge"])
    def test_one_bad_generator_among_many_rejected(self, at, bad):
        g = fx.petersen()
        good = R.automorphism_generators(g).gens
        assert len(good) == 23
        R.GroupGenerators(g, good)
        # The error names the first bad generator, not a later one.
        with pytest.raises(ValueError, match=f"generator {at} is not an automorphism"):
            R.GroupGenerators(g, good[:at] + (bad,) + good[at:] + (bad,))

    def test_fold_passes_the_edge_test_but_not_the_check(self):
        # The fold maps every edge of C6 onto edge (0, 1), so the edge test
        # alone marks every edge as mapped; only the bijection test refuses it.
        g = R.circulant(6, (1,))
        fold = (0, 1, 0, 1, 0, 1)
        assert (symmetry._edge_action(g, np.array([fold])) >= 0).all()
        with pytest.raises(ValueError, match="generator 0 .* not a bijection"):
            R.GroupGenerators(g, (fold,))


# Two cubic graphs on 12 vertices whose searches reach leaves that share the
# first leaf's refinement trace but are not automorphisms: (edges, generator
# images, group order). The images are those of the search that checked each
# leaf on its own.
CUBIC12 = {
    "a": (((0, 4), (0, 9), (0, 11), (1, 2), (1, 6), (1, 9), (2, 8), (2, 10),
           (3, 5), (3, 6), (3, 7), (4, 6), (4, 11), (5, 7), (5, 8), (7, 10),
           (8, 9), (10, 11)),
          [(5, 2, 1, 11, 7, 0, 10, 4, 9, 8, 6, 3)], 2),
    "b": (((0, 3), (0, 6), (0, 10), (1, 3), (1, 4), (1, 11), (2, 4), (2, 8),
           (2, 11), (3, 6), (4, 6), (5, 7), (5, 9), (5, 10), (7, 8), (7, 10),
           (8, 9), (9, 11)),
          [(0, 4, 11, 6, 1, 7, 3, 5, 9, 8, 10, 2),
           (10, 9, 2, 5, 8, 3, 7, 6, 4, 1, 0, 11),
           (10, 8, 11, 7, 9, 6, 5, 3, 1, 4, 0, 2)], 4),
}


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
        assert len(elements) == 2 and all(s[0] == 0 for s in elements)

    @pytest.mark.parametrize("make,order", [(fx.petersen, 12), (fx.barbell, 2)])
    def test_repeated_fixed_vertex_is_fixed_once(self, make, order):
        g = make()
        twice = R.automorphism_generators(g, (0, 0))
        assert twice == R.automorphism_generators(g, (0,))
        assert R.close_group(twice).size == order
        rep = R.run_pipeline(g, R.TargetKind.LOWER, R.PipelineConfig(group=(0, 0)))
        assert rep.group_order == order

    @pytest.mark.parametrize("make,nodes", [
        (fx.petersen, 45), (SYMMETRIC["K6"], 413), (_c3_cubed, 159),
    ], ids=["petersen", "K6", "C3xC3xC3"])
    def test_budget_exceeded(self, make, nodes, monkeypatch):
        # Each search expands exactly `nodes` refinement nodes, so a budget
        # of `nodes` passes and one node less raises.
        g = make()
        monkeypatch.setattr(symmetry, "SEARCH_BUDGET", nodes)
        R.automorphism_generators(g)
        monkeypatch.setattr(symmetry, "SEARCH_BUDGET", nodes - 1)
        with pytest.raises(R.SearchBudgetExceeded):
            R.automorphism_generators(g)

    def test_half_fixed_long_path_has_no_generators(self):
        # Every other vertex of a 20,000-vertex path fixed: the seed
        # partition refines to a discrete one at the root.
        n = 20_000
        g = R.Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        assert R.automorphism_generators(g, fixed=range(0, n, 2)).gens == ()

    @pytest.mark.parametrize("case", sorted(CUBIC12))
    def test_each_candidate_is_checked_once(self, case, monkeypatch):
        # No per-leaf check: each leaf image goes through its root branch's
        # one _edge_action pass, and the images that fail it are dropped.
        edges, images, order = CUBIC12[case]
        g = R.Graph(12, edges)
        batches, real = [], symmetry._edge_action

        def spy(graph, rows):
            batches.append([tuple(r) for r in rows.tolist()])
            return real(graph, rows)

        monkeypatch.setattr(symmetry, "_edge_action", spy)
        gens = R.automorphism_generators(g)
        *search, final = batches  # the last is GroupGenerators' own check
        checked = [r for batch in search for r in batch]
        assert len(checked) == len(set(checked)) > len(images)
        assert list(gens.gens) == final == images
        assert R.close_group(gens).size == order == _vf2_automorphism_count(g)

    def test_cap_exceeded(self, monkeypatch):
        gens = R.automorphism_generators(fx.petersen())
        monkeypatch.setattr(symmetry, "CLOSURE_CAP", 5)
        with pytest.raises(R.CapExceeded):
            R.close_group(gens)


SYMMETRIC_PINS = {
    "K5": "8d003637643bf19d1bb1d0e1ee464c4f9ceeb2bf690cac27564f7477eb627b9b",
    "K6": "19d9dd978cf8d3f21b6a30a541bdee6697f98c95feba8bcdc16de258eeab6b89",
    "K7": "8cd259c646ce2228450707b43817f5b9d1fec4dbba80a8c2ec85a5c3e3d26a73",
    "Q3": "e27e83a363caf931fb101ff5ebf37bc8f15f52c304945885b83e274c8fc9529f",
    "Q4": "731521f14541780ebbe6ec7c1752ff61f94f6086d454daae7da32dc337b802bb",
    "Q5": "ac05bf7ddce2fa71691d4a41f7a07a9dfb4b35926254f01724bdbea2238f3fda",
    "petersen": "520c2d30fd6b06efe1940821e1e9aa92fa6c751316c4b23d679c897c6b4ceab3",
    "desargues": "ea99493eebb8a6d0825dcd72a783e9e22ef2916b010f3aab43c135811269fd57",
    "cn6b": "9302a51179bc3f1f488d581ba9ab7932157530868df520ae292ba7f3c6b6429c",
    "tensegrity20": "6c883facad5c0bc4419da67aa91660389936b7e2f7c67afd4fe32b8c429561b7",
    "C3xC3xC3": "f1b57931f12783b693269e051681bf3610ece535351f48952482f17ab25e4ae9",
    "C7xC7": "9e705616d3edaac2881e8c5bfbbb17e5da983a0f708954a01c373d53972f08e5",
    "C10(1,2)xC5": "58930d056ea7842e85405ca2a683acc258789ee967379fdef7c9aa7869cb9904",
    "C60(1,11,17)": "3468cfc273611769bf0283cbc3eac62e2df0dd537c9dff859e434bb67f3d3bfd",
    "C90(1,4,13)": "7d03975cdf877bb508654a90a50414933a67101d3cbb0b42ae4ae0cab3e189a1",
    "C120(1,11,17)": "5454813e938f999883978f53fc06e485e872f7439c04ebc548b0c85b2ea06a3b",
    "C200(1,7,31)": "a7673f0c40d1640350b6c51f9840542cf73f9f2fd783c4e47f9e32bdda492fcd",
}


class TestGeneratorPins:
    """Pinned SHA-256 digests of the searches' generator images. Isotypic
    report bytes depend on the generator order, so a faster search must
    return the same tuples, the same permutations in the same order."""

    def test_atlas(self):
        digest = hashlib.sha256()
        for line in ATLAS_G6.read_text().split():
            digest.update(_images_bytes(R.automorphism_generators(R.parse_graph6(line))))
        assert digest.hexdigest() == \
            "1094848b36a4eb4d26af6f346e776ab2b7899ac877e2080adb89ad2196cbd82b"

    @pytest.mark.parametrize("name", SYMMETRIC_PINS)
    def test_symmetric(self, name):
        assert _digest(R.automorphism_generators(SYMMETRIC[name]())) == SYMMETRIC_PINS[name]

    @pytest.mark.parametrize("make,fixed,pin", [
        (fx.petersen, (0,),
         "0b0a1958153885bb8560d75f9a981722baf366f064956cbd626f3ef6db719910"),
        (fx.c5, (0, 0),
         "f164ab1018a2e885e2e648b82aa9c02a78e09d5c59f6e3b172c14af4f4699f6a"),
        (SYMMETRIC["K6"], (0, 1),
         "a197bd5ca62a74b99f25485fa0b29c640be5b0493c8fe0713cea35c61a9ad896"),
        (SYMMETRIC["Q4"], (3,),
         "63fbbea5333f1e87caedcbedc8dc43353c5eb1c65fc6124d3e9e03226ce6d395"),
        (_c3_cubed, (0, 13),
         "43e797d675ff18a4a2661b1e132562ddd09cc6e6706fa3cca5e82679a2c6aca7"),
        (fx.barbell, (2,),
         "e98ded46b6a14406ddc617d29010cab8df99c49baa639d74ffd2e83a7cccca2d"),
    ], ids=["petersen-0", "c5-0-0", "K6-0-1", "Q4-3", "C3xC3xC3-0-13", "barbell-2"])
    def test_fixed(self, make, fixed, pin):
        assert _digest(R.automorphism_generators(make(), fixed)) == pin


@st.composite
def complete_graph_generators(draw):
    """Up to three random permutations of K_n, n <= 6: all are automorphisms."""
    n = draw(st.integers(2, 6))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    graph = R.Graph(n, tuple(itertools.combinations(range(n), 2)))
    return R.GroupGenerators(graph, tuple(tuple(p) for p in perms))


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


def _cells(part):
    """The cells of a symmetry._Partition in order, after checking that its
    arrays agree: lab is a permutation, pos its inverse, the cells are
    nonempty runs that tile lab in order, and cell_of names each vertex's."""
    lab, pos, cell_of, start, end = part.lab, part.pos, part.cell_of, part.start, part.end
    assert sorted(lab) == list(range(len(lab)))
    assert all(pos[v] == i for i, v in enumerate(lab))
    assert len(start) == len(end) and all(a < b for a, b in zip(start, end))
    order = sorted(range(len(start)), key=start.__getitem__)
    assert [start[c] for c in order] == [0] + [end[c] for c in order[:-1]]
    assert end[order[-1]] == len(lab)
    assert all(cell_of[v] == c for c in order for v in lab[start[c]:end[c]])
    return [lab[start[c]:end[c]] for c in order]


def _refine(neighbors, cells):
    """Refine a _Partition of `cells` with every cell live. Vertices within
    a cell are in no particular order there, so each cell is listed in the
    order of `cells`."""
    part = symmetry._Partition(cells)
    part.refine(neighbors, range(len(cells)))
    rank = {v: i for i, v in enumerate(v for c in cells for v in c)}
    return [sorted(c, key=rank.__getitem__) for c in _cells(part)]


def _caterpillar(spine, legs):
    """A spine path with legs[i % len(legs)] leaves on its i-th vertex, at
    most 60 vertices, labelled in a shuffled order."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(legs[i % len(legs)] if legs else 0):
            edges.append((i, n))
            n += 1
    assert n <= 60
    label = list(range(n))
    random.Random(n).shuffle(label)
    return R.Graph(n, tuple((label[u], label[v]) for u, v in edges)), label


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
        out = _refine(g.neighbors, cells)
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
        assert _refine(moved.neighbors, relabel(cells)) == relabel(out)

    @pytest.mark.parametrize("spine,legs", [
        (2, ()), (3, ()), (8, ()), (31, ()), (60, ()),
        (5, (1,)), (12, (2, 0, 1)), (20, (1, 1, 0, 2)), (15, (3, 0)), (20, (0, 2)),
    ], ids=lambda x: str(x).replace(" ", ""))
    @pytest.mark.parametrize("individualized", [False, True])
    def test_paths_and_caterpillars_match_the_rescan(self, spine, legs,
                                                     individualized):
        # Small cells split off a big one again and again, so refining by
        # the rest of the big cell's parent is exercised at every step.
        g, label = _caterpillar(spine, legs)
        n = g.n
        cells = [list(range(n))]
        if individualized:
            v = label[spine // 3]
            cells = [[v], [u for u in range(n) if u != v]]
        assert _refine(g.neighbors, cells) == _rescan_refine(g.neighbors, cells)

    @pytest.mark.parametrize("make", [
        fx.petersen,
        lambda: R.cartesian_product(fx.q3(), R.Graph(2, ((0, 1),))),
        lambda: fx.gnp(30, 0.08, 3),
        lambda: _caterpillar(20, (1, 1, 0, 2))[0],
    ], ids=["petersen", "q4", "gnp30", "caterpillar"])
    def test_search_nodes_need_only_the_new_cells_live(self, make, monkeypatch):
        # Each node refines its partition in place with only the cells the
        # search marks live; the result must be the partition that refining
        # a fresh copy of the node's cells with every cell live gives.
        real = symmetry._Partition.refine
        live_sets = []

        def spy(self, neighbors, live, within=None):
            live = list(live)
            cells = _cells(self)
            if within is not None:  # the live cells tile the inert run `within`
                s, e = within
                assert sorted(v for c in live for v in self.lab[self.start[c]:self.end[c]]) \
                    == sorted(self.lab[s:e])
            real(self, neighbors, live, within)
            fresh = symmetry._Partition(cells)
            real(fresh, neighbors, range(len(cells)))
            assert [sorted(c) for c in _cells(self)] == [sorted(c) for c in _cells(fresh)]
            live_sets.append((live, within))

        monkeypatch.setattr(symmetry._Partition, "refine", spy)
        R.automorphism_generators(make())
        assert live_sets[0] == ([0], None)
        assert len(live_sets) > 1
        assert all(len(live) == 2 and within is not None for live, within in live_sets[1:])


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
                    a, b = s[u], s[v]
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
        assert R.vertex_orbits(R.automorphism_generators(g)) == (0, 0, 1, 1, 0, 0)


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
                moved = R.edge_energy(g, phi[np.argsort(s)])
                assert np.max(np.abs(moved[perm] - base)) <= 1e-12 * scale

    def test_orbit_energy_invariance(self, rng):
        g = fx.cn6b()
        gens = R.automorphism_generators(g)
        part = R.edge_orbits(gens)
        for _ in range(20):
            phi = rng.standard_normal(g.n)
            base = R.orbit_energy(part, phi)
            for s in gens.gens:
                moved = R.orbit_energy(part, phi[np.argsort(s)])
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
            vals = ws[list(part.members(o))]
            assert np.max(vals) - np.min(vals) <= 1e-12

    def test_preserves_total_and_uniform(self, rng):
        g = fx.f3()
        part = R.edge_orbits(R.automorphism_generators(g))
        w = fx.random_weights(g, rng)
        ws = fx.orbit_mean(w, part)
        assert abs(ws.sum() - w.sum()) <= 1e-10
        u = np.ones(g.m)
        assert np.allclose(fx.orbit_mean(u, part), u,
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
        text = json.dumps(gens.gens)
        back = R.generators_from_json(g, text)
        assert back.gens == gens.gens

    def test_json_is_plain_image_lists(self):
        g = fx.c4()
        gens = fx.rotation_gens(g, 4)
        assert gens.gens == ((1, 2, 3, 0),)
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
