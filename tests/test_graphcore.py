import io

import networkx as nx
import numpy as np
import pytest

import rigidity as R

import fixtures as fx


def _nx_graph6(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    data = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    return data


class TestGraph:
    def test_edges_canonical_sorted(self):
        g = R.Graph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.edges == ((0, 2), (1, 2), (1, 3))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            R.Graph(3, ((0, 1), (1, 0), (1, 2)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            R.Graph(3, ((0, 0), (1, 2)))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            R.Graph(3, ((0, 3),))

    def test_disconnected_rejected(self):
        with pytest.raises(R.DisconnectedGraph):
            R.Graph(4, ((0, 1), (2, 3)))

    def test_too_few_edges_rejected_before_the_search(self, monkeypatch):
        # n - 2 edges cannot connect n vertices; no O(n) adjacency is built.
        def search(self):
            raise AssertionError("connectivity search ran")

        monkeypatch.setattr(R.Graph, "_is_connected", search)
        with pytest.raises(R.DisconnectedGraph):
            R.Graph(10**6, [(0, 1)])

    def test_degrees(self):
        g = fx.barbell()
        assert g.degrees == (2, 2, 3, 3, 2, 2)



class TestGraph6:
    @pytest.mark.parametrize("make", [fx.barbell, fx.f3, fx.petersen,
                                      fx.desargues, fx.cn6b, fx.z21])
    def test_roundtrip_matches_networkx(self, make):
        g = make()
        assert R.to_graph6(g) == _nx_graph6(g)
        back = R.parse_graph6(R.to_graph6(g))
        assert back.n == g.n and back.edges == g.edges

    def test_parse_networkx_output(self):
        g = fx.petersen()
        back = R.parse_graph6(_nx_graph6(g))
        assert back.edges == g.edges

    def test_large_n_header(self, rng):
        # n >= 63 switches graph6 to the long size encoding
        n = 70
        nxg = nx.gnm_random_graph(n, 200, seed=7)
        while not nx.is_connected(nxg):
            nxg = nx.gnm_random_graph(n, 220, seed=11)
        data = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        g = R.parse_graph6(data)
        assert g.n == n
        assert g.edges == tuple(sorted(tuple(sorted(e)) for e in nxg.edges))
        assert R.to_graph6(g) == data

    def test_optional_header_prefix(self):
        g = fx.c5()
        assert R.parse_graph6(">>graph6<<" + R.to_graph6(g)).edges == g.edges

    @pytest.mark.parametrize("bad", ["", "D" + chr(30), "D~~~~~~~", "D" + chr(127),
                                     "D?@", "D?\u20ac"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(R.MalformedGraph6):
            R.parse_graph6(bad)

    def test_disconnected_graph6_rejected(self):
        nxg = nx.Graph()
        nxg.add_edges_from([(0, 1), (2, 3)])
        data = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        with pytest.raises(R.DisconnectedGraph):
            R.parse_graph6(data)


class TestEdgeList:
    def test_parse_with_comments_and_blanks(self):
        text = "# triangle plus pendant\n\n0 1\n1 2\n 2 0 \n2 3\n"
        g = R.parse_edge_list(text)
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3))

    def test_format_roundtrip(self):
        g = fx.barbell()
        text = R.format_edge_list(g)
        assert R.parse_edge_list(text).edges == g.edges

    def test_format_with_weights(self):
        g = fx.c4()
        w = np.array((1.0, 2.0, 0.5, 0.5))
        text = R.format_edge_list(g, w)
        rows = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == g.m
        assert all(len(r) == 3 for r in rows)
        got = {(int(u), int(v)): float(x) for u, v, x in rows}
        for e, x in zip(g.edges, w):
            assert got[e] == x

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            R.parse_edge_list("0 1\nfoo bar\n")
        with pytest.raises(ValueError):
            R.parse_edge_list("")


class TestBuilders:
    def test_circulant_k4(self):
        g = fx.k4()
        assert g.n == 4 and g.m == 6

    def test_circulant_shift_validation(self):
        with pytest.raises(ValueError):
            R.circulant(6, (0,))
        with pytest.raises(ValueError):
            R.circulant(6, (7,))
        with pytest.raises(R.DisconnectedGraph):
            R.circulant(6, (2,))

    def test_circulant_name(self):
        assert "12" in fx.z12().name

    def test_cartesian_product_counts(self):
        a, b = fx.c4(), fx.c5()
        p = R.cartesian_product(a, b)
        assert p.n == a.n * b.n
        assert p.m == a.n * b.m + b.n * a.m

    def test_q3_is_cubic_bipartite(self):
        g = fx.q3()
        assert g.n == 8 and g.m == 12
        assert set(g.degrees) == {3}
        assert nx.is_bipartite(nx.Graph(g.edges))


class TestLaplacian:
    def test_uniform_matches_networkx(self):
        g = fx.petersen()
        nxg = nx.Graph(g.edges)
        expected = nx.laplacian_matrix(nxg, nodelist=range(g.n)).toarray()
        got = R.laplacian(g, np.ones(g.m))
        assert np.array_equal(got, expected.astype(float))

    def test_rows_sum_to_zero(self, rng):
        g = fx.cn6b()
        w = fx.random_weights(g, rng)
        L = R.laplacian(g, w)
        assert np.max(np.abs(L @ np.ones(g.n))) <= 1e-12 * g.n
        assert np.array_equal(L, L.T)

    def test_linearity_exact(self, rng):
        g = fx.f3()
        w1 = rng.uniform(0.1, 1.0, g.m)
        w2 = rng.uniform(0.1, 1.0, g.m)
        L1 = R.laplacian(g, w1)
        L2 = R.laplacian(g, w2)
        L12 = R.laplacian(g, w1 + w2)
        assert np.allclose(L12, L1 + L2, rtol=0, atol=1e-14)

    def test_energy_identity(self, rng):
        # <phi, L(w) phi> == <w, l(phi)> for 100 random pairs
        g = fx.barbell()
        for _ in range(100):
            w = fx.random_weights(g, rng)
            phi = rng.standard_normal(g.n)
            lhs = float(phi @ R.laplacian(g, w) @ phi)
            rhs = float(np.dot(w, R.edge_energy(g, phi)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_edge_loop_bit_for_bit(self, rng):
        # Reference: accumulate each edge in edge order. Weights span six
        # decades, so any other summation order shows in the last bits, and
        # a third are exact zeros, whose off-diagonal entries must stay +0.0.
        def edge_loop(g, w):
            L = np.zeros((g.n, g.n))
            for i, (u, v) in enumerate(g.edges):
                L[u, v] -= w[i]
                L[v, u] -= w[i]
                L[u, u] += w[i]
                L[v, v] += w[i]
            return L

        for _ in range(40):
            n = int(rng.integers(2, 30))
            tree = [(int(rng.integers(k)), k) for k in range(1, n)]
            extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            g = R.Graph(n, set(tree) | set(extra))
            w = rng.uniform(0.0, 1.0, g.m) * 10.0 ** rng.uniform(-3, 3, g.m)
            w[rng.random(g.m) < 0.33] = 0.0
            got, ref = R.laplacian(g, w), edge_loop(g, w)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_edge_energy_values(self):
        g = fx.c4()
        phi = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(R.edge_energy(g, phi), 4.0 * np.ones(g.m))

    def test_length_mismatch_rejected(self):
        g = fx.c5()
        with pytest.raises(R.DimensionMismatch):
            R.laplacian(g, np.ones(2))
