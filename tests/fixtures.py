"""Frozen test graphs and reference data.

Edge lists are pinned (not generated) so that orbit indices, eigenvector
bases, and certificate coefficients in the tests stay stable.
"""

import numpy as np

import rigidity as R

BARBELL_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5))

F3_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
            (1, 2), (3, 4), (5, 6))

PETERSEN_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5))

DESARGUES_EDGES = ((0, 1), (0, 2), (0, 3), (1, 18), (1, 19), (2, 14), (2, 16),
                   (3, 15), (3, 17), (4, 7), (4, 8), (4, 9), (5, 7), (5, 11),
                   (5, 13), (6, 7), (6, 10), (6, 12), (8, 14), (8, 15),
                   (9, 16), (9, 17), (10, 17), (10, 18), (11, 16), (11, 18),
                   (12, 15), (12, 19), (13, 14), (13, 19))

# 20-vertex cubic bipartite graph, edges grouped by automorphism orbit
CN6B_VIOLET = ((0, 1), (1, 18), (1, 19), (4, 9), (4, 8), (4, 7))
CN6B_ORANGE = ((9, 16), (8, 14), (0, 3), (11, 18), (6, 7), (0, 2), (12, 19),
               (13, 19), (9, 17), (8, 15), (10, 18), (5, 7))
CN6B_BLUE = ((10, 17), (3, 17), (5, 11), (12, 14), (13, 15), (11, 16),
             (3, 15), (2, 16), (6, 10), (2, 14), (6, 12), (5, 13))
CN6B_EDGES = CN6B_VIOLET + CN6B_ORANGE + CN6B_BLUE

# eigenbasis of the lambda2 = 1 eigenspace of the graph above
CN6B_PHI1 = np.array([1, 0, 1, 1, 0, -1, -1, -1, 0, 1,
                      0, 0, -1, -1, 0, 0, 1, 1, 0, -1], dtype=np.float64)
CN6B_PHI2 = np.array([0, 1, -0.5, -0.5, -1, 0.5, 0.5, 0, 0, -2,
                      -0.5, -0.5, 1.5, 1.5, 0.5, 0.5, -1.5, -1.5, 0, 2])
CN6B_PHI3 = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, -1,
                      -1, -1, 1, 1, 1, 1, -1, -1, -1, 1], dtype=np.float64)

# 20-vertex graph with a 7-dimensional lambda2 eigenspace splitting 2 + 5
TENSEGRITY_BLUE = ((7, 17), (7, 15), (8, 18), (4, 5), (8, 16), (3, 5), (6, 8),
                   (2, 19), (6, 7), (0, 2), (6, 10), (1, 19), (9, 12), (5, 10),
                   (0, 1), (1, 12), (6, 9), (10, 14), (9, 11), (13, 16),
                   (5, 9), (2, 14), (1, 11), (11, 16), (10, 13), (14, 18),
                   (13, 15), (2, 13), (12, 18), (11, 15), (14, 17), (3, 17),
                   (12, 17), (3, 15), (4, 18), (0, 4), (4, 16), (0, 3),
                   (8, 19), (7, 19))
TENSEGRITY_ORANGE = ((3, 7), (4, 8), (0, 5), (6, 19), (1, 2), (9, 10),
                     (11, 12), (13, 14), (15, 16), (17, 18))
TENSEGRITY_EDGES = TENSEGRITY_BLUE + TENSEGRITY_ORANGE


def barbell():
    return R.Graph(6, BARBELL_EDGES, name="barbell")


def f3():
    return R.Graph(7, F3_EDGES, name="f3")


def petersen():
    return R.Graph(10, PETERSEN_EDGES, name="petersen")


def desargues():
    return R.Graph(20, DESARGUES_EDGES, name="desargues")


def cn6b():
    return R.Graph(20, CN6B_EDGES, name="cn6b")


def tensegrity20():
    return R.Graph(20, TENSEGRITY_EDGES, name="tensegrity20")


def k4():
    return R.circulant(4, (1, 2))


def c4():
    return R.circulant(4, (1,))


def c5():
    return R.circulant(5, (1,))


def c7():
    return R.circulant(7, (1,))


def z12():
    return R.circulant(12, (2, 3))


def z21():
    return R.circulant(21, (1, 6))


def q3():
    cube = R.cartesian_product(R.circulant(4, (1,)), R.Graph(2, ((0, 1),)))
    return R.Graph(cube.n, cube.edges, name="q3")


# The quaternion group Q8 as unit quaternions (a, b, c, d) = a + bi + cj + dk,
# in the vertex order 1, -1, i, -i, j, -j, k, -k.
Q8 = tuple(tuple(sign * int(a == b) for b in range(4))
           for a in range(4) for sign in (1, -1))


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def q8_cayley():
    """K4,4 as the Cayley graph of Q8 on {+-i, +-j}: vertex v is Q8[v], and
    g is joined to g s for each s in the connection set."""
    index = {q: v for v, q in enumerate(Q8)}
    edges = {tuple(sorted((v, index[_hamilton(q, s)])))
             for v, q in enumerate(Q8) for s in Q8[2:6]}
    return R.Graph(8, tuple(sorted(edges)), name="q8-cayley")


def q8_left_gens(graph):
    """Left multiplication by i and by j on q8_cayley(): a regular action of
    Q8 whose 4-dimensional irreducible is quaternionic."""
    index = {q: v for v, q in enumerate(Q8)}
    return R.GroupGenerators(graph, tuple(
        tuple(index[_hamilton(Q8[u], q)] for q in Q8) for u in (2, 4)))


def rotation_gens(graph, n):
    """Cyclic rotation subgroup i -> i+1 mod n."""
    return R.GroupGenerators(graph, (tuple((i + 1) % n for i in range(n)),))


def lift_product_gens(g1, g2, prod):
    """Automorphisms of a cartesian product induced by factor automorphisms."""
    n1, n2 = g1.n, g2.n
    lifted = [tuple(s[a] * n2 + b for a in range(n1) for b in range(n2))
              for s in R.automorphism_generators(g1).gens]
    lifted += [tuple(a * n2 + s[b] for a in range(n1) for b in range(n2))
               for s in R.automorphism_generators(g2).gens]
    return R.GroupGenerators(prod, tuple(lifted))


def diagonal_gens(g, prod):
    """Diagonal subgroup (sigma, sigma) of Aut(G) x Aut(G) on G square G."""
    n = g.n
    lifted = [tuple(s[a] * n + s[b] for a in range(n) for b in range(n))
              for s in R.automorphism_generators(g).gens]
    return R.GroupGenerators(prod, tuple(lifted))


def gnp(n, p, seed):
    """The first connected G(n, p) graph drawn from the seed."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        try:
            return R.Graph(n, tuple(zip(iu[keep].tolist(), ju[keep].tolist())))
        except R.DisconnectedGraph:
            continue


def battery():
    """Graphs named by the property-suite criterion."""
    return [k4(), c5(), c7(), petersen(), barbell(), f3(), z12(), z21()]


def edge_permutation(graph, sigma):
    """Index map of sigma's edge action: entry i is the index of sigma(e_i)."""
    index = {e: i for i, e in enumerate(graph.edges)}
    out = np.empty(graph.m, dtype=np.int64)
    for i, (u, v) in enumerate(graph.edges):
        a, b = sigma[u], sigma[v]
        out[i] = index[(a, b) if a < b else (b, a)]
    return out


def compose_closure(gens):
    """Every element of the generated group as an image tuple, by
    breadth-first closure spelled out: the identity first, then each
    frontier element e times every generator g, as g∘e, which maps v to
    g[e[v]]."""
    ident = tuple(range(gens.graph.n))
    elements, frontier, seen = [ident], [ident], {ident}
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens.gens:
                h = tuple(g[v] for v in e)
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return elements


def orbit_mean(w, part):
    """w with each edge replaced by the mean over its orbit.

    This is the group average of w, so it keeps w's total and is constant on
    every edge orbit.
    """
    means = np.bincount(part.labels, w, minlength=part.s) / part.size_vector
    return means[part.labels]


def normalized(w):
    """w scaled to sum to its edge count."""
    return w * (w.size / w.sum())


def random_weights(graph, rng):
    """Random normalized strictly positive weights."""
    w = rng.uniform(0.05, 2.0, size=graph.m)
    return w * graph.m / w.sum()
