"""Randomized invariant checks over generated connected graphs."""

import functools
import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rigidity as R
from rigidity import certify, sdpfeas

import fixtures as fx


@st.composite
def connected_graphs(draw, min_n=3, max_n=10):
    """Random spanning tree plus extra edges, so connectivity is guaranteed."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        edges.add((p, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    edges.update(extra)
    return R.Graph(n, tuple(sorted(edges)))


@st.composite
def graphs_with_weights(draw, dyadic=False):
    g = draw(connected_graphs())
    m = len(g.edges)
    if dyadic:
        vals = draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
        w = np.array(vals, dtype=float) / 16.0
    else:
        vals = draw(st.lists(st.floats(0.05, 3.0, allow_nan=False),
                             min_size=m, max_size=m))
        w = np.array(vals, dtype=float)
    return g, R.WeightVector(tuple(w))


@st.composite
def graphs_with_weights_and_vector(draw):
    g, w = draw(graphs_with_weights())
    phi = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False),
                        min_size=g.n, max_size=g.n))
    return g, w, np.array(phi)


@given(graphs_with_weights_and_vector())
@settings(deadline=None, max_examples=80)
def test_energy_identity(gwp):
    g, w, phi = gwp
    L = R.laplacian(g, w)
    lhs = float(phi @ L @ phi)
    rhs = float(np.array(w.values) @ R.edge_energy(g, phi))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(graphs_with_weights())
@settings(deadline=None, max_examples=80)
def test_laplacian_row_sums_and_psd(gw):
    g, w = gw
    L = R.laplacian(g, w)
    scale = max(1.0, np.max(np.abs(L)))
    assert np.max(np.abs(L @ np.ones(g.n))) <= 1e-12 * g.n * scale
    assert np.min(np.linalg.eigvalsh(L)) >= -1e-10 * scale
    assert np.array_equal(L, L.T)


@given(connected_graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_laplacian_linearity_exact_on_dyadic_weights(g, data):
    # Sixteenths below 2**8 add without rounding, so equality is exact.
    m = len(g.edges)
    a = data.draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    b = data.draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    w1 = R.WeightVector(tuple(np.array(a) / 16.0))
    w2 = R.WeightVector(tuple(np.array(b) / 16.0))
    ws = R.WeightVector(tuple((np.array(a) + np.array(b)) / 16.0))
    assert np.array_equal(R.laplacian(g, ws),
                          R.laplacian(g, w1) + R.laplacian(g, w2))


@given(connected_graphs())
@settings(deadline=None, max_examples=80)
def test_graph6_roundtrip_and_reference_codec(g):
    text = R.to_graph6(g)
    back = R.parse_graph6(text)
    assert back.n == g.n and back.edges == g.edges
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    assert text == nx.to_graph6_bytes(nxg, header=False).decode().strip()


@given(graphs_with_weights())
@settings(deadline=None, max_examples=60)
def test_weight_normalize_sums_to_edge_count(gw):
    g, w = gw
    m = len(g.edges)
    total = sum(w.normalize().values)
    assert abs(total - m) <= 1e-12 * m


@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@settings(deadline=None, max_examples=60)
def test_permutation_group_laws(imgs):
    img_p, img_q = imgs
    p, q = R.Permutation(tuple(img_p)), R.Permutation(tuple(img_q))
    n = len(img_p)
    pq = p.compose(q)
    assert all(pq(i) == p(q(i)) for i in range(n))
    assert p.compose(fx.inverse(p)).is_identity()
    assert fx.inverse(p).compose(p).is_identity()
    e = R.Permutation.identity(n)
    assert p.compose(e).image == p.image and e.compose(p).image == p.image


@given(graphs_with_weights(), st.floats(0.1, 8.0, allow_nan=False))
@settings(deadline=None, max_examples=40)
def test_spectrum_scales_linearly(gw, c):
    g, w = gw
    base = R.laplacian_spectrum(g, w).eigenvalues
    scaled = R.laplacian_spectrum(
        g, R.WeightVector(tuple(c * v for v in w.values))).eigenvalues
    scale = max(1.0, c * base[-1])
    assert np.max(np.abs(scaled - c * base)) <= 1e-12 * scale


@given(graphs_with_weights())
@settings(deadline=None, max_examples=60)
def test_largest_eigenvalue_gershgorin_bound(gw):
    g, w = gw
    dec = R.laplacian_spectrum(g, w)
    L = R.laplacian(g, w)
    max_deg = np.max(np.diag(L))
    assert dec.eigenvalues[-1] <= 2 * max_deg * (1 + 1e-12)


@given(connected_graphs(max_n=7), st.data())
@settings(deadline=None, max_examples=25)
def test_symmetrization_is_monotone(g, data):
    m = len(g.edges)
    vals = data.draw(st.lists(st.floats(0.05, 3.0, allow_nan=False),
                              min_size=m, max_size=m))
    w = R.WeightVector(tuple(vals))
    try:
        gens = R.automorphism_generators(g, budget=20000)
    except R.SearchBudgetExceeded:
        assume(False)
    ws = fx.orbit_mean(w.normalize(), R.edge_orbits(gens))
    lam = R.laplacian_spectrum(g, w.normalize()).eigenvalues
    lams = R.laplacian_spectrum(g, ws).eigenvalues
    slack = 1e-10 * max(1.0, lam[-1])
    assert lams[1] >= lam[1] - slack
    assert lams[-1] <= lam[-1] + slack
    assert abs(sum(ws.values) - len(g.edges)) <= 1e-9 * len(g.edges)


@given(connected_graphs())
@settings(deadline=None, max_examples=25)
def test_cluster_projector_properties(g):
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    try:
        cl = R.cluster_eigenspace(dec, R.TargetKind.LOWER)
    except R.AmbiguousCluster:
        assume(False)
    B = cl.basis
    P = B @ B.T
    d = B.shape[1]
    assert np.max(np.abs(P - P.T)) <= 1e-12
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    assert abs(np.trace(P) - d) <= 1e-10
    L = R.laplacian(g, R.WeightVector.uniform(g))
    scale = max(1.0, dec.eigenvalues[-1])
    assert np.max(np.abs(L @ P - cl.value * P)) <= 1e-6 * scale


@given(connected_graphs(max_n=7), st.data())
@settings(deadline=None, max_examples=25)
def test_orbit_partition_and_energy_totals(g, data):
    phi = np.array(data.draw(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=g.n, max_size=g.n)))
    try:
        gens = R.automorphism_generators(g, budget=20000)
    except R.SearchBudgetExceeded:
        assume(False)
    part = R.edge_orbits(gens)
    assert sum(part.sizes) == len(g.edges)
    per_edge = R.edge_energy(g, phi)
    per_orbit = R.orbit_energy(part, phi)
    assert np.all(np.asarray(per_orbit) >= 0)
    total = float(np.sum(per_edge))
    assert abs(float(np.sum(per_orbit)) - total) <= 1e-12 * max(1.0, total)


circulants = st.integers(4, 10).flatmap(lambda n: st.sets(
    st.integers(2, n // 2), max_size=2).map(
        lambda jumps: R.circulant(n, sorted(jumps | {1}))))


@given(st.one_of(connected_graphs(max_n=8), circulants), st.data())
@settings(deadline=None, max_examples=60)
def test_automorphism_generators_never_repeat(g, data):
    fixed = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2, unique=True))
    gens = R.automorphism_generators(g, fixed).gens
    images = [sigma.image for sigma in gens]
    assert len(set(images)) == len(images)
    assert not any(sigma.is_identity() for sigma in gens)
    assert all(sigma(v) == v for sigma in gens for v in fixed)


@given(connected_graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_edge_energy_zero_iff_constant(g, data):
    const = R.edge_energy(g, np.full(g.n, 0.7))
    assert np.all(np.asarray(const) == 0)
    phi = np.array(data.draw(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=g.n, max_size=g.n)))
    spread = float(np.max(phi) - np.min(phi))
    assume(spread > 1e-3)
    # Some edge along a min-to-max path carries at least spread/(n-1).
    floor = (spread / (g.n - 1)) ** 2
    assert float(np.max(R.edge_energy(g, phi))) >= 0.9 * floor


# max_n stays at 6: shrinking heads for stars, and the star on 8 vertices has
# a group of order 5,040 that the group step lists element by element.
@given(connected_graphs(max_n=6))
@settings(deadline=None, max_examples=40)
def test_pipeline_ends_in_a_report_that_reverifies(g):
    for target in (R.TargetKind.LOWER, R.TargetKind.UPPER):
        rep = R.run_pipeline(g, target)
        assert R.route_is_valid(rep.route), rep.route
        assert R.reverify_report(json.loads(R.emit_report(rep, "JSON"))), rep.route


@functools.cache
def _reverify_payloads():
    """Barbell LOWER (disproved), C5 LOWER (numeric) and Z12 exact, as JSON text."""
    z12 = fx.z12()
    reports = (R.run_pipeline(fx.barbell(), R.TargetKind.LOWER),
               R.run_pipeline(fx.c5(), R.TargetKind.LOWER),
               R.run_pipeline(z12, R.TargetKind.LOWER,
                              R.PipelineConfig(group=fx.rotation_gens(z12, 12))))
    return tuple(R.emit_report(rep, "JSON") for rep in reports)


# Any JSON value. Leaves include integers too large for a float, NaN and the
# infinities, which a report never holds; the first branch draws them often.
_hostile = st.sampled_from([10**400, -10**400, math.nan, math.inf, -math.inf])
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=6), _hostile)
_json_values = st.one_of(
    _hostile,
    st.recursive(_json_leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=6), kids, max_size=3)), max_leaves=6))


@given(st.data())
@settings(deadline=None, max_examples=500)
def test_reverify_report_never_raises(data):
    doc = json.loads(data.draw(st.sampled_from(_reverify_payloads())))
    # Walk from the root; at each container stop (None) or enter one child.
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        k = data.draw(st.sampled_from(
            [None, *(sorted(node) if isinstance(node, dict) else range(len(node)))]))
        if k is None:
            break
        parent, key, node = node, k, node[k]
    value = data.draw(_json_values)
    if parent is None:
        doc = value
    else:
        parent[key] = value
    result = R.reverify_report(doc)
    assert result is True or result is False


def _knapsack_optimum(g, size):
    """max g.y s.t. <size, y> = 0, |y|_inf <= 1, by Dantzig's greedy rule.

    From y = -1 the constraint lacks sum(size); raising y_o to +1 buys
    2 size_o of it for 2 g_o, so the best ratios g_o / size_o go up first
    and the last one raised stops part way.
    """
    y = -np.ones(len(g))
    need = float(np.sum(size))
    for o in sorted(range(len(g)), key=lambda o: -g[o] / size[o]):
        take = min(2.0 * size[o], need)
        y[o] += take / size[o]
        need -= take
    return float(g @ y)


@given(st.one_of(connected_graphs(max_n=8), circulants))
@settings(deadline=None, max_examples=60)
def test_simple_eigenvalue_direction_is_optimal(g):
    part = R.edge_orbits(R.automorphism_generators(g))
    size = np.asarray(part.size_vector, dtype=float)
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    simple = 0
    for kind in (R.TargetKind.LOWER, R.TargetKind.UPPER):
        try:
            basis = R.cluster_eigenspace(dec, kind).basis
        except R.AmbiguousCluster:
            continue
        if basis.shape[1] != 1:
            continue
        simple += 1
        sign = 1.0 if kind is R.TargetKind.LOWER else -1.0
        gain = sign * np.asarray(R.orbit_energy(part, basis[:, 0]))
        y, t = certify._cutting_plane_direction(
            part, basis, kind, np.random.default_rng(0))
        best = _knapsack_optimum(gain, size)
        assert abs(t - best) <= 1e-9 * max(1.0, float(np.sum(np.abs(gain))))
        assert float(np.max(np.abs(y))) <= 1.0 + 1e-9
        assert abs(float(size @ y)) <= 1e-9 * float(np.sum(size))
    assume(simple > 0)


def _disproof_or_error(g, kind):
    """find_disproof on the trivial partition, or the type of what it raised."""
    part = R.edge_orbits(R.GroupGenerators(g, ()))
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    cluster = R.cluster_eigenspace(dec, kind)
    try:
        return R.find_disproof(cluster, part, kind, spectrum=dec)
    except R.LineSearchFailed as exc:
        return type(exc)


@given(st.integers(3, 10), st.floats(0.3, 0.9), st.integers(0, 2**16))
@settings(deadline=None, max_examples=12)
def test_stall_rule_never_changes_a_verdict(n, p, seed):
    g = fx.gnp(n, p, seed)
    for kind in (R.TargetKind.LOWER, R.TargetKind.UPPER):
        try:
            stalled = _disproof_or_error(g, kind)
        except R.AmbiguousCluster:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "STALL", 0.0)
            full = _disproof_or_error(g, kind)
        assert (stalled is None) == (full is None)
        assert (stalled is R.LineSearchFailed) == (full is R.LineSearchFailed)
        for d in (stalled, full):
            if isinstance(d, R.Disproof):
                assert R.verify_disproof(g, d, kind)


# Schur's lemma: with every multiplicity one, the group average of a feasible
# embedding's Gram lies in the span of the isotypic projectors, so the SDP is
# feasible exactly when the orbit-size vector lies in the cone. The pipeline
# runs only the cone there; this keeps the SDP as its reference.
@given(st.one_of(connected_graphs(max_n=6), circulants))
@settings(deadline=None, max_examples=25)
def test_cone_and_sdp_agree_at_multiplicity_one(g):
    gens = R.automorphism_generators(g)
    part = R.edge_orbits(gens)
    dec = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    checked = 0
    for kind in (R.TargetKind.LOWER, R.TargetKind.UPPER):
        try:
            cluster = R.cluster_eigenspace(dec, kind)
        except R.AmbiguousCluster:
            continue
        iso = R.isotypic_decompose(cluster, gens)
        if not R.all_multiplicity_one(iso):
            continue
        sdp = sdpfeas.solve_feasibility(sdpfeas.compress_operators(cluster, part))
        cone = R.solve_cone_membership(R.build_cone(iso, part))
        assert (sdp.status is sdpfeas.SdpStatus.FEASIBLE) == cone.feasible, kind
        checked += 1
    assume(checked > 0)


# Schur's lemma makes the decomposition exact: the isotypics fill the
# eigenspace with orthogonal, group-invariant projectors, each endomorphism
# field is R, C or H and divides its irreducible, and the seed of the one
# random split changes nothing.
@given(connected_graphs(min_n=2, max_n=7),
       st.sampled_from(["full", "stabilizer", "trivial"]))
@settings(deadline=None, max_examples=80)
def test_isotypic_decomposition_is_exact_and_seed_free(g, group):
    gens = {"full": lambda: R.automorphism_generators(g),
            "stabilizer": lambda: R.automorphism_generators(g, fixed=[0]),
            "trivial": lambda: R.GroupGenerators(g, ())}[group]()
    spectrum = R.laplacian_spectrum(g, R.WeightVector.uniform(g))
    for kind in (R.TargetKind.LOWER, R.TargetKind.UPPER):
        try:
            cluster = R.cluster_eigenspace(spectrum, kind)
        except R.AmbiguousCluster:
            continue
        B = cluster.basis
        decs = [R.isotypic_decompose(cluster, gens, seed) for seed in (0, 1)]
        for dec in decs:
            comps = dec.components
            assert sum(c.irr_dim * c.mult for c in comps) == B.shape[1]
            assert all(c.endo_dim in (1, 2, 4) and c.irr_dim % c.endo_dim == 0
                       for c in comps)
            projs = [c.basis @ c.basis.T for c in comps]
            assert np.max(np.abs(sum(projs) - B @ B.T)) <= 1e-8
            for i, P in enumerate(projs):
                assert all(np.max(np.abs(P @ Q)) <= 1e-8 for Q in projs[i + 1:])
                for sigma in gens.gens:
                    image = list(sigma.image)
                    assert np.max(np.abs(P[np.ix_(image, image)] - P)) <= 1e-8
        shapes = [[(c.irr_dim, c.mult, c.endo_dim) for c in dec.components]
                  for dec in decs]
        assert shapes[0] == shapes[1]
        for a in decs[0].components:
            Pa = a.basis @ a.basis.T
            assert min(np.max(np.abs(Pa - b.basis @ b.basis.T))
                       for b in decs[1].components
                       if (b.irr_dim, b.mult) == (a.irr_dim, a.mult)) <= 1e-8
