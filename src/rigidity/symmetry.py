"""Graph automorphisms and orbit structure.

A generator is a plain image tuple, and GroupGenerators is the one place
generators are checked. They come from an equitable-partition refinement
search with individualization backtracking, which refines one partition in
place from the root to each leaf (a child copies its parent's); callers
with big graphs can supply them externally (JSON) and skip the search.
Orbits of edges and vertices live here too; the edge-orbit partition they
fill in, and its orbit energies, live in graphcore.
"""

from __future__ import annotations

import heapq
import json
from itertools import accumulate
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, sub
from typing import Iterable, Sequence

import numpy as np

from .graphcore import EdgeOrbitPartition, Graph

SEARCH_BUDGET = 200_000  # refinement nodes automorphism_generators may expand
CLOSURE_CAP = 200_000    # elements close_group may list
EDGE_BLOCK = 1 << 14     # (generator, edge) pairs _edge_action maps per pass


class SearchBudgetExceeded(RuntimeError):
    """Automorphism search ran past its node budget."""


class CapExceeded(RuntimeError):
    """Group closure grew past CLOSURE_CAP elements."""


def _integer_type(t: type) -> bool:
    """A Python or numpy integer type; bool is not one."""
    return t is not bool and issubclass(t, (int, np.integer))


@dataclass(frozen=True)
class GroupGenerators:
    """Automorphism generators bound to their graph, as image tuples:
    generator r maps vertex v to gens[r][v].

    This is where every generator is checked, all of them at once. Each row
    must be n integers in 0..n-1; then, over the stacked images, each must
    be a bijection, and each edge's image under it must be an edge, looked
    up in the sorted edge keys. The edge test alone would pass a fold such
    as (0, 1, 0, 1, 0, 1) on C6, which maps every edge onto edge (0, 1).
    Rows are stored as tuples of Python ints, and `images` is the read-only
    k x n array of the k rows.
    """

    graph: Graph
    gens: tuple[tuple[int, ...], ...]
    images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n
        rows = tuple(map(tuple, self.gens))
        why = f"it is not {n} integers in 0..{n - 1}"
        # In range before any array is built, so no entry can overflow one.
        bad = next((r for r, g in enumerate(rows)
                    if len(g) != n or not all(map(_integer_type, set(map(type, g))))
                    or min(g) < 0 or max(g) >= n), None)
        if bad is None:
            images = np.array(rows, dtype=np.intp).reshape(len(rows), n)
            bijective = (np.sort(images, axis=1) == np.arange(n)).all(axis=1)
            closed = (_edge_action(self.graph, images) >= 0).all(axis=1)
            wrong = np.flatnonzero(~(bijective & closed))
            if wrong.size:
                bad = int(wrong[0])
                why = ("it maps an edge to a non-edge" if bijective[bad]
                       else "it is not a bijection")
        if bad is not None:
            raise ValueError(
                f"generator {bad} is not an automorphism of the bound graph: {why}")
        images.setflags(write=False)
        object.__setattr__(self, "gens", tuple(map(tuple, images.tolist())))
        object.__setattr__(self, "images", images)


@dataclass(frozen=True)
class GroupClosure:
    """The order of a generated subgroup of Aut(G); no element is kept."""

    size: int


# ---------------------------------------------------------------------------
# Equitable-partition refinement search
# ---------------------------------------------------------------------------

class _Partition:
    """An ordered partition of the vertices 0..n-1, refined in place.

    `lab` lists the vertices cell by cell. A cell is an id holding the run
    of positions start[c] to end[c] of lab, and cells are ordered by their
    starts; the vertices within a cell are in no particular order. pos[v] is
    where vertex v is and cell_of[v] its cell. Cells only ever split, and a
    split keeps a sub-cell at the parent's start, so a position that starts
    a cell starts one for good, and cell_of[lab[p]] is the cell starting at p.
    """

    __slots__ = ("lab", "pos", "cell_of", "start", "end")

    def __init__(self, cells: Sequence[Sequence[int]]):
        self.lab = [v for cell in cells for v in cell]
        self.end = list(accumulate(map(len, cells)))
        self.start = [e - len(c) for e, c in zip(self.end, cells)]
        self.pos, self.cell_of = [0] * len(self.lab), [0] * len(self.lab)
        for c, cell in enumerate(cells):
            for i, v in enumerate(cell, self.start[c]):
                self.pos[v] = i
                self.cell_of[v] = c

    def copy(self) -> "_Partition":
        new = object.__new__(_Partition)
        new.lab, new.pos, new.cell_of = self.lab[:], self.pos[:], self.cell_of[:]
        new.start, new.end = self.start[:], self.end[:]
        return new

    def individualize(self, v: int) -> tuple[int, int]:
        """Split v off the front of its cell as a cell of its own.

        Returns the ids of v's new cell and of the rest of the old one, which
        keeps the old id.
        """
        lab, pos, start = self.lab, self.pos, self.start
        c = self.cell_of[v]
        s = start[c]
        u, i = lab[s], pos[v]
        lab[i], pos[u] = u, i
        lab[s], pos[v] = v, s
        y = self.cell_of[v] = len(start)
        start.append(s)
        self.end.append(s + 1)
        start[c] = s + 1
        return y, c

    def refine(
        self,
        neighbors: Sequence[Sequence[int]],
        live: Iterable[int],
        within: tuple[int, int] | None = None,
    ) -> None:
        """Equitable refinement: split cells by neighbor counts into every cell.

        Take the first cell that can still split anything, split every cell
        by the neighbor counts of its vertices into that splitter, and start
        over until no cell splits any other. Sub-cells replace their parent
        in place, ordered by ascending count, which keeps the cell order
        isomorphism-invariant.

        A cell that split nothing stays inert until it is itself split. Cells
        only get finer, and the vertices of any finer cell still share their
        count into an unchanged cell, so an inert cell can never split
        anything later. Skipping inert cells therefore picks the same
        splitters in the same order as rescanning from cell 0 after every
        split would, so the partition, and with it the search tree and its
        generators, does not depend on which cells are marked live as long as
        every unmarked cell is inert. `live` holds the ids of the cells not
        known to be inert; a caller that changed a few cells of an equitable
        partition passes only those.

        Live cells wait in a heap of their starts. A split swaps the touched
        vertices into one end of the cell as its sub-cells, so it costs time
        in proportion to them. After a splitter P every cell has one count
        into P, so for S in P the counts into the rest of P order a cell as
        those into S, reversed, with untouched vertices last; the smaller of
        S and that rest is scanned (ref: the last such P). An inert cell is
        its own P. `within`, when given, is the run of positions of an inert
        cell that the live cells were cut from, which serves as their P: a
        child of the search, whose live cells are an individualized vertex
        and the rest of its cell, scans only that vertex's neighbors for the
        rest. So a path, where small cells split off a big one at every
        step, refines in linear time.
        """
        lab, pos, cell_of, start, end = (self.lab, self.pos, self.cell_of,
                                         self.start, self.end)
        n = len(lab)
        ref = list(zip(start, end))
        queue = []
        for c in live:
            ref[c] = within
            queue.append(start[c])
        heapq.heapify(queue)
        queued = set(queue)
        count = [0] * n
        splits = n - len(start)  # a discrete partition splits no further
        while queue and splits:
            s = heapq.heappop(queue)
            queued.remove(s)
            c = cell_of[lab[s]]
            e = end[c]
            r = ref[c]
            flip = r is not None and r[1] - r[0] < 2 * (e - s)
            ref[c] = (s, e)
            by_cell: dict[int, list[int]] = {}  # touched vertices by cell
            for u in (lab[r[0]:s] + lab[e:r[1]] if flip else lab[s:e]):
                for w in neighbors[u]:
                    if count[w]:
                        count[w] += 1
                    else:
                        x = cell_of[w]
                        if end[x] - start[x] > 1:  # singletons never split
                            count[w] = 1
                            if x in by_cell:
                                by_cell[x].append(w)
                            else:
                                by_cell[x] = [w]
            for x, moved in by_cell.items():
                rest = end[x] - start[x] - len(moved)  # untouched vertices
                if len(moved) == 1:
                    count[moved[0]] = 0
                    groups = {0: moved}
                else:
                    groups = {}
                    for v in moved:
                        groups.setdefault(count[v], []).append(v)
                        count[v] = 0
                    if not rest and len(groups) == 1:
                        continue
                splits -= len(groups) - (not rest)
                if flip:
                    t, start[x] = start[x], start[x] + len(moved)
                else:
                    t = end[x] = end[x] - len(moved)
                subs = [start[x]] if rest else []
                for key in sorted(groups, reverse=flip):
                    if rest:
                        y = len(start)
                        start.append(t)
                        end.append(t + len(groups[key]))
                        ref.append(ref[x])
                    else:  # every vertex moved: x takes the first sub-cell,
                        y = x  # and the rest get new ids
                        start[x], end[x], rest = t, t + len(groups[key]), 1
                    subs.append(t)
                    for v in groups[key]:  # swap v into t, and what was at t out
                        u, i = lab[t], pos[v]
                        lab[i], pos[u] = u, i
                        lab[t], pos[v], cell_of[v] = v, t, y
                        t += 1
                for p in subs:
                    if p not in queued:
                        queued.add(p)
                        heapq.heappush(queue, p)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


def automorphism_generators(
    graph: Graph,
    fixed: Iterable[int] = (),
) -> GroupGenerators:
    """Generators of the subgroup of Aut(G) pointwise-fixing `fixed`.

    Individualization-refinement backtracking: the first discrete leaf is the
    base labeling, every other leaf with a matching refinement trace (the
    cell sizes in order at each depth) yields a candidate permutation, the
    one mapping each vertex to what the leaf holds at its base position,
    that is kept if it maps every edge to an edge. Vertices already in the
    orbit of an explored branch are skipped at the root, which is the only
    place the orbits are read: so the candidates of a root branch are checked
    together, in one _edge_action pass, when that branch ends.

    One _Partition is carried from the root to each leaf. The root builds it
    from the seed cells (the fixed vertices, then the rest) and refines it
    with every cell live. A child copies its parent's equitable partition,
    individualizes its vertex at the front of the parent's first smallest
    non-singleton cell, and refines in place with just the two cells that
    creates live, both cut from that inert cell. Raises SearchBudgetExceeded
    when more than SEARCH_BUDGET refinement nodes are expanded; supply
    generators externally in that case.
    """
    n = graph.n
    # Fixing a vertex twice is fixing it once; keep first-seen order.
    fixed = list(dict.fromkeys(int(v) for v in fixed))
    if any(v < 0 or v >= n for v in fixed):
        raise ValueError("fixed vertices out of range")
    nbrs = graph.neighbors
    pinned = set(fixed)
    rest = [v for v in range(n) if v not in pinned]
    seed: list[list[int]] = [[v] for v in fixed]
    if rest:
        seed.append(rest)

    nodes = 0
    base = None  # base(lab): what a leaf holds where the first leaf holds 0..n-1
    trace: list[tuple[int, ...]] = []
    gens: list[tuple[int, ...]] = []
    orbits = _UnionFind(n)
    identity = tuple(range(n))
    candidates: list[tuple[int, ...]] = []  # leaf images not yet checked

    def keep_automorphisms() -> None:
        """Check the candidates in one _edge_action pass and keep those that
        map every edge to an edge, in leaf order, joining their orbits."""
        if not candidates:
            return
        mapped = _edge_action(graph, np.array(candidates, dtype=np.intp))
        for image, ok in zip(candidates, (mapped >= 0).all(axis=1).tolist()):
            if ok:
                gens.append(image)
                for v, w in enumerate(image):
                    if v != w:
                        orbits.union(v, w)
        candidates.clear()

    def explore(part: _Partition, depth: int, live: Iterable[int],
                within: tuple[int, int] | None = None) -> None:
        nonlocal nodes, base
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"automorphism search exceeded {SEARCH_BUDGET} refinement nodes"
            )
        part.refine(nbrs, live, within)
        starts = sorted(part.start)
        shape = tuple(map(sub, starts[1:] + [n], starts))
        if base is None:
            trace.append(shape)
        elif depth >= len(trace) or shape != trace[depth]:
            return
        if len(starts) == n:
            if base is None:
                base = itemgetter(*part.pos)  # n >= 2, so it returns a tuple
                return
            image = base(part.lab)
            if image != identity:
                candidates.append(image)
            return
        # Branch on the first of the smallest cells that are not singletons.
        t = min((i for i, k in enumerate(shape) if k > 1), key=shape.__getitem__)
        s = starts[t]
        e = s + shape[t]
        tried: list[int] = []
        for v in sorted(part.lab[s:e]):
            if depth == 0 and any(orbits.same(v, u) for u in tried):
                continue
            tried.append(v)
            child = part.copy()
            explore(child, depth + 1, child.individualize(v), (s, e))
            if depth == 0:  # the next root child reads the orbits
                keep_automorphisms()

    explore(_Partition(seed), 0, range(len(seed)))
    # No image repeats: refinement only splits cells in place, so two leaves
    # hold different vertices at the position where their branches parted.
    return GroupGenerators(graph, tuple(gens))


def close_group(gens: GroupGenerators) -> GroupClosure:
    """Order of the generated subgroup, by breadth-first closure.

    Each frontier element e, in BFS order, is multiplied by every generator
    g in turn to give g∘e. Elements stay plain images during the loop, and
    the set `seen` is the only store; only its size is returned. The
    encoding is picked once, by n:
    - n <= 256: one byte per vertex. Each generator becomes a 256-byte
      translation table, its image padded with the identity on n..255, so
      e.translate(table) is the image of g∘e in one C call. 256 is the limit
      because a byte, and so a translation table's index, holds 0..255.
    - n > 256: a tuple of ints. `itemgetter(*e)` is built once per e, and
      applied to g's image it gives the image of g∘e.

    Raises CapExceeded when the subgroup grows past CLOSURE_CAP.
    """
    n = gens.graph.n
    if n <= 256:
        pad = bytes(range(n, 256))
        maps = [bytes(g) + pad for g in gens.gens]
        ident = bytes(range(n))
        after = attrgetter("translate")
    else:
        maps = gens.gens
        ident = tuple(range(n))
        # Graph has n >= 2, so itemgetter with n indices returns a tuple.
        def after(e):
            return itemgetter(*e)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            after_e = after(e)
            for g in maps:
                h = after_e(g)
                if h not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise CapExceeded(f"group closure exceeded cap {CLOSURE_CAP}")
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return GroupClosure(len(seen))


def _edge_action(graph: Graph, images: np.ndarray) -> np.ndarray:
    """Entry [r, i]: the index of edge i's image under the permutation in row
    r of images, or -1 where that image is not an edge.

    Edge (u, v), u < v, has key u*n + v; the keys ascend with the edge
    order, so a binary search finds each image. Unlike an n x n table, this
    needs memory only in proportion to the edges. Rows are taken EDGE_BLOCK
    (row, edge) pairs at a time, so the temporaries stay small however many
    generators there are.
    """
    n, m = graph.n, graph.m
    us, vs = graph.endpoints
    table = us * n + vs
    out = np.empty((len(images), m), dtype=np.int32)
    step = max(1, EDGE_BLOCK // m)
    for r in range(0, len(images), step):
        a, b = images[r:r + step, us], images[r:r + step, vs]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        idx = np.searchsorted(table, keys)
        out[r:r + step] = np.where(table.take(idx, mode="clip") == keys, idx, -1)
    return out


def _orbit_labels(images: np.ndarray) -> tuple[int, ...]:
    """Orbit labels of the points 0..N-1 under the permutations in the rows
    of a k x N image array, numbered in order of each orbit's first point.

    Min-label propagation: every point points at a smaller point of its
    orbit, at first itself. Each round hooks the larger of the two roots of
    every pair (p, image of p) that disagree under the smaller one, then
    jumps pointers until each points at a root. When no pair disagrees, each
    orbit's root is its smallest point.
    """
    lab = np.arange(images.shape[1], dtype=images.dtype)
    while True:
        a, b = np.broadcast_to(lab, images.shape), lab[images]
        differ = a != b
        if not differ.any():
            break
        a, b = a[differ], b[differ]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(nxt := lab[lab], lab):
            lab = nxt
    roots = lab == np.arange(lab.size)
    return tuple((np.cumsum(roots) - 1)[lab].tolist())


def edge_orbits(gens: GroupGenerators) -> EdgeOrbitPartition:
    """Edge orbits of gens.graph under generator action (no full closure needed)."""
    graph = gens.graph
    return EdgeOrbitPartition(graph, _orbit_labels(_edge_action(graph, gens.images)))


def vertex_orbits(gens: GroupGenerators) -> tuple[int, ...]:
    """Orbit label of each vertex, numbered in order of each orbit's first vertex."""
    return _orbit_labels(gens.images)


# ---------------------------------------------------------------------------
# External generator files
# ---------------------------------------------------------------------------

def generators_from_json(graph: Graph, text: str) -> GroupGenerators:
    """Parse a JSON array of image arrays into checked generators."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("generator file is nested too deeply") from exc
    # GroupGenerators checks the rest; a non-list row would raise TypeError there.
    if not isinstance(data, list) or not all(isinstance(e, list) for e in data):
        raise ValueError("generator file must be a JSON array of image arrays")
    return GroupGenerators(graph, tuple(map(tuple, data)))
