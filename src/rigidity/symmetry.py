"""Graph automorphisms and orbit structure.

Automorphism generators come from an equitable-partition refinement search
with individualization backtracking; callers with big graphs can supply
generators externally (JSON) and skip the search. Orbits of edges and
vertices live here too; the edge-orbit partition they fill in, and its
orbit energies, live in graphcore.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphcore import EdgeOrbitPartition, Graph

SEARCH_BUDGET_DEFAULT = 200_000
CLOSURE_CAP_DEFAULT = 200_000


class SearchBudgetExceeded(RuntimeError):
    """Automorphism search ran past its node budget."""


class CapExceeded(RuntimeError):
    """Group closure grew past the configured cap."""


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1, stored as image[v] = sigma(v)."""

    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(x) for x in self.image)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise ValueError("image is not a bijection on 0..n-1")
        object.__setattr__(self, "image", img)

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(v) = self(other(v))."""
        return Permutation(tuple(self.image[other.image[v]] for v in range(self.n)))

    def __call__(self, v: int) -> int:
        return self.image[v]


@dataclass(frozen=True)
class GroupGenerators:
    """Verified automorphism generators bound to their graph."""

    graph: Graph
    gens: tuple[Permutation, ...]

    def __post_init__(self):
        for g in self.gens:
            if not verify_automorphism(self.graph, g):
                raise ValueError("generator is not an automorphism of the bound graph")


@dataclass(frozen=True)
class GroupClosure:
    """A fully enumerated subgroup of Aut(G)."""

    graph: Graph
    elements: tuple[Permutation, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class VertexOrbitPartition:
    orbit_of: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]


def verify_automorphism(graph: Graph, sigma: Permutation) -> bool:
    """True iff sigma maps the edge set onto itself."""
    if sigma.n != graph.n:
        return False
    img = sigma.image
    idx = graph.edge_index
    for u, v in graph.edges:
        a, b = img[u], img[v]
        if ((a, b) if a < b else (b, a)) not in idx:
            return False
    return True


# ---------------------------------------------------------------------------
# Equitable-partition refinement search
# ---------------------------------------------------------------------------

def _refine(
    neighbors: Sequence[Sequence[int]],
    cells: list[list[int]],
    live: Iterable[int] | None = None,
) -> list[list[int]]:
    """Equitable refinement: split cells by neighbor counts into every cell.

    Take the first cell that can still split anything, split every cell by
    the neighbor counts of its vertices into that splitter, and start over
    until no cell splits any other. Sub-cells replace their parent in place,
    ordered by ascending count with vertices kept in their order, which keeps
    the cell order isomorphism-invariant. `cells` is not modified.

    A cell that split nothing stays inert until it is itself split. Cells
    only get finer, and the vertices of any finer cell still share their
    count into an unchanged cell, so an inert cell can never split anything
    later. Skipping inert cells therefore picks the same splitters in the
    same order as rescanning from cell 0 after every split would, so the
    partition, and with it the search tree and its generators, does not
    depend on which cells are marked live as long as every unmarked cell is
    inert. `live` holds the indices of the cells not known to be inert
    (default: all); a caller that changed a few cells of an equitable
    partition passes only those.

    The partition is kept as one vertex array `lab` in which each cell is a
    run of positions named by its first one. Live cells wait in a heap of
    those positions, so the first live cell is always the next splitter, and
    each splitter's neighbor counts go into one reused array.
    """
    n = len(neighbors)
    lab: list[int] = []
    end = [0] * n        # end[p]: one past the cell that starts at position p
    cell_at = [0] * n    # cell_at[v]: start of the cell holding vertex v
    starts = []
    for c in cells:
        p = len(lab)
        starts.append(p)
        lab += c
        end[p] = len(lab)
        for v in c:
            cell_at[v] = p
    queue = starts if live is None else [starts[i] for i in live]
    heapq.heapify(queue)
    queued = set(queue)
    count = [0] * n
    splits = n - len(cells)  # a discrete partition splits no further
    while queue and splits:
        s = heapq.heappop(queue)
        queued.remove(s)
        touched = []
        for u in lab[s:end[s]]:
            for w in neighbors[u]:
                if not count[w]:
                    touched.append(w)
                count[w] += 1
        for p in {cell_at[w] for w in touched}:
            q = end[p]
            if q - p == 1:
                continue
            groups: dict[int, list[int]] = {}
            for v in lab[p:q]:
                groups.setdefault(count[v], []).append(v)
            if len(groups) == 1:
                continue
            splits -= len(groups) - 1
            for key in sorted(groups):
                part = groups[key]
                e = p + len(part)
                lab[p:e] = part
                end[p] = e
                for v in part:
                    cell_at[v] = p
                if p not in queued:
                    queued.add(p)
                    heapq.heappush(queue, p)
                p = e
        for w in touched:
            count[w] = 0
    return [lab[p:end[p]] for p in sorted(set(cell_at))]


def _target_cell(cells: list[list[int]]) -> int:
    best = -1
    best_size = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (best_size is None or len(cell) < best_size):
            best, best_size = i, len(cell)
    return best


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

    def labels(self) -> list[int]:
        """Class labels 0, 1, ... numbered in order of first element."""
        first: dict[int, int] = {}
        return [first.setdefault(self.find(x), len(first))
                for x in range(len(self.parent))]


def automorphism_generators(
    graph: Graph,
    fixed: Iterable[int] = (),
    budget: int = SEARCH_BUDGET_DEFAULT,
) -> GroupGenerators:
    """Generators of the subgroup of Aut(G) pointwise-fixing `fixed`.

    Individualization-refinement backtracking: the first discrete leaf is the
    base labeling, every other leaf with a matching refinement trace yields a
    candidate permutation that is kept if it verifies. Vertices already in
    the orbit of an explored branch are skipped at the root. The root
    refines the seed partition with every cell live. A child node differs
    from its equitable parent only in the two cells that individualizing a
    vertex creates, so it refines with just those two live. Raises
    SearchBudgetExceeded when more than `budget` refinement nodes are
    expanded; supply generators externally in that case.
    """
    n = graph.n
    fixed = [int(v) for v in fixed]
    if any(v < 0 or v >= n for v in fixed):
        raise ValueError("fixed vertices out of range")
    nbrs = graph.neighbors
    rest = [v for v in range(n) if v not in set(fixed)]
    seed: list[list[int]] = [[v] for v in fixed]
    if rest:
        seed.append(rest)

    nodes = 0
    base: tuple[int, ...] | None = None  # the first leaf
    trace: list[tuple[int, ...]] = []
    gens: list[Permutation] = []
    orbits = _UnionFind(n)

    def explore(cells: list[list[int]], depth: int,
                live: tuple[int, int] | None = None) -> None:
        nonlocal nodes, base
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"automorphism search exceeded {budget} refinement nodes"
            )
        cells = _refine(nbrs, cells, live)
        shape = tuple(len(c) for c in cells)
        if base is None:
            trace.append(shape)
        else:
            if depth >= len(trace) or shape != trace[depth]:
                return
        if all(len(c) == 1 for c in cells):
            leaf = tuple(c[0] for c in cells)
            if base is None:
                base = leaf
                return
            image = [0] * n
            for k in range(n):
                image[base[k]] = leaf[k]
            sigma = Permutation(tuple(image))
            if not sigma.is_identity() and verify_automorphism(graph, sigma):
                gens.append(sigma)
                for v in range(n):
                    orbits.union(v, sigma.image[v])
            return
        t = _target_cell(cells)
        tried: list[int] = []
        for v in sorted(cells[t]):
            if depth == 0 and any(orbits.same(v, u) for u in tried):
                continue
            tried.append(v)
            child = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1:]
            explore(child, depth + 1, (t, t + 1))

    explore(seed, 0)
    # No image repeats: refinement only splits cells in place, so two leaves
    # hold different vertices at the position where their branches parted.
    return GroupGenerators(graph, tuple(gens))


def close_group(gens: GroupGenerators, cap: int = CLOSURE_CAP_DEFAULT) -> GroupClosure:
    """Breadth-first closure of the generated subgroup.

    Raises CapExceeded when the subgroup grows past `cap`; callers should
    fall back to a smaller generating set.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    n = gens.graph.n
    ident = Permutation.identity(n)
    elements = [ident]
    seen = {ident.image}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens.gens:
                h = g.compose(e)
                if h.image not in seen:
                    if len(elements) + 1 > cap:
                        raise CapExceeded(f"group closure exceeded cap {cap}")
                    seen.add(h.image)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return GroupClosure(gens.graph, tuple(elements))


def edge_permutation(graph: Graph, sigma: Permutation) -> np.ndarray:
    """Index map of the edge action: entry i is the index of sigma(e_i)."""
    idx = graph.edge_index
    out = np.empty(graph.m, dtype=np.int64)
    img = sigma.image
    for i, (u, v) in enumerate(graph.edges):
        a, b = img[u], img[v]
        out[i] = idx[(a, b) if a < b else (b, a)]
    return out


def edge_orbits(graph: Graph, gens: GroupGenerators) -> EdgeOrbitPartition:
    """Edge orbits under generator action (no full closure needed)."""
    uf = _UnionFind(graph.m)
    for g in gens.gens:
        ep = edge_permutation(graph, g)
        for i in range(graph.m):
            uf.union(i, int(ep[i]))
    orbit_of = tuple(uf.labels())
    sizes = [0] * (max(orbit_of) + 1)
    for o in orbit_of:
        sizes[o] += 1
    return EdgeOrbitPartition(graph, orbit_of, tuple(sizes))


def vertex_orbits(graph: Graph, gens: GroupGenerators) -> VertexOrbitPartition:
    uf = _UnionFind(graph.n)
    for g in gens.gens:
        for v in range(graph.n):
            uf.union(v, g.image[v])
    orbit_of = tuple(uf.labels())
    groups: list[list[int]] = [[] for _ in range(max(orbit_of) + 1)]
    for v, o in enumerate(orbit_of):
        groups[o].append(v)
    return VertexOrbitPartition(orbit_of, tuple(tuple(g) for g in groups))


# ---------------------------------------------------------------------------
# External generator files
# ---------------------------------------------------------------------------

def generators_from_json(graph: Graph, text: str) -> GroupGenerators:
    """Parse a JSON array of permutation image arrays and verify each."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("generator file must be a JSON array of image arrays")
    gens = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != graph.n:
            raise ValueError(
                f"each generator must be an image array of length {graph.n}"
            )
        sigma = Permutation(tuple(int(x) for x in entry))
        if not verify_automorphism(graph, sigma):
            raise ValueError(f"permutation {entry} is not an automorphism")
        gens.append(sigma)
    return GroupGenerators(graph, tuple(gens))
