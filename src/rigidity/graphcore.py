"""Graph representation, ingestion, edge energies and edge-orbit partitions.

A Graph is an immutable, simple, connected, undirected graph with a canonical
edge ordering: edges are stored as (u, v) pairs with u < v, sorted
lexicographically. Every per-edge vector in this package (weights, energies)
is indexed by that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class MalformedGraph6(ValueError):
    """Input is not a valid graph6 byte string."""


class DisconnectedGraph(ValueError):
    """The graph (or requested construction) is not connected."""


class DimensionMismatch(ValueError):
    """A per-edge or per-vertex vector has the wrong length."""


def _normalize_edges(n: int, edges: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    out = []
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        out.append((u, v))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with stable edge indexing.

    edges are (u, v) with u < v, sorted lexicographically; the i-th pair is
    edge i everywhere in the package.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least 2 vertices")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))
        # Fewer than n - 1 edges cannot connect n vertices; say so before
        # building the O(n) adjacency that the search would need.
        if self.m < self.n - 1 or not self._is_connected():
            raise DisconnectedGraph(f"graph on {self.n} vertices is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (us, vs): edge i joins us[i] < vs[i]."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T.copy()
        ends.setflags(write=False)
        return ends[0], ends[1]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.neighbors)

    def _is_connected(self) -> bool:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            x = stack.pop()
            for y in self.neighbors[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        return count == self.n

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


# ---------------------------------------------------------------------------
# graph6 (McKay encoding): N(n) header, then the upper triangle x_{ij} (i<j)
# in column order j=1..n-1, i=0..j-1, packed big-endian 6 bits per byte,
# each byte offset by 63. Bit k = j(j-1)/2 + i holds x_{ij}.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_PLUS63 = bytes((b + 63) & 255 for b in range(256))


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not data:
        raise MalformedGraph6("empty graph6 string")
    c0 = ord(data[0])
    if c0 == 126:  # '~'
        if len(data) >= 2 and ord(data[1]) == 126:
            if len(data) < 8:
                raise MalformedGraph6("truncated 8-byte vertex count")
            vals = [ord(c) - 63 for c in data[2:8]]
            if any(v < 0 or v > 63 for v in vals):
                raise MalformedGraph6("bad character in vertex count")
            n = 0
            for v in vals:
                n = (n << 6) | v
            return n, 8
        if len(data) < 4:
            raise MalformedGraph6("truncated 4-byte vertex count")
        vals = [ord(c) - 63 for c in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise MalformedGraph6("bad character in vertex count")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        return n, 4
    n = c0 - 63
    if n < 0 or n > 62:
        raise MalformedGraph6(f"bad vertex-count byte {data[0]!r}")
    return n, 1


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))


def parse_graph6(text: str, name: str = "") -> Graph:
    """Decode a graph6 string into a Graph called `name`.

    Raises MalformedGraph6 on encoding errors and DisconnectedGraph when the
    decoded graph is not connected.
    """
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, used = _g6_decode_n(data)
    if n < 1:
        raise MalformedGraph6("graph6 vertex count must be positive")
    body = data[used:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(body)}"
        )
    if body and (min(body) < "?" or max(body) > "~"):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise MalformedGraph6(f"bad adjacency byte {bad!r}")
    if nbits % 6 and (ord(body[-1]) - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    edges = []
    for i, val in enumerate(body.encode("ascii")):
        val -= 63
        while val:
            top = val.bit_length() - 1
            val ^= 1 << top
            k = 6 * i + 5 - top
            j = (1 + math.isqrt(8 * k + 1)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges, name=name)


def to_graph6(graph: Graph) -> str:
    """Encode a Graph as a canonical graph6 string."""
    n = graph.n
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in graph.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> (k % 6)
    return _g6_encode_n(n) + body.translate(_G6_PLUS63).decode("ascii")


def parse_edge_list(text: str, name: str = "") -> Graph:
    """Parse the alternate ingestion format: one 0-indexed "u v" pair per line.

    Blank lines and lines starting with '#' are skipped; the vertex count is
    one past the largest index seen. The graph is called `name`.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index")
        top = max(top, u, v)
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    return Graph(top + 1, edges, name=name)


def format_edge_list(graph: Graph, weights: np.ndarray | None = None) -> str:
    """Render the graph (optionally with its m per-edge weights) as edge-list text."""
    lines = []
    for i, (u, v) in enumerate(graph.edges):
        if weights is None:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {float(weights[i])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def circulant(n: int, shifts: Iterable[int]) -> Graph:
    """Circulant graph: vertex i adjacent to i +/- s mod n for each shift s."""
    if n < 3:
        raise ValueError("circulant needs n >= 3")
    S = sorted(set(int(s) for s in shifts))
    if not S:
        raise ValueError("shift set must be nonempty")
    if any(s < 1 or s > n // 2 for s in S):
        raise ValueError(f"shifts must lie in 1..{n // 2}")
    g = n
    for s in S:
        g = np.gcd(g, s)
    if g != 1:
        raise DisconnectedGraph(f"gcd of shifts and n is {g}; graph splits")
    edges = set()
    for i in range(n):
        for s in S:
            j = (i + s) % n
            edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges), name=f"circulant({n},{{{','.join(map(str, S))}}})")


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (a',b') iff a=a', b~b' or b=b', a~a'.

    Vertex (a, b) maps to index a * g2.n + b.
    """
    n2 = g2.n
    edges = []
    for a in range(g1.n):
        for (b, bp) in g2.edges:
            edges.append((a * n2 + b, a * n2 + bp))
    for (a, ap) in g1.edges:
        for b in range(n2):
            edges.append((a * n2 + b, ap * n2 + b))
    return Graph(g1.n * n2, edges)


# ---------------------------------------------------------------------------
# Laplacians and energies
# ---------------------------------------------------------------------------

def _weight_values(graph: Graph, w) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (graph.m,):
        raise DimensionMismatch(
            f"weight vector has length {arr.shape}, graph has {graph.m} edges"
        )
    return arr


def laplacian(graph: Graph, w) -> np.ndarray:
    """Weighted Laplacian L(w) = D(w) - A(w).

    Bit for bit the matrix that adding the edges one by one gives: an
    off-diagonal entry is 0.0 - w (so +0.0 for a zero weight, never -0.0),
    and each degree sums its weights in edge order. In sorted edge order a
    vertex is the larger end of all its edges before it is the smaller end
    of any, so bincount over (v-ends, u-ends) adds them in that order.
    """
    arr = _weight_values(graph, w)
    us, vs = graph.endpoints
    n = graph.n
    L = np.zeros((n, n))
    L[us, vs] = L[vs, us] = 0.0 - arr
    L.reshape(-1)[:: n + 1] = np.bincount(
        np.concatenate((vs, us)), np.concatenate((arr, arr)), minlength=n
    )
    return L


def edge_energy(graph: Graph, phi) -> np.ndarray:
    """Edge-energy vector: value (phi(u) - phi(v))^2 at each edge (u, v)."""
    vec = np.asarray(phi, dtype=np.float64)
    if vec.shape != (graph.n,):
        raise DimensionMismatch(
            f"vertex function has shape {vec.shape}, graph has {graph.n} vertices"
        )
    us, vs = graph.endpoints
    return (vec[us] - vec[vs]) ** 2


@dataclass(frozen=True)
class EdgeOrbitPartition:
    """Edge orbit labels of a graph; their counts are the orbit-size vector O.

    Orbit ids are assigned in order of the smallest edge index each orbit
    contains, so reports are stable across runs.
    """

    graph: Graph
    orbit_of: tuple[int, ...]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Edges per orbit: the bincount of orbit_of."""
        return tuple(np.bincount(self.labels).tolist())

    @property
    def s(self) -> int:
        return len(self.sizes)

    @property
    def size_vector(self) -> np.ndarray:
        return np.asarray(self.sizes, dtype=np.float64)

    @cached_property
    def labels(self) -> np.ndarray:
        """Read-only orbit_of as an index array."""
        arr = np.asarray(self.orbit_of, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _members(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices of every orbit, grouped in one pass over orbit_of."""
        groups: list[list[int]] = [[] for _ in self.sizes]
        for i, o in enumerate(self.orbit_of):
            groups[o].append(i)
        return tuple(map(tuple, groups))

    def members(self, orbit_id: int) -> tuple[int, ...]:
        return self._members[orbit_id]


def orbit_energy(part: EdgeOrbitPartition, phi) -> np.ndarray:
    """Per-orbit sums of (phi(u) - phi(v))^2."""
    return np.bincount(part.labels, edge_energy(part.graph, phi), minlength=part.s)
