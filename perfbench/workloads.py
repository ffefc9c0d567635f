"""Workloads of the verdict benchmark: corpora, time limits and pinned verdicts.

Each workload is a list of (graph, target) cases run one at a time, each
waiting for the previous one (a closed loop with one caller).

- ``atlas``: the 142 connected graphs on 2-6 vertices, both targets. Many
  tiny inputs, where fixed per-call costs dominate (LP set-up in the
  cutting-plane loop, tens of thousands of small eigensolves). It reaches
  every status the pipeline emits.
- ``symmetric``: complete graphs, hypercubes, named symmetric graphs,
  cartesian products and circulants, both targets. The symmetry layer and
  the isotypic decomposition do most of the work; K7, Q5 and Q6 run into
  the per-case time limit.
- ``random``: connected G(n, p) graphs with n from 30 to 120 and mean
  degree 6, vertices relabelled by the seed. Their automorphism group is
  trivial, so symmetry does almost nothing, every edge is its own orbit and
  every run takes the disproof path on n x n matrices and LPs with m
  variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rigidity as R

DATA = Path(__file__).resolve().parent / "data"
TARGETS = (R.TargetKind.LOWER, R.TargetKind.UPPER)
WORKLOADS = ("atlas", "symmetric", "random")

# Per-case limit in reference seconds (see run.py). For symmetric it sits
# about 2x above the slowest decided case (C200(1,7,31) LOWER, 1.3-2.2 s)
# and 2x below the fastest case that does not finish (Q5, 8.9-9.4 s), so
# which cases decide does not flip between runs. On atlas (slowest case
# about 1.2 s) and random (about 7 s) it only stops a runaway case.
LIMITS = {"atlas": 10.0, "symmetric": 4.5, "random": 40.0}

CERTIFIED = frozenset({"CERTIFIED_EXACT", "CERTIFIED_NUMERIC"})
DECIDED = CERTIFIED | {"DISPROVED"}

RANDOM_SIZES = (30, 45, 60, 75, 90, 105, 120)
RANDOM_MEAN_DEGREE = 6.0
# The random graphs are drawn once from this seed; the run's seed relabels
# their vertices and seeds the pipeline. Graphs drawn afresh per seed need
# anywhere from a few to many cutting-plane rounds each, which spread the
# median verdict time by about 25% between seeds.
RANDOM_GRAPHS_SEED = 0

# Edge lists of the named 20-vertex and smaller graphs, as in tests/fixtures.py.
BARBELL = ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5))
PETERSEN = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7),
            (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5))
DESARGUES = ((0, 1), (0, 2), (0, 3), (1, 18), (1, 19), (2, 14), (2, 16),
             (3, 15), (3, 17), (4, 7), (4, 8), (4, 9), (5, 7), (5, 11),
             (5, 13), (6, 7), (6, 10), (6, 12), (8, 14), (8, 15), (9, 16),
             (9, 17), (10, 17), (10, 18), (11, 16), (11, 18), (12, 15),
             (12, 19), (13, 14), (13, 19))
CN6B = ((0, 1), (1, 18), (1, 19), (4, 9), (4, 8), (4, 7), (9, 16), (8, 14),
        (0, 3), (11, 18), (6, 7), (0, 2), (12, 19), (13, 19), (9, 17),
        (8, 15), (10, 18), (5, 7), (10, 17), (3, 17), (5, 11), (12, 14),
        (13, 15), (11, 16), (3, 15), (2, 16), (6, 10), (2, 14), (6, 12),
        (5, 13))
TENSEGRITY20 = ((7, 17), (7, 15), (8, 18), (4, 5), (8, 16), (3, 5), (6, 8),
                (2, 19), (6, 7), (0, 2), (6, 10), (1, 19), (9, 12), (5, 10),
                (0, 1), (1, 12), (6, 9), (10, 14), (9, 11), (13, 16), (5, 9),
                (2, 14), (1, 11), (11, 16), (10, 13), (14, 18), (13, 15),
                (2, 13), (12, 18), (11, 15), (14, 17), (3, 17), (12, 17),
                (3, 15), (4, 18), (0, 4), (4, 16), (0, 3), (8, 19), (7, 19),
                (3, 7), (4, 8), (0, 5), (6, 19), (1, 2), (9, 10), (11, 12),
                (13, 14), (15, 16), (17, 18))


@dataclass(frozen=True)
class Case:
    gid: str
    graph: R.Graph
    target: R.TargetKind

    @property
    def key(self) -> str:
        return f"{self.gid}/{self.target.value}"


def _cases(graphs) -> list[Case]:
    return [Case(gid, g, t) for gid, g in graphs for t in TARGETS]


def _complete(n: int) -> R.Graph:
    return R.circulant(n, range(1, n // 2 + 1))


def _hypercube(d: int) -> R.Graph:
    edge = R.Graph(2, ((0, 1),))
    g = edge
    for _ in range(d - 1):
        g = R.cartesian_product(g, edge)
    return g


def _product(*factors: R.Graph) -> R.Graph:
    g = factors[0]
    for f in factors[1:]:
        g = R.cartesian_product(g, f)
    return g


def atlas_graphs() -> list[tuple[str, R.Graph]]:
    """Graph k of data/atlas.g6 is the k-th connected 2-6 vertex graph of the atlas."""
    lines = (DATA / "atlas.g6").read_text().split()
    return [(f"atlas-{k:03d}", R.parse_graph6(g6)) for k, g6 in enumerate(lines)]


def symmetric_graphs() -> list[tuple[str, R.Graph]]:
    c = R.circulant
    return [
        ("K5", _complete(5)),
        ("K6", _complete(6)),
        ("K7", _complete(7)),
        ("Q3", _hypercube(3)),
        ("Q4", _hypercube(4)),
        ("Q5", _hypercube(5)),
        ("Q6", _hypercube(6)),
        ("petersen", R.Graph(10, PETERSEN)),
        ("desargues", R.Graph(20, DESARGUES)),
        ("cn6b", R.Graph(20, CN6B)),
        ("tensegrity20", R.Graph(20, TENSEGRITY20)),
        ("C3xC3xC3", _product(c(3, (1,)), c(3, (1,)), c(3, (1,)))),
        ("C7xC7", _product(c(7, (1,)), c(7, (1,)))),
        ("C10(1,2)xC5", _product(c(10, (1, 2)), c(5, (1,)))),
        ("C60(1,11,17)", c(60, (1, 11, 17))),
        ("C90(1,4,13)", c(90, (1, 4, 13))),
        ("C120(1,11,17)", c(120, (1, 11, 17))),
        ("C200(1,7,31)", c(200, (1, 7, 31))),
    ]


def gnp(n: int, p: float, rng: np.random.Generator) -> R.Graph:
    """G(n, p) drawn from rng, redrawn until connected."""
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        try:
            return R.Graph(n, tuple(zip(iu[keep].tolist(), ju[keep].tolist())))
        except R.DisconnectedGraph:
            continue


def random_graphs(seed: int) -> list[tuple[str, R.Graph]]:
    draw = np.random.default_rng(RANDOM_GRAPHS_SEED)
    relabel = np.random.default_rng(seed)
    out = []
    for n in RANDOM_SIZES:
        g = gnp(n, RANDOM_MEAN_DEGREE / (n - 1), draw)
        p = relabel.permutation(n).tolist()
        out.append((f"gnp{n:03d}", R.Graph(n, [(p[u], p[v]) for u, v in g.edges])))
    return out


def corpus(workload: str, seed: int) -> list[Case]:
    if workload == "atlas":
        return _cases(atlas_graphs())
    if workload == "symmetric":
        return _cases(symmetric_graphs())
    if workload == "random":
        return _cases(random_graphs(seed))
    raise ValueError(f"unknown workload {workload!r}")


def warmup_cases() -> list[Case]:
    """Two small cases that pass through every layer: cone route and disproof route."""
    return [Case("petersen", R.Graph(10, PETERSEN), R.TargetKind.LOWER),
            Case("barbell", R.Graph(6, BARBELL), R.TargetKind.LOWER)]


# ---------------------------------------------------------------------------
# Pinned verdicts
# ---------------------------------------------------------------------------

def pins_path(workload: str) -> Path:
    return DATA / f"pins-{workload}.json"


def load_pins(workload: str) -> dict[str, str]:
    """Case key -> status pinned at seed 0 (graph6 there is seed 0's labelling)."""
    doc = json.loads(pins_path(workload).read_text())
    return {f"{v['id']}/{v['target']}": v["status"] for v in doc["verdicts"]}


def contradiction(pinned: str | None, observed: str) -> str | None:
    """Why observed contradicts the pinned verdict, or None when it does not.

    A certified verdict turning disproved (or the reverse), a decided one
    turning undecided, and an exact certificate turning numeric are
    contradictions. A case that becomes decided, or numeric that becomes
    exact, is a change to report, not a failure.
    """
    if pinned not in DECIDED or observed == pinned:
        return None
    if observed not in DECIDED:
        return f"pinned {pinned}, now undecided ({observed})"
    if (pinned in CERTIFIED) != (observed in CERTIFIED):
        return f"pinned {pinned}, now {observed}"
    if pinned == "CERTIFIED_EXACT":
        return "pinned CERTIFIED_EXACT, now only CERTIFIED_NUMERIC"
    return None
