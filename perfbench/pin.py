"""Regenerate the benchmark's data files.

    python3 perfbench/pin.py [--atlas] [workload ...]

--atlas rewrites data/atlas.g6 from networkx.graph_atlas_g(): the connected
graphs on 2-6 vertices, in atlas order (only this step needs networkx).
Then each named workload (default: all three) runs once at seed 0 and its
verdicts go to data/pins-<workload>.json, the reference every benchmark run
is checked against. Re-pin only when a verdict change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import run


def write_atlas() -> None:
    import networkx as nx
    import rigidity as R
    import workloads as W

    lines = [R.to_graph6(R.Graph(g.number_of_nodes(), tuple(g.edges())))
             for g in nx.graph_atlas_g()
             if 2 <= g.number_of_nodes() <= 6 and nx.is_connected(g)]
    (W.DATA / "atlas.g6").write_text("\n".join(lines) + "\n")


def pin(workload: str) -> None:
    import rigidity as R
    import workloads as W

    cases = W.corpus(workload, 0)
    outcomes, wall = run.run_pass(cases, R.PipelineConfig(seed=0), W.LIMITS[workload], {},
                                  run.HostClock())
    broken = [o for o in outcomes if o.failure is not None]
    if broken:
        raise SystemExit(f"{workload}: {broken[0].key} {broken[0].failure}")
    counts = Counter(f"{c.target.value} {o.status}" for c, o in zip(cases, outcomes))
    doc = {
        "workload": workload,
        "seed": 0,
        "counts": dict(sorted(counts.items())),
        "verdicts": [{"id": c.gid, "target": c.target.value,
                      "graph6": R.to_graph6(c.graph), "status": o.status}
                     for c, o in zip(cases, outcomes)],
    }
    W.pins_path(workload).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{workload}: {len(cases)} cases in {wall:.1f} s; {doc['counts']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--atlas", action="store_true", help="rewrite data/atlas.g6 first")
    p.add_argument("workloads", nargs="*", default=["atlas", "symmetric", "random"])
    args = p.parse_args(argv)
    if not run.prepare():
        return 2
    if args.atlas:
        write_atlas()
    for workload in args.workloads:
        pin(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
