"""Run every connected graph on at most 7 vertices and check the verdicts.

    python3 tools/atlas7.py SRC
    python3 tools/atlas7.py SRC --write

Runs the 995 connected graphs on 2 to 7 vertices of networkx's graph atlas
(networkx.graph_atlas_g()), both targets, through run_pipeline at seed 0,
with the rigidity package found in SRC (the src directory of any checkout).
Each status is checked against tools/atlas7-pins.json with
perfbench/workloads.py::contradiction: a decided verdict that turns
undecided or flips, or an exact certificate that turns numeric, is a
contradiction; a verdict that becomes decided is not. Every decided report
is re-verified from its JSON with reverify_report.

Standard output names the package used, lists each contradiction, and then
gives each target's status counts and the number of contradictions and of
decided reports that fail re-verification. The exit status is 1 when either
number is nonzero, else 0. --write replaces the pins with the statuses of
this run instead of checking them. BLAS is pinned to one thread. A run takes
about 45 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = Path(__file__).resolve().parent / "atlas7-pins.json"
DECIDED = frozenset({"CERTIFIED_EXACT", "CERTIFIED_NUMERIC", "DISPROVED"})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the rigidity package")
    ap.add_argument("--write", action="store_true",
                    help="replace the pins with this run's statuses")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(PERFBENCH)]
    import networkx as nx
    import rigidity as R
    import workloads

    print(f"rigidity from {Path(R.__file__).parent}")
    pins = {} if args.write else json.loads(PINS.read_text())
    observed: dict[str, dict[str, str]] = {}
    counts = {t.value: Counter() for t in R.TargetKind}
    contradictions = rejected = 0
    for index, g in enumerate(nx.graph_atlas_g()):
        if g.number_of_nodes() < 2 or not nx.is_connected(g):
            continue
        gid = f"G{index}"
        graph = R.Graph(g.number_of_nodes(), tuple(g.edges()), name=gid)
        for target in R.TargetKind:
            report = R.run_pipeline(graph, target, R.PipelineConfig(), graph_id=gid)
            status = report.status.value
            observed.setdefault(gid, {})[target.value] = status
            counts[target.value][status] += 1
            why = workloads.contradiction(pins.get(gid, {}).get(target.value), status)
            if why is not None:
                print(f"CONTRADICTION {gid} {target.value}: {why}")
                contradictions += 1
            if status in DECIDED and not R.reverify_report(
                    json.loads(R.emit_report(report, "JSON"))):
                print(f"REJECTED {gid} {target.value}: {status} does not re-verify")
                rejected += 1
    if args.write:
        lines = (f"{json.dumps(gid)}: {json.dumps(by_target)}"
                 for gid, by_target in observed.items())
        PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"pins written to {PINS}")
    for target, statuses in counts.items():
        listed = ", ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
        print(f"{target}: {sum(statuses.values())} runs ({listed})")
    print(f"{contradictions} contradictions; "
          f"{rejected} decided reports fail reverify_report")
    return 1 if contradictions or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
