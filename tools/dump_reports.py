"""Write one JSON report per benchmark case, for byte-identity checks.

    python3 tools/dump_reports.py SRC OUT

Runs every atlas, symmetric and random case of perfbench/workloads.py at
seed 0 through run_pipeline, with the rigidity package found in SRC (the
src directory of any checkout), and writes emit_report's JSON to
OUT/<workload>/<graph id>.<target>.json. No case is skipped. Q6 takes
longest: close_group walks every element of its group (order 46,080), which
takes about 16 s per target on a 2-core VM. Two checkouts are compared with

    python3 tools/dump_reports.py old/src /tmp/old
    python3 tools/dump_reports.py new/src /tmp/new
    diff -r /tmp/old /tmp/new

Standard output names the package used, then gives each workload's status
counts and the number of its reports, undecided ones included, that
reverify_report rejects. The exit status is 1 when that number is nonzero
for any workload, else 0. BLAS is pinned to one thread, so a report's bytes
do not depend on the machine's core count.
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the rigidity package")
    ap.add_argument("out", help="directory the reports are written to")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(PERFBENCH)]
    import rigidity as R
    import workloads

    print(f"rigidity from {Path(R.__file__).parent}")
    failed = 0
    for workload in workloads.WORKLOADS:
        out = Path(args.out) / workload
        out.mkdir(parents=True, exist_ok=True)
        statuses: Counter[str] = Counter()
        rejected = 0
        for case in workloads.corpus(workload, 0):
            report = R.run_pipeline(case.graph, case.target, R.PipelineConfig(),
                                    graph_id=case.gid)
            blob = R.emit_report(report, "JSON")
            (out / f"{case.gid}.{case.target.value}.json").write_bytes(blob)
            statuses[report.status.value] += 1
            if not R.reverify_report(json.loads(blob)):
                rejected += 1
        counts = ", ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
        print(f"{workload}: {sum(statuses.values())} reports ({counts}); "
              f"{rejected} reports fail reverify_report")
        failed += rejected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
