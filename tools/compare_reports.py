"""Compare two report trees written by tools/dump_reports.py.

    python3 tools/compare_reports.py OLD NEW

For each workload directory, prints how many reports changed status (with
each old -> new pair) and how many exist on one side only. Then prints, for
each top-level report field, how many reports differ in it, per workload and
in total. Exits 1 when any status changed or any report is missing from one
side, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path


def _load(tree: Path, workload: str) -> dict[str, dict]:
    return {p.name: json.loads(p.read_bytes())
            for p in sorted((tree / workload).glob("*.json"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="report tree of the old checkout")
    ap.add_argument("new", type=Path, help="report tree of the new checkout")
    args = ap.parse_args()
    workloads = sorted({p.name for tree in (args.old, args.new)
                        for p in tree.iterdir() if p.is_dir()})
    fields: dict[str, Counter[str]] = {}
    changed = 0
    for workload in workloads:
        old, new = _load(args.old, workload), _load(args.new, workload)
        one_side = len(old.keys() ^ new.keys())
        moves: Counter[str] = Counter()
        for name in sorted(old.keys() & new.keys()):
            a, b = old[name], new[name]
            if a["status"] != b["status"]:
                moves[f"{a['status']} -> {b['status']}"] += 1
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    fields.setdefault(key, Counter())[workload] += 1
        changed += sum(moves.values()) + one_side
        print(f"{workload}: {len(old.keys() & new.keys())} reports on both sides, "
              f"{sum(moves.values())} status changes, {one_side} on one side only")
        for move, count in sorted(moves.items()):
            print(f"  {move}: {count}")
    print("reports that differ, per field:")
    for key, counts in sorted(fields.items()):
        per = ", ".join(f"{w} {counts[w]}" for w in workloads if counts[w])
        print(f"  {key}: {sum(counts.values())} ({per})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
