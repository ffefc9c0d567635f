"""Compare two report trees written by tools/dump_reports.py.

    python3 tools/compare_reports.py OLD NEW

For each workload directory, prints how many reports are byte-identical on
both sides, how many changed status (with each old -> new pair) and how many
exist on one side only. Then prints, for
each top-level report field, how many reports differ in it, per workload and
in total, the largest absolute difference between two float leaves of the
field, and how many reports differ in a non-float leaf: a string, an int, a
key, a list length or a change of type. Exits 1 when any status changed or
any report is missing from one side, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path


def _load(tree: Path, workload: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((tree / workload).glob("*.json"))}


def _walk(a, b, gaps: list[float]) -> bool:
    """Append |a - b| for each pair of float leaves; True if any other leaf differs."""
    if type(a) is float and type(b) is float:
        gaps.append(abs(a - b))
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        other = [_walk(a[k], b[k], gaps) for k in a.keys() & b.keys()]
        return a.keys() != b.keys() or any(other)
    if isinstance(a, list) and isinstance(b, list):
        other = [_walk(x, y, gaps) for x, y in zip(a, b)]
        return len(a) != len(b) or any(other)
    return type(a) is not type(b) or a != b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="report tree of the old checkout")
    ap.add_argument("new", type=Path, help="report tree of the new checkout")
    args = ap.parse_args()
    workloads = sorted({p.name for tree in (args.old, args.new)
                        for p in tree.iterdir() if p.is_dir()})
    fields: dict[str, Counter[str]] = {}
    largest: Counter[str] = Counter()  # largest float move per field
    non_float: Counter[str] = Counter()  # reports with a non-float difference
    changed = 0
    for workload in workloads:
        old, new = _load(args.old, workload), _load(args.new, workload)
        one_side = len(old.keys() ^ new.keys())
        both = sorted(old.keys() & new.keys())
        identical = sum(old[name] == new[name] for name in both)
        moves: Counter[str] = Counter()
        for name in both:
            if old[name] == new[name]:
                continue
            a, b = json.loads(old[name]), json.loads(new[name])
            if a["status"] != b["status"]:
                moves[f"{a['status']} -> {b['status']}"] += 1
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    fields.setdefault(key, Counter())[workload] += 1
                    gaps: list[float] = []
                    non_float[key] += _walk(a.get(key), b.get(key), gaps)
                    largest[key] = max(largest[key], *gaps, 0.0)
        changed += sum(moves.values()) + one_side
        print(f"{workload}: {len(both)} reports on both sides, {identical} "
              f"byte-identical, {sum(moves.values())} status changes, "
              f"{one_side} on one side only")
        for move, count in sorted(moves.items()):
            print(f"  {move}: {count}")
    print("reports that differ, per field:")
    for key, counts in sorted(fields.items()):
        per = ", ".join(f"{w} {counts[w]}" for w in workloads if counts[w])
        print(f"  {key}: {sum(counts.values())} ({per}); largest float move "
              f"{largest[key]:.2e}, non-float differences in {non_float[key]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
