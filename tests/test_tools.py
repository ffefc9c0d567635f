"""tools/compare_reports.py on small report trees written here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _report(status="DISPROVED", lam=0.5):
    return {"status": status, "lambda": lam, "route": ["spectrum", status]}


def _write(tree: Path, reports: dict[str, dict]) -> Path:
    (tree / "atlas").mkdir(parents=True)
    for name, payload in reports.items():
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        (tree / "atlas" / name).write_text(text)
    return tree


def _compare(tmp_path, old: dict[str, dict], new: dict[str, dict]):
    proc = subprocess.run(
        [sys.executable, str(COMPARE), str(_write(tmp_path / "old", old)),
         str(_write(tmp_path / "new", new))],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


BOTH = {"a.lower.json": _report(), "b.upper.json": _report("CERTIFIED_EXACT", 4.0)}


class TestCompareReports:
    def test_identical_trees(self, tmp_path):
        rc, out = _compare(tmp_path, BOTH, BOTH)
        assert rc == 0
        assert out == ["atlas: 2 reports on both sides, 2 byte-identical, "
                       "0 status changes, 0 on one side only",
                       "reports that differ, per field:"]

    def test_changed_status(self, tmp_path):
        new = {**BOTH, "a.lower.json": _report("INCONCLUSIVE_NO_RANK1")}
        rc, out = _compare(tmp_path, BOTH, new)
        assert rc == 1
        assert out[0].startswith("atlas: 2 reports on both sides, 1 byte-identical, "
                                 "1 status changes")
        assert out[1] == "  DISPROVED -> INCONCLUSIVE_NO_RANK1: 1"
        assert ("  status: 1 (atlas 1); largest float move 0.00e+00, "
                "non-float differences in 1") in out

    def test_float_move_is_measured_not_failed(self, tmp_path):
        moved = 0.5 + 1e-15
        new = {**BOTH, "a.lower.json": _report(lam=moved)}
        rc, out = _compare(tmp_path, BOTH, new)
        assert rc == 0
        assert abs(moved - 0.5) == pytest.approx(1e-15, rel=0.2)
        assert out[-1] == (f"  lambda: 1 (atlas 1); largest float move "
                           f"{abs(moved - 0.5):.2e}, non-float differences in 0")

    def test_report_on_one_side_only(self, tmp_path):
        new = {"a.lower.json": BOTH["a.lower.json"]}
        rc, out = _compare(tmp_path, BOTH, new)
        assert rc == 1
        assert out[0] == ("atlas: 1 reports on both sides, 1 byte-identical, "
                          "0 status changes, 1 on one side only")
