"""Tests of the benchmark's own machinery: tracing, time limits, verdict checks.

    python3 -m pytest perfbench
"""

import importlib
import json
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import rigidity as R  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402

SMALL = [W.Case("barbell", R.Graph(6, W.BARBELL), R.TargetKind.LOWER),
         W.Case("petersen", R.Graph(10, W.PETERSEN), R.TargetKind.UPPER),
         W.Case("c5", R.circulant(5, (1,)), R.TargetKind.LOWER)]


@pytest.fixture
def tracer():
    t = S.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_self_time_subtracts_direct_children():
    spans = [("a", -1, 0.0, 10.0, "r"), ("b", 0, 1.0, 4.0, "r"),
             ("c", 1, 2.0, 3.0, "r"), ("d", 0, 5.0, 6.0, "r"), None]
    assert S.self_times(spans) == [6.0, 2.0, 1.0, 1.0, None]
    assert S.self_time_by_run(spans) == {"r": 10.0}


def test_group_time_counts_nested_members_once():
    spans = [("certify.build_cone", -1, 0.0, 4.0, "r"),
             ("certify.solve_cone_membership", 0, 1.0, 2.0, "r"),
             ("certify.assemble_certificate", -1, 5.0, 6.0, "r")]
    m = S.layer_metrics(spans, {})
    assert m["certify.cone.s"] == 5.0
    assert m["certify.cone.calls"] == 3
    assert m["certify.cone.self_s"] == 5.0
    assert m["certify.build_cone.s"] == 4.0


def test_every_binding_is_patched_and_restored():
    bindings = [("rigidity", "run_pipeline"), ("rigidity.pipeline", "close_group"),
                ("rigidity.certify", "eig_sym"), ("rigidity.certify", "linprog"),
                ("rigidity.certify", "orbit_laplacian"), ("rigidity.spectra", "laplacian")]
    before = {b: getattr(importlib.import_module(b[0]), b[1]) for b in bindings}
    t = S.Tracer()
    t.install()
    try:
        for (mod, name), fn in before.items():
            assert getattr(importlib.import_module(mod), name) is not fn, (mod, name)
    finally:
        t.uninstall()
    for (mod, name), fn in before.items():
        assert getattr(importlib.import_module(mod), name) is fn


def test_absent_function_reads_zero_calls(monkeypatch):
    monkeypatch.setattr(S, "TRACED", S.TRACED + (("symmetry", "gone"), ("nomodule", "f")))
    t = S.Tracer()
    try:
        assert t.install() == ["symmetry.gone", "nomodule.f"]
    finally:
        t.uninstall()
    m = S.layer_metrics(t.spans, t.counters)
    assert m["symmetry.gone.calls"] == 0 and m["symmetry.gone.s"] == 0.0


def test_traced_self_times_add_up_to_run_wall_time(tracer):
    outcomes, _ = run.run_pass(SMALL, R.PipelineConfig(), 30.0, {}, run.HostClock(), tracer)
    own = S.self_time_by_run(tracer.spans)
    for o in outcomes:
        assert o.failure is None
        assert -1e-9 <= o.wall - own[o.key] <= run.TRACE_SLACK_S, o.key
    m = S.layer_metrics(tracer.spans, tracer.counters)
    assert m["pipeline.run_pipeline.calls"] == len(SMALL)
    assert m["certify.find_disproof.calls"] >= 1
    assert m["certify.linprog.calls"] >= 1
    assert m["symmetry.generators"] >= 1


def test_timeout_leaves_the_benchmark_usable(tracer):
    slow = W.Case("K7", R.circulant(7, (1, 2, 3)), R.TargetKind.LOWER)
    clock = run.HostClock()
    timed_out = run.run_case(slow, R.PipelineConfig(), 0.2, {}, clock, tracer)
    assert timed_out.status == "TIMEOUT" and timed_out.latency == 0.2
    assert timed_out.failure is None
    after = run.run_case(SMALL[0], R.PipelineConfig(), 30.0, {}, clock, tracer)
    assert after.status == "DISPROVED" and after.failure is None
    own = S.self_time_by_run(tracer.spans)
    assert -1e-9 <= after.wall - own[after.key] <= run.TRACE_SLACK_S


def test_contradictions():
    c = W.contradiction
    assert c("CERTIFIED_EXACT", "DISPROVED")
    assert c("DISPROVED", "CERTIFIED_NUMERIC")
    assert c("DISPROVED", "TIMEOUT")
    assert c("CERTIFIED_NUMERIC", "INCONCLUSIVE_SOLVER")
    assert c("CERTIFIED_EXACT", "CERTIFIED_NUMERIC")
    assert c("CERTIFIED_NUMERIC", "CERTIFIED_EXACT") is None
    assert c("TIMEOUT", "DISPROVED") is None
    assert c("INCONCLUSIVE_NO_RANK1", "CERTIFIED_EXACT") is None
    assert c(None, "ERROR") is None


def test_pins_cover_every_corpus():
    for workload in W.WORKLOADS:
        pins = W.load_pins(workload)
        cases = W.corpus(workload, 0)
        assert sorted(pins) == sorted(c.key for c in cases)
        doc = json.loads(W.pins_path(workload).read_text())
        assert [v["graph6"] for v in doc["verdicts"]] == [R.to_graph6(c.graph) for c in cases]
    counts = json.loads(W.pins_path("atlas").read_text())["counts"]
    assert counts == {
        "LOWER CERTIFIED_EXACT": 15, "LOWER CERTIFIED_NUMERIC": 1, "LOWER DISPROVED": 126,
        "UPPER CERTIFIED_EXACT": 23, "UPPER CERTIFIED_NUMERIC": 1, "UPPER DISPROVED": 117,
        "UPPER INCONCLUSIVE_NO_RANK1": 1,
    }


def test_random_corpus_relabels_by_the_seed():
    a, b, c = W.random_graphs(3), W.random_graphs(3), W.random_graphs(4)
    assert [g.edges for _, g in a] == [g.edges for _, g in b]
    assert [g.n for _, g in a] == list(W.RANDOM_SIZES)
    assert [g.edges for _, g in c] != [g.edges for _, g in a]
    assert [sorted(g.degrees) for _, g in c] == [sorted(g.degrees) for _, g in a]


def test_tail_leaves_ten_runs_of_a_pass_beyond_it():
    for size in (14, 36, 284):
        for passes in (1, 2, 3):
            n = size * passes
            assert n - 1 - run.tail_index(n, size) == run.TAIL_BEYOND * passes


def test_benchmark_metrics_are_all_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    outcomes = [run.Outcome("x", "DISPROVED", 1.0, 1.0, 1.0, None, None)] * 14
    e2e = run.end_to_end(outcomes, 14, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers = S.layer_metrics([], S.Tracer().counters)
    for m in spec["per_layer"]:
        assert m["name"] in layers or m["name"] == "trace_overhead_s"
