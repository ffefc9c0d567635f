"""Verdict benchmark for rigidity: seeded (graph, target) runs through run_pipeline.

    python3 perfbench/run.py --workload atlas|symmetric|random --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ./src and
reads metric names and units from ./BENCHMARK.json. The workloads are
described in workloads.py.

A case is one (graph, target): run_pipeline, the report serialized with
emit_report as JSON, parsed back and checked with reverify_report. Cases run
one at a time in this process, each under a per-case time limit, with BLAS
pinned to one thread. A case fails when it raises, when a decided report
does not re-verify, or when it contradicts the verdict pinned for its graph
in data/pins-<workload>.json. A case that hits the limit is undecided.

Times are reported in reference seconds. On a shared VM the speed of the
host swings by 20-45% over tens of seconds, and CPU time swings with wall
time, so the swing is contention that no statistic over one run can remove.
A fixed calibration kernel (see HostClock, about 9 ms) therefore runs
between cases, and each case's wall time is divided by the host's slowness
against REF_KERNEL_S, averaged over the kernel runs just before and just
after the case. Time limits are multiplied by it; the set-up time is divided
by the slowness measured at its end. The raw wall times are printed
alongside.

With --trace 0 the benchmark repeats whole passes over the cases while one
more pass of the last pass's length fits in --seconds (the first pass always
runs), then prints the end-to-end metrics. With --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics. Every case's
outcome, and with --trace 1 every span, is written to perfbench/out/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median of this process's set-up and this many more, each in
# a fresh interpreter started one after another.
SETUP_PROBES = 2
# The tail percentile is the highest one with this many runs of a pass beyond it.
TAIL_BEYOND = 10
# Time per case, besides its share of the tracing overhead, that may lie
# outside every traced span: the benchmark's own loop and timer calls.
TRACE_SLACK_S = 1e-3
# Reference time of each calibration kernel part: its median on the 2-core
# Xeon VM the benchmark was set up on, so reference seconds are close to
# wall seconds there.
REF_KERNEL_S = {"loop": 0.37e-3, "perm": 0.41e-3, "eigh": 0.65e-3, "lp": 2.2e-3,
                "matmul": 0.17e-3}


class CaseTimeout(BaseException):
    """A case ran past its time limit (raised from SIGALRM)."""


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class HostClock:
    """Converts wall seconds into reference seconds with a calibration kernel.

    The kernel has one part for each kind of work the pipeline does: an
    interpreter loop, permutation composition into a set (as in group
    closure), small LAPACK eigensolves, a small HiGHS LP and a BLAS matrix
    product. Each part is timed best of two; the host's slowness is the mean
    over the parts of its time over its reference time in REF_KERNEL_S.
    """

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        sym = a + a.T
        square = rng.standard_normal((160, 160))
        perms = [tuple(int(x) for x in rng.permutation(48)) for _ in range(4)]
        lp = dict(c=np.ones(8), A_ub=rng.standard_normal((12, 8)), b_ub=np.ones(12),
                  bounds=[(-1.0, 1.0)] * 8, method="highs")

        def loop():
            acc = 0
            for i in range(5000):
                acc += i * i % 7

        def perm():
            seen, frontier = set(), [tuple(range(48))]
            for _ in range(3):
                grown = []
                for e in frontier:
                    for g in perms:
                        h = tuple(g[i] for i in e)
                        if h not in seen:
                            seen.add(h)
                            grown.append(h)
                frontier = grown

        def eigh():
            for _ in range(4):
                np.linalg.eigh(sym)

        self._parts = {"loop": loop, "perm": perm, "eigh": eigh,
                       "lp": lambda: linprog(**lp), "matmul": lambda: square @ square}
        self.slowness = self._slowness()

    def _slowness(self) -> float:
        ratios = []
        for name, part in self._parts.items():
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            ratios.append(best / REF_KERNEL_S[name])
        return sum(ratios) / len(ratios)

    def wall_limit(self, ref_seconds: float) -> float:
        return ref_seconds * self.slowness

    def close_case(self) -> float:
        """Reference seconds per wall second over the case that just ran."""
        after = self._slowness()
        factor = 2.0 / (self.slowness + after)
        self.slowness = after
        return factor


@dataclass
class Outcome:
    key: str
    status: str
    wall: float
    factor: float  # reference seconds per wall second during the case
    latency: float  # wall x factor, or the limit for a case that hit it
    failure: str | None
    pinned: str | None


def run_case(case, cfg, limit: float, pins: dict, clock: HostClock,
             tracer=None) -> Outcome:
    import rigidity as R
    import workloads as W

    if tracer is not None:
        tracer.begin_run(case.key)
    failure = None
    timed_out = False
    t0 = time.perf_counter()
    try:
        with deadline(clock.wall_limit(limit)):
            report = R.run_pipeline(case.graph, case.target, cfg, graph_id=case.gid)
            blob = R.emit_report(report, "json")
            if tracer is None:
                payload = json.loads(blob)
            else:
                with tracer.span("bench.decode"):
                    payload = json.loads(blob)
            reverified = R.reverify_report(payload)
        wall = time.perf_counter() - t0
        status = report.status.value
        if status in W.DECIDED and not reverified:
            failure = "emitted report does not re-verify"
    except CaseTimeout:
        wall, status, timed_out = time.perf_counter() - t0, "TIMEOUT", True
    except Exception as exc:  # a raising case fails; the pass goes on
        wall = time.perf_counter() - t0
        status, failure = "ERROR", f"raised {exc!r}"
    factor = clock.close_case()
    pinned = pins.get(case.key)
    failure = failure or W.contradiction(pinned, status)
    return Outcome(case.key, status, wall, factor, limit if timed_out else wall * factor,
                   failure, pinned)


def run_pass(cases, cfg, limit: float, pins: dict, clock: HostClock, tracer=None):
    """Run every case once; returns the outcomes and the pass's wall time."""
    t0 = time.perf_counter()
    outcomes = [run_case(c, cfg, limit, pins, clock, tracer) for c in cases]
    return outcomes, time.perf_counter() - t0


def setup(workload: str, seed: int):
    """Import rigidity, build the cases, load the pins and run the warm-up cases.

    Returns the set-up time in reference seconds with the rest."""
    t0 = time.perf_counter()
    import rigidity as R
    import workloads as W

    cases = W.corpus(workload, seed)
    pins = W.load_pins(workload)
    cfg = R.PipelineConfig(seed=seed)
    clock = HostClock()
    for case in W.warmup_cases():
        run_case(case, cfg, W.LIMITS[workload], {}, clock)
    return cases, pins, cfg, clock, (time.perf_counter() - t0) / clock.slowness


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running this script with --setup-probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "seed": seed,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def tail_index(n: int, pass_size: int) -> int:
    """Index into n sorted latencies of the highest percentile with
    TAIL_BEYOND runs of one pass beyond it (nearest rank)."""
    return max(0, -(-(pass_size - TAIL_BEYOND) * n // pass_size) - 1)


def end_to_end(outcomes, pass_size: int, setup_s: float) -> dict:
    import workloads as W

    lat = sorted(o.latency for o in outcomes)
    return {
        "verdicts_per_s": len(lat) / sum(lat),
        "verdict_p50_s": statistics.median(lat),
        "verdict_tail_s": lat[tail_index(len(lat), pass_size)],
        "decided_frac": sum(o.status in W.DECIDED for o in outcomes) / len(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def describe(outcomes, pass_size: int) -> None:
    """Print statuses, the shares the metrics leave out, failures and changes."""
    n = len(outcomes)
    counts = Counter(o.status for o in outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    print(f"runs {n}; statuses {dict(sorted(counts.items()))}")
    print(f"exact_frac {counts['CERTIFIED_EXACT'] / n:.4f}  failed_frac {failed / n:.4f}  "
          f"tail percentile p{100 * (pass_size - TAIL_BEYOND) / pass_size:.1f} of {n} runs")
    seen = set()
    for o in outcomes:
        if o.key in seen:
            continue
        seen.add(o.key)
        if o.failure is not None:
            print(f"FAILED {o.key}: {o.status}: {o.failure}")
        elif o.pinned is not None and o.pinned != o.status:
            print(f"CHANGED {o.key}: pinned {o.pinned}, now {o.status}")


def trace_pass(cases, cfg, limit, pins, clock, workload, seed):
    """One untraced and one traced pass; returns outcomes, per-layer values, check result."""
    import spans as S

    untraced, wall_u = run_pass(cases, cfg, limit, pins, clock)
    tracer = S.Tracer()
    missing = tracer.install()
    try:
        traced, wall_t = run_pass(cases, cfg, limit, pins, clock, tracer)
    finally:
        tracer.uninstall()
    ref_u = sum(o.latency for o in untraced)
    ref_t = sum(o.latency for o in traced)
    scale = {o.key: o.factor for o in traced}
    layers = S.layer_metrics(tracer.spans, tracer.counters, scale)
    layers["trace_overhead_s"] = overhead = ref_t - ref_u

    # Self-check in wall seconds: a run's span self times add up to its wall time.
    own = S.self_time_by_run(tracer.spans)
    slack = TRACE_SLACK_S + max(overhead, 0.0) / len(traced)
    gaps = [(o.key, o.wall - own.get(o.key, 0.0)) for o in traced]
    bad = [(key, gap) for key, gap in gaps if not -1e-9 <= gap <= slack]
    total_self = sum(own[key] * f for key, f in scale.items() if key in own)

    for name in missing:
        print(f"not traced (absent): {name}")
    print(f"untraced pass {ref_u:.3f} ref s ({wall_u:.3f} wall s); traced pass "
          f"{ref_t:.3f} ref s ({wall_t:.3f} wall s); trace_overhead_s {overhead:.3f}")
    print(f"span self time {total_self:.3f} ref s = untraced pass {total_self - ref_u:+.3f} s; "
          f"largest per-run gap {max(g for _, g in gaps) * 1e3:.3f} ms "
          f"(limit {slack * 1e3:.3f} ms)")
    selfs = {k[:-len(".self_s")]: v for k, v in layers.items()
             if k.endswith(".self_s") and v > 0 and k[:-len(".self_s")] not in S.GROUPS}
    for name, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:34s} {v:9.3f} s  {100 * v / total_self:5.1f}%")
    for key, gap in bad:
        print(f"TRACE CHECK FAILED {key}: {gap * 1e3:.3f} ms outside spans")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    return untraced + traced, layers, not bad


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("atlas", "symmetric", "random"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare() -> bool:
    """Pin BLAS to one thread before numpy loads and put ./src first on the path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rigidity" / "__init__.py").is_file():
        print(f"error: no rigidity package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    cases, pins, cfg, clock, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(own_setup)
        return 0
    import workloads as W

    unpinned = [c.key for c in cases if c.key not in pins]
    if unpinned:
        print(f"error: {len(unpinned)} cases have no pinned verdict, e.g. {unpinned[0]}",
              file=sys.stderr)
        return 2
    limit = W.LIMITS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(cases)} cases per pass, "
          f"limit {limit} ref s per case")

    if args.trace:
        outcomes, values, trace_ok = trace_pass(cases, cfg, limit, pins, clock,
                                                args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        setup_s = statistics.median(
            [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        outcomes, walls = [], []
        while not walls or sum(walls) + walls[-1] <= args.seconds:
            out, wall = run_pass(cases, cfg, limit, pins, clock)
            outcomes += out
            walls.append(wall)
        print(f"{len(walls)} passes: {sum(o.latency for o in outcomes):.3f} ref s, "
              f"{sum(o.wall for o in outcomes):.3f} wall s in cases, "
              f"{sum(walls):.3f} wall s in all")
        values = end_to_end(outcomes, len(cases), setup_s)
        wanted, trace_ok = spec["end_to_end"], True
    describe(outcomes, len(cases))
    OUT.mkdir(exist_ok=True)
    (OUT / f"cases-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps([vars(o) for o in outcomes], indent=0) + "\n")

    failed = sum(o.failure is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
