"""In-memory span tracing of calls into the rigidity layers.

The tracer wraps each traced function at every module-level binding inside
the ``rigidity`` package: ``from .x import f`` copies the name, so patching
only the defining module would miss most calls. A function that no longer
exists is skipped and reads as zero calls, so the benchmark keeps running
across refactors that remove or rename it.

Every call records a span (name, parent span, start, end, run id). Spans
stay in memory until the pass ends; ``layer_metrics`` then folds them into
per-layer calls, inclusive time and self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs traced inside rigidity. linprog is scipy's, traced
# where rigidity.certify binds it.
TRACED = (
    ("symmetry", "automorphism_generators"),
    ("symmetry", "close_group"),
    ("symmetry", "edge_orbits"),
    ("isotypics", "isotypic_decompose"),
    ("certify", "find_disproof"),
    ("certify", "linprog"),
    ("certify", "build_cone"),
    ("certify", "subcone_model"),
    ("certify", "solve_cone_membership"),
    ("certify", "assemble_certificate"),
    ("certify", "verify_certificate"),
    ("certify", "verify_disproof"),
    ("graphcore", "laplacian"),
    ("spectra", "eig_sym"),
    ("sdpfeas", "orbit_laplacian"),
    ("sdpfeas", "compress_operators"),
    ("sdpfeas", "solve_feasibility"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "emit_report"),
    ("pipeline", "reverify_report"),
)

# Spans summed under one name; a span inside another of its group counts once.
GROUPS = {
    "certify.cone": ("certify.build_cone", "certify.subcone_model",
                     "certify.solve_cone_membership", "certify.assemble_certificate"),
    "certify.verify": ("certify.verify_certificate", "certify.verify_disproof"),
    "pipeline.report": ("pipeline.emit_report", "pipeline.reverify_report"),
}

# Work counters read off return values: span name -> (counter, extractor).
COUNTERS = {
    "symmetry.automorphism_generators":
        ("symmetry.generators", lambda r: len(getattr(r, "gens", ()))),
    "symmetry.close_group":
        ("symmetry.group_elements", lambda r: int(getattr(r, "size", 0))),
    "sdpfeas.solve_feasibility":
        ("sdpfeas.iterations", lambda r: int(getattr(r, "iterations", 0))),
}


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.run = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_run(self, run_id) -> None:
        """Start attributing spans to run_id; drops any span a timeout left open."""
        self.run = run_id
        self._stack = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, child of the innermost open span."""
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if stack and stack[-1] == sid:
                stack.pop()
            self.spans[sid] = (name, parent, start, end, self.run)

    def install(self) -> list[str]:
        """Patch every rigidity binding of each traced function; return the missing ones."""
        missing = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "rigidity" or k.startswith("rigidity."))]
        for mod_name, fn_name in TRACED:
            try:
                home = importlib.import_module(f"rigidity.{mod_name}")
            except ImportError:
                home = None
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return missing

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: [name, parent, start, end, run]."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other. Holes (None) stay None.
    """
    out = [None if s is None else s[3] - s[2] for s in spans]
    for s in spans:
        if s is not None and s[1] >= 0 and out[s[1]] is not None:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_metrics(spans: list, counters: dict, scale: dict | None = None) -> dict:
    """Calls, inclusive time and self time per traced function, per group and
    per other span name seen, plus the counters. Times of run r are
    multiplied by scale[r] when given."""
    selfs = self_times(spans)
    stats: dict[str, list] = {}
    group_of = {member: g for g, members in GROUPS.items() for member in members}
    for sid, sp in enumerate(spans):
        if sp is None:
            continue
        name, parent, start, end, run = sp
        f = 1.0 if scale is None else scale.get(run, 1.0)
        group = group_of.get(name)
        for key in (name,) if group is None else (name, group):
            st = stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += 1
            st[2] += selfs[sid] * f
            if key == name or not _inside_group(spans, parent, group, group_of):
                st[1] += (end - start) * f
    out = {}
    for key in dict.fromkeys([f"{m}.{f}" for m, f in TRACED] + list(GROUPS) + list(stats)):
        calls, incl, own = stats.get(key, (0, 0.0, 0.0))
        out[f"{key}.calls"] = calls
        out[f"{key}.s"] = incl
        out[f"{key}.self_s"] = own
    out.update(counters)
    return out


def _inside_group(spans: list, parent: int, group: str, group_of: dict) -> bool:
    while parent >= 0 and spans[parent] is not None:
        if group_of.get(spans[parent][0]) == group:
            return True
        parent = spans[parent][1]
    return False


def self_time_by_run(spans: list) -> dict:
    """Sum of span self times per run id; equals the traced share of each run."""
    out: dict = {}
    for sp, own in zip(spans, self_times(spans)):
        if sp is not None:
            out[sp[4]] = out.get(sp[4], 0.0) + own
    return out
