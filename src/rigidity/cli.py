"""Command line front end.

Subcommands: check (full pipeline), orbits, spectrum, disprove, batch.
Exit codes: 0 certified / informational success, 1 disproved, 2 inconclusive
(a failed eigensolve, an internal error, or output not delivered because the
reader closed standard output early, included), 3 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from .certify import LineSearchFailed, find_disproof
from .check import PipelineStatus, verify_disproof
from .graphcore import (
    DisconnectedGraph,
    format_edge_list,
    Graph,
    MalformedGraph6,
    WeightVector,
    parse_edge_list,
    parse_graph6,
)
from .pipeline import (
    CertificationReport,
    PipelineConfig,
    acquire_group,
    emit_report,
    run_pipeline,
)
from .spectra import (
    AmbiguousCluster,
    ConvergenceFailure,
    TargetKind,
    laplacian_spectrum,
    target_cluster,
)
from .symmetry import (
    CapExceeded,
    GroupGenerators,
    close_group,
    edge_orbits,
    generators_from_json,
    vertex_orbits,
)

_EXIT_OK = 0
_EXIT_DISPROVED = 1
_EXIT_INCONCLUSIVE = 2
_EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 3, not argparse's 2 (inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    data_lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not data_lines:
        raise _UsageError(f"{path}: no graph data")
    first = data_lines[0].split()
    name = Path(path).stem
    try:
        if len(first) >= 2 and all(t.lstrip("-").isdigit() for t in first[:2]):
            return parse_edge_list(text, name)
        return parse_graph6(data_lines[0], name)
    except (MalformedGraph6, DisconnectedGraph, ValueError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _group_spec(spec: str) -> tuple[int, ...] | Path:
    """Parse --group into the fixed vertices (auto fixes none) or a generator file."""
    if spec == "auto":
        return ()
    if spec.startswith("file:"):
        return Path(spec[len("file:"):])
    if spec.startswith("fix:"):
        try:
            return tuple(int(t) for t in spec[len("fix:"):].split(",") if t)
        except ValueError as exc:
            raise _UsageError(f"bad fixed vertex list in {spec!r}") from exc
    raise _UsageError(f"bad --group value {spec!r}")


def _group_config(spec: str, graph: Graph) -> GroupGenerators | tuple[int, ...]:
    """--group for one graph: generators read and checked, fix: vertices in range."""
    group = _group_spec(spec)
    if isinstance(group, Path):
        try:
            text = group.read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read generator file {group}: {exc}") from exc
        try:
            return generators_from_json(graph, text)
        except ValueError as exc:
            raise _UsageError(f"{group}: {exc}") from exc
    outside = [v for v in group if not 0 <= v < graph.n]
    if outside:
        raise _UsageError(f"fixed vertex {outside[0]} is outside 0..{graph.n - 1}")
    return group


def _config(group: GroupGenerators | tuple[int, ...], seed: int = 0) -> PipelineConfig:
    try:
        return PipelineConfig(seed=seed, group=group)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _targets(spec: str) -> tuple[TargetKind, ...]:
    return tuple(TargetKind) if spec == "both" else (TargetKind(spec.upper()),)


def _verdict_exit(reports: list[CertificationReport]) -> int:
    statuses = {r.status for r in reports}
    if statuses & {PipelineStatus.CERTIFIED_EXACT, PipelineStatus.CERTIFIED_NUMERIC}:
        return _EXIT_OK
    if statuses == {PipelineStatus.DISPROVED}:
        return _EXIT_DISPROVED
    return _EXIT_INCONCLUSIVE


def _cmd_check(args) -> int:
    graph = _load_graph(args.graph)
    cfg = _config(_group_config(args.group, graph), args.seed)
    reports = [
        run_pipeline(graph, t, cfg, graph_id=graph.name) for t in _targets(args.target)
    ]
    blob = _json_reports(reports)
    if args.report:
        Path(args.report).write_bytes(blob)
    text = blob if args.json else b"".join(emit_report(r, "TEXT") for r in reports)
    sys.stdout.write(text.decode())
    return _verdict_exit(reports)


def _json_reports(reports: list[CertificationReport]) -> bytes:
    """One report as emit_report writes it; several as one JSON array of them."""
    if len(reports) == 1:
        return emit_report(reports[0], "JSON")
    payloads = [r.to_json_dict() for r in reports]  # as emit_report formats one
    return (json.dumps(payloads, sort_keys=True, indent=2) + "\n").encode()


def _cmd_spectrum(args) -> int:
    graph = _load_graph(args.graph)
    dec = laplacian_spectrum(graph, WeightVector.uniform(graph))
    for lam in dec.eigenvalues:
        print(repr(float(lam)))
    try:
        lo = target_cluster(dec, TargetKind.LOWER)
        hi = target_cluster(dec, TargetKind.UPPER)
    except AmbiguousCluster as exc:
        print(f"ambiguous eigenvalue cluster: {exc}")
        return _EXIT_INCONCLUSIVE
    print(f"lambda_2 = {float(lo.value)!r}  multiplicity {lo.basis.shape[1]}")
    print(f"lambda_max = {float(hi.value)!r}  multiplicity {hi.basis.shape[1]}")
    return _EXIT_OK


def _cmd_orbits(args) -> int:
    graph = _load_graph(args.graph)
    gens, flags = acquire_group(graph, _config(_group_config(args.group, graph)))
    if flags:
        print("automorphism search budget exceeded; using trivial group")
    try:
        closure = close_group(gens)
        print(f"group order {closure.size}")
    except CapExceeded as exc:
        print(f"group closure capped: {exc}")
    epart = edge_orbits(gens)
    vpart = vertex_orbits(gens)
    vsizes = tuple(len(o) for o in vpart.orbits)
    print(f"edge orbits: {epart.s} with sizes {tuple(epart.sizes)}")
    print(f"vertex orbits: {len(vpart.orbits)} with sizes {vsizes}")
    for o in range(epart.s):
        members = [graph.edges[i] for i in epart.members(o)]
        print(f"  orbit {o}: {members}")
    return _EXIT_OK


def _cmd_disprove(args) -> int:
    graph = _load_graph(args.graph)
    kind = TargetKind(args.target.upper())
    cfg = _config(_group_config(args.group, graph), args.seed)
    dec = laplacian_spectrum(graph, WeightVector.uniform(graph))
    try:
        cluster = target_cluster(dec, kind)
    except AmbiguousCluster as exc:
        print(f"ambiguous eigenvalue cluster: {exc}")
        return _EXIT_INCONCLUSIVE
    gens, flags = acquire_group(graph, cfg)
    if flags:
        print("automorphism search budget exceeded; using trivial group")
    part = edge_orbits(gens)
    try:
        d = find_disproof(cluster, part, kind, cfg.seed, dec)
        verified = d is not None and verify_disproof(graph, d, kind)
    except LineSearchFailed as exc:
        print(f"line search failed: {exc}")
        return _EXIT_INCONCLUSIVE
    if not verified:
        print("no verified disproof found")
        return _EXIT_INCONCLUSIVE
    print(f"baseline {d.baseline!r}  achieved {d.achieved!r}  margin {d.margin:.6g}")
    for (u, v), w in zip(graph.edges, d.w.values):
        print(f"  w[{u},{v}] = {float(w)!r}")
    if args.out:
        Path(args.out).write_text(format_edge_list(graph, d.w))
        print(f"witness weights written to {args.out}")
    return _EXIT_DISPROVED


def _cmd_batch(args) -> int:
    group = _group_spec(args.group)
    if isinstance(group, Path):
        raise _UsageError("batch --group takes auto or fix:<v1,v2,...>; "
                          "a generator file belongs to one graph")
    cfg = _config(group, args.seed)
    root = Path(args.dir)
    if not root.is_dir():
        raise _UsageError(f"{args.dir} is not a directory")
    paths = sorted(
        p for p in root.iterdir()
        if p.suffix in (".g6", ".graph6", ".txt") and p.is_file()
    )
    targets = _targets(args.target)
    kept = []
    failures = 0
    for p in paths:
        try:
            graph = _load_graph(str(p))
            _group_config(args.group, graph)  # a fix: list must fit the graph
        except _UsageError as exc:
            print(f"{p.name}: SKIPPED ({exc})")
            failures += 1
            continue
        kept.append((p, graph))
    # Each run's line and report go out as soon as it ends, so an
    # unexpected exception loses only the runs after it.
    summary: Counter[str] = Counter()
    for p, graph in kept:
        for t in targets:
            rep = run_pipeline(graph, t, cfg, graph_id=graph.name)
            summary[rep.status.value] += 1
            print(f"{p.name} {t.value}: {rep.status.value}", flush=True)
            if args.report_dir:
                out = Path(args.report_dir)
                out.mkdir(parents=True, exist_ok=True)
                fname = f"{p.stem}.{t.value.lower()}.json"
                (out / fname).write_bytes(emit_report(rep, "JSON"))
    print("summary:")
    for k in sorted(summary):
        print(f"  {k}: {summary[k]}")
    if failures:
        print(f"  skipped inputs: {failures}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rigidity",
        description="Decide, certify, or disprove conformal rigidity of a graph.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def group(p):
        p.add_argument("--group", default="auto",
                       help="auto | file:<generators.json> | fix:<v1,v2,...>"
                            " (batch: auto | fix:...)")

    def common(p, target_choices=("lower", "upper", "both")):
        p.add_argument("--target", choices=target_choices, default="both"
                       if "both" in target_choices else target_choices[0])
        group(p)
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("check", help="run the full certification pipeline")
    p.add_argument("graph")
    common(p)
    p.add_argument("--report", help="write JSON report(s) to this file")
    p.add_argument("--json", action="store_true", help="print JSON to stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("spectrum", help="print the uniform Laplacian spectrum")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("orbits", help="print automorphism orbits of edges/vertices")
    p.add_argument("graph")
    group(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("disprove", help="search for witness weights only")
    p.add_argument("graph")
    common(p, target_choices=("lower", "upper"))
    p.add_argument("--out", help="write witness weights as an edge-list file")
    p.set_defaults(func=_cmd_disprove)

    p = sub.add_parser("batch", help="run the pipeline over a directory")
    p.add_argument("dir")
    common(p)
    p.add_argument("--report-dir", help="write one JSON per graph/target here")
    p.set_defaults(func=_cmd_batch)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout: output not delivered
        # fd 1 goes to devnull, so the interpreter's last flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_INCONCLUSIVE
    except (_UsageError, MalformedGraph6, DisconnectedGraph) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ConvergenceFailure, np.linalg.LinAlgError) as exc:
        print(f"eigensolve failed: {exc}")
        return _EXIT_INCONCLUSIVE
    except Exception as exc:  # a bug must never read as exit 1, "disproved"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return _EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
