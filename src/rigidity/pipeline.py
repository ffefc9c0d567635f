"""End-to-end certification pipeline and report machinery.

A run walks a fixed stage graph: spectrum -> cluster -> group -> orbits ->
isotypics. When every multiplicity is one, cone membership (exact first)
decides; otherwise the multiplicity bound and a sub-cone follow. Every branch
that finds no certificate (a cone miss, a failed bound, a sub-cone miss) goes
to the one disproof search, and a search without a witness ends in the
undecided status that says why.
Every outcome is a structured report, whose grammar lives in rigidity.check
with the verifiers that decide whether a loaded report re-verifies.
FAILURE_FLAGS is the one table of the module errors that end a run:
run_pipeline catches those, and only those, in one handler, and ends the run
in INCONCLUSIVE_SOLVER with the table's flag. A config that does not fit the
graph is a caller error and raises ValueError (see run_pipeline).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certify import (
    ConicCertificate,
    LineSearchFailed,
    ResidualTooLarge,
    assemble_certificate,
    build_cone,
    find_disproof,
    solve_cone_membership,
    subcone_model,
)
from .check import Disproof, PipelineStatus, verify_certificate, verify_disproof
# Bound here only because perfbench/spans.py::TRACED names it as pipeline's.
from .check import reverify_report  # noqa: F401
from .graphcore import Graph, WeightVector, to_graph6
from .isotypics import (
    UnstableSplit,
    all_multiplicity_one,
    isotypic_decompose,
    multiplicity_bound_ok,
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
    SearchBudgetExceeded,
    automorphism_generators,
    close_group,
    edge_orbits,
)


# The failures that end a run in INCONCLUSIVE_SOLVER, and the flag each
# raises. run_pipeline catches these and nothing else: a ValueError from
# acquire_group is a caller error and propagates.
FAILURE_FLAGS: dict[type[Exception], str] = {
    ConvergenceFailure: "EIGENSOLVE_FAILED",
    np.linalg.LinAlgError: "EIGENSOLVE_FAILED",
    AmbiguousCluster: "AMBIGUOUS_CLUSTER",
    UnstableSplit: "ISOTYPIC_FAILURE",
    LineSearchFailed: "LINE_SEARCH_FAILED",
    ResidualTooLarge: "ASSEMBLY_FAILED",
}


@dataclass(frozen=True)
class PipelineConfig:
    """What a caller chooses; every tolerance and budget is a module constant."""

    # Vertices the automorphism search fixes (() = full group), or generators.
    group: GroupGenerators | tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.group, GroupGenerators) and not (
            isinstance(self.group, tuple)
            and all(isinstance(v, int) for v in self.group)
        ):
            raise ValueError("group must be GroupGenerators or a tuple of vertices")


@dataclass
class CertificationReport:
    """One run's outcome; run_pipeline fills it in place as the stages pass."""

    graph: Graph
    graph_id: str
    target: TargetKind
    route: tuple[str, ...] = ()
    status: PipelineStatus | None = None  # set when the run ends
    group_order: int = 0
    orbit_of: tuple[int, ...] = ()
    orbit_sizes: tuple[int, ...] = ()
    isotypics: tuple[tuple[int, int, int], ...] = ()
    lam: float | None = None
    certificate: ConicCertificate | None = None
    disproof: Disproof | None = None
    residuals: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    message: str = ""
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Deterministic JSON payload; timings stay out on purpose."""
        cert = None
        if (c := self.certificate) is not None:
            cert = {
                "a": [str(a) if isinstance(a, Fraction) else float(a) for a in c.coeffs],
                "vectors": [[float(x) for x in v] for v in c.reps],
                "lambda": float(c.lam),
                "exact": c.exact,
                "eigen_residual": float(c.eigen_residual),
                "orbit_residual": float(c.orbit_residual),
                "flags": [] if c.exact else ["EXACT_UNAVAILABLE"],
            }
        disp = None
        if self.disproof is not None:
            disp = {
                "w": [float(x) for x in self.disproof.w.values],
                "achieved": float(self.disproof.achieved),
                "baseline": float(self.disproof.baseline),
                "margin": float(self.disproof.margin),
            }
        return {
            "schema": 2,
            "graph_id": self.graph_id,
            "graph6": to_graph6(self.graph),
            "n": self.graph.n,
            "m": self.graph.m,
            "target": self.target.value,
            "route": list(self.route),
            "status": self.status.value,
            "group_order": self.group_order,
            "orbit_of": list(self.orbit_of),
            "orbit_sizes": list(self.orbit_sizes),
            "isotypics": [list(t) for t in self.isotypics],
            "lambda": None if self.lam is None else float(self.lam),
            "certificate": cert,
            "disproof": disp,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "flags": list(self.flags),
            "message": self.message,
        }


class _Run:
    """The stage clock of one run: it times each stage of the report it fills."""

    def __init__(self, report: CertificationReport):
        self.report = report
        self._t0 = time.perf_counter()

    def stage(self, name: str):
        """Time the open stage and open `name`."""
        rep, now = self.report, time.perf_counter()
        if rep.route:
            rep.timings[rep.route[-1]] = now - self._t0
            self._t0 = now
        rep.route += (name,)

    def finish(self, status: PipelineStatus, message: str = "",
               flag: str | None = None) -> CertificationReport:
        """Raise flag, if any, time the last stage and end the route in status."""
        rep = self.report
        rep.flags += (flag,) if flag else ()
        self.stage(status.value)  # a status is never timed: nothing follows it
        rep.status, rep.message = status, message
        return rep


def acquire_group(
    graph: Graph, cfg: PipelineConfig
) -> tuple[GroupGenerators, tuple[str, ...]]:
    """Automorphism generators as cfg.group asks, plus the flags raised.

    Generators are used as given; a tuple is the vertex list the search fixes.
    A search that runs past its node budget yields the trivial group and the
    flag GROUP_SEARCH_BUDGET_EXCEEDED. Raises ValueError for generators
    bound to another graph and for a fixed vertex outside 0..n-1.
    """
    if isinstance(cfg.group, GroupGenerators):
        if cfg.group.graph != graph:
            raise ValueError("group generators are bound to another graph")
        return cfg.group, ()
    try:
        return automorphism_generators(graph, cfg.group), ()
    except SearchBudgetExceeded:
        return GroupGenerators(graph, ()), ("GROUP_SEARCH_BUDGET_EXCEEDED",)


def run_pipeline(
    graph: Graph,
    target: TargetKind,
    cfg: PipelineConfig = PipelineConfig(),
    graph_id: str | None = None,
) -> CertificationReport:
    """Run the full certification flow for one graph and one target.

    Every run ends in a report. The stages run as one walk, and a failure
    listed in FAILURE_FLAGS ends it in INCONCLUSIVE_SOLVER at the stage it
    came from, with the table's flag and the message "<stage> stage failed:
    <exception text>". A config that does not fit the graph is a caller
    error and raises ValueError: generators in cfg.group bound to another
    graph, or a fixed vertex outside 0..n-1.
    """
    rep = CertificationReport(graph, graph_id or graph.name or "graph", target)
    run = _Run(rep)
    try:
        run.stage("spectrum")
        dec = laplacian_spectrum(graph, WeightVector.uniform(graph))

        run.stage("cluster")
        cluster = target_cluster(dec, target)
        rep.lam = float(cluster.value)

        run.stage("group")
        gens, flags = acquire_group(graph, cfg)
        rep.flags += flags
        try:
            rep.group_order = close_group(gens).size
        except CapExceeded:
            rep.flags += ("GROUP_CAP_EXCEEDED",)
            gens = GroupGenerators(graph, ())
            rep.group_order = 1

        run.stage("orbits")
        part = edge_orbits(gens)
        rep.orbit_of, rep.orbit_sizes = part.orbit_of, part.sizes

        run.stage("isotypics")
        iso = isotypic_decompose(cluster, gens, cfg.seed)
        rep.isotypics = tuple((c.irr_dim, c.mult, c.endo_dim) for c in iso.components)
        rep.residuals["isotypic"] = iso.residual
        if any(c.endo_dim == 4 for c in iso.components):
            rep.flags += ("QUATERNIONIC_COMPONENT_UNTESTED",)

        # Multiplicity one everywhere: the full cone decides, and its miss is
        # a verdict. Otherwise a sub-cone, whose miss proves nothing, looks
        # for a certificate where the multiplicity bound holds.
        full = all_multiplicity_one(iso)
        if not full:
            run.stage("mult_bound")
            if not multiplicity_bound_ok(iso):
                return _disproof_stage(
                    run, dec, cluster, part, cfg.seed,
                    "multiplicity bound fails: no single-eigenvector certificate "
                    "guaranteed", PipelineStatus.INCONCLUSIVE_NO_RANK1)

        run.stage("cone" if full else "subcone")
        cone = (build_cone if full else subcone_model)(iso, part, cfg.seed)
        sol = solve_cone_membership(cone)
        rep.residuals["cone"] = sol.residual if np.isfinite(sol.residual) else -1.0
        if not sol.exact:
            rep.flags += ("EXACT_UNAVAILABLE",)
        if not sol.feasible:
            if not full:
                return _disproof_stage(
                    run, dec, cluster, part, cfg.seed,
                    "multiplicities above one and the representative sub-cone missed "
                    "the target; exact route unavailable",
                    PipelineStatus.INCONCLUSIVE_MULTIPLICITY)
            if sol.exact:
                rep.flags += ("EXACT_CONE_INFEASIBLE",)
                msg = ("orbit-size vector provably outside the certificate cone; "
                       "target is not conformally rigid")
            else:
                rep.flags += ("NUMERIC_CONE_INFEASIBLE",)
                msg = "certificate cone membership failed numerically"
            return _disproof_stage(run, dec, cluster, part, cfg.seed, msg,
                                   PipelineStatus.INCONCLUSIVE_SOLVER)

        run.stage("assemble")
        cert = assemble_certificate(cone, sol, cluster)
        run.stage("verify")
        vectors = list(zip(cert.coeffs, cert.reps))
        ver = verify_certificate(part, vectors, cert.lam, target)
        rep.residuals["certificate_orbit"] = cert.orbit_residual
        rep.residuals["certificate_eigen"] = cert.eigen_residual
        if not ver.ok:
            return run.finish(
                PipelineStatus.INCONCLUSIVE_SOLVER,
                f"assembled certificate failed verification at {ver.failing_clause}",
                flag="VERIFY_FAILED",
            )
        rep.certificate = cert
        status = (PipelineStatus.CERTIFIED_EXACT if cert.exact
                  else PipelineStatus.CERTIFIED_NUMERIC)
        return run.finish(status, "single-eigenvector certificate verified")
    except tuple(FAILURE_FLAGS) as exc:
        flag = next(FAILURE_FLAGS[c] for c in type(exc).__mro__ if c in FAILURE_FLAGS)
        return run.finish(PipelineStatus.INCONCLUSIVE_SOLVER,
                          f"{rep.route[-1]} stage failed: {exc}", flag=flag)


def _disproof_stage(run: _Run, dec, cluster, part, seed: int, reason: str,
                    undecided: PipelineStatus) -> CertificationReport:
    """Search for witness weights; without one, end in `undecided`, which says
    why the branch before found no certificate."""
    rep = run.report
    run.stage("disproof")
    d = find_disproof(cluster, part, rep.target, seed, dec)
    no_witness = f"{reason}; no verified witness weights found"
    if d is None:
        return run.finish(undecided, no_witness)
    if not verify_disproof(rep.graph, d, rep.target):
        return run.finish(PipelineStatus.INCONCLUSIVE_SOLVER, no_witness,
                          flag="DISPROOF_VERIFY_FAILED")
    lower = rep.target is TargetKind.LOWER
    rep.residuals["disproof_lambda2" if lower else "disproof_lambda_max"] = d.achieved
    rep.disproof = d
    return run.finish(
        PipelineStatus.DISPROVED,
        f"{reason}; witness weights beat the uniform spectrum by {d.margin:.6g}",
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def emit_report(report: CertificationReport, format: str = "JSON") -> bytes:
    """Serialize a report; JSON is deterministic, TEXT includes timings."""
    if format.upper() == "JSON":
        return (
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        ).encode()
    if format.upper() != "TEXT":
        raise ValueError("format must be JSON or TEXT")
    d = report.to_json_dict()
    lines = [
        f"graph {d['graph_id']}  (n={d['n']}, m={d['m']})",
        f"target {d['target']}   status {d['status']}",
        f"route: {' -> '.join(d['route'])}",
        f"group order {d['group_order']}; orbit sizes {tuple(d['orbit_sizes'])}",
    ]
    if d["isotypics"]:
        iso = ", ".join(f"(d={a}, m={b}, endo={c})" for a, b, c in d["isotypics"])
        lines.append(f"isotypics: {iso}")
    if d["lambda"] is not None:
        lines.append(f"target eigenvalue {d['lambda']!r}")
    if d["certificate"]:
        c = d["certificate"]
        lines.append(
            f"certificate: a = {c['a']}, exact = {c['exact']}, "
            f"orbit residual {c['orbit_residual']:.3e}"
        )
        for k, vec in enumerate(c["vectors"]):
            lines.append(f"  phi_{k}: {vec!r}")
    if d["disproof"]:
        w = d["disproof"]
        lines.append(
            f"disproof: achieved {w['achieved']!r} vs baseline {w['baseline']!r} "
            f"(margin {w['margin']:.6g})"
        )
        lines.append(f"  weights: {w['w']!r}")
    if d["flags"]:
        lines.append(f"flags: {', '.join(d['flags'])}")
    if report.timings:
        t = ", ".join(f"{k} {v * 1000:.1f}ms" for k, v in report.timings.items())
        lines.append(f"timings: {t}")
    lines.append(d["message"])
    return ("\n".join(lines) + "\n").encode()
