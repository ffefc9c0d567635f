"""The checker: whether a report re-verifies, decided from the graph alone.

rigidity.check is the one module that decides re-verification. It imports
rigidity.graphcore, rigidity.spectra, numpy and the standard library, and
nothing else: no automorphism search, no isotypic split, no cone or disproof
search, no SDP and no scipy. The finder calls the same verifiers as its
filters (run_pipeline keeps a certificate only if verify_certificate accepts
it, and a witness only if verify_disproof does), so the two share these
checks and no search code.

Here live the report grammar (PipelineStatus, TRANSITIONS, route_is_valid),
the verifiers and their tolerances (VERIFY_TOL, MARGIN, verify_certificate,
verify_disproof) and reverify_report, which applies them to a loaded report.

What a report that re-verifies still takes on trust:
- the group behind the orbit partition: orbit_of must fit the graph and
  orbit-stabilizer, but no generator proves it is an orbit partition;
- which irreducibles the isotypic triples name: only their dimensions are
  checked;
- exactness beyond self-agreement: a CERTIFIED_EXACT report must say exact,
  carry string coefficients and no EXACT_UNAVAILABLE flag, but its
  certificate is re-checked in floats at VERIFY_TOL, not over the rationals;
- disproofs, which are judged by floating-point eigensolves against MARGIN.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphcore import (
    EdgeOrbitPartition,
    Graph,
    WeightVector,
    laplacian,
    orbit_energy,
    parse_graph6,
)
from .spectra import (
    ConvergenceFailure,
    EigenDecomposition,
    TargetKind,
    eig_sym,
    laplacian_spectrum,
    target_cluster,
)

# A disproof step is accepted only when it beats the current eigenvalue by
# MARGIN, and verify_disproof asks the same MARGIN over the uniform spectrum,
# so every witness found also verifies.
VERIFY_TOL = 1e-8  # certificate re-check, relative to the spectrum's scale
MARGIN = 1e-7
# An exact coefficient as str(Fraction) writes it, with no zero denominator.
# At most EXACT_COEFF_CHARS characters, so its numerator stays below 1e308
# and Fraction never expands an exponent such as "1e10000000".
EXACT_COEFF = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")
EXACT_COEFF_CHARS = 300


class PipelineStatus(Enum):
    CERTIFIED_EXACT = "CERTIFIED_EXACT"
    CERTIFIED_NUMERIC = "CERTIFIED_NUMERIC"
    DISPROVED = "DISPROVED"
    INCONCLUSIVE_NO_RANK1 = "INCONCLUSIVE_NO_RANK1"
    INCONCLUSIVE_MULTIPLICITY = "INCONCLUSIVE_MULTIPLICITY"
    INCONCLUSIVE_SOLVER = "INCONCLUSIVE_SOLVER"


# Stage graph of the pipeline; every report route must be a path here.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "spectrum": ("cluster", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "cluster": ("group", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "group": ("orbits",),
    "orbits": ("isotypics",),
    "isotypics": ("cone", "mult_bound", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "cone": ("assemble", "disproof", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "mult_bound": ("subcone", "disproof"),
    "subcone": ("assemble", "disproof", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "disproof": (
        PipelineStatus.DISPROVED.value,
        PipelineStatus.INCONCLUSIVE_NO_RANK1.value,
        PipelineStatus.INCONCLUSIVE_MULTIPLICITY.value,
        PipelineStatus.INCONCLUSIVE_SOLVER.value,
    ),
    "assemble": ("verify", PipelineStatus.INCONCLUSIVE_SOLVER.value),
    "verify": (
        PipelineStatus.CERTIFIED_EXACT.value,
        PipelineStatus.CERTIFIED_NUMERIC.value,
        PipelineStatus.INCONCLUSIVE_SOLVER.value,
    ),
}


# The one branch whose disproof search, finding no witness, ends in each status.
_NO_WITNESS_AFTER = {PipelineStatus.INCONCLUSIVE_NO_RANK1.value: "mult_bound",
                    PipelineStatus.INCONCLUSIVE_MULTIPLICITY.value: "subcone"}


def route_is_valid(route: tuple[str, ...]) -> bool:
    """Check a report route against TRANSITIONS and _NO_WITNESS_AFTER."""
    if not route or route[0] != "spectrum":
        return False
    for a, b in zip(route, route[1:]):
        if b not in TRANSITIONS.get(a, ()):
            return False
    if route[-2:-1] == ("disproof",) and route[-1] in _NO_WITNESS_AFTER:
        return route[-3] == _NO_WITNESS_AFTER[route[-1]]
    return route[-1] in {s.value for s in PipelineStatus}


@dataclass(frozen=True)
class Disproof:
    """Witness weights beating the uniform spectrum for one target."""

    w: WeightVector
    achieved: float
    baseline: float
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    c: float
    failing_clause: str | None


def verify_certificate(
    part: EdgeOrbitPartition,
    vectors: Sequence[tuple[float, np.ndarray]],
    lam: float,
    kind: TargetKind,
    spectrum: EigenDecomposition | None = None,
) -> VerificationReport:
    """Re-check a certificate from scratch, using nothing downstream.

    Clauses: (i) every phi_j is a lam-eigenvector of the uniform Laplacian
    of part.graph; (ii) lam is the second-smallest (LOWER) or largest
    (UPPER) eigenvalue; (iii) sum a_j l_Psi(phi_j) = c * O for a fitted
    c > 0; (iv) all a_j >= 0.
    Per-edge certificates pass through as the all-singleton-orbit case.
    spectrum, when given, is the uniform Laplacian's eigendecomposition that
    the caller computed from the graph itself; otherwise it is computed here.
    """
    graph = part.graph
    L = laplacian(graph, WeightVector.uniform(graph))
    lam_all = (spectrum if spectrum is not None else eig_sym(L)).eigenvalues
    scale = max(1.0, float(lam_all[-1]))

    for _, phi in vectors:
        phi = np.asarray(phi, dtype=np.float64)
        r = float(np.linalg.norm(L @ phi - lam * phi))
        if r > VERIFY_TOL * scale * max(1.0, float(np.linalg.norm(phi))):
            return VerificationReport(False, 0.0, "eigenvector")

    ref = float(lam_all[kind.index])
    if abs(lam - ref) > VERIFY_TOL * scale:
        return VerificationReport(False, 0.0, "eigenvalue_position")

    combo = np.zeros(part.s)
    for a, phi in vectors:
        af = float(a)
        if af < -VERIFY_TOL:
            return VerificationReport(False, 0.0, "nonnegative_coefficients")
        combo += af * orbit_energy(part, phi)
    target = part.size_vector
    c = float(combo @ target) / float(target @ target)
    resid = float(np.max(np.abs(combo - c * target)))
    if c <= 0:
        return VerificationReport(False, c, "positive_scale")
    if resid > VERIFY_TOL * max(1.0, abs(c) * float(np.max(target))):
        return VerificationReport(False, c, "orbit_identity")
    return VerificationReport(True, c, None)


def verify_disproof(graph: Graph, d: Disproof, kind: TargetKind,
                    spectrum: EigenDecomposition | None = None) -> bool:
    """Recompute spectra from scratch and check the strict improvement.

    The witness must beat the uniform target eigenvalue by MARGIN, and its
    achieved, baseline and margin must be the recomputed weighted and
    uniform eigenvalues and their gain, within VERIFY_TOL * max(1, lambda_max).
    spectrum, when given, is the uniform Laplacian's eigendecomposition that
    the caller computed from the graph itself; otherwise it is computed here.
    """
    w = d.w.values
    if np.any(w < 0):
        return False
    if abs(float(w.sum()) - graph.m) > 1e-9 * graph.m:
        return False
    lam_w = eig_sym(laplacian(graph, w)).eigenvalues
    lam_u = (spectrum if spectrum is not None
             else eig_sym(laplacian(graph, WeightVector.uniform(graph)))).eigenvalues
    achieved, baseline = float(lam_w[kind.index]), float(lam_u[kind.index])
    gain = kind.sign * (achieved - baseline)
    tol = VERIFY_TOL * max(1.0, float(lam_w[-1]), float(lam_u[-1]))
    return gain > MARGIN and all(
        abs(claimed - true) <= tol
        for claimed, true in ((d.achieved, achieved), (d.baseline, baseline),
                              (d.margin, gain))
    )


# ---------------------------------------------------------------------------
# Re-verification of a loaded report
# ---------------------------------------------------------------------------

def _finite_array(values, shape: tuple[int, ...]) -> np.ndarray | None:
    """values as a float array of the given shape, or None if it is not one.

    `shape` is () or (k,). Every entry must be a JSON number, an int or a
    float; a bool or a numeric string is not one, though numpy converts both.
    """
    entries = [values] if shape == () else values
    if type(entries) is not list or not all(type(x) in (int, float) for x in entries):
        return None
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:
        return None
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        return None
    return arr


def reverify_report(payload: dict) -> bool:
    """Re-check a loaded report against its graph6 string.

    Every report must agree with itself: schema 2, n and m that match the
    graph, and a route through TRANSITIONS that ends in the status (a route
    through the sdp stage that earlier versions ran is no such path). Past
    the orbits stage, orbit_of holds one label per edge, orbit_sizes counts
    them, and group_order is a positive multiple of every orbit size; before
    it, they are empty and 0. A run that passed the isotypics stage (on to
    cone or mult_bound), and any report that lists isotypics, must carry
    positive integer triples whose irr_dim * mult sum to the dimension of the
    target eigenspace, and whose endo_dim is 1, 2 or 4 and divides irr_dim. A
    certified report must then carry a certificate that verify_certificate
    accepts, and a disproved one witness weights that verify_disproof
    accepts, with the achieved, baseline and margin it recomputes. The
    top-level lambda must repeat the certificate's lambda or the disproof's
    baseline, to VERIFY_TOL. A certificate's exact is the JSON boolean
    "status is CERTIFIED_EXACT"; its coefficients are strings exactly when it
    is exact, and its flags are [] when exact and ["EXACT_UNAVAILABLE"] when
    not. That is self-agreement only: the certificate itself is re-checked
    in floats.

    Numbers that do not fit the graph are rejected before anything is built:
    orbit labels outside 0..m-1, certificate vectors that are not n finite
    numbers, coefficients that are not finite or not one per vector, an
    eigenvalue, achieved, baseline or margin that is not a finite number,
    and disproof weights that are not m finite nonnegative numbers. Each of
    these numbers must be a JSON number, not a bool or a numeric string,
    except exact coefficients, which must be written as str(Fraction)
    writes them (EXACT_COEFF) in at most EXACT_COEFF_CHARS characters.
    A payload that is not a report (a missing key, a value of the wrong type,
    a bad graph6 string, an unknown target) is rejected too, and so is one
    whose check fails to converge: this returns False and never raises.
    """
    try:
        return _reverify(payload)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ConvergenceFailure):
        return False


def _reverify(payload: dict) -> bool:
    graph = parse_graph6(payload["graph6"])
    n, m = graph.n, graph.m
    kind = TargetKind(payload["target"])
    status = payload["status"]
    route = tuple(payload["route"])
    if payload["schema"] != 2 or (payload["n"], payload["m"]) != (n, m) or not (
        route_is_valid(route) and route[-1] == status
    ):
        return False
    labels, sizes = payload["orbit_of"], payload["orbit_sizes"]
    order = payload["group_order"]
    if "orbits" not in route:
        # The run stopped before it had a group or orbits.
        fits = (labels, sizes, order) == ([], [], 0)
    else:
        # Exactly one integer orbit label in 0..m-1 per edge, sizes that
        # count them, and an order that each orbit size divides
        # (orbit-stabilizer).
        fits = (
            len(labels) == m
            and all(type(o) is int and 0 <= o < m for o in labels)
            and sizes == np.bincount(labels).tolist()
            and type(order) is int and order > 0
            and all(k > 0 and order % k == 0 for k in sizes)
        )
    if not fits:
        return False
    iso = payload["isotypics"]
    dec = None  # the uniform spectrum, shared with the checks below
    if iso or "cone" in route or "mult_bound" in route:
        # Positive (irr_dim, mult, endo_dim) triples whose irr_dim * mult
        # dimensions add up to the target eigenspace. An irreducible is a
        # vector space over its endomorphism field R, C or H, whose dimension
        # therefore divides irr_dim.
        if not iso or not all(
            len(c) == 3 and all(type(x) is int and x > 0 for x in c)
            and c[2] in (1, 2, 4) and c[0] % c[2] == 0
            for c in iso
        ):
            return False
        dec = laplacian_spectrum(graph, WeightVector.uniform(graph))
        if sum(d * k for d, k, _ in iso) != target_cluster(dec, kind).basis.shape[1]:
            return False
    if status in ("CERTIFIED_EXACT", "CERTIFIED_NUMERIC"):
        cert = payload.get("certificate")
        if cert is None:
            return False
        # Exactness agrees with itself: the status, the exact flag, the
        # coefficients' type and the certificate's flags say the same.
        exact = cert["exact"]
        if not (
            type(exact) is bool and exact == (status == "CERTIFIED_EXACT")
            and all(isinstance(a, str) == exact for a in cert["a"])
            and cert["flags"] == ([] if exact else ["EXACT_UNAVAILABLE"])
        ):
            return False
        part = EdgeOrbitPartition(graph, tuple(labels))
        phis = [_finite_array(v, (n,)) for v in cert["vectors"]]
        if exact:
            if not all(len(a) <= EXACT_COEFF_CHARS and EXACT_COEFF.fullmatch(a)
                       for a in cert["a"]):
                return False
            coeffs = [Fraction(a) for a in cert["a"]]
        else:
            coeffs = _finite_array(cert["a"], (len(phis),))
        lam, top = (_finite_array(x, ()) for x in (cert["lambda"], payload["lambda"]))
        if (coeffs is None or len(coeffs) != len(phis) or lam is None
                or top is None or any(phi is None for phi in phis)):
            return False
        lam = float(lam)
        vectors = list(zip(coeffs, phis))
        return (abs(float(top) - lam) <= VERIFY_TOL * max(1.0, abs(lam))
                and verify_certificate(part, vectors, lam, kind, dec).ok)
    if status == "DISPROVED":
        disp = payload.get("disproof")
        if disp is None:
            return False
        w = _finite_array(disp["w"], (m,))
        # The top-level lambda, then the witness's achieved, baseline, margin.
        nums = [_finite_array(x, ()) for x in (
            payload["lambda"], disp["achieved"], disp["baseline"], disp["margin"])]
        if w is None or np.any(w < 0) or any(x is None for x in nums):
            return False
        top, *claims = map(float, nums)
        # verify_disproof, not the WeightVector, judges the total weight.
        d = Disproof(WeightVector(w), *claims)
        lam = d.baseline
        return (abs(top - lam) <= VERIFY_TOL * max(1.0, abs(lam))
                and verify_disproof(graph, d, kind, dec))
    return True
