"""Certificates and disproofs of conformal rigidity.

The exact route: when every isotypic of the eigenspace has multiplicity one,
the orbit energies of the eigenspace form a polyhedral cone spanned by the
orbit-energy vectors of one representative per isotypic; membership of the
orbit-size vector in that cone is a rational LP whenever the generators are
rational. The negative route: a separating perturbation direction found by
cutting planes, turned into explicit witness weights by a line search.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import OptimizeResult, nnls
from scipy.optimize._highspy import _core as highs

from .check import MARGIN, Disproof
# Bound here only because perfbench/spans.py::TRACED names them as certify's.
from .check import verify_certificate, verify_disproof  # noqa: F401
from .graphcore import EdgeOrbitPartition, Graph, laplacian, orbit_energy
from .isotypics import IsotypicComponent, IsotypicDecomposition, representative_vector
# Bound here only because perfbench/test_perfbench.py patches this binding.
from .sdpfeas import orbit_laplacian  # noqa: F401
from .spectra import (
    AmbiguousCluster,
    EigenDecomposition,
    EigenspaceCluster,
    TargetKind,
    cluster_eigenspace,
    eig_sym,
)


class ResidualTooLarge(RuntimeError):
    """Assembled certificate violates its own defining identity."""


class LineSearchFailed(RuntimeError):
    """A strict ascent direction exists but no step size realizes it."""


@dataclass(frozen=True)
class ConeModel:
    """Polyhedral cone of eigenspace orbit energies.

    generators[j] is the orbit-energy vector of reps[j], one representative
    per isotypic, scaled to squared norm n/2. The cone is asked to hold the
    orbit-size vector O, part.size_vector.
    """

    generators: tuple[np.ndarray, ...]
    reps: tuple[np.ndarray, ...]
    part: EdgeOrbitPartition


@dataclass(frozen=True)
class ConeSolution:
    feasible: bool
    coeffs: tuple
    exact: bool
    residual: float


@dataclass(frozen=True)
class ConicCertificate:
    """A subdifferential certificate: sum of a_j l_Psi(phi_j) = O, a >= 0.

    coeffs[j] is a_j and reps[j] is phi_j; phi = sum sqrt(a_j) phi_j.
    """

    coeffs: tuple
    reps: tuple[np.ndarray, ...]
    phi: np.ndarray
    lam: float
    eigen_residual: float
    orbit_residual: float
    exact: bool


# Tolerances and budgets of the method. A disproof step is accepted only when
# it beats the current eigenvalue by check.MARGIN, the margin verify_disproof
# asks over the uniform spectrum, so every witness found also verifies.
ASSEMBLY_TOL = 1e-8  # assembled orbit energies against the orbit sizes
EPS = 1e-8  # cutting-plane guarantee at or below which no direction exists
MAX_CUTS = 100
MAX_ROUNDS = 60
STALL = 0.01  # least share of the margin so far that a round must gain to go on
DELTA_MAX = 0.5  # line-search step range, halved from DELTA_MAX to DELTA_MIN
DELTA_MIN = 1e-6
RITZ_DIM = 8  # eigenvectors of the current weights that bound a line-search trial


# ---------------------------------------------------------------------------
# Rationalization (two-bound gate)
# ---------------------------------------------------------------------------

MAX_DENOMINATOR = 10**4
RATIONAL_LOOSE = 1e-9
RATIONAL_TIGHT = 1e-12


def rationalize_tight(x: float) -> Fraction | None:
    """Best rational with denominator <= 1e4, accepted only at roundoff scale.

    The error must be at most RATIONAL_LOOSE absolutely and RATIONAL_TIGHT
    relative to max(1, |x|); above |x| = 1e3 the absolute bound binds. With
    denominators capped at 1e4 a quadratic irrational's best approximant
    sits at least ~1e-9 away, while a genuine small rational read from a float
    lands within a few ulps; the 1e-12 relative gate separates the two. A
    larger cap would let continued-fraction convergents of irrationals sneak
    under the gate and produce bogus 'exact' claims.
    """
    f = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    err = abs(float(f) - x)
    if err > RATIONAL_LOOSE or err > RATIONAL_TIGHT * max(1.0, abs(x)):
        return None
    return f


# ---------------------------------------------------------------------------
# Exact phase-1 simplex over Fractions
# ---------------------------------------------------------------------------

def exact_nonneg_solve(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find a >= 0 with A a = b exactly, or prove there is none (None).

    Phase-1 simplex with Bland's rule over exact rationals; dimensions here
    are tiny (rows = orbit count, cols = isotypic count).
    """
    s = len(b)
    h = len(A[0]) if A else 0
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    for i in range(s):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    ncols = h + s
    # Tableau: originals then artificials (identity); basis = artificials.
    T = [rows[i] + [Fraction(int(i == j)) for j in range(s)] for i in range(s)]
    basis = list(range(h, h + s))
    cost = [Fraction(0)] * h + [Fraction(1)] * s

    def reduced_costs() -> list[Fraction]:
        r = list(cost)
        for i, bi in enumerate(basis):
            cb = cost[bi]
            if cb:
                for j in range(ncols):
                    r[j] -= cb * T[i][j]
        return r

    while True:
        r = reduced_costs()
        enter = next((j for j in range(ncols) if r[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(s):
            if T[i][enter] > 0:
                ratio = rhs[i] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave is None:
            break  # unbounded cannot happen in phase 1; cautious exit
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        rhs[leave] /= piv
        for i in range(s):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * bb for a, bb in zip(T[i], T[leave])]
                rhs[i] -= f * rhs[leave]
        basis[leave] = enter

    value = sum(cost[bi] * rhs[i] for i, bi in enumerate(basis))
    if value != 0:
        return None
    out = [Fraction(0)] * h
    for i, bi in enumerate(basis):
        if bi < h:
            out[bi] = rhs[i]
    return out


# ---------------------------------------------------------------------------
# Cone construction and membership
# ---------------------------------------------------------------------------

def _cone(part: EdgeOrbitPartition, units: Iterable[np.ndarray]) -> ConeModel:
    """The cone of one unit vector per isotypic, drawn in component order.

    Each is scaled to squared norm n/2, the normalization under which a
    cosine character vector on a circulant has integer orbit energies.
    """
    graph = part.graph
    reps = tuple(phi * np.sqrt(graph.n / 2.0) for phi in units)
    gens = tuple(orbit_energy(part, phi) for phi in reps)
    if any(np.max(g) <= 0 for g in gens):
        raise ValueError("zero orbit-energy generator; eigenvector is constant")
    return ConeModel(gens, reps, part)


def build_cone(
    dec: IsotypicDecomposition,
    part: EdgeOrbitPartition,
    seed: int = 0,
) -> ConeModel:
    """One representative per isotypic; generators are their orbit energies.

    Component k's representative is drawn with seed + k. Requires every
    multiplicity to be one: representative_vector raises MultiplicityNotOne.
    """
    return _cone(part, (representative_vector(c, part, seed + k)
                        for k, c in enumerate(dec.components)))


def subcone_model(
    dec: IsotypicDecomposition,
    part: EdgeOrbitPartition,
    seed: int = 0,
) -> ConeModel:
    """Opportunistic sub-cone for decompositions with multiplicities > 1.

    One random unit vector per component, projected from R^n; the resulting
    cone is contained in the full orbit-energy image, so membership still
    yields a certificate, but failure proves nothing.
    """
    rng = np.random.default_rng(seed)

    def draw(comp: IsotypicComponent) -> np.ndarray:
        if comp.mult == 1:
            return representative_vector(comp, part, seed)
        phi = comp.basis @ (comp.basis.T @ rng.standard_normal(part.graph.n))
        return phi / np.linalg.norm(phi)

    return _cone(part, map(draw, dec.components))


def solve_cone_membership(cone: ConeModel) -> ConeSolution:
    """Decide whether the orbit-size vector lies in the generator cone.

    Rationalizes all generator entries behind a two-tier gate and runs exact
    phase-1 simplex: a returned solution (or infeasibility verdict) is then a
    theorem about the rationalized data. When entries do not rationalize
    safely, falls back to nonnegative least squares accepted at residual
    1e-10, and the solution is not exact. Rationalizing stops at the first
    entry that fails the gate, since one such entry already rules out the
    exact route.
    """
    G = np.column_stack(cone.generators)
    target = cone.part.size_vector
    fracs = list(takewhile(lambda f: f is not None, map(rationalize_tight, G.flat)))
    if len(fracs) == G.size:
        h = G.shape[1]
        rows = [fracs[i:i + h] for i in range(0, G.size, h)]
        b = [Fraction(x).limit_denominator(MAX_DENOMINATOR) for x in target]
        sol = exact_nonneg_solve(rows, b)
        if sol is None:
            return ConeSolution(False, (), True, float("inf"))
        resid = float(np.max(np.abs(G @ np.array([float(a) for a in sol]) - target)))
        return ConeSolution(True, tuple(sol), True, resid)
    a, _ = nnls(G, target)
    resid = float(np.max(np.abs(G @ a - target)))
    feasible = resid <= 1e-10 * float(np.max(np.abs(target)))
    coeffs = tuple(float(x) for x in a) if feasible else ()
    return ConeSolution(feasible, coeffs, False, resid)


def assemble_certificate(
    cone: ConeModel,
    solution: ConeSolution,
    cluster: EigenspaceCluster,
) -> ConicCertificate:
    """Combine representatives into phi = sum sqrt(a_j) phi_j.

    Orbit energies add across isotypics, so l_Psi(phi) must equal the
    orbit-size vector; ResidualTooLarge flags solver/decomposition mismatch,
    and a negative coefficient.
    """
    coeffs = solution.coeffs
    graph = cone.part.graph
    phi = np.zeros(graph.n)
    for a, rep in zip(coeffs, cone.reps):
        af = float(a)
        if af < 0:
            raise ResidualTooLarge("negative cone coefficient")
        if af > 0:
            phi = phi + np.sqrt(af) * rep
    en = orbit_energy(cone.part, phi)
    target = cone.part.size_vector
    orbit_residual = float(np.max(np.abs(en - target)))
    scale = float(np.max(np.abs(target)))
    if orbit_residual > ASSEMBLY_TOL * max(1.0, scale):
        raise ResidualTooLarge(
            f"assembled orbit energies miss the target by {orbit_residual:.3e}"
        )
    L = laplacian(graph, np.ones(graph.m))
    eigen_residual = float(np.linalg.norm(L @ phi - cluster.value * phi))
    return ConicCertificate(
        coeffs=tuple(coeffs),
        reps=cone.reps,
        phi=phi,
        lam=float(cluster.value),
        eigen_residual=eigen_residual,
        orbit_residual=orbit_residual,
        exact=solution.exact,
    )


# ---------------------------------------------------------------------------
# One HiGHS solver per thread, one run per LP
# ---------------------------------------------------------------------------

# scipy.optimize.linprog's HiGHS settings for method="highs" with presolve
# off: dual simplex, no output. On a dense LP with one equality row or a few
# cut rows, presolve costs more than it saves.
HIGHS_OPTIONS = highs.HighsOptions()
HIGHS_OPTIONS.presolve = "off"
HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
HIGHS_OPTIONS.log_to_console = False
HIGHS_OPTIONS.output_flag = False
HIGHS_OPTIONS.simplex_strategy = int(
    highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
LP_TOL = 10 * np.sqrt(1e-9)  # scipy's check of a solution against its LP
_THREAD = threading.local()  # .solver: the thread's HiGHS solver


def _thread_solver():
    """This thread's HiGHS solver, built and given HIGHS_OPTIONS on first use."""
    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        solver = highs._Highs()
        if solver.passOptions(HIGHS_OPTIONS) == highs.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected HIGHS_OPTIONS")
        _THREAD.solver = solver
    return solver


def linprog(
    c: np.ndarray,
    A_ub: np.ndarray | Sequence = (),
    b_ub: Sequence[float] = (),
    A_eq: np.ndarray | Sequence = (),
    b_eq: Sequence[float] = (),
    bounds: Sequence = (0.0, None),
) -> OptimizeResult:
    """min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, bounds, by one HiGHS run.

    The LP is the one scipy.optimize.linprog(method="highs", options=
    {"presolve": False}) hands HiGHS, so x is the same to the bit: the A_ub
    rows, then the A_eq rows, the matrix column-wise without its zero
    entries, and None bounds infinite. bounds is one (lo, hi) pair for every
    column or one pair per column. Each thread keeps one solver, given the
    options once, since building one costs more than a small LP's simplex
    run. passModel clears the last LP's model, basis and solution, so every
    run starts cold. scipy's per-call option parsing and input checks are
    skipped; what certify passes needs neither.

    success is scipy's: HiGHS reports the model optimal, and x is within
    LP_TOL of its bounds and rows. x and fun are None when HiGHS does not
    report it optimal.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A = np.vstack([np.reshape(np.asarray(M, dtype=float), (-1, n)) for M in (A_ub, A_eq)])
    b_ub, b_eq = np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)
    k = b_ub.size
    lhs = np.concatenate([np.full(k, -highs.kHighsInf), b_eq])
    rhs = np.concatenate([b_ub, b_eq])
    lb, ub = np.broadcast_to(np.array(bounds, dtype=float), (n, 2)).T  # None: nan
    lb = np.where(np.isnan(lb), -highs.kHighsInf, lb)
    ub = np.where(np.isnan(ub), highs.kHighsInf, ub)
    nonzero = A.T != 0

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
    lp.row_lower_, lp.row_upper_ = lhs, rhs
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
    lp.a_matrix_.value_ = A.T[nonzero]
    solver, error = _thread_solver(), highs.HighsStatus.kError
    if (solver.passModel(lp) == error or solver.run() == error
            or solver.getModelStatus() != highs.HighsModelStatus.kOptimal):
        return OptimizeResult(x=None, fun=None, success=False)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)  # b - A x, rows in order
    success = not (
        np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
        or (x < lb - LP_TOL).any() or (x > ub + LP_TOL).any()
        or (slack[:k] < -LP_TOL).any() or (np.abs(slack[k:]) > LP_TOL).any()
    )
    return OptimizeResult(x=x, fun=fun, success=success)


# ---------------------------------------------------------------------------
# Disproof search: cutting planes + line search
# ---------------------------------------------------------------------------

def _cutting_plane_direction(
    part: EdgeOrbitPartition,
    basis: np.ndarray,
    kind: TargetKind,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Best perturbation direction y in orbit space and its guarantee t.

    Solves max t s.t. <y, l_Psi(phi)> >= t for all unit eigenspace phi
    (both sides times kind.sign, so reversed for UPPER), <y, O> = 0,
    |y|_inf <= 1, generating the worst-case phi by an eigenvector oracle on
    sum_o y_o B^T L_o B = D^T diag(y[labels]) D, D = B[us] - B[vs], built in
    O(m d^2) without the n x n orbit Laplacians L_o.

    For a one-column basis b (a simple eigenvalue) the unit eigenspace
    vectors are +-b, and both have the orbit energies g of the first cut.
    That cut is then the whole constraint set, so the direction is the
    one-row LP max sign*g.y s.t. <y, O> = 0, |y|_inf <= 1, with no t column
    and no operator or oracle. Its t is the guarantee y achieves on the cut,
    not the solver's objective, which may exceed it by the solver's
    tolerance. Each LP is one HiGHS dual simplex run without presolve, through
    this module's linprog. An LP that it does not solve, in either branch,
    gives the zero direction with guarantee 0, which find_disproof reads as
    no direction.
    """
    s = part.s
    d = basis.shape[1]
    sign = kind.sign

    if d == 1:
        cut = orbit_energy(part, basis[:, 0])
        res = linprog(
            c=-sign * cut,
            A_eq=part.size_vector[None, :],
            b_eq=[0.0],
            bounds=(-1.0, 1.0),
        )
        if not res.success:
            return np.zeros(s), 0.0
        return res.x, sign * float(cut @ res.x)

    def orbit_vec(x: np.ndarray) -> np.ndarray:
        return orbit_energy(part, basis @ x)

    us, vs = part.graph.endpoints
    D = basis[us] - basis[vs]
    cuts = [orbit_vec(np.eye(d)[:, j]) for j in range(d)]
    for _ in range(2):
        x = rng.standard_normal(d)
        cuts.append(orbit_vec(x / np.linalg.norm(x)))

    y = np.zeros(s)
    t = 0.0
    for _ in range(MAX_CUTS):
        A_ub = np.column_stack([-sign * np.stack(cuts), np.ones(len(cuts))])
        res = linprog(
            c=np.concatenate([np.zeros(s), [-1.0]]),
            A_ub=A_ub,
            b_ub=np.zeros(len(cuts)),
            A_eq=np.concatenate([part.size_vector, [0.0]])[None, :],
            b_eq=[0.0],
            bounds=[(-1.0, 1.0)] * s + [(None, None)],
        )
        if not res.success:
            return np.zeros(s), 0.0
        y = res.x[:s]
        t = float(res.x[s])
        if t <= EPS:
            return y, t
        M = D.T @ (y[part.labels][:, None] * D)
        lam, V = np.linalg.eigh(M)
        k = 0 if sign > 0 else -1  # where sign * lam is least
        worst, xw = sign * float(lam[k]), V[:, k]
        if worst >= t - 1e-9 * max(1.0, abs(t)):
            return y, t
        cuts.append(orbit_vec(xw))
    return y, t


def _interlacing_rejects(
    graph: Graph, D: np.ndarray, w: np.ndarray, thr: float, kind: TargetKind
) -> bool:
    """True when Cauchy interlacing proves that L(w) misses the threshold.

    D = Q[us] - Q[vs] for orthonormal columns Q, so H = D^T diag(w) D equals
    Q^T L(w) Q, and interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28)
    gives lambda_2(L) <= lambda_2(H) and lambda_max(L) >= lambda_max(H). The
    trial is rejected when lambda_2(H) < thr - slack (LOWER) or lambda_max(H)
    > thr + slack (UPPER). slack = 1e-9 max(1, ||L(w)||_F) is 10x the
    eigenvalue error that eig_sym's residual check admits (Weyl), so eig_sym
    would reject the trial too. A failed p x p eigensolve rejects nothing.
    """
    try:
        mu = np.linalg.eigvalsh(D.T @ (w[:, None] * D))
    except np.linalg.LinAlgError:
        return False
    us, vs = graph.endpoints
    deg = np.bincount(np.concatenate((us, vs)), np.concatenate((w, w)),
                      minlength=graph.n)
    slack = 1e-9 * max(1.0, float(np.sqrt(deg @ deg + 2.0 * (w @ w))))
    sign = kind.sign
    return sign * float(mu[kind.index]) < sign * thr - slack


def find_disproof(
    cluster: EigenspaceCluster,
    part: EdgeOrbitPartition,
    kind: TargetKind,
    seed: int = 0,
    spectrum: EigenDecomposition | None = None,
) -> Disproof | None:
    """Search for witness weights violating rigidity of the given target.

    Alternates cutting-plane directions with halving line searches, staying
    inside orbit-constant weights (symmetrization cannot hurt the objective,
    so nothing is lost). A trial must beat the current eigenvalue by MARGIN.
    Cauchy interlacing on the RITZ_DIM eigenvectors of the current weights
    nearest the target (the uniform ones, then the accepted trial's) bounds
    each trial first, and a trial it proves rejected gets no Laplacian and
    no eigensolve. That is exact: the bound's slack is 10x the eigenvalue
    error eig_sym admits, so it skips only trials that eig_sym would reject
    too, and the search takes the steps of one that solves every trial.
    Every other trial gets one checked eigensolve: a rejected one reads only
    its target eigenvalue, and the accepted one's decomposition is clustered
    for the next round's eigenspace basis.
    The search stops after an accepted round that gained less than STALL of
    the margin so far, before that round's eigenspace is clustered, and
    MAX_ROUNDS stays as a ceiling. The first accepted round gains its whole
    margin, so it never stalls, and STALL = 0 gives back the search that only
    MAX_ROUNDS ends. Stopping early is sound: any accepted witness beats the
    uniform eigenvalue by MARGIN, which is a proof that verify_disproof
    re-checks from the graph alone, and the margin is not part of the status
    contract. Later rounds only grow it. Acceptance criterion 01 (barbell
    LOWER achieved >= 0.70) and TestDisproof::test_barbell_lower keep a
    floor on its quality.
    Returns None when no strict direction exists at uniform weights; raises
    LineSearchFailed when a direction exists there but no step size realizes
    an improvement. A failed eigensolve raises ConvergenceFailure, or
    LinAlgError from the eigenvector oracle of a degenerate eigenvalue.
    spectrum, when given, is the uniform Laplacian's eigendecomposition that
    the caller already computed; otherwise it is computed here.
    """
    rng = np.random.default_rng(seed)
    graph = part.graph
    m = graph.m
    us, vs = graph.endpoints
    uniform = np.ones(m)
    idx, sign = kind.index, kind.sign
    ritz = slice(None, RITZ_DIM) if sign > 0 else slice(-RITZ_DIM, None)
    dec = spectrum if spectrum is not None else eig_sym(laplacian(graph, uniform))
    lam_base = float(dec.eigenvalues[idx])

    w = uniform.copy()
    lam_cur = lam_base
    basis = cluster.basis

    for round_no in range(MAX_ROUNDS):
        y, t = _cutting_plane_direction(part, basis, kind, rng)
        if t <= EPS:
            break
        dy = y[part.labels]
        Q = dec.eigenvectors[:, ritz]
        D = Q[us] - Q[vs]
        thr = lam_cur + sign * MARGIN
        accepted = None
        delta = DELTA_MAX
        while delta >= DELTA_MIN:
            # Sums to >= m - 1e-7: HiGHS holds <O, y> = 0, and clipping only raises.
            cand = np.clip(w + delta * dy, 0.0, None)
            cand *= m / float(cand.sum())
            if _interlacing_rejects(graph, D, cand, thr, kind):
                delta *= 0.5
                continue
            trial = eig_sym(laplacian(graph, cand))
            lam_c = float(trial.eigenvalues[idx])
            if sign * lam_c > sign * thr:
                accepted = (cand, lam_c, trial)
                break
            delta *= 0.5
        if accepted is None:
            if round_no == 0:
                raise LineSearchFailed(
                    f"direction with guarantee t={t:.3e} found, but no step "
                    f"improved the objective"
                )
            break
        # Each accepted step beats the last by MARGIN, so w is the best yet.
        gain = abs(accepted[1] - lam_cur)
        w, lam_cur, dec = accepted
        if gain < STALL * abs(lam_cur - lam_base):
            break  # stalled: no later round's eigenspace is needed
        try:
            basis = cluster_eigenspace(dec, kind).basis
        except AmbiguousCluster:
            # Fall back to the single extreme eigenvector.
            basis = dec.eigenvectors[:, [idx]]

    margin = sign * (lam_cur - lam_base)
    if margin <= MARGIN:
        return None  # no step was accepted
    return Disproof(w * (m / float(w.sum())), lam_cur, lam_base, margin)
