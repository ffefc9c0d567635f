"""Isotypic decomposition of Laplacian eigenspaces under a symmetry group.

The decomposition drives both the multiplicity-bound test (which guarantees a
rank-1 certificate exists if the numerical problem is feasible) and the
polyhedral-cone exact route (which needs every isotypic to have multiplicity
one). It works in the commutant of the group action, the matrices that
commute with every generator. The eigenspaces of one random symmetric
element of the commutant are irreducible summands (Murota, Kanno, Kojima &
Kojima, A numerical algorithm for block-diagonal decomposition of matrix
*-algebras, Japan J. Indust. Appl. Math. 2010). Schur's lemma then makes the
rest exact checks on that one commutant: a summand is irreducible exactly
when its diagonal block, End, is R, C or H, and two summands are isomorphic
exactly when the block between them holds a nonzero map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import EdgeOrbitPartition, orbit_energy
from .spectra import EigenspaceCluster
from .symmetry import GroupGenerators


class UnstableSplit(RuntimeError):
    """The eigenspace does not split into irreducibles under the group.

    Raised when a generator does not map the eigenspace into itself, when a
    summand's endomorphisms have a symmetric part beyond the scalars, and so
    hold the projector onto a smaller invariant subspace, or when summands
    found isomorphic differ in endomorphism field.
    """


class MultiplicityNotOne(ValueError):
    """Operation requires an isotypic component of multiplicity one."""


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic component of an eigenspace.

    basis holds orthonormal vertex-space coordinates (n x d*m). irr_dim is the
    real dimension of the underlying irreducible, mult its multiplicity,
    endo_dim the dimension of its endomorphism field (1, 2, 4 for R, C, H).
    """

    basis: np.ndarray
    irr_dim: int
    mult: int
    endo_dim: int


@dataclass(frozen=True)
class IsotypicDecomposition:
    components: tuple[IsotypicComponent, ...]
    residual: float


def _generator_action(cluster: EigenspaceCluster, gens: GroupGenerators) -> np.ndarray:
    """R_g = B^T P_g B for every generator, as one (k, d, d) array.

    P_g B, the basis moved by g, is one scatter of B's rows for all k
    generators at once, and the R_g and the invariance residuals
    ||P_g B - B R_g|| are stacked matmuls. Raises UnstableSplit, naming the
    first generator's residual that is too large, when the eigenspace is not
    invariant.
    """
    B = cluster.basis
    n, d = B.shape
    k = len(gens.gens)
    PB = np.empty((k, n, d))
    PB[np.arange(k)[:, None], gens.images] = B
    R = B.T @ PB
    PB -= B @ R
    resid = np.linalg.norm(PB, axis=(1, 2))
    bad = np.flatnonzero(resid > 1e-8 * max(1.0, np.sqrt(d)))
    if bad.size:
        raise UnstableSplit(
            f"eigenspace is not invariant under the group (residual {resid[bad[0]]:.3e})"
        )
    return R


def _commutant(mats: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis of the d x d matrices commuting with every R in mats.

    Columns are column-stacked matrices. The span starts as every matrix and
    shrinks one generator at a time: of the span's c basis matrices X_j, the
    combinations that commute with R are the nullspace of the c x c Gram
    matrix of the R X_j - X_j R. Commuting with the generators is commuting
    with the whole group, so no group element is enumerated, and the loop
    stops once only the scalars are left.
    """
    N = np.eye(d * d)
    for R in mats:
        if N.shape[1] == 1:
            break
        X = N.T.reshape(-1, d, d).transpose(0, 2, 1)
        K = (R @ X - X @ R).reshape(X.shape[0], -1)
        lam, V = np.linalg.eigh(K @ K.T)
        N = N @ V[:, lam <= 1e-9 * max(1.0, float(lam[-1]))]
    return N


def _project(N: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Orthogonal projection of X onto the commutant spanned by N.

    For an orthogonal action this equals the group average of R^T X R.
    """
    v = N @ (N.T @ X.reshape(-1, order="F"))
    return v.reshape(X.shape, order="F")


def _split_by_eigenvalues(M: np.ndarray, tol: float = 1e-7) -> list[np.ndarray]:
    lam, V = np.linalg.eigh(M)
    scale = max(1.0, float(np.max(np.abs(lam))))
    blocks = []
    start = 0
    for k in range(1, lam.size + 1):
        if k == lam.size or lam[k] - lam[k - 1] > tol * scale:
            blocks.append(V[:, start:k])
            start = k
    return blocks


def _endomorphism_field(blocks: np.ndarray) -> int:
    """Dimension of End(Q), spanned by the (c, k, k) blocks Q^T X Q of the
    commutant's orthonormal basis matrices X.

    X -> P X P, P = Q Q^T, is an orthogonal projection mapping the commutant
    into itself, so the block map's singular values are 0 or 1; the right
    singular vectors above 0.5 are an orthonormal basis of End(Q). By
    Schur's lemma Q is irreducible exactly when End(Q) is R, C or H. End(Q)
    holds the projector onto every invariant subspace of Q, so it must have
    no symmetric part beyond the scalars; a unit traceless symmetric element
    would give its orthonormal basis traceless symmetric parts of norm >= 1.
    """
    c, k, _ = blocks.shape
    _, sv, Vt = np.linalg.svd(blocks.reshape(c, k * k), full_matrices=False)
    X = Vt[sv > 0.5].reshape(-1, k, k)
    S = 0.5 * (X + X.transpose(0, 2, 1))
    S -= np.trace(S, axis1=1, axis2=2)[:, None, None] * (np.eye(k) / k)
    if np.linalg.norm(S) > 0.5 or len(X) not in (1, 2, 4):
        raise UnstableSplit(
            f"a {k}-dimensional summand is reducible: its commutant of "
            f"dimension {len(X)} is not R, C or H"
        )
    return len(X)


def isotypic_decompose(
    cluster: EigenspaceCluster,
    gens: GroupGenerators,
    seed: int = 0,
) -> IsotypicDecomposition:
    """Decompose an eigenspace into isotypic components.

    The commutant N of the generators' action on the eigenspace is solved for
    once, and every later test reads its blocks. The eigenspaces of one
    random symmetric matrix projected onto it are invariant, and irreducible
    for a generic draw; the seed feeds only this draw. Each summand Q is then
    proven irreducible, and its endo_dim found, by _endomorphism_field on
    the blocks Q^T X Q. Summands a and b are isomorphic exactly when
    ||(Q_a (x) Q_b)^T N||_2 > 0.5: the blocks Q_b^T X Q_a are the
    intertwiners from a to b, so the norm is at least 1 when an isometric
    one exists and 0 when none does. Each summand is compared only with the
    first member of each isomorphism class found so far.
    Raises UnstableSplit when the eigenspace is not invariant under a
    generator, a summand is reducible or isomorphic summands disagree.
    Components sort by (irr_dim, mult) and then by the bytes of the rounded
    projector, with -0.0 made 0.0 so the sign of a roundoff-sized entry
    cannot reorder them.
    """
    B = cluster.basis
    d = B.shape[1]
    N = _commutant(_generator_action(cluster, gens), d)
    X = np.random.default_rng(seed).standard_normal((d, d))
    summands = _split_by_eigenvalues(_project(N, 0.5 * (X + X.T)))
    commutant = N.T.reshape(-1, d, d).transpose(0, 2, 1)
    endos = [_endomorphism_field(Q.T @ commutant @ Q) for Q in summands]

    classes: list[list[int]] = []
    for a, Qa in enumerate(summands):
        for members in classes:
            Qb = summands[members[0]]
            if Qa.shape == Qb.shape and np.linalg.norm(
                    (Qb.T @ commutant @ Qa).reshape(len(commutant), -1), 2) > 0.5:
                members.append(a)
                break
        else:
            classes.append([a])

    components = []
    for members in classes:
        if len({endos[i] for i in members}) != 1:
            raise UnstableSplit("isomorphic summands with unequal endomorphism fields")
        components.append(
            IsotypicComponent(
                basis=B @ np.column_stack([summands[i] for i in members]),
                irr_dim=summands[members[0]].shape[1],
                mult=len(members),
                endo_dim=endos[members[0]],
            )
        )

    components.sort(
        key=lambda c: (
            c.irr_dim, c.mult, (np.round(c.basis @ c.basis.T, 9) + 0.0).tobytes()
        )
    )
    Q = np.column_stack(summands)
    residual = float(np.linalg.norm(Q @ Q.T - np.eye(d)))
    return IsotypicDecomposition(tuple(components), residual)


def multiplicity_bound_ok(dec: IsotypicDecomposition) -> bool:
    """True iff every component satisfies mult <= irr_dim / endo_dim.

    This is the convex-image condition: when it holds, the orbit energies of
    the eigenspace form a convex cone, so a feasible isometric embedding can
    be rounded to a single-eigenvector certificate.
    """
    return all(c.mult <= c.irr_dim // c.endo_dim for c in dec.components)


def all_multiplicity_one(dec: IsotypicDecomposition) -> bool:
    """Gate for the polyhedral-cone exact route: every multiplicity is 1."""
    return all(c.mult == 1 for c in dec.components)


def representative_vector(
    component: IsotypicComponent,
    part: EdgeOrbitPartition,
    seed: int = 0,
) -> np.ndarray:
    """A unit vector of a multiplicity-one component.

    For such components the orbit-energy vector depends only on the norm, so
    any unit representative carries the same energies; a second draw is
    checked against the first to 1e-9 before returning. Draws are projected
    from R^n, so they do not depend on the component's internal basis.
    """
    if component.mult != 1:
        raise MultiplicityNotOne(
            f"component has multiplicity {component.mult}; representative needs 1"
        )
    rng = np.random.default_rng(seed)
    Bc = component.basis

    def draw() -> np.ndarray:
        v = Bc @ (Bc.T @ rng.standard_normal(Bc.shape[0]))
        return v / np.linalg.norm(v)

    phi = draw()
    other = draw()
    e1 = orbit_energy(part, phi)
    e2 = orbit_energy(part, other)
    scale = max(1.0, float(np.max(np.abs(e1))))
    if np.max(np.abs(e1 - e2)) > 1e-9 * scale:
        raise UnstableSplit(
            "orbit energy varies across representatives; component is not "
            "a multiplicity-one isotypic for this group"
        )
    return phi
