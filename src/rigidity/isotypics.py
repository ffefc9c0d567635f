"""Isotypic decomposition of Laplacian eigenspaces under a symmetry group.

The decomposition drives both the multiplicity-bound test (which guarantees a
rank-1 certificate exists if the numerical problem is feasible) and the
polyhedral-cone exact route (which needs every isotypic to have multiplicity
one). Splitting uses the commutant of the group action, the matrices that
commute with every generator: by Schur's lemma a random symmetric element of
the commutant acts as a scalar on every irreducible summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectra import EigenspaceCluster
from .symmetry import EdgeOrbitPartition, GroupGenerators, _UnionFind, orbit_energy


class UnstableSplit(RuntimeError):
    """Random commutant refinement failed to stabilize."""


class MultiplicityNotOne(ValueError):
    """Operation requires an isotypic component of multiplicity one."""


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic component of an eigenspace.

    basis holds vertex-space coordinates (n x d*m), coords the same columns
    expressed in the eigenspace basis (dim x d*m). irr_dim is the real
    dimension of the underlying irreducible, mult its multiplicity, endo_dim
    the dimension of its endomorphism field (1, 2, 4 for R, C, H).
    """

    basis: np.ndarray
    coords: np.ndarray
    irr_dim: int
    mult: int
    endo_dim: int


@dataclass(frozen=True)
class IsotypicDecomposition:
    components: tuple[IsotypicComponent, ...]
    residual: float


def _generator_action(cluster: EigenspaceCluster, gens: GroupGenerators) -> list[np.ndarray]:
    """R_g = B^T P_g B for every generator; checks the eigenspace is invariant."""
    B = cluster.basis
    d = B.shape[1]
    mats = []
    for sigma in gens.gens:
        PB = np.empty_like(B)
        PB[list(sigma.image), :] = B
        R = B.T @ PB
        resid = float(np.linalg.norm(PB - B @ R))
        if resid > 1e-8 * max(1.0, np.sqrt(d)):
            raise ValueError(
                f"eigenspace is not invariant under the group (residual {resid:.3e})"
            )
        mats.append(R)
    return mats


def _commutant(mats: Sequence[np.ndarray], d: int) -> np.ndarray:
    """Orthonormal basis of the d x d matrices commuting with every R in mats.

    Columns are column-stacked matrices spanning the nullspace of the Gram
    matrix sum K^T K, K = I (x) R - R^T (x) I. Commuting with the generators
    is commuting with the whole group, so no group element is enumerated.
    """
    if not mats or d == 1:
        return np.eye(d * d)  # trivial group or 1 x 1: every matrix commutes
    eye = np.eye(d)
    gram = np.zeros((d * d, d * d))
    for R in mats:
        K = np.kron(eye, R) - np.kron(R.T, eye)
        gram += K.T @ K
    lam, V = np.linalg.eigh(gram)
    return V[:, lam <= 1e-9 * max(1.0, float(lam[-1]))]


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


def isotypic_decompose(
    cluster: EigenspaceCluster,
    gens: GroupGenerators,
    seed: int = 0,
) -> IsotypicDecomposition:
    """Decompose an eigenspace into isotypic components.

    The commutant of the generators' action on the eigenspace is solved for
    once. Random symmetric matrices are projected onto it; eigenspaces of the
    projection are invariant subspaces, and repeating with fresh draws refines
    them to irreducible summands. Summands are merged into isotypics when a
    projected cross-map between them is nonzero, and the endomorphism
    dimension is the commutant dimension of one summand per isotypic. Raises
    UnstableSplit when refinement keeps changing, ValueError when the
    eigenspace is not invariant under a generator.
    """
    B = cluster.basis
    d = B.shape[1]
    rng = np.random.default_rng(seed)
    mats = _generator_action(cluster, gens)
    N = _commutant(mats, d)

    def random_commutant() -> np.ndarray:
        X = rng.standard_normal((d, d))
        return _project(N, 0.5 * (X + X.T))

    # Round 0 splits, then refine until five consecutive draws change nothing.
    subspaces: list[np.ndarray] = [np.eye(d)]
    stable = 0
    rounds = 0
    while stable < 5:
        rounds += 1
        if rounds > 12:
            raise UnstableSplit("commutant refinement did not stabilize")
        M = random_commutant()
        new_subspaces: list[np.ndarray] = []
        changed = False
        for Q in subspaces:
            if Q.shape[1] == 1:
                new_subspaces.append(Q)
                continue
            blocks = _split_by_eigenvalues(Q.T @ M @ Q)
            if len(blocks) > 1:
                changed = True
            new_subspaces.extend(Q @ blk for blk in blocks)
        subspaces = new_subspaces
        if changed:
            if rounds > 6:
                raise UnstableSplit("subspaces still splitting after six rounds")
            stable = 0
        else:
            stable += 1

    # Merge isomorphic summands via projected cross-maps (Schur's lemma).
    k = len(subspaces)
    summands = _UnionFind(k)
    for a in range(k):
        for b in range(a + 1, k):
            Qa, Qb = subspaces[a], subspaces[b]
            if Qa.shape[1] != Qb.shape[1] or summands.same(a, b):
                continue
            X = rng.standard_normal((d, d))
            H = _project(N, Qb @ Qb.T @ X @ Qa @ Qa.T)
            T = Qb.T @ H @ Qa
            if np.linalg.norm(T) > 1e-6 * d:
                summands.union(a, b)

    groups: dict[int, list[int]] = {}
    for i, label in enumerate(summands.labels()):
        groups.setdefault(label, []).append(i)

    components = []
    for members in groups.values():
        dims = {subspaces[i].shape[1] for i in members}
        if len(dims) != 1:
            raise UnstableSplit("isomorphic summands of unequal dimension")
        irr_dim = dims.pop()
        Q = np.column_stack([subspaces[i] for i in members])
        endo = _endo_dim(mats, subspaces[members[0]])
        if endo not in (1, 2, 4):
            raise UnstableSplit(
                f"endomorphism dimension {endo} is not 1, 2, or 4; summand is reducible"
            )
        components.append(
            IsotypicComponent(
                basis=B @ Q,
                coords=Q,
                irr_dim=irr_dim,
                mult=len(members),
                endo_dim=endo,
            )
        )

    components.sort(
        key=lambda c: (c.irr_dim, c.mult, np.round(c.basis @ c.basis.T, 9).tobytes())
    )
    proj_sum = sum(c.coords @ c.coords.T for c in components)
    residual = float(np.linalg.norm(proj_sum - np.eye(d)))
    return IsotypicDecomposition(tuple(components), residual)


def _endo_dim(mats: Sequence[np.ndarray], Q: np.ndarray) -> int:
    """Dimension of the commutant of the action restricted to one summand."""
    return _commutant([Q.T @ R @ Q for R in mats], Q.shape[1]).shape[1]


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
    e1 = orbit_energy(part.graph, part, phi)
    e2 = orbit_energy(part.graph, part, other)
    scale = max(1.0, float(np.max(np.abs(e1))))
    if np.max(np.abs(e1 - e2)) > 1e-9 * scale:
        raise UnstableSplit(
            "orbit energy varies across representatives; component is not "
            "a multiplicity-one isotypic for this group"
        )
    return phi
