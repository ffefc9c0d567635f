"""Semidefinite feasibility for isometric spectral embeddings.

The question "is there an eigenspace embedding whose edge (or orbit) energies
hit prescribed targets" is a small SDP feasibility problem in the Gram matrix
Z of the embedding coordinates. It is solved with Dykstra-corrected
alternating projections between the PSD cone and the affine constraint set;
no external solver is involved. The pipeline never asks it: where every
isotypic multiplicity is one, the cone LP decides the same question by Schur's
lemma, and above one the multiplicity bound, the sub-cone and the disproof
search take its place, since its verdict alone never decided a run.

Its size is that of the eigenspace, not of the graph: s operators of d x d,
built from the m x d incidence form D = B[us] - B[vs] of the basis B, in
O(m d^2). One thin pseudo-inverse of the s x d^2 operator matrix, an SVD in
O(s d^4), then serves every affine projection.

It stays because tests/test_properties.py checks the cone against it, and
perfbench/spans.py::TRACED and its tests name compress_operators,
solve_feasibility and orbit_laplacian. No stage calls orbit_laplacian; the
tests keep it as the dense reference for the incidence form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphcore import EdgeOrbitPartition, laplacian
from .spectra import EigenspaceCluster

SDP_TOL = 1e-9
SDP_MAX_ITER = 50_000
# Relative singular-value cut of the operator matrix: the square root of the
# 1e-13 cut on its Gram matrix, whose singular values are the squares.
PINV_RCOND = float(np.sqrt(1e-13))


class SdpStatus(Enum):
    FEASIBLE = "FEASIBLE"
    LIKELY_INFEASIBLE = "LIKELY_INFEASIBLE"
    ITERATION_LIMIT = "ITERATION_LIMIT"


@dataclass(frozen=True)
class CompressedOperators:
    """Eigenspace-compressed constraint operators and their targets.

    ops is an (s, d, d) array: ops[o] is the operator of orbit o.
    """

    ops: np.ndarray
    targets: np.ndarray
    basis: np.ndarray

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class SdpResult:
    Z: np.ndarray | None
    status: SdpStatus
    max_residual: float
    iterations: int


def orbit_laplacian(part: EdgeOrbitPartition, orbit_id: int) -> np.ndarray:
    """Laplacian of the subgraph formed by one edge orbit, n x n and dense."""
    return laplacian(part.graph, part.labels == orbit_id)


def compress_operators(
    cluster: EigenspaceCluster,
    part: EdgeOrbitPartition,
) -> CompressedOperators:
    """Compress constraint Laplacians into the eigenspace: B^T L^i B.

    One operator per orbit, with the orbit size as its target; the trivial
    partition gives one operator per edge, each with target 1. With the
    incidence form D = B[us] - B[vs], an edge's operator is D_e D_e^T, so
    orbit o's is the sum of those over its edges, D_o^T D_o: O(m d^2) work
    and no n x n matrix.
    """
    B = cluster.basis
    us, vs = part.graph.endpoints
    D = B[us] - B[vs]
    ops = np.zeros((part.s, B.shape[1], B.shape[1]))
    np.add.at(ops, part.labels, D[:, :, None] * D[:, None, :])
    return CompressedOperators(ops, part.size_vector, B)


def _psd_clip(Z: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(0.5 * (Z + Z.T))
    lam = np.clip(lam, 0.0, None)
    return (V * lam) @ V.T


def _pinv(ops: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the operator matrix, cut at PINV_RCOND relative."""
    return np.linalg.pinv(ops, rcond=PINV_RCOND)


def _dykstra(
    ops: np.ndarray,
    targets: np.ndarray,
    d: int,
    tol: float,
    max_iter: int,
    z0: np.ndarray,
) -> SdpResult:
    """Dykstra alternating projections between the PSD cone and an affine set.

    ops is (k, d*d) with row i = vec of the i-th constraint operator. The
    affine projection is the least-norm correction z + ops^+ (t - ops z),
    through the pseudo-inverse of ops itself: one SVD of k x d^2, O(k d^4),
    cut at PINV_RCOND relative, which keeps the subspace that a 1e-13 cut
    on the k x k Gram ops ops^T keeps. FEASIBLE once a projected iterate
    satisfies both membership tests to tol; LIKELY_INFEASIBLE when the
    inter-set distance plateaus (relative drop < 1e-3 over 200 iterations)
    above 10*tol, or right away when the linear system itself is
    inconsistent.
    """
    ops_pinv = _pinv(ops)

    # An inconsistent affine system has no solution at all, PSD or not.
    if ops.size:
        z_ls = ops_pinv @ targets
        r0 = float(np.max(np.abs(ops @ z_ls - targets)))
        if r0 > 10.0 * tol:
            return SdpResult(None, SdpStatus.LIKELY_INFEASIBLE, r0, 0)

    def affine_project(Z: np.ndarray) -> np.ndarray:
        z = Z.reshape(-1)
        return (z + ops_pinv @ (targets - ops @ z)).reshape(d, d)

    x = z0.copy()
    p = np.zeros((d, d))
    q = np.zeros((d, d))
    dist_hist: list[float] = []
    for it in range(1, max_iter + 1):
        y = _psd_clip(x + p)
        p = x + p - y
        x = affine_project(y + q)
        q = y + q - x

        aff_res_y = float(np.max(np.abs(ops @ y.reshape(-1) - targets))) if ops.size else 0.0
        if aff_res_y <= tol:
            return SdpResult(y, SdpStatus.FEASIBLE, aff_res_y, it)
        aff_res_x = float(np.max(np.abs(ops @ x.reshape(-1) - targets))) if ops.size else 0.0
        min_eig_x = float(np.linalg.eigvalsh(0.5 * (x + x.T))[0])
        if min_eig_x >= -tol and aff_res_x <= tol:
            return SdpResult(x, SdpStatus.FEASIBLE, max(aff_res_x, -min_eig_x, 0.0), it)

        dist = float(np.linalg.norm(y - x))
        dist_hist.append(dist)
        if it >= 400 and dist > 10.0 * tol:
            prev = dist_hist[-201]
            if prev - dist < 1e-3 * dist:
                return SdpResult(None, SdpStatus.LIKELY_INFEASIBLE, dist, it)

    last = dist_hist[-1] if dist_hist else float("inf")
    return SdpResult(None, SdpStatus.ITERATION_LIMIT, last, max_iter)


def solve_feasibility(
    co: CompressedOperators,
    max_iter: int = SDP_MAX_ITER,
) -> SdpResult:
    """Decide feasibility of Z >= 0 with <L~^i, Z> = target_i to SDP_TOL.

    The iteration starts from the multiple of the identity whose total
    constraint value matches the total target.
    """
    tr = float(np.trace(co.ops, axis1=1, axis2=2).sum())
    c = float(np.sum(co.targets)) / tr if tr > 0 else 1.0
    ops = co.ops.reshape(len(co.ops), -1)
    return _dykstra(ops, co.targets, co.d, SDP_TOL, max_iter, c * np.eye(co.d))
