"""Symmetric eigensolves and eigenvalue clustering.

All downstream certification logic works with an orthonormal basis of an
eigenvalue cluster (eigenvectors whose eigenvalues are equal to working
precision), so the clustering rules here are shared across the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphcore import Graph, laplacian

CLUSTER_TOL = 1e-8


class NotSymmetric(ValueError):
    """Matrix fails the symmetry check."""


class ConvergenceFailure(RuntimeError):
    """The underlying eigensolver did not converge."""


class AmbiguousCluster(ValueError):
    """No clean spectral gap separates the requested eigenvalue cluster."""


class TargetKind(Enum):
    LOWER = "LOWER"
    UPPER = "UPPER"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending, eigenvectors orthonormal in matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class EigenspaceCluster:
    """Orthonormal basis (columns) for a cluster around a target eigenvalue."""

    value: float
    basis: np.ndarray


def eig_sym(A: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with a residual guarantee.

    Rejects matrices whose asymmetry exceeds 1e-12 relative to their norm and
    checks ||A V - V diag(lam)|| <= 1e-10 ||A|| afterwards.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    norm = float(np.linalg.norm(A))
    asym = float(np.linalg.norm(A - A.T))
    if asym > 1e-12 * max(1.0, norm):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    As = 0.5 * (A + A.T)
    try:
        lam, V = np.linalg.eigh(As)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    resid = float(np.linalg.norm(As @ V - V * lam))
    if resid > 1e-10 * max(1.0, norm):
        raise ConvergenceFailure(
            f"eigensolve residual {resid:.3e} exceeds 1e-10 * ||A||"
        )
    return EigenDecomposition(lam, V)


def cluster_eigenspace(
    dec: EigenDecomposition,
    kind: TargetKind,
    tol: float = CLUSTER_TOL,
) -> EigenspaceCluster:
    """Collect the eigenvalue cluster at lambda_2 (LOWER) or lambda_max (UPPER).

    Membership: |lam_k - lam_ref| <= tol * max(1, lam_max). The cluster must
    be separated from the rest of the spectrum by a gap larger than 10x the
    effective tolerance, otherwise AmbiguousCluster is raised.
    """
    lam = dec.eigenvalues
    n = lam.size
    if n < 2:
        raise ValueError("need at least a 2x2 spectrum")
    scale = max(1.0, float(lam[-1]))
    eff = tol * scale
    if kind is TargetKind.LOWER:
        ref = float(lam[1])
        # Index 0 is the Laplacian kernel; it never joins the cluster.
        members = [k for k in range(1, n) if abs(lam[k] - ref) <= eff]
    else:
        ref = float(lam[-1])
        members = [k for k in range(n) if abs(lam[k] - ref) <= eff]
    members_set = set(members)
    gaps = [abs(float(lam[k]) - ref) for k in range(n) if k not in members_set]
    gap = min(gaps) if gaps else np.inf
    if gap <= 10.0 * eff:
        raise AmbiguousCluster(
            f"gap {gap:.3e} around eigenvalue {ref:.12g} is within 10x tolerance {eff:.3e}"
        )
    basis = dec.eigenvectors[:, members]
    # Re-orthonormalize: eigh output is orthonormal, but be safe under clustering.
    q, _ = np.linalg.qr(basis)
    return EigenspaceCluster(value=ref, basis=q)


def target_cluster(dec: EigenDecomposition, target: TargetKind) -> EigenspaceCluster:
    """The target's eigenvalue cluster, retried at CLUSTER_TOL / 100.

    Raises AmbiguousCluster when neither tolerance finds a clean gap.
    """
    for tol in (CLUSTER_TOL, CLUSTER_TOL / 100.0):
        try:
            return cluster_eigenspace(dec, target, tol)
        except AmbiguousCluster as exc:
            err = exc
    raise err


def laplacian_spectrum(graph: Graph, w) -> EigenDecomposition:
    return eig_sym(laplacian(graph, w))
