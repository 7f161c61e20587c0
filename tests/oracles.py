"""Reference implementations that tests check the library against.

Dense or checked forms of quantities the library computes another way:
a dense KL divergence, a symmetric eigendecomposition that first checks
symmetry, and principal angles between subspaces. No library path calls
them, so they live with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from spherelets.exceptions import DimensionError
from spherelets.numeric import SymEigResult, eig_desc


def kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    """sum_{i != j} p_ij log(p_ij / q_ij); zero-p terms contribute nothing,
    a zero q under positive p yields inf."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise DimensionError(f"shape mismatch {P.shape} vs {Q.shape}")
    mask = P > 0.0
    np.fill_diagonal(mask, False)
    if np.any(Q[mask] == 0.0):
        return math.inf
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def sym_eig(S: np.ndarray) -> SymEigResult:
    """Full eigendecomposition of a symmetric real matrix, or of a stack
    of them.

    Parameters
    ----------
    S : (..., n, n) array
        Each matrix symmetric within a relative Frobenius tolerance of 1e-10.

    Returns
    -------
    SymEigResult with eigenvalues in decreasing order. Each eigenvector is
    scaled so its largest-magnitude entry is positive, which makes
    downstream fits reproducible across runs and platforms. A stack gives
    stacked eigenpairs, each matrix treated on its own.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {S.shape}")
    St = np.swapaxes(S, -1, -2)
    asym = np.linalg.norm(S - St, axis=(-2, -1))
    bad = asym > 1e-10 * (1.0 + np.linalg.norm(S, axis=(-2, -1)))
    if np.any(bad):
        raise DimensionError(f"matrix is not symmetric (|S-S^T|={np.max(asym[bad]):.3e})")
    # eigh works on the symmetrized matrix so tiny asymmetries cannot leak in
    return eig_desc(0.5 * (S + St))


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between spans of two
    orthonormal column frames.

    Computed from sines (singular values of (I - BB')A), which stays
    accurate for tiny angles where the cosine formulation saturates
    around sqrt(eps).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    resid = A - B @ (B.T @ A)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.sort(np.arcsin(np.clip(s, 0.0, 1.0)))
