"""Shared numeric kernels: symmetric eigendecomposition, k-nearest
neighbors, pairwise distances, seeded Gaussian noise.

Everything here is a pure function of its arguments; results never alias
their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError

# knn_indices holds about this many distances at a time (8 MiB of float64)
KNN_BLOCK = 1 << 20


@dataclass(frozen=True)
class SymEigResult:
    """Eigenpairs of a symmetric matrix, sorted by decreasing eigenvalue.

    ``eigenvectors[..., :, i]`` belongs to ``eigenvalues[..., i]``; columns
    are orthonormal and sign-fixed (largest-magnitude entry positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class NeighborList:
    """Indices and ascending Euclidean distances of the k nearest rows."""

    indices: np.ndarray
    distances: np.ndarray


def sym_eig(S: np.ndarray, rtol: float = 1e-10) -> SymEigResult:
    """Full eigendecomposition of a symmetric real matrix, or of a stack
    of them.

    Parameters
    ----------
    S : (..., n, n) array
        Each matrix symmetric within `rtol` relative Frobenius tolerance.

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
    bad = asym > rtol * (1.0 + np.linalg.norm(S, axis=(-2, -1)))
    if np.any(bad):
        raise DimensionError(f"matrix is not symmetric (|S-S^T|={np.max(asym[bad]):.3e})")
    # eigh works on the symmetrized matrix so tiny asymmetries cannot leak in
    w, Q = np.linalg.eigh(0.5 * (S + St))
    w, Q = w[..., ::-1], Q[..., ::-1]  # eigh sorts ascending
    top = np.argmax(np.abs(Q), axis=-2)[..., None, :]
    Q = np.where(np.take_along_axis(Q, top, axis=-2) < 0, -Q, Q)
    return SymEigResult(eigenvalues=w.copy(), eigenvectors=Q)


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of A and rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.maximum(sq, 0.0)


def knn(
    X: np.ndarray,
    query: np.ndarray,
    k: int,
    exclude_self: bool = False,
) -> NeighborList:
    """k nearest rows of X to a query point, ties broken by lower row index.

    With ``exclude_self=True`` the single zero-distance row of lowest index
    (the query itself, when it is a row of X) is removed before selection.
    """
    X = np.asarray(X, dtype=float)
    query = np.asarray(query, dtype=float).ravel()
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if query.shape[0] != X.shape[1]:
        raise DimensionError(
            f"query has dimension {query.shape[0]}, data has {X.shape[1]}"
        )
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise ParameterError(f"k={k} out of range [1, {limit}]")

    # direct differences: the norm expansion would leave cancellation
    # residue on the self distance and break exact self-exclusion
    dist = np.linalg.norm(X - query[None, :], axis=1)
    order = np.argsort(dist, kind="stable")
    if exclude_self:
        zero = np.nonzero(dist[order] == 0.0)[0]
        if zero.size:
            order = np.delete(order, zero[0])
    sel = order[:k]
    return NeighborList(indices=sel.astype(int), distances=dist[sel])


def knn_indices(X: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """Neighbor indices for every row of X at once; shape (n, k).

    Row i lists the k rows nearest to X[i] by increasing distance, ties
    broken by lower row index: the first k columns of a stable argsort of
    the row's distances. With ``exclude_self=True`` row i never lists i.

    Rows are processed in blocks of about ``KNN_BLOCK`` distances, so
    memory beyond the (n, k) result is one block, not n x n. Each block
    selects with argpartition; a row whose k-th distance is tied with an
    unselected entry takes a stable argsort instead.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise ParameterError(f"k={k} out of range [1, {limit}]")
    out = np.empty((n, k), dtype=np.intp)
    step = max(1, KNN_BLOCK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        dist = np.sqrt(pairwise_sq_dists(X[rows], X))
        if exclude_self:
            dist[rows - lo, rows] = np.inf
        sel = np.argpartition(dist, k - 1, axis=1)[:, :k]
        sel.sort(axis=1)  # so the stable sort below breaks ties by index
        sel_d = np.take_along_axis(dist, sel, axis=1)
        kth = sel_d.max(axis=1)
        order = np.argsort(sel_d, axis=1, kind="stable")
        out[rows] = np.take_along_axis(sel, order, axis=1)
        # the selection is unique unless more than k entries reach the
        # k-th distance (or NaN spoils the comparison)
        tied = np.count_nonzero(dist <= kth[:, None], axis=1) != k
        for r in np.nonzero(tied)[0]:
            out[lo + r] = np.argsort(dist[r], kind="stable")[:k]
    return out


def seeded_gaussian(n: int, D: int, sigma: float, seed: int) -> np.ndarray:
    """n-by-D matrix of independent N(0, sigma^2) draws, reproducible by seed."""
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, D)) * sigma


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
