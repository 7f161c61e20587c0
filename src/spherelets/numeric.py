"""Shared numeric kernels: symmetric eigendecomposition, k-nearest
neighbors, pairwise distances, seeded Gaussian noise.

Everything here is a pure function of its arguments; results never alias
their inputs, so values can be shared freely across threads.

``knn_indices`` is exact without computing all n^2 distances: it cuts the
rows into k-d leaves, bounds each row's k-th distance by its k-th
distance within its own leaf plus a rounding slack, and computes each
leaf's distances only to the rows inside the box those bounds span. It
holds at most about ``KNN_BLOCK`` distances at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError

# knn_indices holds about this many distances at a time (8 MiB of float64)
KNN_BLOCK = 1 << 20
# and cuts the rows into k-d leaves of at most this many rows
KNN_LEAF = 128


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

    The rows are cut into k-d leaves of at most ``KNN_LEAF`` rows (and at
    least k + exclude_self). A row's k-th distance within its own leaf,
    plus a rounding slack, bounds its k-th distance over all rows, so a
    leaf's rows need only the candidates inside its box: the per-axis
    extent of all its rows' bound balls. Candidate distances are computed
    by the same expression as in a full scan, so the result is the full
    scan's wherever BLAS gives a distance the same value in every block
    shape (not guaranteed where rounding decides the order). Leaves whose
    box holds every row, and input that is not all finite, are scanned
    against every row.

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
    # The slack. With M the largest row norm, every intermediate of
    # pairwise_sq_dists is at most 4 M^2 and collects at most D + 2
    # roundings, so a computed squared distance is within 8 (D + 2) eps M^2
    # of the exact one (plus `tiny` for underflow), and as
    # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), a computed distance is within
    # delta = sqrt(8 (D + 2) eps) M of the exact one. If row i's k-th
    # distance within its leaf computes to b, its exact k-th distance over
    # all rows is at most b + delta and its computed one at most
    # b + 2 delta. A row outside the box lies farther than b + 3 delta on
    # some axis, so its computed distance exceeds b + 2 delta: it can be
    # neither selected nor tied. A fourth delta covers the rounding of the
    # box edges (about eps M).
    with np.errstate(over="ignore"):
        m2 = np.max(np.sum(X * X, axis=1), initial=0.0)
        delta = np.sqrt(8.0 * (X.shape[1] + 2) * np.finfo(float).eps * m2 + np.finfo(float).tiny)
        prune = bool(X.size and np.isfinite(X).all() and np.isfinite(4.0 * m2))
    out = np.empty((n, k), dtype=np.intp)
    everyone, scan = np.arange(n), []
    for leaf in _kd_leaves(X, k + exclude_self) if prune else [everyone]:
        cand = everyone if leaf.size == n else _box_rows(X, leaf, k, exclude_self, 4.0 * delta)
        if cand.size < n:
            _select(X, leaf, cand, k, exclude_self, out)
        else:
            scan.append(leaf)
    if scan:  # in full-width blocks, as without pruning
        _select(X, np.sort(np.concatenate(scan)), everyone, k, exclude_self, out)
    return out


def _kd_leaves(X: np.ndarray, min_rows: int) -> list[np.ndarray]:
    """Sorted row indices of X's k-d leaves: a cell of more than
    ``KNN_LEAF`` rows splits at the median of its widest axis, unless a
    half would get fewer than `min_rows` rows."""
    leaves, cells = [], [np.arange(X.shape[0])]
    while cells:
        cell = cells.pop()
        half = cell.size // 2
        if cell.size <= KNN_LEAF or half < min_rows:
            leaves.append(np.sort(cell))
            continue
        P = X[cell]
        part = np.argpartition(P[:, np.argmax(np.ptp(P, axis=0))], half)
        cells += [cell[part[:half]], cell[part[half:]]]
    return leaves


def _box_rows(X: np.ndarray, leaf: np.ndarray, k: int, exclude_self: bool,
              slack: float) -> np.ndarray:
    """Rows of X inside the leaf's box: per axis, the extent of the balls
    around its rows whose radius is the row's k-th distance within the
    leaf plus `slack`."""
    r = np.concatenate([np.partition(dist, k - 1, axis=1)[:, k - 1]
                        for _, dist in _distance_blocks(X, leaf, leaf, exclude_self)])
    P, r = X[leaf], r[:, None] + slack
    inside = (X >= (P - r).min(axis=0)) & (X <= (P + r).max(axis=0))
    return np.flatnonzero(inside.all(axis=1))


def _select(X: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int, exclude_self: bool,
            out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of the candidate rows `cand`
    (sorted, holding each of `rows` and its k nearest)."""
    for sub, dist in _distance_blocks(X, rows, cand, exclude_self):
        sel = np.argpartition(dist, k - 1, axis=1)[:, :k]
        sel.sort(axis=1)  # so the stable sort below breaks ties by index
        sel_d = np.take_along_axis(dist, sel, axis=1)
        kth = sel_d.max(axis=1)
        order = np.argsort(sel_d, axis=1, kind="stable")
        out[sub] = cand[np.take_along_axis(sel, order, axis=1)]
        # the selection is unique unless more than k entries reach the
        # k-th distance (or NaN spoils the comparison)
        tied = np.count_nonzero(dist <= kth[:, None], axis=1) != k
        for r in np.nonzero(tied)[0]:
            out[sub[r]] = cand[np.argsort(dist[r], kind="stable")[:k]]


def _distance_blocks(X: np.ndarray, rows: np.ndarray, cols: np.ndarray, exclude_self: bool):
    """Distances from X[rows] to X[cols] (sorted, holding each of `rows`)
    in blocks of about ``KNN_BLOCK``: yields (row indices, block); with
    `exclude_self` a row's distance to itself is inf."""
    Xc = X[cols]
    step = max(1, KNN_BLOCK // cols.size)
    for lo in range(0, rows.size, step):
        sub = rows[lo : lo + step]
        dist = np.sqrt(pairwise_sq_dists(X[sub], Xc))
        if exclude_self:
            dist[np.arange(sub.size), np.searchsorted(cols, sub)] = np.inf
        yield sub, dist


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
