"""Shared numeric kernels: symmetric eigendecomposition, row dot products
and squared norms, exact scaling to unit scale, k-nearest neighbors,
pairwise distances, seeded Gaussian noise.

Everything here is a pure function of its arguments; results never alias
their inputs, so values can be shared freely across threads.

``knn_indices`` is exact without computing all n^2 distances: it cuts the
rows into k-d leaves, bounds each row's k-th distance by its k-th
distance within its own leaf plus a rounding slack, and computes each
leaf's distances only to the rows inside the box those bounds span. It
holds at most about ``KNN_BLOCK`` distances at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError

# knn_indices holds about this many distances at a time (8 MiB of float64)
KNN_BLOCK = 1 << 20
# and cuts the rows into k-d leaves of at most this many rows
KNN_LEAF = 128
# row_dots adds rows narrower than this one column at a time
NARROW_ROW = 8


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


def eig_desc(S: np.ndarray) -> SymEigResult:
    """Eigenpairs of float matrices (..., n, n) that are exactly symmetric
    by construction, as scatter sums are: eigh reads only their lower
    triangle, so they are not checked. Eigenvalues decrease, and each
    eigenvector is signed so its largest-magnitude entry is positive, which
    makes downstream fits reproducible across runs and platforms."""
    w, Q = np.linalg.eigh(S)
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
    sq = row_dots(A, A)[:, None] + row_dots(B, B)[None, :] - 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0)


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of A and B (broadcast against each
    other): the values of np.sum(A * B, axis=-1), bit for bit.

    Rows narrower than ``NARROW_ROW`` are summed one column at a time,
    a0 b0 + a1 b1 + ... in order, which are the sums NumPy's reduction
    makes for them too, without its per-row cost; wider rows take that
    reduction."""
    D = A.shape[-1]
    if not 0 < D < NARROW_ROW:
        return np.sum(A * B, axis=-1)
    s = A[..., 0] * B[..., 0]
    for j in range(1, D):
        s += A[..., j] * B[..., j]
    return s


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
    diff = X - query[None, :]
    dist = np.sqrt(row_dots(diff, diff))
    order = np.argsort(dist, kind="stable")
    if exclude_self:
        zero = np.nonzero(dist[order] == 0.0)[0]
        if zero.size:
            order = np.delete(order, zero[0])
    sel = order[:k]
    return NeighborList(indices=sel.astype(int), distances=dist[sel])


def unit_scale(X: np.ndarray) -> tuple[np.ndarray, int]:
    """X scaled by 2^-e, e the ``np.frexp`` exponent of max |x|, and e.

    The scaling is exact, and the largest |x| of the copy lies in
    [1/2, 1), where squares neither overflow nor underflow; a length
    computed on it scales back exactly by ``np.ldexp(length, e)``. A copy
    of X and e = 0 when X is empty or not all finite.
    """
    X = np.asarray(X, dtype=float)
    if not (X.size and np.isfinite(X).all()):
        return X.copy(), 0
    e = int(np.frexp(np.max(np.abs(X)))[1])
    return np.ldexp(X, -e), e


def knn_indices(X: np.ndarray, k: int) -> np.ndarray:
    """Neighbor indices for every row of X at once; shape (n, k).

    Row i lists the k rows nearest to X[i] by increasing distance, ties
    broken by lower row index: the first k columns of a stable argsort of
    the row's distances, the row itself included.

    The rows are cut into k-d leaves of at most ``KNN_LEAF`` rows (and at
    least k). A row's k-th distance within its own leaf, plus a rounding
    slack, bounds its k-th distance over all rows, so a leaf's rows need
    only the candidates inside its box: the per-axis extent of all its
    rows' bound balls. Candidate distances are computed by the same
    expression as in a full scan, so the result is the full scan's
    wherever BLAS gives a distance the same value in every block shape
    (not guaranteed where rounding decides the order). Leaves whose box
    holds every row, and input that is not all finite, are scanned against
    every row; finite input is scaled exactly by a power of two.

    Rows are processed in blocks of about ``KNN_BLOCK`` distances, so
    memory beyond the (n, k) result is one block, not n x n. Each block
    selects with argpartition; a row whose k-th distance is tied with an
    unselected entry takes a stable argsort instead.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range [1, {n}]")
    X, _ = unit_scale(X)  # exact: the same order, no overflow
    prune = bool(X.size and np.isfinite(X).all())
    # The slack. With M the largest row norm, every intermediate of
    # pairwise_sq_dists is at most 4 M^2 and collects at most D + 2
    # roundings, so a computed squared distance is within 8 (D + 2) eps M^2
    # of the exact one (underflow errs far less: M >= 1/2 once scaled), and as
    # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), a computed distance is within
    # delta = sqrt(8 (D + 2) eps) M of the exact one. If row i's k-th
    # distance within its leaf computes to b, its exact k-th distance over
    # all rows is at most b + delta and its computed one at most
    # b + 2 delta. A row outside the box lies farther than b + 3 delta on
    # some axis, so its computed distance exceeds b + 2 delta: it can be
    # neither selected nor tied. A fourth delta covers the rounding of the
    # box edges (about eps M).
    m2 = np.max(row_dots(X, X), initial=0.0)
    delta = np.sqrt(8.0 * (X.shape[1] + 2) * np.finfo(float).eps * m2)
    out = np.empty((n, k), dtype=np.intp)
    everyone, scan = np.arange(n), []
    for leaf in _kd_leaves(X, k) if prune else [everyone]:
        cand = everyone if leaf.size == n else _box_rows(X, leaf, k, 4.0 * delta)
        if cand.size < n:
            _select(X, leaf, cand, k, out)
        else:
            scan.append(leaf)
    if scan:  # in full-width blocks, as without pruning
        _select(X, np.sort(np.concatenate(scan)), everyone, k, out)
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
        P = X.take(cell, axis=0)
        part = np.argpartition(P[:, np.argmax(np.ptp(P, axis=0))], half)
        cells += [cell[part[:half]], cell[part[half:]]]
    return leaves


def _box_rows(X: np.ndarray, leaf: np.ndarray, k: int, slack: float) -> np.ndarray:
    """Rows of X inside the leaf's box: per axis, the extent of the balls
    around its rows whose radius is the row's k-th distance within the
    leaf plus `slack`."""
    r = np.concatenate([np.partition(dist, k - 1, axis=1)[:, k - 1]
                        for _, dist in _distance_blocks(X, leaf, leaf)])
    P, r = X.take(leaf, axis=0), r[:, None] + slack
    inside = (X >= (P - r).min(axis=0)) & (X <= (P + r).max(axis=0))
    return np.flatnonzero(inside.all(axis=1))


def _select(X: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of the candidate rows `cand`
    (sorted, holding each of `rows` and its k nearest)."""
    for sub, dist in _distance_blocks(X, rows, cand):
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


def _distance_blocks(X: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Distances from X[rows] to X[cols] in blocks of about ``KNN_BLOCK``:
    yields (row indices, block)."""
    Xc = X.take(cols, axis=0)
    step = max(1, KNN_BLOCK // cols.size)
    for lo in range(0, rows.size, step):
        sub = rows[lo : lo + step]
        yield sub, np.sqrt(pairwise_sq_dists(X.take(sub, axis=0), Xc))


def seeded_rng(seed: int) -> np.random.Generator:
    """NumPy's default generator for a seed >= 0."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def seeded_gaussian(n: int, D: int, sigma: float, seed: int) -> np.ndarray:
    """n-by-D matrix of independent N(0, sigma^2) draws, reproducible by seed."""
    if not 0.0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma}")
    return seeded_rng(seed).normal(0.0, 1.0, size=(n, D)) * sigma
