"""Shared numeric kernels: symmetric eigendecomposition, row dot products
and squared norms, exact scaling to unit scale, k-nearest neighbors,
pairwise distances, seeded Gaussian noise.

Everything here is a pure function of its arguments; results never alias
their inputs, so values can be shared freely across threads.

``knn_indices`` is exact without computing all n^2 distances: it cuts the
rows into k-d leaves, bounds each row's k-th distance by its k-th
distance within its leaf, or within the leaf's parent cell when the leaf
has fewer than k rows, plus a rounding slack, and computes each leaf's
distances only to the rows inside the box those bounds span (~0.066 n^2
of them on the 4000-point spiral of the ``denoise`` benchmark). It writes
them a block of about ``KNN_BLOCK`` at a time into one workspace of two
blocks, allocated per call and never held between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, ParameterError

# knn_indices computes distances in blocks of about this many (8 MiB of
# float64), in a workspace of two blocks per call
KNN_BLOCK = 1 << 20
# and cuts the rows into k-d leaves of at most this many rows
KNN_LEAF = 48
# row_dots adds rows narrower than this one column at a time, and the
# knn_indices box test compares at most this many columns less one
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
    return _sq_dists(A, B, row_dots(A, A), row_dots(B, B))


def _sq_dists(A: np.ndarray, B: np.ndarray, a2: np.ndarray, b2: np.ndarray,
              out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """max((|a|^2 + |b|^2) - 2 (a . b), 0) for the rows a of A and b of B,
    given their squared norms a2 and b2, written into `out` with `tmp` as
    scratch (both (len(A), len(B)); fresh arrays when omitted). Negating
    2 (a . b) is exact, so adding it rounds as the subtraction does."""
    out = np.matmul(A, B.T, out=out)
    out *= -2.0
    out += np.add(a2[:, None], b2[None, :], out=tmp)
    return np.maximum(out, 0.0, out=out)


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

    The rows are cut into k-d leaves of at most ``KNN_LEAF`` rows; a cell
    splits only while each half keeps ceil(k/2) rows, so a leaf's parent
    cell holds at least k. A row's k-th distance within its leaf (within
    the parent cell when the leaf has fewer than k rows), plus a rounding
    slack, bounds its k-th distance over all rows, as the k-th distance
    within any k rows does. So a leaf's rows need only the candidates
    inside its box: on each of the (at most ``NARROW_ROW`` - 1) axes along
    which the rows spread widest, the extent of all its rows' bound balls.
    Candidate distances are computed by the same expression as in a full
    scan, so the result is the full scan's wherever BLAS gives a distance
    the same value in every block shape (not guaranteed where rounding
    decides the order). Leaves whose box holds every row, and input that
    is not all finite, are scanned against every row; finite input is
    scaled exactly by a power of two.

    Rows are processed in blocks of about ``KNN_BLOCK`` distances, each
    written in place into one workspace of two blocks, allocated per call
    at the size of the largest block so far, and the boxes of about
    ``KNN_BLOCK`` / n leaves are tested at once, so memory beyond the
    (n, k) result is about that, never n x n. Each block selects with
    argpartition; a row whose k-th distance is tied with an unselected
    entry takes a stable argsort instead.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range [1, {n}]")
    X, _ = unit_scale(X)  # exact: the same order, no overflow
    prune = bool(X.size and np.isfinite(X).all())
    pts = _Points(X)
    # The slack. With M the largest row norm, every intermediate of
    # _sq_dists is at most 4 M^2 and collects at most D + 2 roundings, so
    # a computed squared distance is within 8 (D + 2) eps M^2 of the exact
    # one (underflow errs far less: M >= 1/2 once scaled), and as
    # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), a computed distance is within
    # delta = sqrt(8 (D + 2) eps) M of the exact one. If row i's k-th
    # distance within k rows computes to b, its exact k-th distance over
    # all rows is at most b + delta and its computed one at most
    # b + 2 delta. A row outside the box lies farther than b + 3 delta on
    # some axis, so its computed distance exceeds b + 2 delta: it can be
    # neither selected nor tied. A fourth delta covers the rounding of the
    # box edges (about eps M).
    m2 = np.max(pts.sq, initial=0.0)
    delta = np.sqrt(8.0 * (X.shape[1] + 2) * np.finfo(float).eps * m2)
    out = np.empty((n, k), dtype=np.intp)
    everyone, scan = np.arange(n), []
    leaves = _kd_leaves(X, k) if prune else []
    if len(leaves) < 2:  # one leaf, or not all finite: every row is a candidate
        leaves, scan = [], [everyone]
    step = max(1, KNN_BLOCK // n)  # a box test of (leaves, n) holds about KNN_BLOCK
    for lo in range(0, len(leaves), step):
        group = leaves[lo : lo + step]
        for (leaf, _), cand in zip(group, _box_rows(pts, group, k, 4.0 * delta)):
            if cand.size < n:
                _select(pts, leaf, cand, k, out)
            else:
                scan.append(leaf)
    if scan:  # in full-width blocks, as without pruning
        _select(pts, np.sort(np.concatenate(scan)), everyone, k, out)
    return out


def _kd_leaves(X: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sorted row indices of X's k-d leaves, each with the cell that
    bounds its rows' k-th distances: the leaf itself when it holds k rows,
    else its parent. A cell of more than ``KNN_LEAF`` rows splits at the
    median of its widest axis, unless a half would get fewer than
    ceil(k/2) rows."""
    leaves, cells = [], [(np.arange(X.shape[0]), None)]
    while cells:
        cell, parent = cells.pop()
        half = cell.size // 2
        if cell.size <= KNN_LEAF or 2 * half < k:
            leaf = np.sort(cell)
            leaves.append((leaf, leaf if leaf.size >= k else np.sort(parent)))
            continue
        P = X.take(cell, axis=0)
        part = np.argpartition(P[:, np.argmax(np.ptp(P, axis=0))], half)
        cells += [(cell[part[:half]], cell), (cell[part[half:]], cell)]
    return leaves


def _box_rows(pts: _Points, leaves: list[tuple[np.ndarray, np.ndarray]], k: int,
              slack: float) -> list[np.ndarray]:
    """Rows inside each leaf's box: on each box axis, the extent of the
    balls around the leaf's rows whose radius is the row's k-th distance
    within the leaf's cell plus `slack`. The leaves' boxes are tested in
    one pass over the box columns."""
    radii = []
    for leaf, cell in leaves:
        for _, dist in pts.blocks(leaf, cell):
            dist.partition(k - 1, axis=1)  # the block is scratch
            radii.append(dist[:, k - 1] + slack)
    C, r = pts.columns, np.concatenate(radii)
    P = C.take(np.concatenate([leaf for leaf, _ in leaves]), axis=1)
    first = np.cumsum([0] + [leaf.size for leaf, _ in leaves[:-1]])
    lo, hi = np.minimum.reduceat(P - r, first, axis=1), np.maximum.reduceat(P + r, first, axis=1)
    inside = np.ones((len(leaves), C.shape[1]), dtype=bool)
    for c, a, b in zip(C, lo, hi):
        inside &= c >= a[:, None]
        inside &= c <= b[:, None]
    which, rows = np.nonzero(inside)
    return np.split(rows, np.cumsum(np.bincount(which, minlength=len(leaves)))[:-1])


def _select(pts: _Points, rows: np.ndarray, cand: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of the candidate rows `cand`
    (sorted, holding each of `rows` and its k nearest)."""
    for sub, dist in pts.blocks(rows, cand):
        at = np.arange(sub.size)[:, None]
        sel = np.argpartition(dist, k - 1, axis=1)[:, :k]
        sel.sort(axis=1)  # so the stable sort below breaks ties by index
        sel_d = dist[at, sel]
        kth = sel_d.max(axis=1)
        out[sub] = cand[sel[at, np.argsort(sel_d, axis=1, kind="stable")]]
        # the selection is unique unless more than k entries reach the
        # k-th distance (or NaN spoils the comparison)
        tied = np.count_nonzero(dist <= kth[:, None], axis=1) != k
        for r in np.nonzero(tied)[0]:
            out[sub[r]] = cand[np.argsort(dist[r], kind="stable")[:k]]


class _Points:
    """The rows of one ``knn_indices`` call, with their squared norms
    (computed once) and the workspace of its distance blocks: two blocks
    the size of the largest block so far, allocated per call (so calls
    from several threads share nothing), rewritten by every block and
    replaced only when a block outgrows them."""

    def __init__(self, X: np.ndarray) -> None:
        self.X, self.sq = X, row_dots(X, X)
        self.work = np.empty((2, 0))

    @cached_property
    def columns(self) -> np.ndarray:
        """The coordinates on the box axes, one contiguous row per axis:
        the at most ``NARROW_ROW`` - 1 axes along which the (finite) rows
        spread widest. A box on fewer axes holds every row the box on all
        of them holds, and costs fewer passes over the rows."""
        axes = np.argsort(-np.ptp(self.X, axis=0), kind="stable")[: NARROW_ROW - 1]
        return np.ascontiguousarray(self.X.T[axes])

    def blocks(self, rows: np.ndarray, cols: np.ndarray):
        """Distances from X[rows] to X[cols] in blocks of about
        ``KNN_BLOCK``: yields (row indices, block), each block valid until
        the next."""
        Xc, sc = self.X.take(cols, axis=0), self.sq.take(cols)
        step = max(1, KNN_BLOCK // cols.size)
        for lo in range(0, rows.size, step):
            sub = rows[lo : lo + step]
            size = sub.size * cols.size
            if self.work.shape[1] < size:
                self.work = np.empty((2, size))
            out, tmp = (w[:size].reshape(sub.size, cols.size) for w in self.work)
            dist = _sq_dists(self.X.take(sub, axis=0), Xc, self.sq.take(sub), sc, out, tmp)
            yield sub, np.sqrt(dist, out=dist)


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
