"""Shared numeric kernels: symmetric eigendecomposition, row dot products
and squared norms, exact scaling to unit scale, the k nearest neighbors
of every row, seeded Gaussian noise.

Everything here is a pure function of its arguments; results never alias
their inputs, so values can be shared freely across threads.

``knn_indices`` is exact without computing all n^2 distances: it cuts the
rows into k-d leaves, grown a level at a time, bounds each row's k-th
distance by its k-th distance within its leaf, or within the leaf's
parent cell (one block for both children) when the leaf has fewer than
k rows, plus a rounding slack, and computes each leaf's distances only
to the rows inside the box those bounds span (~0.066 n^2 of them on the
4000-point spiral of the ``denoise`` benchmark). It writes them a block
of about ``KNN_BLOCK`` at a time into one workspace of two blocks,
allocated per call and never held between calls, and orders each row's
k nearest with one sort.
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
    splits at the median of its widest axis, and only while each half
    keeps ceil(k/2) rows, so a leaf's parent cell holds at least k. The
    tree grows a level at a time: a level's cells differ in size by at
    most one, so one row-wise argpartition splits them all. A row's k-th
    distance within its leaf (within the parent cell when the leaf has
    fewer than k rows; one block of the parent's rows serves both its
    children), plus a rounding slack, bounds its k-th distance over all
    rows, as the k-th distance within any k rows does. So a leaf's rows
    need only the candidates inside its box: on each of the (at most
    ``NARROW_ROW`` - 1) axes along which the rows spread widest, the
    extent of all its rows' bound balls. Candidate distances are computed
    by the same expression as in a full scan, so the result is the full
    scan's wherever BLAS gives a distance the same value in every block
    shape (not guaranteed where rounding decides the order). Leaves whose
    box holds every row, and input that is not all finite, are scanned
    against every row; finite input is scaled exactly by a power of two.

    Rows are processed in blocks of about ``KNN_BLOCK`` distances, each
    written in place into one workspace of two blocks, allocated per call
    at the size of the largest block so far, and the boxes of about
    ``KNN_BLOCK`` / n leaves are tested at once, so memory beyond the
    (n, k) result is about that, never n x n. Each block partitions a
    copy of its squared distances for each row's k-th smallest, takes the
    entries up to it, in index order, and orders them with one sort. That
    sort need not be stable unless two selected distances are equal: a
    block where some row has such a pair orders its rows by a stable sort
    instead, so equal distances keep index order. A row whose k-th
    distance ties an unselected one takes a stable argsort of all its
    candidates.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-D (n, D), got shape {X.shape}")
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
    leaves, edges, bounds = _kd_leaves(X, k) if prune else (None, [0, n], [])
    if len(edges) < 3:  # one leaf, or not all finite: every row is a candidate
        _select(pts, np.arange(n), np.arange(n), k, out)
        return out
    radius = np.empty(n)
    for rows, cell in bounds:
        for sub, dist, _ in pts.blocks(rows, cell):
            dist.partition(k - 1, axis=1)  # the block is scratch
            radius[sub] = np.sqrt(dist[:, k - 1])
    radius += 4.0 * delta
    scan, step = [], max(1, KNN_BLOCK // n)  # a box test of (leaves, n) holds about KNN_BLOCK
    for lo in range(0, len(edges) - 1, step):
        hi = min(lo + step, len(edges) - 1)
        rows, cut = leaves[edges[lo] : edges[hi]], edges[lo + 1 : hi] - edges[lo]
        group = list(zip(np.split(rows, cut), _box_rows(pts.columns, rows, cut, radius)))
        pts.reserve((leaf.size, cand.size) for leaf, cand in group if cand.size < n)
        for leaf, cand in group:
            if cand.size < n:
                _select(pts, leaf, cand, k, out)
            else:
                scan.append(leaf)
    if scan:  # in full-width blocks, as without pruning
        _select(pts, np.sort(np.concatenate(scan)), np.arange(n), k, out)
    return out


def _kd_leaves(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list]:
    """X's k-d leaves and the cells that bound their rows' k-th distances.

    Returns the rows of all leaves, leaf after leaf, each leaf's rows
    sorted, with the leaves' edges in that array (0 first, n last), and
    pairs (rows, cell) of row indices that hold every row once among
    their rows: a leaf of at least k rows bounds its own rows, and a
    parent cell bounds the rows of its children that are leaves of fewer
    (both children, on the spiral). A cell of more than ``KNN_LEAF`` rows
    splits at the median of its widest axis, unless a half would get
    fewer than ceil(k/2) rows.

    The tree grows a level at a time, each cell a run of one row order
    (``_median_split``)."""
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T) if X.shape[1] < NARROW_ROW else None
    rows, size, parent = np.arange(n), np.array([n]), np.zeros(1, dtype=np.intp)
    leaf_rows, leaf_size, bounds = [], [], []
    while True:
        end = np.cumsum(size)
        start = end - size
        stop = (size <= KNN_LEAF) | (2 * (size // 2) < k)
        leaf_rows.append(rows[np.repeat(stop, size)])
        leaf_size.append(size[stop])
        for i in np.flatnonzero(stop & (size >= k)):
            bounds.append((rows[start[i] : end[i]],) * 2)
        short = np.flatnonzero(stop & (size < k))  # never at the root, which holds n >= k
        ups, first, count = np.unique(parent[short], return_index=True, return_counts=True)
        for p, i, c in zip(ups, short[first], count):
            cell = up_rows[up_start[p] : up_end[p]]
            bounds.append((cell if c == 2 else rows[start[i] : end[i]], cell))
        go = np.flatnonzero(~stop)
        if not go.size:
            break
        up_rows, up_start, up_end = rows, start, end
        rows, size = _median_split(X, XT, rows, start[go], size[go])
        parent = np.concatenate([go, go])
    sizes = np.concatenate(leaf_size)
    order = np.concatenate(leaf_rows)
    shift = np.repeat(np.arange(sizes.size) * n, sizes)  # sorts every leaf in one sort
    order += shift
    order.sort()
    order -= shift
    return order, np.concatenate([[0], np.cumsum(sizes)]), bounds


def _median_split(X: np.ndarray, XT: np.ndarray | None, rows: np.ndarray, start: np.ndarray,
                  size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The halves of the cells rows[start:start + size], whose sizes differ
    by at most one: each cell's floor(size/2) rows of least coordinate on
    its widest axis, then the rest, as (rows, sizes) of all lower halves
    followed by all upper halves. One row-wise argpartition of the cells'
    coordinates splits them all; a cell one row short is padded by an
    +inf key, which partitions to the end. Narrow rows are gathered from
    XT, the columns of X, a column at a time."""
    w = int(size.max())
    # a pad repeats its cell's last row, so spreads are the cells' own
    idx = rows[np.minimum(start[:, None] + np.arange(w), (start + size - 1)[:, None])]
    if XT is None:
        P = X.take(idx, axis=0)
        spread = P.max(axis=1) - P.min(axis=1)
    else:
        P = XT.take(idx, axis=1)
        spread = (P.max(axis=2) - P.min(axis=2)).T
    key = X[idx, np.argmax(spread, axis=1)[:, None]]
    half, kth = size // 2, np.unique(size // 2)
    if size.min() < w:
        key[size < w, -1] = np.inf
        kth = np.append(kth, w - 1)
    part = np.take_along_axis(idx, np.argpartition(key, kth, axis=1), axis=1)
    lower = np.arange(w) < half[:, None]
    upper = ~lower & (np.arange(w) < size[:, None])
    return np.concatenate([part[lower], part[upper]]), np.concatenate([half, size - half])


def _box_rows(C: np.ndarray, rows: np.ndarray, cut: np.ndarray,
              radius: np.ndarray) -> list[np.ndarray]:
    """Rows inside the box of each leaf, the leaves the runs of `rows`
    between the positions `cut`: on each box axis (a row of the box
    columns C), the extent of the balls of the given radii around the
    leaf's rows. The leaves' boxes are tested in one pass over C."""
    P, r, first = C.take(rows, axis=1), radius.take(rows), np.concatenate([[0], cut])
    lo, hi = np.minimum.reduceat(P - r, first, axis=1), np.maximum.reduceat(P + r, first, axis=1)
    inside = np.ones((first.size, C.shape[1]), dtype=bool)
    for c, a, b in zip(C, lo, hi):
        inside &= c >= a[:, None]
        inside &= c <= b[:, None]
    which, found = np.nonzero(inside)
    return np.split(found, np.cumsum(np.bincount(which, minlength=first.size))[:-1])


def _select(pts: _Points, rows: np.ndarray, cand: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of the candidate rows `cand`
    (sorted, holding each of `rows` and its k nearest)."""
    m = cand.size
    for sub, sq, part in pts.blocks(rows, cand):
        at = np.arange(sub.size)[:, None]
        np.copyto(part, sq)
        part.partition(min(k, m - 1), axis=1)
        # a row's first k partitioned squares are its k smallest, and
        # sqrt is monotone: they hold its k nearest unless the nearest
        # other candidate ties the k-th distance (or NaN spoils the test)
        kth = part[:, :k].max(axis=1)
        tied = np.flatnonzero(~(np.sqrt(part[:, k]) > np.sqrt(kth)) if k < m else np.isnan(kth))
        take = sq <= kth[:, None]  # k per untied row; tied rows are redone below
        if tied.size:
            take[tied] = np.arange(m) < k
        flat = np.flatnonzero(take)
        sel = flat.reshape(-1, k) - at * m  # in index order
        dist = np.sqrt(sq.ravel()[flat]).reshape(-1, k)
        by = np.argsort(dist, axis=1)
        ordered = dist[at, by]
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            # equal selected distances: a stable sort keeps them in index order
            by = np.argsort(dist, axis=1, kind="stable")
        out[sub] = cand[sel[at, by]]
        if tied.size:
            out[sub[tied]] = cand[np.argsort(np.sqrt(sq[tied]), axis=1, kind="stable")[:, :k]]


class _Points:
    """The rows of one ``knn_indices`` call, with their squared norms
    (computed once) and the workspace of its distance blocks: two blocks
    the size of the largest block so far, allocated per call (so calls
    from several threads share nothing), rewritten by every block and
    replaced only when a block outgrows them. ``knn_indices`` reserves a
    group of leaves' largest block before the first, since each
    replacement maps fresh pages."""

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

    def reserve(self, shapes) -> None:
        """Grow the workspace to the largest block of the distances from
        each of the given (rows, cols) counts."""
        size = max((min(r, max(1, KNN_BLOCK // c)) * c for r, c in shapes), default=0)
        if self.work.shape[1] < size:
            self.work = np.empty((2, size))

    def blocks(self, rows: np.ndarray, cols: np.ndarray):
        """Squared distances from X[rows] to X[cols] in blocks of about
        ``KNN_BLOCK``: yields (row indices, block, scratch of its shape),
        both valid until the next."""
        Xc, sc = self.X.take(cols, axis=0), self.sq.take(cols)
        step = max(1, KNN_BLOCK // cols.size)
        self.reserve([(rows.size, cols.size)])
        for lo in range(0, rows.size, step):
            sub = rows[lo : lo + step]
            size = sub.size * cols.size
            out, tmp = (w[:size].reshape(sub.size, cols.size) for w in self.work)
            yield sub, _sq_dists(self.X.take(sub, axis=0), Xc, self.sq.take(sub), sc, out, tmp), tmp


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
