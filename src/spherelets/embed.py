"""Low-dimensional embedding from local spherical distances.

Pipeline: per-point local sphere fits turn the k-NN graph into sparse
symmetric intrinsic (great-circle) distances; a fixed-bandwidth kernel
exp(-D_ij / sigma^2) converts distances to symmetrized affinities; and a
Student-t embedding minimizes KL(P || Q) by momentum gradient descent.
The n local fits are one ``spca.fit_pieces`` call over the n·k
neighborhood rows, cut every k rows, and one ``spca.project_pieces`` call
maps each point and its neighbors onto the point's piece. The fallback
is per row: a row whose fit degenerates to a plane, or whose point or a
neighbor projects onto the sphere's center, keeps its Euclidean
distances.
A ``euclidean`` distance mode runs the identical pipeline on straight-
line distances over the same k-NN graph for apples-to-apples baselines.

Distances and affinities are ``Pairs``: their support's rows, cols and
vals, about 2k per row. The distances are scale-free: the fits and
lengths are computed on X scaled exactly by a power of two to unit
scale, then scaled back. The KL gradient splits into an attraction over that support,
O(nk), and an exact repulsion over all pairs. As the gradient is
antisymmetric pair by pair, both evaluate each unordered pair once and
give its term to both of its rows. One pass computes the repulsion
together with the normalization Z over row panels of at least
``PANEL_ROWS`` rows (more above n = 1024, up to 256), each taking its
columns in chunks of at most ``REPULSION_BLOCK`` pairs, and forms only
the squared kernel in five array passes per chunk: Z follows from the
weighted sums of the repulsion rows, and the objective takes its Z from
the same pass. The
gradient reads the upper triangle of P, which a ``Pairs`` selects once.
Memory beyond the O(nk) support is one chunk buffer (512 KiB).

The optimizer records KL every ``kl_every`` = 50 iterations. If a
checkpoint shows an increase it reverts to the best iterate seen, halves
the step, and clears momentum, so the recorded KL sequence never
increases and the returned embedding is the iterate with the lowest
recorded KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .exceptions import DimensionError, DivergenceError, ParameterError
from .numeric import knn_indices, row_dots, unit_scale
from .spca import fit_pieces, project_pieces, sphere_arcs

DISTANCE_MODES = ("spherical", "euclidean")

# the repulsion pass holds about this many pairs at a time (512 KiB of float64),
# in row panels of at least PANEL_ROWS rows (n // 16 above n = 1024, up to 256)
REPULSION_BLOCK = 1 << 16
PANEL_ROWS = 64
# the optimizer's schedule: affinities times EXAGGERATION through iteration
# EXAGGERATION_ITERS; momentum MOMENTUM_EARLY before MOMENTUM_SWITCH, then MOMENTUM_LATE
EXAGGERATION = 4.0
EXAGGERATION_ITERS = 100
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
MOMENTUM_SWITCH = 250


@dataclass(frozen=True)
class EmbedConfig:
    m: int = 2
    k: int = 20
    sigma: float = 1.0
    iters: int = 1000
    learning_rate: float = 100.0
    distance_mode: str = "spherical"
    seed: int = 0
    # fixed, not a field: perfbench/workloads.py reads the class attribute
    # to size the KL log
    kl_every: ClassVar[int] = 50

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ParameterError(f"m must be 1, 2 or 3, got {self.m}")
        if self.iters < 1:
            raise ParameterError(f"iters must be >= 1, got {self.iters}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ParameterError(
                f"distance_mode must be one of {DISTANCE_MODES}, got {self.distance_mode!r}"
            )


# -- distances ---------------------------------------------------------------


@dataclass(frozen=True)
class Pairs:
    """A sparse n x n matrix: ``vals[t]`` at ``(rows[t], cols[t])``, sorted
    by (row, col). Absent pairs are no neighbors and zero affinities."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    @cached_property
    def upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rows, cols and vals of the pairs above the diagonal, selected on
        first use and kept (the arrays of a ``Pairs`` are never changed)."""
        keep = self.rows < self.cols
        return self.rows[keep], self.cols[keep], self.vals[keep]


def _knn_pairs(nbr: np.ndarray, dist: np.ndarray) -> Pairs:
    """dist[i, j] at (i, nbr[i, j]) and at (nbr[i, j], i), the minimum where
    the two meet; diagonal entries are dropped."""
    n, k = nbr.shape
    rows, cols = np.repeat(np.arange(n), k), nbr.ravel()
    off = rows != cols
    key = np.concatenate([rows[off] * n + cols[off], cols[off] * n + rows[off]])
    order = np.argsort(key)
    key, vals = key[order], np.tile(dist.ravel()[off], 2)[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return Pairs(n, key[first] // n, key[first] % n, np.minimum.reduceat(vals, first))


def spherical_knn_distances(
    X: np.ndarray,
    d: int,
    k: int,
    return_info: bool = False,
) -> Pairs | tuple[Pairs, int]:
    """Sparse symmetric pairs of local great-circle distances.

    For each point, a d-sphere is fitted to its k-neighborhood (self
    included); the point and its neighbors are projected onto that
    sphere and their arc distances recorded. Rows whose local fit
    degenerates or whose projection is singular fall back to Euclidean
    distances (counted when ``return_info`` is set). A pair holds the
    minimum over its two directed estimates; the diagonal is dropped.
    Scaling finite X by any factor scales the distances by it, up to
    rounding: nothing overflows or underflows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if k < d + 3:
        raise ParameterError(f"need k >= d+3 = {d + 3} to fit local spheres, got k={k}")
    if k > n:
        raise ParameterError(f"k={k} exceeds sample size {n}")
    if d + 1 > D:
        raise DimensionError(f"a {d}-sphere needs ambient dimension >= {d + 1}, got {D}")

    X, e = unit_scale(X)  # fit and measure at unit scale, then scale back
    nbr = knn_indices(X, k)
    hoods = X.take(nbr, axis=0)
    pieces = fit_pieces(hoods.reshape(n * k, D), np.arange(0, n * k, k), d, "spca").pieces
    proj, regular = project_pieces(np.concatenate([X[:, None, :], hoods], axis=1), pieces)
    ok = pieces.sphere & regular.all(axis=1)
    diff = hoods - X[:, None, :]
    rows = np.sqrt(row_dots(diff, diff))
    c = pieces.center[ok][:, None, :]
    rows[ok] = sphere_arcs(proj[ok, :1] - c, proj[ok, 1:] - c, pieces.radius[ok][:, None])
    fallbacks = n - int(np.count_nonzero(ok))
    dist = _knn_pairs(nbr, np.ldexp(rows, e))
    if return_info:
        return dist, fallbacks
    return dist


def euclidean_knn_distances(X: np.ndarray, k: int) -> Pairs:
    """Euclidean counterpart over the same k-NN support, as scale-free."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if k > n:
        raise ParameterError(f"k={k} exceeds sample size {n}")
    X, e = unit_scale(X)
    nbr = knn_indices(X, k)
    diff = X.take(nbr, axis=0) - X[:, None, :]
    return _knn_pairs(nbr, np.ldexp(np.sqrt(row_dots(diff, diff)), e))


def knn_distances(X: np.ndarray, d: int, k: int, mode: str = "spherical") -> Pairs:
    """The pairs of ``spherical_knn_distances`` or ``euclidean_knn_distances``
    by `mode`. The intrinsic dimension d must be >= 0 in both modes, though
    only the spherical one fits d-spheres."""
    if d < 0:
        raise ParameterError(f"d must be >= 0, got {d}")
    if mode == "spherical":
        return spherical_knn_distances(X, d, k)
    if mode == "euclidean":
        return euclidean_knn_distances(X, k)
    raise ParameterError(f"mode must be one of {DISTANCE_MODES}, got {mode!r}")


# -- affinities ---------------------------------------------------------------


def conditional_affinities(Dmat: Pairs, sigma: float) -> Pairs:
    """Row-conditional affinities p_{j|i} = exp(-D_ij / sigma^2), normalized
    so each row sums to 1 over its support, the pairs of ``Dmat`` (none on
    the diagonal). Raises ParameterError when some row has empty support.

    A row whose kernel sum is not a positive normal float (every term
    underflowed, or sigma^2 itself did) takes the sigma -> 0 limit
    instead: exp(-(D_ij - min_j D_ij) / sigma / sigma), which its nearest
    neighbors share. Every other row is computed as written above.
    """
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"sigma must be finite and > 0, got {sigma}")
    counts = np.bincount(Dmat.rows, minlength=Dmat.n)
    if not counts.all():
        raise ParameterError(f"row {int(np.argmin(counts))} has no neighbors; increase k")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = np.exp(-Dmat.vals / (sigma * sigma))
        sums = np.bincount(Dmat.rows, K, minlength=Dmat.n)
        bad = ~(sums >= np.finfo(float).tiny)
        if bad.any():
            low = np.minimum.reduceat(Dmat.vals, np.cumsum(counts) - counts)
            sel = bad[Dmat.rows]
            K[sel] = np.exp(-((Dmat.vals[sel] - low[Dmat.rows[sel]]) / sigma) / sigma)
            sums[bad] = np.bincount(Dmat.rows[sel], K[sel], minlength=Dmat.n)[bad]
    return replace(Dmat, vals=K / sums[Dmat.rows])


def affinities(Dmat: Pairs, sigma: float) -> Pairs:
    """Symmetrized affinities P_ij = (p_{j|i} + p_{i|j}) / 2 over the
    symmetric support of ``Dmat``; both sums add the same two terms."""
    cond = conditional_affinities(Dmat, sigma)
    return replace(cond, vals=0.5 * (cond.vals + cond.vals[np.lexsort((cond.rows, cond.cols))]))


def _pairs(P) -> Pairs:
    """P as pairs: a dense array gives its nonzeros, the diagonal too."""
    if isinstance(P, Pairs):
        return P
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionError(f"affinity matrix must be square, got {P.shape}")
    rows, cols = np.nonzero(P)
    return Pairs(P.shape[0], rows, cols, P[rows, cols])


def check_affinity_matrix(P: Pairs | np.ndarray) -> Pairs:
    """P (pairs or a dense square array) as validated pairs; sorted by
    (col, row), the transposes equal P only if it is sorted and symmetric."""
    P = _pairs(P)
    if np.any((P.rows < 0) | (P.rows >= P.n) | (P.cols < 0) | (P.cols >= P.n)):
        raise ParameterError(f"pair rows and cols must lie in [0, {P.n})")
    if not np.all((P.vals >= 0.0) & (P.vals < np.inf)):
        raise ParameterError("affinities must be finite and nonnegative")
    if np.any(P.rows == P.cols):
        raise ParameterError("affinity matrix must have a zero diagonal")
    mirror = np.lexsort((P.rows, P.cols))
    if not (np.array_equal(P.rows[mirror], P.cols) and np.array_equal(P.cols[mirror], P.rows)
            and np.array_equal(P.vals[mirror], P.vals)):
        raise ParameterError("affinity matrix must be exactly symmetric")
    return P


# -- KL divergence and its gradient ------------------------------------------


def _support_kernel(rows: np.ndarray, cols: np.ndarray, Y: np.ndarray):
    """Differences y_i - y_j, one row per embedding axis, and the Student-t
    kernel w_ij over the pairs (rows, cols)."""
    Yt = np.ascontiguousarray(Y.T)
    diff = Yt.take(rows, axis=1) - Yt.take(cols, axis=1)
    return diff, 1.0 / (1.0 + np.einsum("ij,ij->j", diff, diff))


def _repulsion(Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Z = sum_{i != j} w_ij and the rows sum_j w_ij^2 (y_i - y_j).

    One exact pass over the upper triangle, cut into row panels: the rows
    [lo, hi), at least n // 16 of them, but no fewer than ``PANEL_ROWS``
    and no more than sqrt(``REPULSION_BLOCK``) (fewer only at the end),
    and as many as fit in ``REPULSION_BLOCK`` pairs with the columns
    [lo, n).
    A panel takes those columns in chunks of at most ``REPULSION_BLOCK``
    pairs (never narrower than the panel is tall), so no n x n array is
    ever held. A chunk's 1 + |y_i - y_j|^2 is one product
    [-2 y_i, |y_i|^2 + 1, 1] . [y_j, 1, |y_j|^2], squared and inverted in
    place to w_ij^2; a product that rounding puts just below 1 still
    squares to a finite, positive value. The column factors are built
    once per call as one contiguous (m + 2, n) array, so the product
    reads a chunk's columns as they lie, with no transposed copy; the
    weighted sums read its transpose, a view, so memory is unchanged.
    The panel's square [lo, hi)^2, in its first chunk, is summed from the
    row side only, its diagonal zeroed by one strided write (the chunk
    is at least as wide as the panel is tall, so entry (i, i) of the
    flat chunk lies i times its width plus one in); for the columns
    beyond it the weighted sums S_i = sum_j w_ij^2 [y_j, 1, |y_j|^2] go
    to both ends of the pair, so a chunk writes only its own rows of S.
    As w_ij = w_ij^2 (1 + |y_i - y_j|^2), Z is the sum over i of the left
    factor times S_i. Every chunk is a view of one buffer, overwritten by
    the next (a fresh one would fault in its pages).

    Rounding, with u the unit roundoff and gamma_k = k u / (1 - k u):
    the Gram product q_ij = 1 + |y_i - y_j|^2 adds 2m + 4 rounded terms
    of total size T_ij = 1 + |y_i|^2 + |y_j|^2 + 2 sum_c |y_ic y_jc|, so
    each w_ij^2 is off by at most 2 gamma_{2m+4} T_ij / q_ij of itself;
    S_i sums at most n terms, and the row is the difference
    y_i S_i[m] - S_i[:m]. Entry c of row i is therefore within
        sum_{j != i} w_ij^2 (2 gamma_{2m+4} (T_ij / q_ij) |y_ic - y_jc|
                             + gamma_{n+4} (|y_ic| + |y_jc|))
    of the exact sum, to first order in u. The second term does not
    shrink with |y_i - y_j|: for two rows 1e-9 of |y| ~ 10 apart,
    w^2 ~ 1 while their term is ~1e-8, so such a row carries this
    absolute bound, not a relative one. Z sums positive terms and keeps
    its relative accuracy.
    """
    n, m = Y.shape
    sq = np.einsum("ij,ij->i", Y, Y)
    left, cols = np.empty((n, m + 2)), np.empty((m + 2, n))
    np.multiply(Y, -2.0, out=left[:, :m])
    np.add(sq, 1.0, out=left[:, m])
    left[:, m + 1] = 1.0
    cols[:m] = Y.T
    cols[m] = 1.0
    cols[m + 1] = sq
    right = cols.T
    S = np.zeros((n, m + 2))
    # taller panels are faster at large n; a square chunk stays in the block
    panel = max(PANEL_ROWS, min(n // 16, math.isqrt(REPULSION_BLOCK)))
    buf = np.empty(max(REPULSION_BLOCK, panel * panel))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(panel, REPULSION_BLOCK // (n - lo)))
        rows = hi - lo
        width = max(rows, REPULSION_BLOCK // rows)
        for c0 in range(lo, n, width):
            c1 = min(n, c0 + width)
            size = rows * (c1 - c0)
            W = buf[:size].reshape(rows, c1 - c0)
            np.matmul(left[lo:hi], cols[:, c0:c1], out=W)
            W *= W
            np.reciprocal(W, out=W)
            if c0 == lo:
                buf[: size : (c1 - c0) + 1] = 0.0
                S[hi:c1] += W[:, rows:].T @ right[lo:hi]
            else:
                S[c0:c1] += W.T @ right[lo:hi]
            S[lo:hi] += W @ right[c0:c1]
        lo = hi
    return float(np.vdot(left, S)), S[:, m : m + 1] * Y - S[:, :m]


def kl_objective(P, Y: np.ndarray) -> float:
    """KL(P || Q(Y)) of an embedding under the Student-t kernel:
    sum over the support of p log(p Z / w), Z from ``_repulsion``. P is
    ``Pairs`` or a dense array; a zero w (so a zero q) under positive p
    yields inf.

    Overflow is deliberately silenced: a diverged iterate produces
    non-finite values that the optimizer's safeguard detects and undoes.
    """
    P = _pairs(P)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    keep = (P.vals > 0.0) & (P.rows != P.cols)
    rows, cols, p = P.rows[keep], P.cols[keep], P.vals[keep]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = _support_kernel(rows, cols, Y)[1]
        if np.any(w == 0.0):
            return math.inf
        q = w / _repulsion(Y)[0]
        return float(np.sum(p * np.log(p / q)))


def kl_gradient(P, Y: np.ndarray) -> np.ndarray:
    """Analytic gradient 4 sum_j (p_ij - q_ij) w_ij (y_i - y_j), as the
    attraction 4 sum_j p_ij w_ij (y_i - y_j) over the support of P minus
    the repulsion (4 / Z) sum_j w_ij^2 (y_i - y_j) over all pairs. P is
    ``Pairs`` or a dense array and must be symmetric, as ``embed`` checks
    exactly: only its upper triangle ``Pairs.upper`` is read, and each of
    its terms is added to row i and subtracted from row j."""
    rows, cols, vals = _pairs(P).upper
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff, w = _support_kernel(rows, cols, Y)
        terms = vals * w * diff
        attract = np.column_stack(
            [np.bincount(rows, t, minlength=n) - np.bincount(cols, t, minlength=n) for t in terms]
        )
        Z, rep = _repulsion(Y)
        return 4.0 * (attract - rep / Z)


# -- optimizer ----------------------------------------------------------------


def embed(
    P: Pairs | np.ndarray,
    cfg: EmbedConfig,
    return_log: bool = False,
) -> np.ndarray | tuple[np.ndarray, list[tuple[int, float]]]:
    """Minimize KL(P || Q) over an n-by-m embedding.

    P is globally renormalized to a distribution over ordered pairs.
    Early iterations use affinity exaggeration; momentum switches from
    its early to its late value at ``MOMENTUM_SWITCH``. Returns the
    iterate with the lowest recorded KL (and the (iteration, KL) log when
    ``return_log`` is set).
    """
    P = check_affinity_matrix(P)
    total = float(P.vals.sum())
    if total <= 0:
        raise ParameterError("affinity matrix is identically zero")
    support = replace(P, vals=P.vals / total)
    exaggerated = replace(P, vals=support.vals * EXAGGERATION)

    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-4, size=(P.n, cfg.m))
    velocity = np.zeros_like(Y)
    lr = cfg.learning_rate

    best_Y = Y.copy()
    best_kl = kl_objective(support, Y)
    log: list[tuple[int, float]] = [(0, best_kl)]

    for it in range(1, cfg.iters + 1):
        P_eff = exaggerated if it <= EXAGGERATION_ITERS else support
        mom = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE

        grad = kl_gradient(P_eff, Y)
        halvings = 0
        while not np.all(np.isfinite(grad)):
            halvings += 1
            if halvings > 20:
                raise DivergenceError(f"gradient non-finite after {halvings - 1} halvings at iteration {it}")
            Y = best_Y.copy()
            velocity[:] = 0.0
            lr *= 0.5
            grad = kl_gradient(P_eff, Y)

        velocity = mom * velocity - lr * grad
        Y = Y + velocity

        if it % cfg.kl_every == 0 or it == cfg.iters:
            kl = kl_objective(support, Y)
            if np.isfinite(kl) and kl < best_kl:
                best_kl = kl
                best_Y = Y.copy()
            elif not np.isfinite(kl) or kl > log[-1][1]:
                # checkpoint got worse (or blew up): restart from the best
                # iterate with a smaller step so the recorded sequence
                # never increases
                Y = best_Y.copy()
                velocity[:] = 0.0
                lr *= 0.5
                kl = best_kl
            log.append((it, min(kl, log[-1][1])))

    if return_log:
        return best_Y, log
    return best_Y


def stsne(
    X: np.ndarray,
    d: int,
    cfg: EmbedConfig,
    return_log: bool = False,
):
    """Distance -> affinity -> embedding pipeline on raw data."""
    Dmat = knn_distances(X, d, cfg.k, cfg.distance_mode)
    P = affinities(Dmat, cfg.sigma)
    return embed(P, cfg, return_log=return_log)
