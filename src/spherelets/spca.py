"""Spherical PCA: closed-form best-fit spheres and hyperplanes.

A d-dimensional sphere in R^D is parameterized by an orthonormal frame
V (D x (d+1)) spanning the affine subspace it lives in, a center c, and
a radius r. Fitting reduces the data to the top-(d+1) PCA subspace and
solves a linear system for the center; the radius is the mean distance
of the reduced points to the center.

The algebraic loss being minimized is

    g(f, b) = sum_i (y_i' y_i + f' y_i + b)^2

over the reduced coordinates, whose minimizer has the closed form
f_hat = -H^{-1} xi with H the centered scatter and xi the correlation of
squared norms with centered positions. The center is c = -f_hat / 2.

``fit_spheres`` and ``stacked_pca`` fit many point sets at once, each on
its own: rows (N, D) cut at segment starts, the small eigenproblems and
solves stacked. The rows are centred once for both, into one contiguous
(D, N) copy, and the reduced coordinates are (w, N) too: every per-set
sum is a segment reduction (``np.add.reduceat``) along one contiguous
coordinate row, the same sums, bit for bit, as over a strided column of
(N, D) rows, and every per-set value broadcast to its rows is a 1-D
``np.repeat``. A scatter sums only its upper triangle. Reduced
coordinates are column-order sums, each frame entry repeated to its
set's rows, and condition numbers come from the scatters' eigenvalues:
no per-row matrix product and no SVD. Row norms are ``numeric.row_dots``'
sums bit for bit: a coordinate at a time below ``NARROW_ROW``, NumPy's
pairwise row sum of a row-major copy from there on.
``fit_pieces`` holds the model's sphere-or-plane policy. Both ragged fits
also give each row's squared residual to its set's piece, in closed form
from the reduced coordinates the fit already holds, so a caller never
projects the rows again to learn a piece's MSE, and each row's
``score``, its first reduced coordinate: the sign test of a PC1 split of
the set, which tree growth reads instead of scoring the rows again.

``fit_pieces`` gives its pieces as one ``PieceTable``, a row per set,
and ``project_pieces`` is the one projection onto a table's pieces: the
model, denoising, embedding and the rate study all project through it, a
point at its sphere's center onto the piece's d-plane; ``sphere_arcs``
measures distances on a sphere. The one-set SPCA is ``fit_sphere``, which
reads a ``Spherelet`` record off a one-set ``fit_spheres``, and
``project_sphere``, the table's sphere images for one record, which
raises at the sphere's center instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionError,
    InsufficientDataError,
    ParameterError,
    SingularProjectionError,
)
from .numeric import NARROW_ROW, eig_desc, row_dots

# Fall back to the hyperplane when the reduced scatter is this
# ill-conditioned or the fitted radius dwarfs the data scale.
H_CONDITION_LIMIT = 1e12
RADIUS_DIAMETER_RATIO = 1e6


@dataclass(frozen=True)
class Spherelet:
    """A d-sphere in R^D: frame V (D x (d+1)), center c, radius r, data mean mu.

    ``degenerate`` marks the infinite-radius limit where the sphere
    collapses to a plane; ``project_sphere`` then projects onto the fit's
    d-plane mu + span(V[:, :d]). The fit was computed in the
    (d+1)-dimensional reduction hyperplane mu + span(V).
    """

    frame: np.ndarray
    center: np.ndarray
    radius: float
    mu: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class SphereFits:
    """Sphere fits of m point sets, row i fitted to the i-th set.

    Fields are those of a ``Spherelet`` with a leading row axis: ``mu``
    (m, D) and ``frame`` (m, D, d+1) give each reduction hyperplane,
    whose top-w columns also span the best w-dimensional affine subspace
    for w <= d+1. A degenerate row has center ``mu`` and radius inf.

    ``h_condition`` (m,) is each reduced scatter's 2-norm condition
    number max|lambda| / min|lambda|, the value of ``np.linalg.cond`` up
    to rounding: inf for an exactly singular scatter (a set of identical
    rows, or one exactly inside a d-plane), never NaN unless the scatter
    has a NaN entry. A set above ``H_CONDITION_LIMIT`` is degenerate.

    ``residual_sq`` (N,) is each input row's squared distance to its
    set's piece: (|z - c_z| - r)^2 + |(I - VV')(x - x_bar)|^2 for a
    sphere, with z = V'(x - x_bar) and c_z the reduced center, and
    z_d^2 + |(I - VV')(x - x_bar)|^2 for a degenerate set, whose piece is
    the d-plane of its fit, z_d the last coordinate of z. The out-of-plane
    term is a sum of squares (``_out_of_plane``), exactly 0 where the
    frame spans all D axes (d + 1 = D). The residual is the ambient
    (|V'(x - c)| - r)^2 + |(I - VV')(x - c)|^2 up to rounding; row norms
    are ``row_dots``' sums.

    ``score`` (N,) is each input row's first reduced coordinate
    V[:, 0]'(x - x_bar), summed over the D axes in column order at every
    D: the centred score along the set's first principal axis.
    """

    mu: np.ndarray
    frame: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
    h_condition: np.ndarray
    residual_sq: np.ndarray
    score: np.ndarray


class PieceTable(NamedTuple):
    """m model pieces stacked, one row each: the d-sphere of its frame,
    ``center`` and ``radius`` where ``sphere`` is set, else the affine
    subspace ``mu`` + span(frame), whose center is its ``mu`` and radius
    inf. ``frame`` (m, D, W) holds each piece's first ``width``
    orthonormal columns and zeros past them; ``mu`` (m, D) is the mean of
    the set the piece was fitted to."""

    sphere: np.ndarray
    width: np.ndarray
    mu: np.ndarray
    frame: np.ndarray
    center: np.ndarray
    radius: np.ndarray

    def take(self, rows) -> PieceTable:
        """The table of the pieces in these rows, in this order."""
        return PieceTable(*(a.take(rows, axis=0) for a in self))

    def groups(self) -> list[tuple[bool, int, np.ndarray]]:
        """(sphere, width, rows) of the pieces of each kind and frame width,
        in the order of each group's first row: the pieces one stacked
        kernel call projects, checks or writes."""
        key = 2 * self.width + self.sphere
        kinds, first = np.unique(key, return_index=True)
        return [(bool(k & 1), int(k >> 1), np.flatnonzero(key == k)) for k in kinds[np.argsort(first)]]


class PieceFits(NamedTuple):
    """The model pieces of m point sets (rows (N, D) cut at segment
    starts), each set's first principal axis (m, D), each row's squared
    residual (N,) to its set's piece, and each row's ``score`` (N,) along
    its set's first axis: ``axis[i] @ (x - pieces.mu[i])`` summed
    a0 x0 + a1 x1 + ... in column order, the sign test of the set's
    PC1 split (``SphereFits.score``)."""

    pieces: PieceTable
    axis: np.ndarray
    residual_sq: np.ndarray
    score: np.ndarray


def _segments(X: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows X (N, D), validated segment starts, and segment sizes."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"expected (N, D) rows, got shape {X.shape}")
    starts = np.asarray(starts)
    if (starts.ndim != 1 or starts.size == 0 or not np.issubdtype(starts.dtype, np.integer)
            or starts[0] != 0 or np.any(starts[1:] < starts[:-1]) or starts[-1] > X.shape[0]):
        raise ParameterError("segment starts must be integers that begin at 0, never "
                             f"decrease and stay within the {X.shape[0]} rows")
    return X, starts, np.diff(starts, append=X.shape[0])


def _scatter_sums(A: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums of the outer products a a' (m, p, p) of the columns
    a of A (p, N). Column q of the upper triangle is summed from the
    products of A's first q + 1 rows with row q, so that memory stays
    O(N p), and mirrored: the products commute, so the lower triangle
    would sum to the same."""
    p = A.shape[0]
    out = np.empty((starts.size, p, p))
    for q in range(p):
        out[:, : q + 1, q] = np.add.reduceat(A[: q + 1] * A[q], starts, axis=1).T
        out[:, q, :q] = out[:, :q, q]
    return out


def _less(A: np.ndarray, per_set: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """A (p, N) less, in place, each set's entry of ``per_set`` (p, m),
    repeated to the set's columns by one 1-D ``np.repeat`` per row."""
    for a, v in zip(A, per_set):
        a -= np.repeat(v, sizes)
    return A


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared norms (N,) of the columns of A (p, N): ``row_dots`` of the
    rows of A.T, bit for bit. Narrow columns add one entry at a time from
    A's own rows; NumPy's pairwise sum of a wide row reads it in memory
    order, so wide columns are copied to rows first."""
    R = A.T if A.shape[0] < NARROW_ROW else A.T.copy()
    return row_dots(R, R)


def _centred_pca(X: np.ndarray, starts: np.ndarray,
                 sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``stacked_pca`` of validated segments, and the centred rows as one
    contiguous (D, N) array, row c every row's centred coordinate c."""
    if np.any(sizes == 0):
        raise InsufficientDataError("a point set has no rows")
    XcT = X.T.copy()
    mu = np.add.reduceat(XcT, starts, axis=1) / sizes
    _less(XcT, mu, sizes)
    return mu.T.copy(), XcT, eig_desc(_scatter_sums(XcT, starts)).eigenvectors


def stacked_pca(X: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Means (m, D) and scatter eigenvectors (m, D, D) of the m point sets
    whose rows X (N, D) are cut at ``starts``: columns by decreasing
    eigenvalue, signed as by ``numeric.eig_desc``. ``axes[i][:, :w]``
    frames set i's best w-dim subspace. Raises InsufficientDataError for
    an empty set."""
    mu, _, axes = _centred_pca(*_segments(X, starts))
    return mu, axes


def _reduced(XcT: np.ndarray, V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Reduced coordinates z = V_i'(x - x_bar) (w, N) of the centred rows
    XcT (D, N), each by the frame V_i (m, D, w) of its set. Coordinate j
    is the column-order sum V_i[0, j] x_0 + V_i[1, j] x_1 + ..., each
    frame entry repeated to its set's rows: elementwise, so a row's
    coordinates never depend on the rows batched with it."""
    Z = np.empty((V.shape[2], XcT.shape[1]))
    for j, z in enumerate(Z):
        np.multiply(np.repeat(V[:, 0, j], sizes), XcT[0], out=z)
        for c in range(1, V.shape[1]):
            z += np.repeat(V[:, c, j], sizes) * XcT[c]
    return Z


def _out_of_plane(XcT: np.ndarray, V: np.ndarray, Z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Squared norms (N,) of (I - V_i V_i')(x - x_bar) for the centred rows
    XcT (D, N), their sets' frames V_i (m, D, w) and reduced coordinates
    Z (w, N): each coordinate less its lift V_i[c, 0] z_0 + V_i[c, 1] z_1
    + ..., squared, summed axis by axis; unlike |x - x_bar|^2 - |z|^2, it
    resolves residuals far below the data's scale times the rounding unit."""
    out = np.zeros(XcT.shape[1])
    for c, x in enumerate(XcT):
        lift = np.zeros_like(x)
        for j, z in enumerate(Z):
            lift += np.repeat(V[:, c, j], sizes) * z
        lift -= x
        out += lift * lift
    return out


def fit_pieces(X: np.ndarray, starts, d: int, fitter: str) -> PieceFits:
    """The model piece of each point set (rows X cut at ``starts``), its
    first principal axis, and each row's squared residual to its set's
    piece. Under ``spca`` a piece is the set's d-sphere; under ``pca``,
    for a set that cannot carry a d-sphere, or for one whose sphere fit
    degenerates, it is the min(d, D)-wide PCA plane, and a row's residual
    is its out-of-plane part. The table's frames are min(d+1, D) wide.
    Each row's ``score`` is its first reduced coordinate, by its set's
    first axis, which the PC1-sign split of the set tests."""
    if fitter not in ("spca", "pca"):
        raise ParameterError(f"fitter must be 'spca' or 'pca', got {fitter!r}")
    if d < 0:
        raise ParameterError(f"d must be >= 0, got {d}")
    X, starts, sizes = _segments(X, starts)
    m, D, w = sizes.size, X.shape[1], min(d, X.shape[1])
    sphere = (sizes >= d + 2) & (fitter == "spca" and d < D)
    # not views: split rules must not pin the fits' D x D axes
    mu, first = np.empty((m, D)), np.empty((m, D))
    residual_sq, score = np.empty(X.shape[0]), np.empty(X.shape[0])
    frame, center, radius = np.zeros((m, D, min(d + 1, D))), np.empty((m, D)), np.full(m, math.inf)
    if not sphere.all():  # each set is fitted only by the kernel its piece needs
        rows, sub_X, sub_starts, sub_sizes = _subsets(X, starts, sizes, ~sphere)
        mu[~sphere], XcT, axes = _centred_pca(sub_X, sub_starts, sub_sizes)
        first[~sphere], frame[~sphere, :, :w] = axes[:, :, 0], axes[:, :, :w]
        Z = _reduced(XcT, axes[:, :, : max(w, 1)], sub_sizes)  # a 0-wide plane's rows still need a score
        score[rows] = Z[0]
        # out of plane; a plane of all D axes leaves nothing out
        residual_sq[rows] = _out_of_plane(XcT, axes[:, :, :w], Z[:w], sub_sizes) if w < D else 0.0
    if sphere.any():
        rows, sub_X, sub_starts, _ = _subsets(X, starts, sizes, sphere)
        fits = fit_spheres(sub_X, sub_starts, d)
        mu[sphere], first[sphere], residual_sq[rows] = fits.mu, fits.frame[:, :, 0], fits.residual_sq
        frame[sphere], center[sphere], radius[sphere] = fits.frame, fits.center, fits.radius
        score[rows] = fits.score
        sphere[sphere] = ~fits.degenerate  # a degenerate set's piece is the d-plane of its fit
        frame[~sphere, :, w:] = 0.0
    pieces = PieceTable(sphere=sphere, width=np.where(sphere, d + 1, w), mu=mu, frame=frame,
                        center=np.where(sphere[:, None], center, mu), radius=radius)
    return PieceFits(pieces, first, residual_sq, score)


def _subsets(X: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
             keep: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray, np.ndarray]:
    """Which rows the kept sets hold, and their rows, segment starts and
    sizes; when every set is kept, all rows, uncopied."""
    if keep.all():
        return slice(None), X, starts, sizes
    rows = np.repeat(keep, sizes)
    return rows, X[rows], np.cumsum(sizes[keep]) - sizes[keep], sizes[keep]


def _plane_images(x: np.ndarray, mu: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """mu + VV'(x - mu), broadcasting over leading axes of a stack."""
    return mu + ((x - mu) @ frame) @ np.swapaxes(frame, -1, -2)


def fit_spheres(X: np.ndarray, starts, d: int) -> SphereFits:
    """Best-fit d-sphere through each point set, the rows X (N, D) cut at
    ``starts``; sets of a fixed size k have ``starts = arange(0, m*k, k)``.

    Each set is reduced to its top-(d+1) PCA subspace, and the linear
    system for the center is solved in the reduced coordinates
    z_i = V'(x_i - x_bar), column sums over the D axes in order, where
    the scatter is generically invertible; the center maps back as
    c = x_bar + V c_z. This keeps the center inside the affine subspace of
    the frame, which the ambient-coordinate pseudo-inverse form only
    guarantees for centered data.

    A set is degenerate (hyperplane fallback) when its reduced scatter is
    numerically singular (condition number, from the scatter's
    eigenvalues, above ``H_CONDITION_LIMIT`` or a failed solve) or its
    radius exceeds ``RADIUS_DIAMETER_RATIO`` times the data diameter. Each
    set is judged on its own; one degenerate set never affects another.

    Raises
    ------
    InsufficientDataError if a set has fewer than d + 2 rows, the count of
    free parameters (center coordinates plus radius) in the reduced subspace.
    """
    X, starts, sizes = _segments(X, starts)
    if d < 0:
        raise ParameterError(f"d must be >= 0, got {d}")
    if np.any(sizes < d + 2):
        raise InsufficientDataError(f"need at least {d + 2} points for a {d}-sphere, got {sizes.min()}")
    if d + 1 > X.shape[1]:
        raise DimensionError(f"frame width {d + 1} exceeds ambient dimension {X.shape[1]}")
    mu, XcT, axes = _centred_pca(X, starts, sizes)
    V = axes[:, :, : d + 1]

    Z = _reduced(XcT, V, sizes)
    Zc = _less(Z.copy(), np.add.reduceat(Z, starts, axis=1) / sizes, sizes)
    l = _sq_norms(Z)
    lc = l - np.repeat(np.add.reduceat(l, starts) / sizes, sizes)
    Hs = _scatter_sums(Zc, starts)
    xi = np.add.reduceat(Zc * lc, starts, axis=1).T[:, :, None]

    lam = np.abs(np.linalg.eigvalsh(Hs))  # |.|: a rounded scatter can be indefinite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h_cond = lam.max(axis=1) / lam.min(axis=1)
    # as np.linalg.cond: 0/0 of a singular scatter and an inf entry's NaN read
    # inf, as does a ratio that overflows over a subnormal smallest eigenvalue
    h_cond[np.isnan(h_cond) & ~np.isnan(Hs).any(axis=(1, 2))] = math.inf
    # sqrt is monotone: the root of the largest square is the largest norm
    xx = _sq_norms(XcT)
    diameter = 2.0 * np.sqrt(np.maximum.reduceat(xx, starts))
    ok = np.isfinite(h_cond) & (h_cond <= H_CONDITION_LIMIT)
    Hs[~ok] = np.eye(d + 1)  # sets judged singular solve a dummy system
    try:
        f_z = -np.linalg.solve(Hs, xi)
    except np.linalg.LinAlgError:
        f_z = np.zeros_like(xi)
        for i in range(starts.size):
            try:
                f_z[i] = -np.linalg.solve(Hs[i : i + 1], xi[i : i + 1])[0]
            except np.linalg.LinAlgError:
                ok[i] = False
    c_z = -0.5 * f_z[:, :, 0]
    center = mu + (V @ c_z[:, :, None])[:, :, 0]
    dist = np.sqrt(_sq_norms(_less(Z.copy(), c_z.T, sizes)))
    radius = np.add.reduceat(dist, starts) / sizes
    ok &= np.isfinite(radius) & (radius <= RADIUS_DIAMETER_RATIO * np.maximum(diameter, 1e-300))
    # a degenerate set's piece is the d-plane of its fit, which leaves z_d out
    residual_sq = np.where(np.repeat(ok, sizes), dist - np.repeat(np.where(ok, radius, 0.0), sizes), Z[d])
    residual_sq *= residual_sq
    if d + 1 < X.shape[1]:  # out of the reduction plane; a full frame leaves nothing out
        residual_sq += _out_of_plane(XcT, V, Z, sizes)
    return SphereFits(mu=mu, frame=V, center=np.where(ok[:, None], center, mu),
                      radius=np.where(ok, radius, math.inf), degenerate=~ok, h_condition=h_cond,
                      residual_sq=residual_sq, score=Z[0])


def fit_sphere(X: np.ndarray, d: int) -> tuple[Spherelet, SphereFits]:
    """Best-fit d-sphere through the rows of X: ``fit_spheres`` on one set.

    Returns the set's record, degenerate where the fit falls back to its
    d-plane, and the one-row ``SphereFits`` it was read from, which holds
    the condition number and each row's squared residual.

    Raises
    ------
    InsufficientDataError if n < d + 2.
    """
    fits = fit_spheres(np.atleast_2d(np.asarray(X, dtype=float)), [0], d)
    s = Spherelet(frame=fits.frame[0].copy(), center=fits.center[0], radius=float(fits.radius[0]),
                  mu=fits.mu[0], degenerate=bool(fits.degenerate[0]))
    return s, fits


def _sphere_images(
    x: np.ndarray, center: np.ndarray, radius: float | np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form projections c + (r / |VV'(x-c)|) VV'(x-c) of the rows
    of x onto a sphere, broadcasting over leading axes of a stack, and a
    mask that is False where a row projects onto the center and its image
    is undefined."""
    W = ((x - center) @ frame) @ np.swapaxes(frame, -1, -2)
    norms = np.sqrt(row_dots(W, W))
    regular = ~(norms < 1e-12 * radius)
    scale = np.divide(radius, norms, out=np.full_like(norms, np.nan), where=regular)
    return center + scale[..., None] * W, regular


def project_sphere(x: np.ndarray, s: Spherelet) -> np.ndarray:
    """Closest point on the sphere: c + (r / |VV'(x-c)|) VV'(x-c).

    Projects onto the fit's d-plane mu + span(V[:, :d]) when the
    spherelet is degenerate. Raises SingularProjectionError naming the
    first point that projects onto the center, where every sphere point is
    equally close.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != s.frame.shape[0]:
        raise DimensionError(f"point dimension {x.shape[-1]} != sphere dimension {s.frame.shape[0]}")
    if s.degenerate:
        return _plane_images(x, s.mu, s.frame[:, :-1])
    images, regular = _sphere_images(x, s.center, s.radius, s.frame)
    if not np.all(regular):
        bad = int(np.argmin(regular))
        raise SingularProjectionError(f"row {bad} projects onto the sphere center", row=bad)
    return images


def project_pieces(P: np.ndarray, pieces: PieceTable) -> tuple[np.ndarray, np.ndarray]:
    """The images (m, q, D) of the points P[i] (m, q, D) on piece i of the
    table, a plane anchored at its ``center``, and a mask (m, q) that is
    False where a point projects onto its sphere's center: that point's
    image is on the piece's d-plane mu + span(frame[:, :width-1]) instead.
    One stacked kernel call per group of ``pieces.groups()``; a point's
    image depends only on it and its piece."""
    images, regular = np.empty(P.shape), np.ones(P.shape[:2], dtype=bool)
    for sphere, width, rows in pieces.groups():
        if rows.size == P.shape[0]:
            rows = slice(None)  # one group: the table's own arrays, uncopied
        x, a, F = P[rows], pieces.center[rows, None], pieces.frame[rows, :, :width]
        if not sphere:
            images[rows] = _plane_images(x, a, F)
            continue
        out, ok = _sphere_images(x, a, pieces.radius[rows, None], F)
        if not ok.all():
            i, j = np.nonzero(~ok)
            out[i, j] = _plane_images(x[i, j, None], pieces.mu[rows][i, None], F[i, :, :-1])[:, 0]
        images[rows], regular[rows] = out, ok
    return images, regular


def sphere_arcs(U: np.ndarray, W: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """Great-circle distances r * arccos(u'w / r^2) between sphere points
    given relative to the center (last axis), clamped against round-off."""
    cosang = row_dots(U, W) / (radius * radius)
    return radius * np.arccos(np.clip(cosang, -1.0, 1.0))

