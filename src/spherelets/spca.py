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

``fit_pieces`` fits many point sets at once, each on its own: rows
(N, D) cut at segment starts, the small eigenproblems and solves
stacked, and every set by one path: one PCA, one reduction and, under
``spca``, one sphere solve. The rows are centred once, into one
contiguous (D, N) copy, and the reduced coordinates are (w, N) too:
every per-set sum is a segment reduction (``np.add.reduceat``) along one
contiguous coordinate row, the same sums, bit for bit, as over a strided
column of (N, D) rows, and every per-set value broadcast to its rows is
a 1-D ``np.repeat``. A scatter sums only its upper triangle. Reduced
coordinates are column-order sums, each frame entry repeated to its
set's rows, and condition numbers come from the scatters' eigenvalues:
no per-row matrix product and no SVD. Row norms are ``numeric.row_dots``'
sums bit for bit: a coordinate at a time below ``NARROW_ROW``, NumPy's
pairwise row sum of a row-major copy from there on. ``fit_pieces``
holds the model's sphere-or-plane policy, and gives each row's squared
residual to its set's piece, in closed form from the reduced coordinates
the fit already holds, so a caller never projects the rows again to
learn a piece's MSE, and each row's ``score``, its first reduced
coordinate: the sign test of a PC1 split of the set, which tree growth
reads instead of scoring the rows again.

``fit_pieces`` gives its pieces as one ``PieceTable``, a row per set,
and ``project_pieces`` is the one projection onto a table's pieces: the
model, denoising, embedding and the rate study all project through it, a
point at its sphere's center onto the piece's d-plane; ``sphere_arcs``
measures distances on a sphere. The one-set SPCA is ``fit_sphere``, which
reads a ``Spherelet`` record off a one-set ``fit_pieces``, and
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
    starts) and what their fit learned on the way.

    ``axis`` (m, D) is each set's first principal axis.

    ``residual_sq`` (N,) is each row's squared distance to its set's
    piece: (|z - c_z| - r)^2 + |(I - VV')(x - x_bar)|^2 for a sphere, with
    z = V'(x - x_bar) and c_z the reduced center, and
    |(I - VV')(x - x_bar)|^2 for a plane of frame V, which under ``spca``
    is z_d^2 plus the out-of-plane part of the sphere fit's (d+1)-wide
    frame, z_d the last coordinate of z. The out-of-plane term is a sum of
    squares (``_out_of_plane``), exactly 0 where the frame spans all D
    axes. The residual is the ambient (|V'(x - c)| - r)^2 +
    |(I - VV')(x - c)|^2 up to rounding; row norms are ``row_dots``' sums.

    ``score`` (N,) is each row's first reduced coordinate
    ``axis[i] @ (x - pieces.mu[i])``, summed a0 x0 + a1 x1 + ... in
    column order at every D: the sign test of the set's PC1 split.

    ``h_condition`` (m,) is each reduced scatter's 2-norm condition number
    max|lambda| / min|lambda|, the value of ``np.linalg.cond`` up to
    rounding: inf for an exactly singular scatter (a set of identical
    rows, or one exactly inside a d-plane), NaN only for a scatter with a
    NaN entry or where no sphere was solved (``pca``, or d >= D)."""

    pieces: PieceTable
    axis: np.ndarray
    residual_sq: np.ndarray
    score: np.ndarray
    h_condition: np.ndarray


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
    """Means (m, D) and scatter eigenvectors (m, D, D) of validated
    segments, columns by decreasing eigenvalue, signed as by
    ``numeric.eig_desc``, and the centred rows as one contiguous (D, N)
    array, row c every row's centred coordinate c. Raises
    InsufficientDataError for an empty set."""
    if np.any(sizes == 0):
        raise InsufficientDataError("a point set has no rows")
    XcT = X.T.copy()
    mu = np.add.reduceat(XcT, starts, axis=1) / sizes
    _less(XcT, mu, sizes)
    return mu.T.copy(), XcT, eig_desc(_scatter_sums(XcT, starts)).eigenvectors


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
    """The model piece of each point set, the rows X (N, D) cut at
    ``starts``; sets of a fixed size k have ``starts = arange(0, m*k, k)``.

    Each set is reduced to its top PCA axes, z = V'(x - x_bar), column
    sums over the D axes in order. Under ``spca`` (d < D) a piece is the
    set's d-sphere: the linear system for its center is solved in the
    top-(d+1) reduced coordinates, where the scatter is generically
    invertible, and the center maps back as c = x_bar + V c_z, inside the
    affine subspace of the frame, which the ambient-coordinate
    pseudo-inverse form only guarantees for centered data. The piece falls
    back to the d-plane of the fit, the set's min(d, D)-wide PCA plane,
    for a set of fewer than d + 2 rows (the count of free parameters,
    center coordinates plus radius), a numerically singular reduced
    scatter (condition number above ``H_CONDITION_LIMIT`` or a failed
    solve) or a radius above ``RADIUS_DIAMETER_RATIO`` times the set's
    diameter. Each set is judged on its own; one never affects another.
    Under ``pca``, or where d >= D, every piece is that plane. The
    table's frames are min(d+1, D) wide."""
    if fitter not in ("spca", "pca"):
        raise ParameterError(f"fitter must be 'spca' or 'pca', got {fitter!r}")
    if d < 0:
        raise ParameterError(f"d must be >= 0, got {d}")
    X, starts, sizes = _segments(X, starts)
    m, D, w = sizes.size, X.shape[1], min(d, X.shape[1])
    mu, XcT, axes = _centred_pca(X, starts, sizes)
    spheres = fitter == "spca" and d < D
    V = axes[:, :, : d + 1 if spheres else max(w, 1)]  # a 0-wide plane's rows still need a score
    Z = _reduced(XcT, V, sizes)
    ok, h_cond, center, radius = np.zeros(m, dtype=bool), np.full(m, math.nan), mu, math.inf
    if spheres:
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
        diameter = 2.0 * np.sqrt(np.maximum.reduceat(_sq_norms(XcT), starts))
        ok = (sizes >= d + 2) & np.isfinite(h_cond) & (h_cond <= H_CONDITION_LIMIT)
        Hs[~ok] = np.eye(d + 1)  # sets that get no sphere solve a dummy system
        try:
            f_z = -np.linalg.solve(Hs, xi)
        except np.linalg.LinAlgError:
            f_z = np.zeros_like(xi)
            for i in range(m):
                try:
                    f_z[i] = -np.linalg.solve(Hs[i : i + 1], xi[i : i + 1])[0]
                except np.linalg.LinAlgError:
                    ok[i] = False
        c_z = -0.5 * f_z[:, :, 0]
        center = mu + (V @ c_z[:, :, None])[:, :, 0]
        dist = np.sqrt(_sq_norms(_less(Z.copy(), c_z.T, sizes)))
        radius = np.add.reduceat(dist, starts) / sizes
        ok &= np.isfinite(radius) & (radius <= RADIUS_DIAMETER_RATIO * np.maximum(diameter, 1e-300))
        # a plane piece is the d-plane of its fit, which leaves z_d out too
        residual_sq = np.where(np.repeat(ok, sizes), dist - np.repeat(np.where(ok, radius, 0.0), sizes), Z[d])
        residual_sq *= residual_sq
        if d + 1 < D:  # out of the reduction plane; a full frame leaves nothing out
            residual_sq += _out_of_plane(XcT, V, Z, sizes)
    else:  # out of plane; a plane of all D axes leaves nothing out
        residual_sq = _out_of_plane(XcT, V[:, :, :w], Z[:w], sizes) if w < D else np.zeros(X.shape[0])
    frame = axes[:, :, : min(d + 1, D)].copy()
    frame[~ok, :, w:] = 0.0
    pieces = PieceTable(sphere=ok, width=np.where(ok, d + 1, w), mu=mu, frame=frame,
                        center=np.where(ok[:, None], center, mu), radius=np.where(ok, radius, math.inf))
    # not a view: split rules must not pin the fits' D x D axes
    return PieceFits(pieces, axes[:, :, 0].copy(), residual_sq, Z[0], h_cond)


def fit_sphere(X: np.ndarray, d: int) -> tuple[Spherelet, PieceFits]:
    """Best-fit d-sphere through the rows of X: ``fit_pieces`` of one set
    under ``spca``.

    Returns the set's record, degenerate where the fit falls back to its
    d-plane, whose frame's last column is then zero, as in the table; and
    the one-set ``PieceFits`` it was read from, which holds the condition
    number and each row's squared residual.

    Raises
    ------
    InsufficientDataError if n < d + 2; DimensionError if d + 1 > D.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fits = fit_pieces(X, [0], d, "spca")
    if X.shape[0] < d + 2:
        raise InsufficientDataError(f"need at least {d + 2} points for a {d}-sphere, got {X.shape[0]}")
    if d + 1 > X.shape[1]:
        raise DimensionError(f"frame width {d + 1} exceeds ambient dimension {X.shape[1]}")
    p = fits.pieces
    s = Spherelet(frame=p.frame[0], center=p.center[0], radius=float(p.radius[0]), mu=p.mu[0],
                  degenerate=not p.sphere[0])
    return s, fits


def _plane_images(x: np.ndarray, mu: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """mu + VV'(x - mu), broadcasting over leading axes of a stack."""
    return mu + ((x - mu) @ frame) @ np.swapaxes(frame, -1, -2)


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

