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
its own: rows (N, D) cut at segment starts, every per-set sum a segment
reduction (``np.add.reduceat``), the small eigenproblems and solves
stacked. ``fit_sphere`` is the one-set case, and ``fit_pieces`` holds
the model's sphere-or-plane policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    InsufficientDataError,
    ParameterError,
    SingularProjectionError,
)
from .numeric import sym_eig

# Fall back to the hyperplane when the reduced scatter is this
# ill-conditioned or the fitted radius dwarfs the data scale.
H_CONDITION_LIMIT = 1e12
RADIUS_DIAMETER_RATIO = 1e6


@dataclass(frozen=True)
class Hyperplane:
    """Affine subspace mu + span(frame); frame columns are orthonormal."""

    mu: np.ndarray
    frame: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.mu.shape[0]

    def project(self, X: np.ndarray) -> np.ndarray:
        return project_plane(X, self)

    def residual_sq(self, X: np.ndarray) -> np.ndarray:
        """Squared distance of each row of X to the subspace."""
        return np.sum((X - project_plane(X, self)) ** 2, axis=-1)


@dataclass(frozen=True)
class Spherelet:
    """A d-sphere in R^D: frame V (D x (d+1)), center c, radius r, data mean mu.

    ``degenerate`` marks the infinite-radius limit where the sphere
    collapses to a hyperplane; projection then delegates to ``plane``,
    the reduction hyperplane mu + span(V) the fit was computed in.
    """

    frame: np.ndarray
    center: np.ndarray
    radius: float
    mu: np.ndarray
    degenerate: bool = False

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def plane(self) -> Hyperplane:
        return Hyperplane(mu=self.mu, frame=self.frame)

    def project(self, X: np.ndarray) -> np.ndarray:
        return project_sphere(X, self)

    def residual_sq(self, X: np.ndarray) -> np.ndarray:
        return sphere_residual_sq(X, self)


Piece = Spherelet | Hyperplane


@dataclass(frozen=True)
class SphereFitDiagnostics:
    h_condition: float
    algebraic_loss: float
    geometric_mse: float


@dataclass(frozen=True)
class SphereFits:
    """Sphere fits of m point sets, row i fitted to the i-th set.

    Fields are those of ``fit_sphere`` with a leading row axis: ``mu``
    (m, D) and ``frame`` (m, D, d+1) give each reduction hyperplane,
    whose top-w columns also span the best w-dimensional affine subspace
    for w <= d+1. A degenerate row has center ``mu`` and radius inf.
    """

    mu: np.ndarray
    frame: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
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


def _outer_sums(A: np.ndarray, B: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums of the outer products a_r b_r' (m, p, q), taken one
    column of B at a time so that memory stays O(N p)."""
    return np.stack([np.add.reduceat(A * b[:, None], starts) for b in B.T], axis=-1)


def stacked_pca(X: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Means (m, D) and scatter eigenvectors (m, D, D) of the m point sets
    whose rows X (N, D) are cut at ``starts``: columns by decreasing
    eigenvalue, sign rule of ``sym_eig``. ``axes[i][:, :w]`` frames set
    i's best w-dim subspace. Raises InsufficientDataError for an empty set."""
    X, starts, sizes = _segments(X, starts)
    if np.any(sizes == 0):
        raise InsufficientDataError("a point set has no rows")
    mu = np.add.reduceat(X, starts) / sizes[:, None]
    Xc = X - np.repeat(mu, sizes, axis=0)
    return mu, sym_eig(_outer_sums(Xc, Xc, starts)).eigenvectors


def fit_pieces(X: np.ndarray, starts, d: int, fitter: str) -> tuple[list[Piece], np.ndarray]:
    """The model piece of each point set (rows X cut at ``starts``) and its
    first principal axis (m, D). Under ``spca`` a piece is the set's
    d-sphere, or its (d+1)-wide reduction plane when degenerate; under
    ``pca``, or for a set that cannot carry a d-sphere, it is the
    min(d, D)-wide PCA plane."""
    if fitter not in ("spca", "pca"):
        raise ParameterError(f"fitter must be 'spca' or 'pca', got {fitter!r}")
    X, starts, sizes = _segments(X, starts)
    sphere = (sizes >= d + 2) & (fitter == "spca" and d < X.shape[1])
    pieces: list[Piece] = [None] * sizes.size
    first = np.empty((sizes.size, X.shape[1]))  # not a view: split rules must not pin the D x D axes
    if not sphere.all():  # each set is fitted only by the kernel its piece needs
        mu, axes = stacked_pca(*_subsets(X, sizes, ~sphere))
        first[~sphere] = axes[:, :, 0]
        for i, m, V in zip(np.flatnonzero(~sphere), mu, axes):
            pieces[i] = Hyperplane(mu=m, frame=V[:, : min(d, X.shape[1])].copy())
    if sphere.any():
        fits = fit_spheres(*_subsets(X, sizes, sphere), d)
        first[sphere] = fits.frame[:, :, 0]
        for i, V, m, c, r, deg in zip(np.flatnonzero(sphere), fits.frame, fits.mu, fits.center,
                                      fits.radius, fits.degenerate):
            s = Spherelet(frame=V.copy(), center=c, radius=float(r), mu=m, degenerate=bool(deg))
            pieces[i] = s.plane if deg else s
    return pieces, first


def _subsets(X: np.ndarray, sizes: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and segment starts of the kept sets."""
    return X[np.repeat(keep, sizes)], np.cumsum(sizes[keep]) - sizes[keep]


def fit_hyperplane(X: np.ndarray, d: int) -> Hyperplane:
    """Fit the (d+1)-dimensional affine subspace through the data that a
    d-sphere would live in: sample mean plus top d+1 scatter eigenvectors.
    """
    if d < 0:
        raise ParameterError(f"d must be >= 0, got {d}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if d + 1 > D:
        raise DimensionError(f"frame width {d + 1} exceeds ambient dimension {D}")
    if n < d + 1:
        raise InsufficientDataError(f"need at least {d + 1} points, got {n}")
    mu, axes = stacked_pca(X, [0])
    return Hyperplane(mu=mu[0], frame=axes[0, :, : d + 1].copy())


def project_plane(x: np.ndarray, p: Hyperplane) -> np.ndarray:
    """Orthogonal projection mu + VV'(x - mu); idempotent."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.ambient_dim:
        raise DimensionError(
            f"point dimension {x.shape[-1]} != plane dimension {p.ambient_dim}"
        )
    return _plane_images(x, p.mu, p.frame)


def project_planes(P: np.ndarray, mu: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Stacked ``project_plane``: the points P[i] (shape (m, q, D)) onto
    the affine subspace mu[i] + span(frame[i])."""
    return _plane_images(P, mu[:, None, :], frame)


def _plane_images(x: np.ndarray, mu: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """mu + VV'(x - mu), broadcasting over leading axes of a stack."""
    return mu + ((x - mu) @ frame) @ np.swapaxes(frame, -1, -2)


def reduce_to_plane(X: np.ndarray, plane: Hyperplane) -> np.ndarray:
    """Map every row into the affine subspace: x_bar + VV'(X_i - x_bar)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return project_plane(X, plane)


def sphere_fit_loss(Y: np.ndarray, f: np.ndarray, b: float | None = None) -> float:
    """Algebraic loss sum_i (y_i'y_i + f'y_i + b)^2 over rows of Y.

    When b is omitted it is set to its optimal value
    b_hat(f) = -mean_i (y_i'y_i + f'y_i), which is how the sphere fit
    eliminates b before solving for f.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    if f.shape[0] != Y.shape[1]:
        raise DimensionError(f"f has dimension {f.shape[0]}, points have {Y.shape[1]}")
    t = np.sum(Y * Y, axis=1) + Y @ f
    if b is None:
        b = -float(np.mean(t))
    return float(np.sum((t + b) ** 2))


def optimal_offset(Y: np.ndarray, f: np.ndarray) -> float:
    """The b minimizing the algebraic loss at fixed f."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    return -float(np.mean(np.sum(Y * Y, axis=1) + Y @ f))


def fit_spheres(X: np.ndarray, starts, d: int) -> SphereFits:
    """Best-fit d-sphere through each point set, the rows X (N, D) cut at
    ``starts``; sets of a fixed size k have ``starts = arange(0, m*k, k)``.

    Each set is reduced to its top-(d+1) PCA subspace, and the linear
    system for the center is solved in the reduced coordinates
    z_i = V'(x_i - x_bar), where the scatter is generically invertible;
    the center maps back as c = x_bar + V c_z. This keeps the center
    inside the affine subspace of the frame, which the ambient-coordinate
    pseudo-inverse form only guarantees for centered data.

    A set is degenerate (hyperplane fallback) when its reduced scatter is
    numerically singular (condition number above ``H_CONDITION_LIMIT``
    or a failed solve) or its radius exceeds ``RADIUS_DIAMETER_RATIO``
    times the data diameter. Each set is judged on its own; one
    degenerate set never affects another.

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
    mu, axes = stacked_pca(X, starts)
    V = axes[:, :, : d + 1]
    Xc = X - np.repeat(mu, sizes, axis=0)

    Z = (Xc[:, None, :] @ np.repeat(V, sizes, axis=0))[:, 0]  # reduced coordinates
    Zc = Z - np.repeat(np.add.reduceat(Z, starts) / sizes[:, None], sizes, axis=0)
    l = np.sum(Z * Z, axis=1)
    lc = l - np.repeat(np.add.reduceat(l, starts) / sizes, sizes)
    Hs = _outer_sums(Zc, Zc, starts)
    xi = _outer_sums(Zc, lc[:, None], starts)

    h_cond = np.linalg.cond(Hs)
    diameter = 2.0 * np.maximum.reduceat(np.linalg.norm(Xc, axis=1), starts)
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
    radius = np.add.reduceat(np.linalg.norm(Z - np.repeat(c_z, sizes, axis=0), axis=1),
                             starts) / sizes
    ok &= np.isfinite(radius) & (radius <= RADIUS_DIAMETER_RATIO * np.maximum(diameter, 1e-300))
    return SphereFits(mu=mu, frame=V, center=np.where(ok[:, None], center, mu),
                      radius=np.where(ok, radius, math.inf), degenerate=~ok, h_condition=h_cond)


def fit_sphere(X: np.ndarray, d: int) -> tuple[Spherelet, SphereFitDiagnostics]:
    """Best-fit d-sphere through the rows of X: ``fit_spheres`` on one set.

    Returns
    -------
    (Spherelet, SphereFitDiagnostics). The spherelet is degenerate
    (hyperplane fallback) when the reduced scatter is numerically
    singular or the fitted radius exceeds ``RADIUS_DIAMETER_RATIO``
    times the data diameter.

    Raises
    ------
    InsufficientDataError if n < d + 2.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fits = fit_spheres(X, [0], d)
    V, mu = fits.frame[0].copy(), fits.mu[0]
    degenerate = bool(fits.degenerate[0])
    s = Spherelet(frame=V, center=fits.center[0], radius=float(fits.radius[0]),
                  mu=mu, degenerate=degenerate)
    if degenerate:
        loss = math.inf
    else:
        loss = sphere_fit_loss((X - mu) @ V, -2.0 * ((s.center - mu) @ V))
    mse = float(np.mean(sphere_residual_sq(X, s)))
    return s, SphereFitDiagnostics(
        h_condition=float(fits.h_condition[0]), algebraic_loss=loss, geometric_mse=mse
    )


def _sphere_images(
    x: np.ndarray, center: np.ndarray, radius: float | np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form projections c + (r / |VV'(x-c)|) VV'(x-c) of the rows
    of x onto a sphere, broadcasting over leading axes of a stack, and a
    mask that is False where a row projects onto the center and its image
    is undefined."""
    W = ((x - center) @ frame) @ np.swapaxes(frame, -1, -2)
    norms = np.linalg.norm(W, axis=-1)
    regular = ~(norms < 1e-12 * radius)
    scale = np.divide(radius, norms, out=np.full_like(norms, np.nan), where=regular)
    return center + scale[..., None] * W, regular


def project_sphere(x: np.ndarray, s: Spherelet) -> np.ndarray:
    """Closest point on the sphere: c + (r / |VV'(x-c)|) VV'(x-c).

    Delegates to the reduction hyperplane when the spherelet is
    degenerate. Raises SingularProjectionError naming the first point
    that projects onto the center, where every sphere point is equally close.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != s.ambient_dim:
        raise DimensionError(
            f"point dimension {x.shape[-1]} != sphere dimension {s.ambient_dim}"
        )
    if s.degenerate:
        return project_plane(x, s.plane)
    images, regular = _sphere_images(x, s.center, s.radius, s.frame)
    if not np.all(regular):
        bad = int(np.argmin(regular))
        raise SingularProjectionError(f"row {bad} projects onto the sphere center", row=bad)
    return images


def sphere_residual_sq(X: np.ndarray, s: Spherelet) -> np.ndarray:
    """Squared distance of each row to the sphere, via the closed form
    (|VV'(x-c)| - r)^2 + |(I-VV')(x-c)|^2; defined even at the center."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if s.degenerate:
        return s.plane.residual_sq(X)
    diff = X - s.center
    in_norm = np.linalg.norm(diff @ s.frame, axis=1)
    if s.frame.shape[1] == s.frame.shape[0]:
        perp_sq = 0.0  # full frame: no out-of-subspace component
    else:
        total = np.sum(diff * diff, axis=1)
        perp_sq = np.maximum(total - in_norm**2, 0.0)
    return (in_norm - s.radius) ** 2 + perp_sq


def project_spheres(P: np.ndarray, fits: SphereFits) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``project_sphere``: the points P[i] (shape (m, q, D)) onto
    sphere i of ``fits``.

    Returns (projections, ok). ``ok[i]`` is False when fit i is degenerate
    or one of its points projects onto the center (where
    ``project_sphere`` raises); such rows of the projections are NaN and
    left to the caller's fallback.
    """
    ok = ~fits.degenerate
    out = np.full(P.shape, np.nan)
    images, regular = _sphere_images(P[ok], fits.center[ok][:, None, :],
                                     fits.radius[ok][:, None], fits.frame[ok])
    regular = regular.all(axis=1)
    ok[ok] = regular
    out[ok] = images[regular]
    return out, ok


def sphere_arcs(U: np.ndarray, W: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """Great-circle distances r * arccos(u'w / r^2) between sphere points
    given relative to the center (last axis), clamped against round-off."""
    cosang = np.sum(U * W, axis=-1) / (radius * radius)
    return radius * np.arccos(np.clip(cosang, -1.0, 1.0))


def sphere_distance(x: np.ndarray, y: np.ndarray, s: Spherelet) -> float:
    """Intrinsic (great-circle) distance between two points of the sphere:
    r * arccos((x-c)'(y-c) / r^2), clamped against round-off.

    Falls back to the Euclidean distance for a degenerate spherelet.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if s.degenerate:
        return float(np.linalg.norm(x - y))
    return float(sphere_arcs(x - s.center, y - s.center, s.radius))
