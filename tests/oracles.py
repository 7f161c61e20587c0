"""Reference implementations that tests check the library against.

Dense or checked forms of quantities the library computes another way:
a dense KL divergence, a symmetric eigendecomposition that first checks
symmetry, principal angles between subspaces, the stacked sphere fit by
its earlier formulas and kernels, the ragged fits on row-major (N, D)
arrays as they were before the kernels took one (D, N) copy of the
centred rows, a row of a piece table as a
``Spherelet`` or ``Hyperplane`` record, the projection and squared
residual of one such piece in ambient coordinates, the paper's algebraic
sphere loss g(f, b) and its optimal offset, the great-circle distance on
one record, and the kNN's k-d leaves grown one cell at a time.
No library path calls them, so they live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from spherelets import numeric, spca
from spherelets.exceptions import DimensionError
from spherelets.numeric import SymEigResult, eig_desc, row_dots
from spherelets.partition import iter_leaves
from spherelets.spca import Spherelet, fit_pieces, project_sphere, sphere_arcs


@dataclass(frozen=True)
class Hyperplane:
    """Affine subspace mu + span(frame); frame columns are orthonormal."""

    mu: np.ndarray
    frame: np.ndarray


class SphereFits(NamedTuple):
    """Sphere fits of m point sets by a reference kernel: a ``Spherelet``'s
    fields with a leading row axis, ``frame`` (m, D, d+1) the full
    reduction frame even where ``degenerate``; each reduced scatter's
    condition number, each row's squared residual to its set's piece and
    its first reduced coordinate, as ``spca.PieceFits`` defines them."""

    mu: np.ndarray
    frame: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
    h_condition: np.ndarray
    residual_sq: np.ndarray | None
    score: np.ndarray


def fit_plane(X: np.ndarray, w: int) -> Hyperplane:
    """The w-wide PCA plane of the rows of X: row 0 of the ``pca`` table."""
    return piece_record(fit_pieces(X, [0], w, "pca").pieces, 0)


def project_plane(x: np.ndarray, p: Hyperplane) -> np.ndarray:
    """Orthogonal projection mu + VV'(x - mu); idempotent."""
    return p.mu + ((np.asarray(x, dtype=float) - p.mu) @ p.frame) @ p.frame.T


def sphere_residual_sq(X: np.ndarray, s: Spherelet) -> np.ndarray:
    """Squared distance of each row to the sphere, in ambient coordinates:
    (|V'(x-c)| - r)^2 + |(I-VV')(x-c)|^2, defined even at the center. For
    a degenerate spherelet, the squared distance to its d-plane."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if s.degenerate:
        R = X - project_plane(X, Hyperplane(mu=s.mu, frame=s.frame[:, :-1]))
        return row_dots(R, R)
    diff = X - s.center
    inner = diff @ s.frame
    in_norm = np.sqrt(row_dots(inner, inner))
    if s.frame.shape[1] == s.frame.shape[0]:
        perp_sq = 0.0  # full frame: no out-of-subspace component
    else:
        perp = diff - inner @ s.frame.T
        perp_sq = row_dots(perp, perp)
    return (in_norm - s.radius) ** 2 + perp_sq


def sphere_fit_loss(Y: np.ndarray, f: np.ndarray, b: float | None = None) -> float:
    """Algebraic loss sum_i (y_i'y_i + f'y_i + b)^2 over rows of Y.

    When b is omitted it is set to its optimal value ``optimal_offset``,
    which is how the sphere fit eliminates b before solving for f.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    t = row_dots(Y, Y) + Y @ np.asarray(f, dtype=float).ravel()
    if b is None:
        b = -float(np.mean(t))
    return float(np.sum((t + b) ** 2))


def optimal_offset(Y: np.ndarray, f: np.ndarray) -> float:
    """The b minimizing the algebraic loss at fixed f:
    b_hat(f) = -mean_i (y_i'y_i + f'y_i)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return -float(np.mean(row_dots(Y, Y) + Y @ np.asarray(f, dtype=float).ravel()))


def sphere_distance(x: np.ndarray, y: np.ndarray, s: Spherelet) -> float:
    """Great-circle distance r * arccos((x-c)'(y-c) / r^2) between two
    points of a spherelet, by ``spca.sphere_arcs``; the Euclidean distance
    for a degenerate one."""
    x, y = np.ravel(x).astype(float), np.ravel(y).astype(float)
    if s.degenerate:
        return float(np.linalg.norm(x - y))
    return float(sphere_arcs(x - s.center, y - s.center, s.radius))


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


def outer_sums(A: np.ndarray, B: np.ndarray, starts) -> np.ndarray:
    """Per-segment sums of a_r b_r' (m, p, q), both halves of a scatter
    summed."""
    return np.stack([np.add.reduceat(A * b[:, None], starts) for b in B.T], axis=-1)


def column_sums(Xc: np.ndarray, V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Reduced coordinates (N, w) of centred rows Xc (N, D), column j the
    sum V[set, 0, j] Xc[:, 0] + V[set, 1, j] Xc[:, 1] + ... in that order,
    each frame entry repeated to its set's rows."""
    Z = np.empty((Xc.shape[0], V.shape[2]))
    for j in range(V.shape[2]):
        z = np.repeat(V[:, 0, j], sizes) * Xc[:, 0]
        for c in range(1, V.shape[1]):
            z += np.repeat(V[:, c, j], sizes) * Xc[:, c]
        Z[:, j] = z
    return Z


def out_of_plane_sq(Xc: np.ndarray, V: np.ndarray, Z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Squared norms (N,) of (I - VV')(x - x_bar) of centred rows Xc (N, D)
    with reduced coordinates Z (N, w) by their sets' frames V (m, D, w):
    each coordinate less its lift, column c of ``column_sums`` of Z by V'
    (none at w = 0), squared and added a coordinate at a time, as ``spca``
    sums them."""
    R = Xc - column_sums(Z, np.swapaxes(V, 1, 2), sizes) if Z.shape[1] else Xc
    out = R[:, 0] * R[:, 0]
    for c in range(1, R.shape[1]):
        out += R[:, c] * R[:, c]
    return out


def frame_products(Xc: np.ndarray, V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Reduced coordinates of centred rows Xc (N, D) by one 1 x D by D x w
    matrix product per row, with each set's frame V (m, D, w) repeated to
    its rows: the BLAS kernel ``spca._reduced`` once was."""
    return (Xc[:, None, :] @ np.repeat(V, sizes, axis=0))[:, 0]


def reference_fit_spheres(X: np.ndarray, starts, d: int, reduced=frame_products,
                          condition=np.linalg.cond) -> SphereFits:
    """The ``spca`` sphere fit by its earlier formulas: np.linalg.norm / np.sum
    rows, full outer sums, the checked ``sym_eig`` and a second centring.
    ``reduced(Xc, V, sizes)`` gives the reduced coordinates and
    ``condition(Hs)`` the reduced scatters' condition numbers; by default
    the per-row BLAS products and the SVD of ``np.linalg.cond``. No
    per-row residuals: ``residual_sq`` is None; ``score`` is the first
    reduced coordinate."""
    starts = np.asarray(starts)
    sizes = np.diff(starts, append=X.shape[0])
    mu = np.add.reduceat(X, starts) / sizes[:, None]
    Xc = X - np.repeat(mu, sizes, axis=0)
    V = sym_eig(outer_sums(Xc, Xc, starts)).eigenvectors[:, :, : d + 1]
    Xc = X - np.repeat(mu, sizes, axis=0)
    Z = reduced(Xc, V, sizes)
    Zc = Z - np.repeat(np.add.reduceat(Z, starts) / sizes[:, None], sizes, axis=0)
    l = np.sum(Z * Z, axis=1)
    lc = l - np.repeat(np.add.reduceat(l, starts) / sizes, sizes)
    Hs = outer_sums(Zc, Zc, starts)
    xi = outer_sums(Zc, lc[:, None], starts)
    h_cond = condition(Hs)
    diameter = 2.0 * np.maximum.reduceat(np.linalg.norm(Xc, axis=1), starts)
    ok = np.isfinite(h_cond) & (h_cond <= spca.H_CONDITION_LIMIT)
    Hs[~ok] = np.eye(d + 1)
    c_z = 0.5 * np.linalg.solve(Hs, xi)[:, :, 0]
    center = mu + (V @ c_z[:, :, None])[:, :, 0]
    radius = np.add.reduceat(np.linalg.norm(Z - np.repeat(c_z, sizes, axis=0), axis=1),
                             starts) / sizes
    ok &= np.isfinite(radius) & (radius <= spca.RADIUS_DIAMETER_RATIO * np.maximum(diameter, 1e-300))
    return SphereFits(mu=mu, frame=V, center=np.where(ok[:, None], center, mu),
                      radius=np.where(ok, radius, np.inf), degenerate=~ok, h_condition=h_cond,
                      residual_sq=None, score=Z[:, 0])


def _row_major_scatter_sums(A: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums of the outer products of the rows of A (N, p),
    upper triangle column by column over strided columns, mirrored."""
    p = A.shape[1]
    out = np.empty((starts.size, p, p))
    for q in range(p):
        out[:, : q + 1, q] = np.add.reduceat(A[:, : q + 1] * A[:, q : q + 1], starts)
        out[:, q, :q] = out[:, :q, q]
    return out


def _row_major_pca(X: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Means, centred rows (N, D) and scatter eigenvectors of the sets."""
    mu = np.add.reduceat(X, starts) / sizes[:, None]
    Xc = X - np.repeat(mu, sizes, axis=0)
    return mu, Xc, eig_desc(_row_major_scatter_sums(Xc, starts)).eigenvectors


def row_major_fit_spheres(X: np.ndarray, starts, d: int) -> SphereFits:
    """The ``spca`` sphere fit on row-major arrays: every per-set sum a 2-D
    segment sum over strided columns, every broadcast a 2-D repeat, and
    row norms by ``row_dots`` of the (N, p) rows and the out-of-plane term
    by ``out_of_plane_sq``; a full frame's residual has none, as in the
    library. A set of fewer than d + 2 rows is degenerate."""
    X, starts, sizes = spca._segments(X, starts)
    mu, Xc, axes = _row_major_pca(X, starts, sizes)
    V = axes[:, :, : d + 1]
    Z = column_sums(Xc, V, sizes)
    Zc = Z - np.repeat(np.add.reduceat(Z, starts) / sizes[:, None], sizes, axis=0)
    l = row_dots(Z, Z)
    lc = l - np.repeat(np.add.reduceat(l, starts) / sizes, sizes)
    Hs = _row_major_scatter_sums(Zc, starts)
    xi = np.add.reduceat(Zc * lc[:, None], starts)[:, :, None]
    lam = np.abs(np.linalg.eigvalsh(Hs))
    with np.errstate(divide="ignore", invalid="ignore"):
        h_cond = lam.max(axis=1) / lam.min(axis=1)
    h_cond[np.isnan(h_cond) & ~np.isnan(Hs).any(axis=(1, 2))] = math.inf
    xx = row_dots(Xc, Xc)
    diameter = 2.0 * np.sqrt(np.maximum.reduceat(xx, starts))
    ok = (sizes >= d + 2) & np.isfinite(h_cond) & (h_cond <= spca.H_CONDITION_LIMIT)
    Hs[~ok] = np.eye(d + 1)
    c_z = 0.5 * np.linalg.solve(Hs, xi)[:, :, 0]
    center = mu + (V @ c_z[:, :, None])[:, :, 0]
    Zr = Z - np.repeat(c_z, sizes, axis=0)
    dist = np.sqrt(row_dots(Zr, Zr))
    radius = np.add.reduceat(dist, starts) / sizes
    ok &= np.isfinite(radius) & (radius <= spca.RADIUS_DIAMETER_RATIO * np.maximum(diameter, 1e-300))
    residual_sq = (dist - np.repeat(np.where(ok, radius, 0.0), sizes)) ** 2
    plane = np.repeat(~ok, sizes)
    residual_sq[plane] = Z[plane, d] * Z[plane, d]
    if d + 1 < X.shape[1]:  # a full frame leaves nothing out of its plane
        residual_sq += out_of_plane_sq(Xc, V, Z, sizes)
    return SphereFits(mu=mu, frame=V, center=np.where(ok[:, None], center, mu),
                      radius=np.where(ok, radius, math.inf), degenerate=~ok, h_condition=h_cond,
                      residual_sq=residual_sq, score=Z[:, 0])


def row_major_fit_pieces(X: np.ndarray, starts, d: int, fitter: str) -> spca.PieceFits:
    """``spca.fit_pieces`` on row-major arrays, by ``row_major_fit_spheres``
    and the plane residuals' ``row_dots`` of (N, p) rows."""
    X, starts, sizes = spca._segments(X, starts)
    m, D, w = sizes.size, X.shape[1], min(d, X.shape[1])
    if fitter == "spca" and d < D:
        fits = row_major_fit_spheres(X, starts, d)
        sphere, frame = ~fits.degenerate, fits.frame.copy()
        frame[fits.degenerate, :, w:] = 0.0
        pieces = spca.PieceTable(sphere=sphere, width=np.where(sphere, d + 1, w), mu=fits.mu,
                                 frame=frame, center=fits.center, radius=fits.radius)
        return spca.PieceFits(pieces, fits.frame[:, :, 0], fits.residual_sq, fits.score, fits.h_condition)
    mu, Xc, axes = _row_major_pca(X, starts, sizes)
    Z = column_sums(Xc, axes[:, :, : max(w, 1)], sizes)
    residual_sq = out_of_plane_sq(Xc, axes[:, :, :w], Z[:, :w], sizes) if w < D else np.zeros(X.shape[0])
    frame = axes[:, :, : min(d + 1, D)].copy()
    frame[:, :, w:] = 0.0
    pieces = spca.PieceTable(sphere=np.zeros(m, dtype=bool), width=np.full(m, w), mu=mu, frame=frame,
                             center=mu, radius=np.full(m, math.inf))
    return spca.PieceFits(pieces, axes[:, :, 0], residual_sq, Z[:, 0], np.full(m, math.nan))


def piece_record(pieces, j: int):
    """Row j of a ``spca.PieceTable`` as a ``Spherelet`` or ``Hyperplane``."""
    frame = pieces.frame[j, :, : pieces.width[j]].copy()
    if pieces.sphere[j]:
        return Spherelet(frame=frame, center=pieces.center[j], radius=float(pieces.radius[j]),
                         mu=pieces.mu[j])
    return Hyperplane(mu=pieces.mu[j], frame=frame)


def leaf_pieces(model) -> dict:
    """The piece of each leaf of a model as a record, by cell id: the j-th
    leaf depth first has row j of the model's piece table."""
    return {leaf.cell_id: piece_record(model.pieces, j) for j, leaf in enumerate(iter_leaves(model.tree))}


def project_piece(piece, X: np.ndarray) -> np.ndarray:
    """The rows of X projected onto a piece record, a ``Spherelet`` or a
    ``Hyperplane``."""
    return project_sphere(X, piece) if isinstance(piece, Spherelet) else project_plane(X, piece)


def piece_residual_sq(piece, X: np.ndarray) -> np.ndarray:
    """Squared distance of each row of X to a piece record."""
    if isinstance(piece, Spherelet):
        return sphere_residual_sq(X, piece)
    R = X - project_plane(X, piece)
    return row_dots(R, R)


def recursive_kd_leaves(X: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sorted row indices of X's k-d leaves, each with the cell that
    bounds its rows' k-th distances: the leaf itself when it holds k rows,
    else its parent. A cell of more than ``numeric.KNN_LEAF`` rows splits
    at the median of its widest axis, unless a half would get fewer than
    ceil(k/2) rows. One cell at a time, as ``knn_indices`` grew its
    leaves before it grew them a level at a time."""
    leaves, cells = [], [(np.arange(X.shape[0]), None)]
    while cells:
        cell, parent = cells.pop()
        half = cell.size // 2
        if cell.size <= numeric.KNN_LEAF or 2 * half < k:
            leaf = np.sort(cell)
            leaves.append((leaf, leaf if leaf.size >= k else np.sort(parent)))
            continue
        P = X.take(cell, axis=0)
        part = np.argpartition(P[:, np.argmax(np.ptp(P, axis=0))], half)
        cells += [(cell[part[:half]], cell), (cell[part[half:]], cell)]
    return leaves
