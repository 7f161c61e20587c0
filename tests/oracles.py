"""Reference implementations that tests check the library against.

Dense or checked forms of quantities the library computes another way:
a dense KL divergence, a symmetric eigendecomposition that first checks
symmetry, principal angles between subspaces, the stacked sphere fit by
its direct formulas, a row of a piece table as a ``Spherelet`` or
``Hyperplane`` record, the projection and squared residual of one such
piece in ambient coordinates, the paper's algebraic sphere loss g(f, b)
and its optimal offset, and the great-circle distance on one record.
No library path calls them, so they live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from spherelets import spca
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
    condition number and each row's first reduced coordinate, as
    ``spca.PieceFits`` defines them."""

    mu: np.ndarray
    frame: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
    h_condition: np.ndarray
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


def reference_fit_spheres(X: np.ndarray, starts, d: int) -> SphereFits:
    """The ``spca`` sphere fit by its direct formulas: np.linalg.norm /
    np.sum rows, full outer sums, the checked ``sym_eig``, the reduced
    coordinates of one 1 x D by D x (d+1) BLAS product per row, with each
    set's frame repeated to its rows, and the condition numbers of
    np.linalg.cond's SVD. ``score`` is each row's
    first reduced coordinate."""
    starts = np.asarray(starts)
    sizes = np.diff(starts, append=X.shape[0])
    mu = np.add.reduceat(X, starts) / sizes[:, None]
    Xc = X - np.repeat(mu, sizes, axis=0)
    V = sym_eig(outer_sums(Xc, Xc, starts)).eigenvectors[:, :, : d + 1]
    Z = (Xc[:, None, :] @ np.repeat(V, sizes, axis=0))[:, 0]
    Zc = Z - np.repeat(np.add.reduceat(Z, starts) / sizes[:, None], sizes, axis=0)
    l = np.sum(Z * Z, axis=1)
    lc = l - np.repeat(np.add.reduceat(l, starts) / sizes, sizes)
    Hs = outer_sums(Zc, Zc, starts)
    xi = outer_sums(Zc, lc[:, None], starts)
    h_cond = np.linalg.cond(Hs)
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
                      score=Z[:, 0])


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
