"""Low-dimensional embedding from local spherical distances.

Pipeline: per-point local sphere fits turn the k-NN graph into a sparse
matrix of intrinsic (great-circle) distances; a fixed-bandwidth kernel
exp(-D_ij / sigma^2) converts distances to symmetrized affinities; and a
Student-t embedding minimizes KL(P || Q) by momentum gradient descent.
The n local fits are one ``spca.fit_spheres`` call over the n·k
neighborhood rows, cut every k rows. The fallback is per row: a row
whose fit degenerates, or whose point or a neighbor projects onto the
sphere's center, keeps its Euclidean distances.
A ``euclidean`` distance mode runs the identical pipeline on straight-
line distances over the same k-NN graph for apples-to-apples baselines.

Absent entries of the sparse distance matrix are represented as
``np.inf``; they receive zero affinity.

The optimizer never builds an n x n array. ``embed`` turns P once into
its support ``(rows, cols, vals)``, the off-diagonal nonzeros, and
exaggeration scales ``vals``. The KL gradient splits into an attraction
over that support, O(nk), and an exact repulsion over all pairs, which
one pass computes together with the normalization Z in row blocks of
about ``REPULSION_BLOCK`` pairs; the objective takes Z from the same
pass. Memory beyond the O(nk) support is one block (512 KiB).

The optimizer records KL every ``kl_every`` iterations. If a checkpoint
shows an increase it reverts to the best iterate seen, halves the step,
and clears momentum, so the recorded KL sequence never increases and the
returned embedding is the iterate with the lowest recorded KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DivergenceError, ParameterError
from .numeric import knn_indices
from .spca import fit_spheres, project_spheres, sphere_arcs

DISTANCE_MODES = ("spherical", "euclidean")

# the repulsion pass holds about this many pairs at a time (512 KiB of float64)
REPULSION_BLOCK = 1 << 16


@dataclass(frozen=True)
class EmbedConfig:
    m: int = 2
    k: int = 20
    sigma: float = 1.0
    iters: int = 1000
    learning_rate: float = 100.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch: int = 250
    exaggeration: float = 4.0
    exaggeration_iters: int = 100
    distance_mode: str = "spherical"
    seed: int = 0
    kl_every: int = 50

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ParameterError(f"m must be 1, 2 or 3, got {self.m}")
        if self.iters < 1:
            raise ParameterError(f"iters must be >= 1, got {self.iters}")
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ParameterError(
                f"distance_mode must be one of {DISTANCE_MODES}, got {self.distance_mode!r}"
            )


# -- distances ---------------------------------------------------------------


def spherical_knn_distances(
    X: np.ndarray,
    d: int,
    k: int,
    return_info: bool = False,
) -> np.ndarray | tuple[np.ndarray, int]:
    """Sparse symmetric matrix of local great-circle distances.

    For each point, a d-sphere is fitted to its k-neighborhood (self
    included); the point and its neighbors are projected onto that
    sphere and their arc distances recorded. Rows whose local fit
    degenerates or whose projection is singular fall back to Euclidean
    distances (counted when ``return_info`` is set). The matrix is
    symmetrized entrywise by the minimum over the two directed estimates;
    non-neighbor entries are ``np.inf``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if k < d + 3:
        raise ParameterError(f"need k >= d+3 = {d + 3} to fit local spheres, got k={k}")
    if k > n:
        raise ParameterError(f"k={k} exceeds sample size {n}")
    if d + 1 > D:
        raise DimensionError(f"a {d}-sphere needs ambient dimension >= {d + 1}, got {D}")

    nbr = knn_indices(X, k, exclude_self=False)
    hoods = X[nbr]
    fits = fit_spheres(hoods.reshape(n * k, D), np.arange(0, n * k, k), d)
    proj, ok = project_spheres(np.concatenate([X[:, None, :], hoods], axis=1), fits)
    rows = np.linalg.norm(hoods - X[:, None, :], axis=2)
    c = fits.center[ok][:, None, :]
    rows[ok] = sphere_arcs(proj[ok, :1] - c, proj[ok, 1:] - c, fits.radius[ok][:, None])
    fallbacks = n - int(np.count_nonzero(ok))
    dist = _support_matrix(nbr, rows)
    if return_info:
        return dist, fallbacks
    return dist


def _support_matrix(nbr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense matrix with rows[i, j] at (i, nbr[i, j]), inf elsewhere and on
    the diagonal, symmetrized by the entrywise minimum."""
    n = nbr.shape[0]
    dist = np.full((n, n), np.inf)
    dist[np.arange(n)[:, None], nbr] = rows
    np.fill_diagonal(dist, np.inf)
    return np.minimum(dist, dist.T)


def euclidean_knn_distances(X: np.ndarray, k: int) -> np.ndarray:
    """Euclidean counterpart over the same k-NN support, inf elsewhere."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if k > n:
        raise ParameterError(f"k={k} exceeds sample size {n}")
    nbr = knn_indices(X, k, exclude_self=False)
    return _support_matrix(nbr, np.linalg.norm(X[nbr] - X[:, None, :], axis=2))


def knn_distances(X: np.ndarray, d: int, k: int, mode: str = "spherical") -> np.ndarray:
    if mode == "spherical":
        return spherical_knn_distances(X, d, k)
    if mode == "euclidean":
        return euclidean_knn_distances(X, k)
    raise ParameterError(f"mode must be one of {DISTANCE_MODES}, got {mode!r}")


# -- affinities ---------------------------------------------------------------


def conditional_affinities(Dmat: np.ndarray, sigma: float) -> np.ndarray:
    """Row-conditional affinities p_{j|i} = exp(-D_ij / sigma^2), normalized
    so each row sums to 1 over its support.

    Entries of ``Dmat`` equal to inf are outside the support and get zero
    affinity. Raises ParameterError when some row has empty support.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    Dmat = np.asarray(Dmat, dtype=float)
    n = Dmat.shape[0]
    if Dmat.ndim != 2 or Dmat.shape[1] != n:
        raise DimensionError(f"distance matrix must be square, got {Dmat.shape}")
    support = np.isfinite(Dmat)
    np.fill_diagonal(support, False)
    empty = ~support.any(axis=1)
    if empty.any():
        raise ParameterError(
            f"row {int(np.nonzero(empty)[0][0])} has no neighbors; increase k"
        )
    K = np.zeros((n, n))
    K[support] = np.exp(-Dmat[support] / (sigma * sigma))
    return K / np.sum(K, axis=1, keepdims=True)


def affinities(Dmat: np.ndarray, sigma: float) -> np.ndarray:
    """Symmetrized affinities P_ij = (p_{j|i} + p_{i|j}) / 2."""
    cond = conditional_affinities(Dmat, sigma)
    return 0.5 * (cond + cond.T)


def check_affinity_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.ndim != 2 or P.shape[1] != n:
        raise DimensionError(f"affinity matrix must be square, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ParameterError("affinities must be finite")
    if not np.array_equal(P, P.T):
        raise ParameterError("affinity matrix must be exactly symmetric")
    if np.any(np.diag(P) != 0.0):
        raise ParameterError("affinity matrix must have a zero diagonal")
    if np.any(P < 0.0):
        raise ParameterError("affinities must be nonnegative")
    return P


# -- KL divergence and its gradient ------------------------------------------


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


def _support(P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The off-diagonal nonzeros of a dense P as ``(rows, cols, vals)``; a
    triple passes through unchanged."""
    if isinstance(P, tuple):
        return P
    P = np.asarray(P, dtype=float)
    rows, cols = np.nonzero(P)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    return rows, cols, P[rows, cols]


def _support_kernel(rows: np.ndarray, cols: np.ndarray, Y: np.ndarray):
    """Differences y_i - y_j and Student-t kernel w_ij over the support."""
    diff = Y[rows] - Y[cols]
    return diff, 1.0 / (1.0 + np.einsum("ij,ij->i", diff, diff))


def _repulsion(Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Z = sum_{i != j} w_ij and the rows sum_j w_ij^2 (y_i - y_j).

    One exact pass over blocks of about ``REPULSION_BLOCK`` pairs, so no
    n x n array is ever held. Each block's 1 + |y_i - y_j|^2 is one product
    [y_i, |y_i|^2 + 1, 1] . [-2 y_j, 1, |y_j|^2] (clamped below at 1), and
    its weighted sums sum_j w_ij^2 [y_j, 1] are another.
    """
    n, m = Y.shape
    sq = np.einsum("ij,ij->i", Y, Y)[:, None]
    ones = np.ones((n, 1))
    left = np.hstack([Y, sq + 1.0, ones])
    right = np.hstack([-2.0 * Y, ones, sq]).T
    Y1 = np.hstack([Y, ones])
    rep = np.empty_like(Y)
    Z = 0.0
    step = max(1, REPULSION_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        W = left[lo:hi] @ right
        np.maximum(W, 1.0, out=W)
        np.reciprocal(W, out=W)
        W[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        Z += W.sum()
        W *= W
        S = W @ Y1
        rep[lo:hi] = S[:, m:] * Y[lo:hi] - S[:, :m]
    return Z, rep


def kl_objective(P, Y: np.ndarray) -> float:
    """KL(P || Q(Y)) of an embedding under the Student-t kernel:
    sum over the support of p log(p Z / w). P is dense or a
    ``(rows, cols, vals)`` support; a zero q under positive p yields inf.

    Overflow is deliberately silenced: a diverged iterate produces
    non-finite values that the optimizer's safeguard detects and undoes.
    """
    rows, cols, vals = _support(P)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    keep = vals > 0.0
    rows, cols, p = rows[keep], cols[keep], vals[keep]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Z, _ = _repulsion(Y)
        q = _support_kernel(rows, cols, Y)[1] / Z
        if np.any(q == 0.0):
            return math.inf
        return float(np.sum(p * np.log(p / q)))


def kl_gradient(P, Y: np.ndarray) -> np.ndarray:
    """Analytic gradient 4 sum_j (p_ij - q_ij) w_ij (y_i - y_j), as the
    attraction 4 sum_j p_ij w_ij (y_i - y_j) over the support of P minus
    the repulsion (4 / Z) sum_j w_ij^2 (y_i - y_j) over all pairs. P is
    dense or a ``(rows, cols, vals)`` support."""
    rows, cols, vals = _support(P)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff, w = _support_kernel(rows, cols, Y)
        pw = vals * w
        attract = np.column_stack(
            [np.bincount(rows, pw * diff[:, c], minlength=n) for c in range(Y.shape[1])]
        )
        Z, rep = _repulsion(Y)
        return 4.0 * (attract - rep / Z)


# -- optimizer ----------------------------------------------------------------


def embed(
    P: np.ndarray,
    cfg: EmbedConfig,
    return_log: bool = False,
) -> np.ndarray | tuple[np.ndarray, list[tuple[int, float]]]:
    """Minimize KL(P || Q) over an n-by-m embedding.

    P is globally renormalized to a distribution over ordered pairs.
    Early iterations use affinity exaggeration; momentum switches from
    its early to its late value at ``momentum_switch``. Returns the
    iterate with the lowest recorded KL (and the (iteration, KL) log when
    ``return_log`` is set).
    """
    P = check_affinity_matrix(P)
    total = float(P.sum())
    if total <= 0:
        raise ParameterError("affinity matrix is identically zero")
    n = P.shape[0]
    rows, cols, vals = _support(P)
    vals = vals / total
    support, exaggerated = (rows, cols, vals), (rows, cols, vals * cfg.exaggeration)

    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-4, size=(n, cfg.m))
    velocity = np.zeros_like(Y)
    lr = cfg.learning_rate

    best_Y = Y.copy()
    best_kl = kl_objective(support, Y)
    log: list[tuple[int, float]] = [(0, best_kl)]

    for it in range(1, cfg.iters + 1):
        P_eff = exaggerated if it <= cfg.exaggeration_iters else support
        mom = cfg.momentum_early if it < cfg.momentum_switch else cfg.momentum_late

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
