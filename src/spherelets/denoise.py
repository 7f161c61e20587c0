"""Point-cloud denoising by Gaussian blurring and local projection.

Five ablations of the same per-pass skeleton:

    gbms   blur toward the Gaussian neighborhood mean only
    ltp    project each point onto its local PCA tangent plane only
    mbms   blur, then project onto the tangent plane of the blurred
           neighborhood
    smbms  blur, then project onto the best-fit local sphere of the
           blurred neighborhood
    lsp    project onto the local sphere without blurring

Neighborhoods are the k nearest points (self included) of the running
estimate at the start of each pass; blur-then-fit methods fit on the
blurred images of those original neighbors, which keeps neighborhoods
stable within a pass.

A local model (tangent plane or sphere) is fitted only to the support
of a point's neighborhood: the leading part of its kNN row that lies
within ``SUPPORT_SIGMAS * sigma`` of the point in the running estimate,
the same distances the blur weights use. That is the blur kernel's
effective support (the weight at its edge is exp(-18), about 1.5e-8), so
a neighborhood that reaches across to another strand of the data is not
fitted to that strand's points. The support never shrinks below d + 3
members, the least a local model needs; a point with fewer neighbors
within reach is fitted to its d + 3 nearest.

A pass finds the kNN of all n points at once, then works on blocks of
consecutive points whose neighborhoods hold about ``PASS_BLOCK_ROWS``
rows, so that its temporaries stay a few hundred KiB. It blurs each block
into one (n, D) array, then fits each block's supports in one ragged
``spca.fit_pieces`` call, their rows concatenated and cut at each
support's start offset: the ``spca`` fitter for the sphere methods,
``pca`` for the tangent-plane methods. A set's fit does not depend on the
other sets in the call, so the blocks change no bit of the result. It
projects each point onto its own piece by ``spca.project_pieces``. The
fallback is per row: a point whose local sphere is degenerate, or which
projects onto its sphere's center, lands on the top-d plane of the same
fit instead, and is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError
from .numeric import knn_indices, row_dots, unit_scale
from .spca import fit_pieces, project_pieces

METHODS = ("gbms", "ltp", "mbms", "smbms", "lsp")
_SPHERE_METHODS = ("smbms", "lsp")
_MODEL_METHODS = ("ltp", "mbms", "smbms", "lsp")

# A local model is fitted only to the neighbors within this many sigmas
# of the point: the effective support of the blur kernel.
SUPPORT_SIGMAS = 6.0

# A pass works on blocks of points whose neighborhoods hold about this
# many rows: its temporaries then stay within the cache.
PASS_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class DenoiseConfig:
    method: str
    k: int
    sigma: float = 1.0
    iters: int = 1
    d: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.iters < 1:
            raise ParameterError(f"iters must be >= 1, got {self.iters}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.d < 0:
            raise ParameterError(f"d must be >= 0, got {self.d}")
        if self.method in _MODEL_METHODS and self.k < self.d + 3:
            raise ParameterError(
                f"method {self.method!r} fits local models and needs k >= d+3 = {self.d + 3}"
            )


def _hoods(X: np.ndarray, nbr: np.ndarray, block=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The neighborhoods X[nbr[block]] (b, k, D) of the points X[block]
    and their squared distances to those points (b, k)."""
    hoods = X.take(nbr[block], axis=0)
    diff = hoods - X[block, None, :]
    return hoods, row_dots(diff, diff)


def _blur(hoods: np.ndarray, d2: np.ndarray, sigma: float) -> np.ndarray:
    # a sigma whose square is 0 gives NaN weights without a warning; the
    # CLI reports the NaN rows before it writes them
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(-d2 / (2.0 * sigma * sigma))
        w /= np.sum(w, axis=1, keepdims=True)           # self weight keeps the sum >= 1
    return np.einsum("nk,nkj->nj", w, hoods)


def blur_step(X: np.ndarray, k: int, sigma: float) -> np.ndarray:
    """One Gaussian-mean shift: each point moves to the softmax-weighted
    average of its k-neighborhood (self included). It is one ``gbms`` pass
    of ``denoise``, and so scale-free as ``denoise`` is."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not 1 <= k <= X.shape[0]:
        raise ParameterError(f"k={k} out of range [1, {X.shape[0]}]")
    return denoise(X, DenoiseConfig("gbms", k, sigma))


def denoise(
    X: np.ndarray,
    cfg: DenoiseConfig,
    return_info: bool = False,
) -> np.ndarray | tuple[np.ndarray, int]:
    """Run ``cfg.iters`` denoising passes and return the cleaned points.

    Each pass takes the k nearest points of the running estimate as a
    point's neighborhood. The model methods fit their local plane or
    sphere only to the leading members of that neighborhood within
    ``SUPPORT_SIGMAS * cfg.sigma`` of the point, and never to fewer than
    its ``cfg.d + 3`` nearest; the blur weighs all k. After the kNN, a
    pass blurs, fits and projects blocks of about ``PASS_BLOCK_ROWS``
    neighborhood rows at a time; the result is the same bit for bit at
    any block size.

    A point whose local sphere fit degenerates (or whose projection is
    singular) falls back to the local tangent plane; with
    ``return_info=True`` the count of such fallbacks is returned as well.

    The passes run on X scaled exactly by a power of two to unit scale,
    with sigma scaled alike, and the result is scaled back: scaling X and
    sigma by 2^e, where both stay normal floats, scales the output by 2^e
    bit for bit. A sigma that overflows at unit scale weighs every
    neighbor alike, the sigma -> inf limit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if n < cfg.k:
        raise ParameterError(f"k={cfg.k} exceeds sample size {n}")
    if cfg.method in _SPHERE_METHODS and cfg.d + 1 > D:
        raise DimensionError(f"a {cfg.d}-sphere needs ambient dimension >= {cfg.d + 1}, got {D}")
    if cfg.method in _MODEL_METHODS and cfg.d > D:
        raise DimensionError(f"d={cfg.d} exceeds ambient dimension {D}")

    X, e = unit_scale(X)
    with np.errstate(over="ignore"):
        sigma = float(np.ldexp(cfg.sigma, -e))
    fallbacks = 0
    for _ in range(cfg.iters):
        X, fb = _pass(X, cfg, sigma)
        fallbacks += fb
    X = np.ldexp(X, e)
    if return_info:
        return X, fallbacks
    return X


def _pass(X: np.ndarray, cfg: DenoiseConfig, sigma: float) -> tuple[np.ndarray, int]:
    n, k = X.shape[0], cfg.k
    nbr = knn_indices(X, k)
    step = max(1, PASS_BLOCK_ROWS // k)
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    blurs, fits = cfg.method in ("gbms", "mbms", "smbms"), cfg.method in _MODEL_METHODS
    Y = np.empty_like(X) if blurs else X
    sizes = np.empty(n, dtype=np.intp)
    reach = SUPPORT_SIGMAS * sigma
    reach *= reach  # saturates to inf where ``** 2`` raises OverflowError
    for b in blocks:
        hoods, d2 = _hoods(X, nbr, b)
        if blurs:
            Y[b] = _blur(hoods, d2, sigma)
        if fits:  # rows are ordered by distance, so each support leads its row
            sizes[b] = np.maximum(np.count_nonzero(d2 <= reach, axis=1), cfg.d + 3)
    if not fits:
        return Y, 0

    fitter = "spca" if cfg.method in _SPHERE_METHODS else "pca"
    out, fallbacks = np.empty_like(X), 0
    for b in blocks:
        size = sizes[b]
        support = Y.take(nbr[b][np.arange(k) < size[:, None]], axis=0)
        pieces = fit_pieces(support, np.cumsum(size) - size, cfg.d, fitter).pieces
        images, regular = project_pieces(Y[b, None, :], pieces)
        out[b] = images[:, 0]
        if fitter == "spca":
            fallbacks += np.count_nonzero(~(pieces.sphere & regular[:, 0]))
    return out, int(fallbacks)
