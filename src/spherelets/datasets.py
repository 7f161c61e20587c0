"""Synthetic benchmark data, CSV I/O, and distance-to-curve oracles.

All generators are pure functions of their arguments, including the
seed. Parameter sampling is uniform at random by default, matching an
i.i.d. sampling model; pass ``equispaced=True`` for deterministic
fixtures.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError, ParseError
from .numeric import seeded_gaussian, seeded_rng

SPIRAL_T_RANGE = (math.pi, 4.0 * math.pi)
EULER_S_MAX = 2.0
# save_csv formats at most this many rows at once, which bounds its memory
CSV_CHUNK_ROWS = 4096
# np.loadtxt skips these around a number, float() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class CurveSample:
    """Sampled curve: rows of ``points`` correspond to ``params``; ``clean``
    holds the noise-free companion (equal to ``points`` when noiseless)."""

    points: np.ndarray
    params: np.ndarray
    clean: np.ndarray | None = None


# -- Euler spiral ------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _euler_fixed(s: np.ndarray, panels: int) -> np.ndarray:
    """Composite 10-point Gauss-Legendre evaluation of the clothoid
    integrals over [0, s_i] with a fixed panel count per row."""
    s = np.asarray(s, dtype=float)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    # t has shape (n_s, panels, nodes); each row integrates over [0, s_i]
    u = mid[None, :, None] + half * _GL_NODES[None, None, :]
    t = s[:, None, None] * u
    w = s[:, None, None] * half * _GL_WEIGHTS[None, None, :]
    tsq = t * t
    cx = np.sum(w * np.cos(tsq), axis=(1, 2))
    sx = np.sum(w * np.sin(tsq), axis=(1, 2))
    return np.column_stack([cx, sx])


def _euler_curve(s: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """gamma(s) = (int_0^s cos(t^2) dt, int_0^s sin(t^2) dt), evaluated by
    adaptive composite quadrature: panels double until the result moves by
    less than `tol`."""
    out_prev = None
    panels = 4
    while True:
        out = _euler_fixed(s, panels)
        if out_prev is not None and np.max(np.abs(out - out_prev)) < tol:
            return out
        if panels > 4096:
            return out
        out_prev = out
        panels *= 2


def euler_spiral(
    n: int,
    s_max: float = EULER_S_MAX,
    seed: int = 0,
    noise_sd: float = 0.0,
    equispaced: bool = False,
) -> CurveSample:
    """Unit-speed clothoid samples: curvature grows linearly with arc length.

    Arc-length parameters are drawn uniformly from [0, s_max] (seeded), or
    equispaced on request.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 < s_max <= EULER_S_MAX:
        raise ParameterError(f"s_max must be in (0, {EULER_S_MAX}], got {s_max}")
    if not 0.0 <= noise_sd < math.inf:
        raise ParameterError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    rng = seeded_rng(seed)
    s = np.linspace(0.0, s_max, n) if equispaced else rng.uniform(0.0, s_max, size=n)
    clean = _euler_curve(s)
    points = clean + seeded_gaussian(n, 2, noise_sd, seed + 1) if noise_sd > 0 else clean.copy()
    return CurveSample(points=points, params=s, clean=clean)


def noisy_spiral(
    n: int,
    noise_sd: float = 0.2,
    seed: int = 0,
    equispaced: bool = False,
) -> CurveSample:
    """Archimedean-type spiral (2t cos t, 2t sin t), t in [pi, 4pi], plus
    white Gaussian noise of the given standard deviation per coordinate."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 <= noise_sd < math.inf:
        raise ParameterError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    lo, hi = SPIRAL_T_RANGE
    rng = seeded_rng(seed)
    t = np.linspace(lo, hi, n) if equispaced else rng.uniform(lo, hi, size=n)
    clean = np.column_stack([2.0 * t * np.cos(t), 2.0 * t * np.sin(t)])
    points = clean + seeded_gaussian(n, 2, noise_sd, seed + 1) if noise_sd > 0 else clean.copy()
    return CurveSample(points=points, params=t, clean=clean)


def enneper(n: int, R: float = 1.0, seed: int = 0) -> np.ndarray:
    """Points of the compact Enneper-surface truncation over the disk
    u^2 + v^2 <= R^2, sampled uniformly on the parameter disk."""
    if not 0.0 < R < math.inf:
        raise ParameterError(f"R must be finite and > 0, got {R}")
    rng = seeded_rng(seed)
    rad = R * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
    u, v = rad * np.cos(ang), rad * np.sin(ang)
    return enneper_map(u, v)


def enneper_map(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.column_stack(
        [
            u - u**3 / 3.0 + u * v**2,
            -v - u**2 * v + v**3 / 3.0,
            u**2 - v**2,
        ]
    )


def sphere_sample(
    n: int,
    d: int,
    D: int,
    center: np.ndarray | float = 0.0,
    radius: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Uniform points on a random d-sphere embedded in R^D: a seeded random
    orthonormal (d+1)-frame, uniform directions on it, center + radius."""
    if d + 1 > D:
        raise ParameterError(f"a {d}-sphere needs ambient dimension >= {d + 1}, got {D}")
    if not 0.0 < radius < math.inf:
        raise ParameterError(f"radius must be finite and > 0, got {radius}")
    rng = seeded_rng(seed)
    A = rng.normal(size=(D, d + 1))
    V, Rq = np.linalg.qr(A)
    V = V * np.sign(np.diag(Rq))[None, :]
    u = rng.normal(size=(n, d + 1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    c = np.broadcast_to(np.asarray(center, dtype=float), (D,))
    return c + radius * (u @ V.T)


def train_test_split(n: int, test_fraction: float = 0.2, seed: int = 0):
    """Disjoint, exhaustive (train, test) index arrays by seeded shuffle."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must be in (0, 1), got {test_fraction}")
    perm = seeded_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


# -- CSV ---------------------------------------------------------------------


def load_csv(path: str) -> np.ndarray:
    """Numeric CSV reader: comma separated, '.' decimal, optional single
    header row (auto-detected), '#'-prefixed comment lines skipped.
    Raises ParseError naming the row and column of a cell that is not a
    finite number (``nan`` and ``inf`` included).

    The body is parsed by one ``np.loadtxt`` call, which rounds as
    ``float`` does. Its result is kept only when it is as wide as the first
    line and finite; otherwise ``_parse_lines`` parses the rows one cell at
    a time with ``float``, which also accepts ``1_000`` and non-ASCII
    digits, and names the offending cell."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [s for line in text.split("\n") if (s := line.strip()) and not s.startswith("#")]
    if lines and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        cells = lines[0].split(",")
        body = lines if all(map(_is_float, cells)) else lines[1:]
        try:  # an empty body would make loadtxt warn
            X = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body else None
        except ValueError:
            X = None
        if X is not None and X.shape[1] == len(cells) and np.isfinite(X).all():
            return X
    return _parse_lines(path, text)


def _parse_lines(path: str, text: str) -> np.ndarray:
    """``load_csv`` of the file contents `text`, one cell at a time."""
    rows: list[list[float]] = []
    width = None
    first_data_line = True
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            if first_data_line:
                first_data_line = False  # header row
                width = len(cells)
                continue
            bad = next(i for i, c in enumerate(cells) if not _is_float(c))
            raise ParseError(
                f"{path}: row {lineno}, column {bad + 1}: not a number: {cells[bad]!r}"
            ) from None
        first_data_line = False
        if not all(map(math.isfinite, values)):
            bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise ParseError(
                f"{path}: row {lineno}, column {bad + 1}: not a finite number: {cells[bad]!r}"
            )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"{path}: row {lineno} has {len(values)} fields, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(
    X: np.ndarray,
    path: str,
    header: list[str] | None = None,
    comments: list[str] | None = None,
) -> None:
    """Write a numeric matrix as CSV; floats keep full round-trip precision."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        if header is not None:
            fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * X.shape[1]) + "\n"
        for lo in range(0, X.shape[0], CSV_CHUNK_ROWS):  # one %-format per chunk
            chunk = X[lo : lo + CSV_CHUNK_ROWS]
            fh.write(row * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def load_iris():
    """Bundled Fisher iris table: (150 x 4 feature matrix, integer labels)."""
    ref = importlib.resources.files("spherelets.data").joinpath("iris.csv")
    with importlib.resources.as_file(ref) as path:
        table = load_csv(str(path))
    return table[:, :4], table[:, 4].astype(int)


# -- distance oracle ---------------------------------------------------------


def curve_grid(curve: str, grid_n: int, param_max: float | None = None) -> np.ndarray:
    """(grid_n + 1) points sampled along the named curve. Doubling grid_n
    refines the grid in place: every old parameter stays on the new grid."""
    u = np.arange(grid_n + 1) / grid_n
    if curve == "euler":
        s_max = EULER_S_MAX if param_max is None else param_max
        return _euler_curve(s_max * u)
    if curve == "spiral":
        lo, hi = SPIRAL_T_RANGE
        t = lo + (hi - lo) * u
        return np.column_stack([2.0 * t * np.cos(t), 2.0 * t * np.sin(t)])
    raise ParameterError(f"unknown curve {curve!r}")


def distance_to_curve(
    points: np.ndarray,
    curve: str,
    grid_n: int = 100_000,
    param_max: float | None = None,
) -> np.ndarray:
    """Per-point Euclidean distance to the nearest of grid_n+1 densely
    sampled curve points; overestimates the true distance by at most the
    grid spacing."""
    if grid_n < 1000:
        raise ParameterError(f"grid_n must be >= 1000, got {grid_n}")
    from scipy.spatial import cKDTree

    grid = curve_grid(curve, grid_n, param_max)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != grid.shape[1]:
        raise DimensionError(
            f"points have dimension {points.shape[1]}, curve has {grid.shape[1]}"
        )
    dist, _ = cKDTree(grid).query(points)
    return np.asarray(dist, dtype=float)
