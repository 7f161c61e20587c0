"""Synthetic benchmark data, CSV I/O, and distance-to-curve oracles.

All generators are pure functions of their arguments, including the
seed. Curve parameters are drawn uniformly at random, matching an
i.i.d. sampling model.

``save_csv`` writes each value as exactly the bytes of ``'%.17g' % v``.
For 1e-4 <= |v| < 1e16 it computes them by exact integer arithmetic in
NumPy array passes, ``CSV_CHUNK_ROWS`` rows at a time; every other value
(zero, tiny, huge, subnormal, infinite or NaN) is formatted on its own.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ParameterError, ParseError
from .numeric import seeded_gaussian, seeded_rng

SPIRAL_T_RANGE = (math.pi, 4.0 * math.pi)
EULER_S_MAX = 2.0
# save_csv formats at most this many rows at once; at D <= 3 columns each
# block array then stays under glibc's 128 KiB mmap threshold
CSV_CHUNK_ROWS = 1024
# np.loadtxt skips these around a number, float() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# the leading lines that are blank or '#' comments, each up to its newline
_COMMENT_BLOCK = re.compile(r"(?:[^\S\n]*(?:#[^\n]*)?\n)*")


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
) -> CurveSample:
    """Unit-speed clothoid samples: curvature grows linearly with arc length.

    Arc-length parameters are drawn uniformly from [0, s_max] (seeded).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 < s_max <= EULER_S_MAX:
        raise ParameterError(f"s_max must be in (0, {EULER_S_MAX}], got {s_max}")
    if not 0.0 <= noise_sd < math.inf:
        raise ParameterError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    s = seeded_rng(seed).uniform(0.0, s_max, size=n)
    clean = _euler_curve(s)
    points = clean + seeded_gaussian(n, 2, noise_sd, seed + 1) if noise_sd > 0 else clean.copy()
    return CurveSample(points=points, params=s, clean=clean)


def noisy_spiral(
    n: int,
    noise_sd: float = 0.2,
    seed: int = 0,
) -> CurveSample:
    """Archimedean-type spiral (2t cos t, 2t sin t), t in [pi, 4pi], plus
    white Gaussian noise of the given standard deviation per coordinate."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 <= noise_sd < math.inf:
        raise ParameterError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    lo, hi = SPIRAL_T_RANGE
    t = seeded_rng(seed).uniform(lo, hi, size=n)
    clean = np.column_stack([2.0 * t * np.cos(t), 2.0 * t * np.sin(t)])
    points = clean + seeded_gaussian(n, 2, noise_sd, seed + 1) if noise_sd > 0 else clean.copy()
    return CurveSample(points=points, params=t, clean=clean)


def enneper(n: int, R: float = 1.0, seed: int = 0) -> np.ndarray:
    """Points of the compact Enneper-surface truncation over the disk
    u^2 + v^2 <= R^2, sampled uniformly on the parameter disk."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
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
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
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


# -- CSV ---------------------------------------------------------------------


def load_csv(path: str) -> np.ndarray:
    """Numeric CSV reader: comma separated, '.' decimal, optional single
    header row (auto-detected), '#'-prefixed comment lines skipped.
    Raises ParseError naming the row and column of a cell that is not a
    finite number (``nan`` and ``inf`` included).

    The body is parsed by one ``np.loadtxt`` call, which rounds as
    ``float`` does. When no '#' follows the leading comment block, its
    lines go to ``loadtxt`` as they are, which skips the empty ones. Its
    result is kept only when it is as wide as the first line and finite;
    otherwise ``_parse_lines`` parses the rows one cell at a time with
    ``float``, which also accepts ``1_000`` and non-ASCII digits, and names
    the offending cell. A UTF-8 byte-order mark at the start is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    head, lines = _COMMENT_BLOCK.match(text).end(), text.split("\n")
    if text.find("#", head) < 0:
        del lines[: text.count("\n", 0, head)]
    else:
        lines = [s for line in lines if (s := line.strip()) and not s.startswith("#")]
    if lines and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        cells = lines[0].strip().split(",")
        body = lines if all(map(_is_float, cells)) else lines[1:]
        try:  # a body of empty lines would make loadtxt warn
            X = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if any(body) else None
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
    """Write a numeric matrix as CSV: '# ' comment lines, an optional header
    row, then one line per row of X, its values joined by ','.

    Each value is written as exactly ``'%.17g' % v``, which ``float`` reads
    back to the same double. Values with 1e-4 <= |v| < 1e16 take an exact
    integer fast path (``_format_rows``); every other value is formatted on
    its own. Rows go out in blocks of ``CSV_CHUNK_ROWS``; no array a block
    makes holds more than 25 bytes per value, so at D <= 3 each stays under
    glibc's 128 KiB mmap threshold and the memory does not grow with X.

    Raises ParameterError, before the file is opened, for a comment line
    holding a line break, or a header that is not one cell per column or
    whose cells hold ',' or a line break: ``load_csv`` could not read such
    a file back."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, D = X.shape
    lines = [f"# {line}" for line in comments or []]
    broken = [line for line in lines if "\n" in line or "\r" in line]
    if broken:
        raise ParameterError(f"{path}: comment {broken[0]!r} holds a line break")
    if header is not None:
        if len(header) != D or any(c in cell for cell in header for c in ",\n\r"):
            raise ParameterError(
                f"{path}: header {header!r} must be {D} cells without ',' or line breaks"
            )
        lines.append(",".join(header))
    head = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head)
        if D == 0:
            fh.write(b"\n" * rows)
            return
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            fh.write(_format_rows(X[lo : lo + CSV_CHUNK_ROWS]))


# _format_rows lays each value out in 25 byte slots: its sign, then '0.'
# and up to three zeros in front of a value below 1, then 18 digit slots
# that hold its 17 significant digits with a '.' among them, then ',' or
# '\n'. A row of _KEEP says which slots a value keeps; the slots kept run
# on, so one boolean pass compacts them.
_SLOTS = np.frombuffer(b"-0.000" + b"0" * 18 + b",", dtype=np.uint8)


def _keep_table() -> np.ndarray:
    """Slots kept, by (decimal exponent e in -4..16, index of the last
    nonzero digit slot, sign bit): C's %g fixed notation with trailing
    zeros and a bare '.' dropped. The '.' sits in digit slot e + 1 (below
    1, in slot 17, which is never kept). A digit slot is kept in front of
    the '.' or up to the last nonzero digit."""
    e = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(18)[None, :, None, None]
    keep = np.zeros((21, 18, 2, 25), dtype=bool)
    keep[..., 0] = np.arange(2)[None, None, :]
    keep[..., 1:3] = e < 0
    keep[..., 3:6] = e < -1 - np.arange(3)
    slot = np.arange(18)
    keep[..., 6:24] = (slot <= e) | (slot <= last)
    keep[..., 24] = True
    return keep.reshape(-1, 25)


_KEEP = _keep_table()
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
# ceil(2^57 / 10^8): a 9-digit integer times this is its value over 10^8 as
# a 57-bit fixed-point number, too high by less than one step of its last
# digit, so each x10 step below lifts out one exact digit
_FIX8 = -(-(2**57) // 10**8)


def _significand(M: np.ndarray, E: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """round-half-even(M * 2^E * 10^(16 - e10)), exactly, for uint64
    M in [2^62, 2^63) and 0 <= 16 - e10 <= 21 whose shift s = -E - (16 - e10)
    lies in [8, 56], as they do for 1e-4 <= M * 2^E < 1e16.

    M * 5^q < 2^112 is held in two uint64 words (hi, lo) built from 32-bit
    partial products, and the result is (hi, lo) >> s, rounded by the bits
    shifted out."""
    q = 16 - e10
    s = (-E - q).astype(np.uint64)
    F = _POW5[q]
    f0, f1 = F & 0xFFFFFFFF, F >> 32
    m0, m1 = M & 0xFFFFFFFF, M >> 32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0
    lo = low + (mid << 32)
    hi = m1 * f1 + (mid >> 32) + (lo < low)
    up = 64 - s
    N = (hi << up) | (lo >> s)
    # the bits shifted out, moved to the top of a word, against one half
    return N + ((lo << up) + (N & 1) > 2**63)


def _format_rows(X: np.ndarray) -> np.ndarray:
    """The CSV bytes of the rows of X (D >= 1 columns), as a uint8 array:
    each value is exactly ``'%.17g' % v``."""
    rows, D = X.shape
    x = X.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    m, E = np.frexp(a)
    M, E = (m * 2.0**63).astype(np.uint64), E - 63
    # floor(log10) may be one off next to a power of ten: redo those rows
    e10 = np.floor(np.log10(a)).astype(np.int64)
    N = _significand(M, E, e10)
    fix = (N < 10**16) | (N >= 10**17)
    if fix.any():
        e10[fix] += np.where(N[fix] < 10**16, -1, 1)
        N[fix] = _significand(M[fix], E[fix], e10[fix])
    # a 0 goes in behind the integer digits, where the '.' will be: behind
    # all 17 of them below 1, where the '0.' in front holds the point
    point = _POW10[np.where(e10 < 0, 0, 16 - e10)]
    N += 9 * (N // point) * point
    chars = np.empty((rows, D, 25), dtype=np.uint8)
    chars[:] = _SLOTS
    chars[:, -1, 24] = ord("\n")
    chars = chars.reshape(-1, 25)
    digits = chars[:, 6:24]
    hi = N // 10**9
    for t, first in ((hi * _FIX8, 0), ((N - hi * 10**9) * _FIX8, 9)):
        for k in range(first, first + 9):
            digits[:, k] = t >> 57
            t &= 2**57 - 1
            t *= 10
    last = 17 - np.argmax(digits[:, ::-1] != 0, axis=1)
    digits += ord("0")
    digits[np.arange(len(x)), np.where(e10 < 0, 17, e10 + 1)] = ord(".")
    keep = _KEEP[((e10 + 4) * 18 + last) * 2 + np.signbit(x)]
    if not fast.all():
        idx = np.flatnonzero(~fast)
        text = np.array(["%.17g" % v for v in x[idx].tolist()], dtype="S24")
        raw = text.view(np.uint8).reshape(-1, 24)
        chars[idx, :24] = raw
        keep[idx, :24] = raw != 0
    return chars.ravel()[keep.ravel()]


def load_iris():
    """Bundled Fisher iris table: (150 x 4 feature matrix, integer labels)."""
    ref = importlib.resources.files("spherelets.data").joinpath("iris.csv")
    with importlib.resources.as_file(ref) as path:
        table = load_csv(str(path))
    return table[:, :4], table[:, 4].astype(int)


# -- distance oracle ---------------------------------------------------------


def curve_grid(curve: str, grid_n: int) -> np.ndarray:
    """(grid_n + 1) points sampled along the named curve. Doubling grid_n
    refines the grid in place: every old parameter stays on the new grid."""
    u = np.arange(grid_n + 1) / grid_n
    if curve == "euler":
        return _euler_curve(EULER_S_MAX * u)
    if curve == "spiral":
        lo, hi = SPIRAL_T_RANGE
        t = lo + (hi - lo) * u
        return np.column_stack([2.0 * t * np.cos(t), 2.0 * t * np.sin(t)])
    raise ParameterError(f"unknown curve {curve!r}")


def distance_to_curve(
    points: np.ndarray,
    curve: str,
    grid_n: int = 100_000,
) -> np.ndarray:
    """Per-point Euclidean distance to the nearest of grid_n+1 densely
    sampled curve points; overestimates the true distance by at most the
    grid spacing."""
    if grid_n < 1000:
        raise ParameterError(f"grid_n must be >= 1000, got {grid_n}")
    from scipy.spatial import cKDTree

    grid = curve_grid(curve, grid_n)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != grid.shape[1]:
        raise DimensionError(
            f"points have dimension {points.shape[1]}, curve has {grid.shape[1]}"
        )
    dist, _ = cKDTree(grid).query(points)
    return np.asarray(dist, dtype=float)
