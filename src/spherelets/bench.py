"""Benchmark harness: MSE-versus-pieces curves and error-scaling rates.

``bench_curve`` sweeps an MSE target grid for each fitter and reports
piece counts plus train/predictive MSE on a held-out split, so the two
fitters can be compared at equal error levels. ``rate_study`` fits one
piece per fixed-diameter curve segment and regresses log mean MSE on
log diameter, separating the quadratic-per-point planar error from the
cubic-per-point spherical one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .datasets import _euler_curve, euler_spiral, noisy_spiral, sphere_sample
from .exceptions import ParameterError
from .numeric import seeded_rng
from .spca import fit_pieces, fit_sphere

BENCH_METHODS = ("spca", "pca")
# rate_study samples this many points of each curve segment
POINTS_PER_SEGMENT = 60


@dataclass(frozen=True)
class BenchRecord:
    method: str
    eps: float
    pieces: int
    train_mse: float
    test_mse: float
    wall_time: float


@dataclass(frozen=True)
class RateRecord:
    method: str
    alpha: float
    segment: int
    mse: float


def parse_dataset_spec(spec: str) -> dict:
    """Parse ``name[:key=value,...]`` dataset descriptors, e.g.
    ``euler:ntrain=2500,ntest=2500``."""
    name, _, rest = spec.partition(":")
    out: dict = {"name": name.strip().lower()}
    if out["name"] not in ("euler", "spiral", "circle"):
        raise ParameterError(f"unknown benchmark dataset {out['name']!r}")
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ParameterError(f"malformed dataset option {item!r}")
            out[key.strip()] = float(value)
    return out


def _bench_data(ds: dict, seed: int) -> tuple[np.ndarray, np.ndarray]:
    name = ds["name"]
    n_train = int(ds.get("ntrain", 2500))
    n_test = int(ds.get("ntest", 2500))
    if name == "euler":
        s_max = float(ds.get("smax", 2.0))
        train = euler_spiral(n_train, s_max, seed=seed).points
        test = euler_spiral(n_test, s_max, seed=seed + 1).points
    elif name == "spiral":
        sd = float(ds.get("noise", 0.0))
        train = noisy_spiral(n_train, sd, seed=seed).points
        test = noisy_spiral(n_test, sd, seed=seed + 1).points
    else:  # circle
        r = float(ds.get("radius", 1.0))
        train = sphere_sample(n_train, 1, 2, 0.0, r, seed=seed)
        test = sphere_sample(n_test, 1, 2, 0.0, r, seed=seed + 1)
    return train, test


def bench_curve(
    dataset: str,
    d: int,
    eps_grid: list[float],
    methods: tuple[str, ...] = BENCH_METHODS,
    seed: int = 0,
) -> list[BenchRecord]:
    """One record per (method, eps): fit on the train split, evaluate the
    training MSE and the predictive MSE on the held-out split. ``dataset``
    is a ``parse_dataset_spec`` descriptor."""
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ParameterError("eps grid is empty")
    if not all(b < a for a, b in zip(eps_grid, eps_grid[1:])):  # NaN fails too
        raise ParameterError(f"eps grid must be strictly decreasing, got {eps_grid}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise ParameterError(f"unknown method {m!r}")
    train, test = _bench_data(parse_dataset_spec(dataset), seed)

    records = []
    for method in methods:
        for eps in eps_grid:
            t0 = time.perf_counter()
            fitted = model_mod.fit(train, d, eps, fitter=method)
            wall = time.perf_counter() - t0
            train_mse, _ = fitted.train_mse(train)
            test_mse, _ = fitted.mse(test)
            records.append(
                BenchRecord(
                    method=method,
                    eps=eps,
                    pieces=fitted.n_pieces,
                    train_mse=train_mse,
                    test_mse=test_mse,
                    wall_time=wall,
                )
            )
    return records


def rate_study(
    alpha_grid: list[float] | None = None,
    methods: tuple[str, ...] = BENCH_METHODS,
    seed: int = 0,
) -> tuple[dict[str, float], list[RateRecord]]:
    """Per-segment single-piece fits at several segment diameters.

    The Euler spiral's arc-length range is carved into contiguous arcs of
    length alpha; each arc is sampled at ``POINTS_PER_SEGMENT`` points,
    fitted with one sphere or one line, and its mean squared residual
    recorded. Returns the least-squares slope of log(mean MSE) versus
    log(alpha) per method, plus all per-segment records. Degenerate fits
    are dropped from the regression.
    """
    if alpha_grid is None:
        alpha_grid = list(np.geomspace(0.05, 0.5, 6))
    alpha_grid = sorted(float(a) for a in alpha_grid)
    if not alpha_grid or not all(0.0 < a < math.inf for a in alpha_grid):
        raise ParameterError(f"alpha grid must hold finite positive diameters, got {alpha_grid}")
    if alpha_grid[-1] / alpha_grid[0] < 10.0 * (1.0 - 1e-09):
        raise ParameterError(
            f"alpha grid must span at least one decade, got [{alpha_grid[0]}, {alpha_grid[-1]}]"
        )

    s_max = 2.0
    rng = seeded_rng(seed)
    records: list[RateRecord] = []
    mean_mse: dict[str, dict[float, float]] = {m: {} for m in methods}
    for alpha in alpha_grid:
        n_seg = int(s_max / alpha)
        seg_pts = []
        for j in range(n_seg):
            s = rng.uniform(j * alpha, (j + 1) * alpha, size=POINTS_PER_SEGMENT)
            seg_pts.append(_euler_curve(np.sort(s)))
        for method in methods:
            mses = []
            for j, pts in enumerate(seg_pts):
                if method == "spca":
                    s_fit, diag = fit_sphere(pts, 1)
                    if s_fit.degenerate:
                        continue
                    mse = diag.geometric_mse
                else:
                    line = fit_pieces(pts, [0], 1, "pca")[0][0]
                    mse = float(np.mean(line.residual_sq(pts)))
                mses.append(mse)
                records.append(RateRecord(method=method, alpha=alpha, segment=j, mse=mse))
            if mses:
                mean_mse[method][alpha] = float(np.mean(mses))

    slopes = {}
    for method in methods:
        pts = mean_mse[method]
        if len(pts) < 2:
            raise ParameterError(f"not enough usable scales for method {method!r}")
        la = np.log(np.array(sorted(pts)))
        lm = np.log(np.array([pts[a] for a in sorted(pts)]))
        slopes[method] = float(np.polyfit(la, lm, 1)[0])
    return slopes, records
