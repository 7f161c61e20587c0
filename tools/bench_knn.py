"""Time ``numeric.knn_indices`` and count the distances it evaluates.

    python3 tools/bench_knn.py [--reps 7]

Pins BLAS to one thread before NumPy loads, then for each input prints
the median and quartiles of the wall time of one ``knn_indices`` call
(``time.perf_counter``, after one warm-up call) and the number of
distances it evaluates as a fraction of n^2, counted by wrapping
``numeric.pairwise_sq_dists`` in a separate, untimed call. The inputs:

- spiral: ``noisy_spiral(4000, 0.2, seed=0)``, k = 36, the input of the
  first ``denoise`` pass of the benchmark's ``denoise-spiral`` workload;
- enneper: 20 000 Enneper points plus N(0, 0.01^2) noise, seed 0, k = 20;
- gauss10: 4000 standard normal points in 10 dimensions, k = 36, where
  the leaf boxes prune almost nothing.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spherelets import datasets, numeric  # noqa: E402


def inputs() -> dict[str, tuple[np.ndarray, int]]:
    enneper = datasets.enneper(20_000, seed=0) + numeric.seeded_gaussian(20_000, 3, 0.01, 1)
    return {
        "spiral": (datasets.noisy_spiral(4000, 0.2, seed=0).points, 36),
        "enneper": (enneper, 20),
        "gauss10": (np.random.default_rng(0).normal(size=(4000, 10)), 36),
    }


def evaluated_fraction(X: np.ndarray, k: int) -> float:
    """Distances ``knn_indices`` evaluates on X, as a fraction of n^2."""
    count = 0
    plain = numeric.pairwise_sq_dists

    def counting(A, B):
        nonlocal count
        out = plain(A, B)
        count += out.size
        return out

    numeric.pairwise_sq_dists = counting
    try:
        numeric.knn_indices(X, k)
    finally:
        numeric.pairwise_sq_dists = plain
    return count / X.shape[0] ** 2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7, help="timed calls per input")
    args = ap.parse_args()
    for name, (X, k) in inputs().items():
        numeric.knn_indices(X, k)  # warm-up
        ms = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            numeric.knn_indices(X, k)
            ms.append(1e3 * (time.perf_counter() - t0))
        q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        print(f"{name:8s} n={X.shape[0]:6d} D={X.shape[1]:2d} k={k:2d}  "
              f"median {med:8.1f} ms [{q1:.1f}, {q3:.1f}]  "
              f"evaluated {evaluated_fraction(X, k):.3f} n^2")


if __name__ == "__main__":
    main()
