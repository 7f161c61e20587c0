"""Time the embedding's distances, affinities and KL gradient, and
measure the memory of the first two.

    python3 tools/bench_embed.py [--reps 5]

Pins BLAS to one thread before NumPy loads, then for each size prints
the median and quartiles of the wall time of one
``knn_distances`` + ``affinities`` call pair (``time.perf_counter``,
after one warm-up call), the peak memory ``tracemalloc`` traces in a
separate, untimed call, and the bytes of the resulting affinity pairs.
A second line gives the median and quartiles of one ``kl_gradient``
call on those affinities, normalized to sum 1 as ``embed`` does, at a
fixed N(0, 1) embedding Y (m = 2, seed 2), timed the same way, beside
one call of its exact repulsion pass ``_repulsion`` at that Y, so the
kernel's share of the gradient shows without a profiler.
The inputs are n Enneper points plus N(0, 0.01^2) noise, seed 0, at
n = 1000 (the benchmark's ``embed-enneper`` size), 6000 and 20 000,
with the ``embed-enneper`` parameters: spherical distances, d = 2,
k = 20, sigma = 0.3.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spherelets import datasets, numeric  # noqa: E402
from spherelets.embed import Pairs, _repulsion, affinities, kl_gradient, knn_distances  # noqa: E402

SIZES = (1000, 6000, 20_000)
D, K, SIGMA = 2, 20, 0.3


def pipeline(X) -> Pairs:
    return affinities(knn_distances(X, D, K, "spherical"), SIGMA)


def timed_ms(call, reps: int) -> tuple[float, float, float]:
    """Median, first and third quartile of `reps` timed calls, in ms,
    after one warm-up call."""
    call()
    ms = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
    q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    return med, q1, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5, help="timed calls per size")
    args = ap.parse_args()
    for n in SIZES:
        X = datasets.enneper(n, seed=0) + numeric.seeded_gaussian(n, 3, 0.01, 1)
        med, q1, q3 = timed_ms(lambda: pipeline(X), args.reps)
        tracemalloc.start()
        try:
            P = pipeline(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"n={n:6d}  median {med:8.1f} ms [{q1:.1f}, {q3:.1f}]  "
              f"peak {peak / 1e6:6.1f} MB  pairs {P.rows.size:8d} ({P.nbytes / 1e6:.1f} MB)")
        P = Pairs(n, P.rows, P.cols, P.vals / P.vals.sum())
        Y = numeric.seeded_gaussian(n, 2, 1.0, 2)
        med, q1, q3 = timed_ms(lambda: kl_gradient(P, Y), args.reps)
        rmed, r1, r3 = timed_ms(lambda: _repulsion(Y), args.reps)
        print(f"          kl_gradient {med:8.1f} ms [{q1:.1f}, {q3:.1f}]  "
              f"_repulsion {rmed:8.1f} ms [{r1:.1f}, {r3:.1f}]")


if __name__ == "__main__":
    main()
