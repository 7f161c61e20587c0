"""Why the benchmark pins BLAS to one thread.

    python3 perfbench/pinning.py

Times ``embed.kl_gradient`` at n=1000 (the dense n x n step of the
``embed-enneper`` workload) in two fresh child processes: one with the
BLAS/OpenMP thread counts left at their defaults, one pinned to one
thread. Prints the median and quartiles of each, in milliseconds.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N, REPS = 1000, 60


def child() -> None:
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    embed = importlib.import_module("spherelets.embed")
    rng = np.random.default_rng(0)
    P = rng.uniform(size=(N, N))
    P = P + P.T
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    Y = rng.normal(size=(N, 2))
    ms = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        embed.kl_gradient(P, Y)
        ms.append(1e3 * (time.perf_counter() - t0))
    q = statistics.quantiles(ms, n=4)
    print(json.dumps({"median_ms": q[1], "q1_ms": q[0], "q3_ms": q[2], "reps": REPS}))


def main() -> None:
    default_env = {k: v for k, v in os.environ.items() if k not in PIN_VARS}
    for label, env in (("default threads", default_env),
                       ("1 thread", {**default_env, **dict.fromkeys(PIN_VARS, "1")})):
        out = subprocess.run([sys.executable, __file__, "--child"], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=170).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"kl_gradient n={N}, {label:15s}: median {r['median_ms']:.1f} ms, "
              f"quartiles {r['q1_ms']:.1f}-{r['q3_ms']:.1f} ms over {r['reps']} calls "
              f"(nproc={os.cpu_count()})")


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main()
