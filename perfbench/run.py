"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each invocation runs one workload in a
fresh child process (``workloads.py``) whose environment pins the BLAS
and OpenMP thread pools to one thread, waits for it, and passes its
output through; the last line is the result object. Exits non-zero,
without a result, when the checkout has no ``src/spherelets``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "spherelets" / "cli.py").is_file():
        print(f"error: no spherelets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), *argv],
        cwd=ROOT, env={**os.environ, **PINNED},
    )
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
