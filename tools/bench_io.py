"""Time the layers of ``fit -> project``: set-up, tree growth, I/O, routing and projection.

    python3 tools/bench_io.py [--reps 9]

Pins BLAS to one thread before NumPy loads, writes 20 000 Enneper train
and test points with ``datasets.save_csv`` to a temporary directory, fits
the ``model-enneper`` benchmark model (d = 2, eps = 1e-5) on the train
points, and prints the median and quartiles of the wall time
(``time.perf_counter``, after one warm-up call) of each of:

- ``generate``: ``spherelets generate`` (``cli.main``) of the train set,
  the set-up unit that the benchmark's ``setup_s`` times, most of which
  is ``save_csv``;
- ``fit``: ``model.fit`` of the train points, which is ``build_tree``
  and the train MSE ``fit`` prints, read off the growth residuals;
- ``load_csv``: ``datasets.load_csv`` of the test CSV;
- ``save``: ``model.save`` of the fitted model;
- ``load``: ``model.load`` of that file;
- ``leaf_index``: ``partition.leaf_index`` of the test points through
  the loaded tree, the batch routing inside ``project_many`` that gives
  each row the row of its piece in the model's table;
- ``project_many``: ``SphereletModel.project_many`` of the test points;
- ``project_mse``: ``SphereletModel.project_mse`` of the test points,
  what ``project --report-mse`` computes;
- ``save_csv``: ``datasets.save_csv`` of their projections;
- ``format_ref``: the ``'%.17g'`` %-format of the projections, one
  format string for all rows and no file: the byte oracle that
  ``save_csv``'s body must match (checked once before timing), and the
  cost of formatting through Python's float formatter;
- ``fit_level``: ``spca.fit_pieces`` of one growth level over all the
  train rows, the 2^6 cells at depth 6 of the fitted tree (d = 2);

followed by the size of the model file in bytes, and then ``fit_D<D>``:
``spca.fit_pieces`` (d = 2, so frames 3 wide) of 1000 sets of 20 normal
rows in R^D, for D = 3, 8, 16 and 64, the kernel layer at widths no
benchmark workload has, and ``fit_D<D>_pca``: the same call under the
``pca`` fitter, the plane path that ``bench``, ``rate`` and the ``ltp``
and ``mbms`` denoisers take and no benchmark workload times.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spherelets import cli, datasets, model, partition, spca  # noqa: E402

N = 20_000
LEVEL = 6
SWEEP = (3, 8, 16, 64)


def level_cells(tree, depth: int) -> list:
    """The training rows of each node at this depth, or of a leaf above it."""
    cells, nodes = [], [(tree, 0)]
    while nodes:
        node, t = nodes.pop()
        if isinstance(node, partition.Leaf) or t == depth:
            cells.append(np.concatenate([leaf.member_indices for leaf in partition.iter_leaves(node)]))
        else:
            nodes += [(node.right, t + 1), (node.left, t + 1)]
    return cells


def timed(fn, reps: int) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of fn's wall time in ms."""
    fn()  # warm-up
    ms = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ms.append(1e3 * (time.perf_counter() - t0))
    return tuple(statistics.quantiles(ms, n=4)) if len(ms) > 1 else (ms[0],) * 3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=9, help="timed calls per step")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        train, test, path, out = (os.path.join(tmp, name) for name in
                                  ("train.csv", "test.csv", "model.json", "proj.csv"))
        datasets.save_csv(datasets.enneper(N, seed=0), train)
        datasets.save_csv(datasets.enneper(N, seed=1), test)
        X, T = datasets.load_csv(train), datasets.load_csv(test)
        fitted = model.fit(X, 2, 1e-5)
        fitted.save(path)
        loaded = model.load(path)
        P = loaded.project_many(T)
        row = ",".join(["%.17g"] * P.shape[1]) + "\n"

        def format_ref() -> str:
            return row * P.shape[0] % tuple(P.ravel().tolist())

        datasets.save_csv(P, out)
        with open(out, "rb") as fh:
            if fh.read() != format_ref().encode():
                sys.exit("error: save_csv bytes differ from the '%.17g' format")
        argv = ["generate", "--dataset", "enneper", "--n", str(N), "--seed", "0",
                "--out", os.path.join(tmp, "generated.csv")]
        cells = level_cells(fitted.tree, LEVEL)
        sizes = np.array([rows.size for rows in cells])
        level = (X.take(np.concatenate(cells), axis=0), np.cumsum(sizes) - sizes)
        steps = {
            "generate": lambda: cli.main(argv),
            "fit": lambda: model.fit(X, 2, 1e-5),
            "load_csv": lambda: datasets.load_csv(test),
            "save": lambda: fitted.save(path),
            "load": lambda: model.load(path),
            "leaf_index": lambda: partition.leaf_index(T, loaded.tree),
            "project_many": lambda: loaded.project_many(T),
            "project_mse": lambda: loaded.project_mse(T),
            "save_csv": lambda: datasets.save_csv(P, out),
            "format_ref": format_ref,
            "fit_level": lambda: spca.fit_pieces(*level, 2, "spca"),
        }
        print(f"n={N} pieces={fitted.n_pieces}")
        for name, fn in steps.items():
            with contextlib.redirect_stdout(io.StringIO()):
                q1, med, q3 = timed(fn, args.reps)
            print(f"{name:12s} median {med:7.1f} ms [{q1:.1f}, {q3:.1f}]")
        print(f"model file {os.path.getsize(path)} bytes")
    rng = np.random.default_rng(0)
    for D in SWEEP:
        rows = rng.normal(size=(1000 * 20, D))
        for fitter, suffix in (("spca", ""), ("pca", "_pca")):
            q1, med, q3 = timed(lambda: spca.fit_pieces(rows, np.arange(0, rows.shape[0], 20), 2, fitter),
                                args.reps)
            print(f"{'fit_D' + str(D) + suffix:12s} median {med:7.1f} ms [{q1:.1f}, {q3:.1f}]")


if __name__ == "__main__":
    main()
