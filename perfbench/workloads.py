"""Benchmark child process: one workload at one seed, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread. It drives the
public CLI entry point ``spherelets.cli.main(argv)`` in-process, in a
closed loop (one caller, commands run in sequence):

1. set-up: generate the inputs of every input set with
   ``spherelets generate``, several times;
2. the timed loop: the workload's command unit on each input set in
   turn, for about ``--seconds`` and at least ``MIN_REPS`` times;
3. output checks and quality numbers, computed from the output files.

With ``--trace 1`` every CLI call is wrapped in a span, and a layer
replay then calls each module's public functions on the same inputs,
with spans around the calls (see ``replay``). The last line printed is
the result object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import spherelets  # noqa: E402
from spherelets import cli, datasets, model, numeric, partition, spca  # noqa: E402
from spherelets.exceptions import InsufficientDataError, SingularProjectionError  # noqa: E402

# the package namespace re-exports functions named like these two modules
denoise = importlib.import_module("spherelets.denoise")
embed = importlib.import_module("spherelets.embed")

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each run measures INPUT_SETS input sets; set j is generated with seed
# s + INPUT_SEED_STRIDE * j (set 0 uses the run seed itself); averaging the
# quality over several sets steadies it, and MIN_REPS runs every set twice
# so that the byte-identity check sees each command repeated
INPUT_SETS = 3
INPUT_SEED_STRIDE = 1000
MIN_REPS = 2 * INPUT_SETS
# set up at least SETUP_REPS times and for at least SETUP_MIN_S seconds, so
# that the millisecond set-ups get a median over many samples
SETUP_REPS = 3
SETUP_MIN_S = 3.0
# full-scale input sizes; --scale shrinks them for the smoke check
SIZES = {"train": 20000, "test": 20000, "spiral": 4000, "embed": 1000}
FLOORS = {"train": 200, "test": 200, "spiral": 100, "embed": 60}
# workload parameters, shared by the CLI commands and the layer replay
MODEL_D, EPS = 2, 1e-5
DENOISE_K, DENOISE_SIGMA, DENOISE_ITERS, DENOISE_D = 36, 1.0, 2, 1
EMBED_D, EMBED_K, EMBED_SIGMA, EMBED_ITERS = 2, 20, 0.3, 300
RECALL_K = 10

E2E_UNITS = {
    "setup_s": "s",
    "command_rel": "ratio",
    "peak_rss_mb": "MB",
    "error_ratio": "ratio",
    "ok_frac": "fraction",
}
LAYER_UNITS = {
    "datasets.load_csv_s": "s",
    "datasets.save_csv_s": "s",
    "partition.build_tree_s": "s",
    "partition.nodes": "count",
    "partition.leaves": "count",
    "partition.depth": "count",
    "model.leaf_fit_s": "s",
    "model.fits_per_leaf": "ratio",
    "model.save_s": "s",
    "model.load_s": "s",
    "model.file_bytes": "bytes",
    "partition.route_s": "s",
    "model.project_many_s": "s",
    "model.mse_s": "s",
    "numeric.knn_indices_s": "s",
    "numeric.knn_bytes_computed": "bytes",
    "denoise.blur_s": "s",
    "denoise.local_fit_s": "s",
    "spca.fit_sphere_us": "us",
    "spca.project_sphere_us": "us",
    "denoise.fallbacks": "count",
    "denoise.fit_ok_ratio": "ratio",
    "embed.spherical_distances_s": "s",
    "embed.distance_fallbacks": "count",
    "embed.affinities_s": "s",
    "embed.affinity_bytes_computed": "bytes",
    "embed.kl_gradient_ms": "ms",
    "embed.kl_objective_ms": "ms",
    "embed.optimize_s": "s",
    "embed.kl_stalls": "count",
    "embed.knn_recall": "fraction",
    "cli.command_s": "s",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Files:
    """One input set: the paths of its inputs and outputs, all inside the
    checkout, and the CLI commands that read and write them."""

    work: Path
    n: dict[str, int]
    seed: int
    tag: int

    def __call__(self, name: str) -> str:
        return str(self.work / f"{self.tag}-{name}")

    def generate(self, name: str) -> list[str]:
        """The ``spherelets generate`` command for one named input."""
        n, seed = str(self.n[name]), self.seed
        return {
            "train": ["generate", "--dataset", "enneper", "--n", n, "--seed", str(seed),
                      "--out", self("train.csv")],
            "test": ["generate", "--dataset", "enneper", "--n", n, "--seed", str(seed + 1),
                     "--out", self("test.csv")],
            "spiral": ["generate", "--dataset", "spiral", "--n", n, "--noise", "0.2",
                       "--seed", str(seed), "--out", self("spiral.csv")],
            "embed": ["generate", "--dataset", "enneper", "--n", n, "--noise", "0.01",
                      "--seed", str(seed), "--out", self("embed_in.csv")],
        }[name]

    def fit(self) -> list[str]:
        return ["fit", "--input", self("train.csv"), "--d", str(MODEL_D), "--eps", repr(EPS),
                "--out", self("model.json")]

    def project(self) -> list[str]:
        return ["project", "--model", self("model.json"), "--input", self("test.csv"),
                "--out", self("proj.csv"), "--report-mse"]

    def denoise(self) -> list[str]:
        return ["denoise", "--input", self("spiral.csv"), "--method", "smbms", "--k", str(DENOISE_K),
                "--sigma", repr(DENOISE_SIGMA), "--iters", str(DENOISE_ITERS), "--d", str(DENOISE_D),
                "--out", self("denoised.csv")]

    def embed(self) -> list[str]:
        return ["embed", "--input", self("embed_in.csv"), "--mode", "spherical", "--d", str(EMBED_D),
                "--k", str(EMBED_K), "--sigma", repr(EMBED_SIGMA), "--iters", str(EMBED_ITERS),
                "--out", self("emb.csv"), "--log", self("kl.csv")]


@dataclass
class Runner:
    """Runs CLI commands in-process and counts attempts and failures.

    Every command run is one attempt, and so is every check. A command
    fails when it does not return exit code 0; each output it names must
    carry the provenance header and match, byte for byte, the output of
    the first run of the identical command.
    """

    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _digests: dict[tuple, list[str]] = field(default_factory=dict)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def cli(self, argv: list[str]) -> tuple[bool, float, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + argv[0]) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # an uncaught library error is a failed command, not a crash
            rc = traceback.format_exc()
        seconds = time.perf_counter() - t0
        ok = self.check(f"{argv[0]} exit code {rc!r} {err.getvalue().strip()}", rc == 0)
        if ok:
            self._check_outputs(argv)
        return ok, seconds, out.getvalue()

    def _check_outputs(self, argv: list[str]) -> None:
        paths = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--log")]
        command = "spherelets " + " ".join(argv)
        digests = []
        for path in paths:
            try:
                data = Path(path).read_bytes()
            except OSError:
                data = b""
            self.check(f"provenance header of {path}", provenance(path, data) == command)
            digests.append(hashlib.sha256(data).hexdigest())
        first = self._digests.setdefault(tuple(argv), digests)
        self.check(f"{argv[0]} outputs byte-identical on repeat", digests == first)


def provenance(path: str, data: bytes) -> str | None:
    """The command recorded in an output's provenance header, if any."""
    if path.endswith(".json"):
        try:
            return json.loads(data)["provenance"]["command"]
        except (ValueError, KeyError, TypeError):
            return None
    line = data.split(b"\n", 1)[0].decode(errors="replace")
    return line[len("# command: "):] if line.startswith("# command: ") else None


def read_csv(path: str) -> np.ndarray:
    """The benchmark's own CSV reader: skip '#' lines and a header row."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                if rows:
                    raise
    return np.array(rows, dtype=float)


def checked_array(runner: Runner, path: str, shape: tuple[int, int]) -> np.ndarray:
    A = read_csv(path)
    runner.check(f"{path} has shape {shape}, got {A.shape}", A.shape == shape)
    runner.check(f"{path} is finite", bool(np.all(np.isfinite(A))))
    return A


def parse_value(stdout: str, key: str) -> float:
    for token in stdout.split():
        if token.startswith(key + "="):
            return float(token[len(key) + 1:])
    return math.nan


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def knn_recall(X: np.ndarray, Y: np.ndarray, k: int) -> float:
    """Mean share of each point's k input-space neighbours that are also
    among its k neighbours in the embedding (self excluded)."""
    def neighbours(A):
        d2 = sum((A[:, j, None] - A[None, :, j]) ** 2 for j in range(A.shape[1]))
        np.fill_diagonal(d2, np.inf)
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    nx, ny = neighbours(X), neighbours(Y)
    return float(np.mean([np.intersect1d(a, b).size / k for a, b in zip(nx, ny)]))


# -- workloads ---------------------------------------------------------------
#
# A workload names the inputs its set-up generates for each input set, the
# CLI commands that make up one timed unit, and a verify step that checks
# one input set's final outputs and returns its quality numbers, among them
# ``error_ratio`` (lower is better).


def verify_model(runner: Runner, f: Files, stdout: dict[str, str]) -> dict:
    with open(f("model.json"), encoding="utf-8") as fh:
        pieces = len(json.load(fh)["leaves"])
    runner.check("pieces agree with the fit output", pieces == parse_value(stdout.get("fit", ""), "pieces"))
    te = checked_array(runner, f("test.csv"), (f.n["test"], 3))
    proj = checked_array(runner, f("proj.csv"), (f.n["test"], 3))
    test_mse = float(np.mean(np.sum((te - proj) ** 2, axis=1)))
    printed = parse_value(stdout.get("project", ""), "overall_mse")
    runner.check(f"test MSE {test_mse!r} agrees with overall_mse={printed!r}", rel_close(test_mse, printed))
    return {"pieces": pieces, "test_mse": test_mse, "error_ratio": test_mse / EPS}


def curve_msd(X: np.ndarray) -> float:
    return float(np.mean(datasets.distance_to_curve(X, "spiral", 100000) ** 2))


def verify_denoise(runner: Runner, f: Files, stdout: dict[str, str]) -> dict:
    noisy = checked_array(runner, f("spiral.csv"), (f.n["spiral"], 2))
    clean = checked_array(runner, f("denoised.csv"), (f.n["spiral"], 2))
    msd_in, msd_out = curve_msd(noisy), curve_msd(clean)
    runner.check(f"denoised MSD {msd_out:.3e} below input MSD {msd_in:.3e}", msd_out < msd_in)
    return {"input_msd": msd_in, "denoise_msd": msd_out, "error_ratio": msd_out / msd_in}


def verify_embed(runner: Runner, f: Files, stdout: dict[str, str]) -> dict:
    X = checked_array(runner, f("embed_in.csv"), (f.n["embed"], 3))
    Y = checked_array(runner, f("emb.csv"), (f.n["embed"], 2))
    log = checked_array(runner, f("kl.csv"), (EMBED_ITERS // embed.EmbedConfig.kl_every + 1, 2))
    kl = log[:, 1]
    runner.check("KL log is non-increasing", bool(np.all(np.diff(kl) <= 0.0)))
    return {"initial_kl": float(kl[0]), "final_kl": float(kl[-1]), "error_ratio": float(kl[-1] / kl[0]),
            "embed_knn_recall": knn_recall(X, Y, RECALL_K)}


@dataclass(frozen=True)
class Workload:
    inputs: tuple[str, ...]
    commands: tuple[str, ...]
    verify: Callable[[Runner, Files, dict[str, str]], dict]


WORKLOADS = {
    "model-enneper": Workload(("train", "test"), ("fit", "project"), verify_model),
    "denoise-spiral": Workload(("spiral",), ("denoise",), verify_denoise),
    "embed-enneper": Workload(("embed",), ("embed",), verify_embed),
}


# -- layer replay ------------------------------------------------------------


def tree_counts(tree, n_min: int) -> dict:
    """Nodes, leaves and depth of a partition tree, and the number of cells
    whose fit build_tree evaluated (every internal node, and every leaf
    with more than n_min members)."""
    nodes = leaves = evaluated = depth = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if isinstance(node, partition.Leaf):
            leaves += 1
            evaluated += int(node.member_indices.size > n_min)
        else:
            evaluated += 1
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return {"nodes": nodes, "leaves": leaves, "depth": depth, "evaluated": evaluated}


def replay(tr: Tracer, f: Files) -> dict:
    """Call each module's public functions on the workload inputs, with a
    span around each call. Calls a library function makes into another
    layer are traced by wrapping that function where the caller looks it
    up, so the caller's self time excludes them."""
    m = {}

    def took(rec) -> float:
        return rec["end"] - rec["start"]

    # datasets, partition and model, on the enneper train/test inputs
    with tr.span("datasets.load_csv") as r:
        X = datasets.load_csv(f("train.csv"))
    m["datasets.load_csv_s"] = took(r)
    T = datasets.load_csv(f("test.csv"))
    with tr.wrap(model, "build_tree", "partition.build_tree"), tr.span("model.fit") as fit_span:
        fitted = model.fit(X, MODEL_D, EPS)
    build = next(s for s in tr.spans if s["name"] == "partition.build_tree" and s["parent"] == fit_span["id"])
    m["partition.build_tree_s"] = took(build)
    m["model.leaf_fit_s"] = took(fit_span) - took(build)
    counts = tree_counts(fitted.tree, fitted.provenance["n_min"])
    m["partition.nodes"], m["partition.leaves"], m["partition.depth"] = (
        counts["nodes"], counts["leaves"], counts["depth"])
    m["model.fits_per_leaf"] = (counts["evaluated"] + counts["leaves"]) / counts["leaves"]
    with tr.span("model.save") as r:
        fitted.save(f("replay_model.json"))
    m["model.save_s"] = took(r)
    m["model.file_bytes"] = os.path.getsize(f("replay_model.json"))
    with tr.span("model.load") as r:
        loaded = model.load(f("replay_model.json"))
    m["model.load_s"] = took(r)
    with tr.span("partition.route") as r:
        for row in T:
            partition.route(row, loaded.tree)
    m["partition.route_s"] = took(r)
    with tr.span("model.project_many") as r:
        P = loaded.project_many(T)
    m["model.project_many_s"] = took(r)
    with tr.span("model.mse") as r:
        loaded.mse(T)
    m["model.mse_s"] = took(r)
    with tr.span("datasets.save_csv") as r:
        datasets.save_csv(P, f("replay_proj.csv"))
    m["datasets.save_csv_s"] = took(r)

    # numeric, denoise and spca: one smbms pass on the noisy spiral
    S = datasets.load_csv(f("spiral.csv"))
    with tr.span("numeric.knn_indices") as r:
        nbr = numeric.knn_indices(S, DENOISE_K)
    m["numeric.knn_indices_s"] = took(r)
    m["numeric.knn_bytes_computed"] = 2 * 8 * S.shape[0] ** 2  # n x n float64 distances + int64 order
    with tr.wrap(denoise, "knn_indices", "numeric.knn_indices"), tr.span("denoise.blur_step") as r:
        Y = denoise.blur_step(S, DENOISE_K, DENOISE_SIGMA)
    m["denoise.blur_s"] = tr.self_times()[r["id"]]
    fallbacks = 0
    fit_us, proj_us = [], []
    with tr.span("denoise.local_fit") as r:
        for i in range(S.shape[0]):
            hood = Y[nbr[i]]
            try:
                with tr.span("spca.fit_sphere") as s1:
                    sphere, _ = spca.fit_sphere(hood, DENOISE_D)
                fit_us.append(took(s1) * 1e6)
                if sphere.degenerate:
                    fallbacks += 1
                    continue
                with tr.span("spca.project_sphere") as s2:
                    spca.project_sphere(Y[i], sphere)
                proj_us.append(took(s2) * 1e6)
            except (SingularProjectionError, InsufficientDataError):
                fallbacks += 1
    m["denoise.local_fit_s"] = took(r)
    m["spca.fit_sphere_us"] = statistics.median(fit_us)
    m["spca.project_sphere_us"] = statistics.median(proj_us)
    m["denoise.fallbacks"] = fallbacks
    m["denoise.fit_ok_ratio"] = 1.0 - fallbacks / S.shape[0]

    # embed: local spherical distances, affinities and the optimizer
    E = datasets.load_csv(f("embed_in.csv"))
    with tr.wrap(embed, "knn_indices", "numeric.knn_indices"), \
            tr.span("embed.spherical_knn_distances") as r:
        Dmat, m["embed.distance_fallbacks"] = embed.spherical_knn_distances(
            E, EMBED_D, EMBED_K, return_info=True)
    m["embed.spherical_distances_s"] = tr.self_times()[r["id"]]
    with tr.span("embed.affinities") as r:
        Pmat = embed.affinities(Dmat, EMBED_SIGMA)
    m["embed.affinities_s"] = took(r)
    m["embed.affinity_bytes_computed"] = Pmat.nbytes
    cfg = embed.EmbedConfig(k=EMBED_K, sigma=EMBED_SIGMA, iters=EMBED_ITERS, distance_mode="spherical")
    with tr.wrap(embed, "kl_gradient", "embed.kl_gradient"), \
            tr.wrap(embed, "kl_objective", "embed.kl_objective"), tr.span("embed.embed") as r:
        Yemb, log = embed.embed(Pmat, cfg, return_log=True)
    m["embed.optimize_s"] = took(r)
    for name in ("kl_gradient", "kl_objective"):
        m[f"embed.{name}_ms"] = 1e3 * statistics.median(
            took(s) for s in tr.spans if s["name"] == f"embed.{name}" and s["parent"] == r["id"])
    m["embed.kl_stalls"] = sum(1 for a, b in zip(log, log[1:]) if b[1] >= a[1])
    m["embed.knn_recall"] = knn_recall(E, Yemb, RECALL_K)
    return m


# -- one run -----------------------------------------------------------------


def sample_stats(samples: list[float]) -> dict:
    """Median, sample count, and the highest whole percentile that still
    has at least ten samples beyond it (None when there are too few)."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    return {"samples": n, "median": statistics.median(samples), "values": samples,
            "high_percentile": {"p": p, "value": float(np.percentile(samples, p))} if p > 0 else None}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in PIN_VARS},
        "pinning_reason": "perfbench/README.md, section 'BLAS threads'",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# the reference kernel works in place on two 2 MB arrays allocated once, so
# it adds a small constant to the peak RSS instead of a transient peak
_REF = np.random.default_rng(0).uniform(size=(512, 512))
_BUF = np.empty_like(_REF)


def reference_seconds() -> float:
    """Time of a fixed kernel that does not use the library: elementwise
    passes over a 2 MB array, a row-wise argsort and an interpreter loop,
    the three kinds of work the workloads do."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.multiply(_REF, _REF, out=_BUF)
        np.add(_BUF, 1.0, out=_BUF)
        np.reciprocal(_BUF, out=_BUF)
        _BUF.sum(axis=1)
    np.argsort(_REF[:100], axis=1)
    x = 0
    for i in range(200_000):
        x += i * i
    return time.perf_counter() - t0


def timed_loop(runner: Runner, wl: Workload, sets: list[Files], seconds: float):
    """Run the workload's command unit on the input sets in turn, for about
    ``seconds`` and at least ``MIN_REPS`` times, with the reference kernel
    timed just before and just after each unit. Returns the unit times,
    the reference times (mean of the two around each unit), the times of
    each command, and each set's last successful outputs."""
    units: list[float] = []
    refs: list[float] = []
    per_command: dict[str, list[float]] = {c: [] for c in wl.commands}
    stdout: list[dict[str, str]] = [{} for _ in sets]
    before = (reference_seconds(), reference_seconds())[1]  # the first call pays for warm-up
    t0 = time.perf_counter()
    while len(units) < MIN_REPS or time.perf_counter() - t0 + statistics.median(units) <= seconds:
        j = len(units) % len(sets)
        total = 0.0
        for command in wl.commands:
            ok, dt, out = runner.cli(getattr(sets[j], command)())
            per_command[command].append(dt)
            total += dt
            if ok:
                stdout[j][command] = out
        units.append(total)
        after = reference_seconds()
        refs.append(0.5 * (before + after))
        before = after
    return units, refs, per_command, stdout


def run(name: str, seed: int, seconds: float, traced: bool, scale: float) -> dict:
    wl = WORKLOADS[name]
    run_id = f"{name}-s{seed}-t{int(traced)}"
    work = OUT / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sizes = {k: max(int(round(v * scale)), FLOORS[k]) for k, v in SIZES.items()}
    sets = [Files(work=work, n=sizes, seed=seed + INPUT_SEED_STRIDE * j, tag=j) for j in range(INPUT_SETS)]
    tracer = Tracer(run_id) if traced else None
    runner = Runner(tracer)
    t_run = time.perf_counter()

    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        for f in sets:
            for inp in wl.inputs:
                runner.cli(f.generate(inp))
        setup_s.append(time.perf_counter() - t0)

    units, refs, per_command, stdout = timed_loop(runner, wl, sets, seconds)
    rel = [u / r for u, r in zip(units, refs)]
    quality = []
    for f, out in zip(sets, stdout):
        try:
            quality.append(wl.verify(runner, f, out))
        except (OSError, ValueError, KeyError) as exc:
            runner.check(f"outputs of input set {f.tag} readable: {exc!r}", False)
    error_ratio = statistics.fmean(q["error_ratio"] for q in quality)

    record = {"workload": name, "seed": seed, "seconds": seconds, "scale": scale, "sizes": sizes,
              "input_seeds": [f.seed for f in sets], "trace": traced,
              "environment": environment(seed), "loop": "closed, 1 caller, in-process CLI",
              "setup_s": sample_stats(setup_s), "command_s": sample_stats(units),
              "reference_s": sample_stats(refs), "command_rel": sample_stats(rel),
              "per_command_s": {c: sample_stats(v) for c, v in per_command.items()},
              "quality": quality, "error_ratio": error_ratio}
    if traced:
        cli_time, cli_spans = time.perf_counter() - t_run, len(tracer.spans)
        f = sets[0]
        for inp in SIZES:
            if inp not in wl.inputs:
                runner.cli(f.generate(inp))
        t_replay = time.perf_counter()
        metrics = replay(tracer, f)
        replay_time = time.perf_counter() - t_replay
        cost = tracer.span_cost()
        metrics["cli.command_s"] = statistics.median(units)
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.span_cost_us"] = cost * 1e6
        metrics["trace.overhead_frac"] = cost * len(tracer.spans) / (cli_time + replay_time)
        record["tracing"] = {"cli_spans": cli_spans, "cli_overhead_frac": cost * cli_spans / cli_time,
                             "span_summary": tracer.summary()}
        tracer.write(str(OUT / f"trace-{run_id}.json"))
        units_of = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "command_rel": statistics.median(rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_ratio": error_ratio,
        }
        units_of = E2E_UNITS
    metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    record["attempted"], record["failed"], record["failures"] = runner.attempted, runner.failed, runner.failures
    record["metrics"] = metrics
    with open(OUT / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units_of.items()},
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke check)")
    args = ap.parse_args(argv)
    src = Path(spherelets.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"error: spherelets imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("seed must be >= 0, seconds and scale > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
