"""Command-line interface.

Subcommands: generate, fit, project, denoise, embed, bench, rate.
Every output file begins with a provenance header (command line, seed,
library version) so a re-run with identical flags reproduces it.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
An argument holding a line break or bytes that are not UTF-8 is a usage
error for every subcommand but ``fit``: the '# command:' line of a CSV
output cannot hold it, while the JSON model file escapes it.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from . import bench as bench_mod
from . import model as model_mod
from .datasets import (
    enneper,
    euler_spiral,
    load_csv,
    noisy_spiral,
    save_csv,
    sphere_sample,
)
from .denoise import METHODS as DENOISE_METHODS
from .denoise import DenoiseConfig, denoise
from .embed import EmbedConfig, stsne
from .exceptions import (
    DimensionError,
    DivergenceError,
    InsufficientDataError,
    NonFiniteError,
    ParameterError,
    ParseError,
)
from .numeric import seeded_gaussian

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _provenance(args: argparse.Namespace, argv: list[str]) -> list[str]:
    lines = ["command: spherelets " + " ".join(argv)]
    if hasattr(args, "seed"):
        lines.append(f"seed: {args.seed}")
    lines.append(f"version: {__version__}")
    return lines


def _utf8(text: str) -> bool:
    """Whether text encodes to UTF-8: False where it holds a lone
    surrogate, as an argument of bytes that are not UTF-8 does."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_finite(*outputs: tuple[str, np.ndarray]) -> None:
    """Raise NonFiniteError, before any output is written, naming the
    first row (counted from 0) of the first output array that holds a NaN
    or an infinity."""
    for path, A in outputs:
        bad = ~np.isfinite(A).all(axis=1)
        if bad.any():
            raise NonFiniteError(f"{path}: row {int(bad.argmax())} is not finite; nothing written")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spherelets",
        description="Piecewise-spherical manifold fitting, denoising, and embedding.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    p.add_argument("--dataset", required=True, choices=["euler", "spiral", "enneper", "sphere"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--param-max", type=float, default=None,
                   help="euler: max arc length (default 2); enneper: disk radius; sphere: radius;"
                        " spiral takes none")
    p.add_argument("--clean-out", default=None, help="also write the noise-free points")

    p = sub.add_parser("fit", help="fit a piecewise model to a CSV point set")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--method", choices=["spca", "pca"], default="spca")
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("project", help="project points through a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report-mse", action="store_true")

    p = sub.add_parser("denoise", help="denoise a point cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=list(DENOISE_METHODS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", help="embed points into m dimensions")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["spherical", "euclidean"], default="spherical")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--lr", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True, help="iteration,KL trace CSV")

    p = sub.add_parser("bench", help="MSE-vs-pieces sweep over an eps grid")
    p.add_argument("--dataset", required=True,
                   help="name[:key=val,...], e.g. euler:ntrain=2500,ntest=2500")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps-grid", required=True, help="comma list, strictly decreasing")
    p.add_argument("--methods", default="spca,pca")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate", help="log-log error-vs-scale study on the euler curve")
    p.add_argument("--alpha-grid", required=True, help="comma list of segment diameters")
    p.add_argument("--methods", default="spca,pca")
    p.add_argument("--out", required=True)

    return parser


def _cmd_generate(args, argv) -> int:
    if args.n < 1:
        raise ParameterError(f"--n must be >= 1, got {args.n}")
    pmax = args.param_max
    if args.dataset == "spiral" and pmax is not None:
        raise ParameterError("--param-max does not apply to --dataset spiral")
    # huge --noise or --param-max overflows; _check_finite names the row
    with np.errstate(over="ignore", invalid="ignore"):
        if args.dataset == "euler":
            sample = euler_spiral(args.n, 2.0 if pmax is None else pmax, seed=args.seed,
                                  noise_sd=args.noise)
            points, clean = sample.points, sample.clean
        elif args.dataset == "spiral":
            sample = noisy_spiral(args.n, args.noise, seed=args.seed)
            points, clean = sample.points, sample.clean
        elif args.dataset == "enneper":
            clean = enneper(args.n, 1.0 if pmax is None else pmax, seed=args.seed)
            points = clean + seeded_gaussian(args.n, 3, args.noise, args.seed + 1)
        else:  # sphere
            clean = sphere_sample(args.n, 2, 3, 0.0, 1.0 if pmax is None else pmax,
                                  seed=args.seed)
            points = clean + seeded_gaussian(args.n, 3, args.noise, args.seed + 1)
    comments = _provenance(args, argv)
    outputs = [(args.out, points)] + ([(args.clean_out, clean)] if args.clean_out else [])
    _check_finite(*outputs)
    for path, A in outputs:
        save_csv(A, path, comments=comments)
    print(f"wrote {points.shape[0]} x {points.shape[1]} points to {args.out}")
    return EXIT_OK


def _cmd_fit(args, argv) -> int:
    fitted = model_mod.fit(
        load_csv(args.input), args.d, args.eps, args.n_min, fitter=args.method,
        provenance={"command": "spherelets " + " ".join(argv)},
    )
    fitted.save(args.out)
    print(f"pieces={fitted.n_pieces} train_mse={fitted.train_mse:.6e} model={args.out}")
    return EXIT_OK


def _cmd_project(args, argv) -> int:
    fitted = model_mod.load(args.model)
    Y, overall, per_cell, centre_rows = fitted.project_mse(load_csv(args.input))
    _check_finite((args.out, Y))
    save_csv(Y, args.out, comments=_provenance(args, argv))
    lines = []
    if args.report_mse:
        lines = [f"overall_mse={overall:.17g}",
                 *(f"cell {cid}: mse={mse:.17g}" for cid, mse in sorted(per_cell.items()))]
    if centre_rows:  # rows at their sphere's center, projected onto its d-plane
        lines.append(f"centre_rows={centre_rows}")
    if lines:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_denoise(args, argv) -> int:
    X = load_csv(args.input)
    cfg = DenoiseConfig(method=args.method, k=args.k, sigma=args.sigma,
                        iters=args.iters, d=args.d)
    cleaned, fallbacks = denoise(X, cfg, return_info=True)
    _check_finite((args.out, cleaned))
    save_csv(cleaned, args.out, comments=_provenance(args, argv))
    print(f"denoised {X.shape[0]} points ({fallbacks} linear fallbacks) -> {args.out}")
    return EXIT_OK


def _cmd_embed(args, argv) -> int:
    X = load_csv(args.input)
    cfg = EmbedConfig(m=args.m, k=args.k, sigma=args.sigma, iters=args.iters,
                      learning_rate=args.lr, distance_mode=args.mode, seed=args.seed)
    Y, log = stsne(X, args.d, cfg, return_log=True)
    comments = _provenance(args, argv)
    log_rows = np.array(log, dtype=float)
    _check_finite((args.out, Y), (args.log, log_rows))
    save_csv(Y, args.out, comments=comments)
    save_csv(log_rows, args.log, header=["iteration", "kl"], comments=comments)
    print(f"embedded {X.shape[0]} points; KL {log[0][1]:.6f} -> {log[-1][1]:.6f}")
    return EXIT_OK


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {text!r}: {exc}") from exc


def _cmd_bench(args, argv) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    eps_grid = _parse_float_list(args.eps_grid, "eps")
    records = bench_mod.bench_curve(args.dataset, args.d, eps_grid, methods=methods, seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for line in _provenance(args, argv):
            fh.write(f"# {line}\n")
        fh.write("method,eps,pieces,train_mse,test_mse,wall_time\n")
        for r in records:
            fh.write(
                f"{r.method},{r.eps:.17g},{r.pieces},{r.train_mse:.17g},{r.test_mse:.17g},{r.wall_time:.6f}\n"
            )
    for r in records:
        print(f"{r.method} eps={r.eps:g}: pieces={r.pieces} test_mse={r.test_mse:.3e}")
    return EXIT_OK


def _cmd_rate(args, argv) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    alpha_grid = _parse_float_list(args.alpha_grid, "alpha")
    slopes, records = bench_mod.rate_study(alpha_grid, methods=methods)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for line in _provenance(args, argv):
            fh.write(f"# {line}\n")
        for method in methods:
            fh.write(f"# slope {method}: {slopes[method]:.17g}\n")
        fh.write("method,alpha,segment,mse\n")
        for r in records:
            fh.write(f"{r.method},{r.alpha:.17g},{r.segment},{r.mse:.17g}\n")
    for method in methods:
        print(f"slope[{method}] = {slopes[method]:.4f}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "project": _cmd_project,
    "denoise": _cmd_denoise,
    "embed": _cmd_embed,
    "bench": _cmd_bench,
    "rate": _cmd_rate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        # the '# command:' line of a CSV output must stay one line of
        # UTF-8; fit writes JSON, which escapes a line break and a byte
        # that is not UTF-8 (the lone surrogate Python decodes it to)
        if args.cmd != "fit":
            for a in argv:
                if "\n" in a or "\r" in a:
                    raise ParameterError(f"argument {a!r} holds a line break; nothing written")
                if not _utf8(a):
                    raise ParameterError(f"argument {a!r} is not valid UTF-8; nothing written")
        return _COMMANDS[args.cmd](args, argv)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DimensionError, InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NonFiniteError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
