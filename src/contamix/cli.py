"""Command-line surface: estimation, simulation, transport queries, scans.

Every subcommand is a thin adapter over the library; outputs are line-oriented
``key=value`` records (CSV is reserved for bulk results).  Exit codes:
0 success, 1 usage error, 2 data/config error, 3 failed certification scan.
"""

import argparse
import os
import sys

import numpy as np

from . import certify as certify_mod
from .estimator import estimate, grid_levels
from .kernels import FAMILIES, Kernel, cross_inner
from .metrics import w1, w2_squared
from .mixture import MixtureParams
from .simharness import ConfigError, emit_csv, load_config, run_experiment, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CERTIFY = 3


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, true/false for bools, str
    otherwise: the ``key=value`` record format."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# `contamix certify`: check -> (certify function, its default scan settings).
# The function is looked up by name when the scan runs, so a wrapped
# ``certify.scan_*`` attribute is the one called.
_CERTIFY = {
    "kappa": ("scan_kappa", dict(M=3.0, steps=300)),
    "cs": ("scan_cs_ratio", dict(range_=5.0, steps=100, diagonal_margin=0.2)),
    "l2w2": ("scan_l2w2", dict(lambda_steps=9, mu_range=3.0, mu_steps=12)),
    "crucial": ("scan_crucial_inequality", dict(lambda_steps=9, mu_range=3.0, mu_steps=12)),
    "decorrelation": ("decorrelation_profile", dict(a_values=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0))),
}


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_kernel(args) -> Kernel:
    alpha = getattr(args, "alpha", None)
    dim = getattr(args, "dim", 1)
    try:
        return Kernel(args.kernel, alpha=alpha, dim=dim)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise _UsageError(f"{flag}: expected finite numbers, got {text!r}")
    return vec


def _read_data(path: str, dim: int) -> np.ndarray:
    """Headerless CSV of coordinates, one sample per line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _DataError(f"cannot read data file {path}: {exc}") from exc
    rows = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim:
            raise _DataError(f"{path}:{ln}: expected {dim} coordinate(s), got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise _DataError(f"{path}:{ln}: malformed number in {line!r}") from None
    if not rows:
        raise _DataError(f"data file {path} contains no samples")
    data = np.array(rows)
    return data[:, 0] if dim == 1 else data


def _cmd_estimate(args) -> int:
    if not 0.0 < args.bound_m < np.inf:
        raise _UsageError("--bound-m must be positive and finite")
    kernel = _build_kernel(args)
    data = _read_data(args.data, kernel.dim)
    try:
        lambda_levels, _, mu_levels = grid_levels(len(data), args.bound_m, kernel.dim)
        result = estimate(kernel, data, args.bound_m)
    except ValueError as exc:  # grid overflow, n too small
        raise _DataError(str(exc)) from exc
    print(f"lambda_hat={_fmt(result.lambda_hat)}")
    print("mu_hat=" + ",".join(_fmt(float(v)) for v in result.mu_hat))
    print(f"contrast_value={_fmt(result.contrast_value)}")
    print(f"n={len(data)}")
    print(f"lambda_levels={lambda_levels}")
    print(f"mu_levels={mu_levels}")
    return EXIT_OK


def _check_writable(path: str, kind: str) -> None:
    """Raise write_csv's OSError now if ``path`` cannot be written, leaving it untouched."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise OSError(f"cannot write {kind} CSV {path}: not a writable file path")


def _cmd_simulate(args) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.raw is not None and os.path.realpath(args.raw) == os.path.realpath(args.out):
        raise _UsageError(f"--raw and --out name the same file: {args.out}")
    for kind, path in (("summary", args.out), ("raw", args.raw)):
        if path is not None:
            _check_writable(path, kind)
    config = load_config(args.config)
    if args.paper:
        from dataclasses import replace

        config = replace(config, replicates=1000)
    result = run_experiment(config)
    emit_csv(result, args.out, args.raw)
    print(f"summary={args.out}")
    if args.raw:
        print(f"raw={args.raw}")
    return EXIT_OK


def _cmd_wasserstein(args) -> int:
    for flag, lam in (("--lambda1", args.lambda1), ("--lambda2", args.lambda2)):
        if not 0.0 <= lam <= 1.0:
            raise _UsageError(f"{flag} must lie in [0, 1], got {lam}")
    mu1 = _parse_vector(args.mu1, "--mu1")
    mu2 = _parse_vector(args.mu2, "--mu2")
    if mu1.shape != mu2.shape:
        raise _UsageError(f"--mu1 and --mu2 have different dimensions ({mu1.size} vs {mu2.size})")
    g1 = MixtureParams(args.lambda1, mu1)
    g2 = MixtureParams(args.lambda2, mu2)
    if args.p == 1:
        print(f"w1={_fmt(w1(g1, g2))}")
    else:
        print(f"w2_squared={_fmt(w2_squared(g1, g2))}")
    return EXIT_OK


def _cmd_inner_product(args) -> int:
    kernel = _build_kernel(args)
    mu = _parse_vector(args.mu, "--mu")
    if mu.size != kernel.dim:
        raise _UsageError(f"--mu: expected {kernel.dim} coordinate(s) for --dim {kernel.dim}, got {mu.size}")
    value = cross_inner(kernel, mu)
    print(f"inner_product={_fmt(value)}")
    return EXIT_OK


def _run_scan(kernel: Kernel, check: str):
    name, kw = _CERTIFY[check]
    return getattr(certify_mod, name)(kernel, **kw)


def _cmd_certify(args) -> int:
    kernel = _build_kernel(args)
    report = _run_scan(kernel, args.check)
    if args.out:  # first, so a failed write prints no report
        write_csv(args.out, "surface", report.surface_columns, report.surface)
    desc = kernel.family if kernel.alpha is None else f"{kernel.family}(alpha={_fmt(kernel.alpha)})"
    print(f"check={report.check_name}")
    print(f"kernel={desc}")
    for key, val in report.grid_spec.items():
        print(f"grid_{key}={_fmt(val)}")
    print(f"extremal_value={_fmt(report.extremal_value)}")
    print("extremal_point=" + ",".join(_fmt(float(v)) for v in report.extremal_point))
    print(f"passed={_fmt(report.passed)}")
    print(f"tolerance={_fmt(report.tolerance)}")
    for key, val in report.details.items():
        print(f"{key}={_fmt(val)}")
    if args.out:
        print(f"surface={args.out}")
    return EXIT_OK if report.passed else EXIT_CERTIFY


def _make_parser() -> _Parser:
    parser = _Parser(prog="contamix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_kernel_flags(p, with_dim=False):
        p.add_argument("--kernel", required=True, choices=FAMILIES)
        p.add_argument("--alpha", type=float, default=None, help="skew_gaussian asymmetry")
        if with_dim:
            p.add_argument("--dim", type=int, default=1)

    p = sub.add_parser("estimate", help="fit (lambda, mu) to a data file")
    add_kernel_flags(p, with_dim=True)
    p.add_argument("--data", required=True, help="headerless CSV, one sample per line")
    p.add_argument("--bound-m", type=float, required=True, dest="bound_m")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="run a Monte-Carlo study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--raw", default=None, help="optional raw per-replicate CSV path")
    p.add_argument(
        "--workers", type=int, default=1,
        help="an integer >= 1; accepted, but replicates run on the calling thread",
    )
    p.add_argument("--paper", action="store_true", help="full-scale preset (1000 replicates)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("wasserstein", help="transport distance between mixing measures")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--mu1", required=True, help="comma-separated coordinates")
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--mu2", required=True)
    p.add_argument("--p", type=int, choices=(1, 2), default=2)
    p.set_defaults(func=_cmd_wasserstein)

    p = sub.add_parser("inner-product", help="translation inner product <phi, phi_mu>")
    add_kernel_flags(p, with_dim=True)
    p.add_argument("--mu", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_inner_product)

    p = sub.add_parser("certify", help="run a numerical certification scan")
    add_kernel_flags(p)
    p.add_argument("--check", required=True, choices=tuple(_CERTIFY))
    p.add_argument("--out", default=None, help="optional CSV of the scanned surface")
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"contamix: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, ConfigError, OSError) as exc:  # config errors and unwritable CSVs
        print(f"contamix: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
