#!/usr/bin/env python3
"""contamix benchmark: four study workloads run through the public CLI.

Usage (from the checkout root):

    python3 perfbench/run.py --workload desk_w1 --seed 7 --seconds 28 --trace 0

Each pass runs one workload as a user runs it: a fresh interpreter imports
contamix from ``src/`` and calls ``contamix.cli.main(["simulate", ...])`` or
``(["certify", ...])`` one call after another (closed loop, one process, at
most two threads).  Fresh processes matter because the inner-product memos
are process-global, so every ``contamix simulate`` pays their cold fill.
Passes repeat until ``--seconds`` is used up.  Study time and CPU time are
means over the passes; the other metrics are medians over passes.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (see ``spans.py``), the process counters of the untraced
ones, and the tracing overhead.  Every metric is also printed by name with
its unit above the last line, which is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Correctness: each call must exit 0; simulate summaries must agree exactly
with their raw CSVs; CSV and ``key=value`` bytes must match the sha256
digests pinned in ``digests.json`` (at the default seed; other seeds must
repeat byte for byte across passes, and certify output does not depend on
the seed).  After the timed passes, replicates chosen by the seed are
re-estimated (two of desk_w1, one of full_w2, and one at n = 500 and one at
n = 2000 per families_rate family): their ``(lambda_index, mu_index)`` must
equal the argmin of ``contrast_naive`` over the full grid, and their
estimates the raw CSV row.  A mismatch counts the affected items as failed.
A full results file with the environment and a host calibration time is
written under ``.perfbench_out/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

from spans import CERTIFY_CHECKS, FAMILIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 20260809
SKEW_ALPHA = 10
FULL_REPLICATES = 4
RATE_REPLICATES = 4
RATE_FAMILIES = ("laplace", "cauchy", "skew_gaussian")
DESK_SPOT_CHECKS = 2

MIN_PASSES = 3          # untraced passes per run (2 untraced + 2 traced with --trace 1)
RUN_DEADLINE_S = 140    # stop starting passes after this; spot checks follow, all within 180 s

WORKLOADS = {
    "desk_w1": "fig1_desk.config verbatim (n = 1000, 24 cells x 30 replicates), --workers 1",
    "full_w2": f"fig1_full.config (n = 5000, 24 nu) at {FULL_REPLICATES} replicates, --workers 2",
    "families_rate": f"rate_scaling.config shape for laplace, cauchy, skew_gaussian "
                     f"(alpha {SKEW_ALPHA}), {RATE_REPLICATES} replicates, --workers 1",
    "certify_all": "5 certification checks x 4 families at the CLI defaults, with surfaces",
}

E2E_UNITS = {
    "study_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_item": "ms",
}

# Per-layer metrics of a traced run; spans.Tracer.summary computes all but the
# last five, which come from the untraced passes and the item counts.
LAYER_UNITS = {
    "simharness.run_replicate.ms_p50": "ms",
    "simharness.run_replicate.ms_p95": "ms",
    "simharness.busy_frac": "frac",
    "simharness.emit_csv.ms_total": "ms",
    "estimator.precompute.ms_total": "ms",
    "estimator.precompute.gaussian.ms_total": "ms",
    "estimator.precompute.laplace.ms_total": "ms",
    "estimator.precompute.cauchy.ms_total": "ms",
    "estimator.precompute.skew_gaussian.ms_total": "ms",
    "estimator.shift_sum_evals": "count",
    "estimator.precompute.ns_per_eval": "ns",
    "estimator.scan.ms_total": "ms",
    "estimator.build_grid.ms_total": "ms",
    "estimator.grid_points": "count",
    "mixture.sample_mixture.ms_total": "ms",
    "kernels.cross_inner_many.calls": "count",
    "kernels.cross_inner_many.ms_total": "ms",
    "kernels.inner_cache_miss_ratio": "ratio",
    "kernels.cross_inner.calls": "count",
    "kernels.cross_inner.ms_total": "ms",
    "mixture.l2_distance_sq.calls": "count",
    "mixture.l2_distance_sq.ms_total": "ms",
    "metrics.w2_squared.calls": "count",
    "metrics.w2_squared.ms_total": "ms",
    "certify.kappa.ms": "ms",
    "certify.cs.ms": "ms",
    "certify.l2w2.ms": "ms",
    "certify.crucial.ms": "ms",
    "certify.decorrelation.ms": "ms",
    "cli.self_ms": "ms",
    "process.minor_faults_per_item": "count",
    "process.sys_cpu_frac": "frac",
    "tracing.overhead_frac": "frac",
    "failed_frac": "frac",
    "study.items": "count",
}


class BenchError(Exception):
    """The checkout cannot run the benchmark at all (no result is printed)."""


@dataclass
class Call:
    label: str
    argv: list
    items: int
    outputs: dict                              # digest label -> file name (None: stdout)
    config: str | None = None                  # simulate only: config file name


@dataclass
class Workload:
    name: str
    workers: int
    calls: list
    spot: list                                 # (call index, cell index, rep index)

    @property
    def items(self) -> int:
        return sum(c.items for c in self.calls)


# ----------------------------- workloads -----------------------------


def _config_text(base: str, **overrides) -> str:
    """A bundled config with some keys replaced in place and new keys appended."""
    path = ROOT / "configs" / base
    if not path.is_file():
        raise BenchError(f"missing {path}")
    lines = []
    left = dict(overrides)
    for line in path.read_text().splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if "=" in line.split("#", 1)[0] and key in left:
            line = f"{key} = {left.pop(key)}"
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in left.items()]
    return "\n".join(lines) + "\n"


def _simulate(label: str, config: Path, workers: int, cx) -> tuple:
    cfg = cx.simharness.load_config(config)
    argv = ["simulate", "--config", f"../{config.name}", "--out", f"{label}_summary.csv",
            "--raw", f"{label}_raw.csv", "--workers", str(workers)]
    outputs = {f"{label}/summary": f"{label}_summary.csv", f"{label}/raw": f"{label}_raw.csv"}
    call = Call(label, argv, len(cfg.cells()) * cfg.replicates, outputs, config.name)
    return call, cfg


def build_workload(name: str, seed: int, run_dir: Path, cx) -> Workload:
    """Write the workload's seeded inputs into ``run_dir`` and describe its calls.

    The seed replaces ``master_seed`` and picks the spot-checked replicates.
    """
    rng = random.Random(seed)
    if name in ("desk_w1", "full_w2"):
        if name == "desk_w1":
            text, workers = _config_text("fig1_desk.config", master_seed=seed), 1
        else:
            text, workers = _config_text("fig1_full.config", master_seed=seed,
                                         replicates=FULL_REPLICATES), 2
        (run_dir / "study.config").write_text(text)
        call, cfg = _simulate("gaussian", run_dir / "study.config", workers, cx)
        picks = rng.sample(range(call.items), DESK_SPOT_CHECKS if name == "desk_w1" else 1)
        spot = [(0, k // cfg.replicates, k % cfg.replicates) for k in picks]
        return Workload(name, workers, [call], spot)
    if name == "families_rate":
        calls, spot = [], []
        for family in RATE_FAMILIES:
            extra = {"alpha": SKEW_ALPHA} if family == "skew_gaussian" else {}
            path = run_dir / f"{family}.config"
            path.write_text(_config_text("rate_scaling.config", kernel=family,
                                         replicates=RATE_REPLICATES, master_seed=seed, **extra))
            calls.append(_simulate(family, path, 1, cx)[0])
            # cells 0 and 1 are n = 500 and 2000; the naive oracle at n = 8000 is too slow
            spot += [(len(calls) - 1, ci, rng.randrange(RATE_REPLICATES)) for ci in (0, 1)]
        return Workload(name, 1, calls, spot)
    if name == "certify_all":
        calls = []
        for family in FAMILIES:
            for check in CERTIFY_CHECKS:
                label = f"{family}/{check}"
                surface = f"{family}_{check}.csv"
                argv = ["certify", "--kernel", family, "--check", check, "--out", surface]
                if family == "skew_gaussian":
                    argv += ["--alpha", str(SKEW_ALPHA)]
                calls.append(Call(label, argv, 1, {f"{label}/stdout": None, f"{label}/surface": surface}))
        return Workload(name, 1, calls, [])
    raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ----------------------------- passes -----------------------------


def spawn(run_dir: Path, tag: str, spec: dict, timeout: float) -> dict:
    """Run child.py in a fresh interpreter; returns its result plus setup_s."""
    pass_dir = run_dir / tag
    pass_dir.mkdir()
    spec = dict(spec, root=str(ROOT), result=str(pass_dir / "result.json"))
    (pass_dir / "spec.json").write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), "spec.json"], cwd=pass_dir,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"pass {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["setup_s"] = result["ready"] - t_spawn  # CLOCK_MONOTONIC is system-wide
    result["dir"] = pass_dir
    return result


def digest_outputs(call: Call, record: dict, pass_dir: Path) -> dict:
    out = {}
    for label, fname in call.outputs.items():
        data = record["stdout"].encode() if fname is None else (pass_dir / fname).read_bytes()
        out[label] = hashlib.sha256(data).hexdigest()
    return out


def check_summary(call: Call, run_dir: Path, pass_dir: Path, cx):
    """Summary rows must follow from the raw rows; returns the raw rows or raises."""
    np = cx.np
    cfg = cx.simharness.load_config(run_dir / call.config)
    summary = (pass_dir / call.outputs[f"{call.label}/summary"]).read_text().splitlines()
    raw = (pass_dir / call.outputs[f"{call.label}/raw"]).read_text().splitlines()
    cells = cfg.cells()
    reps = cfg.replicates
    if summary[0] != "nu,mu_star,n,replicates,mse_lambda,mse_mu" or len(summary) != len(cells) + 1:
        raise ValueError("summary header or row count")
    if not raw[0].endswith(",rep,lambda_hat,mu_hat") or len(raw) != len(cells) * reps + 1:
        raise ValueError("raw header or row count")
    rows = [tuple(float(v) for v in line.split(",")) for line in raw[1:]]
    for ci, (_, nu, n) in enumerate(cells):
        vals = [float(v) for v in summary[ci + 1].split(",")]
        block = rows[ci * reps:(ci + 1) * reps]
        mu_star = cfg.mu_star(nu, n)
        lam = np.array([r[2] for r in block])
        mu = np.array([r[3] for r in block])
        expect = [vals[0], mu_star, n, reps,
                  float(np.mean((lam - cfg.lambda_star) ** 2)), float(np.mean((mu - mu_star) ** 2))]
        if vals != expect or [int(r[1]) for r in block] != list(range(reps)):
            raise ValueError(f"summary row {ci} does not follow from the raw rows")
    return rows


def check_pass(wl: Workload, res: dict, run_dir: Path, cx) -> tuple:
    """Digests, raw rows per simulate call, and problems per call index."""
    digests, rows, problems = {}, {}, {}
    for k, (call, record) in enumerate(zip(wl.calls, res["calls"])):
        if record["error"] or record["rc"] != 0:
            problems[k] = f"exit {record['rc']} {record['error'] or ''}".strip()
            continue
        try:
            digests.update(digest_outputs(call, record, res["dir"]))
            if call.config is not None:
                rows[k] = check_summary(call, run_dir, res["dir"], cx)
        except (OSError, ValueError, IndexError) as exc:
            problems[k] = f"output check: {exc}"
    return digests, rows, problems


def spot_check(wl: Workload, raw_rows: dict, run_dir: Path, cx) -> list:
    """Re-estimate a few replicates and compare with the naive-contrast argmin."""
    failures = []
    for call_index, ci, ri in wl.spot:
        call = wl.calls[call_index]
        cfg = cx.simharness.load_config(run_dir / call.config)
        _, nu, n = cfg.cells()[ci]
        theta = cx.mixture.MixtureParams(cfg.lambda_star, cfg.mu_star(nu, n))
        seed = cx.simharness.replicate_seed(cfg.master_seed, ci, ri)
        data = cx.mixture.sample_mixture(cfg.kernel, theta, n, seed)
        res = cx.estimator.estimate(cfg.kernel, data, cfg.M)
        grid = cx.estimator.build_grid(n, cfg.M, 1)
        best = (math.inf, -1, -1)
        for i, lam in enumerate(grid.lambda_levels):
            for j, mu in enumerate(grid.mu_levels):
                val = cx.estimator.contrast_naive(cfg.kernel, cx.mixture.MixtureParams(lam, mu), data)
                if val < best[0]:
                    best = (val, i, j)
        row = raw_rows[call_index][ci * cfg.replicates + ri]
        where = f"{call.label} cell {ci} rep {ri}"
        if (res.lambda_index, res.mu_index) != best[1:]:
            failures.append(f"{where}: estimate argmin {(res.lambda_index, res.mu_index)} "
                            f"!= naive argmin {best[1:]}")
        elif (row[2], row[3]) != (res.lambda_hat, float(res.mu_hat[0])):
            failures.append(f"{where}: raw CSV {row[2:]} != re-estimate")
    return failures


def host_calibration_ms(np) -> float:
    """Median time of a fixed piece of Python and numpy work, to tell host speed apart.

    The work does not depend on contamix, so when it slows down between two
    results files the host slowed down, not the code under test.  It
    allocates no arrays in its loop, so the allocator's state (which the
    passes change) does not move it.
    """
    x = np.linspace(-4.0, 4.0, 1 << 16)
    buf = np.empty_like(x)
    times = []
    for _ in range(6):  # the first repeat warms up and is dropped
        t0 = time.perf_counter()
        acc = 0
        for k in range(400_000):
            acc += k * k % 7
        for _ in range(80):
            np.multiply(x, x, out=buf)
            buf *= -0.5
            np.exp(buf, out=buf)
            acc += float(buf.sum())
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times[1:])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    cx = import_contamix()
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl = build_workload(workload, seed, run_dir, cx)
        return _measure(wl, seed, seconds, trace, run_dir, pinned, cx, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(wl, seed, seconds, trace, run_dir, pinned, cx, start):
    spec = {"calls": [c.argv for c in wl.calls], "workers": wl.workers}
    calibration = [host_calibration_ms(cx.np)]

    def budget():
        return max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))

    passes, failures = [], []
    failed_items = 0
    # at other seeds, simulate outputs must repeat the first pass byte for byte
    reference = pinned.get(wl.name, {}) if seed == DEFAULT_SEED else None
    raw_rows = {}
    t_begin = time.monotonic()
    longest = 0.0
    while True:
        n_plain = sum(not p["trace"] for p in passes)
        n_traced = len(passes) - n_plain
        need = n_plain < (2 if trace else MIN_PASSES) or (trace and n_traced < 2)
        if not need and time.monotonic() - t_begin + longest > seconds:
            break
        if time.monotonic() - start + longest > RUN_DEADLINE_S:
            if need:
                failures.append("run deadline reached before the minimum pass count")
            break
        traced = trace and n_traced < n_plain
        t0 = time.monotonic()
        res = spawn(run_dir, f"pass{len(passes)}", dict(spec, trace=traced), budget())
        longest = max(longest, time.monotonic() - t0)
        res["metrics"] = res.pop("trace", None)
        res["trace"] = traced
        passes.append(res)

        got, rows, problems = check_pass(wl, res, run_dir, cx)
        res["digests"] = got
        sim_ref = reference if reference is not None else passes[0]["digests"]
        for k, call in enumerate(wl.calls):
            want = sim_ref if call.config is not None else pinned.get(wl.name, {})
            bad = [label for label in call.outputs if want.get(label) != got.get(label)]
            if k not in problems and bad:
                problems[k] = "digest mismatch: " + ", ".join(bad)
        for k, problem in problems.items():
            failures.append(f"pass {len(passes) - 1} {wl.calls[k].label}: {problem}")
            failed_items += wl.calls[k].items
        for k, r in rows.items():
            raw_rows.setdefault(k, r)
        shutil.rmtree(res["dir"], ignore_errors=True)

    spot_failures = spot_check(wl, raw_rows, run_dir, cx) if wl.spot and len(raw_rows) == len(wl.calls) else []
    failures += spot_failures
    calibration.append(host_calibration_ms(cx.np))
    attempted = wl.items * len(passes)
    failed = min(attempted, failed_items + len(spot_failures))

    plain = [p for p in passes if not p["trace"]]
    setups = [p["setup_s"] for p in passes]
    items = wl.items
    # Study and CPU time are means over the untraced passes, i.e. all of the
    # run's measured work over its pass count: the host's slow phases last
    # longer than a pass, and a median flips between its fast and slow modes
    # (see "Run-to-run spread" in README.md).
    study_s = statistics.fmean(p["study_s"] for p in plain)
    e2e = {
        "study_s": study_s,
        "items_per_s": items / study_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "cpu_ms_per_item": statistics.fmean(p["user_s"] + p["sys_s"] for p in plain) * 1e3 / items,
    }
    layers = {}
    if trace:
        traced = [p for p in passes if p["trace"]]
        extra = {
            "process.minor_faults_per_item": statistics.median(p["minor_faults"] / items for p in plain),
            "process.sys_cpu_frac": statistics.median(p["sys_s"] / (p["user_s"] + p["sys_s"]) for p in plain),
            "tracing.overhead_frac": statistics.fmean(p["study_s"] for p in traced) / study_s - 1.0,
            "failed_frac": failed / attempted,
            "study.items": items,
        }
        layers = {key: extra[key] if key in extra else statistics.median(p["metrics"][key] for p in traced)
                  for key in LAYER_UNITS}
    return {
        "workload": wl.name,
        "why": WORKLOADS[wl.name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "passes": [{k: p[k] for k in ("trace", "study_s", "setup_s", "user_s", "sys_s",
                                      "minor_faults", "peak_rss_mb", "metrics")} for p in passes],
        "setup_samples": setups,
        "host_calibration_ms": calibration,
        "digests": passes[0]["digests"] if passes else {},
    }


def import_contamix():
    """The checkout's contamix modules, which the parent uses for output checks."""
    if not (ROOT / "src" / "contamix" / "__init__.py").is_file():
        raise BenchError(f"no contamix sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import contamix
        from contamix import estimator, mixture, simharness
    except ImportError as exc:
        raise BenchError(f"cannot import contamix from {ROOT / 'src'}: {exc}") from exc
    if Path(contamix.__file__).resolve().parent != (ROOT / "src" / "contamix").resolve():
        raise BenchError(f"contamix resolved to {contamix.__file__}, not the checkout's src/")
    return SimpleNamespace(np=numpy, estimator=estimator, mixture=mixture, simharness=simharness)


# ----------------------------- environment -----------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "glibc": os.confstr("CS_GNU_LIBC_VERSION") if "CS_GNU_LIBC_VERSION" in os.confstr_names else "unknown",
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# ----------------------------- entry point -----------------------------


def write_results(result: dict) -> Path:
    path = OUT / "results" / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"overrides master_seed (default {DEFAULT_SEED}, the pinned-digest seed)")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_results(result)
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(result['passes'])} passes, {result['attempted']} items, {result['failed']} failed")
    for name, value in result["end_to_end"].items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    for name, value in result["per_layer"].items():
        print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")
    print("host_calibration_ms = " + " ".join(f"{v:.4g}" for v in result["host_calibration_ms"])
          + " (before and after the passes)")
    print(f"results: {path.relative_to(ROOT)}")
    chosen, units = (result["per_layer"], LAYER_UNITS) if args.trace else (result["end_to_end"], E2E_UNITS)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
