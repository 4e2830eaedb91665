#!/usr/bin/env python3
"""Record a labelled baseline of every workload in ``perfbench/BENCH_<label>.json``.

Usage (from the checkout root):

    python3 perfbench/baseline.py --label seed

Runs ``run.py`` on each workload untraced and traced, at the default seed
(the one whose digests are pinned) and BENCHMARK.json's ``run_seconds``, then
``fault_gap.py``,
each in its own process, one after another, and writes their results with
the environment.  A performance change records one file before and one
after, made with the same benchmark code and settings.
"""

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    seed = run.DEFAULT_SEED
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not args.label.replace("-", "").replace("_", "").isalnum():
        ap.error("--label may hold letters, digits, '-' and '_'")

    workloads = {}
    for name in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads((run.OUT / "results" /
                                 f"{name}-seed{seed}-trace{trace}.json").read_text())
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result[key]
            entry[f"passes_trace{trace}"] = len(result["passes"])
            entry[f"attempted_trace{trace}"] = result["attempted"]
            entry[f"failed_trace{trace}"] = result["failed"]
            entry[f"host_calibration_ms_trace{trace}"] = result["host_calibration_ms"]
            entry["why"] = result["why"]
            print(f"{name} trace {trace}: correct={result['correct']}", file=sys.stderr)
        workloads[name] = entry

    gap = subprocess.run([sys.executable, str(run.BENCH / "fault_gap.py")],
                         capture_output=True, text=True, timeout=600, check=True)
    fault_gap = json.loads(gap.stdout)
    fault_gap.pop("environment")
    out = {
        "label": args.label,
        "seed": seed,
        "seconds": seconds,
        "environment": run.environment(),
        "workloads": workloads,
        "desk_fault_gap": fault_gap,
    }
    path = run.BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
