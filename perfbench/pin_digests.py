#!/usr/bin/env python3
"""Pin the sha256 digests of every workload's outputs at the default seed.

Usage (from the checkout root): ``python3 perfbench/pin_digests.py``

Runs one untraced pass of each workload with ``--seed`` at its default,
requires every call to exit 0, every summary to follow from its raw CSV and
every spot-checked replicate to match the naive-contrast argmin, then writes
``digests.json``.  Run it only at a commit whose outputs are the reference:
the benchmark counts any later byte change as a failure.
"""

import json
import shutil
import sys

import run


def main() -> int:
    cx = run.import_contamix()
    pinned = {}
    for name in run.WORKLOADS:
        run_dir = run.OUT / f"pin-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            wl = run.build_workload(name, run.DEFAULT_SEED, run_dir, cx)
            spec = {"calls": [c.argv for c in wl.calls], "workers": wl.workers, "trace": False}
            res = run.spawn(run_dir, "pass0", spec, run.RUN_DEADLINE_S)
            digests, rows, problems = run.check_pass(wl, res, run_dir, cx)
            problems = [f"{wl.calls[k].label}: {p}" for k, p in problems.items()]
            problems += run.spot_check(wl, rows, run_dir, cx)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if problems:
            print(f"{name}: not pinned: {'; '.join(problems)}", file=sys.stderr)
            return 1
        pinned[name] = digests
        print(f"{name}: {len(digests)} digests")
    run.DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
