#!/usr/bin/env python3
"""Cost of desk_w1 replicates on the main thread versus in a worker thread.

Usage (from the checkout root):

    python3 perfbench/fault_gap.py

Runs the same REPLICATES desk-config replicates (``simharness.run_replicate``)
on the main thread and then in a single ``ThreadPoolExecutor`` worker, ROUNDS
times, after one warm-up replicate that fills the inner-product cache.  For
each side it reports milliseconds and minor page faults per replicate,
counted with ``RUSAGE_THREAD`` on the thread that ran them.  The process
environment is used as inherited (no ``MALLOC_*`` variables are set), so
the main-arena trimming cost of the shift-sum temporaries shows as faults.
Prints one JSON object.
"""

import json
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import run

REPLICATES = 120
ROUNDS = 2


def _batch(simharness, config, reps):
    """(ms per replicate, minor faults per replicate) on the calling thread."""
    cells = len(config.cells())
    r0 = resource.getrusage(resource.RUSAGE_THREAD)
    t0 = time.perf_counter()
    for k in range(reps):
        simharness.run_replicate(config, k % cells, k // cells)
    elapsed = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_THREAD)
    return elapsed * 1e3 / reps, (r1.ru_minflt - r0.ru_minflt) / reps


def main() -> int:
    run.import_contamix()
    from contamix import simharness

    config = simharness.load_config(run.ROOT / "configs" / "fig1_desk.config")
    simharness.run_replicate(config, 0, 0)  # warm the inner-product cache
    main_side, worker_side = [], []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(ROUNDS):
            main_side.append(_batch(simharness, config, REPLICATES))
            worker_side.append(pool.submit(_batch, simharness, config, REPLICATES).result())

    def side(samples):
        return {"ms_per_replicate": statistics.median(s[0] for s in samples),
                "minor_faults_per_replicate": statistics.median(s[1] for s in samples),
                "rounds": [list(s) for s in samples]}

    print(json.dumps({"replicates": REPLICATES, "main_thread": side(main_side),
                      "worker_thread": side(worker_side), "environment": run.environment()},
                     indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
