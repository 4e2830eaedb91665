#!/usr/bin/env python3
"""Run a phase-transition study and write the summary / raw CSVs.

Defaults to the bundled desk-scale config; point --config at
configs/fig1_full.config for the full protocol (n = 5000, 1000 replicates
per nu; 34-37 s through `contamix simulate` in two runs on a shared two-core
host with Python 3.11.7, numpy 2.4.6).  Replicates run one after another on
the calling thread, and the CSVs are those of `contamix simulate` on the
same config.
"""

import argparse
from pathlib import Path

from contamix.simharness import emit_csv, load_config, run_experiment

REPO = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "fig1_desk.config"))
    ap.add_argument("--out", default="phase_summary.csv")
    ap.add_argument("--raw", default="phase_raw.csv")
    args = ap.parse_args()

    config = load_config(args.config)
    print(f"kernel={config.kernel.family} n={config.n} replicates={config.replicates} "
          f"cells={len(config.cells())}")
    result = run_experiment(config)
    emit_csv(result, args.out, args.raw)
    print(f"{'nu':>8} {'mu_star':>9} {'mse_lambda':>12} {'mse_mu':>12}")
    for row in result.rows:
        print(f"{row.nu:8.4f} {row.mu_star:9.4f} {row.mse_lambda:12.6g} {row.mse_mu:12.6g}")
    print(f"wrote {args.out} and {args.raw}")


if __name__ == "__main__":
    main()
