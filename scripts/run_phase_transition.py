#!/usr/bin/env python3
"""Run a phase-transition study and print its MSE table.

The study is `contamix simulate` on --config (default: the desk-scale config;
configs/fig1_full.config is the full protocol, timed in README "Experiment
configs"), --out and --raw, so its CSVs, checks and exit codes are
simulate's; the table is read back from the summary CSV.
"""

import argparse
import csv
import sys
from pathlib import Path

from contamix import cli

REPO = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "fig1_desk.config"))
    ap.add_argument("--out", default="phase_summary.csv")
    ap.add_argument("--raw", default="phase_raw.csv")
    args = ap.parse_args()

    code = cli.main(["simulate", "--config", args.config, "--out", args.out, "--raw", args.raw])
    if code:
        return code
    print(f"{'nu':>8} {'mu_star':>9} {'mse_lambda':>12} {'mse_mu':>12}")
    with open(args.out, newline="") as fh:
        for row in csv.DictReader(fh):
            nu, mu, mse_l, mse_m = (float(row[k]) for k in ("nu", "mu_star", "mse_lambda", "mse_mu"))
            print(f"{nu:8.4f} {mu:9.4f} {mse_l:12.6g} {mse_m:12.6g}")


if __name__ == "__main__":
    sys.exit(main())
