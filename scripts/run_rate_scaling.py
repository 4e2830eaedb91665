#!/usr/bin/env python3
"""Rate-scaling study: fixed (lambda*, mu*), growing n.

Prints n * MSE / log^2(n) for both parameters, near-constant at the
log^2(n)/n rate.  The study is `contamix simulate` on --config, --out and
--raw, so its CSVs, checks and exit codes are simulate's.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from contamix import cli

REPO = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "rate_scaling.config"))
    ap.add_argument("--out", default="rate_summary.csv")
    ap.add_argument("--raw", default="rate_raw.csv")
    args = ap.parse_args()

    code = cli.main(["simulate", "--config", args.config, "--out", args.out, "--raw", args.raw])
    if code:
        return code
    print(f"{'n':>6} {'mse_lambda':>12} {'mse_mu':>12} {'n*mse_l/log^2':>14} {'n*mse_m/log^2':>14}")
    with open(args.out, newline="") as fh:
        for row in csv.DictReader(fh):
            n, mse_l, mse_m = int(row["n"]), float(row["mse_lambda"]), float(row["mse_mu"])
            norm = math.log(n) ** 2
            print(f"{n:6d} {mse_l:12.6g} {mse_m:12.6g} {n * mse_l / norm:14.4f} {n * mse_m / norm:14.4f}")


if __name__ == "__main__":
    sys.exit(main())
