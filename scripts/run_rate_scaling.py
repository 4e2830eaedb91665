#!/usr/bin/env python3
"""Rate-scaling study: fixed (lambda*, mu*), growing n.

Prints the normalized quantities n * MSE / log^2(n), which stay near-constant
when the estimator attains the log^2(n)/n rate for both parameters.
Replicates run one after another on the calling thread, and the CSVs are
those of `contamix simulate` on the same config.
"""

import argparse
import math
from pathlib import Path

from contamix.simharness import emit_csv, load_config, run_experiment

REPO = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "rate_scaling.config"))
    ap.add_argument("--out", default="rate_summary.csv")
    ap.add_argument("--raw", default="rate_raw.csv")
    args = ap.parse_args()

    config = load_config(args.config)
    result = run_experiment(config)
    emit_csv(result, args.out, args.raw)
    print(f"{'n':>6} {'mse_lambda':>12} {'mse_mu':>12} {'n*mse_l/log^2':>14} {'n*mse_m/log^2':>14}")
    for row in result.rows:
        norm = math.log(row.n) ** 2
        print(f"{row.n:6d} {row.mse_lambda:12.6g} {row.mse_mu:12.6g} "
              f"{row.n * row.mse_lambda / norm:14.4f} {row.n * row.mse_mu / norm:14.4f}")
    print(f"wrote {args.out} and {args.raw}")


if __name__ == "__main__":
    main()
