"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.

Criterion 4 checks the phase transition at nu = 1/2, where the contamination
lam* mu*^2 = n^-nu crosses the boundary n^-1/2 below which no estimator is
consistent.  It compares two cells equally far (1/3) from that boundary,
nu = 4/24 and nu = 20/24, i.e. lam* mu*^2 sqrt(n) = n^(+1/3) and n^(-1/3).
A cell closer to the boundary lies inside the finite-n transition band: at
n = 5000, nu = 8/24 (lam* mu*^2 sqrt(n) = n^(1/6) ~ 4.1) has a linearised
sd(lambda_hat) of 0.124, half of lam* = 0.25, and measured lambda_hat values
from 0.10 to 0.99 (MSE(lambda) = 0.062), while past the transition
MSE(lambda) is capped near 0.15-0.18 because lambda_hat lives in (0, 1].
The ratio against nu = 8/24 (2.49 for lambda) thus measures the ramp beside
the transition rather than the jump across it; see README.md.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from contamix.certify import (
    decorrelation_profile,
    scan_cs_ratio,
    scan_crucial_inequality,
    scan_kappa,
    scan_l2w2,
)
from contamix.estimator import build_grid, contrast_naive, estimate
from contamix.kernels import Kernel, cross_inner, pdf_many, self_inner
from contamix.metrics import MixingDistribution, transport_oracle, w1, w2_squared
from contamix.mixture import (
    MixtureParams,
    l2_distance_sq,
    mixture_l2_norm_sq,
    mixture_pdf_many,
    sample_mixture,
)
from contamix.simharness import ExperimentConfig, run_experiment

from conftest import simpson_oracle

REPO = Path(__file__).resolve().parent.parent
MASTER_SEED = 20260809
KERNELS = [
    Kernel("gaussian"),
    Kernel("laplace"),
    Kernel("cauchy"),
    Kernel("skew_gaussian", alpha=10.0),
]


def report(cid, ok: bool, detail: str):
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_closed_form_fidelity():
    # Simpson oracle windows sized per family; >= 2^14 panels everywhere.
    # Laplace needs extra panels (kinks), Cauchy a wide window (x^-4 tails).
    settings = {
        "gaussian": (12.0, 2 ** 15),
        "laplace": (30.0, 2 ** 20),
        "cauchy": (2000.0, 2 ** 21),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for family, (L, panels) in settings.items():
        k = Kernel(family)
        for mu in (0.0, 0.5, 1.0, 2.0, 5.0):
            oracle = simpson_oracle(
                lambda xs: pdf_many(k, xs) * pdf_many(k, xs - mu),
                min(0.0, mu) - L, max(0.0, mu) + L, panels,
            )
            worst = max(worst, abs(cross_inner(k, mu) - oracle))
    elapsed = time.perf_counter() - t0
    report("1", worst < 1e-8 and elapsed < 1.0, f"max |closed - simpson| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_transport_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    t0 = time.perf_counter()
    worst_w2 = worst_w1 = 0.0
    holder_ok = True
    for dim in (1, 3):
        for _ in range(10 ** 4):
            l1, l2 = rng.uniform(0.0, 1.0, size=2)
            m1 = rng.uniform(-5.0, 5.0, size=dim)
            m2 = rng.uniform(-5.0, 5.0, size=dim)
            g1, g2 = MixingDistribution(l1, m1), MixingDistribution(l2, m2)
            v2 = w2_squared(g1, g2)
            v1 = w1(g1, g2)
            worst_w2 = max(worst_w2, abs(v2 - transport_oracle(g1, g2, 2)))
            worst_w1 = max(worst_w1, abs(v1 - transport_oracle(g1, g2, 1)))
            holder_ok = holder_ok and v1 <= math.sqrt(v2) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_w2 <= 1e-12 and worst_w1 <= 1e-12 and holder_ok and elapsed < 5.0
    report("2", ok, f"max dev w2 {worst_w2:.1e}, w1 {worst_w1:.1e}, W1<=W2 {holder_ok}, {elapsed:.1f}s")


def test_criterion_3_fast_naive_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    sizes = (16, 25, 36, 49, 64)
    bounds = (1.0, 1.5, 2.0, 3.0)
    t0 = time.perf_counter()
    mismatches = 0
    worst = 0.0
    for trial in range(100):
        kernel = KERNELS[trial % 4]
        n = int(rng.choice(sizes))
        M = float(rng.choice(bounds))
        lam_star = rng.uniform(0.1, 0.9)
        mu_star = rng.uniform(0.2, M) * rng.choice([-1.0, 1.0])
        data = sample_mixture(kernel, MixtureParams(lam_star, mu_star), n, seed=1000 + trial)
        fast = estimate(kernel, data, M)
        grid = build_grid(n, M, 1)
        best = None
        for i, lam in enumerate(grid.lambda_levels):
            for j in range(grid.mu_levels.shape[0]):
                val = contrast_naive(kernel, MixtureParams(lam, grid.mu_levels[j]), data)
                if best is None or val < best[0]:
                    best = (val, i, j)
        if (fast.lambda_index, fast.mu_index) != (best[1], best[2]):
            mismatches += 1
        worst = max(worst, abs(fast.contrast_value - best[0]))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst < 1e-10 and elapsed < 30.0
    report("3", ok, f"argmin mismatches {mismatches}/100, max contrast dev {worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_phase_transition():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kernel=Kernel("gaussian"), n=5000, lambda_star=0.25,
        nu_values=(4 / 24, 20 / 24),
        M=10.0, replicates=200, master_seed=MASTER_SEED,
    )
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    easy, hard = res.rows
    mu_ratio = hard.mse_mu / easy.mse_mu
    lam_ratio = hard.mse_lambda / easy.mse_lambda
    detail = (
        f"nu {hard.nu * 24:.0f}/24 vs {easy.nu * 24:.0f}/24: "
        f"MSE(mu) ratio {mu_ratio:.2f} {'>=' if mu_ratio >= 10 else '<'} 10, "
        f"MSE(lambda) ratio {lam_ratio:.2f} {'>=' if lam_ratio >= 10 else '<'} 10, "
        f"{elapsed:.0f}s"
    )
    report("4", mu_ratio >= 10.0 and lam_ratio >= 10.0, detail)


def test_criterion_5_rate_scaling():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kernel=Kernel("gaussian"), n=500, lambda_star=0.25, nu_values=(),
        M=10.0, replicates=200, master_seed=MASTER_SEED, mode="rate_scaling",
        n_values=(500, 2000, 8000), mu_star_override=2.0,
    )
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    q_lam = [r.n * r.mse_lambda / math.log(r.n) ** 2 for r in res.rows]
    q_mu = [r.n * r.mse_mu / math.log(r.n) ** 2 for r in res.rows]
    spread_lam = max(q_lam) / min(q_lam)
    spread_mu = max(q_mu) / min(q_mu)
    ok = spread_lam <= 4.0 and spread_mu <= 4.0 and elapsed < 600.0
    report("5", ok, f"normalized spread lambda {spread_lam:.2f}, mu {spread_mu:.2f} (<= 4), {elapsed:.0f}s")


def test_criterion_6_certification_scans():
    t0 = time.perf_counter()
    failures = []
    for kernel in KERNELS:
        rep = scan_kappa(kernel, 3.0, 300)
        if not (rep.passed and rep.details["kappa_lower"] > 0.0):
            failures.append(f"kappa[{kernel.family}]")
    cs = scan_cs_ratio(Kernel("gaussian"), 5.0, 100, 0.2)
    if not (cs.details["max_off_diagonal"] <= 1.0 - 1e-3):
        failures.append("cs off-diagonal")
    if not (cs.details["diag_max_abs_dev"] <= 1e-9):
        failures.append("cs diagonal")
    for family in ("gaussian", "cauchy"):
        if not scan_l2w2(Kernel(family), 9, 3.0, 12).extremal_value > 0.0:
            failures.append(f"l2w2[{family}]")
        if not scan_crucial_inequality(Kernel(family), 9, 3.0, 12).extremal_value > 0.0:
            failures.append(f"crucial[{family}]")
    for kernel in KERNELS:
        if not decorrelation_profile(kernel, [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]).passed:
            failures.append(f"decorrelation[{kernel.family}]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report("6", ok, f"failures: {failures or 'none'}, {elapsed:.1f}s")


def test_criterion_7_worker_determinism(tmp_path):
    config = REPO / "configs" / "fig1_desk.config"
    outputs = {}
    for workers in (1, 8):
        s = tmp_path / f"summary_{workers}.csv"
        r = tmp_path / f"raw_{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "contamix.cli", "simulate",
             "--config", str(config), "--out", str(s), "--raw", str(r),
             "--workers", str(workers)],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[workers] = (s.read_bytes(), r.read_bytes())
    ok = outputs[1] == outputs[8]
    report("7", ok, "summary and raw CSVs byte-identical across workers 1 and 8")


def test_criterion_8_contrast_unbiasedness():
    kernel = Kernel("gaussian")
    theta = MixtureParams(0.5, 1.0)
    theta_star = MixtureParams(0.25, 2.0)
    n = 10 ** 5
    data = sample_mixture(kernel, theta_star, n, seed=MASTER_SEED)
    vals = mixture_pdf_many(kernel, theta, data)
    offset = mixture_l2_norm_sq(kernel, theta) + mixture_l2_norm_sq(kernel, theta_star)
    # gamma_n(theta) + ||f*||^2 as a mean of per-observation statistics
    per_obs = -2.0 * vals + offset
    estimate_mean = float(np.mean(per_obs))
    se = float(np.std(per_obs, ddof=1) / math.sqrt(n))
    target = l2_distance_sq(kernel, theta, theta_star)
    gamma = contrast_naive(kernel, theta, data)
    assert gamma + mixture_l2_norm_sq(kernel, theta_star) == pytest.approx(estimate_mean, abs=1e-12)
    dev = abs(estimate_mean - target)
    report("8", dev <= 3.0 * se, f"|MC mean - l2 distance| = {dev:.2e} vs 3 SE = {3 * se:.2e}")
