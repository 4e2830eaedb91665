"""Finite-grid numerical certificates for the structural inequalities.

Each scan sweeps a declared parameter grid, records the extremal value of the
quantity of interest together with where it occurred, and reports pass/fail
against its tolerance.  These are certificates at a stated resolution, not
proofs: the grid spec is carried in the report so a failure localizes, and
every scan is a deterministic pure function of (kernel, grid spec).

Checks
------
* ``scan_kappa``               -- two-sided norm equivalence
  ||phi - phi_mu||^2 / ||mu||^2 bounded between positive constants.
* ``scan_cs_ratio``            -- the refined Cauchy-Schwarz ratio
  R(a, b) = |<phi - phi_a, phi_{a+b} - phi_a>| / (||phi - phi_a|| ||phi_{a+b} - phi_a||)
  stays strictly below 1 off the diagonal a + b = 0 and equals 1 on it.
* ``scan_l2w2``                -- L2 distance dominates squared W2 with a
  positive empirical constant.
* ``scan_crucial_inequality``  -- the lower bound of the L2 distance by the
  weighted parameter discrepancies has a positive empirical constant.
* ``decorrelation_profile``    -- <phi, phi_a> decays to ~0 for large shifts
  (relaxed threshold for the heavy-tailed Cauchy).

The empirical constants published here (kappa bounds, c-hat values) carry no
tightness claim.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .kernels import Kernel, cross_inner_many, self_inner
from .metrics import w2_squared, w2_squared_many
from .mixture import MixtureParams, l2_distance_sq, l2_distance_sq_many

__all__ = [
    "ScanReport",
    "scan_kappa",
    "scan_cs_ratio",
    "scan_l2w2",
    "scan_crucial_inequality",
    "decorrelation_profile",
]

# (1 - R) / ||phi - phi_{a+b}||^2 quotient floor: near the diagonal both
# numerator and denominator vanish together, so tiny denominators are floored
# rather than excluded (exact-diagonal points are excluded outright).
_CS_DENOM_FLOOR = 1e-12

DECORRELATION_THRESHOLDS = {
    "gaussian": 1e-4,
    "laplace": 1e-4,
    "skew_gaussian": 1e-4,
    "cauchy": 5e-2,
}


@dataclass(frozen=True)
class ScanReport:
    check_name: str
    kernel: Kernel
    grid_spec: dict
    extremal_value: float
    extremal_point: tuple
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)
    surface_columns: tuple = ()
    surface: np.ndarray | None = None


def scan_kappa(kernel: Kernel, M: float, steps: int) -> ScanReport:
    """Scan r(mu) = ||phi - phi_mu||^2 / mu^2 = 2 (s - c(mu)) / mu^2 over (0, M].

    Reports the grid minimum as kappa_lower (the extremal value; passes when
    positive) and the grid maximum as kappa_upper.  Even densities make r
    symmetric, so positive shifts suffice.
    """
    if not 0.0 < M < math.inf:
        raise ValueError(f"M must be positive and finite, got {M}")
    if steps < 10:
        raise ValueError("steps must be >= 10")
    mus = np.linspace(M / steps, M, steps)
    s = self_inner(kernel)
    r = 2.0 * (s - cross_inner_many(kernel, mus)) / np.square(mus)
    i_min = int(np.argmin(r))
    i_max = int(np.argmax(r))
    lo, hi = float(r[i_min]), float(r[i_max])
    return ScanReport(
        check_name="kappa",
        kernel=kernel,
        grid_spec={"M": float(M), "steps": steps},
        extremal_value=lo,
        extremal_point=(float(mus[i_min]),),
        passed=lo > 0.0,
        tolerance=0.0,
        details={
            "kappa_lower": lo,
            "kappa_upper": hi,
            "mu_at_min": float(mus[i_min]),
            "mu_at_max": float(mus[i_max]),
        },
        surface_columns=("mu", "ratio"),
        surface=np.column_stack([mus, r]),
    )


def scan_cs_ratio(
    kernel: Kernel,
    range_: float,
    steps: int,
    diagonal_margin: float,
) -> ScanReport:
    """Scan R(a, b) on [-range, range]^2 with a != 0, b != 0 (d = 1 only).

    Translation invariance reduces every term to cross inner products:
    numerator  N = c(a+b) - c(a) - c(b) + s,
    denominator D = 2 sqrt((s - c(a)) (s - c(b))).

    The axis is built by mirroring a positive half so that exact negation
    pairs (a, -a) exist bitwise; those diagonal points evaluate to R = 1 and
    are excluded from both the off-diagonal maximum and the fitted constant
    c_hat = min (1 - R) / ||phi - phi_{a+b}||^2.
    Passes when the off-diagonal maximum (|a+b| >= margin) is below 1 and
    c_hat is positive.
    """
    if kernel.dim != 1:
        raise ValueError("scan_cs_ratio is defined for d = 1")
    for name, value in (("range", range_), ("diagonal_margin", diagonal_margin)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    half = steps // 2
    if half < 2:
        raise ValueError(f"steps {steps} give a degenerate grid")
    pos = np.linspace(range_ / half, range_, half)
    axis = np.concatenate([-pos[::-1], pos])
    a, b = np.meshgrid(axis, axis, indexing="ij")
    s = self_inner(kernel)
    ca = cross_inner_many(kernel, axis)
    c_a, c_b = ca[:, None], ca[None, :]
    c_ab = cross_inner_many(kernel, a + b)
    ratio = np.abs(c_ab - c_a - c_b + s) / (2.0 * np.sqrt((s - c_a) * (s - c_b)))
    diag = (a + b) == 0.0
    off = np.abs(a + b) >= diagonal_margin
    if not off.any():
        raise ValueError(f"diagonal_margin {diagonal_margin!r} leaves no grid point off the diagonal")
    k = np.unravel_index(np.argmax(np.where(off, ratio, -np.inf)), ratio.shape)
    max_off = float(ratio[k])
    point = (float(a[k]), float(b[k]))

    shift_norm_sq = np.maximum(2.0 * (s - c_ab), _CS_DENOM_FLOOR)
    fit = (1.0 - ratio) / shift_norm_sq
    c_hat = float(np.min(fit[~diag]))
    diag_dev = float(np.max(np.abs(ratio[diag] - 1.0))) if np.any(diag) else 0.0

    return ScanReport(
        check_name="cs_ratio",
        kernel=kernel,
        grid_spec={"range": float(range_), "steps": 2 * half, "diagonal_margin": float(diagonal_margin)},
        extremal_value=max_off,
        extremal_point=point,
        passed=(max_off < 1.0) and (c_hat > 0.0),
        tolerance=1.0,
        details={
            "max_off_diagonal": max_off,
            "c_hat": c_hat,
            "diag_max_abs_dev": diag_dev,
        },
        surface_columns=("a", "b", "ratio"),
        surface=np.column_stack([a.reshape(-1), b.reshape(-1), ratio.reshape(-1)]),
    )


def _pair_scan(check_name, kernel, lambda_steps, mu_range, mu_steps, mu_min, pairs, ratio, details) -> ScanReport:
    """Minimum of num / den over the pairs of the (lambda, mu) grid (d = 1), as arrays.

    ``pairs(lam, mu)`` maps the grid points, lambda slowest, to the pair columns
    (lam1, mu1, lam2, mu2).  ``ratio(pair, dist_sq, w2_sq)`` gives (num, den), by
    the array forms for the surface and by the scalar functions for the extremal
    pair, whose bits must agree.  ``details(surface, minimum)`` precedes the pair count.
    """
    if kernel.dim != 1:
        raise ValueError(f"the {check_name} scan is defined for d = 1")
    if lambda_steps < 2 or mu_steps < 2:
        raise ValueError("need at least 2 lambda and mu steps")
    if not 0.0 < mu_min < mu_range < math.inf:
        raise ValueError("need 0 < mu_min < mu_range < inf")
    lam = np.repeat(np.linspace(0.1, 0.9, lambda_steps), mu_steps)
    mu = np.tile(np.linspace(mu_min, mu_range, mu_steps), lambda_steps)
    cols = pairs(lam, mu)
    # from mu about 1e154 on, W2^2 and the crucial denominator overflow
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = ratio(cols, lambda *p: l2_distance_sq_many(kernel, *p), w2_squared_many)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError(f"{check_name}: the surface is not finite at mu_range = {mu_range!r}; reduce mu_range")
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        pair = tuple(c[zero[0]].item() for c in cols)
        raise ValueError(f"{check_name}: zero denominator at the pair (lam1, mu1, lam2, mu2) = {pair}")
    surface = np.column_stack((*cols, num / den))
    k = int(np.argmin(surface[:, 4]))
    best = float(surface[k, 4])
    point = tuple(surface[k, :4].tolist())
    g1, g2 = MixtureParams(*point[:2]), MixtureParams(*point[2:])
    num, den = ratio(point, lambda *_: l2_distance_sq(kernel, g1, g2), lambda *_: w2_squared(g1, g2))
    if num / den != best:
        raise RuntimeError(f"{check_name}: the scalar functions disagree with the surface at {point}")
    return ScanReport(
        check_name=check_name,
        kernel=kernel,
        grid_spec=dict(
            lambda_steps=lambda_steps, mu_range=float(mu_range), mu_steps=mu_steps, mu_min=float(mu_min)
        ),
        extremal_value=best,
        extremal_point=point,
        passed=best > 0.0,
        tolerance=0.0,
        details={**details(surface, best), "pairs": surface.shape[0]},
        surface_columns=("lam1", "mu1", "lam2", "mu2", "ratio"),
        surface=surface,
    )


def scan_l2w2(
    kernel: Kernel,
    lambda_steps: int,
    mu_range: float,
    mu_steps: int,
    mu_min: float = 0.25,
) -> ScanReport:
    """Minimum of ||f - f'||_2 / W2^2 over distinct grid pairs (d = 1).

    Near-diagonal pairs theta' = theta + (1e-3, 1e-3) are appended so the
    report also witnesses that the ratio does not degenerate as the pair
    collapses; their maximum is published alongside the overall minimum
    (the empirical domination constant c_hat, no tightness claimed).
    """
    def pairs(lam, mu):
        # itertools.combinations' pairs, then each point with its twin shifted by (1e-3, 1e-3)
        i, j = np.triu_indices(lam.size, 1)
        join = np.concatenate
        return join([lam[i], lam]), join([mu[i], mu]), join([lam[j], lam + 1e-3]), join([mu[j], mu + 1e-3])

    near = lambda_steps * mu_steps
    return _pair_scan(
        "l2w2", kernel, lambda_steps, mu_range, mu_steps, mu_min, pairs,
        lambda p, dist_sq, w2_sq: (np.sqrt(dist_sq(*p)), w2_sq(*p)),
        lambda surface, best: {"c_hat": best, "near_diagonal_max": float(np.max(surface[-near:, 4]))},
    )


def scan_crucial_inequality(
    kernel: Kernel,
    lambda_steps: int,
    mu_range: float,
    mu_steps: int,
    mu_min: float = 0.25,
) -> ScanReport:
    """Minimum over ordered distinct pairs of

        ||f_theta - f_theta'||_2^2
        ----------------------------------------------------------
        (lam - lam')^2 mu^2 mu'^2  +  lam'^2 mu'^2 (mu - mu')^2

    (d = 1; the denominator is the weighted parameter discrepancy whose
    domination by the L2 distance drives the convergence rates).  Passes when
    the minimum is positive.
    """
    def pairs(lam, mu):
        # itertools.permutations' pairs: every i != j, row-major
        i, j = np.nonzero(~np.eye(lam.size, dtype=bool))
        return lam[i], mu[i], lam[j], mu[j]

    def ratio(pair, dist_sq, w2_sq):
        l1, m1, l2, m2 = pair
        # float_power is libm pow, as a float's ** 2 is; x * x differs from it in some last bits
        den = np.float_power(l1 - l2, 2) * m1 * m1 * m2 * m2 + l2 * l2 * m2 * m2 * np.float_power(m1 - m2, 2)
        return dist_sq(*pair), den

    return _pair_scan(
        "crucial", kernel, lambda_steps, mu_range, mu_steps, mu_min, pairs, ratio,
        lambda surface, best: {"min_ratio": best},
    )


def decorrelation_profile(kernel: Kernel, a_values) -> ScanReport:
    """Tabulate <phi, phi_a> over increasing shifts and check the final decay.

    Passes when the value at the largest shift falls below a family threshold
    times ||phi||_2^2 (1e-4, relaxed to 5e-2 for the polynomially decaying
    Cauchy).
    """
    a_values = np.asarray(a_values, dtype=float)
    if a_values.ndim != 1 or a_values.shape[0] == 0:
        raise ValueError("a_values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a_values)) or np.any(a_values <= 0) or np.any(np.diff(a_values) <= 0):
        raise ValueError("a_values must be finite, positive and strictly increasing")
    c = cross_inner_many(kernel, a_values)
    s = self_inner(kernel)
    threshold = DECORRELATION_THRESHOLDS[kernel.family] * s
    final = float(c[-1])
    return ScanReport(
        check_name="decorrelation",
        kernel=kernel,
        grid_spec={"a_min": float(a_values[0]), "a_max": float(a_values[-1]), "count": a_values.shape[0]},
        extremal_value=final,
        extremal_point=(float(a_values[-1]),),
        passed=final < threshold,
        tolerance=threshold,
        details={"final_over_self": final / s},
        surface_columns=("a", "cross_inner"),
        surface=np.column_stack([a_values, c]),
    )
