import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contamix.certify import (
    decorrelation_profile,
    scan_cs_ratio,
    scan_crucial_inequality,
    scan_kappa,
    scan_l2w2,
)
from contamix.kernels import Kernel, cross_inner, self_inner, skew_cross_closed
from contamix.metrics import w2_squared
from contamix.mixture import MixtureParams, l2_distance_sq

from conftest import SKEW_ALPHAS, cross_oracle

GAUSS = Kernel("gaussian")
CAUCHY = Kernel("cauchy")
SKEW = Kernel("skew_gaussian", alpha=10.0)


def r_of(kernel, mu):
    return 2.0 * (self_inner(kernel) - cross_inner(kernel, mu)) / mu ** 2


def reports_equal(a, b) -> bool:
    return (
        a.check_name == b.check_name
        and a.kernel == b.kernel
        and a.grid_spec == b.grid_spec
        and a.extremal_value == b.extremal_value
        and a.extremal_point == b.extremal_point
        and a.passed == b.passed
        and a.tolerance == b.tolerance
        and a.details == b.details
        and np.array_equal(a.surface, b.surface)
    )


class TestKappa:
    def test_all_kernels_positive_lower(self, any_kernel):
        rep = scan_kappa(any_kernel, 3.0, 300)
        assert rep.passed
        assert rep.details["kappa_lower"] > 0.0
        assert math.isfinite(rep.details["kappa_upper"])

    def test_gaussian_small_shift_limit(self):
        # r(mu -> 0) tends to ||phi'||^2 = 2 / (8 sqrt(pi)); nearby small shifts agree
        assert abs(r_of(GAUSS, 1e-3) - r_of(GAUSS, 1e-2)) < 1e-4
        assert r_of(GAUSS, 1e-3) == pytest.approx(2.0 / (8.0 * math.sqrt(math.pi)), rel=1e-5)

    def test_even_symmetry(self, closed_form_kernel):
        for mu in (0.3, 1.1, 2.7):
            assert r_of(closed_form_kernel, mu) == pytest.approx(r_of(closed_form_kernel, -mu), rel=1e-12)

    def test_cauchy_extremes_finite(self):
        rep = scan_kappa(CAUCHY, 10.0, 500)
        assert rep.details["kappa_lower"] > 0.0
        assert rep.details["kappa_upper"] < math.inf
        # closed form r(mu) = 2 (1/(2pi) - 2/(pi (4 + mu^2))) / mu^2
        mu = rep.details["mu_at_max"]
        expected = 2.0 * (1 / (2 * math.pi) - 2 / (math.pi * (4 + mu ** 2))) / mu ** 2
        assert rep.details["kappa_upper"] == pytest.approx(expected, rel=1e-12)

    def test_off_grid_containment(self, any_kernel):
        rep = scan_kappa(any_kernel, 3.0, 400)
        lo, hi = rep.details["kappa_lower"], rep.details["kappa_upper"]
        rng = np.random.default_rng(17)
        fresh = rng.uniform(3.0 / 400, 3.0, size=100)
        for mu in fresh:
            r = r_of(any_kernel, float(mu))
            assert lo * (1 - 1e-6) <= r <= hi * (1 + 1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scan_kappa(GAUSS, -1.0, 100)
        with pytest.raises(ValueError):
            scan_kappa(GAUSS, 3.0, 5)

    @pytest.mark.parametrize("M", [math.inf, math.nan])
    def test_refuses_non_finite_M(self, M):
        with pytest.raises(ValueError, match="^M must be positive and finite"):
            scan_kappa(GAUSS, M, 300)

    def test_reproducible(self):
        assert reports_equal(scan_kappa(SKEW, 3.0, 50), scan_kappa(SKEW, 3.0, 50))


class TestCsRatio:
    def test_diagonal_identity(self):
        rep = scan_cs_ratio(GAUSS, 5.0, 100, 0.2)
        assert rep.details["diag_max_abs_dev"] < 1e-9

    def test_off_diagonal_strictly_below_one(self):
        rep = scan_cs_ratio(GAUSS, 5.0, 100, 0.2)
        assert rep.passed
        assert rep.details["max_off_diagonal"] <= 1.0 - 1e-3

    def test_plain_cauchy_schwarz_everywhere(self):
        rep = scan_cs_ratio(GAUSS, 5.0, 100, 0.2)
        assert np.all(rep.surface[:, 2] <= 1.0 + 1e-12)

    def test_fitted_constant_positive(self):
        rep = scan_cs_ratio(GAUSS, 5.0, 100, 0.2)
        assert rep.details["c_hat"] > 0.0

    def test_refit_stability(self):
        coarse = scan_cs_ratio(GAUSS, 5.0, 100, 0.2)
        fine = scan_cs_ratio(GAUSS, 5.0, 200, 0.2)
        c0, c1 = coarse.details["c_hat"], fine.details["c_hat"]
        assert abs(c1 - c0) < 0.5 * c0

    def test_degenerate_grid(self):
        with pytest.raises(ValueError):
            scan_cs_ratio(GAUSS, 5.0, 2, 0.2)

    @pytest.mark.parametrize(
        "range_, margin, name",
        [(math.nan, 0.2, "range"), (math.inf, 0.2, "range"), (5.0, math.inf, "diagonal_margin"),
         (5.0, math.nan, "diagonal_margin")],
    )
    def test_refuses_non_finite_settings(self, range_, margin, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            scan_cs_ratio(GAUSS, range_, 40, margin)

    def test_refuses_a_margin_that_leaves_no_off_diagonal_point(self):
        # |a + b| reaches 2 range = 10 at the grid's corners and no further
        assert scan_cs_ratio(GAUSS, 5.0, 40, 10.0).extremal_point == (-5.0, -5.0)
        with pytest.raises(ValueError, match="^diagonal_margin 10.5 leaves no grid point off the diagonal$"):
            scan_cs_ratio(GAUSS, 5.0, 40, 10.5)

    def test_reproducible(self):
        assert reports_equal(scan_cs_ratio(GAUSS, 5.0, 60, 0.2), scan_cs_ratio(GAUSS, 5.0, 60, 0.2))


class TestL2W2:
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_positive_minimum(self, family):
        rep = scan_l2w2(Kernel(family), 9, 3.0, 12)
        assert rep.passed
        assert rep.extremal_value > 0.0

    def test_near_diagonal_band(self):
        rep = scan_l2w2(GAUSS, 9, 3.0, 12)
        c_hat = rep.details["c_hat"]
        near = rep.details["near_diagonal_max"]
        assert c_hat <= near <= 1e3 * c_hat

    def test_all_pairs_finite_positive(self):
        rep = scan_l2w2(GAUSS, 5, 3.0, 6)
        assert np.all(rep.surface[:, 4] > 0.0)
        assert np.all(np.isfinite(rep.surface[:, 4]))

    @pytest.mark.parametrize("scan", [scan_l2w2, scan_crucial_inequality])
    @pytest.mark.parametrize("mu_range", [math.inf, math.nan])
    def test_pair_scans_refuse_non_finite_range(self, scan, mu_range):
        with pytest.raises(ValueError, match="mu_range < inf"):
            scan(GAUSS, 5, mu_range, 6)


def reference_pair_scan(kernel, check, lambda_steps, mu_range, mu_steps, mu_min=0.25):
    """The l2w2 and crucial pair loops written out, with fresh MixtureParams per pair.

    Returns (surface, extremal_point, extremal_value, details).
    """
    lams = np.linspace(0.1, 0.9, lambda_steps)
    mus = np.linspace(mu_min, mu_range, mu_steps)
    thetas = [(float(l), float(m)) for l in lams for m in mus]
    rows = []
    if check == "l2w2":
        def ratio(t1, t2):
            g1, g2 = MixtureParams(*t1), MixtureParams(*t2)
            return math.sqrt(l2_distance_sq(kernel, g1, g2)) / w2_squared(g1, g2)

        for i, t1 in enumerate(thetas):
            for t2 in thetas[i + 1 :]:
                rows.append((t1[0], t1[1], t2[0], t2[1], ratio(t1, t2)))
        near_max = -math.inf
        for t1 in thetas:
            t2 = (t1[0] + 1e-3, t1[1] + 1e-3)
            r = ratio(t1, t2)
            near_max = max(near_max, r)
            rows.append((t1[0], t1[1], t2[0], t2[1], r))
    else:
        for l1, m1 in thetas:
            for l2, m2 in thetas:
                if (l1, m1) == (l2, m2):
                    continue
                d2 = l2_distance_sq(kernel, MixtureParams(l1, m1), MixtureParams(l2, m2))
                den = (l1 - l2) ** 2 * m1 * m1 * m2 * m2 + l2 * l2 * m2 * m2 * (m1 - m2) ** 2
                rows.append((l1, m1, l2, m2, d2 / den))
    surface = np.array(rows)
    k = int(np.argmin(surface[:, 4]))
    best = float(surface[k, 4])
    if check == "l2w2":
        details = {"c_hat": best, "near_diagonal_max": near_max, "pairs": surface.shape[0]}
    else:
        details = {"min_ratio": best, "pairs": surface.shape[0]}
    return surface, tuple(float(v) for v in surface[k, :4]), best, details


PAIR_SCANS = [("l2w2", scan_l2w2), ("crucial", scan_crucial_inequality)]


@pytest.mark.parametrize("check, scan", PAIR_SCANS)
@pytest.mark.parametrize(
    "kernel",
    [GAUSS, Kernel("laplace"), CAUCHY, SKEW, Kernel("skew_gaussian", alpha=-0.5)],
    ids=["gaussian", "laplace", "cauchy", "skew_gaussian", "skew_gaussian(-0.5)"],
)
@settings(max_examples=12, deadline=None)
@given(
    lambda_steps=st.integers(2, 6),
    mu_steps=st.integers(2, 6),
    mu_min=st.floats(0.01, 2.0),
    mu_gap=st.floats(0.01, 4.0),
)
def test_pair_scans_match_reference_bitwise(kernel, check, scan, lambda_steps, mu_steps, mu_min, mu_gap):
    mu_range = mu_min + mu_gap
    surface, point, value, details = reference_pair_scan(kernel, check, lambda_steps, mu_range, mu_steps, mu_min)
    rep = scan(kernel, lambda_steps, mu_range, mu_steps, mu_min)
    assert rep.surface.shape == surface.shape and rep.surface.tobytes() == surface.tobytes()
    assert rep.extremal_point == point
    assert rep.extremal_value == value
    assert rep.details == details
    assert [type(v) for v in rep.details.values()] == [type(v) for v in details.values()]


@pytest.mark.parametrize("check, scan", PAIR_SCANS)
def test_pair_scans_refuse_a_zero_denominator(check, scan):
    # W2^2 and the crucial denominator both underflow to 0 at these shifts
    with pytest.raises(ValueError, match=rf"^{check}: zero denominator at the pair \(lam1, mu1, lam2, mu2\)"):
        scan(GAUSS, 2, 1e-300, 2, mu_min=1e-310)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check, scan", PAIR_SCANS)
def test_pair_scans_refuse_an_overflowing_surface(check, scan):
    # W2^2 and the crucial denominator overflow from mu about 1e154 on
    with pytest.raises(ValueError, match=rf"^{check}: the surface is not finite at mu_range = 1e\+200"):
        scan(GAUSS, 2, 1e200, 2, mu_min=1e199)


def test_crucial_scan_memory_stays_a_small_multiple_of_the_surface():
    # 20 x 30 grid points: 359 400 ordered pairs, a 14.4 MB surface; the pair
    # columns, their canonical order and the inner products peak at about 3.2
    # surfaces
    scan_crucial_inequality(GAUSS, 2, 3.0, 2)
    tracemalloc.start()
    try:
        rep = scan_crucial_inequality(GAUSS, 20, 3.0, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.surface.shape == (600 * 599, 5)
    assert peak <= 4 * rep.surface.nbytes


class TestCrucial:
    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_positive_minimum(self, family):
        rep = scan_crucial_inequality(Kernel(family), 9, 3.0, 12)
        assert rep.passed
        assert rep.extremal_value > 0.0

    def test_equal_mu_reduction(self):
        # pairs with mu = mu' collapse to ||phi - phi_mu||^2 / mu^4 = r(mu)/mu^2
        rep = scan_crucial_inequality(GAUSS, 5, 3.0, 6)
        s = rep.surface
        rows = s[(s[:, 1] == s[:, 3]) & (s[:, 0] != s[:, 2])]
        assert rows.shape[0] > 0
        for l1, m1, l2, m2, ratio in rows:
            assert ratio == pytest.approx(r_of(GAUSS, m1) / m1 ** 2, rel=1e-10)

    def test_equal_lambda_reduction(self):
        # pairs with lam = lam' collapse to ||phi_mu - phi_mu'||^2 / (mu'^2 (mu - mu')^2)
        rep = scan_crucial_inequality(GAUSS, 5, 3.0, 6)
        s = rep.surface
        rows = s[(s[:, 0] == s[:, 2]) & (s[:, 1] != s[:, 3])]
        assert rows.shape[0] > 0
        for l1, m1, l2, m2, ratio in rows:
            num = 2.0 * (self_inner(GAUSS) - cross_inner(GAUSS, m1 - m2))
            expected = num / (m2 ** 2 * (m1 - m2) ** 2)
            assert ratio == pytest.approx(expected, rel=1e-9)


class TestDecorrelation:
    def test_closed_form_decay_values(self):
        gauss = decorrelation_profile(GAUSS, [1.0, 50.0])
        assert gauss.extremal_value < 1e-200
        cauchy = decorrelation_profile(CAUCHY, [1.0, 50.0])
        assert cauchy.extremal_value == pytest.approx(2.0 / (math.pi * 2504.0), rel=1e-12)
        lap = decorrelation_profile(Kernel("laplace"), [1.0, 50.0])
        assert lap.extremal_value == pytest.approx(0.25 * math.exp(-50.0) * 51.0, rel=1e-12)

    def test_all_kernels_pass_at_50(self, any_kernel):
        rep = decorrelation_profile(any_kernel, [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
        assert rep.passed

    def test_input_validation(self):
        with pytest.raises(ValueError):
            decorrelation_profile(GAUSS, [])
        with pytest.raises(ValueError):
            decorrelation_profile(GAUSS, [2.0, 1.0])
        with pytest.raises(ValueError):
            decorrelation_profile(GAUSS, [-1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_shifts(self, bad):
        with pytest.raises(ValueError, match="^a_values must be finite"):
            decorrelation_profile(GAUSS, [1.0, bad])


class TestQuadratureStability:
    # the scans' Simpson inner products against an independent rule with
    # twice the panels
    def test_skew_scan_quadrature_converged(self):
        rep = scan_kappa(SKEW, 3.0, 100)
        s = cross_oracle(SKEW, 0.0, 2 ** 15)
        mus = rep.surface[:, 0]
        r = np.array([2.0 * (s - cross_oracle(SKEW, mu, 2 ** 15)) / mu ** 2 for mu in mus])
        assert abs(rep.extremal_value - r.min()) < 1e-6 * abs(r.min())

    # the scans' Simpson inner products against Owen's-T closed form, each
    # within delta = 1e-15 of it (measured: 6e-16), over whole surfaces whose
    # shifts start at 0.01 and 0.04, where the differences s - c cancel
    @pytest.mark.parametrize("alpha", SKEW_ALPHAS)
    def test_skew_kappa_surface_against_the_closed_form(self, alpha):
        rep = scan_kappa(Kernel("skew_gaussian", alpha=alpha), 3.0, 300)
        mus, r = rep.surface.T
        c = skew_cross_closed(alpha, mus)
        s = skew_cross_closed(alpha, 0.0)
        # 2 (s - c) / mu^2 moves by at most 4 delta / mu^2
        assert np.all(np.abs(r - 2.0 * (s - c) / np.square(mus)) <= 4e-15 / np.square(mus))

    @pytest.mark.parametrize("alpha", SKEW_ALPHAS)
    def test_skew_cs_surface_against_the_closed_form(self, alpha):
        rep = scan_cs_ratio(Kernel("skew_gaussian", alpha=alpha), 2.0, 100, 0.1)
        a, b, ratio = rep.surface.T
        c_a, c_b, c_ab = (skew_cross_closed(alpha, x) for x in (a, b, a + b))
        s = skew_cross_closed(alpha, 0.0)
        want = np.abs(c_ab - c_a - c_b + s) / (2.0 * np.sqrt((s - c_a) * (s - c_b)))
        # with m = min(s - c_a, s - c_b), about kappa mu^2 / 2, the numerator
        # moves by 4 delta against a denominator of at least 2 m, and the
        # denominator by 2 delta / m relative (to first order): at most
        # (2 + 2 ratio) delta / m <= 4 delta / m
        m = np.minimum(s - c_a, s - c_b)
        assert np.all(np.abs(ratio - want) <= 4e-15 / m)

    def test_skew_l2w2_quadrature_converged(self):
        rep = scan_l2w2(SKEW, 4, 2.0, 5)
        cross = functools.cache(lambda mu: cross_oracle(SKEW, mu, 2 ** 15))
        s = cross(0.0)
        ratios = []
        for l1, m1, l2, m2, _ in rep.surface:
            a = l2 - l1
            dist = (a * a + l1 * l1 + l2 * l2) * s + 2.0 * a * l1 * cross(m1) - 2.0 * a * l2 * cross(m2)
            dist -= 2.0 * l1 * l2 * cross(m1 - m2)
            g1, g2 = MixtureParams(l1, m1), MixtureParams(l2, m2)
            ratios.append(math.sqrt(max(dist, 0.0)) / w2_squared(g1, g2))
        best = min(ratios)
        assert abs(rep.extremal_value - best) < 1e-6 * abs(best)
