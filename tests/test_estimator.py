import dataclasses
import math
import sys
import threading
import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.special import erfc, ndtr

from contamix import estimator, kernels
from contamix.estimator import (
    ContrastTable,
    EstimateResult,
    build_grid,
    contrast,
    contrast_naive,
    estimate,
    precompute,
)
from contamix.kernels import Kernel, cross_inner, cross_inner_many, pdf, self_inner
from contamix.mixture import MixtureParams, mixture_l2_norm_sq, mixture_pdf, sample_mixture

from conftest import cross_oracle

GAUSS = Kernel("gaussian")
GAUSS2 = Kernel("gaussian", dim=2)


def naive_scan(kernel, data, grid):
    """Exhaustive double loop over the grid using the O(n) contrast oracle."""
    best = None
    for i, lam in enumerate(grid.lambda_levels):
        for j in range(grid.mu_levels.shape[0]):
            mu = grid.mu_levels[j]
            val = contrast_naive(kernel, MixtureParams(lam, mu), data)
            if best is None or val < best[0]:
                best = (val, i, j)
    return best


class TestBuildGrid:
    def test_n4_unrolled(self):
        g = build_grid(4, 1.0, 1)
        assert np.allclose(g.lambda_levels, [0.5, 1.0])
        assert np.allclose(g.mu_levels, [-1.0, -0.5, 0.5, 1.0])
        assert g.size == 8

    def test_n100_sizes(self):
        g = build_grid(100, 2.0, 1)
        assert g.lambda_levels.shape == (10,)
        assert g.mu_levels.shape == (40,)
        assert g.size == 400

    def test_n5000_sizes(self):
        g = build_grid(5000, 10.0, 1)
        assert g.lambda_levels.shape == (70,)
        assert g.mu_levels.shape == (1414,)

    def test_spacing_and_bounds(self):
        g = build_grid(123, 3.0, 1)
        root = math.sqrt(123)
        assert np.allclose(np.diff(g.lambda_levels), 1.0 / root)
        assert 0.0 < g.lambda_levels[0]
        assert g.lambda_levels[-1] <= 1.0
        assert np.all(g.mu_levels != 0.0)
        assert np.all(np.abs(g.mu_levels) <= 3.0 + 1e-12)

    def test_canonical_mu_order(self):
        g = build_grid(16, 1.0, 1)
        # negative k descending (most negative first), then positive ascending
        assert np.all(np.diff(g.mu_levels) > 0)
        assert g.mu_levels[0] == -g.mu_levels[-1]

    def test_dim2_cartesian(self):
        g = build_grid(16, 1.0, 2)
        assert g.mu_levels.shape == (64, 2)
        # first coordinate slowest
        assert np.all(np.diff(np.unique(g.mu_levels[:8, 0])) == 0)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            build_grid(10 ** 6, 10.0, 3)

    @pytest.mark.parametrize(
        "n, M, d", [(4, 1.0, 1), (100, 2.0, 1), (5000, 10.0, 1), (123, 3.0, 1), (16, 1.0, 2), (36, 1.0, 3)]
    )
    def test_levels_are_the_grid_counts(self, n, M, d):
        p, k_max, q = estimator.grid_levels(n, M, d)
        g = build_grid(n, M, d)
        assert (p, q) == (g.lambda_levels.shape[0], g.mu_levels.shape[0])
        axis = g.mu_levels if d == 1 else np.unique(g.mu_levels[:, 0])
        assert k_max == np.sum(axis > 0)

    @pytest.mark.parametrize("n, M, d", [(3, 1.0, 1), (4, 0.0, 1), (4, math.inf, 1), (4, 1.0, 0), (4, 0.4, 1), (4, 1e8, 1)])
    def test_levels_refuse_as_the_grid_does(self, n, M, d):
        with pytest.raises(ValueError) as levels_err:
            estimator.grid_levels(n, M, d)
        with pytest.raises(ValueError) as grid_err:
            build_grid(n, M, d)
        assert str(levels_err.value) == str(grid_err.value)

    # sqrt(n) past the float range, or M sqrt(n) = inf: refused, not OverflowError
    @pytest.mark.parametrize("n, M", [(10 ** 400, 10.0), (4, 1e308)], ids=["huge_n", "huge_M"])
    def test_float_overflow_is_value_error(self, n, M):
        with pytest.raises(ValueError, match="overflows a float"):
            estimator.grid_levels(n, M, 1)

    def test_mu_level_bound_before_allocation(self):
        # 4e8 mu levels on 8e8 grid points, under the point bound
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="mu levels"):
                build_grid(4, 1e8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        levels = build_grid(4, estimator.MAX_MU_LEVELS / 4, 1).mu_levels
        assert levels.shape == (estimator.MAX_MU_LEVELS,)
        with pytest.raises(ValueError, match="mu levels"):
            build_grid(4, (estimator.MAX_MU_LEVELS + 2) / 4, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_grid(3, 1.0, 1)
        with pytest.raises(ValueError):
            build_grid(100, 0.0, 1)
        with pytest.raises(ValueError):
            build_grid(4, 0.2, 1)  # M sqrt(n) < 1

    @pytest.mark.parametrize("M", [math.inf, math.nan])
    def test_non_finite_bound(self, M):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            build_grid(100, M, 1)


class TestPrecompute:
    def test_single_point_shift_sum(self):
        g = build_grid(4, 1.0, 1)
        table = precompute(GAUSS, g, np.array([0.0]))
        j = int(np.flatnonzero(g.mu_levels == 1.0)[0])
        assert table.shift_sums[j] == pytest.approx(pdf(GAUSS, -1.0), rel=1e-14)

    def test_inner_cache_delegates(self, any_kernel):
        g = build_grid(25, 1.0, 1)
        table = precompute(any_kernel, g, np.array([0.1, -0.2, 0.5]))
        for j in range(g.mu_levels.shape[0]):
            assert table.inner_cache[j] == pytest.approx(
                cross_inner(any_kernel, g.mu_levels[j]), rel=1e-13
            )

    def test_shift_sums_match_naive_summation(self, any_kernel):
        rng = np.random.default_rng(12)
        data = rng.normal(size=100)
        g = build_grid(100, 2.0, 1)
        table = precompute(any_kernel, g, data)
        for j in (0, 17, 39):
            direct = sum(pdf(any_kernel, x - g.mu_levels[j]) for x in data)
            assert abs(table.shift_sums[j] - direct) < 1e-12

    def test_empty_data(self):
        g = build_grid(4, 1.0, 1)
        with pytest.raises(ValueError):
            precompute(GAUSS, g, np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data(self, bad):
        g = build_grid(4, 1.0, 1)
        with pytest.raises(ValueError, match="non-finite"):
            precompute(GAUSS, g, np.array([0.1, bad, 0.3]))


class TestContrast:
    def test_single_datum_formula(self, any_kernel):
        x = 0.4
        g = build_grid(4, 1.0, 1)
        table = precompute(any_kernel, g, np.array([x]))
        for j in range(g.mu_levels.shape[0]):
            theta = MixtureParams(0.5, g.mu_levels[j])
            expected = -2.0 * mixture_pdf(any_kernel, theta, x) + mixture_l2_norm_sq(any_kernel, theta)
            assert contrast(theta, table, j) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_random(self, any_kernel):
        rng = np.random.default_rng(5)
        data = rng.normal(size=40)
        g = build_grid(40, 2.0, 1)
        table = precompute(any_kernel, g, data)
        for (i, j) in [(0, 3), (2, 10), (5, 20)]:
            theta = MixtureParams(g.lambda_levels[i], g.mu_levels[j])
            assert abs(contrast(theta, table, j) - contrast_naive(any_kernel, theta, data)) < 1e-10

    def test_lambda_one_collapse(self):
        data = np.array([0.3, -0.8, 1.1, 0.0])
        g = build_grid(4, 1.0, 1)
        table = precompute(GAUSS, g, data)
        n = len(data)
        for j in range(g.mu_levels.shape[0]):
            theta = MixtureParams(1.0, g.mu_levels[j])
            expected = -2.0 / n * table.shift_sums[j] + table.self_norm
            assert contrast(theta, table, j) == pytest.approx(expected, rel=1e-14)

    def test_repeated_point_equals_single_formula(self):
        x = -0.7
        data = np.full(10, x)
        theta = MixtureParams(0.5, 1.0)
        expected = -2.0 * mixture_pdf(GAUSS, theta, x) + mixture_l2_norm_sq(GAUSS, theta)
        assert contrast_naive(GAUSS, theta, data) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", [50, 500])
    def test_equals_estimate_at_winner(self, any_kernel, n):
        # the public contrast and every scan share one expression, so the
        # winner's value is reproduced bit for bit
        grid = build_grid(n, 3.0, 1)
        for seed in range(6):
            data = sample_mixture(any_kernel, MixtureParams(0.3, 1.5), n, seed=seed)
            res = estimate(any_kernel, data, 3.0)
            table = precompute(any_kernel, grid, data)
            theta = MixtureParams(res.lambda_hat, res.mu_hat)
            assert contrast(theta, table, res.mu_index) == res.contrast_value

    def test_index_out_of_range(self):
        g = build_grid(4, 1.0, 1)
        table = precompute(GAUSS, g, np.array([0.0]))
        with pytest.raises(IndexError):
            contrast(MixtureParams(0.5, 1.0), table, 99)


class TestEstimate:
    def test_deterministic(self):
        data = sample_mixture(GAUSS, MixtureParams(0.3, 1.0), 64, seed=2)
        a = estimate(GAUSS, data, 2.0)
        b = estimate(GAUSS, data, 2.0)
        assert a == b or (
            a.lambda_hat == b.lambda_hat
            and np.array_equal(a.mu_hat, b.mu_hat)
            and a.contrast_value == b.contrast_value
            and (a.lambda_index, a.mu_index) == (b.lambda_index, b.mu_index)
        )

    def test_fast_equals_naive_small(self, any_kernel):
        rng = np.random.default_rng(99)
        for trial in range(5):
            n = int(rng.integers(16, 40))
            data = sample_mixture(any_kernel, MixtureParams(0.4, 1.5), n, seed=100 + trial)
            res = estimate(any_kernel, data, 2.0)
            grid = build_grid(n, 2.0, 1)
            val, i, j = naive_scan(any_kernel, data, grid)
            assert (res.lambda_index, res.mu_index) == (i, j)
            assert abs(res.contrast_value - val) < 1e-10

    def test_result_is_grid_point(self):
        data = sample_mixture(GAUSS, MixtureParams(0.25, 1.0), 100, seed=1)
        res = estimate(GAUSS, data, 2.0)
        g = build_grid(100, 2.0, 1)
        assert res.lambda_hat == g.lambda_levels[res.lambda_index]
        assert res.mu_hat[0] == g.mu_levels[res.mu_index]
        table = precompute(GAUSS, g, data)
        theta = MixtureParams(res.lambda_hat, res.mu_hat)
        assert res.contrast_value == pytest.approx(contrast(theta, table, res.mu_index), abs=1e-14)

    def test_minimum_over_random_grid_points(self):
        data = sample_mixture(GAUSS, MixtureParams(0.25, 2.0), 400, seed=3)
        res = estimate(GAUSS, data, 3.0)
        g = build_grid(400, 3.0, 1)
        table = precompute(GAUSS, g, data)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            i = int(rng.integers(0, g.lambda_levels.shape[0]))
            j = int(rng.integers(0, g.mu_levels.shape[0]))
            theta = MixtureParams(g.lambda_levels[i], g.mu_levels[j])
            assert res.contrast_value <= contrast(theta, table, j) + 1e-14

    def test_degenerate_data_all_zeros(self):
        n = 16
        data = np.zeros(n)
        res = estimate(GAUSS, data, 1.0)
        grid = build_grid(n, 1.0, 1)
        val, i, j = naive_scan(GAUSS, data, grid)
        assert (res.lambda_index, res.mu_index) == (i, j)
        assert abs(res.contrast_value - val) < 1e-10
        # the fit pushes the contamination weight to the smallest grid level
        assert res.lambda_hat == pytest.approx(1.0 / math.sqrt(n))

    def test_inner_products_override(self):
        data = sample_mixture(GAUSS, MixtureParams(0.3, 1.0), 36, seed=8)
        g = build_grid(36, 2.0, 1)
        from contamix.kernels import cross_inner_many

        override = cross_inner_many(GAUSS, g.mu_levels)
        a = estimate(GAUSS, data, 2.0)
        b = estimate(GAUSS, data, 2.0, inner_products=override)
        assert (a.lambda_index, a.mu_index) == (b.lambda_index, b.mu_index)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(4, 64),
        M=st.floats(0.5, 1.5),
        lam=st.floats(0.01, 0.99),
        mu=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_dim2_matches_naive_scan(self, n, M, lam, mu, seed):
        k2 = Kernel("gaussian", dim=2)
        data = sample_mixture(k2, MixtureParams(lam, mu), n, seed=seed)
        res = estimate(k2, data, M)
        val, i, j = naive_scan(k2, data, build_grid(n, M, 2))
        assert (res.lambda_index, res.mu_index) == (i, j)
        assert abs(res.contrast_value - val) < 1e-10

    def test_dim2_runs(self):
        k2 = Kernel("gaussian", dim=2)
        theta = MixtureParams(0.5, [1.0, -1.0])
        data = sample_mixture(k2, theta, 64, seed=5)
        res = estimate(k2, data, 1.5)
        assert res.mu_hat.shape == (2,)
        grid = build_grid(64, 1.5, 2)
        val, i, j = naive_scan(k2, data, grid)
        assert (res.lambda_index, res.mu_index) == (i, j)
        assert abs(res.contrast_value - val) < 1e-10


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_estimate_rejects_non_finite_data(self, any_kernel, bad):
        data = np.array([0.2, -0.4, bad, 1.1, 0.7])
        with pytest.raises(ValueError, match="non-finite"):
            estimate(any_kernel, data, 2.0)

    def test_scan_refuses_non_finite_table(self):
        data = sample_mixture(GAUSS, MixtureParams(0.3, 1.0), 25, seed=8)
        g = build_grid(25, 2.0, 1)
        inner = np.full(g.mu_levels.shape[0], math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            estimate(GAUSS, data, 2.0, inner_products=inner)


class TestDataShape:
    """estimate, precompute and contrast_naive share one data check."""

    @pytest.mark.parametrize(
        "kernel, data",
        [
            (GAUSS, 5.0),
            (GAUSS, np.zeros((8, 1))),
            (GAUSS, np.zeros(0)),
            (GAUSS2, 5.0),
            (GAUSS2, np.zeros(8)),
            (GAUSS2, np.zeros((8, 3))),
            (GAUSS2, np.zeros((0, 2))),
        ],
        ids=["0-d", "column", "empty", "0-d-dim2", "flat-dim2", "wide-dim2", "empty-dim2"],
    )
    def test_bad_shape_is_value_error(self, kernel, data):
        with pytest.raises(ValueError, match="data of shape"):
            estimate(kernel, data, 2.0)
        with pytest.raises(ValueError, match="data of shape"):
            precompute(kernel, build_grid(16, 1.0, kernel.dim), data)
        with pytest.raises(ValueError, match="data of shape"):
            contrast_naive(kernel, MixtureParams(0.5, np.ones(kernel.dim)), data)


class TestLatticePlan:
    """Each 1-d grid's plan holds its inner products and is built once."""

    def test_concurrent_estimates_build_the_plan_once(self, monkeypatch):
        builds = []
        real = estimator._lattice_plan

        def slow_build(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the window in which other threads arrive
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator, "_lattice_plan", slow_build)
        monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
        data = sample_mixture(GAUSS, MixtureParams(0.3, 1.0), 100, seed=6)
        barrier = threading.Barrier(4)
        got = []

        def worker():
            barrier.wait()
            got.append(estimate(GAUSS, data, 2.0))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(builds) == 1
        assert len(got) == 4
        assert len({(r.lambda_index, r.mu_index, r.contrast_value) for r in got}) == 1
        assert list(estimator._LATTICE_PLANS) == [(GAUSS, 100, 20)]

    @pytest.mark.parametrize("kernel", [GAUSS, Kernel("laplace"), Kernel("cauchy")], ids=lambda k: k.family)
    def test_closed_form_inner_products_are_exact(self, kernel):
        grid = build_grid(500, 3.0, 1)
        plan = estimator._grid_plan(kernel, grid)
        expected = cross_inner_many(kernel, grid.mu_levels)
        assert plan.inner.tobytes() == expected.tobytes()
        assert plan.inner_err == 0.0

    def test_grids_with_one_k_max_share_a_plan(self, monkeypatch):
        monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
        # floor(M sqrt(400)) = 60 for both bounds
        a, b = build_grid(400, 3.0, 1), build_grid(400, 3.04, 1)
        assert np.array_equal(a.mu_levels, b.mu_levels)
        assert estimator._grid_plan(GAUSS, a) is estimator._grid_plan(GAUSS, b)
        assert len(estimator._LATTICE_PLANS) == 1


def spy_precompute(monkeypatch):
    """Record the mu levels of each precompute call; the last is the recompute."""
    sizes = []
    real = estimator.precompute

    def spy(kernel, grid, *args, **kwargs):
        sizes.append(grid.mu_levels.shape[0])
        return real(kernel, grid, *args, **kwargs)

    monkeypatch.setattr(estimator, "precompute", spy)
    return sizes


def assert_lattice_scan_exact(data, M, kernel=GAUSS, inner_products=None):
    """The estimate equals precompute + _scan_table bit for bit, and the
    approximate sums (lattice in d = 1, direct in d > 1) lie within their
    bound of precompute's."""
    grid = build_grid(len(data), M, kernel.dim)
    table = precompute(kernel, grid, data, inner_products)
    val, i, j = estimator._scan_table(grid, table)
    sums, eps = estimator._approximate(kernel, grid, data)[:2]
    assert np.max(np.abs(sums - table.shift_sums)) <= eps
    res = estimate(kernel, data, M, inner_products)
    assert (res.lambda_index, res.mu_index) == (i, j)
    assert np.float64(res.contrast_value).tobytes() == np.float64(val).tobytes()


class TestLatticeScan:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 3000),
        M=st.floats(1.0, 10.0),
        lam=st.floats(0.01, 0.99),
        mu_frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_direct_path(self, n, M, lam, mu_frac, seed):
        data = sample_mixture(GAUSS, MixtureParams(lam, mu_frac * M), n, seed=seed)
        assert_lattice_scan_exact(data, M)

    def test_symmetric_data_ties(self, monkeypatch):
        # x and -x give gamma(mu) = gamma(-mu) up to rounding: both columns
        # of the minimum must be recomputed and the direct tie rule decides
        x = sample_mixture(GAUSS, MixtureParams(0.3, 1.5), 600, seed=21)
        data = np.concatenate([x, -x])
        sizes = spy_precompute(monkeypatch)
        assert_lattice_scan_exact(data, 4.0)
        assert sizes[-1] >= 2

    def test_samples_on_bin_edges(self):
        n, M = 900, 3.0
        h = 1.0 / math.sqrt(n)
        k = np.random.default_rng(5).integers(-140, 140, size=n)
        assert_lattice_scan_exact((k + 0.5) * h, M)

    @pytest.mark.parametrize("value", [0.0, 0.37, -2.5])
    def test_repeated_value(self, value):
        # one occupied bin
        assert_lattice_scan_exact(np.full(400, value), 3.0)
        size, fixed = transform_length(GAUSS, np.full(400, value), 3.0)
        assert size <= fixed

    def test_far_outliers_keep_memory_bounded(self):
        data = sample_mixture(GAUSS, MixtureParams(0.25, 2.0), 2000, seed=9)
        data[:4] = [1e6, -1e6, 1e6 + 0.5, 40.0]
        assert_lattice_scan_exact(data, 10.0)
        grid = build_grid(2000, 10.0, 1)
        plan = estimator._grid_plan(GAUSS, grid)
        tracemalloc.start()
        try:
            estimator._lattice_shift_sums(plan, grid, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bins span the mu levels plus T, not the data range
        assert peak < 8 * 2 ** 20

    def test_all_samples_far(self):
        # nothing is binned; the skipped sums (~1e-183) are covered by eps
        assert_lattice_scan_exact(np.linspace(30.0, 31.0, 64), 1.0)
        size, fixed = transform_length(GAUSS, np.linspace(30.0, 31.0, 64), 1.0)
        assert size <= fixed


def transform_length(kernel, data, M):
    """The FFT length of one lattice transform of ``data`` on a fresh plan,
    and the length 1 << (2 half).bit_length() of the fixed layout, whose
    bins span -K..K and whose table reaches every (b, k) pair."""
    grid = build_grid(len(data), M, 1)
    plan = estimator._lattice_plan(kernel, grid)
    estimator._lattice_shift_sums(plan, grid, data)
    (size,) = plan.spectra
    return size, 1 << (plan.tables.shape[1] - 1).bit_length()


class TestTransformWindow:
    """The transform spans the occupied bins and the table's reach: never
    longer than the fixed layout, and its sums keep their bound."""

    @pytest.mark.parametrize("n, fixed, want", [(1000, 2048, 1024), (5000, 4096, 2048)])
    @pytest.mark.parametrize("nu", [1.0 / 24.0, 1.0])
    def test_gaussian_study_lengths(self, n, fixed, want, nu):
        # the desk and full protocol grids (M = 10) at the ends of the nu ladder
        data = sample_mixture(GAUSS, MixtureParams(0.25, math.sqrt(1.0 / (0.25 * n ** nu))), n, seed=3)
        assert transform_length(GAUSS, data, 10.0) == (want, fixed)

    def test_cauchy_bins_at_both_ends(self):
        # samples in bins -K and K: the whole fixed window, at its length
        kernel = Kernel("cauchy")
        data = sample_mixture(kernel, MixtureParams(0.3, 1.0), 2000, seed=8)
        plan = estimator._lattice_plan(kernel, build_grid(2000, 4.0, 1))
        data[:2] = np.array([-1.0, 1.0]) * (plan.bins - 0.25) * plan.h
        assert transform_length(kernel, data, 4.0) == (4096, 4096)
        assert_lattice_scan_exact(data, 4.0, kernel)

    @pytest.mark.parametrize(
        "kernel, n, M",
        [
            (GAUSS, 16, 7.75),
            (GAUSS, 100, 4.7),
            (Kernel("skew_gaussian", alpha=10.0), 16, 3.75),
        ],
        ids=["gaussian-16", "gaussian-100", "skew-16"],
    )
    def test_short_reach_bins_at_both_ends(self, kernel, n, M):
        # R = K - k_max - 1 and 2K a power of two: the reach alone asks for
        # L = 2K, one short of the 2K + 1 occupied bins -K..K
        plan = estimator._lattice_plan(kernel, build_grid(n, M, 1))
        assert plan.reach < plan.tables.shape[1] // 2
        assert (2 * plan.bins).bit_count() == 1
        data = sample_mixture(kernel, MixtureParams(0.3, 1.0), n, seed=4)
        data[:2] = np.array([-1.0, 1.0]) * (plan.bins - 0.25) * plan.h
        size, fixed = transform_length(kernel, data, M)
        assert 2 * plan.bins < size <= fixed
        assert_lattice_scan_exact(data, M, kernel)

    def test_short_reach_keeps_the_bound(self, monkeypatch):
        # a Gaussian table that reaches R = 10 steps: the dropped pairs, each
        # below psi((R + 1/2) h), are nearly all of eps, and the sums stay
        # within eps/2 of precompute's
        monkeypatch.setitem(estimator._SPECS, "gaussian", dataclasses.replace(estimator._GAUSS_SPEC, far=1.0))
        monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
        for seed in range(5):
            data = sample_mixture(GAUSS, MixtureParams(0.3, 1.5), 100, seed=seed)
            grid = build_grid(100, 3.0, 1)
            plan = estimator._grid_plan(GAUSS, grid)
            assert plan.reach == 10 < plan.tables.shape[1] // 2
            sums, eps = estimator._lattice_shift_sums(plan, grid, data)
            assert np.max(np.abs(sums - precompute(GAUSS, grid, data).shift_sums)) <= eps / 2
            assert_lattice_scan_exact(data, 3.0)


class TestCertifiedScanDim2:
    """d > 1 takes the certified scan with direct sums: bit-equal to
    precompute + _scan_table, recomputing only the candidate columns."""

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(4, 2000),
        M=st.floats(0.5, 1.5),  # q <= 18 000 levels
        lam=st.floats(0.01, 0.99),
        mu_frac=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(n=2000, M=1.5, lam=0.25, mu_frac=(0.6, -0.3), seed=11)
    def test_matches_direct_path(self, n, M, lam, mu_frac, seed):
        data = sample_mixture(GAUSS2, MixtureParams(lam, np.array(mu_frac) * M), n, seed=seed)
        assert_lattice_scan_exact(data, M, GAUSS2)

    def test_recomputes_only_candidates(self, monkeypatch):
        data = sample_mixture(GAUSS2, MixtureParams(0.3, [1.0, -0.5]), 500, seed=4)
        q = build_grid(500, 1.5, 2).mu_levels.shape[0]
        sizes = spy_precompute(monkeypatch)
        estimate(GAUSS2, data, 1.5)
        assert 1 <= sizes[-1] < q

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("n", [20, 100, 500])
    def test_sums_within_half_eps_of_exact(self, n):
        # eps is twice the rounding bound of one sum; a long-double sum, about
        # 2^11 times more accurate, stands in for the exact one
        data = sample_mixture(GAUSS2, MixtureParams(0.3, [1.0, -0.5]), n, seed=n)
        grid = build_grid(n, 1.5, 2)
        sums, eps, _, _ = estimator._approximate(GAUSS2, grid, data)
        x = data.astype(np.longdouble)
        two_pi = 8.0 * np.arctan(np.longdouble(1.0))
        exact = np.concatenate([
            np.sum(np.exp(-0.5 * np.sum(np.square(x[None] - mu[:, None]), axis=2)), axis=1) / two_pi
            for mu in np.array_split(grid.mu_levels.astype(np.longdouble), 32)
        ])
        assert np.max(np.abs(sums - exact)) <= eps / 2

    def test_symmetric_data_ties(self, monkeypatch):
        # x and -x give gamma(mu) = gamma(-mu) up to rounding
        x = sample_mixture(GAUSS2, MixtureParams(0.3, [1.0, 0.5]), 200, seed=22)
        sizes = spy_precompute(monkeypatch)
        assert_lattice_scan_exact(np.concatenate([x, -x]), 1.5, GAUSS2)
        assert sizes[-1] >= 2


SKEW = Kernel("skew_gaussian", alpha=10.0)
NON_GAUSSIAN = [Kernel("laplace"), Kernel("cauchy"), SKEW]


def family(kernel):
    return kernel.family


class TestLatticeFamilies:
    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 3000),
        M=st.floats(1.0, 10.0),
        lam=st.floats(0.01, 0.99),
        mu_frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_direct_path(self, kernel, n, M, lam, mu_frac, seed):
        data = sample_mixture(kernel, MixtureParams(lam, mu_frac * M), n, seed=seed)
        inner = None
        if kernel.family == "skew_gaussian":
            # a coarse Simpson rule keeps each example's cold grid fill cheap;
            # near mu = 0 it can exceed ||phi||^2, giving concave columns
            inner = np.array([cross_oracle(kernel, m, 256) for m in build_grid(n, M, 1).mu_levels])
        assert_lattice_scan_exact(data, M, kernel, inner)

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    def test_far_outliers_keep_memory_bounded(self, kernel):
        data = sample_mixture(kernel, MixtureParams(0.25, 2.0), 2000, seed=9)
        data[:8] = [1e6, -1e6, 1e6 + 0.5, -1e6 - 0.5, 1e5, 40.0, -40.0, 31.0]
        assert_lattice_scan_exact(data, 10.0, kernel)
        grid = build_grid(2000, 10.0, 1)
        plan = estimator._grid_plan(kernel, grid)
        tracemalloc.start()
        try:
            estimator._lattice_shift_sums(plan, grid, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_cauchy_outlier_mass(self):
        # a fifth of the sample at +-1e6 and beyond: summed directly, not binned
        data = sample_mixture(Kernel("cauchy"), MixtureParams(0.3, -1.0), 1500, seed=4)
        data[::5] = np.where(np.arange(300) % 2, 1e6, -1e6) * (1.0 + np.arange(300) / 300)
        assert_lattice_scan_exact(data, 5.0, Kernel("cauchy"))

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    def test_symmetric_data_ties(self, kernel, monkeypatch):
        x = sample_mixture(kernel, MixtureParams(0.3, 1.5), 600, seed=21)
        sizes = spy_precompute(monkeypatch)
        assert_lattice_scan_exact(np.concatenate([x, -x]), 4.0, kernel)
        if kernel.family != "skew_gaussian":
            # gamma(mu) = gamma(-mu) up to rounding for a symmetric kernel
            assert sizes[-1] >= 2

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    def test_samples_on_bin_edges(self, kernel):
        n, M = 900, 3.0
        k = np.random.default_rng(5).integers(-140, 140, size=n)
        assert_lattice_scan_exact((k + 0.5) / math.sqrt(n), M, kernel)

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    @pytest.mark.parametrize("value", [0.0, 0.37, -2.5])
    def test_repeated_value(self, kernel, value):
        # one occupied bin
        assert_lattice_scan_exact(np.full(400, value), 3.0, kernel)
        size, fixed = transform_length(kernel, np.full(400, value), 3.0)
        assert size <= fixed

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    @pytest.mark.parametrize("n, value", [(16, 0.37), (100, 0.149)])
    def test_coarse_lattice_offset_near_half_bin(self, kernel, n, value):
        # r close to h/2 on a coarse lattice: the last Taylor term is far
        # above every rounding term of eps
        assert_lattice_scan_exact(np.full(n, value), 2.0, kernel)

    @pytest.mark.parametrize("kernel", NON_GAUSSIAN, ids=family)
    def test_all_samples_far(self, kernel):
        # beyond every family's cutoff: nothing is binned
        assert_lattice_scan_exact(np.linspace(50.0, 51.0, 64), 1.0, kernel)
        size, fixed = transform_length(kernel, np.linspace(50.0, 51.0, 64), 1.0)
        assert size <= fixed

    @pytest.mark.parametrize("kernel", [GAUSS] + NON_GAUSSIAN, ids=family)
    def test_rate_scaling_largest_n(self, kernel, monkeypatch):
        # the n = 8000 cell of the rate-scaling study, which the benchmark's
        # naive-contrast spot checks leave out
        data = sample_mixture(kernel, MixtureParams(0.25, 2.0), 8000, seed=20260809)
        sizes = spy_precompute(monkeypatch)
        assert_lattice_scan_exact(data, 10.0, kernel)
        assert sizes[-1] < 8  # only the candidate columns are recomputed

    @pytest.mark.parametrize("kernel", [GAUSS] + NON_GAUSSIAN, ids=family)
    @pytest.mark.parametrize("spread", [(0.8, 1.2), (1.5, 3.0)])
    def test_explicit_inner_products_take_the_lattice(self, kernel, spread, monkeypatch):
        # Monte-Carlo-like inner products go through the certified scan too;
        # those above ||phi||^2 make concave columns, least at an end level
        data = sample_mixture(kernel, MixtureParams(0.4, 1.0), 700, seed=13)
        grid = build_grid(700, 3.0, 1)
        noise = np.random.default_rng(2).uniform(*spread, grid.mu_levels.shape[0])
        inner = cross_inner_many(kernel, grid.mu_levels) * noise
        sizes = spy_precompute(monkeypatch)
        assert_lattice_scan_exact(data, 3.0, kernel, inner)
        assert sizes[-1] < grid.mu_levels.shape[0]

    def test_column_minima_within_their_slack(self):
        data = sample_mixture(GAUSS, MixtureParams(0.3, 1.0), 2500, seed=3)
        grid = build_grid(2500, 6.0, 1)
        table = precompute(GAUSS, grid, data)
        lam = grid.lambda_levels[:, None]
        full = estimator._contrast_values(lam, table, table.shift_sums, table.inner_cache).min(axis=0)
        fast = estimator._column_minima(grid, table)
        assert np.all(fast >= full)
        assert np.max(fast - full) <= 1e-15


SKEW_ALPHAS = [-10.0, -0.5, 0.5, 3.0, 10.0, 30.0]


class TestSkewLatticeInner:
    """The skew-Gaussian's default inner products come from its lattice plan,
    within the plan's bound e of the Simpson values; only the candidate
    columns get Simpson values."""

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.sampled_from(SKEW_ALPHAS),
        n=st.integers(4, 1500),
        M=st.floats(1.0, 4.0),
        lam=st.floats(0.01, 0.99),
        mu_frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_default_inner_products_match_direct_path(self, alpha, n, M, lam, mu_frac, seed):
        # the oracle fills the full Simpson grid; M <= 4 keeps that cheap
        kernel = Kernel("skew_gaussian", alpha=alpha)
        data = sample_mixture(kernel, MixtureParams(lam, mu_frac * M), n, seed=seed)
        assert_lattice_scan_exact(data, M, kernel)

    @pytest.mark.parametrize("alpha", SKEW_ALPHAS)
    @pytest.mark.parametrize("n", [4, 16, 500, 2000, 8000])
    def test_bound_holds_at_every_level(self, alpha, n):
        kernel = Kernel("skew_gaussian", alpha=alpha)
        grid = build_grid(n, 4.0, 1)
        plan = estimator._grid_plan(kernel, grid)
        simpson = cross_inner_many(kernel, grid.mu_levels)
        assert np.max(np.abs(plan.inner - simpson)) <= plan.inner_err
        if n >= 500 and abs(alpha) <= 10.0:
            # the bound is small where the lattice resolves the kernel
            assert plan.inner_err < 1e-6

    def test_huge_alpha_recomputes_every_column(self, monkeypatch):
        # the lattice cannot resolve Psi(alpha t) at n = 16: e is useless and
        # every column gets its Simpson value, as the direct path does.  From
        # alpha 1e20 on the skew tables overflow (as estimate's errstate
        # allows), and the plan's guard must turn the bound e into inf
        grid = build_grid(16, 2.0, 1)
        sizes = spy_precompute(monkeypatch)
        for alpha in (1e4, 1e20, -1e20, 1e200, -1e200):
            sizes.clear()
            kernel = Kernel("skew_gaussian", alpha=alpha)
            data = sample_mixture(kernel, MixtureParams(0.3, 1.0), 16, seed=11)
            table = precompute(kernel, grid, data)
            val, i, j = estimator._scan_table(grid, table)
            with np.errstate(over="ignore", invalid="ignore"):
                plan = estimator._grid_plan(kernel, grid)
                sums, eps = estimator._approximate(kernel, grid, data)[:2]
            assert not plan.inner_err < 1.0
            # an infinite bound stands for non-finite sums
            assert eps == math.inf or np.max(np.abs(sums - table.shift_sums)) <= eps
            res = estimate(kernel, data, 2.0)
            assert (res.lambda_index, res.mu_index) == (i, j)
            assert np.float64(res.contrast_value).tobytes() == np.float64(val).tobytes()
            assert sizes[-1] == grid.mu_levels.shape[0]

    @pytest.mark.parametrize("alpha", [10.0, -0.5, 1e3])
    def test_tables_keep_the_erfc_expression_bits(self, alpha, monkeypatch):
        # the certified scan hides the table bits from every output, so the
        # factor Psi(alpha s) is pinned here to 0.5 erfc(-z / sqrt 2)
        kernel = Kernel("skew_gaussian", alpha=alpha)
        t = np.arange(-900, 901) / math.sqrt(5000.0)
        table, err = estimator._skew_spec(kernel).tables(t)
        monkeypatch.setattr(estimator, "normal_cdf", lambda z: 0.5 * erfc(-z / math.sqrt(2.0)))
        want_table, want_err = estimator._skew_spec(kernel).tables(t)
        assert np.array_equal(table.view(np.int64), want_table.view(np.int64))
        assert np.array_equal(err.view(np.int64), want_err.view(np.int64))

    def test_simpson_only_on_candidates(self, monkeypatch):
        levels = []
        real = kernels._skew_cross_quadrature

        def spy(kernel, mu):
            levels.append(mu)
            return real(kernel, mu)

        monkeypatch.setattr(kernels, "_skew_cross_quadrature", spy)
        monkeypatch.setattr(kernels, "_SKEW_CACHE", {})
        monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
        data = sample_mixture(SKEW, MixtureParams(0.25, 2.0), 8000, seed=20260809)
        estimate(SKEW, data, 10.0)
        # ||phi||^2 and the candidate columns, out of 1788 mu levels
        assert len(levels) <= 8


# Each family's cutoff T and a wider one, at which the samples of the band
# between them would be binned rather than summed directly
CUTOFFS = {"gaussian": (8.0, 12.0), "laplace": (12.0, 40.0), "cauchy": (20.0, 30.0), "skew_gaussian": (12.0, 12.0)}


def longdouble_pdf(kernel, x):
    """The kernel's density at long-double x, in long double; the skew factor
    Psi(alpha x) is ``ndtr``'s double, within a few u relative."""
    one = np.longdouble(1.0)
    pi = 4.0 * np.arctan(one)
    if kernel.family == "laplace":
        return np.exp(-np.abs(x)) / 2.0
    if kernel.family == "cauchy":
        return one / (pi * (one + x * x))
    psi = np.exp(-x * x / 2.0) / np.sqrt(2.0 * pi)
    if kernel.family == "gaussian":
        return psi
    return 2.0 * psi * ndtr(kernel.alpha * x.astype(float))


class TestCutoffs:
    """The cutoff T only splits the samples between the lattice and the
    direct sum: samples across T, up to a wider cutoff and far beyond it give
    the exact scan and sums within eps of a long-double reference."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("kernel", [GAUSS] + NON_GAUSSIAN, ids=family)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(64, 1500),
        M=st.floats(1.0, 4.0),
        lam=st.floats(0.01, 0.99),
        band=st.lists(st.floats(-1.0, 1.0), max_size=40),
        beyond=st.lists(st.floats(-1.0, 1.0), max_size=10),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(n=1500, M=4.0, lam=0.3, band=[-1.0, -0.5, 0.0, 0.25, 0.5, 1.0] * 5, beyond=[-1.0, 0.5, 1.0], seed=3)
    def test_samples_across_the_cutoff(self, kernel, n, M, lam, band, beyond, seed):
        cut, wide = CUTOFFS[kernel.family]
        grid = build_grid(n, M, 1)
        assert estimator._grid_plan(kernel, grid).spec.far == cut
        mu_max = float(grid.mu_levels[-1])
        # |x| from T - 2 to the wider cutoff + 2 past the last level, and up to 100 beyond that
        edge = [math.copysign(mu_max + cut - 2.0 + abs(u) * (wide - cut + 4.0), u) for u in band]
        far = [math.copysign(mu_max + wide + 2.0 + 100.0 * abs(u), u) for u in beyond]
        data = sample_mixture(kernel, MixtureParams(lam, 0.5 * M), n, seed=seed)
        data[: len(edge) + len(far)] = edge + far
        assert_lattice_scan_exact(data, M, kernel)
        sums, eps = estimator._approximate(kernel, grid, data)[:2]
        x = data.astype(np.longdouble)
        exact = np.concatenate([
            np.sum(longdouble_pdf(kernel, x[None] - mu[:, None]), axis=1)
            for mu in np.array_split(grid.mu_levels.astype(np.longdouble), 16)
        ])
        assert np.max(np.abs(sums - exact)) <= eps


def lattice_results(jobs):
    """(sums bytes, eps, lambda_index, mu_index, contrast bits) of each
    (kernel, n) job: lattice sums and an estimate at M = 10."""
    out = []
    for kernel, n in jobs:
        data = sample_mixture(kernel, MixtureParams(0.3, 1.5), n, seed=n)
        grid = build_grid(n, 10.0, 1)
        sums, eps = estimator._lattice_shift_sums(estimator._grid_plan(kernel, grid), grid, data)
        res = estimate(kernel, data, 10.0)
        out.append((sums.tobytes(), eps, res.lambda_index, res.mu_index, np.float64(res.contrast_value).tobytes()))
    return out


def on_fresh_thread(fn, *args):
    out = []
    t = threading.Thread(target=lambda: out.append(fn(*args)))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    return out[0]


class TestTransformState:
    """No state kept between transforms, or shared by threads, changes a result."""

    def test_same_length_other_bins(self):
        # both L = 2048, with the occupied bins from b = -234 and -238 and
        # reaches R = 560 and 566, so their levels sit at other offsets: a
        # plan or array kept from one n would mix its bins into the other's
        for n in (4900, 5000):
            data = sample_mixture(GAUSS, MixtureParams(0.3, 1.5), n, seed=n)
            assert transform_length(GAUSS, data, 10.0)[0] == 2048
        jobs = [(GAUSS, 4900), (GAUSS, 5000), (GAUSS, 4900)]
        back_to_back = on_fresh_thread(lattice_results, jobs)
        fresh = [on_fresh_thread(lattice_results, [job])[0] for job in jobs]
        assert back_to_back == fresh

    def test_concurrent_threads_give_the_serial_results(self):
        # the threads meet on one (P, L) = (4, 2048) and switch often
        jobs = [
            [(GAUSS, 4900), (Kernel("laplace"), 2000), (GAUSS, 5000)],
            [(GAUSS, 5000), (Kernel("cauchy"), 500), (GAUSS, 4900)],
        ]
        serial = [on_fresh_thread(lattice_results, j * 4) for j in jobs]
        barrier = threading.Barrier(len(jobs))
        got = [None] * len(jobs)

        def worker(i):
            barrier.wait()
            got[i] = lattice_results(jobs[i] * 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == serial

    def test_windows_fill_the_spectra_concurrently(self, monkeypatch):
        # one plan; a sample within +-5 transforms at L = 2048, the same with
        # two samples at +-15 at L = 4096.  Two threads fill the plan's
        # per-length spectra at once and must give the serial bits
        n = 5000
        grid = build_grid(n, 10.0, 1)
        narrow = sample_mixture(GAUSS, MixtureParams(0.3, 1.5), n, seed=1)
        wide = narrow.copy()
        wide[:2] = [-15.0, 15.0]
        assert transform_length(GAUSS, narrow, 10.0)[0] == 2048
        assert transform_length(GAUSS, wide, 10.0)[0] == 4096

        def run(samples):
            plan = estimator._grid_plan(GAUSS, grid)
            return [
                (sums.tobytes(), eps)
                for sums, eps in (estimator._lattice_shift_sums(plan, grid, x) for x in samples)
            ]

        jobs = [[narrow, wide] * 4, [wide, narrow] * 4]
        serial = []
        for samples in jobs:
            monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
            serial.append(on_fresh_thread(run, samples))
        monkeypatch.setattr(estimator, "_LATTICE_PLANS", {})
        estimator._grid_plan(GAUSS, grid)  # one plan, no spectra yet
        barrier = threading.Barrier(len(jobs))
        got = [None] * len(jobs)

        def worker(i):
            barrier.wait()
            got[i] = run(jobs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == serial
        assert sorted(estimator._grid_plan(GAUSS, grid).spectra) == [2048, 4096]


@pytest.mark.slow
class TestFullScaleOracle:
    def test_seed42_global_minimum(self):
        # full independent re-scan of the n = 5000, M = 10 grid with the
        # O(n) oracle confirms the fast path's argmin
        data = sample_mixture(GAUSS, MixtureParams(0.25, 2.0), 5000, seed=42)
        res = estimate(GAUSS, data, 10.0)
        grid = build_grid(5000, 10.0, 1)
        best = None
        for i, lam in enumerate(grid.lambda_levels):
            for j in range(grid.mu_levels.shape[0]):
                val = contrast_naive(GAUSS, MixtureParams(lam, grid.mu_levels[j]), data)
                if best is None or val < best[0]:
                    best = (val, i, j)
        assert (res.lambda_index, res.mu_index) == (best[1], best[2])
        assert abs(res.contrast_value - best[0]) < 1e-10


@pytest.mark.slow
class TestConsistencyDeskScale:
    def test_mu_rate_constant(self):
        # 200 replicates at n=8000: mean (lam* mu*)^2 (mu_hat - mu*)^2
        # within C log^2(n)/n for a recorded C <= 50
        n, lam_star, mu_star = 8000, 0.25, 2.0
        theta = MixtureParams(lam_star, mu_star)
        vals = []
        for rep in range(200):
            data = sample_mixture(GAUSS, theta, n, seed=5000 + rep)
            res = estimate(GAUSS, data, 10.0)
            vals.append((lam_star * mu_star) ** 2 * (res.mu_hat[0] - mu_star) ** 2)
        bound = 50.0 * math.log(n) ** 2 / n
        observed = float(np.mean(vals))
        print(f"desk-scale mu-rate constant: {observed / (math.log(n) ** 2 / n):.3f}")
        assert observed <= bound
