import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfc

from contamix import kernels
from contamix.kernels import (
    Kernel,
    cross_inner,
    cross_inner_many,
    mc_inner,
    pdf,
    pdf_many,
    sample,
    self_inner,
)
from contamix.mixture import MixtureParams, mixture_pdf

from conftest import cross_oracle

GAUSS = Kernel("gaussian")
LAPLACE = Kernel("laplace")
CAUCHY = Kernel("cauchy")
SKEW = Kernel("skew_gaussian", alpha=10.0)

# window wide enough for 1e-8 agreement; Cauchy needs a huge one (x^-4 tails)
# and Laplace extra panels (integrand kinks at 0 and mu slow Simpson to ~h^3)
ORACLE_WINDOWS = {"gaussian": 12.0, "laplace": 30.0, "cauchy": 2000.0, "skew_gaussian": 12.0}
ORACLE_PANELS = {"gaussian": 2 ** 15, "laplace": 2 ** 20, "cauchy": 2 ** 21, "skew_gaussian": 2 ** 15}


def oracle_cross(kernel: Kernel, mu: float) -> float:
    return cross_oracle(kernel, mu, ORACLE_PANELS[kernel.family], ORACLE_WINDOWS[kernel.family])


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Kernel("triangular")

    def test_skew_needs_nonzero_alpha(self):
        with pytest.raises(ValueError):
            Kernel("skew_gaussian")
        with pytest.raises(ValueError):
            Kernel("skew_gaussian", alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_skew_needs_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            Kernel("skew_gaussian", alpha=alpha)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            Kernel("gaussian", alpha=2.0)

    def test_dim_only_gaussian(self):
        Kernel("gaussian", dim=3)
        with pytest.raises(ValueError):
            Kernel("laplace", dim=2)

    def test_pdf_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pdf(GAUSS, [1.0, 2.0])
        with pytest.raises(ValueError):
            pdf(Kernel("gaussian", dim=3), [1.0, 2.0])


G2 = Kernel("gaussian", dim=2)
ONE_POINT = {
    "pdf": pdf,
    "cross_inner": cross_inner,
    "mixture_pdf": lambda kernel, x: mixture_pdf(kernel, MixtureParams(0.3, np.full(kernel.dim, 0.5)), x),
}


class TestPointRule:
    """pdf, cross_inner and mixture_pdf take a point or shift by one rule."""

    @pytest.mark.parametrize("call", ONE_POINT)
    @pytest.mark.parametrize("kernel", [GAUSS, SKEW], ids=["gaussian", "skew"])
    def test_any_single_value_in_dim_1(self, call, kernel):
        f = ONE_POINT[call]
        want = f(kernel, 0.7)
        for x in (np.array(0.7), np.array([0.7]), np.array([[0.7]]), [0.7]):
            assert f(kernel, x) == want

    @pytest.mark.parametrize("call", ONE_POINT)
    def test_vector_in_dim_2(self, call):
        f = ONE_POINT[call]
        assert f(G2, np.array([0.3, -0.4])) == f(G2, [0.3, -0.4]) > 0.0

    @pytest.mark.parametrize("call", ONE_POINT)
    @pytest.mark.parametrize(
        "kernel, x", [(GAUSS, [0.1, 0.2]), (G2, 0.5), (G2, [0.1, 0.2, 0.3])], ids=["d1-(2,)", "d2-()", "d2-(3,)"]
    )
    def test_others_refused_with_one_message(self, call, kernel, x):
        with pytest.raises(ValueError, match=r"^a point or shift of shape \(.*\) does not fit kernel dim \d$"):
            ONE_POINT[call](kernel, x)


class TestPdf:
    def test_gaussian_at_zero(self):
        assert pdf(GAUSS, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_laplace_at_zero(self):
        assert pdf(LAPLACE, 0.0) == 0.5

    def test_cauchy_at_zero(self):
        assert pdf(CAUCHY, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_gaussian_product_density(self):
        k3 = Kernel("gaussian", dim=3)
        x = np.array([0.3, -1.2, 0.7])
        expected = np.prod([pdf(GAUSS, v) for v in x])
        assert pdf(k3, x) == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one(self, any_kernel):
        total, err = integrate.quad(lambda x: pdf(any_kernel, x), -np.inf, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-6


class TestSelfInner:
    def test_gaussian(self):
        assert self_inner(GAUSS) == pytest.approx((4 * math.pi) ** -0.5, abs=1e-15)

    def test_laplace(self):
        assert self_inner(LAPLACE) == 0.25

    def test_cauchy(self):
        assert self_inner(CAUCHY) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)

    def test_matches_cross_at_zero(self, any_kernel):
        assert abs(cross_inner(any_kernel, 0.0) - self_inner(any_kernel)) < 1e-14


class TestCrossInner:
    def test_gaussian_known_value(self):
        assert cross_inner(GAUSS, 2.0) == pytest.approx((4 * math.pi) ** -0.5 * math.exp(-1.0), abs=1e-12)

    def test_laplace_known_value(self):
        assert cross_inner(LAPLACE, 1.0) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)

    def test_cauchy_known_value(self):
        assert cross_inner(CAUCHY, 2.0) == pytest.approx(1.0 / (4 * math.pi), abs=1e-12)

    def test_closed_forms_match_quadrature(self, closed_form_kernel):
        for mu in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert abs(cross_inner(closed_form_kernel, mu) - oracle_cross(closed_form_kernel, mu)) < 1e-8

    def test_gaussian_dim3(self):
        k3 = Kernel("gaussian", dim=3)
        mu = np.array([1.0, -2.0, 0.5])
        expected = (4 * math.pi) ** -1.5 * math.exp(-float(mu @ mu) / 4.0)
        assert cross_inner(k3, mu) == pytest.approx(expected, rel=1e-14)

    def test_skew_matches_mc_oracle(self):
        est, se = mc_inner(SKEW, 1.0, 10 ** 7, seed=20260809)
        assert abs(cross_inner(SKEW, 1.0) - est) < 3.0 * se

    def test_symmetry(self, any_kernel):
        # the autocorrelation of any density is even in the shift
        for mu in (0.25, 1.0, 3.0):
            assert cross_inner(any_kernel, mu) == pytest.approx(cross_inner(any_kernel, -mu), rel=1e-12)

    def test_cauchy_schwarz_strict(self, any_kernel):
        s = self_inner(any_kernel)
        for mu in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert abs(cross_inner(any_kernel, mu)) < s

    def test_decay_at_50(self):
        s_g = self_inner(GAUSS)
        assert cross_inner(GAUSS, 50.0) < 1e-6 * s_g
        assert cross_inner(LAPLACE, 50.0) < 1e-6 * self_inner(LAPLACE)
        assert cross_inner(CAUCHY, 50.0) < 1e-2 * self_inner(CAUCHY)

    def test_cross_inner_many_matches_scalar(self, any_kernel):
        mus = np.array([-2.0, -0.5, 0.3, 1.7])
        many = cross_inner_many(any_kernel, mus)
        for m, v in zip(mus, many):
            assert v == pytest.approx(cross_inner(any_kernel, m), rel=1e-14)
        # a 2-d array of shifts keeps its shape and its values, for every family
        grid = np.array([[-2.0, -0.5, 0.3], [1.7, 0.3, -2.0]])
        many = cross_inner_many(any_kernel, grid)
        assert many.shape == grid.shape
        for m, v in zip(grid.reshape(-1), many.reshape(-1)):
            assert v == pytest.approx(cross_inner(any_kernel, m), rel=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_self_inner(self, mu):
        assert cross_inner(GAUSS, mu) <= self_inner(GAUSS) + 1e-15


class TestMemo:
    def test_threads_fill_each_key_once(self):
        # more threads than cores and a short switch interval, so a
        # check-then-fill race shows as a repeated fill or a crossed value
        store, fills, bad = {}, [], []

        def fill_for(key):
            def fill():
                fills.append(key)
                time.sleep(0.001)  # slow, as a grid fill is
                return ("value", key)
            return fill

        def worker(seed):
            for key in np.random.default_rng(seed).permutation(64).tolist():
                got = kernels.memo(store, key, fill_for(key), 64)
                if got != ("value", key):
                    bad.append((key, got))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert bad == []
        assert sorted(fills) == list(range(64))
        assert len(store) == 64


class TestSkewMemo:
    def test_bounded_and_evicted_shift_refills_same_bits(self, monkeypatch):
        monkeypatch.setattr(kernels, "_SKEW_CACHE", {})
        monkeypatch.setattr(kernels, "_SKEW_LIMIT", 8)
        shifts = [0.1 * (j + 1) for j in range(20)]
        first = []
        for mu in shifts:
            first.append(cross_inner(SKEW, mu))
            assert len(kernels._SKEW_CACHE) <= 8
        assert len(kernels._SKEW_CACHE) == 8
        assert all(key[1] != shifts[0] for key in kernels._SKEW_CACHE)  # evicted first
        again = cross_inner(SKEW, shifts[0])
        assert np.float64(again).tobytes() == np.float64(first[0]).tobytes()
        assert len(kernels._SKEW_CACHE) == 8

    def test_many_looks_up_each_distinct_shift_once(self, monkeypatch):
        shifts = np.array([[0.5, -1.25, 0.5, 3.0], [2.0, 0.5, -1.25, 0.5], [-1.25, 2.0, 0.0, 3.0]])
        monkeypatch.setattr(kernels, "_SKEW_CACHE", {})
        expected = np.array([cross_inner(SKEW, m) for m in shifts.reshape(-1)]).reshape(shifts.shape)
        monkeypatch.setattr(kernels, "_SKEW_CACHE", {})
        lookups, fills = [], []
        real_lookup, real_fill = kernels.cross_inner, kernels._skew_cross_quadrature
        monkeypatch.setattr(kernels, "cross_inner", lambda k, m: lookups.append(m) or real_lookup(k, m))
        monkeypatch.setattr(kernels, "_skew_cross_quadrature", lambda k, m: fills.append(m) or real_fill(k, m))
        got = cross_inner_many(SKEW, shifts)
        assert got.shape == shifts.shape
        assert got.tobytes() == expected.tobytes()
        distinct = sorted(set(shifts.reshape(-1).tolist()))
        assert sorted(lookups) == sorted(fills) == distinct


class TestMcInner:
    def test_gaussian_zero_shift(self):
        est, se = mc_inner(GAUSS, 0.0, 10 ** 6, seed=3)
        assert abs(est - (4 * math.pi) ** -0.5) < 4.0 * se

    def test_single_draw(self, any_kernel):
        est, se = mc_inner(any_kernel, 0.7, 1, seed=5)
        x1 = sample(any_kernel, 1, seed=5)[0]
        assert est == pytest.approx(pdf(any_kernel, x1 - 0.7), rel=1e-14)
        assert math.isnan(se)

    def test_deterministic(self):
        assert mc_inner(SKEW, 0.5, 1000, seed=11) == mc_inner(SKEW, 0.5, 1000, seed=11)

    @pytest.mark.parametrize("draws", [1000, kernels._MC_CHUNK, 3 * kernels._MC_CHUNK + 5])
    def test_streamed_draws_repeat_one_draw(self, any_kernel, draws):
        # one chunk gives the single-array mean and standard error bit for
        # bit; more chunks change only the summation order
        vals = pdf_many(any_kernel, sample(any_kernel, draws, seed=4) - 0.7)
        est, se = mc_inner(any_kernel, 0.7, draws, seed=4)
        ref_est, ref_se = float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(draws))
        if draws <= kernels._MC_CHUNK:
            assert (est, se) == (ref_est, ref_se)
        else:
            assert est == pytest.approx(ref_est, rel=1e-13)
            assert se == pytest.approx(ref_se, rel=1e-10)

    def test_memory_bounded(self):
        # a single array of 2e6 skew draws and its temporaries peak near 76 MB
        tracemalloc.start()
        try:
            mc_inner(SKEW, 0.5, 2 * 10 ** 6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestSample:
    def test_empty(self, any_kernel):
        assert sample(any_kernel, 0, seed=1).shape[0] == 0

    def test_deterministic(self, any_kernel):
        a = sample(any_kernel, 100, seed=9)
        b = sample(any_kernel, 100, seed=9)
        assert np.array_equal(a, b)

    def test_cauchy_median(self):
        x = sample(CAUCHY, 10 ** 5, seed=2)
        assert abs(np.median(x)) < 0.02

    def test_laplace_moments(self):
        x = sample(LAPLACE, 10 ** 5, seed=4)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 2.0) < 0.1

    def test_skew_mean(self):
        # E X = delta sqrt(2/pi) under the |Z1|-representation
        x = sample(SKEW, 10 ** 5, seed=6)
        delta = 10.0 / math.sqrt(101.0)
        assert x.mean() == pytest.approx(delta * math.sqrt(2 / math.pi), abs=0.02)

    # up to the largest alpha whose square is finite, and past it
    @pytest.mark.parametrize(
        "alpha", [0.5, -1e3, 1e9, -1e154, 1.3407807929942596e154, -1.3407807929942596e154, 1.35e154, -1e200, 1e308]
    )
    def test_skew_delta_for_any_finite_alpha(self, alpha):
        # delta = alpha / sqrt(1 + alpha^2) wherever alpha^2 is finite, and
        # its limit sign(alpha) past that
        z = np.random.default_rng(6).standard_normal((50, 2))
        if abs(alpha) <= 1.3407807929942596e154:
            delta = alpha / math.sqrt(1.0 + alpha ** 2)
        else:
            delta = math.copysign(1.0, alpha)
        want = delta * np.abs(z[:, 0]) + math.sqrt(1.0 - delta ** 2) * z[:, 1]
        assert sample(Kernel("skew_gaussian", alpha=alpha), 50, seed=6).tobytes() == want.tobytes()

    def test_gaussian_dim(self):
        x = sample(Kernel("gaussian", dim=3), 50, seed=8)
        assert x.shape == (50, 3)


class TestQuadratureDefaults:
    def test_skew_quadrature_converged(self):
        # an independent rule with twice the panels agrees to far below 1e-8
        assert abs(cross_inner(SKEW, 1.3) - cross_oracle(SKEW, 1.3, 2 ** 15)) < 1e-8

    def test_tail_mass_below_tolerance(self):
        # the Simpson window leaves less than 1e-12 of the skew density's mass
        width = kernels.SIMPSON_HALF_WIDTH
        tail, _ = integrate.quad(lambda x: pdf(SKEW, x), width, np.inf)
        tail_lo, _ = integrate.quad(lambda x: pdf(SKEW, x), -np.inf, -width)
        assert tail + tail_lo < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.sampled_from([10.0, -0.5]), mu=st.floats(-40.0, 40.0))
    def test_in_place_rule_has_the_linspace_bits(self, alpha, mu):
        lo, hi = min(0.0, mu) - kernels.SIMPSON_HALF_WIDTH, max(0.0, mu) + kernels.SIMPSON_HALF_WIDTH
        xs = np.linspace(lo, hi, kernels.SIMPSON_PANELS + 1)

        def density(x):
            return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi) * erfc(-alpha * x / math.sqrt(2.0))

        w = np.ones(xs.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        v, k = density(xs) * density(xs - mu), (xs.size + 1) // 2
        want = float((np.dot(w[:k], v[:k]) + np.dot(w[k:], v[k:])) * ((hi - lo) / kernels.SIMPSON_PANELS / 3.0))
        assert kernels._skew_cross_quadrature(Kernel("skew_gaussian", alpha), mu) == want

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        shifts = [-7.3, -0.4, 0.0, 1.3, 2.0, 9.1]
        code = (
            "from contamix import kernels; "
            f"print([kernels._skew_cross_quadrature(kernels.Kernel('skew_gaussian', 10.0), m) for m in {shifts}])"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=600
        )
        assert proc.stdout.strip() == repr([kernels._skew_cross_quadrature(SKEW, m) for m in shifts])

    def test_fill_allocates_no_array(self):
        kernels._skew_cross_quadrature(SKEW, 0.5)  # builds the rule's arrays
        tracemalloc.start()
        try:
            kernels._skew_cross_quadrature(SKEW, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (kernels.SIMPSON_PANELS + 1) // 4  # under a quarter of one node array


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestErfcSaturation:
    """The skew pdf of a sorted array sets erfc's saturated ends without
    calling erfc; its bits must equal the plain erfc evaluation's."""

    def test_erfc_is_exactly_two_and_zero_past_the_thresholds(self):
        # a dense sweep next to each threshold, then out to the float range
        low = np.concatenate([
            -6.0 - np.arange(1, 400_001) * 1e-5,
            -np.geomspace(10.0, 1e308, 2000),
            [np.nextafter(kernels.ERFC_TWO_BELOW, -np.inf), -np.inf],
        ])
        high = np.concatenate([
            27.5 + np.arange(1, 400_001) * 1e-5,
            np.geomspace(32.0, 1e308, 2000),
            [np.nextafter(kernels.ERFC_ZERO_ABOVE, np.inf), np.inf],
        ])
        assert np.all(low < kernels.ERFC_TWO_BELOW) and np.all(high > kernels.ERFC_ZERO_ABOVE)
        assert np.all(_bits(erfc(low)) == _bits(2.0))
        assert np.all(_bits(erfc(high)) == _bits(0.0))  # +0.0, not -0.0

    SHIFTS = st.one_of(
        st.floats(-40.0, 40.0),
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    )
    ALPHAS = st.sampled_from([10.0, -10.0, 0.5, -0.5, 1e3, -1e3, 1e-3])

    @settings(max_examples=80, deadline=None)
    @given(alpha=ALPHAS, mu=SHIFTS)
    def test_rule_has_the_plain_erfc_bits(self, alpha, mu):
        kernel = Kernel("skew_gaussian", alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # invalid operations at mu = +-inf, nan
            got = kernels._skew_cross_quadrature(kernel, mu)
            with mock.patch.object(kernels, "_erfc_monotone", lambda t: erfc(t, out=t)):
                want = kernels._skew_cross_quadrature(kernel, mu)
        assert _bits(got) == _bits(want)

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=ALPHAS,
        # +-1 and +-20 hold the saturation thresholds at |alpha| = 10 and 0.5
        x=st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(-20.0, 20.0), SHIFTS), min_size=1, max_size=60),
    )
    def test_sorted_pdf_has_the_plain_erfc_bits(self, alpha, x):
        x = np.sort(np.array(x, dtype=float))
        got = kernels._skew_pdf(alpha, x, np.empty(x.shape), np.empty(x.shape), ascending=True)
        want = kernels._skew_pdf(alpha, x, np.empty(x.shape), np.empty(x.shape))
        assert np.all(_bits(got) == _bits(want))

    @pytest.mark.parametrize("alpha", [10.0, -10.0, 0.5, -0.5, 1e3, -1e3, 1e-3])
    def test_dense_sorted_pdf_has_the_plain_erfc_bits(self, alpha):
        x = np.linspace(-60.0, 60.0, 240_001)
        got = kernels._skew_pdf(alpha, x, np.empty(x.shape), np.empty(x.shape), ascending=True)
        want = kernels._skew_pdf(alpha, x, np.empty(x.shape), np.empty(x.shape))
        assert np.all(_bits(got) == _bits(want))

    def test_rule_calls_erfc_on_the_unsaturated_middle_only(self, monkeypatch):
        sizes = []

        def counting_erfc(t, out):
            sizes.append(t.size)
            return erfc(t, out=out)

        monkeypatch.setattr(kernels, "erfc", counting_erfc)
        kernels._skew_cross_quadrature(SKEW, 0.7)
        assert len(sizes) == 2 and max(sizes) < (kernels.SIMPSON_PANELS + 1) // 3


class TestOverflow:
    # alpha x or x^2 overflowing to +-inf gives the density's limit
    @pytest.mark.parametrize(
        "alpha, x, want",
        [
            (10.0, 1e308, 0.0),
            (10.0, -1e308, 0.0),
            (-10.0, 1e308, 0.0),
            (1e308, -3.0, 0.0),
            (1e308, 3.0, 2.0 * math.exp(-4.5) / math.sqrt(2.0 * math.pi)),
        ],
    )
    def test_pdf_takes_the_limit_without_a_warning(self, alpha, x, want):
        kernel = Kernel("skew_gaussian", alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pdf(kernel, x) == pytest.approx(want, rel=1e-15)
            assert np.all(pdf_many(kernel, [x, x]) == pdf(kernel, x))

    @pytest.mark.parametrize("kernel", [GAUSS, CAUCHY, Kernel("gaussian", dim=2)], ids=str)
    def test_squares_past_the_float_range_give_zero_without_a_warning(self, kernel):
        # x^2 overflows to inf, whose density is the limit 0
        x = np.array([1e200, -1e200])
        if kernel.dim > 1:
            x = np.array([[1e200, 0.0], [0.0, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(pdf_many(kernel, x) == 0.0)

    @pytest.mark.parametrize("mu", [1e308, -1e308])
    def test_cross_inner_at_a_huge_shift_is_zero_without_a_warning(self, mu):
        kernels._SKEW_CACHE.pop((10.0, mu), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cross_inner(SKEW, mu) == 0.0

    def test_cli_prints_no_warning_under_w_error(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        stdout = {}
        for argv in (
            ["inner-product", "--kernel", "skew_gaussian", "--alpha", "10", "--mu", "1e308"],
            ["certify", "--kernel", "skew_gaussian", "--alpha", "1e308", "--check", "kappa"],
        ):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "contamix.cli", *argv],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            stdout[argv[0]] = proc.stdout
        assert stdout["inner-product"] == "inner_product=0.0\n"
