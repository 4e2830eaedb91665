import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from contamix.kernels import Kernel, pdf, self_inner
from contamix.mixture import (
    MixtureParams,
    l2_distance_sq,
    l2_distance_sq_many,
    mixture_l2_norm_sq,
    mixture_pdf,
    mixture_pdf_many,
    sample_mixture,
)

from conftest import EDGE_PAIRS, INVALID_PARAMS, random_pairs, simpson_oracle

GAUSS = Kernel("gaussian")

lam_st = st.floats(min_value=0.05, max_value=1.0)
mu_st = st.floats(min_value=-5.0, max_value=5.0).filter(lambda m: abs(m) > 0.05)


# per-family oracle settings: Cauchy needs a huge window (x^-4 tails of f^2),
# Laplace extra panels because of the kinks at 0 and mu
NORM_ORACLE = {
    "gaussian": (20.0, 2 ** 15),
    "laplace": (40.0, 2 ** 20),
    "cauchy": (2000.0, 2 ** 21),
    "skew_gaussian": (20.0, 2 ** 15),
}


def oracle_norm_sq(kernel, theta):
    L, panels = NORM_ORACLE[kernel.family]
    lo = min(0.0, float(theta.mu[0])) - L
    hi = max(0.0, float(theta.mu[0])) + L
    return simpson_oracle(lambda xs: mixture_pdf_many(kernel, theta, xs) ** 2, lo, hi, panels)


class TestParams:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            MixtureParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            MixtureParams(1.2, 1.0)
        MixtureParams(0.0, 1.0)  # evaluation tolerates the endpoints
        MixtureParams(1.0, 1.0)

    def test_mu_finite(self):
        with pytest.raises(ValueError):
            MixtureParams(0.5, math.inf)


class TestPdf:
    def test_no_contamination(self):
        theta = MixtureParams(0.0, 3.0)
        for x in (-1.0, 0.0, 2.5):
            assert mixture_pdf(GAUSS, theta, x) == pytest.approx(pdf(GAUSS, x), rel=1e-14)

    def test_pure_contamination(self):
        theta = MixtureParams(1.0, 3.0)
        for x in (-1.0, 0.0, 2.5):
            assert mixture_pdf(GAUSS, theta, x) == pytest.approx(pdf(GAUSS, x - 3.0), rel=1e-14)

    def test_zero_shift_collapses(self):
        theta = MixtureParams(0.5, 0.0)
        for x in (-2.0, 0.3):
            assert mixture_pdf(GAUSS, theta, x) == pytest.approx(pdf(GAUSS, x), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixture_pdf(GAUSS, MixtureParams(0.5, [1.0, 2.0]), 0.0)


class TestNormSq:
    def test_pure_component_translation_invariant(self):
        for mu in (0.5, 3.0, 50.0):
            assert mixture_l2_norm_sq(GAUSS, MixtureParams(1.0, mu)) == pytest.approx(
                self_inner(GAUSS), rel=1e-14
            )

    def test_zero_shift(self):
        assert mixture_l2_norm_sq(GAUSS, MixtureParams(0.5, 0.0)) == pytest.approx(
            self_inner(GAUSS), rel=1e-14
        )

    def test_distant_shift_halves_norm(self):
        val = mixture_l2_norm_sq(GAUSS, MixtureParams(0.5, 50.0))
        assert abs(val - 0.5 * self_inner(GAUSS)) < 1e-6
        theta = MixtureParams(0.5, 50.0)
        assert abs(val - oracle_norm_sq(GAUSS, theta)) < 1e-8

    def test_matches_quadrature(self, any_kernel):
        theta = MixtureParams(0.35, 1.7)
        assert abs(mixture_l2_norm_sq(any_kernel, theta) - oracle_norm_sq(any_kernel, theta)) < 1e-7


class TestDistance:
    def test_identical_is_zero(self, any_kernel):
        theta = MixtureParams(0.4, 1.2)
        assert l2_distance_sq(any_kernel, theta, theta) == 0.0

    def test_pure_location_identity(self, any_kernel):
        from contamix.kernels import cross_inner

        t1 = MixtureParams(1.0, 0.7)
        t2 = MixtureParams(1.0, 2.1)
        expected = 2.0 * (self_inner(any_kernel) - cross_inner(any_kernel, 0.7 - 2.1))
        assert l2_distance_sq(any_kernel, t1, t2) == pytest.approx(expected, rel=1e-12)

    def test_matches_quadrature(self):
        # a distant pair, and a close one whose squared distance is only about 1.3e-4
        t1 = MixtureParams(0.3, 1.0)
        for t2 in (MixtureParams(0.6, 2.0), MixtureParams(0.3, 1.1)):
            oracle = simpson_oracle(
                lambda xs: (mixture_pdf_many(GAUSS, t1, xs) - mixture_pdf_many(GAUSS, t2, xs)) ** 2,
                -20.0, 22.0, 2 ** 15,
            )
            assert l2_distance_sq(GAUSS, t1, t2) == pytest.approx(oracle, rel=1e-7, abs=0.0)

    @given(lam_st, mu_st, lam_st, mu_st)
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, l1, m1, l2, m2):
        t1, t2 = MixtureParams(l1, m1), MixtureParams(l2, m2)
        assert l2_distance_sq(GAUSS, t1, t2) == l2_distance_sq(GAUSS, t2, t1)

    def test_identifiability_positive(self, any_kernel):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            l1, l2 = rng.uniform(0.1, 1.0, size=2)
            m1, m2 = rng.uniform(0.25, 5.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            if abs(l1 - l2) < 1e-3 and abs(m1 - m2) < 1e-3:
                continue
            d = l2_distance_sq(any_kernel, MixtureParams(l1, m1), MixtureParams(l2, m2))
            assert d > 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            ts = [MixtureParams(rng.uniform(0.05, 1.0), rng.uniform(-4.0, 4.0)) for _ in range(3)]
            d01 = math.sqrt(l2_distance_sq(GAUSS, ts[0], ts[1]))
            d12 = math.sqrt(l2_distance_sq(GAUSS, ts[1], ts[2]))
            d02 = math.sqrt(l2_distance_sq(GAUSS, ts[0], ts[2]))
            assert d02 <= d01 + d12 + 1e-10

    def test_dim3(self):
        k3 = Kernel("gaussian", dim=3)
        t1 = MixtureParams(0.3, [1.0, 0.0, -1.0])
        t2 = MixtureParams(0.3, [1.0, 0.0, -1.0])
        assert l2_distance_sq(k3, t1, t2) == 0.0
        t3 = MixtureParams(0.6, [0.5, 0.5, 0.5])
        assert l2_distance_sq(k3, t1, t3) > 0.0


def scalar_distances(kernel, l1, m1, l2, m2) -> np.ndarray:
    pairs = zip(l1.tolist(), m1.tolist(), l2.tolist(), m2.tolist())
    return np.array([l2_distance_sq(kernel, MixtureParams(a, b), MixtureParams(c, d)) for a, b, c, d in pairs])


class TestDistanceArrays:
    """``l2_distance_sq_many`` has the scalar function's bits on every pair."""

    @pytest.mark.parametrize("pairs", ["random", "edges"])
    def test_matches_scalar_bitwise_in_either_order(self, any_kernel, pairs):
        l1, m1, l2, m2 = random_pairs(20261019) if pairs == "random" else np.array(EDGE_PAIRS).T
        expected = scalar_distances(any_kernel, l1, m1, l2, m2)
        assert l2_distance_sq_many(any_kernel, l1, m1, l2, m2).tobytes() == expected.tobytes()
        assert l2_distance_sq_many(any_kernel, l2, m2, l1, m1).tobytes() == expected.tobytes()

    def test_broadcasts_to_the_arguments_shape(self):
        mus = np.array([[0.5, 1.0, 2.0], [-1.0, 0.0, 3.0]])
        got = l2_distance_sq_many(GAUSS, 0.3, mus, np.full((2, 3), 0.6), -0.4)
        assert got.shape == (2, 3)
        lam1 = np.full(6, 0.3)
        expected = scalar_distances(GAUSS, lam1, mus.ravel(), np.full(6, 0.6), np.full(6, -0.4))
        assert got.ravel().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lam, mu", INVALID_PARAMS)
    def test_refuses_what_mixture_params_refuses(self, lam, mu):
        with pytest.raises(ValueError) as refused:
            MixtureParams(lam, mu)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            l2_distance_sq_many(GAUSS, [0.2, lam], [1.0, mu], 0.5, 0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            l2_distance_sq_many(GAUSS, 0.5, 0.5, [0.2, lam], [1.0, mu])

    def test_refuses_dim_above_one(self):
        with pytest.raises(ValueError, match="defined for d = 1"):
            l2_distance_sq_many(Kernel("gaussian", dim=2), 0.2, 1.0, 0.5, 0.5)


class TestInfiniteShift:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shift_difference_past_the_float_range(self, any_kernel):
        # mu1 - mu2 is -inf, whose inner product is every family's limit 0, as
        # are those at +-1e308: (a^2 + lam1^2 + lam2^2) ||phi||^2 remains
        got = l2_distance_sq(any_kernel, MixtureParams(0.5, 1e308), MixtureParams(0.4, -1e308))
        many = l2_distance_sq_many(any_kernel, [0.5, 0.4], [1e308, -1e308], [0.4, 0.5], [-1e308, 1e308])
        assert got == pytest.approx(0.42 * self_inner(any_kernel), rel=1e-14)
        assert many.tobytes() == np.array([got, got]).tobytes()


class TestSampling:
    def test_empty(self, any_kernel):
        assert sample_mixture(any_kernel, MixtureParams(0.5, 1.0), 0, seed=1).shape[0] == 0

    def test_deterministic(self, any_kernel):
        theta = MixtureParams(0.25, 2.0)
        a = sample_mixture(any_kernel, theta, 500, seed=3)
        b = sample_mixture(any_kernel, theta, 500, seed=3)
        assert np.array_equal(a, b)

    def test_shifted_normal_mean(self):
        x = sample_mixture(GAUSS, MixtureParams(1.0, 5.0), 10 ** 5, seed=5)
        assert abs(x.mean() - 5.0) < 0.02

    def test_mixture_cdf_fraction(self):
        # P(X > 2) for lam=0.25, mu=4: shifted component needs Z > -2,
        # the baseline needs Z > 2
        x = sample_mixture(GAUSS, MixtureParams(0.25, 4.0), 10 ** 5, seed=6)
        expected = 0.25 * norm.cdf(2.0) + 0.75 * (1.0 - norm.cdf(2.0))
        assert abs(np.mean(x > 2.0) - expected) < 0.01

    def test_dim3_shift(self):
        k3 = Kernel("gaussian", dim=3)
        mu = np.array([2.0, -1.0, 0.5])
        x = sample_mixture(k3, MixtureParams(1.0, mu), 20000, seed=8)
        assert np.allclose(x.mean(axis=0), mu, atol=0.05)
