import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contamix.metrics import (
    MixingDistribution,
    transport_oracle,
    w1,
    w2_squared,
    w2_squared_many,
)
from contamix.mixture import MixtureParams

from conftest import EDGE_PAIRS, INVALID_PARAMS, random_pairs

lam_st = st.floats(min_value=0.0, max_value=1.0)
mu_st = st.floats(min_value=-5.0, max_value=5.0)


def G(lam, mu):
    return MixingDistribution(lam, mu)


class TestClosedFormExamples:
    def test_identical_zero(self):
        g = G(0.4, 1.7)
        assert w2_squared(g, g) == 0.0
        assert w1(g, g) == 0.0
        assert transport_oracle(g, g, 1) == 0.0
        assert transport_oracle(g, g, 2) == 0.0

    def test_w2_case_b(self):
        # both shifted atoms prefer the origin, total shifted mass <= 1
        assert w2_squared(G(0.2, -1.0), G(0.3, 1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_w2_case_c(self):
        assert w2_squared(G(0.8, -1.0), G(0.9, 1.0)) == pytest.approx(3.1, abs=1e-14)

    def test_w2_case_a(self):
        assert w2_squared(G(0.2, 1.0), G(0.5, 1.5)) == pytest.approx(0.725, abs=1e-14)

    def test_w1_equal_weights(self):
        assert w1(G(0.5, 1.0), G(0.5, 3.0)) == pytest.approx(1.0, abs=1e-14)

    def test_w1_example(self):
        assert w1(G(0.2, 1.0), G(0.5, 2.0)) == pytest.approx(0.8, abs=1e-14)

    def test_examples_match_oracle(self):
        for a, b in [
            (G(0.2, -1.0), G(0.3, 1.0)),
            (G(0.8, -1.0), G(0.9, 1.0)),
            (G(0.2, 1.0), G(0.5, 1.5)),
        ]:
            assert w2_squared(a, b) == pytest.approx(transport_oracle(a, b, 2), abs=1e-14)
        assert w1(G(0.2, 1.0), G(0.5, 2.0)) == pytest.approx(
            transport_oracle(G(0.2, 1.0), G(0.5, 2.0), 1), abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            w2_squared(G(0.5, [1.0, 2.0]), G(0.5, 1.0))


class TestOracleEquivalence:
    @given(lam_st, mu_st, lam_st, mu_st)
    @settings(max_examples=300, deadline=None)
    def test_w2_matches_oracle(self, l1, m1, l2, m2):
        g1, g2 = G(l1, m1), G(l2, m2)
        assert abs(w2_squared(g1, g2) - transport_oracle(g1, g2, 2)) <= 1e-12

    @given(lam_st, mu_st, lam_st, mu_st)
    @settings(max_examples=300, deadline=None)
    def test_w1_matches_oracle(self, l1, m1, l2, m2):
        g1, g2 = G(l1, m1), G(l2, m2)
        assert abs(w1(g1, g2) - transport_oracle(g1, g2, 1)) <= 1e-12

    @given(lam_st, mu_st, lam_st, mu_st)
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_order(self, l1, m1, l2, m2):
        g1, g2 = G(l1, m1), G(l2, m2)
        assert w2_squared(g1, g2) == w2_squared(g2, g1)
        assert w1(g1, g2) == w1(g2, g1)
        assert w1(g1, g2) <= math.sqrt(w2_squared(g1, g2)) + 1e-12

    def test_interior_scan_never_beats_endpoints(self):
        # affine objective: a fine scan over interior q22 cannot undercut the
        # endpoint minimum
        rng = np.random.default_rng(20260809)
        for _ in range(100):
            l1, l2 = rng.uniform(0.0, 1.0, size=2)
            m1, m2 = rng.uniform(-5.0, 5.0, size=2)
            a, b = (G(l1, m1), G(l2, m2)) if l1 <= l2 else (G(l2, m2), G(l1, m1))
            lo = max(a.lam + b.lam - 1.0, 0.0)
            hi = a.lam
            qs = np.linspace(lo, hi, 10 ** 4)
            nu, nv = a.mu[0] ** 2, b.mu[0] ** 2
            nw = (a.mu[0] - b.mu[0]) ** 2
            costs = (b.lam - qs) * nv + (a.lam - qs) * nu + qs * nw
            assert transport_oracle(a, b, 2) <= float(costs.min()) + 1e-12

    def test_vanishes_iff_measures_coincide(self):
        # equal parameters, both weights zero, and the lam>0 mu=0 degeneracies
        for a, b in [
            (G(0.3, 2.0), G(0.3, 2.0)),
            (G(0.0, 1.0), G(0.0, -3.0)),
            (G(0.0, 1.0), G(0.5, 0.0)),
            (G(0.4, 0.0), G(0.7, 0.0)),
        ]:
            assert transport_oracle(a, b, 2) == 0.0
            assert w2_squared(a, b) == 0.0
            assert w1(a, b) == 0.0
        for a, b in [
            (G(0.3, 2.0), G(0.3, 2.5)),
            (G(0.3, 2.0), G(0.4, 2.0)),
            (G(0.0, 1.0), G(0.5, 1.0)),
        ]:
            assert w2_squared(a, b) > 0.0
            assert w1(a, b) > 0.0

    def test_dim3(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g1 = G(rng.uniform(), rng.uniform(-5, 5, size=3))
            g2 = G(rng.uniform(), rng.uniform(-5, 5, size=3))
            assert abs(w2_squared(g1, g2) - transport_oracle(g1, g2, 2)) <= 1e-12
            assert abs(w1(g1, g2) - transport_oracle(g1, g2, 1)) <= 1e-12


class TestW2Arrays:
    """``w2_squared_many`` has the scalar function's bits on every pair."""

    @pytest.mark.parametrize("pairs", ["random", "edges"])
    def test_matches_scalar_bitwise_in_either_order(self, pairs):
        l1, m1, l2, m2 = random_pairs(20261020) if pairs == "random" else np.array(EDGE_PAIRS).T
        expected = np.array(
            [w2_squared(G(a, b), G(c, d)) for a, b, c, d in zip(l1.tolist(), m1.tolist(), l2.tolist(), m2.tolist())]
        )
        assert w2_squared_many(l1, m1, l2, m2).tobytes() == expected.tobytes()
        assert w2_squared_many(l2, m2, l1, m1).tobytes() == expected.tobytes()

    def test_random_pairs_reach_every_case(self):
        # the W2 closed form's three cases, by the scalar rule of w2_squared
        l1, m1, l2, m2 = random_pairs(20261020)
        first = m1 * m1 + m2 * m2 >= (m1 - m2) * (m1 - m2)
        heavy = l1 + l2 > 1.0
        assert np.any(first) and np.any(~first & ~heavy) and np.any(~first & heavy)

    def test_broadcasts_to_the_arguments_shape(self):
        got = w2_squared_many(0.3, np.array([[0.5, -1.0], [2.0, 0.0]]), 0.8, -0.4)
        assert got.shape == (2, 2)
        assert got[1, 0] == w2_squared(G(0.3, 2.0), G(0.8, -0.4))

    @pytest.mark.parametrize("lam, mu", INVALID_PARAMS)
    def test_refuses_what_mixture_params_refuses(self, lam, mu):
        with pytest.raises(ValueError) as refused:
            MixtureParams(lam, mu)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            w2_squared_many([0.2, lam], [1.0, mu], 0.5, 0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            w2_squared_many(0.5, 0.5, [0.2, lam], [1.0, mu])
