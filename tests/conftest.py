import numpy as np
import pytest

from contamix.kernels import Kernel, pdf_many


@pytest.fixture(params=["gaussian", "laplace", "cauchy", "skew_gaussian"])
def any_kernel(request) -> Kernel:
    if request.param == "skew_gaussian":
        return Kernel("skew_gaussian", alpha=10.0)
    return Kernel(request.param)


# (lam1, mu1, lam2, mu2) pairs on the edges of the array forms of
# ``l2_distance_sq`` and ``w2_squared``: equal lam with mu in either order (the
# canonical swap), equal mu, lam at 0 and 1, one mu at 0 (u + v = w, the W2
# case boundary in d = 1), lam + lam' = 1, identical parameters
EDGE_PAIRS = [
    (0.4, 1.3, 0.4, -0.7),
    (0.4, -0.7, 0.4, 1.3),
    (0.4, 2.0, 0.4, 2.0 + 1e-9),
    (0.2, 1.1, 0.7, 1.1),
    (0.7, -1.1, 0.2, -1.1),
    (0.0, 1.5, 0.6, -2.0),
    (1.0, 1.5, 0.6, -2.0),
    (0.0, -0.3, 1.0, 0.8),
    (0.5, 0.0, 0.8, 1.7),
    (0.8, 1.7, 0.5, 0.0),
    (0.3, -1.2, 0.7, 0.9),
    (0.7, 0.9, 0.3, -1.2),
    (0.25, 2.0, 0.75, -0.5),
    (0.6, 1.4, 0.6, 1.4),
]


# (lam, mu) values ``MixtureParams`` refuses, and so must the array forms
INVALID_PARAMS = [(-0.1, 1.0), (1.5, 1.0), (float("nan"), 1.0), (0.5, float("inf")), (0.5, float("nan"))]


def random_pairs(seed: int, count: int = 300):
    """(lam1, mu1, lam2, mu2) arrays: lam uniform on [0, 1], mu on [-5, 5]."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.0, 1.0, (2, count))
    mus = rng.uniform(-5.0, 5.0, (2, count))
    return lams[0], mus[0], lams[1], mus[1]


@pytest.fixture(params=["gaussian", "laplace", "cauchy"])
def closed_form_kernel(request) -> Kernel:
    return Kernel(request.param)


def simpson_oracle(f, lo: float, hi: float, panels: int) -> float:
    """Composite-Simpson quadrature written independently of the library."""
    xs = np.linspace(lo, hi, panels + 1)
    ys = f(xs)
    h = (hi - lo) / panels
    acc = ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()
    return float(acc * h / 3.0)


def cross_oracle(kernel: Kernel, mu: float, panels: int, half_width: float = 12.0) -> float:
    """<phi, phi_mu> by ``simpson_oracle`` on [min(0, mu) - L, max(0, mu) + L]."""
    return simpson_oracle(
        lambda xs: pdf_many(kernel, xs) * pdf_many(kernel, xs - mu),
        min(0.0, mu) - half_width,
        max(0.0, mu) + half_width,
        panels,
    )
