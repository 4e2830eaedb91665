import numpy as np
import pytest

from contamix.kernels import Kernel, pdf_many


@pytest.fixture(params=["gaussian", "laplace", "cauchy", "skew_gaussian"])
def any_kernel(request) -> Kernel:
    if request.param == "skew_gaussian":
        return Kernel("skew_gaussian", alpha=10.0)
    return Kernel(request.param)


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
