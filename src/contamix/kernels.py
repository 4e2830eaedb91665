"""Baseline density families and their translation inner products.

Four families are supported: standard Gaussian, standard Laplace, standard
Cauchy and the skew-Gaussian with asymmetry parameter alpha.  Everything
downstream (mixture geometry, contrast evaluation, certification scans) is
driven by two quantities computed here:

* ``self_inner``  -- the squared L2 norm of the density,
* ``cross_inner`` -- the translation inner product  <phi, phi(. - mu)>.

Gaussian, Laplace and Cauchy admit exact closed forms.  The skew-Gaussian's
involves Owen's T function; up to |alpha| = ``SKEW_CLOSED_ABOVE`` its inner
products are evaluated by one fixed composite Simpson rule (``SIMPSON_PANELS``
panels on a window reaching ``SIMPSON_HALF_WIDTH`` beyond 0 and mu, which
leaves a tail mass below 1e-12), and beyond it by the closed form
(``skew_cross_closed``), where the rule's step no longer resolves the edge of
Psi(alpha x).  A seeded Monte-Carlo estimate (``mc_inner``) is kept as an
independent cross-check.

Only the Gaussian family is defined for dimension d > 1 (it is the only one
with a d-dimensional closed-form inner product); the other families are
strictly one-dimensional here.  ``pdf``, ``cross_inner`` and ``mixture_pdf``
take a point or shift by one rule, ``as_point``: any input holding one value
in dimension 1, a vector of shape (d,) in d > 1.
"""

from dataclasses import dataclass
import bisect
import functools
import math
import threading

import numpy as np
from scipy.special import erfc, owens_t

__all__ = [
    "FAMILIES",
    "Kernel",
    "pdf",
    "pdf_many",
    "self_inner",
    "cross_inner",
    "cross_inner_many",
    "skew_cross_closed",
    "mc_inner",
    "sample",
    "sample_with_rng",
]

FAMILIES = ("gaussian", "laplace", "cauchy", "skew_gaussian")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# The skew-Gaussian Simpson rule: its window reaches SIMPSON_HALF_WIDTH beyond
# 0 and mu, so the neglected tail mass of the integrand stays below 1e-12.
SIMPSON_HALF_WIDTH = 12.0
SIMPSON_PANELS = 16384
# Past this |alpha| the rule's step, 24 / 16384, nears the width of the edge of
# Psi(alpha x), about 1 / |alpha|: the rule keeps within 2.2e-16 of the closed
# form up to 200, is 6.6e-13 off at 256 and 8.3e-5 relative at 1000.
SKEW_CLOSED_ABOVE = 128.0


def is_dimension(d) -> bool:
    """True for a positive Python or NumPy integer; a bool or a float is not one."""
    return isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1


@dataclass(frozen=True)
class Kernel:
    """A baseline density: family name, skewness (skew-Gaussian only), dimension."""

    family: str
    alpha: float | None = None
    dim: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "skew_gaussian":
            if self.alpha is None or self.alpha == 0.0 or not math.isfinite(self.alpha):
                raise ValueError("skew_gaussian requires a finite nonzero alpha")
        elif self.alpha is not None:
            raise ValueError(f"alpha is only meaningful for skew_gaussian, got {self.family}")
        if not is_dimension(self.dim):
            raise ValueError("dim must be a positive integer")
        if self.dim > 1 and self.family != "gaussian":
            raise ValueError("dim > 1 is only supported for the gaussian family")


# ----------------------------- density evaluation -----------------------------


def pdf_many(kernel: Kernel, x) -> np.ndarray:
    """Vectorized density evaluation.

    For dim == 1, ``x`` is scalar-like or a 1-d array of points.  For the
    d-dimensional Gaussian, ``x`` has shape (d,) or (m, d) and the isotropic
    product density is returned.
    """
    x = np.asarray(x, dtype=float)
    if kernel.dim > 1 and (x.ndim == 0 or x.shape[-1] != kernel.dim):
        raise ValueError(f"point shape {x.shape} does not match kernel dim {kernel.dim}")
    with np.errstate(over="ignore"):  # a square past the float range gives the limit 0
        if kernel.dim > 1:
            return np.exp(-0.5 * np.sum(np.square(x), axis=-1)) / _SQRT_2PI ** kernel.dim
        if kernel.family == "gaussian":
            return np.exp(-0.5 * np.square(x)) / _SQRT_2PI
        if kernel.family == "laplace":
            return 0.5 * np.exp(-np.abs(x))
        if kernel.family == "cauchy":
            return 1.0 / (math.pi * (1.0 + np.square(x)))
    # [()] makes a 0-d result a scalar, as the ufunc expressions above give it
    return _skew_pdf(kernel.alpha, x, np.empty(x.shape), np.empty(x.shape))[()]


# erfc's saturated ends in float64: see ``_skew_pdf``.
ERFC_TWO_BELOW = -6.0
ERFC_ZERO_ABOVE = 27.5


def _skew_pdf(
    alpha: float, x: np.ndarray, out: np.ndarray, tmp: np.ndarray, ascending: bool = False
) -> np.ndarray:
    """The skew-Gaussian density 2 psi(x) Psi(alpha x), Psi via erfc, written
    into ``out``, which may be ``x``; ``tmp`` is scratch of the same shape.

    erfc(t) is exactly 2.0 for t < -6 (erfc(6) < 2^-53, so 2 - erfc(6) rounds
    to 2) and exactly 0.0 for t > 27.5 (erfc(27.5) is under half the least
    subnormal); scipy 1.17.1 saturates from about -5.864 and 26.642.  With
    ``ascending`` (a sorted nonempty 1-d ``x``) the erfc arguments are
    monotone, so those entries form two blocks at the ends: they are filled
    directly and erfc runs on the slice between.  Overflow of alpha x or x^2
    to +-inf gives the density's limit 0, so it is not reported.
    """
    with np.errstate(over="ignore"):
        np.multiply(x, -alpha, out=tmp)
        tmp /= _SQRT_2
        if ascending:
            _erfc_monotone(tmp)
        else:
            erfc(tmp, out=tmp)
        np.square(x, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= _SQRT_2PI
    out *= tmp
    return out


def _erfc_monotone(t: np.ndarray) -> None:
    """erfc of a nonempty monotone 1-d array, in place, calling erfc only
    between the saturated blocks that two binary searches find; erfc of all
    of ``t`` when an end is not finite."""
    if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
        erfc(t, out=t)
        return
    if t[0] > t[-1]:
        t = t[::-1]  # an ascending view: the fills and erfc write through it
    lo = bisect.bisect_left(t, ERFC_TWO_BELOW)
    hi = bisect.bisect_right(t, ERFC_ZERO_ABOVE, lo)
    t[:lo] = 2.0
    t[hi:] = 0.0
    middle = t[lo:hi]
    erfc(middle, out=middle)


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF Psi(z) = erfc(-z / sqrt 2) / 2, elementwise."""
    return 0.5 * erfc(-z / _SQRT_2)


def as_point(kernel: Kernel, x):
    """The one point rule: a point or shift as the formulas take it.

    In dim 1 that is a float, from any input holding one value (a float, a
    0-d array, shape (1,) or (1, 1)); in dim d > 1 a float vector of shape
    (d,).  Anything else raises one ValueError.
    """
    x = np.asarray(x, dtype=float)
    if kernel.dim == 1 and x.size == 1:
        return x.item()
    if kernel.dim > 1 and x.shape == (kernel.dim,):
        return x
    raise ValueError(f"a point or shift of shape {x.shape} does not fit kernel dim {kernel.dim}")


def pdf(kernel: Kernel, x) -> float:
    """Density at a single point, taken by ``as_point``."""
    return float(pdf_many(kernel, as_point(kernel, x)))


# ----------------------------- inner products -----------------------------


def _gaussian_cross(sq, exp, dim: int = 1):
    """Gaussian ``<phi, phi_mu>`` from the squared shift norm ``sq``."""
    return (4.0 * math.pi) ** (-dim / 2.0) * exp(-sq / 4.0)


# Closed forms of <phi, phi_m> for a 1-d shift m.  ``exp`` is math.exp for a
# float and np.exp for an array: the two differ in the last bit on some
# inputs, and pinned outputs depend on which one each path uses.
_CROSS = {
    "gaussian": lambda m, exp: _gaussian_cross(m * m, exp),
    "laplace": lambda m, exp: 0.25 * exp(-abs(m)) * (1.0 + abs(m)),
    "cauchy": lambda m, exp: 2.0 / (math.pi * (4.0 + m * m)),
}


def self_inner(kernel: Kernel) -> float:
    """Squared L2 norm of the density, ``<phi, phi>``: ``cross_inner`` at shift 0."""
    return cross_inner(kernel, np.zeros(kernel.dim))


def _skew_cross_quadrature(kernel: Kernel, mu: float) -> float:
    """Composite Simpson for <phi, phi_mu> of the skew-Gaussian.

    The integrand decays like exp(-(x - mu/2)^2), so a window covering
    [min(0, mu) - L, max(0, mu) + L], L = ``SIMPSON_HALF_WIDTH``, keeps the
    truncated tail below 1e-12.

    The rule works in the arrays of ``_simpson_arrays`` under the memo lock
    and allocates none: fresh 131 kB arrays are mmap-ed and page-faulted on
    every fill in some allocator states.  OpenBLAS shares a dot product of
    over 10 000 terms among all cores, so np.dot's bits would depend on the
    core count; summing the halves on one thread gives its two-core bits,
    which the pinned outputs hold, on any core count.

    A factor is exactly 0.0 where its erfc argument exceeds ``ERFC_ZERO_ABOVE``,
    a block of nodes at the low end (alpha > 0) or the high end (alpha < 0).
    Bisection on that argument in Python floats, numpy's IEEE operations, finds
    each block exactly; the factors run between, the dot product on all nodes.
    """
    alpha = kernel.alpha
    lo = min(0.0, mu) - SIMPSON_HALF_WIDTH
    hi = max(0.0, mu) + SIMPSON_HALF_WIDTH
    h = (hi - lo) / SIMPSON_PANELS
    with _MEMO_LOCK:
        nodes, weights, xs, vals, tmp = _simpson_arrays()
        # np.linspace(lo, hi, SIMPSON_PANELS + 1), bit for bit
        np.multiply(nodes, h, out=xs)
        xs += lo
        xs[-1] = hi
        start, stop = 0, SIMPSON_PANELS + 1
        if math.isfinite(mu):  # else nan or inf products on the whole window
            # each factor's first node past its zero block (alpha > 0), or first node in it
            key = lambda s: lambda x: ((float(x) - s) * -alpha / _SQRT_2 > ERFC_ZERO_ABOVE) != (alpha > 0)
            cuts = [bisect.bisect_left(xs, True, key=key(s)) for s in (0.0, mu)]
            start, stop = (max(cuts), stop) if alpha > 0 else (0, min(cuts))
            vals[:start] = 0.0
            vals[stop:] = 0.0
        x, v, t = xs[start:stop], vals[start:stop], tmp[start:stop]
        _skew_pdf(alpha, x, v, t, ascending=True)
        x -= mu
        v *= _skew_pdf(alpha, x, x, t, ascending=True)
        k = (SIMPSON_PANELS + 2) // 2  # OpenBLAS's first of two shares
        return float((np.dot(weights[:k], vals[:k]) + np.dot(weights[k:], vals[k:])) * (h / 3.0))


def skew_cross_closed(alpha: float, mu):
    """<phi, phi_mu> of the skew-Gaussian in closed form, elementwise in mu:
    (2 / sqrt pi) e^(-mu^2 / 4) Phi_2(h, -h; rho) with h = alpha mu / (2 sigma),
    sigma^2 = 1 + alpha^2 / 2, rho = (alpha^2 / 2) / sigma^2.  By Owen (1956),
    Phi_2(h, -h; rho) = 2 T(h, sqrt((1 + rho) / (1 - rho))), and
    (1 + rho) / (1 - rho) = 1 + alpha^2.  Both roots are taken by ``hypot``,
    which stays finite where alpha^2 overflows, and a square of mu past the
    float range gives the limit 0."""
    sigma = math.hypot(1.0, alpha / _SQRT_2)
    with np.errstate(over="ignore"):
        t = owens_t(alpha / (2.0 * sigma) * np.asarray(mu), math.hypot(1.0, alpha))
        return 4.0 / math.sqrt(math.pi) * np.exp(-np.square(mu) / 4.0) * t


@functools.cache
def _simpson_arrays() -> tuple:
    """Node indices 0..SIMPSON_PANELS and Simpson weights, then three scratch arrays."""
    nodes = np.arange(SIMPSON_PANELS + 1, dtype=float)
    weights = np.ones(SIMPSON_PANELS + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (nodes, weights, *(np.empty(SIMPSON_PANELS + 1) for _ in range(3)))


# The one cache policy of the package: dict stores, filled once per key under
# one lock, each bounded by evicting its oldest entry.  The lock is reentrant
# so that a fill which itself calls ``memo`` cannot deadlock.
_MEMO_LOCK = threading.RLock()


def memo(store: dict, key, fill, limit: int):
    """``store[key]``, computed by ``fill()`` on a miss; the store keeps at
    most ``limit`` entries."""
    hit = store.get(key)
    if hit is not None:
        return hit
    with _MEMO_LOCK:
        hit = store.get(key)
        if hit is None:
            hit = fill()
            while len(store) >= limit:
                del store[next(iter(store))]
            store[key] = hit
    return hit


# Skew-Gaussian quadrature results, keyed on (alpha, shift).
_SKEW_CACHE: dict[tuple, float] = {}
_SKEW_LIMIT = 1 << 14


def cross_inner(kernel: Kernel, mu) -> float:
    """Translation inner product ``<phi, phi(. - mu)>``.

    The shift is taken by ``as_point``.  Exact closed form for gaussian /
    laplace / cauchy; for skew_gaussian the fixed Simpson rule, or the closed
    form past |alpha| = ``SKEW_CLOSED_ABOVE``.
    """
    m = as_point(kernel, mu)
    if kernel.dim > 1:
        return _gaussian_cross(float(np.dot(m, m)), math.exp, kernel.dim)
    if math.isinf(m):  # every family's limit, where Laplace's form gives 0 inf
        return 0.0
    if kernel.family in _CROSS:
        return _CROSS[kernel.family](m, math.exp)
    if abs(kernel.alpha) > SKEW_CLOSED_ABOVE:
        return float(skew_cross_closed(kernel.alpha, m))
    return memo(_SKEW_CACHE, (kernel.alpha, m), lambda: _skew_cross_quadrature(kernel, m), _SKEW_LIMIT)


def cross_inner_many(kernel: Kernel, mus) -> np.ndarray:
    """``cross_inner`` over an array of shifts: (m, d) gives (m,) for dim d > 1;
    dim 1 keeps the input's shape, a scalar giving (1,)."""
    mus = np.asarray(mus, dtype=float)
    if kernel.dim > 1:
        if mus.ndim != 2 or mus.shape[1] != kernel.dim:
            raise ValueError(f"expected shifts of shape (m, {kernel.dim}), got {mus.shape}")
        return _gaussian_cross(np.sum(np.square(mus), axis=1), np.exp, kernel.dim)
    mus = np.atleast_1d(mus)
    if kernel.family in _CROSS:
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite shift takes the limit 0
            return np.where(np.isinf(mus), 0.0, _CROSS[kernel.family](mus, np.exp))
    shifts, where = np.unique(mus, return_inverse=True)  # one quadrature lookup per shift
    return np.array([cross_inner(kernel, m) for m in shifts])[where].reshape(mus.shape)


# Monte-Carlo draws per chunk: a few MB of temporaries for any draw count.
_MC_CHUNK = 1 << 16


def mc_inner(kernel: Kernel, mu, draws: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of ``<phi, phi_mu>`` as ``E_{X~phi}[phi(X - mu)]``.

    Returns ``(estimate, standard_error)``; the standard error is NaN for a
    single draw.  Deterministic given the seed.  The draws are streamed in
    chunks of ``_MC_CHUNK`` from one generator, which repeats the stream of a
    single draw of them all; chunk means and squared deviations are merged by
    Chan's pairwise update, so memory stays bounded whatever ``draws`` is.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    shift = np.asarray(mu, dtype=float)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, draws, _MC_CHUNK):
        vals = pdf_many(kernel, sample_with_rng(kernel, min(_MC_CHUNK, draws - start), rng) - shift)
        size = vals.shape[0]
        chunk_mean = float(np.mean(vals))
        delta = chunk_mean - mean
        total = count + size
        mean += delta * (size / total)
        m2 += float(np.sum(np.square(vals - chunk_mean))) + delta * delta * (count * size / total)
        count = total
    if draws == 1:
        return mean, math.nan
    return mean, math.sqrt(m2 / (draws - 1)) / math.sqrt(draws)


# ----------------------------- sampling -----------------------------


def sample_with_rng(kernel: Kernel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. points from the kernel using an existing generator.

    Laplace and Cauchy go through the inverse CDF; the skew-Gaussian uses the
    representation  X = delta |Z1| + sqrt(1 - delta^2) Z2  with
    delta = alpha / sqrt(1 + alpha^2)  and Z1, Z2 independent standard normals
    (Z1 drawn first); any finite nonzero alpha is accepted.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if kernel.dim > 1:
        return rng.standard_normal((count, kernel.dim))
    if kernel.family == "gaussian":
        return rng.standard_normal(count)
    if kernel.family == "laplace":
        u = rng.random(count)
        u = np.maximum(u, 2.0 ** -53)  # keep log(2u) finite when u == 0
        return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    if kernel.family == "cauchy":
        u = rng.random(count)
        return np.tan(math.pi * (u - 0.5))
    z = rng.standard_normal((count, 2))
    alpha = kernel.alpha
    # alpha ** 2 overflows from |alpha| about 1.34e154 on; the quotient is exactly +-1 from 1e9 on
    delta = alpha / math.sqrt(1.0 + alpha ** 2) if abs(alpha) < 1e154 else math.copysign(1.0, alpha)
    return delta * np.abs(z[:, 0]) + math.sqrt(1.0 - delta ** 2) * z[:, 1]


def sample(kernel: Kernel, count: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. sample from the kernel; shape (count,) or (count, d)."""
    return sample_with_rng(kernel, count, np.random.default_rng(seed))
