"""Two-component contamination mixtures (1 - lam) phi + lam phi(. - mu).

Evaluation, seeded sampling, and the exact L2 geometry of the family: squared
norms and pairwise squared distances reduce to kernel inner products, so no
integration happens here.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, as_point, cross_inner, pdf_many, sample_with_rng, self_inner

__all__ = [
    "MixtureParams",
    "mixture_pdf",
    "mixture_pdf_many",
    "mixture_l2_norm_sq",
    "l2_distance_sq",
    "l2_distance_sq_many",
    "sample_mixture",
]


@dataclass(frozen=True)
class MixtureParams:
    """Contamination proportion and shift.

    ``lam`` in [0, 1]: the estimation theory lives on (0, 1), and the grid
    never emits 0, but the evaluation operations tolerate both endpoints.
    ``mu`` is stored as a length-d vector.
    """

    lam: float
    mu: np.ndarray

    def __init__(self, lam: float, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if not (0.0 <= lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "mu", mu)
        self.mu.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _pair_arrays(lam1, mu1, lam2, mu2):
    """d = 1 parameter pairs as four flat float arrays and their broadcast shape,
    checked by the rule and messages of ``MixtureParams``."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lam1, mu1, lam2, mu2)))
    lams, mus = np.concatenate(arrays[0::2], axis=None), np.concatenate(arrays[1::2], axis=None)
    outside = np.flatnonzero(~((0.0 <= lams) & (lams <= 1.0)))
    if outside.size:
        raise ValueError(f"lam must lie in [0, 1], got {lams[outside[0]]}")
    if not np.all(np.isfinite(mus)):
        raise ValueError("mu must be finite")
    return [v.ravel() for v in arrays], arrays[0].shape


def _check_dim(kernel: Kernel, theta: MixtureParams) -> None:
    if theta.dim != kernel.dim:
        raise ValueError(f"shift dimension {theta.dim} != kernel dim {kernel.dim}")


def mixture_pdf_many(kernel: Kernel, theta: MixtureParams, xs) -> np.ndarray:
    """Vectorized mixture density (1 - lam) phi(x) + lam phi(x - mu)."""
    _check_dim(kernel, theta)
    xs = np.asarray(xs, dtype=float)
    shift = as_point(kernel, theta.mu)
    return (1.0 - theta.lam) * pdf_many(kernel, xs) + theta.lam * pdf_many(kernel, xs - shift)


def mixture_pdf(kernel: Kernel, theta: MixtureParams, x) -> float:
    """Mixture density at a single point, taken by ``kernels.as_point``."""
    return float(mixture_pdf_many(kernel, theta, as_point(kernel, x)))


def mixture_l2_norm_sq(kernel: Kernel, theta: MixtureParams) -> float:
    """Exact squared L2 norm:  [lam^2 + (1-lam)^2] ||phi||^2 + 2 lam (1-lam) <phi, phi_mu>."""
    _check_dim(kernel, theta)
    lam = theta.lam
    s = self_inner(kernel)
    c = cross_inner(kernel, theta.mu)
    return (lam * lam + (1.0 - lam) ** 2) * s + 2.0 * lam * (1.0 - lam) * c


def _l2_formula(l1, l2, s, c1, c2, c12):
    """||f_theta1 - f_theta2||_2^2 before the clamp, for floats or arrays alike.

    The difference expands as (lam2 - lam1) phi + lam1 phi_mu1 - lam2 phi_mu2,
    so the self inner product s and three cross inner products suffice.
    """
    a = l2 - l1
    return (
        (a * a + l1 * l1 + l2 * l2) * s
        + 2.0 * a * l1 * c1
        - 2.0 * a * l2 * c2
        - 2.0 * l1 * l2 * c12
    )


def l2_distance_sq(kernel: Kernel, theta1: MixtureParams, theta2: MixtureParams) -> float:
    """Exact  ||f_theta1 - f_theta2||_2^2  from kernel inner products.

    Arguments are put in a canonical order first, making the result bitwise
    symmetric.  Round-off can push the value a hair below zero for
    near-identical parameters; it is clamped at 0 so callers can take square
    roots.
    """
    _check_dim(kernel, theta1)
    _check_dim(kernel, theta2)
    if (theta2.lam, tuple(theta2.mu)) < (theta1.lam, tuple(theta1.mu)):
        theta1, theta2 = theta2, theta1
    c = [cross_inner(kernel, m) for m in (theta1.mu, theta2.mu, theta1.mu - theta2.mu)]
    return max(_l2_formula(theta1.lam, theta2.lam, self_inner(kernel), *c), 0.0)


def l2_distance_sq_many(kernel: Kernel, lam1, mu1, lam2, mu2) -> np.ndarray:
    """``l2_distance_sq`` of the d = 1 pairs (lam1, mu1), (lam2, mu2), elementwise.

    Every value has the scalar function's bits: each pair is put in the same
    lexicographic order, and the scalar ``cross_inner`` (``math.exp``, where
    ``cross_inner_many`` uses ``np.exp``) runs once per distinct shift.  The
    arguments broadcast; the parameters are checked as ``MixtureParams``
    checks them.
    """
    if kernel.dim != 1:
        raise ValueError("l2_distance_sq_many is defined for d = 1")
    (lam1, mu1, lam2, mu2), shape = _pair_arrays(lam1, mu1, lam2, mu2)
    swap = (lam2 < lam1) | ((lam2 == lam1) & (mu2 < mu1))
    l1, l2 = np.where(swap, lam2, lam1), np.where(swap, lam1, lam2)
    m1, m2 = np.where(swap, mu2, mu1), np.where(swap, mu1, mu2)
    shifts = (m1, m2, m1 - m2)
    # one sort per shift array, not one of all three: it keeps the peak memory down
    distinct = np.unique(np.concatenate([np.unique(m) for m in shifts]))
    inner = np.array([cross_inner(kernel, m) for m in distinct.tolist()])
    c = [inner[np.searchsorted(distinct, m)] for m in shifts]
    return np.maximum(_l2_formula(l1, l2, self_inner(kernel), *c), 0.0).reshape(shape)


def sample_mixture(kernel: Kernel, theta: MixtureParams, count: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. sample from the mixture.

    A Bernoulli(lam) indicator selects the shifted component, then
    X = Z + mu * indicator with Z ~ phi.  The indicator uniforms are drawn
    before the kernel draws, from a single generator, so the output is a pure
    function of the seed.
    """
    _check_dim(kernel, theta)
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    shifted = rng.random(count) < theta.lam
    z = sample_with_rng(kernel, count, rng)
    if kernel.dim == 1:
        return z + float(theta.mu[0]) * shifted
    return z + theta.mu[None, :] * shifted[:, None]
