"""Transport distances between two-point mixing distributions.

A contamination mixture is parametrized by the mixing distribution
G = (1 - lam) delta_0 + lam delta_mu.  G holds exactly the data of
``MixtureParams(lam, mu)``, so it is a ``MixtureParams``; ``MixingDistribution``
is another name for that type.  Between two such measures the optimal
coupling has a single free mass q22 (how much of the shifted atom travels to
the other shifted atom), constrained to [max(lam + lam' - 1, 0), lam] once
lam <= lam'.  The transport cost is affine in q22, so W_p^p is attained at a
feasible endpoint; ``transport_oracle`` evaluates both endpoints directly and
serves as the independent check of the closed forms used by ``w2_squared``
and ``w1``.
"""

import math

import numpy as np

from .kernels import Kernel
from .mixture import MixtureParams, l2_distance_sq

__all__ = [
    "MixingDistribution",
    "w2_squared",
    "w1",
    "transport_oracle",
    "l2_over_w2sq_ratio",
]


MixingDistribution = MixtureParams


def _ordered(g1: MixingDistribution, g2: MixingDistribution):
    """Order the pair so lam <= lam' (the closed forms assume it w.l.o.g.)."""
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    if g1.lam <= g2.lam:
        return g1, g2
    return g2, g1


def _sq(v: np.ndarray) -> float:
    return float(np.dot(v, v))


def w2_squared(g1: MixingDistribution, g2: MixingDistribution) -> float:
    """Closed-form squared 2-Wasserstein distance (three cases).

    With lam <= lam', writing u = ||mu||^2, v = ||mu'||^2, w = ||mu - mu'||^2:
    u + v >= w sends all of the lighter shifted atom onto the heavier one;
    otherwise both shifted atoms prefer the origin, splitting on whether the
    total shifted mass exceeds 1.  Ties on the case boundary agree across
    formulas, so >= is used for the first case.
    """
    a, b = _ordered(g1, g2)
    u = _sq(a.mu)
    v = _sq(b.mu)
    w = _sq(a.mu - b.mu)
    if u + v >= w:
        return (b.lam - a.lam) * v + a.lam * w
    if a.lam + b.lam <= 1.0:
        return a.lam * u + b.lam * v
    return (1.0 - b.lam) * u + (1.0 - a.lam) * v + (a.lam + b.lam - 1.0) * w


def w1(g1: MixingDistribution, g2: MixingDistribution) -> float:
    """Closed-form 1-Wasserstein distance.

    For p = 1 the triangle inequality makes the cost non-increasing in q22,
    so the infimum always sits at q22 = lam:
    W1 = (lam' - lam) ||mu'|| + lam ||mu - mu'||  for lam <= lam'.
    """
    a, b = _ordered(g1, g2)
    return (b.lam - a.lam) * math.sqrt(_sq(b.mu)) + a.lam * math.sqrt(_sq(a.mu - b.mu))


def transport_oracle(g1: MixingDistribution, g2: MixingDistribution, p: int) -> float:
    """Endpoint evaluation of the coupling objective; returns W_p^p.

    The objective (lam' - q22) ||mu'||^p + (lam - q22) ||mu||^p
    + q22 ||mu - mu'||^p is affine in q22, so the minimum over the feasible
    interval [max(lam + lam' - 1, 0), lam] is attained at an endpoint.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    a, b = _ordered(g1, g2)
    nu = math.sqrt(_sq(a.mu)) ** p
    nv = math.sqrt(_sq(b.mu)) ** p
    nw = math.sqrt(_sq(a.mu - b.mu)) ** p
    lo = max(a.lam + b.lam - 1.0, 0.0)
    hi = a.lam
    costs = [(b.lam - q) * nv + (a.lam - q) * nu + q * nw for q in (lo, hi)]
    return min(costs)


def l2_over_w2sq_ratio(
    kernel: Kernel, theta1: MixtureParams, theta2: MixtureParams
) -> float:
    """||f_theta1 - f_theta2||_2 / W2^2 between the corresponding mixing measures.

    Returns +inf when both quantities vanish (coinciding mixing measures).
    W2^2 = 0 with a positive L2 distance would contradict identifiability and
    raises instead of returning a value.
    """
    dist = math.sqrt(l2_distance_sq(kernel, theta1, theta2))
    w2 = w2_squared(theta1, theta2)
    if w2 == 0.0:
        if dist <= 1e-12:
            return math.inf
        raise ValueError(
            f"W2^2 is zero but the L2 distance is {dist}; numerical fault"
        )
    return dist / w2
