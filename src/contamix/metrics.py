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

from .mixture import MixtureParams, _pair_arrays

__all__ = [
    "MixingDistribution",
    "w2_squared",
    "w2_squared_many",
    "w1",
    "transport_oracle",
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


def _w2_formula(la, lb, u, v, w):
    """W2^2 for lam = la <= lam' = lb from u = ||mu||^2, v = ||mu'||^2 and
    w = ||mu - mu'||^2; floats or arrays alike.

    u + v >= w sends all of the lighter shifted atom onto the heavier one;
    otherwise both shifted atoms prefer the origin, splitting on whether the
    total shifted mass exceeds 1.  Ties on the case boundary agree across
    formulas, so >= is used for the first case.
    """
    onto_heavier = (lb - la) * v + la * w
    light = la * u + lb * v
    heavy = (1.0 - lb) * u + (1.0 - la) * v + (la + lb - 1.0) * w
    return np.where(u + v >= w, onto_heavier, np.where(la + lb <= 1.0, light, heavy))


def w2_squared(g1: MixingDistribution, g2: MixingDistribution) -> float:
    """Closed-form squared 2-Wasserstein distance (three cases, ``_w2_formula``)."""
    a, b = _ordered(g1, g2)
    return float(_w2_formula(a.lam, b.lam, _sq(a.mu), _sq(b.mu), _sq(a.mu - b.mu)))


def w2_squared_many(lam1, mu1, lam2, mu2) -> np.ndarray:
    """``w2_squared`` of the d = 1 pairs (lam1, mu1), (lam2, mu2), elementwise
    and bit for bit; the arguments broadcast and are checked as
    ``MixtureParams`` checks them."""
    (lam1, mu1, lam2, mu2), shape = _pair_arrays(lam1, mu1, lam2, mu2)
    swap = lam2 < lam1
    la, lb = np.where(swap, lam2, lam1), np.where(swap, lam1, lam2)
    ma, mb = np.where(swap, mu2, mu1), np.where(swap, mu1, mu2)
    return _w2_formula(la, lb, ma * ma, mb * mb, (ma - mb) * (ma - mb)).reshape(shape)


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
