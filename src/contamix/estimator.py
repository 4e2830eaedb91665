"""Grid-based L2 minimum-contrast estimation of (lambda, mu).

The empirical contrast

    gamma_n(lam, mu) = -(2/n) sum_i f_{lam,mu}(X_i) + ||f_{lam,mu}||_2^2

is minimized by exhaustive scan over a grid with lambda spacing 1/sqrt(n) and
mu coordinates +-k/sqrt(n) bounded by M.  The data enter gamma_n only through
S0 = sum_i phi(X_i) and the per-shift sums S(mu) = sum_i phi(X_i - mu), so a
ContrastTable with those sums plus the inner products <phi, phi_mu> makes each
grid-point evaluation O(1).  ``contrast_naive`` is the direct O(n) evaluation
kept as the testing oracle for the fast path.

The scan is deterministic: candidates are compared in canonical enumeration
order (lambda index major, mu index minor; mu levels run from -k_max/sqrt(n)
up through -1/sqrt(n) then +1/sqrt(n) up to +k_max/sqrt(n), first coordinate
slowest in d > 1), and ties go to the smallest index pair.

Shift sums on the lattice.  In dimension 1 the mu levels are the lattice
points k h, h = 1/sqrt(n), 1 <= |k| <= k_max, so ``estimate`` does not fill
the O(n q) table.  Each sample within a cutoff T of some mu level is binned
to its nearest lattice point, x = b h + r with |b| <= K = k_max +
ceil(T sqrt(n)) + 1 and |r| <= h/2, so no bin lies past K whatever the
data.  The other samples are summed directly, so T enters eps only through K
and the reach R below: it trades FFT length against direct-sum work.  A
family's lattice spec (``_LatticeSpec``) writes each binned sample's term as
a sum over p < P of a weight w_p(r) times a table E_p((k - b) h), so with
per-bin moments A_p[b] = sum w_p(r) (one ``np.bincount`` each) the sums
become S(k h) = sum_p sum_b A_p[b] E_p((k - b) h): P discrete convolutions,
done with real FFTs.

The transform spans only what the sample and the bound need.  The moments
fill the occupied bins b_lo..b_hi, and the tables reach R = ceil(T sqrt(n))
steps for a family whose spec bounds |phi| beyond a distance (the Gaussian
and the skew-Gaussian), else R = K + k_max, every (b, k) pair.  The FFT
length L is the least power of two above max(b_hi + R + k_max, k_max - b_lo
+ R, b_hi - b_lo).  Bin b sits at index b - b_lo and table offset t at t +
w, w = min(R, L - R - 1) the largest |t| a level reads; level k reads index
k - b_lo + w, where below L no pair with b + t != k lands.  The bins -K..K
with R = K + k_max give the fixed layout's length, the longest; at M = 10
the Gaussian's L is 1024 at n = 1000 and 2048 at n = 5000 for the study
samples, against 2048 and 4096.  For the Taylor families

    phi(x - k h) = sum_{p < P} r^p / p! phi^(p)((b - k) h) + R_P,

so w_p(r) = r^p / p! and E_p(t) = phi^(p)(-t).  With D_P >= sup |phi^(P)|,
one bound covers the remainder of the m binned samples: m D_P r_max^P / P!,
r_max the largest |r|.  The transform also returns an a-priori bound eps >=
max_j |S~_j - S_j|, where S_j is the value ``precompute`` computes (u =
2^-53 is the unit roundoff).  Every family's eps holds

* the rounding of the lattice offsets r and m h and of the mu levels, a shift
  of at most 8 u (K + k_max + 1) h per sample against a bound on |phi'|;
* the pairs the reach drops, |k - b| > R, which lie (R + 1/2) h apart or
  more: m tail((R + 1/2) h) for a spec's bound tail >= |phi| beyond a
  distance;
* the rounding in the moments and in the tables;
* FFT round-off, (14 log2 L + P + 4) u (||A_p||_2 ||E_p||_1 + ||A_p||_1
  ||E_p||_2) summed over p, for FFT length L, with the norms of the whole
  tables, which bound those of the part laid out at length L;
* the rounding of the direct sum itself, u (c n + (n + c') max_j S_j), with
  c and c' bounding the rounding of the family's pdf;
* the samples that are not binned, summed directly against every level: the
  rounding of that sum and of adding it;

and its own terms:

* Gaussian (P = 4, T = 8): E_p = He_p phi.  By Cramer's bound |He_P(t)|
  e^{-t^2/4} <= 1.086435 sqrt(P!), D_P = 1.086435 sqrt(P! / (2 pi)); tail
  = psi, the standard normal density.
* Laplace (exact, T = 12): for b != k, exp(-|x - k h|) = exp(-|b - k| h)
  exp(-+r), so the weights are e^-r, e^r and e^-|r| against the one-sided
  tables e^{-|t|}/2 for t < 0 and t > 0 and the b = k term.  There is no
  remainder: D_P = 0.
* Cauchy (P = 6, T = 20): phi^(p)(t) = (-1)^p p! Im[(t - i)^-(p+1)] / pi,
  so D_P = P!/pi.
* Skew-Gaussian (P = 8, T = 12): phi = 2 psi Psi(alpha .), by Leibniz on
  psi^(j) = (-1)^j He_j psi and d^k Psi(alpha t) = alpha^k psi^(k-1)(alpha
  t), both from one Hermite recurrence; the tables are taken at -t, since
  the kernel is not symmetric.  D_P is the sum of Cramer's bounds on the
  Leibniz terms, and tail = 2 psi.  A loose eps only recomputes more
  columns.  T is 12 here because the tail term of the bound e below needs
  the whole table to reach |t| >= 11.

Inner products on the lattice.  A 1-d grid's lattice plan (``_LatticePlan``,
memoised per kernel, n and k_max) holds the family's spec, its tables and
their spectra per FFT length, and the grid's inner products c~_j with a
bound e >= max_j |c~_j - c_j| against the values c_j of ``cross_inner``.  For the closed forms c~
is ``cross_inner_many`` on the mu levels and e = 0.  The skew-Gaussian has
no closed form for c(mu) = <phi, phi_mu>; ``cross_inner`` takes it by a
16 385-point Simpson rule, about 0.25-0.3 ms per mu level at alpha = 10.
Its plan instead holds the trapezoid rule on the lattice,

    c~(k h) = h sum_m phi(m h) phi((m - k) h),

one autocorrelation of the whole E_0 table at the fixed layout's length (the
irfft of its spectrum times its conjugate), and e against the Simpson values
c_j.  The skew-normal characteristic function is chi(t) = e^{-t^2/2} (1 + i
erfi(delta t / sqrt 2)), delta = alpha / sqrt(1 + alpha^2) (Azzalini 1985);
Dawson's function is at most 0.54105, so |erfi(x)| <= 0.6106 e^{x^2} and
|chi(t)| <= 1.6106 exp(-t^2 / (2 s^2)), s^2 = 1 + alpha^2.  The transform of
f = phi phi_mu is a convolution of two such, so |f^(w)| <= 0.7318 s
exp(-w^2 / (4 s^2)) for every mu.  With sup phi <= 2 psi(0) = sqrt(2/pi),
which also bounds every c(mu), lip >= sup |phi'| as above and Q the
Gaussian upper tail, e holds

* aliasing: by Poisson summation the lattice rule errs by at most sum_{j !=
  0} |f^(2 pi j / h)| <= 2 (0.7318 s) q / (1 - q^3), q = exp(-(pi sqrt(n) /
  s)^2) (trapezoid rules converge exponentially; Trefethen & Weideman 2014);
* the tail: every term the table leaves out, or the circular correlation
  or Simpson's window cuts, has a factor phi(t) <= 2 psi(t) at |t| >= 11 and
  another at most sup phi, 8 sup phi (psi(11) + Q(11)) in all, plus the
  wrapped terms, 4 mu_max psi(12)^2;
* table rounding: each of the N entries is within tau = (its rounding) +
  lip u N h of phi(m h), giving h tau (2 ||E_0||_1 + 3 N tau);
* FFT round-off, the bound above with P = 1: (14 log2 L + 5) u 2 ||E_0||_1
  ||E_0||_2 h; then u sup phi for the product by h and 4 u lip mu_max for
  the rounding of the mu levels;
* Simpson's own error on its window of width w = 24 + |mu| with step h_s =
  w / 16384: w h_s^4 sup |f^(4)| / 180, where sup |f^(4)| <= sum_j C(4, j)
  D_j D_{4-j} by Leibniz and D_j >= sup |phi^(j)| comes from the same
  Cramer bounds as D_P above, plus the window tail;
* the rounding of Simpson's nodes (8 u (w + mu_max) each, against lip on
  both factors), of its pdf values and of their products, w sup phi (2 u (c
  + c' sup phi) + 2 lip 8 u (w + mu_max) + u sup phi);
* the rounding of its 16 385-term dot product and its scaling, (16384 + 8) u
  times sup phi plus the two terms above.

At alpha = 10, M = 10 and n >= 500, e is about 2e-7, nearly all Simpson's
h^4 term, while the measured error is below 4e-16.  The lattice resolves
Psi(alpha t) only for n of at least a few alpha^2: at alpha = 10 and n = 16,
e is about 3, and at alpha = 30 and n = 500, 0.18.  A non-finite e is inf.
Either way a loose e only recomputes more columns.

At n = 5000 and P = 4 the Gaussian's Taylor remainder sets eps: about
1.1e-6, or 1e-9 of max S, against a measured error near 1e-8; for the other
families eps is a few 1e-12 of max S.  The certified
scan evaluates the contrast from the approximate sums and inner products,
whose error is at most delta = (2/n) eps + e/2 (as 2 lam (1 - lam) <= 1/2;
explicit ``inner_products`` count as exact, e = 0) plus the rounding slack
of the two evaluations.  For fixed mu the contrast is a quadratic in lambda,
so each column's least value comes from four lambda levels
(``_column_minima``), widened by a stated slack rho for rounding near a flat
vertex.  Every mu column whose minimum lies within 2 delta + rho of the
global minimum may hold the exact minimum or one of its ties; those columns
(usually one) are recomputed by ``precompute`` on that sub-grid, with the
values of ``cross_inner_many`` on those columns only when e > 0, and
scanned by ``_scan_table``.  The other columns are strictly worse, so
``(lambda_index, mu_index, contrast_value)`` is bit-identical to a full
``precompute`` and ``_scan_table`` run, for explicit ``inner_products``
too.  In d > 1 the scan takes the direct sums and ``cross_inner_many`` (e =
0).  These sums and the recompute's each lie within the rounding of a sum in
any order above, u (c n + (n + c') max_j S_j) (Higham 2002, sections 3-4),
so eps is twice that.  For the d-dimensional Gaussian c = 1/2 bounds the
error of the argument, (d + 2) u |x|^2 / 2 relative or (d + 2) u / (e (2
pi)^(d/2)) absolute, and c' = d + 6 covers exp and the constant (2 pi)^(d/2).
"""

from collections.abc import Callable
from dataclasses import dataclass
import math

import numpy as np

from .kernels import (
    SIMPSON_HALF_WIDTH, SIMPSON_PANELS, Kernel, cross_inner_many, memo, normal_cdf, pdf_many, self_inner,
)
from .mixture import MixtureParams, mixture_l2_norm_sq, mixture_pdf_many

__all__ = [
    "Grid",
    "ContrastTable",
    "EstimateResult",
    "build_grid",
    "grid_levels",
    "precompute",
    "contrast",
    "contrast_naive",
    "estimate",
]

MAX_GRID_POINTS = 10 ** 9
# Each mu level costs floats in the grid, the shift sums and the lattice
# plan (tables longer than 2 q), so memory needs a bound on the level count q.
MAX_MU_LEVELS = 2 ** 20

# rows-per-chunk targets keep temporaries around a few MB; the direct shift
# sums (far samples, candidate columns, d > 1) use chunks of 256 KB,
# which keeps their temporaries below the lattice transform's
_SHIFT_CHUNK_CELLS = 1 << 15
_SCAN_CHUNK_CELLS = 1 << 20

# Lattice transform: unit roundoff u; Cramer's constant for |He_j(t)|
# exp(-t^2/4) <= C sqrt(j!); the Taylor orders P.  Their remainder sets eps
# (Gaussian, n = 5000: 1.1e-6), which only widens the certified scan's cut:
# it still recomputes about one column; two orders less recompute several.
_U = 2.0 ** -53
_CRAMER = 1.086435
_GAUSS_ORDER = 4
_CAUCHY_ORDER = 6
_SKEW_ORDER = 8
_GAUSS = Kernel("gaussian")


def _psi(t: float) -> float:
    """The standard normal density, which bounds the Gaussian beyond |t|."""
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


# Skew inner products: sup phi = 2 psi(0) bounds every skew-Gaussian value and
# every <phi, phi_mu>; psi(11), psi(12) and the Gaussian tail mass beyond 11
# bound the terms the lattice and Simpson rules leave out.
_SKEW_SUP = math.sqrt(2.0 / math.pi)
_PSI_11 = _psi(11.0)
_PSI_12 = _psi(12.0)
_GAUSS_TAIL_11 = 0.5 * math.erfc(11.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Grid:
    """Candidate (lambda, mu) levels for a sample size n and shift bound M."""

    lambda_levels: np.ndarray  # (p,), i/sqrt(n) for i = 1..floor(sqrt(n))
    mu_levels: np.ndarray      # (q,) in dim 1, (q, d) otherwise
    n: int

    @property
    def dim(self) -> int:
        return 1 if self.mu_levels.ndim == 1 else self.mu_levels.shape[1]

    @property
    def size(self) -> int:
        return self.lambda_levels.shape[0] * self.mu_levels.shape[0]


@dataclass(frozen=True)
class ContrastTable:
    """Precomputed sums making the contrast O(1) per grid point."""

    s0: float                  # sum_i phi(X_i)
    shift_sums: np.ndarray     # (q,), sum_i phi(X_i - mu_j)
    inner_cache: np.ndarray    # (q,), <phi, phi_mu_j>
    self_norm: float           # ||phi||_2^2
    sample_size: int


@dataclass(frozen=True)
class EstimateResult:
    lambda_hat: float
    mu_hat: np.ndarray
    contrast_value: float
    lambda_index: int
    mu_index: int


def grid_levels(n: int, M: float, d: int = 1) -> tuple[int, int, int]:
    """The level counts of ``build_grid(n, M, d)``, with its checks: p lambda
    levels, k_max positive mu steps per axis and q = (2 k_max)^d mu levels.

    sqrt(n) is taken as the real square root; index bounds are floored.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0.0 < M < math.inf:
        raise ValueError(f"M must be positive and finite, got {M}")
    if d < 1:
        raise ValueError("d must be a positive integer")
    p = math.isqrt(n)
    # tiny nudge guards against M*sqrt(n) landing one ulp under an integer
    try:  # math.sqrt of an int past the float range, or floor(inf)
        k_max = math.floor(M * math.sqrt(n) + 1e-12)
    except OverflowError:
        raise ValueError(f"M sqrt(n) overflows a float (M={M}, n={n})") from None
    if k_max < 1:
        raise ValueError(f"M sqrt(n) < 1: the mu grid is empty (M={M}, n={n})")
    q = (2 * k_max) ** d
    if q > MAX_MU_LEVELS or q * p > MAX_GRID_POINTS:
        raise ValueError(
            f"grid would hold {q} mu levels and {q * p} points (bounds {MAX_MU_LEVELS} "
            f"and {MAX_GRID_POINTS}); reduce M, n or d"
        )
    return p, k_max, q


def build_grid(n: int, M: float, d: int = 1) -> Grid:
    """Build the estimation grid for sample size n, shift bound M, dimension d.

    The level counts are ``grid_levels``'s; the spacing is exactly 1/sqrt(n).
    In d > 1 the mu levels are the full Cartesian product of the
    one-dimensional levels.
    """
    p, k_max, _ = grid_levels(n, M, d)
    root = math.sqrt(n)
    lam = np.arange(1, p + 1, dtype=float) / root
    ks = np.arange(1, k_max + 1, dtype=float)
    axis = np.concatenate([-ks[::-1], ks]) / root
    if d == 1:
        mu = axis
    else:
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        mu = np.stack([m.reshape(-1) for m in mesh], axis=1)
    lam.setflags(write=False)
    mu.setflags(write=False)
    return Grid(lambda_levels=lam, mu_levels=mu, n=n)


def _inner_products(kernel: Kernel, grid: Grid, inner_products: np.ndarray | None) -> np.ndarray:
    """The explicit ``inner_products``, checked, or else ``cross_inner_many``'s."""
    if inner_products is None:
        return cross_inner_many(kernel, grid.mu_levels)
    inner_products = np.asarray(inner_products, dtype=float)
    q = grid.mu_levels.shape[0]
    if inner_products.shape != (q,):
        raise ValueError(f"inner_products must have shape ({q},), got {inner_products.shape}")
    return inner_products


def _checked_data(kernel: Kernel, data) -> np.ndarray:
    """``data`` as a float array of shape (n,) for dim 1 or (n, d), nonempty
    and finite; ValueError otherwise."""
    data = np.asarray(data, dtype=float)
    point = () if kernel.dim == 1 else (kernel.dim,)
    if data.ndim == 0 or data.shape[1:] != point or data.shape[0] == 0:
        raise ValueError(f"data of shape {data.shape} is empty or does not match kernel dim {kernel.dim}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values (nan or inf)")
    return data


def _direct_shift_sums(kernel: Kernel, mu_levels: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sum_i phi(X_i - mu_j) for every level, streamed over the levels in
    fixed-size chunks so that no n x q matrix is materialized."""
    n = data.shape[0]
    sums = np.empty(mu_levels.shape[0])
    rows = max(1, _SHIFT_CHUNK_CELLS // n)
    for j0 in range(0, mu_levels.shape[0], rows):
        chunk = mu_levels[j0 : j0 + rows]
        sums[j0 : j0 + rows] = np.sum(pdf_many(kernel, data[None] - chunk[:, None]), axis=1)
    return sums


def precompute(
    kernel: Kernel,
    grid: Grid,
    data: np.ndarray,
    inner_products: np.ndarray | None = None,
) -> ContrastTable:
    """Fill the ContrastTable for a dataset.

    Shift sums are streamed over mu levels in fixed-size chunks (no n x q
    matrix is materialized), costing O(n q) kernel evaluations.  An explicit
    ``inner_products`` array (one entry per mu level) replaces the values of
    ``cross_inner_many``: for Monte-Carlo inner products, pass
    ``mc_inner(kernel, mu, T, seed)[0]`` at each of ``grid.mu_levels``.
    """
    data = _checked_data(kernel, data)
    if grid.dim != kernel.dim:
        raise ValueError("grid dimension does not match kernel dimension")

    inner_products = _inner_products(kernel, grid, inner_products)
    s0 = float(np.sum(pdf_many(kernel, data)))
    sums = _direct_shift_sums(kernel, grid.mu_levels, data)
    sums.setflags(write=False)
    return ContrastTable(
        s0=s0,
        shift_sums=sums,
        inner_cache=inner_products,
        self_norm=self_inner(kernel),
        sample_size=data.shape[0],
    )


def contrast(theta: MixtureParams, table: ContrastTable, mu_index: int) -> float:
    """O(1) contrast at a grid point (theta.mu must be the level at mu_index)."""
    if not 0 <= mu_index < table.shift_sums.shape[0]:
        raise IndexError(f"mu_index {mu_index} out of range")
    at = slice(mu_index, mu_index + 1)
    gamma = _contrast_values(np.full(1, theta.lam), table, table.shift_sums[at], table.inner_cache[at])
    return float(gamma[0])


def contrast_naive(kernel: Kernel, theta: MixtureParams, data: np.ndarray) -> float:
    """Direct O(n) contrast evaluation, the testing oracle for the fast path."""
    data = _checked_data(kernel, data)
    mean_f = float(np.mean(mixture_pdf_many(kernel, theta, data)))
    return -2.0 * mean_f + mixture_l2_norm_sq(kernel, theta)


def _contrast_values(lam: np.ndarray, table: ContrastTable, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The contrast at lambda ``lam`` and the mu levels with shift sums ``s``
    and inner products ``c`` (broadcast together): the one expression every
    scan and ``contrast`` evaluate, so equal inputs give equal bits."""
    n = table.sample_size
    a0 = (-2.0 / n) * (1.0 - lam) * table.s0 + (lam ** 2 + (1.0 - lam) ** 2) * table.self_norm
    return a0 + (-2.0 / n) * lam * s + 2.0 * lam * (1.0 - lam) * c


def _scan_table(grid: Grid, table: ContrastTable) -> tuple[float, int, int]:
    """Exhaustive contrast scan; returns (value, lambda_index, mu_index).

    Works in mu-column chunks, tracking (best value, best flat index) with
    flat = lambda_index * q + mu_index, so the winner is identical to a
    sequential scan in canonical order and ties break lexicographically.
    A non-finite chunk minimum (the table holds nan or inf) raises
    ValueError instead of returning an arbitrary or missing grid point.
    """
    q = grid.mu_levels.shape[0]
    lam_col = grid.lambda_levels[:, None]
    cols = max(1, _SCAN_CHUNK_CELLS // lam_col.shape[0])
    best_val = math.inf
    best_flat = -1
    for j0 in range(0, q, cols):
        # gam[i, j] is the contrast at lambda index i and mu index j0 + j
        at = slice(j0, j0 + cols)
        gam = _contrast_values(lam_col, table, table.shift_sums[None, at], table.inner_cache[None, at])
        k = int(np.argmin(gam))  # first occurrence: smallest (lam, mu) index in chunk
        i, jj = divmod(k, gam.shape[1])
        val = float(gam[i, jj])
        if not math.isfinite(val):
            raise ValueError("the contrast table holds non-finite values")
        flat = i * q + (j0 + jj)
        if val < best_val or (val == best_val and flat < best_flat):
            best_val = val
            best_flat = flat
    return best_val, best_flat // q, best_flat % q


@dataclass(frozen=True)
class _LatticeSpec:
    """How one 1-d family's shift sums are taken on the lattice.

    A binned sample x = b h + r adds sum_p w_p(r) E_p((k - b) h) to the sum
    at level k h; the other fields are the family's terms of the bound eps.
    """

    kernel: Kernel
    far: float               # cutoff T: samples farther than T from every level are summed directly
    lip: float               # >= sup |phi'|, against the rounding of the offsets
    eval_abs: float          # rounding of precompute's pdf: eval_abs u per sample
    eval_rel: int            # plus (n + eval_rel) u times the largest sum
    weights: Callable        # r -> iterator over the moment weights w_p(r)
    weight_ulps: np.ndarray  # (P,): rounding of w_p(r) relative to |w_p|, in units of u
    weight_l1: Callable      # (m, r_max) -> (P,) bounds on ||A_p||_1 over m binned samples
    tables: Callable         # t -> ((P, len t) tables E_p(t), (P,) bound on each entry's rounding)
    sup_deriv: float         # sup |phi^(P)|, which bounds the Taylor remainder; 0: exact
    # d -> a bound on |phi(t)| for |t| >= d, so the tables reach R = ceil(T sqrt(n)) steps
    tail: Callable | None = None
    # (root, k_max, half, L, E_0's rounding, ||E_0||_1, ||E_0||_2) -> the bound
    # e of the lattice inner products; None: closed-form inner products
    inner_bound: Callable | None = None


def _psi_derivatives(x: np.ndarray, count: int):
    """psi^(j)(x) = (-1)^j He_j(x) psi(x) for j < count, psi the standard
    normal density, by He_{j+1} = x He_j - j He_{j-1}; and the same
    recurrence on absolute values times psi(x), which bounds their rounding."""
    he = [np.ones_like(x), x]
    habs = [np.ones_like(x), np.abs(x)]
    for j in range(1, count - 1):
        he.append(x * he[j] - j * he[j - 1])
        habs.append(np.abs(x) * habs[j] + j * habs[j - 1])
    psi = pdf_many(_GAUSS, x)
    for j in range(count):  # in place: the skew tables hold four such lists at once
        he[j] = (-1) ** j * he[j] * psi
        habs[j] = habs[j] * psi
    return he[:count], habs[:count]


def _taylor_spec(kernel: Kernel, order: int, **terms) -> _LatticeSpec:
    """A Taylor family: weights w_p(r) = r^p / p! for p < order against the
    tables E_p(t) = phi^(p)(-t), since phi(x - k h) = sum_p r^p / p!
    phi^(p)((b - k) h) + R_P."""
    orders = np.arange(order)
    factorials = np.array([math.factorial(p) for p in orders], dtype=float)

    def weights(r):
        term = np.ones_like(r)
        yield term
        for p in range(1, order):
            term = term * r / p
            yield term

    return _LatticeSpec(
        kernel=kernel,
        weights=weights,
        weight_ulps=2 * orders,
        weight_l1=lambda m, r_max: m * r_max ** orders / factorials,
        **terms,
    )


def _gaussian_tables(t: np.ndarray):
    derivs, bound = _psi_derivatives(-t, _GAUSS_ORDER)  # E_p(t) = phi^(p)(-t)
    orders = np.arange(_GAUSS_ORDER)[:, None]
    return np.array(derivs), _U * np.max((2 * orders + 8 + np.square(t)) * np.array(bound), axis=1)


def _cauchy_tables(t: np.ndarray):
    # phi^(p)(s) = (-1)^p p! Im[(s - i)^-(p+1)] / pi, taken at s = -t
    w = 1.0 / (-t - 1j)
    power = w
    tables = []
    for p in range(_CAUCHY_ORDER):
        tables.append((-1) ** p * math.factorial(p) / math.pi * power.imag)
        power = power * w
    # each complex product adds at most sqrt(5) u relative, and |w| <= 1
    orders = np.arange(_CAUCHY_ORDER)
    scale = np.array([math.factorial(p) for p in orders], dtype=float) / math.pi
    return np.array(tables), _U * (3 * orders + 10) * scale


def _laplace_weights(r: np.ndarray):
    yield np.exp(-r)          # b > k: |x - k h| = (b - k) h + r
    yield np.exp(r)           # b < k: |x - k h| = (k - b) h - r
    yield np.exp(-np.abs(r))  # b = k


def _laplace_tables(t: np.ndarray):
    # t = (k - b) h: one-sided e^-|t| / 2 for b > k and for b < k, and the b = k term
    half = pdf_many(Kernel("laplace"), t)
    tables = np.array([np.where(t < 0, half, 0.0), np.where(t > 0, half, 0.0), np.where(t == 0, 0.5, 0.0)])
    return tables, _U * np.max((2.0 + np.abs(t)) * tables, axis=1)


def _skew_spec(kernel: Kernel) -> _LatticeSpec:
    """The skew-Gaussian phi(t) = 2 psi(t) Psi(alpha t), by Leibniz on the
    derivatives psi^(j)(t) and d^k Psi(alpha t) = alpha^k psi^(k-1)(alpha t)."""
    alpha = kernel.alpha
    order = _SKEW_ORDER
    with np.errstate(over="ignore"):
        powers = np.float64(alpha) ** np.arange(order + 1)

    def tables(t):
        s = -t  # the kernel is not symmetric
        z = alpha * s
        # the derivatives of psi(s) and of Psi(z), and their bounds in
        # absolute value for the rounding of the tables
        dpsi, apsi = _psi_derivatives(s, order)
        dcdf, acdf = _psi_derivatives(z, order - 1)  # psi^(k-1)(z), rebound below
        cdf = normal_cdf(z)
        dcdf = [cdf] + [powers[k] * dcdf[k - 1] for k in range(1, order)]
        acdf = [cdf] + [abs(powers[k]) * acdf[k - 1] for k in range(1, order)]
        table = np.empty((order, t.shape[0]))
        err = np.empty(order)
        for p in range(order):
            table[p] = 2.0 * sum(math.comb(p, j) * dpsi[j] * dcdf[p - j] for j in range(p + 1))
            bound = 2.0 * sum(math.comb(p, j) * apsi[j] * acdf[p - j] for j in range(p + 1))
            err[p] = _U * np.max((4 * p + 24 + np.square(s) + np.square(z)) * bound)
        return table, err

    # Cramer: sup |psi^(j)| <= C sqrt(j!) / sqrt(2 pi); sup_deriv[p] >= sup |phi^(p)|
    cramer = [_CRAMER * math.sqrt(math.factorial(j)) / math.sqrt(2.0 * math.pi) for j in range(order + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        cdf_derivs = [1.0] + [abs(powers[k]) * cramer[k - 1] for k in range(1, order + 1)]
        sup_deriv = [
            2.0 * sum(math.comb(p, j) * cramer[j] * cdf_derivs[p - j] for j in range(p + 1))
            for p in range(order + 1)
        ]
        # sup |f^(4)| for f = phi phi_mu, by Leibniz: Simpson's error term
        sup_f4 = sum(math.comb(4, j) * sup_deriv[j] * sup_deriv[4 - j] for j in range(5))
    lip = 0.5 + abs(alpha) / math.pi
    eval_abs, eval_rel = 2.0, 16
    spread = math.hypot(1.0, alpha)  # |chi(t)| <= 1.6106 exp(-t^2 / (2 spread^2))

    def inner_bound(root, k_max, half, size, table_err, norm1, norm2):
        # e >= max_j |c~_j - c_j| against the Simpson values c_j of
        # ``cross_inner``; the module docstring derives each term
        h = 1.0 / root
        mu_max = k_max * h
        count = 2 * half + 1  # table entries
        # every term a rule leaves out or wraps has a factor phi(t) <= 2 psi(t)
        # at |t| >= 11, and the other factor at most _SKEW_SUP
        tail = 8.0 * _SKEW_SUP * (_PSI_11 + _GAUSS_TAIL_11) + 4.0 * mu_max * _PSI_12 ** 2
        # lattice: aliasing, the sum over j != 0 of |f^(2 pi j / h)| <= 0.7318
        # spread q^(j^2); the tail; table entries, with the rounding of m h;
        # FFT round-off; the product by h; the rounding of the mu levels
        q = math.exp(-((math.pi * root) / spread) ** 2)
        e = 2.0 * 0.7318 * spread * q / (1.0 - q ** 3) if q < 1.0 else math.inf
        tau = table_err + lip * _U * count * h
        e += tail + h * tau * (2.0 * norm1 + 3.0 * count * tau)
        e += h * (14.0 * math.log2(size) + 5.0) * _U * 2.0 * norm1 * norm2
        e += _U * _SKEW_SUP + 4.0 * _U * lip * mu_max
        # Simpson on a window of width <= `width`: its h^4 term and the window
        # tail; the rounding of its nodes, pdf values and products; then of
        # its dot product and scaling
        width = 2.0 * SIMPSON_HALF_WIDTH + mu_max
        simpson = width * (width / SIMPSON_PANELS) ** 4 * sup_f4 / 180.0 + tail
        node = 8.0 * _U * (width + mu_max)
        pdf_err = _U * (eval_abs + eval_rel * _SKEW_SUP)
        simpson += width * _SKEW_SUP * (2.0 * pdf_err + 2.0 * lip * node + _U * _SKEW_SUP)
        return e + simpson + (SIMPSON_PANELS + 8) * _U * (_SKEW_SUP + simpson)

    return _taylor_spec(
        kernel,
        order,
        far=12.0,
        lip=lip,
        eval_abs=eval_abs,
        eval_rel=eval_rel,
        tables=tables,
        sup_deriv=sup_deriv[order],
        tail=lambda d: 2.0 * _psi(d),
        inner_bound=inner_bound,
    )


_GAUSS_SPEC = _taylor_spec(
    _GAUSS,
    _GAUSS_ORDER,
    far=8.0,
    lip=0.25,
    eval_abs=0.5,
    eval_rel=6,
    tables=_gaussian_tables,
    sup_deriv=_CRAMER * math.sqrt(math.factorial(_GAUSS_ORDER) / (2.0 * math.pi)),
    tail=_psi,
)

_LAPLACE_SPEC = _LatticeSpec(
    kernel=Kernel("laplace"),
    far=12.0,
    lip=0.5,
    eval_abs=0.5,
    eval_rel=6,
    weights=_laplace_weights,
    weight_ulps=np.array([2, 2, 2]),
    weight_l1=lambda m, r_max: np.full(3, m * math.exp(r_max)),
    tables=_laplace_tables,
    sup_deriv=0.0,
)

_CAUCHY_SPEC = _taylor_spec(
    Kernel("cauchy"),
    _CAUCHY_ORDER,
    far=20.0,
    lip=0.25,
    eval_abs=0.5,
    eval_rel=8,
    tables=_cauchy_tables,
    sup_deriv=math.factorial(_CAUCHY_ORDER) / math.pi,
)

_SPECS = {"gaussian": _GAUSS_SPEC, "laplace": _LAPLACE_SPEC, "cauchy": _CAUCHY_SPEC}


@dataclass(frozen=True)
class _LatticePlan:
    """Everything data-independent of a 1-d scan for one (kernel, n, k_max):
    the family's spec, its transform tables and the grid's inner products."""

    spec: _LatticeSpec
    root: float            # sqrt(n); the lattice spacing is h = 1/root
    h: float
    bins: int              # K: samples are binned to b = -K..K
    reach: int             # R: the transform takes table offsets up to R
    tables: np.ndarray     # (P, 2 half + 1): E_p(m h) for m = -half..half, half = K + k_max
    spectra: dict          # FFT length L -> (P, L//2 + 1): rfft of the tables laid out for L
    norm1: np.ndarray      # (P,): ||E_p||_1
    norm2: np.ndarray      # (P,): ||E_p||_2
    peak: np.ndarray       # (P,): max |E_p|
    table_err: np.ndarray  # (P,): bound on the rounding of one entry of E_p
    inner: np.ndarray      # (q,): the closed forms, or the skew lattice c~_j
    inner_err: float       # e >= max_j |inner_j - c_j|, 0 for the closed forms


# Plans keyed by (kernel, n, k_max); a study runs one family at a few n.  The
# largest (Cauchy, n = 8000, M = 10) holds 0.34 MB of tables, 0.39 MB per L.
_LATTICE_PLANS: dict[tuple, _LatticePlan] = {}


def _lattice_plan(kernel: Kernel, grid: Grid) -> _LatticePlan:
    spec = _skew_spec(kernel) if kernel.family == "skew_gaussian" else _SPECS[kernel.family]
    k_max = grid.mu_levels.shape[0] // 2
    root = math.sqrt(grid.n)
    h = 1.0 / root
    steps = math.ceil(spec.far * root)
    bins = k_max + steps + 1
    half = bins + k_max  # table offsets m = -half..half cover every (b, k) pair
    t = np.arange(-half, half + 1) * h
    tables, table_err = spec.tables(t)
    tables.setflags(write=False)
    norm1 = np.sum(np.abs(tables), axis=1)
    norm2 = np.sqrt(np.sum(np.square(tables), axis=1))
    if spec.inner_bound is None:
        inner, err = cross_inner_many(kernel, grid.mu_levels), 0.0
    else:
        # c~(k h) = h sum_m phi(m h) phi((m - k) h) is the autocorrelation of
        # the whole E_0(t) = phi(-t) table, whose lag k sits at index k mod L
        size = 1 << (2 * half).bit_length()
        spectrum = np.fft.rfft(tables[0], size)
        corr = np.fft.irfft(spectrum * spectrum.conj(), size)
        inner = h * np.concatenate([corr[size - k_max :], corr[1 : k_max + 1]])
        err = spec.inner_bound(root, k_max, half, size, table_err[0], norm1[0], norm2[0])
        if not (err < math.inf and np.all(np.isfinite(inner))):
            err = math.inf
    inner.setflags(write=False)
    return _LatticePlan(
        spec=spec,
        root=root,
        h=h,
        bins=bins,
        reach=half if spec.tail is None else steps,
        tables=tables,
        spectra={},
        norm1=norm1,
        norm2=norm2,
        peak=np.max(np.abs(tables), axis=1),
        table_err=table_err,
        inner=inner,
        inner_err=err,
    )


def _grid_plan(kernel: Kernel, grid: Grid) -> _LatticePlan:
    """The memoised plan of a 1-d grid; its mu levels follow from (n, k_max)."""
    k_max = grid.mu_levels.shape[0] // 2
    return memo(_LATTICE_PLANS, (kernel, grid.n, k_max), lambda: _lattice_plan(kernel, grid), 4)


def _lattice_shift_sums(plan: _LatticePlan, grid: Grid, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift sums on a 1-d grid by the lattice transform of its ``plan``.

    Returns (sums, eps) with eps >= max_j |sums_j - S_j| for the sums S that
    ``precompute`` computes; the module docstring derives each term.  eps is
    inf when the transform gives a non-finite sum.
    """
    n = data.shape[0]
    k_max = grid.mu_levels.shape[0] // 2
    spec = plan.spec
    bins, reach = plan.bins, plan.reach
    is_near = np.abs(data) <= bins * plan.h
    near = data[is_near]
    b = np.rint(near * plan.root)
    r = near - b * plan.h
    m = near.shape[0]
    # the occupied bins (one empty bin when nothing is binned), fewer than L,
    # and the table offsets |t| <= w, laid out as the module docstring states
    b_lo, b_hi = (int(np.min(b)), int(np.max(b))) if m else (0, 0)
    size = 1 << max(b_hi + reach + k_max, k_max - b_lo + reach, b_hi - b_lo).bit_length()
    w, half = min(reach, size - reach - 1), plan.tables.shape[1] // 2
    spectra = memo(plan.spectra, size, lambda: np.fft.rfft(plan.tables[:, half - w : half + w + 1], size), 4)
    order = spectra.shape[0]
    moments = np.zeros((order, size))
    idx = (b - b_lo).astype(np.intp)
    for p, weight in enumerate(spec.weights(r)):
        moments[p, : b_hi - b_lo + 1] = np.bincount(idx, weights=weight, minlength=1)
    spectrum = np.fft.rfft(moments, axis=1)
    spectrum *= spectra
    spectrum = np.sum(spectrum, axis=0)
    levels = np.arange(w - b_lo - k_max, w - b_lo + k_max + 1)
    # k = 0 is not a mu level
    sums = np.delete(np.take(np.fft.irfft(spectrum, size), levels, mode="wrap"), k_max)

    r_max = float(np.max(np.abs(r))) if m else 0.0
    l1 = spec.weight_l1(m, r_max)  # >= ||A_p||_1
    l2 = np.sqrt(np.sum(np.square(moments), axis=1))
    # truncation; table reach; far samples; offset rounding; moment and table
    # rounding; FFT round-off; then the direct sum's own rounding
    eps = m * spec.sup_deriv * r_max ** order / math.factorial(order)
    if spec.tail is not None:  # the pairs with |k - b| > R lie (R + 1/2) h apart or more
        eps += m * spec.tail((reach + 0.5) * plan.h)
    far = data[~is_near]
    if far.size:
        sums += _direct_shift_sums(spec.kernel, grid.mu_levels, far)
    # rounding of the far samples' direct sums and of adding them
    eps += _U * (spec.eval_abs * far.size + (far.size + spec.eval_rel + 1) * float(np.max(np.abs(sums))))
    eps += spec.lip * m * 8.0 * _U * (bins + k_max + 1) * plan.h
    eps += float(np.sum(l1 * ((m + spec.weight_ulps) * _U * plan.peak + plan.table_err)))
    fft_gain = (14.0 * math.log2(size) + order + 4) * _U
    eps += fft_gain * float(np.sum(l2 * plan.norm1 + l1 * plan.norm2))
    eps += _U * (spec.eval_abs * n + (n + spec.eval_rel) * (float(np.max(np.abs(sums))) + eps))
    if not (eps < math.inf and np.all(np.isfinite(sums))):
        eps = math.inf
    return sums, eps


def _column_minima(grid: Grid, table: ContrastTable) -> np.ndarray:
    """Each mu column's least contrast over lambda, from two lambda levels.

    For fixed mu_j the contrast is a quadratic in lambda with leading
    coefficient 2 c_j, c_j = ||phi||^2 - <phi, phi_mu_j>, and vertex 1/2 +
    (S_j - s0) / (2 n c_j).  A convex column (c_j > 0; the sign of the
    rounded difference is exact) takes its least grid value at one of the two
    levels around the vertex, any other column at an end level; those two
    levels are evaluated with ``_contrast_values``.
    """
    lam = grid.lambda_levels
    p = lam.shape[0]
    curvature = table.self_norm - table.inner_cache
    vertex = 0.5 + (table.shift_sums - table.s0) / (2.0 * table.sample_size * curvature)
    # index of the largest level <= vertex, the levels being (i + 1) / sqrt(n);
    # fmin and fmax also send a nan vertex to a valid index
    lo = np.fmax(np.fmin(np.floor(vertex * math.sqrt(grid.n)) - 1.0, p - 2), 0.0).astype(np.intp)
    rows = np.where(curvature > 0.0, [lo, lo + 1], [[0], [p - 1]])
    return _contrast_values(lam[rows], table, table.shift_sums, table.inner_cache).min(axis=0)


def _approximate(kernel: Kernel, grid: Grid, data: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(sums, eps, inner, inner_err): shift sums within eps of ``precompute``'s
    and inner products within inner_err of ``cross_inner``'s (module docstring)."""
    if grid.dim == 1:
        plan = _grid_plan(kernel, grid)
        return (*_lattice_shift_sums(plan, grid, data), plan.inner, plan.inner_err)
    n = data.shape[0]
    sums = _direct_shift_sums(kernel, grid.mu_levels, data)
    # the rounding of a sum in any order, for these sums and the recompute's;
    # the exact max_j S_j is at most s_max + eps
    s_max = float(np.max(sums))
    eps = _U * (0.5 * n + (n + grid.dim + 6) * s_max)
    eps = 2.0 * _U * (0.5 * n + (n + grid.dim + 6) * (s_max + eps))
    return sums, eps, cross_inner_many(kernel, grid.mu_levels), 0.0


def _certified_scan(
    kernel: Kernel, grid: Grid, data: np.ndarray, inner_products: np.ndarray | None = None
) -> tuple[float, int, int]:
    """``_scan_table(grid, precompute(...))`` bit for bit, from approximate
    sums and inner products and an exact recompute of the candidate columns."""
    n = data.shape[0]
    # overflowing skew tables (a huge alpha) give eps = inf, so every column
    # is recomputed; a flat column (an explicit inner product equal to
    # ||phi||^2) has no vertex and takes its least value at an end level
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sums, eps, inner, inner_err = _approximate(kernel, grid, data)
        if inner_products is not None:  # explicit inner products are exact
            inner, inner_err = _inner_products(kernel, grid, inner_products), 0.0
        approx = ContrastTable(
            s0=float(np.sum(pdf_many(kernel, data))),
            shift_sums=sums,
            inner_cache=inner,
            self_norm=self_inner(kernel),
            sample_size=n,
        )
        col_min = _column_minima(grid, approx)
    # |gamma~ - gamma| <= (2/n) eps + 2 lam (1 - lam) inner_err, with
    # 2 lam (1 - lam) <= 1/2, plus a few roundings of terms of size `scale`
    # in each of the two evaluations and in the comparison below
    s_bound = float(np.max(np.abs(sums))) + eps
    c_bound = float(np.max(np.abs(inner))) + inner_err
    scale = (2.0 / n) * (approx.s0 + s_bound) + approx.self_norm + 0.5 * c_bound
    delta = 2.0 * eps / n + 0.5 * inner_err + 16.0 * _U * scale
    # A column minimum may exceed the column's least value by rho: by the
    # rounding of two evaluated values that lie off the quadratic, and by
    # a (24 u)^2 with a = 2 (||phi||^2 - <phi, phi_mu>) <= 4 scale when the
    # rounded vertex, within 8 u (1 + |vertex|) <= 24 u of the exact one on
    # [-1, 2], crosses a level (beyond that range both leave the grid on
    # the same side).
    rho = 16.0 * _U * scale + 4.0 * scale * (24.0 * _U) ** 2
    # a non-finite column (non-finite inner products) is always recomputed,
    # so the exact scan sees it as the direct path does
    finite = np.isfinite(col_min)
    cut = float(np.min(col_min[finite])) + 2.0 * delta + rho if finite.any() else math.inf
    cols = np.flatnonzero(~finite | (col_min <= cut))
    sub = Grid(lambda_levels=grid.lambda_levels, mu_levels=grid.mu_levels[cols], n=grid.n)
    exact = cross_inner_many(kernel, sub.mu_levels) if inner_err > 0.0 else inner[cols]
    val, i, jj = _scan_table(sub, precompute(kernel, sub, data, inner_products=exact))
    return val, i, int(cols[jj])


def estimate(
    kernel: Kernel,
    data: np.ndarray,
    M: float,
    inner_products: np.ndarray | None = None,
) -> EstimateResult:
    """Minimize the contrast over the grid built for n = len(data) and bound M.

    Every dimension goes through the certified scan, with lattice sums in
    d = 1 and direct sums in d > 1; both give the bits of ``precompute`` and
    ``_scan_table``.
    """
    data = _checked_data(kernel, data)
    grid = build_grid(data.shape[0], M, kernel.dim)
    val, i, j = _certified_scan(kernel, grid, data, inner_products)
    return EstimateResult(
        lambda_hat=float(grid.lambda_levels[i]),
        mu_hat=np.array(grid.mu_levels[j], ndmin=1),
        contrast_value=val,
        lambda_index=i,
        mu_index=j,
    )
