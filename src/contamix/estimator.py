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

Gaussian shift sums on the lattice.  In dimension 1 the mu levels are the
lattice points k h, h = 1/sqrt(n), 1 <= |k| <= k_max, so for the Gaussian
family ``estimate`` does not fill the O(n q) table.  Each sample within T = 12
of some mu level is binned to its nearest lattice point, x = b h + r with
|b| <= K = k_max + ceil(T sqrt(n)) + 1 and |r| <= h/2, so the bin array has a
fixed size whatever the data; phi is Taylor-expanded about the bin centre:

    phi(x - k h) = sum_{p < P} r^p / p! phi^(p)((b - k) h) + R_P.

With per-bin moments A_p[b] = sum r^p / p! (one ``np.bincount`` each) the
sums become S(k h) = sum_p sum_b A_p[b] phi^(p)((b - k) h), P = 8 discrete
convolutions against the tables phi^(p)(m h) = (-1)^p He_p(m h) phi(m h),
done with real FFTs.  The transform also returns an a-priori bound
eps >= max_j |S~_j - S_j|, where S_j is the value ``precompute`` computes
(u = 2^-53 is the unit roundoff).  eps is the sum of

* the Taylor remainder: by Cramer's bound |He_P(t)| e^{-t^2/4} <= 1.086435
  sqrt(P!), |R_P| <= 1.086435 r_max^P / sqrt(2 pi P!) per binned sample;
* the samples farther than T from every mu level, which are not binned and
  add at most phi(T) each;
* the rounding of the lattice offsets r and m h and of the mu levels, a shift
  of at most 8 u (K + k_max + 1) h per sample against |phi'| <= 1/4;
* the rounding in the moments and in the He_p phi tables;
* FFT round-off, (14 log2 L + P + 4) u (||A_p||_2 ||E_p||_1 + ||A_p||_1
  ||E_p||_2) summed over p, for the tables E_p = He_p phi and FFT length L;
* the rounding of the direct sum itself, u (0.5 n + (n + 6) max_j S_j).

At n = 5000 eps is about 3e-9.  The certified scan evaluates the contrast
from the approximate sums, whose error is at most delta = (2/n) eps plus the
rounding slack of the two evaluations.  Every mu column whose minimum over
lambda lies within 2 delta of the global minimum may hold the exact minimum
or one of its ties; those columns (usually one) are recomputed by
``precompute`` on that sub-grid and scanned by ``_scan_table``.  The other
columns are strictly worse, so ``(lambda_index, mu_index, contrast_value)``
is bit-identical to a full ``precompute`` and ``_scan_table`` run.  Other
families, d > 1 and explicit ``inner_products`` use that direct path.
"""

from dataclasses import dataclass
import math

import numpy as np

from .kernels import Kernel, cross_inner_many, memo, pdf_many, self_inner
from .mixture import MixtureParams, mixture_l2_norm_sq, mixture_pdf_many

__all__ = [
    "Grid",
    "ContrastTable",
    "EstimateResult",
    "build_grid",
    "precompute",
    "contrast",
    "contrast_naive",
    "estimate",
]

MAX_GRID_POINTS = 10 ** 9

# rows-per-chunk targets keep temporaries around a few MB
_SHIFT_CHUNK_CELLS = 1 << 18
_SCAN_CHUNK_CELLS = 1 << 20

# Lattice transform: Taylor order P, far-sample cutoff T, Cramer's constant
# for |He_P(t)| exp(-t^2/4) <= C sqrt(P!), unit roundoff u.  P = 8 puts the
# Taylor remainder below 1e-16 per sample for n >= 1000; the rounding terms
# dominate eps there.
_TAYLOR_ORDER = 8
_FAR = 12.0
_CRAMER = 1.086435
_U = 2.0 ** -53
_GAUSS = Kernel("gaussian")


@dataclass(frozen=True)
class Grid:
    """Candidate (lambda, mu) levels for a sample size n and shift bound M."""

    lambda_levels: np.ndarray  # (p,), i/sqrt(n) for i = 1..floor(sqrt(n))
    mu_levels: np.ndarray      # (q,) in dim 1, (q, d) otherwise
    n: int
    M: float

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


def build_grid(n: int, M: float, d: int = 1) -> Grid:
    """Build the estimation grid for sample size n, shift bound M, dimension d.

    sqrt(n) is taken as the real square root (spacing exactly 1/sqrt(n));
    index bounds are floored.  In d > 1 the mu levels are the full Cartesian
    product of the one-dimensional levels.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if not 0.0 < M < math.inf:
        raise ValueError(f"M must be positive and finite, got {M}")
    if d < 1:
        raise ValueError("d must be a positive integer")
    root = math.sqrt(n)
    p = math.isqrt(n)
    # tiny nudge guards against M*sqrt(n) landing one ulp under an integer
    k_max = math.floor(M * root + 1e-12)
    if k_max < 1:
        raise ValueError(f"M sqrt(n) < 1: the mu grid is empty (M={M}, n={n})")
    if (2 * k_max) ** d * p > MAX_GRID_POINTS:
        raise ValueError(
            f"grid would hold {(2 * k_max) ** d * p} points (> {MAX_GRID_POINTS}); "
            "reduce M, n or d"
        )
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
    return Grid(lambda_levels=lam, mu_levels=mu, n=n, M=float(M))


# Per-grid inner products depend only on (kernel, grid), not on the data, so
# they are shared across replicates (and filled once, see ``kernels.memo``).
_INNER_CACHE: dict[tuple, np.ndarray] = {}


def _grid_inner_products(kernel: Kernel, grid: Grid) -> np.ndarray:
    def fill():
        vals = cross_inner_many(kernel, grid.mu_levels)
        vals.setflags(write=False)
        return vals

    return memo(_INNER_CACHE, (kernel, grid.n, grid.M, grid.dim), fill, 16)


def _require_finite(data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values (nan or inf)")


def precompute(
    kernel: Kernel,
    grid: Grid,
    data: np.ndarray,
    inner_products: np.ndarray | None = None,
) -> ContrastTable:
    """Fill the ContrastTable for a dataset.

    Shift sums are streamed over mu levels in fixed-size chunks (no n x q
    matrix is materialized), costing O(n q) kernel evaluations.  An explicit
    ``inner_products`` array (one entry per mu level) replaces the default
    per-grid inner products; the Monte-Carlo fidelity mode of the simulation
    harness uses this hook.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if n == 0:
        raise ValueError("data must be nonempty")
    if kernel.dim == 1:
        if data.ndim != 1:
            raise ValueError(f"expected 1-d data for dim 1, got shape {data.shape}")
    elif data.ndim != 2 or data.shape[1] != kernel.dim:
        raise ValueError(f"expected data of shape (n, {kernel.dim}), got {data.shape}")
    if grid.dim != kernel.dim:
        raise ValueError("grid dimension does not match kernel dimension")
    _require_finite(data)

    q = grid.mu_levels.shape[0]
    if inner_products is None:
        inner_products = _grid_inner_products(kernel, grid)
    else:
        inner_products = np.asarray(inner_products, dtype=float)
        if inner_products.shape != (q,):
            raise ValueError(f"inner_products must have shape ({q},), got {inner_products.shape}")

    s0 = float(np.sum(pdf_many(kernel, data)))
    sums = np.empty(q)
    rows = max(1, _SHIFT_CHUNK_CELLS // n)
    for j0 in range(0, q, rows):
        chunk = grid.mu_levels[j0 : j0 + rows]
        if kernel.dim == 1:
            diff = data[None, :] - chunk[:, None]
        else:
            diff = data[None, :, :] - chunk[:, None, :]
        sums[j0 : j0 + rows] = np.sum(pdf_many(kernel, diff), axis=1)
    sums.setflags(write=False)
    return ContrastTable(
        s0=s0,
        shift_sums=sums,
        inner_cache=inner_products,
        self_norm=self_inner(kernel),
        sample_size=n,
    )


def contrast(theta: MixtureParams, table: ContrastTable, mu_index: int) -> float:
    """O(1) contrast at a grid point (theta.mu must be the level at mu_index)."""
    if not 0 <= mu_index < table.shift_sums.shape[0]:
        raise IndexError(f"mu_index {mu_index} out of range")
    lam = theta.lam
    n = table.sample_size
    data_term = (1.0 - lam) * table.s0 + lam * table.shift_sums[mu_index]
    norm_term = (lam * lam + (1.0 - lam) ** 2) * table.self_norm
    cross_term = 2.0 * lam * (1.0 - lam) * table.inner_cache[mu_index]
    return -2.0 / n * float(data_term) + norm_term + float(cross_term)


def contrast_naive(kernel: Kernel, theta: MixtureParams, data: np.ndarray) -> float:
    """Direct O(n) contrast evaluation, the testing oracle for the fast path."""
    data = np.asarray(data, dtype=float)
    if data.shape[0] == 0:
        raise ValueError("data must be nonempty")
    mean_f = float(np.mean(mixture_pdf_many(kernel, theta, data)))
    return -2.0 * mean_f + mixture_l2_norm_sq(kernel, theta)


def _contrast_chunks(grid: Grid, table: ContrastTable):
    """Yield (j0, gamma) over mu-column chunks; gamma[i, j] is the contrast at
    lambda index i and mu index j0 + j."""
    lam_col = grid.lambda_levels[:, None]
    n = table.sample_size
    a0 = (-2.0 / n) * (1.0 - lam_col) * table.s0 + (lam_col ** 2 + (1.0 - lam_col) ** 2) * table.self_norm
    cols = max(1, _SCAN_CHUNK_CELLS // lam_col.shape[0])
    for j0 in range(0, table.shift_sums.shape[0], cols):
        s_chunk = table.shift_sums[j0 : j0 + cols]
        c_chunk = table.inner_cache[j0 : j0 + cols]
        yield j0, a0 + (-2.0 / n) * lam_col * s_chunk[None, :] + 2.0 * lam_col * (1.0 - lam_col) * c_chunk[None, :]


def _scan_table(grid: Grid, table: ContrastTable) -> tuple[float, int, int]:
    """Exhaustive contrast scan; returns (value, lambda_index, mu_index).

    Works in mu-column chunks, tracking (best value, best flat index) with
    flat = lambda_index * q + mu_index, so the winner is identical to a
    sequential scan in canonical order and ties break lexicographically.
    A non-finite chunk minimum (the table holds nan or inf) raises
    ValueError instead of returning an arbitrary or missing grid point.
    """
    q = grid.mu_levels.shape[0]
    best_val = math.inf
    best_flat = -1
    for j0, gam in _contrast_chunks(grid, table):
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
class _LatticePlan:
    """Data-independent parts of the lattice transform for one (n, k_max)."""

    root: float            # sqrt(n); the lattice spacing is h = 1/root
    h: float
    bins: int              # K: samples are binned to b = -K..K
    size: int              # FFT length L
    spectra: np.ndarray    # (P, L//2 + 1): rfft of the tables E_p(t) = He_p(t) phi(t)
    norm1: np.ndarray      # (P,): ||E_p||_1
    norm2: np.ndarray      # (P,): ||E_p||_2
    peak: np.ndarray       # (P,): max |E_p|
    table_err: np.ndarray  # (P,): bound on the rounding of one entry of E_p


_LATTICE_PLANS: dict[tuple, _LatticePlan] = {}


def _lattice_plan(n: int, k_max: int) -> _LatticePlan:
    root = math.sqrt(n)
    h = 1.0 / root
    bins = k_max + math.ceil(_FAR * root) + 1
    half = bins + k_max  # table offsets m = -half..half cover every (b, k) pair
    size = 1 << (2 * half).bit_length()
    t = np.arange(-half, half + 1) * h
    phi = pdf_many(_GAUSS, t)
    # He_{p+1} = t He_p - p He_{p-1}; habs has the absolute coefficients and
    # bounds the rounding of the recurrence
    he = [np.ones_like(t), t]
    habs = [np.ones_like(t), np.abs(t)]
    for p in range(1, _TAYLOR_ORDER - 1):
        he.append(t * he[p] - p * he[p - 1])
        habs.append(np.abs(t) * habs[p] + p * habs[p - 1])
    tables = np.array(he) * phi
    orders = np.arange(_TAYLOR_ORDER)[:, None]
    table_err = _U * np.max((2 * orders + 8 + np.square(t)) * np.array(habs) * phi, axis=1)
    padded = np.zeros((_TAYLOR_ORDER, size))
    padded[:, : 2 * half + 1] = tables
    spectra = np.fft.rfft(padded, axis=1)
    spectra.setflags(write=False)
    return _LatticePlan(
        root=root,
        h=h,
        bins=bins,
        size=size,
        spectra=spectra,
        norm1=np.sum(np.abs(tables), axis=1),
        norm2=np.sqrt(np.sum(np.square(tables), axis=1)),
        peak=np.max(np.abs(tables), axis=1),
        table_err=table_err,
    )


def _lattice_shift_sums(grid: Grid, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Gaussian shift sums on a 1-d grid by the lattice transform.

    Returns (sums, eps) with eps >= max_j |sums_j - S_j| for the sums S that
    ``precompute`` computes; the module docstring derives each term.
    """
    n = data.shape[0]
    k_max = grid.mu_levels.shape[0] // 2
    plan = memo(_LATTICE_PLANS, (grid.n, k_max), lambda: _lattice_plan(grid.n, k_max), 4)
    bins = plan.bins
    near = data[np.abs(data) <= bins * plan.h]
    b = np.rint(near * plan.root)
    r = near - b * plan.h
    idx = (b + bins).astype(np.intp)
    moments = np.zeros((_TAYLOR_ORDER, plan.size))
    moments[0, : 2 * bins + 1] = np.bincount(idx, minlength=2 * bins + 1)
    term = np.ones_like(r)
    for p in range(1, _TAYLOR_ORDER):
        term = term * r / p
        moments[p, : 2 * bins + 1] = np.bincount(idx, weights=term, minlength=2 * bins + 1)
    spectrum = np.sum(np.fft.rfft(moments, axis=1) * plan.spectra, axis=0)
    # the k-th level's sum sits at offset 2K + k_max + k of the convolution;
    # k = 0 is not a mu level
    conv = np.fft.irfft(spectrum, plan.size)[2 * bins : 2 * bins + 2 * k_max + 1]
    sums = np.delete(conv, k_max)

    m = near.shape[0]
    r_max = float(np.max(np.abs(r))) if m else 0.0
    orders = np.arange(_TAYLOR_ORDER)
    l1 = m * r_max ** orders / np.array([math.factorial(p) for p in orders], dtype=float)  # >= ||A_p||_1
    l2 = np.sqrt(np.sum(np.square(moments), axis=1))
    # Taylor remainder; far samples; offset rounding; moment and table
    # rounding; FFT round-off; then the direct sum's own rounding
    eps = m * _CRAMER * r_max ** _TAYLOR_ORDER / math.sqrt(2.0 * math.pi * math.factorial(_TAYLOR_ORDER))
    eps += 2.0 * (n - m) * float(pdf_many(_GAUSS, _FAR))
    eps += 0.25 * m * 8.0 * _U * (bins + k_max + 1) * plan.h
    eps += float(np.sum(l1 * ((m + 2 * orders) * _U * plan.peak + plan.table_err)))
    fft_gain = (14.0 * math.log2(plan.size) + _TAYLOR_ORDER + 4) * _U
    eps += fft_gain * float(np.sum(l2 * plan.norm1 + l1 * plan.norm2))
    eps += _U * (0.5 * n + (n + 6) * (float(np.max(np.abs(sums))) + eps))
    return sums, eps


def _certified_scan(kernel: Kernel, grid: Grid, data: np.ndarray) -> tuple[float, int, int]:
    """``_scan_table(grid, precompute(...))`` for the 1-d Gaussian, bit for bit,
    with lattice-transform sums and an exact recompute of the candidate columns."""
    n = data.shape[0]
    sums, eps = _lattice_shift_sums(grid, data)
    inner = _grid_inner_products(kernel, grid)
    approx = ContrastTable(
        s0=float(np.sum(pdf_many(kernel, data))),
        shift_sums=sums,
        inner_cache=inner,
        self_norm=self_inner(kernel),
        sample_size=n,
    )
    col_min = np.concatenate([gam.min(axis=0) for _, gam in _contrast_chunks(grid, approx)])
    # |gamma~ - gamma| <= (2/n) eps, plus a few roundings of terms of size
    # `scale` in each of the two evaluations and in the comparison below
    s_bound = float(np.max(np.abs(sums))) + eps
    scale = (2.0 / n) * (approx.s0 + s_bound) + approx.self_norm + 0.5 * float(np.max(np.abs(inner)))
    delta = 2.0 * eps / n + 16.0 * _U * scale
    cols = np.flatnonzero(col_min <= col_min.min() + 2.0 * delta)
    sub = Grid(lambda_levels=grid.lambda_levels, mu_levels=grid.mu_levels[cols], n=grid.n, M=grid.M)
    val, i, jj = _scan_table(sub, precompute(kernel, sub, data, inner_products=inner[cols]))
    return val, i, int(cols[jj])


def estimate(
    kernel: Kernel,
    data: np.ndarray,
    M: float,
    inner_products: np.ndarray | None = None,
) -> EstimateResult:
    """Minimize the contrast over the grid built for n = len(data) and bound M.

    The 1-d Gaussian goes through the certified lattice scan, every other
    case through ``precompute`` and ``_scan_table``; both give the same bits.
    """
    data = np.asarray(data, dtype=float)
    _require_finite(data)
    n = data.shape[0]
    grid = build_grid(n, M, kernel.dim)
    if kernel.family == "gaussian" and kernel.dim == 1 and data.ndim == 1 and inner_products is None:
        val, i, j = _certified_scan(kernel, grid, data)
    else:
        val, i, j = _scan_table(grid, precompute(kernel, grid, data, inner_products))
    mu_hat = np.atleast_1d(np.asarray(grid.mu_levels[j], dtype=float)).copy()
    return EstimateResult(
        lambda_hat=float(grid.lambda_levels[i]),
        mu_hat=mu_hat,
        contrast_value=val,
        lambda_index=i,
        mu_index=j,
    )
