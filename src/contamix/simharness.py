"""Replicated Monte-Carlo estimation studies and their CSV emission.

An experiment is a declarative config: a kernel, a true contamination level
lambda_star, and either a list of difficulty exponents nu (phase_transition
mode, fixed n, shift mu_star = sqrt(1 / (lambda_star n^nu))) or a list of
sample sizes (rate_scaling mode, fixed shift via ``mu_star_override`` or a
single nu).  Every (cell, replicate) pair is an independent work item whose
RNG seed is derived from (master_seed, cell_index, rep_index) by a
splitmix-style 64-bit mix, so results are reproducible replicate-by-replicate
and independent of the order in which the replicates run.

Outputs: a summary table of per-cell mean squared errors and the raw
per-replicate estimates, both writable as CSV.  The summary header is
``nu,mu_star,n,replicates,mse_lambda,mse_mu``; the raw header is
``nu,rep,lambda_hat,mu_hat`` in phase_transition mode and
``n,rep,lambda_hat,mu_hat`` in rate_scaling mode (cells are keyed by n there).
Numbers are written in shortest round-trip decimal form.
"""

from dataclasses import astuple, dataclass, fields
import math

import numpy as np

from .estimator import estimate, grid_levels
from .kernels import Kernel
from .mixture import MixtureParams, sample_mixture

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SummaryRow",
    "ExperimentResult",
    "replicate_seed",
    "run_replicate",
    "run_experiment",
    "emit_csv",
    "write_csv",
    "load_config",
]

MODES = ("phase_transition", "rate_scaling")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


DEFAULT_NU_LADDER = tuple(a / 24 for a in range(1, 25))

# The most (cell, replicate) tasks a study may hold: it keeps every estimate,
# about 160 B each and 370 B at the peak, so 10^6 tasks peak near 0.4 GB.
MAX_TASKS = 10 ** 6


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: Kernel
    n: int
    lambda_star: float
    nu_values: tuple = ()
    M: float = 10.0
    replicates: int = 200
    master_seed: int = 0
    mode: str = "phase_transition"
    n_values: tuple | None = None
    mu_star_override: float | None = None

    def __post_init__(self):
        if self.kernel.dim != 1:
            raise ConfigError("experiments are one-dimensional")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.lambda_star < 1.0:
            raise ConfigError("lambda_star must lie in (0, 1)")
        if not 0 <= self.master_seed < 2 ** 64:  # _mix64 would alias a larger seed
            raise ConfigError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.mode == "phase_transition":
            if not self.nu_values:
                object.__setattr__(self, "nu_values", DEFAULT_NU_LADDER)
            if self.n_values is not None:
                raise ConfigError("n_values is for rate_scaling; phase_transition runs every cell at n")
        else:
            if not self.n_values:
                raise ConfigError("rate_scaling needs a nonempty n_values list")
            if len(self.nu_values) != (1 if self.mu_star_override is None else 0):
                raise ConfigError(
                    "rate_scaling takes either mu_star_override or a single value in nu_values, not both"
                )
        if any(not 0.0 < nu <= 1.0 for nu in self.nu_values):
            raise ConfigError("nu values must lie in (0, 1]")
        most = MAX_TASKS // len(self.cells())
        if not 1 <= self.replicates <= most:
            raise ConfigError(f"replicates must lie in [1, {most}] (MAX_TASKS = {MAX_TASKS} over all cells)")
        for n in sorted({n for _, _, n in self.cells()}):
            try:
                grid_levels(n, self.M, 1)
            except ValueError as exc:
                raise ConfigError(f"no estimation grid for n={n}: {exc}") from None
        for _, nu, n in self.cells():
            mu = self.mu_star(nu, n)
            if not abs(mu) <= self.M:  # also refuses nan
                raise ConfigError(
                    f"mu_star {mu:.4g} lies outside [-M, M] for M={self.M} (nu={nu}, n={n})"
                )

    def mu_star(self, nu: float, n: int) -> float:
        if self.mu_star_override is not None:
            return float(self.mu_star_override)
        return math.sqrt(1.0 / (self.lambda_star * n ** nu))

    def cells(self):
        """(index, nu, n) triples; cells vary over nu or over n depending on mode.

        In rate_scaling mode nu is 0.0 when ``mu_star_override`` fixes the shift.
        """
        if self.mode == "phase_transition":
            return [(i, float(nu), self.n) for i, nu in enumerate(self.nu_values)]
        nu = 0.0 if self.mu_star_override is not None else float(self.nu_values[0])
        return [(i, nu, int(n)) for i, n in enumerate(self.n_values)]


@dataclass(frozen=True)
class SummaryRow:
    nu: float
    mu_star: float
    n: int
    replicates: int
    mse_lambda: float
    mse_mu: float


@dataclass(frozen=True)
class ExperimentResult:
    key_name: str            # "nu" or "n": first column of the raw file
    rows: tuple              # SummaryRow per cell
    raw: tuple               # (nu or n, rep, lambda_hat, mu_hat) per replicate


# ----------------------------- seeding -----------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(*parts: int) -> int:
    """Fold integers into a 64-bit value with splitmix64 finalization rounds.

    Each part is xor-ed into the accumulator, which is then advanced by the
    golden-ratio increment 0x9E3779B97F4A7C15 and scrambled with the
    splitmix64 constants 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB.  Stable
    across versions by construction; do not change the constants.
    """
    acc = 0
    for part in parts:
        acc = (acc ^ (part & _MASK64)) & _MASK64
        acc = (acc + _GAMMA) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        acc = z ^ (z >> 31)
    return acc


def replicate_seed(master_seed: int, nu_index: int, rep_index: int) -> int:
    """Counter-based per-replicate seed, independent of scheduling."""
    return _mix64(master_seed, nu_index, rep_index)


# ----------------------------- execution -----------------------------


def run_replicate(config: ExperimentConfig, nu_index: int, rep_index: int):
    """One estimation run; returns (lambda_hat, mu_hat) as floats.

    The replicate seed is ``replicate_seed(master_seed, nu_index, rep_index)``;
    in rate_scaling mode the first index selects the n-value cell.
    """
    cells = config.cells()
    if not 0 <= nu_index < len(cells):
        raise IndexError(f"cell index {nu_index} out of range")
    if not 0 <= rep_index < config.replicates:
        raise IndexError(f"replicate index {rep_index} out of range")
    _, nu, n = cells[nu_index]
    mu_star = config.mu_star(nu, n)
    theta = MixtureParams(config.lambda_star, mu_star)
    seed = replicate_seed(config.master_seed, nu_index, rep_index)
    data = sample_mixture(config.kernel, theta, n, seed)
    result = estimate(config.kernel, data, config.M)
    return result.lambda_hat, float(result.mu_hat[0])


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (cell, replicate) work item in index order on the calling
    thread and aggregate per-cell MSEs.

    MSE(lambda) = mean (lambda_hat - lambda_star)^2 and likewise for mu.
    Each replicate is looked up as the module's ``run_replicate``, so a
    wrapper set on that name sees every call.
    """
    cells = config.cells()
    reps = config.replicates
    estimates = [run_replicate(config, ci, ri) for ci in range(len(cells)) for ri in range(reps)]

    key_name = "nu" if config.mode == "phase_transition" else "n"
    rows = []
    raw = []
    for ci, (_, nu, n) in enumerate(cells):
        mu_star = config.mu_star(nu, n)
        cell = np.array(estimates[ci * reps:(ci + 1) * reps])  # (lambda_hat, mu_hat) rows
        rows.append(
            SummaryRow(
                nu=nu,
                mu_star=mu_star,
                n=n,
                replicates=reps,
                mse_lambda=float(np.mean((cell[:, 0] - config.lambda_star) ** 2)),
                mse_mu=float(np.mean((cell[:, 1] - mu_star) ** 2)),
            )
        )
        key = nu if key_name == "nu" else n
        raw.extend((key, ri, lh, mh) for ri, (lh, mh) in enumerate(cell.tolist()))
    return ExperimentResult(key_name=key_name, rows=tuple(rows), raw=tuple(raw))


# ----------------------------- CSV emission -----------------------------


# Rows per block when ``write_csv`` formats a float array: each block holds
# its rows' text at once, so memory stays bounded for any surface.
_CSV_BLOCK_ROWS = 1024


def _format_block(block: np.ndarray) -> str:
    """CSV lines of a 2-d float block, each value by ``str`` as a Python float.

    Each column calls ``str`` once per distinct value, told apart by its bits
    (so -0.0 and 0.0 stay apart); a column of distinct values is formatted in
    row order.
    """
    columns = []
    for col in block.T:
        keys, where = np.unique(col.view(np.int64), return_inverse=True)
        if keys.size == col.size:
            columns.append(list(map(str, col.tolist())))
        else:
            text = np.array(list(map(str, keys.view(np.float64).tolist())), dtype=object)
            columns.append(text[where].tolist())
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_csv(path, kind: str, header, rows) -> None:
    """Write a header and rows, each value by ``str`` (the shortest round-trip
    decimal of a float); an OSError names ``kind`` and the path.

    ``rows`` is an iterable of rows of Python floats and ints, or a 2-d
    float64 array, which is formatted in blocks of ``_CSV_BLOCK_ROWS`` rows.
    """
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
                starts = range(0, rows.shape[0], _CSV_BLOCK_ROWS)
                fh.writelines(_format_block(rows[s:s + _CSV_BLOCK_ROWS]) for s in starts)
            else:
                fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {kind} CSV {path}: {exc}") from exc


def emit_csv(result: ExperimentResult, summary_path, raw_path=None) -> None:
    """Write the summary CSV (and the raw CSV when a path is given)."""
    header = [field.name for field in fields(SummaryRow)]
    write_csv(summary_path, "summary", header, map(astuple, result.rows))
    if raw_path is not None:
        write_csv(raw_path, "raw", (result.key_name, "rep", "lambda_hat", "mu_hat"), result.raw)


# ----------------------------- config files -----------------------------


def _integer(text: str) -> int:
    """An int key's value: an integer, or a float with no fractional part."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _listed(convert):
    """Conversion of a comma-separated list (or a single value) to a tuple."""
    return lambda text: tuple(convert(item.strip()) for item in text.split(","))


# config key -> (conversion of its text, required).  Every key but alpha,
# which goes to the Kernel, is the ExperimentConfig field of that name;
# required keys are checked in this order.
_CONFIG_KEYS = {
    "kernel": (str, True),
    "alpha": (float, False),
    "n": (_integer, True),
    "lambda_star": (float, True),
    "nu_values": (_listed(float), False),
    "M": (float, True),
    "replicates": (_integer, True),
    "master_seed": (_integer, True),
    "mode": (str, True),
    "n_values": (_listed(_integer), False),
    "mu_star_override": (float, False),
}


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file (lists are comma-separated).

    The recognized keys are those of ``_CONFIG_KEYS``; alpha is for
    skew_gaussian only.  Each value is converted from its text by its key as
    its line is read.  Missing, unknown or repeated keys and unconvertible
    values raise ConfigError naming the key (and ``path:line`` for a line);
    absent optional keys take the ExperimentConfig defaults.
    """
    values, lines_of = {}, {}  # key -> converted value, key -> its line
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, text = (part.strip() for part in body.partition("="))
        if key in lines_of:
            raise ConfigError(f"{path}:{ln}: config key {key!r} is already set on line {lines_of[key]}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        lines_of[key] = ln
        try:
            values[key] = _CONFIG_KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: invalid config value {text!r} for {key!r}: {exc}") from None
    for key, (_, required) in _CONFIG_KEYS.items():
        if required and key not in values:
            raise ConfigError(f"missing config key {key!r}")
    try:
        values["kernel"] = Kernel(values["kernel"], alpha=values.pop("alpha", None))
    except ValueError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return ExperimentConfig(**values)
