import csv
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contamix import simharness
from contamix.estimator import build_grid, estimate
from contamix.kernels import Kernel, mc_inner
from contamix.mixture import MixtureParams, sample_mixture
from contamix.simharness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SummaryRow,
    emit_csv,
    load_config,
    replicate_seed,
    run_experiment,
    run_replicate,
    write_csv,
)

GAUSS = Kernel("gaussian")
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def small_config(**overrides):
    base = dict(
        kernel=GAUSS,
        n=100,
        lambda_star=0.25,
        nu_values=(0.25, 0.5),
        M=3.0,
        replicates=5,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_mu_star_relation(self):
        cfg = small_config()
        assert cfg.mu_star(0.25, 100) == pytest.approx(math.sqrt(1.0 / (0.25 * 100 ** 0.25)))

    def test_override_wins(self):
        cfg = small_config(mu_star_override=2.0)
        assert cfg.mu_star(0.25, 100) == 2.0

    def test_mu_star_above_bound_rejected(self):
        with pytest.raises(ConfigError):
            small_config(M=0.5)

    @pytest.mark.parametrize("mu", [-20.0, 3.5, math.nan, math.inf])
    def test_override_outside_bound_rejected(self, mu):
        with pytest.raises(ConfigError, match="outside"):
            small_config(mode="rate_scaling", n_values=(100,), mu_star_override=mu, nu_values=())

    def test_override_at_negative_bound_accepted(self):
        cfg = small_config(mode="rate_scaling", n_values=(100,), mu_star_override=-3.0, nu_values=())
        assert cfg.mu_star(0.0, 100) == -3.0

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # the seed mix keeps 64 bits, so 2^64 + 1 would replay seed 1
        with pytest.raises(ConfigError, match="master_seed"):
            small_config(master_seed=seed)

    def test_master_seed_top_accepted(self):
        assert small_config(master_seed=2 ** 64 - 1).master_seed == 2 ** 64 - 1

    def test_replicates_positive(self):
        with pytest.raises(ConfigError):
            small_config(replicates=0)

    def test_task_bound(self):
        # two cells: the bound falls on replicates = MAX_TASKS / 2
        most = simharness.MAX_TASKS // 2
        assert small_config(replicates=most).replicates == most
        with pytest.raises(ConfigError, match=rf"replicates must lie in \[1, {most}\]"):
            small_config(replicates=most + 1)

    def test_rate_scaling_needs_n_values(self):
        with pytest.raises(ConfigError):
            small_config(mode="rate_scaling")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            small_config(mode="sweep")

    def test_phase_transition_refuses_n_values(self):
        # phase_transition runs every cell at n, so n_values would be ignored
        with pytest.raises(ConfigError, match="n_values"):
            small_config(n_values=(100,))

    def test_cell_grids_validated(self):
        with pytest.raises(ConfigError, match="n=2"):
            small_config(mode="rate_scaling", n_values=(2, 500), mu_star_override=1.0, nu_values=())
        with pytest.raises(ConfigError, match="n=3"):
            small_config(n=3)
        with pytest.raises(ConfigError, match="no estimation grid"):
            small_config(M=0.05)  # M sqrt(n) < 1: empty mu grid

    def test_dim2_kernel_rejected(self):
        with pytest.raises(ConfigError, match="^experiments are one-dimensional$"):
            small_config(kernel=Kernel("gaussian", dim=2))

    def test_nu_ladder_default(self):
        cfg = small_config(nu_values=())
        assert len(cfg.nu_values) == 24
        assert cfg.nu_values[0] == pytest.approx(1 / 24)
        assert cfg.nu_values[-1] == 1.0


class TestSeeding:
    def test_deterministic_and_distinct(self):
        s = replicate_seed(42, 1, 3)
        assert s == replicate_seed(42, 1, 3)
        seen = {replicate_seed(42, ci, ri) for ci in range(10) for ri in range(100)}
        assert len(seen) == 1000

    def test_replicate_repeatable(self):
        cfg = small_config()
        assert run_replicate(cfg, 0, 2) == run_replicate(cfg, 0, 2)

    def test_index_bounds(self):
        cfg = small_config()
        with pytest.raises(IndexError):
            run_replicate(cfg, 5, 0)
        with pytest.raises(IndexError):
            run_replicate(cfg, 0, 99)


class TestAggregation:
    def test_hand_fed_mse(self):
        # lambda_hat in {0.2, 0.3} around 0.25 gives MSE exactly 0.0025
        est = np.array([0.2, 0.3])
        assert float(np.mean((est - 0.25) ** 2)) == pytest.approx(0.0025, abs=1e-15)

    def test_rows_recomputable_from_raw(self):
        cfg = small_config()
        res = run_experiment(cfg)
        raw = np.array([(key, lh, mh) for key, rep, lh, mh in res.raw])
        for row in res.rows:
            sub = raw[raw[:, 0] == row.nu]
            assert abs(float(np.mean((sub[:, 1] - cfg.lambda_star) ** 2)) - row.mse_lambda) < 1e-12
            assert abs(float(np.mean((sub[:, 2] - row.mu_star) ** 2)) - row.mse_mu) < 1e-12

    def test_rate_scaling_rows(self, tmp_path):
        cfg = small_config(
            mode="rate_scaling", n_values=(49, 100), mu_star_override=1.5, nu_values=()
        )
        res = run_experiment(cfg)
        assert res.key_name == "n"
        assert [r.n for r in res.rows] == [49, 100]
        assert all(r.mu_star == 1.5 for r in res.rows)
        assert all(r.nu == 0.0 for r in res.rows)
        # raw rows keep n as an int, and the raw CSV writes it as one
        assert [key for key, _, _, _ in res.raw] == [49] * 5 + [100] * 5
        assert all(type(key) is int for key, _, _, _ in res.raw)
        emit_csv(res, tmp_path / "s.csv", tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "n,rep,lambda_hat,mu_hat"
        assert lines[1].split(",")[:2] == ["49", "0"]

    def test_override_keeps_phase_transition_keys(self):
        cfg = small_config(mu_star_override=1.5)
        res = run_experiment(cfg)
        assert [r.nu for r in res.rows] == [0.25, 0.5]
        assert sorted({key for key, _, _, _ in res.raw}) == [0.25, 0.5]


class TestCsv:
    def test_empty_result_header_only(self, tmp_path):
        res = ExperimentResult(key_name="nu", rows=(), raw=())
        s, r = tmp_path / "s.csv", tmp_path / "r.csv"
        emit_csv(res, s, r)
        assert s.read_text() == "nu,mu_star,n,replicates,mse_lambda,mse_mu\n"
        assert r.read_text() == "nu,rep,lambda_hat,mu_hat\n"

    def test_two_rows_three_lines(self, tmp_path):
        rows = (
            SummaryRow(nu=0.25, mu_star=1.0, n=100, replicates=2, mse_lambda=0.0025, mse_mu=0.01),
            SummaryRow(nu=0.5, mu_star=0.5, n=100, replicates=2, mse_lambda=0.003, mse_mu=0.02),
        )
        res = ExperimentResult(key_name="nu", rows=rows, raw=())
        path = tmp_path / "s.csv"
        emit_csv(res, path)
        assert len(path.read_text().splitlines()) == 3

    def test_round_trip(self, tmp_path):
        cfg = small_config()
        res = run_experiment(cfg)
        s, r = tmp_path / "s.csv", tmp_path / "r.csv"
        emit_csv(res, s, r)
        with open(s) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(res.rows)
        for row, rec in zip(res.rows, parsed):
            assert float(rec["mse_lambda"]) == row.mse_lambda
            assert float(rec["mse_mu"]) == row.mse_mu
            assert float(rec["nu"]) == row.nu
            assert int(rec["n"]) == row.n
        with open(r) as fh:
            raw = list(csv.DictReader(fh))
        assert len(raw) == len(res.raw)
        for rec, (key, rep, lh, mh) in zip(raw, res.raw):
            assert float(rec["lambda_hat"]) == lh
            assert float(rec["mu_hat"]) == mh

    def test_summary_mse_matches_raw_file(self, tmp_path):
        cfg = small_config(replicates=7)
        res = run_experiment(cfg)
        s, r = tmp_path / "s.csv", tmp_path / "r.csv"
        emit_csv(res, s, r)
        with open(r) as fh:
            raw = list(csv.DictReader(fh))
        with open(s) as fh:
            for row in csv.DictReader(fh):
                nus = [rec for rec in raw if rec["nu"] == row["nu"]]
                lam_mse = np.mean([(float(rec["lambda_hat"]) - cfg.lambda_star) ** 2 for rec in nus])
                mu_mse = np.mean([(float(rec["mu_hat"]) - float(row["mu_star"])) ** 2 for rec in nus])
                assert abs(lam_mse - float(row["mse_lambda"])) < 1e-12
                assert abs(mu_mse - float(row["mse_mu"])) < 1e-12

    def test_unwritable_path(self, tmp_path):
        res = ExperimentResult(key_name="nu", rows=(), raw=())
        with pytest.raises(OSError, match="no/such"):
            emit_csv(res, tmp_path / "no" / "such" / "dir.csv")


def rowwise_csv(header, array):
    """The bytes of a float array written row by row, each value by ``str``."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *array.tolist()])


class TestArrayCsv:
    @staticmethod
    def surface(rows):
        rng = np.random.default_rng(5)
        repeated = rng.choice([0.0, -0.0, 0.1, 1 / 3, np.nan, np.inf, -np.inf, 1e-300, 5e-324], rows)
        distinct = rng.permutation(rows) * 0.1 + rng.random(rows)  # all distinct, unsorted
        return np.column_stack([repeated, distinct, repeated, np.full(rows, 2.5), -distinct])

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 20, 2 * 1024 + 5])
    @pytest.mark.parametrize("block", [7, None])
    def test_same_bytes_as_rows_of_floats(self, tmp_path, monkeypatch, rows, block):
        if block is not None:
            monkeypatch.setattr(simharness, "_CSV_BLOCK_ROWS", block)
        array = self.surface(rows)
        header = ("a", "b", "c", "d", "e")
        write_csv(tmp_path / "s.csv", "surface", header, array)
        assert (tmp_path / "s.csv").read_text() == rowwise_csv(header, array)

    def test_signed_zeros_keep_their_signs(self, tmp_path):
        array = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        write_csv(tmp_path / "s.csv", "surface", ("x", "y"), array)
        assert (tmp_path / "s.csv").read_text() == "x,y\n0.0,-0.0\n-0.0,0.0\n0.0,-0.0\n-0.0,-0.0\n"

    def test_memory_bounded(self, tmp_path):
        # a surface the size of the crucial scan's (11 556 pairs x 5 columns):
        # formatted whole, its text would take about 3 MB
        array = self.surface(11556)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "s.csv", "surface", ("a", "b", "c", "d", "e"), array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGoldenDesk:
    # fig1_desk_*.csv were written by `contamix simulate` on the desk config
    # before the lattice scan existed; the estimator must keep every byte
    def test_desk_config_reproduces_golden_csvs(self, tmp_path):
        result = run_experiment(load_config(CONFIG_DIR / "fig1_desk.config"))
        emit_csv(result, tmp_path / "summary.csv", tmp_path / "raw.csv")
        for name in ("summary", "raw"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (GOLDEN_DIR / f"fig1_desk_{name}.csv").read_bytes(), name


class TestConfigFile:
    def test_bundled_desk_config(self):
        cfg = load_config(CONFIG_DIR / "fig1_desk.config")
        assert cfg.kernel == GAUSS
        assert len(cfg.nu_values) == 24
        assert cfg.mode == "phase_transition"

    # (mode, n, replicates, number of nu values, n_values, mu_star_override)
    # of every bundled config; a config missing here fails by its file name
    BUNDLED = {
        "fig1_desk.config": ("phase_transition", 1000, 30, 24, None, None),
        "fig1_full.config": ("phase_transition", 5000, 1000, 24, None, None),
        "rate_scaling.config": ("rate_scaling", 500, 200, 0, (500, 2000, 8000), 2.0),
    }

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.config")), ids=lambda p: p.name)
    def test_bundled_config_loads(self, path):
        cfg = load_config(path)
        facts = (cfg.mode, cfg.n, cfg.replicates, len(cfg.nu_values), cfg.n_values, cfg.mu_star_override)
        assert facts == self.BUNDLED[path.name]
        assert (cfg.kernel, cfg.lambda_star, cfg.M, cfg.master_seed) == (GAUSS, 0.25, 10.0, 20260809)

    # a value of a bundled config in another accepted text form, and the
    # fields that form changes; the config loads with the same value types
    @pytest.mark.parametrize(
        "name, old, new, changed",
        [
            ("fig1_desk.config", "n = 1000", "n = 1e3", {}),
            ("fig1_desk.config", "n = 1000", "n = 1000.0", {}),
            ("fig1_desk.config", "M = 10", "M = 1e1", {}),
            ("fig1_desk.config", "master_seed = 20260809", "master_seed = 20_260_809", {}),
            ("fig1_desk.config", "master_seed = 20260809", "master_seed = 18446744073709551615",
             {"master_seed": 2 ** 64 - 1}),
            ("fig1_desk.config", ", 0.125, ", "  ,0.125 ,   ", {}),
            ("rate_scaling.config", "replicates = 200", "replicates = 2e2", {}),
            ("rate_scaling.config", "500, 2000, 8000", " 500 ,2000.0,  8e3  ", {}),
        ],
        ids=["exponent", "point_zero", "float_exponent", "underscores", "seed_2_to_64_less_1",
             "nu_list_spaces", "replicates_exponent", "n_list_forms"],
    )
    def test_accepted_text_forms(self, tmp_path, name, old, new, changed):
        text = (CONFIG_DIR / name).read_text()
        assert text.count(old) == 1
        p = tmp_path / name
        p.write_text(text.replace(old, new))
        want = dataclasses.replace(load_config(CONFIG_DIR / name), **changed)
        assert repr(load_config(p)) == repr(want)

    REQUIRED = (
        ("kernel", "gaussian"), ("n", "100"), ("lambda_star", "0.25"), ("M", "3"),
        ("replicates", "2"), ("master_seed", "1"), ("mode", "phase_transition"),
    )

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "c.config"
        for missing, _ in self.REQUIRED:
            p.write_text("".join(f"{key} = {value}\n" for key, value in self.REQUIRED if key != missing))
            with pytest.raises(ConfigError, match=f"missing config key '{missing}'"):
                load_config(p)
        p.write_text("kernel = gaussian\nn = 100\n")  # the first missing key is named
        with pytest.raises(ConfigError, match="'lambda_star'"):
            load_config(p)

    def test_absent_optional_keys_take_defaults(self, tmp_path):
        p = tmp_path / "c.config"
        # n = 100.0 loads as the int 100
        p.write_text("".join(f"{key} = {value}\n" for key, value in self.REQUIRED).replace("100", "100.0"))
        cfg = load_config(p)
        assert cfg == ExperimentConfig(
            kernel=GAUSS, n=100, lambda_star=0.25, M=3.0, replicates=2, master_seed=1
        )
        assert type(cfg.n) is int
        assert cfg.n_values is None and cfg.mu_star_override is None
        assert cfg.kernel.alpha is None

    @pytest.mark.parametrize(
        "key, value",
        [("n", "100.7"), ("replicates", "2.9"), ("master_seed", "1.5"), ("n", "inf"), ("n", "nan")],
    )
    def test_integer_keys_refuse_fractions(self, tmp_path, key, value):
        p = tmp_path / "c.config"
        p.write_text("".join(f"{k} = {value if k == key else v}\n" for k, v in self.REQUIRED))
        with pytest.raises(ConfigError, match="invalid config"):
            load_config(p)

    def test_integer_list_refuses_fractions(self, tmp_path):
        p = tmp_path / "c.config"
        body = "".join(f"{k} = {v}\n" for k, v in self.REQUIRED).replace("phase_transition", "rate_scaling")
        p.write_text(body + "nu_values = 0.5\nn_values = 500.5, 2000\n")
        with pytest.raises(ConfigError, match="invalid config"):
            load_config(p)
        p.write_text(body + "nu_values = 0.5\nn_values = 500.0, 2000\n")
        assert load_config(p).n_values == (500, 2000)

    # a float of 401 digits is inf, and an int of 401 digits is past the task
    # bound: refused by the range checks
    @pytest.mark.parametrize(
        "key, refusal",
        [("M", "M must be positive and finite"), ("lambda_star", r"lambda_star must lie in \(0, 1\)"),
         ("nu_values", r"nu values must lie in \(0, 1\]"),
         ("replicates", r"replicates must lie in \[1, 1000000\]")],
        ids=["M", "lambda_star", "nu_values", "replicates"],
    )
    def test_401_digit_value_is_config_error(self, tmp_path, key, refusal):
        p = tmp_path / "c.config"
        values = dict(self.REQUIRED, nu_values="0.5")
        values[key] = "1" + "0" * 400
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ConfigError, match=refusal):
            load_config(p)

    # one nu rule for both modes: rate_scaling's single nu sets its shift
    @pytest.mark.parametrize("nu", ["1e400", "0"])
    def test_rate_scaling_nu_outside_unit_interval(self, tmp_path, nu):
        p = tmp_path / "c.config"
        body = "".join(f"{k} = {v}\n" for k, v in self.REQUIRED).replace("phase_transition", "rate_scaling")
        p.write_text(body + f"nu_values = {nu}\nn_values = 100\n")
        with pytest.raises(ConfigError, match=r"nu values must lie in \(0, 1\]"):
            load_config(p)

    # rate_scaling takes either mu_star_override or a single nu, so a fixed
    # shift's nu_values would be ignored
    @pytest.mark.parametrize(
        "extra",
        ["nu_values = 0.5\nmu_star_override = 1.0\n", "nu_values = 0.25, 0.5\n"],
        ids=["nu_and_override", "two_nu"],
    )
    def test_rate_scaling_takes_override_or_one_nu(self, tmp_path, extra):
        p = tmp_path / "c.config"
        body = "".join(f"{k} = {v}\n" for k, v in self.REQUIRED).replace("phase_transition", "rate_scaling")
        p.write_text(body + "n_values = 100\n" + extra)
        want = "rate_scaling takes either mu_star_override or a single value in nu_values, not both"
        with pytest.raises(ConfigError, match=f"^{want}$"):
            load_config(p)

    @pytest.mark.parametrize("key, text, line", [("n", "500.5", 2), ("M", "1, 2", 4)])
    def test_bad_value_names_line_key_and_text(self, tmp_path, key, text, line):
        p = tmp_path / "c.config"
        p.write_text("".join(f"{k} = {text if k == key else v}\n" for k, v in self.REQUIRED))
        want = f"c.config:{line}: invalid config value {text!r} for {key!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            load_config(p)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_bytes(b"".join(f"{k} = {v}\n".encode() for k, v in self.REQUIRED) + b"# \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(p)

    # studies take quadrature inner products only, so inner_method is unknown:
    # Monte-Carlo ones go through estimate(..., inner_products=)
    @pytest.mark.parametrize("key, value", [("bogus", "1"), ("inner_method", "mc")])
    def test_unknown_key_named(self, tmp_path, key, value):
        p = tmp_path / "c.config"
        p.write_text(f"kernel = gaussian\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(p)

    def test_key_set_twice_named_with_both_lines(self, tmp_path):
        p = tmp_path / "c.config"
        body = "".join(f"{key} = {value}\n" for key, value in self.REQUIRED)
        p.write_text(body + "# again\nn = 200\n")
        with pytest.raises(ConfigError, match=r"c.config:9: config key 'n' is already set on line 2"):
            load_config(p)

    def test_skew_alpha_parsed(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_text(
            "kernel = skew_gaussian\nalpha = 10\nn = 100\nlambda_star = 0.25\n"
            "nu_values = 0.25, 0.5\nM = 3\nreplicates = 2\nmaster_seed = 1\n"
            "mode = phase_transition\n"
        )
        cfg = load_config(p)
        assert cfg.kernel.alpha == 10.0

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_text(
            "# a comment\n\nkernel = gaussian\nn = 100  # inline\nlambda_star = 0.25\n"
            "nu_values = 0.25\nM = 3\nreplicates = 2\nmaster_seed = 1\nmode = phase_transition\n"
        )
        assert load_config(p).n == 100


class TestMonteCarloInnerProducts:
    def test_estimate_takes_per_level_mc_inner(self):
        # Monte-Carlo inner products at every mu level, T = n^2 draws each,
        # through estimate's inner_products; fixed seeds pin the estimate,
        # which differs from the quadrature one
        skew = Kernel("skew_gaussian", alpha=10.0)
        cfg = ExperimentConfig(
            kernel=skew, n=64, lambda_star=0.25, nu_values=(0.25,), M=2.0, replicates=2, master_seed=7
        )
        base = simharness._mix64(cfg.master_seed, 0x4D43)
        inner = [
            mc_inner(skew, mu, cfg.n ** 2, simharness._mix64(base, j))[0]
            for j, mu in enumerate(build_grid(cfg.n, cfg.M, 1).mu_levels)
        ]
        theta = MixtureParams(cfg.lambda_star, cfg.mu_star(0.25, cfg.n))
        data = sample_mixture(skew, theta, cfg.n, replicate_seed(cfg.master_seed, 0, 0))
        result = estimate(skew, data, cfg.M, inner_products=inner)
        assert (result.lambda_hat, float(result.mu_hat[0])) == (0.25, 0.75)
        assert run_replicate(cfg, 0, 0) == (0.25, 0.625)


class TestPilotAccuracy:
    # pilot-calibrated: at nu = 8/24 the weak-identifiability ridge already
    # throws ~30% of replicates beyond 50% relative error (RMSE(mu)/mu* is
    # about 0.49 there), so the high-accuracy check sits at nu = 6/24
    def test_easy_regime_relative_error(self):
        cfg = ExperimentConfig(
            kernel=GAUSS, n=5000, lambda_star=0.25, nu_values=(6 / 24, 8 / 24),
            M=10.0, replicates=50, master_seed=314159,
        )
        res = run_experiment(cfg)
        raw = np.array([(key, mh) for key, _, _, mh in res.raw])
        for nu, floor in ((6 / 24, 0.9), (8 / 24, 0.6)):
            mu_star = cfg.mu_star(nu, 5000)
            rel = np.abs(raw[raw[:, 0] == nu][:, 1] - mu_star) / mu_star
            assert np.mean(rel < 0.5) >= floor


@pytest.mark.slow
class TestMonotoneDifficulty:
    # the cells of acceptance criterion 4, equally far (1/3) from the
    # transition at nu = 1/2: lam* mu*^2 sqrt(n) = n^(+1/3) and n^(-1/3).  At
    # seed 20260809 the MSE(mu) / MSE(lambda) ratios are 24.1 / 95.7
    # (gaussian), 68.0 / 229 (laplace), 63.5 / 104 (cauchy), 118 / 760 (skew)
    @pytest.mark.parametrize(
        "family,alpha,factor",
        [("gaussian", None, 10.0), ("laplace", None, 10.0), ("cauchy", None, 10.0), ("skew_gaussian", 10.0, 10.0)],
    )
    def test_mu_mse_ratio_across_transition(self, family, alpha, factor):
        cfg = ExperimentConfig(
            kernel=Kernel(family, alpha=alpha), n=5000, lambda_star=0.25,
            nu_values=(4 / 24, 20 / 24), M=10.0, replicates=200, master_seed=20260809,
        )
        res = run_experiment(cfg)
        easy, hard = res.rows
        assert hard.mse_mu >= factor * easy.mse_mu
        assert hard.mse_lambda >= factor * easy.mse_lambda
