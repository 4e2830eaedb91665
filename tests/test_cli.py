import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from contamix.estimator import estimate
from contamix.kernels import Kernel, cross_inner
from contamix.mixture import MixtureParams, sample_mixture

REPO = Path(__file__).resolve().parent.parent
DESK_CONFIG = REPO / "configs" / "fig1_desk.config"
# a small phase-transition study: config key -> text
TINY_CONFIG = {"kernel": "gaussian", "n": "100", "lambda_star": "0.25", "nu_values": "0.5", "M": "3",
               "replicates": "2", "master_seed": "1", "mode": "phase_transition"}
# a small rate-scaling study at a fixed shift, so with no nu_values
TINY_RATE_CONFIG = dict({k: v for k, v in TINY_CONFIG.items() if k != "nu_values"}, mode="rate_scaling",
                        n_values="100, 200", mu_star_override="1.0")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "contamix.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def one_error_line(err):
    """True when stderr is a single ``contamix: error:`` line, no traceback."""
    return len(err.splitlines()) == 1 and err.startswith("contamix: error: ")


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


@pytest.fixture(scope="module")
def gaussian_fixture(tmp_path_factory):
    data = sample_mixture(Kernel("gaussian"), MixtureParams(0.25, 2.0), 5000, seed=42)
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    path.write_text("".join(f"{float(x)!r}\n" for x in data))
    return path, data


class TestEstimate:
    def test_matches_library(self, gaussian_fixture):
        path, data = gaussian_fixture
        code, out, _ = run_cli(
            "estimate", "--kernel", "gaussian", "--data", str(path), "--bound-m", "10"
        )
        assert code == 0
        kv = parse_kv(out)
        res = estimate(Kernel("gaussian"), data, 10.0)
        assert float(kv["lambda_hat"]) == res.lambda_hat
        assert float(kv["mu_hat"]) == res.mu_hat[0]
        assert float(kv["contrast_value"]) == res.contrast_value
        assert int(kv["n"]) == 5000
        assert int(kv["lambda_levels"]) == 70
        assert int(kv["mu_levels"]) == 1414

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code, _, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "2")
        assert code == 2
        assert str(p) in err

    def test_malformed_line_numbered(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\nnot-a-number\n")
        code, _, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "2")
        assert code == 2
        assert ":3" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_data_error(self, tmp_path, bad):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"0.1\n-0.4\n{bad}\n0.3\n1.2\n")
        code, out, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "2")
        assert code == 2
        assert "non-finite" in err
        assert "Traceback" not in err and out == ""

    def test_non_utf8_data_file_data_error(self, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"0.1\n-0.4\n1.2\xff\n0.3\n")
        code, out, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "2")
        assert code == 2
        assert one_error_line(err) and "cannot read data file" in err and out == ""

    def test_overflowing_bound_data_error(self, tmp_path):
        p = tmp_path / "four.csv"
        p.write_text("0.1\n-0.4\n1.2\n0.3\n")
        code, out, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "1e308")
        assert code == 2
        assert one_error_line(err) and "overflows" in err and out == ""

    def test_zero_bound_usage_error(self, gaussian_fixture):
        path, _ = gaussian_fixture
        code, _, _ = run_cli("estimate", "--kernel", "gaussian", "--data", str(path), "--bound-m", "0")
        assert code == 1

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_bound_usage_error(self, gaussian_fixture, bound):
        path, _ = gaussian_fixture
        code, out, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(path), "--bound-m", bound)
        assert code == 1
        assert "--bound-m" in err and "Traceback" not in err and out == ""

    def test_missing_file(self):
        code, _, err = run_cli("estimate", "--kernel", "gaussian", "--data", "/no/such.csv", "--bound-m", "2")
        assert code == 2
        assert "/no/such.csv" in err

    def test_too_many_mu_levels_data_error(self, tmp_path):
        # 4 samples and M = 1e8 ask for 4e8 mu levels: refused before any
        # array is built
        p = tmp_path / "four.csv"
        p.write_text("0.1\n-0.4\n1.2\n0.3\n")
        code, out, err = run_cli("estimate", "--kernel", "gaussian", "--data", str(p), "--bound-m", "1e8")
        assert code == 2
        assert "mu levels" in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_huge_sample_prints_no_warning_under_w_error(self, tmp_path, family):
        # 2e200 squares past the float range inside the density; its value
        # is the limit 0, with no warning to fail the run
        p = tmp_path / "huge.csv"
        p.write_text("0.1\n-0.3\n2e200\n1.2\n0.5\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-W", "error::ResourceWarning", "-m", "contamix.cli",
             "estimate", "--kernel", family, "--data", str(p), "--bound-m", "2"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        res = estimate(Kernel(family), [0.1, -0.3, 2e200, 1.2, 0.5], 2.0)
        assert float(parse_kv(proc.stdout)["contrast_value"]) == res.contrast_value

    def test_skew_without_alpha_usage_error(self, gaussian_fixture):
        path, _ = gaussian_fixture
        code, _, _ = run_cli(
            "estimate", "--kernel", "skew_gaussian", "--data", str(path), "--bound-m", "2"
        )
        assert code == 1


class TestWasserstein:
    def test_w2_example(self):
        code, out, _ = run_cli(
            "wasserstein", "--lambda1", "0.2", "--mu1", "-1", "--lambda2", "0.3", "--mu2", "1", "--p", "2"
        )
        assert code == 0
        assert float(parse_kv(out)["w2_squared"]) == pytest.approx(0.5, abs=1e-14)

    def test_w1_example(self):
        code, out, _ = run_cli(
            "wasserstein", "--lambda1", "0.2", "--mu1", "1", "--lambda2", "0.5", "--mu2", "2", "--p", "1"
        )
        assert code == 0
        assert float(parse_kv(out)["w1"]) == pytest.approx(0.8, abs=1e-14)

    def test_identical_zero(self):
        code, out, _ = run_cli(
            "wasserstein", "--lambda1", "0.4", "--mu1", "1.5", "--lambda2", "0.4", "--mu2", "1.5"
        )
        assert code == 0
        assert float(parse_kv(out)["w2_squared"]) == 0.0

    def test_lambda_out_of_range(self):
        code, _, _ = run_cli(
            "wasserstein", "--lambda1", "1.5", "--mu1", "1", "--lambda2", "0.5", "--mu2", "2"
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_shift_usage_error(self, value):
        code, out, err = run_cli(
            "wasserstein", "--lambda1", "0.2", "--mu1", value, "--lambda2", "0.3", "--mu2", "1"
        )
        assert code == 1
        assert out == ""
        assert "--mu1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mu1, said",
        [("1,2", "--mu1 and --mu2 have different dimensions (2 vs 1)"),
         ("abc", "--mu1: expected comma-separated numbers, got 'abc'")],
    )
    def test_unusable_shift_usage_error(self, mu1, said):
        code, out, err = run_cli("wasserstein", "--lambda1", "0.2", "--mu1", mu1, "--lambda2", "0.3", "--mu2", "1")
        assert code == 1 and out == ""
        assert one_error_line(err) and said in err

    def test_vector_shifts(self):
        code, out, _ = run_cli(
            "wasserstein", "--lambda1", "0.2", "--mu1", "1,0,0", "--lambda2", "0.2", "--mu2", "1,0,0"
        )
        assert code == 0
        assert float(parse_kv(out)["w2_squared"]) == 0.0


class TestInnerProduct:
    def test_gaussian_known_value(self):
        code, out, _ = run_cli("inner-product", "--kernel", "gaussian", "--mu", "2")
        assert code == 0
        assert abs(float(parse_kv(out)["inner_product"]) - 0.1037769) < 1e-7

    def test_laplace_at_zero(self):
        code, out, _ = run_cli("inner-product", "--kernel", "laplace", "--mu", "0")
        assert code == 0
        assert float(parse_kv(out)["inner_product"]) == 0.25

    def test_non_finite_shift_usage_error(self):
        code, out, err = run_cli("inner-product", "--kernel", "gaussian", "--mu", "nan")
        assert code == 1
        assert out == ""
        assert "--mu" in err and "Traceback" not in err

    def test_extra_coordinates_usage_error(self):
        code, out, err = run_cli("inner-product", "--kernel", "gaussian", "--mu", "1,2")
        assert code == 1
        assert out == ""
        assert "--mu" in err and "Traceback" not in err

    def test_missing_coordinates_usage_error(self):
        code, out, err = run_cli("inner-product", "--kernel", "gaussian", "--dim", "2", "--mu", "1")
        assert code == 1
        assert out == ""
        assert "--mu" in err and "Traceback" not in err

    def test_dim2_shift(self):
        code, out, _ = run_cli("inner-product", "--kernel", "gaussian", "--dim", "2", "--mu", "1,2")
        assert code == 0
        assert float(parse_kv(out)["inner_product"]) == cross_inner(
            Kernel("gaussian", dim=2), np.array([1.0, 2.0])
        )

    def test_matches_library(self):
        code, out, _ = run_cli(
            "inner-product", "--kernel", "skew_gaussian", "--alpha", "10", "--mu", "1.0"
        )
        assert code == 0
        assert float(parse_kv(out)["inner_product"]) == cross_inner(
            Kernel("skew_gaussian", alpha=10.0), 1.0
        )


class TestCertify:
    def test_kappa_gaussian_passes(self):
        code, out, _ = run_cli("certify", "--kernel", "gaussian", "--check", "kappa")
        assert code == 0
        kv = parse_kv(out)
        assert kv["passed"] == "true"
        assert float(kv["kappa_lower"]) > 0.0

    def test_surface_csv(self, tmp_path):
        out_csv = tmp_path / "surface.csv"
        code, out, _ = run_cli(
            "certify", "--kernel", "gaussian", "--check", "decorrelation", "--out", str(out_csv)
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "a,cross_inner"
        assert len(lines) == 7  # header + six default shifts

    def test_unwritable_surface_csv_data_error(self, tmp_path):
        out_csv = tmp_path / "no" / "such" / "surface.csv"
        code, _, err = run_cli(
            "certify", "--kernel", "gaussian", "--check", "decorrelation", "--out", str(out_csv)
        )
        assert code == 2
        assert "surface CSV" in err and str(out_csv) in err and "Traceback" not in err

    def test_unwritable_surface_csv_prints_no_report(self, tmp_path):
        out_csv = tmp_path / "no" / "surface.csv"
        code, out, err = run_cli(
            "certify", "--kernel", "gaussian", "--check", "kappa", "--out", str(out_csv)
        )
        assert code == 2
        assert out == "" and one_error_line(err) and "surface CSV" in err

    def test_unknown_check_usage_error(self):
        code, _, _ = run_cli("certify", "--kernel", "gaussian", "--check", "everything")
        assert code == 1

    def test_non_finite_alpha_usage_error(self):
        code, out, err = run_cli(
            "certify", "--kernel", "skew_gaussian", "--alpha", "nan", "--check", "kappa"
        )
        assert code == 1
        assert out == ""
        assert "alpha" in err and "Traceback" not in err


class TestSimulate:
    def test_desk_config_row_count(self, tmp_path):
        out_csv = tmp_path / "summary.csv"
        code, _, _ = run_cli(
            "simulate", "--config", str(DESK_CONFIG), "--out", str(out_csv), "--workers", "2"
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "nu,mu_star,n,replicates,mse_lambda,mse_mu"
        assert len(lines) == 25  # header + 24 nu rows

    def test_missing_config_key(self, tmp_path):
        p = tmp_path / "bad.config"
        p.write_text("kernel = gaussian\nn = 100\n")
        code, _, err = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "lambda_star" in err

    def test_cell_below_grid_minimum_is_config_error(self, tmp_path):
        p = tmp_path / "small.config"
        p.write_text(
            "kernel = gaussian\nn = 500\nlambda_star = 0.25\nM = 10\nreplicates = 2\n"
            "master_seed = 1\nmode = rate_scaling\nn_values = 2, 500\nmu_star_override = 2.0\n"
        )
        code, _, err = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "n=2" in err and "Traceback" not in err

    @pytest.mark.parametrize("mu", ["-20", "nan"])
    def test_override_outside_bound_is_config_error(self, tmp_path, mu):
        p = tmp_path / "override.config"
        p.write_text(
            "kernel = gaussian\nn = 500\nlambda_star = 0.25\nM = 3\nreplicates = 2\n"
            f"master_seed = 1\nmode = rate_scaling\nn_values = 500\nmu_star_override = {mu}\n"
        )
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert "outside [-M, M]" in err and "Traceback" not in err and out == ""
        assert not out_csv.exists()

    def test_key_set_twice_is_config_error(self, tmp_path):
        p = tmp_path / "twice.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.5\nM = 3\n"
            "replicates = 2\nmaster_seed = 1\nmode = phase_transition\nn = 200\n"
        )
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert "'n'" in err and "line 2" in err and ":9:" in err and "Traceback" not in err
        assert out == "" and not out_csv.exists()

    def test_fractional_integer_key_is_config_error(self, tmp_path):
        p = tmp_path / "frac.config"
        p.write_text(
            "kernel = gaussian\nn = 100.7\nlambda_star = 0.25\nnu_values = 0.5\nM = 3\n"
            "replicates = 2\nmaster_seed = 1\nmode = phase_transition\n"
        )
        code, _, err = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "invalid config" in err and "Traceback" not in err

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_bound_is_config_error(self, tmp_path, bound):
        p = tmp_path / "inf.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.5\n"
            f"M = {bound}\nreplicates = 2\nmaster_seed = 1\nmode = phase_transition\n"
        )
        code, _, err = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "M must be positive and finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, named",
        [("master_seed = 18446744073709551616", "master_seed"), ("inner_method = mc", "inner_method"),
         ("master_seed 1", "expected 'key = value'"),
         ("alpha = 2\nmaster_seed = 1", "alpha is only meaningful for skew_gaussian")],
        ids=["seed_2_to_64", "inner_method", "no_equals_sign", "alpha_with_gaussian"],
    )
    def test_refused_config_line_is_config_error(self, tmp_path, line, named):
        p = tmp_path / "refused.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.5\nM = 3\n"
            f"replicates = 2\nmode = phase_transition\n{line}\n"
        )
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert named in err and "Traceback" not in err and out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("key", ["M", "lambda_star", "nu_values", "replicates"])
    def test_401_digit_value_is_config_error(self, tmp_path, key):
        values = dict(TINY_CONFIG, **{key: "1" + "0" * 400})
        p = tmp_path / "big.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert one_error_line(err) and out == "" and not out_csv.exists()

    @pytest.mark.parametrize("nu", ["1e400", "0"])
    def test_rate_scaling_nu_outside_unit_interval_is_config_error(self, tmp_path, nu):
        values = dict(TINY_CONFIG, mode="rate_scaling", nu_values=nu, n_values="100")
        p = tmp_path / "rate.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert one_error_line(err) and "nu values must lie in (0, 1]" in err
        assert out == "" and not out_csv.exists()

    @pytest.mark.parametrize("key, text, line", [("n", "500.5", 2), ("M", "1, 2", 5)])
    def test_bad_value_names_line_key_and_text(self, tmp_path, key, text, line):
        values = dict(TINY_CONFIG, **{key: text})
        p = tmp_path / "bad.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, _, err = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert one_error_line(err) and f"bad.config:{line}: invalid config value {text!r} for {key!r}" in err

    def test_non_utf8_config_is_config_error(self, tmp_path):
        p = tmp_path / "latin.config"
        p.write_bytes(DESK_CONFIG.read_bytes() + b"# caf\xe9\n")
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert one_error_line(err) and "cannot read config" in err and out == ""
        assert not out_csv.exists()

    # rate_scaling takes either mu_star_override or a single nu value
    @pytest.mark.parametrize(
        "values",
        [dict(TINY_RATE_CONFIG, nu_values="0.5"),
         dict(TINY_CONFIG, mode="rate_scaling", n_values="100", nu_values="0.25, 0.5")],
        ids=["nu_and_override", "two_nu"],
    )
    def test_rate_scaling_nu_values_refused_is_config_error(self, tmp_path, values):
        p = tmp_path / "rate.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert one_error_line(err) and "nu_values" in err and out == "" and not out_csv.exists()

    def test_skew_alpha_past_the_overflow_of_its_square(self, tmp_path):
        # alpha ** 2 overflows for |alpha| from about 1.34e154 on; sampling takes delta = 1
        values = dict(TINY_RATE_CONFIG, kernel="skew_gaussian", alpha="1e200")
        p = tmp_path / "skew.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert (code, err) == (0, "")
        assert out == f"summary={out_csv}\n"
        assert len(out_csv.read_text().splitlines()) == 3

    def test_raw_same_as_out_usage_error(self, tmp_path):
        (tmp_path / "sub").mkdir()
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(
            "simulate", "--config", str(DESK_CONFIG), "--out", str(out_csv),
            "--raw", str(tmp_path / "sub" / ".." / "o.csv"),
        )
        assert code == 1
        assert "--raw" in err and "Traceback" not in err and out == ""
        assert not out_csv.exists()

    def test_n_values_in_phase_transition_is_config_error(self, tmp_path):
        p = tmp_path / "pt.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.5\nM = 3\n"
            "replicates = 2\nmaster_seed = 1\nmode = phase_transition\nn_values = 5, 6\n"
        )
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli("simulate", "--config", str(p), "--out", str(out_csv))
        assert code == 2
        assert "n_values" in err and "Traceback" not in err and out == ""
        assert not out_csv.exists()

    def test_missing_config_file(self, tmp_path):
        code, _, _ = run_cli("simulate", "--config", "/no/such.config", "--out", str(tmp_path / "o.csv"))
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_usage_error(self, tmp_path, workers):
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(
            "simulate", "--config", str(DESK_CONFIG), "--out", str(out_csv), "--workers", workers
        )
        assert code == 1
        assert "--workers" in err and "Traceback" not in err and out == ""
        assert not out_csv.exists()


class TestUsage:
    def test_no_subcommand(self):
        code, _, _ = run_cli()
        assert code == 1

    def test_unknown_flag(self):
        code, _, _ = run_cli("wasserstein", "--nope", "1")
        assert code == 1


class TestDim2Estimate:
    def test_two_column_data(self, tmp_path):
        k2 = Kernel("gaussian", dim=2)
        data = sample_mixture(k2, MixtureParams(0.5, [1.0, -1.0]), 36, seed=9)
        p = tmp_path / "d2.csv"
        p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data))
        code, out, _ = run_cli(
            "estimate", "--kernel", "gaussian", "--dim", "2", "--data", str(p), "--bound-m", "1"
        )
        assert code == 0
        kv = parse_kv(out)
        res = estimate(k2, data, 1.0)
        assert [float(v) for v in kv["mu_hat"].split(",")] == list(res.mu_hat)

    def test_level_counts_without_a_second_grid(self, tmp_path, monkeypatch, capsys):
        from contamix import cli, estimator

        data = sample_mixture(Kernel("gaussian", dim=2), MixtureParams(0.5, [1.0, -1.0]), 36, seed=9)
        p = tmp_path / "d2.csv"
        p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data))
        grids = []
        build = estimator.build_grid
        monkeypatch.setattr(estimator, "build_grid", lambda *a: grids.append(a) or build(*a))
        assert cli.main(["estimate", "--kernel", "gaussian", "--dim", "2", "--data", str(p), "--bound-m", "1"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert grids == [(36, 1.0, 2)]  # estimate's own grid
        grid = build(36, 1.0, 2)
        assert int(kv["lambda_levels"]) == grid.lambda_levels.shape[0] == 6
        assert int(kv["mu_levels"]) == grid.mu_levels.shape[0] == 144

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0\n")
        code, _, err = run_cli(
            "estimate", "--kernel", "gaussian", "--dim", "2", "--data", str(p), "--bound-m", "1"
        )
        assert code == 2
        assert ":2" in err


class TestInProcess:
    def test_failed_scan_exits_3(self, monkeypatch):
        from contamix import cli as cli_mod
        from contamix.certify import ScanReport

        failed = ScanReport(
            check_name="kappa", kernel=Kernel("gaussian"), grid_spec={},
            extremal_value=-1.0, extremal_point=(0.0,), passed=False, tolerance=0.0,
            surface_columns=("mu", "ratio"), surface=np.zeros((1, 2)),
        )
        monkeypatch.setattr(cli_mod, "_run_scan", lambda kernel, check: failed)
        assert cli_mod.main(["certify", "--kernel", "gaussian", "--check", "kappa"]) == 3

    def test_workers_flag_runs_replicates_on_the_calling_thread(self, tmp_path, monkeypatch):
        from contamix import cli as cli_mod
        from contamix import simharness

        p = tmp_path / "tiny.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.25, 0.5\n"
            "M = 3\nreplicates = 3\nmaster_seed = 1\nmode = phase_transition\n"
        )
        threads = []
        real = simharness.run_replicate

        def recording(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(simharness, "run_replicate", recording)
        argv = ["simulate", "--config", str(p), "--out", str(tmp_path / "o.csv"), "--workers", "2"]
        assert cli_mod.main(argv) == 0
        assert threads == [threading.get_ident()] * 6

    # an output path that is a directory or lies in a missing one is refused
    # before the study runs; the other output is neither created nor truncated
    @pytest.mark.parametrize(
        "out, raw, kind",
        [("kept.csv", "d", "raw"), ("d", "kept.csv", "summary"), ("kept.csv", "no/r.csv", "raw"),
         ("new.csv", "no/r.csv", "raw")],
        ids=["raw_is_dir", "out_is_dir", "raw_dir_missing", "raw_dir_missing_new_out"],
    )
    def test_unwritable_output_refused_before_the_study(self, tmp_path, monkeypatch, capsys, out, raw, kind):
        from contamix import cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_experiment", lambda config: pytest.fail("the study ran"))
        (tmp_path / "d").mkdir()
        (tmp_path / "kept.csv").write_text("kept\n")
        argv = ["simulate", "--config", str(DESK_CONFIG), "--out", str(tmp_path / out), "--raw", str(tmp_path / raw)]
        assert cli_mod.main(argv) == 2
        bad = tmp_path / (raw if kind == "raw" else out)
        assert f"cannot write {kind} CSV {bad}" in capsys.readouterr().err
        assert (tmp_path / "kept.csv").read_text() == "kept\n"
        assert not (tmp_path / "new.csv").exists()

    def test_paper_preset_sets_replicates(self, tmp_path, monkeypatch):
        from contamix import cli as cli_mod

        p = tmp_path / "tiny.config"
        p.write_text(
            "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.5\n"
            "M = 3\nreplicates = 2\nmaster_seed = 1\nmode = phase_transition\n"
        )
        seen = {}

        def fake_run(config):
            seen["replicates"] = config.replicates
            from contamix.simharness import ExperimentResult

            return ExperimentResult(key_name="nu", rows=(), raw=())

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        out = tmp_path / "o.csv"
        assert cli_mod.main(["simulate", "--config", str(p), "--out", str(out), "--paper"]) == 0
        assert seen["replicates"] == 1000

    def test_paper_preset_keeps_the_task_bound(self, tmp_path, monkeypatch, capsys):
        from contamix import cli as cli_mod

        # 1001 cells load at 2 replicates; 1000 replicates on each would pass MAX_TASKS
        nus = ", ".join(str(i / 1001) for i in range(1, 1002))
        p = tmp_path / "wide.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in dict(TINY_CONFIG, nu_values=nus).items()))
        monkeypatch.setattr(cli_mod, "run_experiment", lambda config: pytest.fail("the study ran"))
        out = tmp_path / "o.csv"
        assert cli_mod.main(["simulate", "--config", str(p), "--out", str(out), "--paper"]) == 2
        assert "replicates must lie in [1, 999]" in capsys.readouterr().err
        assert not out.exists()


class TestScripts:
    """The study scripts run `contamix simulate` and print a table from its summary CSV."""

    CONFIGS = {
        "run_phase_transition.py": dict(TINY_CONFIG, nu_values="0.25, 0.5"),
        "run_rate_scaling.py": TINY_RATE_CONFIG,
    }

    def run_script(self, script, config, out, raw):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / script), "--config", str(config), "--out", str(out),
             "--raw", str(raw)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def write_config(self, tmp_path, values):
        p = tmp_path / "study.config"
        p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return p

    @pytest.mark.parametrize("script", sorted(CONFIGS))
    def test_same_csvs_as_simulate_and_one_row_per_cell(self, tmp_path, script):
        p = self.write_config(tmp_path, self.CONFIGS[script])
        code, out, err = self.run_script(script, p, tmp_path / "s.csv", tmp_path / "r.csv")
        assert code == 0 and err == ""
        code, _, _ = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "cli_s.csv"),
                             "--raw", str(tmp_path / "cli_r.csv"))
        assert code == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "cli_s.csv").read_bytes()
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "cli_r.csv").read_bytes()
        # simulate's summary= and raw= lines, the table header, one row per cell
        lines = out.splitlines()
        assert lines[:2] == [f"summary={tmp_path / 's.csv'}", f"raw={tmp_path / 'r.csv'}"]
        assert len(lines) == 3 + 2

    @pytest.mark.parametrize("script", sorted(CONFIGS))
    def test_failed_config_check_exits_2(self, tmp_path, script):
        p = self.write_config(tmp_path, dict(self.CONFIGS[script], lambda_star="1.5"))
        code, out, err = self.run_script(script, p, tmp_path / "s.csv", tmp_path / "r.csv")
        assert code == 2
        assert one_error_line(err) and "lambda_star" in err and out == ""
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("script", sorted(CONFIGS))
    def test_raw_in_missing_directory_exits_2_before_the_study(self, tmp_path, script):
        p = self.write_config(tmp_path, self.CONFIGS[script])
        code, out, err = self.run_script(script, p, tmp_path / "s.csv", tmp_path / "no" / "r.csv")
        assert code == 2
        assert one_error_line(err) and "cannot write raw CSV" in err and out == ""
        assert not (tmp_path / "s.csv").exists()
