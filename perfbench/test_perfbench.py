"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

They check that BENCHMARK.json and the code name the same metrics, that the
computed counts repeat exactly across two traced passes, that the summary
gate catches a tampered raw CSV, and that a directory without the sources
makes the benchmark fail without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

COUNTS = (
    "estimator.shift_sum_evals",
    "estimator.grid_points",
    "kernels.cross_inner_many.calls",
    "kernels.cross_inner.calls",
    "mixture.l2_distance_sq.calls",
    "metrics.w2_squared.calls",
)

# estimator._grid_inner_products checks and fills its cache without a lock, so
# with two workers both threads can fill the first grid: 1 or 2 fills per pass.
RACY = {"full_w2": ("kernels.cross_inner_many.calls",)}


def test_benchmark_json_names_the_code_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_across_traced_passes(workload, tmp_path):
    cx = run.import_contamix()
    items, counts, digests = [], [], []
    for attempt in range(2):
        run_dir = tmp_path / f"run{attempt}"
        run_dir.mkdir()
        wl = run.build_workload(workload, 3, run_dir, cx)
        spec = {"calls": [c.argv for c in wl.calls], "workers": wl.workers, "trace": True}
        res = run.spawn(run_dir, "pass", spec, run.RUN_DEADLINE_S)
        got, _, problems = run.check_pass(wl, res, run_dir, cx)
        assert problems == {}
        items.append(wl.items)
        counts.append({k: res["trace"][k] for k in COUNTS})
        digests.append(got)
    racy = RACY.get(workload, ())
    assert items[0] == items[1] > 0
    assert digests[0] == digests[1]
    assert ({k: v for k, v in counts[0].items() if k not in racy}
            == {k: v for k, v in counts[1].items() if k not in racy})
    if workload == "certify_all":
        assert counts[0]["kernels.cross_inner.calls"] > 0
    else:
        assert counts[0]["estimator.shift_sum_evals"] > 0
    for key in racy:
        assert all(1 <= c[key] <= wl.workers for c in counts)
        if counts[0][key] != counts[1][key]:
            pytest.xfail(f"{key} was {counts[0][key]} then {counts[1][key]}: "
                         "the inner-product cache fill is not synchronized")


def test_summary_gate_catches_a_changed_raw_value(tmp_path):
    cx = run.import_contamix()
    from contamix import cli

    (tmp_path / "tiny.config").write_text(
        "kernel = gaussian\nn = 100\nlambda_star = 0.25\nnu_values = 0.25, 0.75\n"
        "M = 5\nreplicates = 3\nmaster_seed = 5\nmode = phase_transition\n"
    )
    call, _ = run._simulate("tiny", tmp_path / "tiny.config", 1, cx)
    argv = [a.replace("../", "") for a in call.argv]
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(run.check_summary(call, tmp_path, tmp_path, cx)) == call.items
    raw = tmp_path / "tiny_raw.csv"
    lines = raw.read_text().splitlines()
    key, rep, lam, mu = lines[2].split(",")
    lines[2] = ",".join([key, rep, lam, repr(float(mu) + 0.5)])
    raw.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        run.check_summary(call, tmp_path, tmp_path, cx)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "desk_w1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
