"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` swaps public contamix functions for timing wrappers by
replacing the module attributes their callers look up at call time (for
example ``simharness.run_replicate``, which ``run_experiment`` resolves on
every replicate).  Nothing under ``src/`` is edited.  Each wrapper records a
span (id, parent id, name, start ns, end ns, note); parents come from a
per-thread stack, so replicate spans from worker threads nest correctly.
Spans stay in memory and ``summary`` folds them into per-layer metrics at the
end of a pass.
"""

import itertools
import math
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  Each attribute is the name the calling
# module resolves, so wrapping it there times exactly the calls that path makes.
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "simharness.run_experiment"),
    ("cli", "emit_csv", "simharness.emit_csv"),
    ("simharness", "run_replicate", "simharness.run_replicate"),
    ("simharness", "sample_mixture", "mixture.sample_mixture"),
    ("simharness", "estimate", "estimator.estimate"),
    ("estimator", "build_grid", "estimator.build_grid"),
    ("estimator", "precompute", "estimator.precompute"),
    ("estimator", "cross_inner_many", "kernels.cross_inner_many"),
    ("mixture", "cross_inner", "kernels.cross_inner"),
    ("certify", "l2_distance_sq", "mixture.l2_distance_sq"),
    ("certify", "w2_squared", "metrics.w2_squared"),
    ("certify", "scan_kappa", "certify.kappa"),
    ("certify", "scan_cs_ratio", "certify.cs"),
    ("certify", "scan_l2w2", "certify.l2w2"),
    ("certify", "scan_crucial_inequality", "certify.crucial"),
    ("certify", "decorrelation_profile", "certify.decorrelation"),
)

CERTIFY_CHECKS = ("kappa", "cs", "l2w2", "crucial", "decorrelation")
FAMILIES = ("gaussian", "laplace", "cauchy", "skew_gaussian")


def _precompute_note(args, kwargs, result):
    kernel, grid, data = args[:3]
    return kernel.family, len(data) * grid.mu_levels.shape[0]


def _build_grid_note(args, kwargs, result):
    return result.size


_NOTES = {"estimator.precompute": _precompute_note, "estimator.build_grid": _build_grid_note}


class Tracer:
    def __init__(self):
        self.spans = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        note = _NOTES.get(name)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, name, t0, t1, note(args, kwargs, result) if note else None))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to contamix modules."""
        for mod_name, attr, span_name in _TARGETS:
            module = modules[mod_name]
            setattr(module, attr, self._wrap(getattr(module, attr), span_name))

    def summary(self, study_s: float, workers: int) -> dict:
        """Per-layer metrics of one traced pass (times in ms unless named)."""
        by_name = defaultdict(list)
        child_ns = defaultdict(int)          # span id -> summed child durations
        child_ns_by = defaultdict(int)       # (span id, child name) -> ns
        for sid, parent, name, t0, t1, note in self.spans:
            by_name[name].append((sid, t1 - t0, note))
            if parent:
                child_ns[parent] += t1 - t0
                child_ns_by[parent, name] += t1 - t0

        def total_ms(name):
            return sum(d for _, d, _ in by_name[name]) / 1e6

        def calls(name):
            return len(by_name[name])

        reps = sorted(d / 1e6 for _, d, _ in by_name["simharness.run_replicate"])
        pre = by_name["estimator.precompute"]
        evals = sum(note[1] for _, _, note in pre)
        pre_fill_ns = sum(child_ns_by[sid, "kernels.cross_inner_many"] for sid, _, _ in pre)
        pre_ns = sum(d for _, d, _ in pre)
        m = {
            "simharness.run_replicate.ms_p50": _rank(reps, 0.50),
            "simharness.run_replicate.ms_p95": _rank(reps, 0.95),
            "simharness.busy_frac": sum(reps) / 1e3 / (workers * study_s) if reps else 0.0,
            "simharness.emit_csv.ms_total": total_ms("simharness.emit_csv"),
            "estimator.precompute.ms_total": pre_ns / 1e6,
        }
        for family in FAMILIES:
            m[f"estimator.precompute.{family}.ms_total"] = (
                sum(d for _, d, note in pre if note[0] == family) / 1e6
            )
        m["estimator.shift_sum_evals"] = evals
        # shift-sum time only: the cold inner-product fill inside precompute is
        # reported under kernels.cross_inner_many instead
        m["estimator.precompute.ns_per_eval"] = (pre_ns - pre_fill_ns) / evals if evals else 0.0
        m["estimator.scan.ms_total"] = (
            sum(d - child_ns[sid] for sid, d, _ in by_name["estimator.estimate"]) / 1e6
        )
        m["estimator.build_grid.ms_total"] = total_ms("estimator.build_grid")
        m["estimator.grid_points"] = sum(note for _, _, note in by_name["estimator.build_grid"])
        m["mixture.sample_mixture.ms_total"] = total_ms("mixture.sample_mixture")
        m["kernels.cross_inner_many.calls"] = calls("kernels.cross_inner_many")
        m["kernels.cross_inner_many.ms_total"] = total_ms("kernels.cross_inner_many")
        m["kernels.inner_cache_miss_ratio"] = (
            calls("kernels.cross_inner_many") / len(pre) if pre else 0.0
        )
        for name in ("kernels.cross_inner", "mixture.l2_distance_sq", "metrics.w2_squared"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.ms_total"] = total_ms(name)
        for check in CERTIFY_CHECKS:
            m[f"certify.{check}.ms"] = total_ms(f"certify.{check}")
        m["cli.self_ms"] = sum(d - child_ns[sid] for sid, d, _ in by_name["cli.main"]) / 1e6
        return m


def _rank(sorted_values, q):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
