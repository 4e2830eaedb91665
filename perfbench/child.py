"""One benchmark pass in a fresh interpreter: import contamix, run CLI calls.

Usage: ``python3 child.py SPEC.json`` with the working directory set to the
pass directory.  The spec names the checkout root, the ``contamix.cli.main``
argument lists to run one after another, the worker count and whether to
trace.  The result (ready time, study wall time, rusage deltas, each call's
exit code and captured stdout, and the traced per-layer metrics) is written
to the spec's ``result`` path as JSON.  Exits 1 when contamix cannot be
imported from the checkout's ``src/``.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import contamix
        from contamix import certify, cli, estimator, mixture, simharness
    except ImportError as exc:
        print(f"child: cannot import contamix from {src}: {exc}", file=sys.stderr)
        return 1
    if Path(contamix.__file__).resolve().parent != src / "contamix":
        print(f"child: contamix resolved to {contamix.__file__}, not {src}", file=sys.stderr)
        return 1
    ready = time.monotonic()
    out = {"ready": ready, "calls": []}
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(dict(certify=certify, cli=cli, estimator=estimator,
                            mixture=mixture, simharness=simharness))

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        record = {"rc": None, "error": None}
        try:
            with contextlib.redirect_stdout(buf):
                record["rc"] = cli.main(argv)
        except Exception as exc:  # the pass must report the failed call and go on
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["stdout"] = buf.getvalue()
        out["calls"].append(record)
    study_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out.update(
        study_s=study_s,
        user_s=ru1.ru_utime - ru0.ru_utime,
        sys_s=ru1.ru_stime - ru0.ru_stime,
        minor_faults=ru1.ru_minflt - ru0.ru_minflt,
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if tracer is not None:
        out["trace"] = tracer.summary(study_s, spec["workers"])
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
