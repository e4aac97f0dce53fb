"""One workload in one fresh process: set up, run timed passes, check.

Started by run.py.  It prints ``READY {...}`` once the inputs are built and,
unless ``--setup-only`` is given, ``RESULT {...}`` when the run is done.
The parent times set-up from process start to the READY line and subtracts
the benchmark-side input generation this process reports.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.stats  # noqa: E402,F401
import srdkit  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def run_pass(wl, pass_index: int, tracer) -> list:
    """Run every op of one pass; returns (name, seconds, result, error) rows."""
    rows = []
    perf = time.perf_counter
    for op in wl.ops(pass_index):
        close = tracer.op(op.name) if tracer else None
        start = perf()
        try:
            result, error = op.call(), None
        except Exception:  # an op that raises counts as failed, the run goes on
            result, error = None, traceback.format_exc()
        elapsed = close() if tracer else perf() - start
        rows.append((op.name, elapsed, result, error))
    return rows


def check_pass(wl, rows, failures: list) -> int:
    """Check every op's output; returns the number of failed ops."""
    results = {name: result for name, _, result, error in rows if error is None}
    failed = 0
    for name, _, result, error in rows:
        if error is None:
            try:
                wl.check(name, result, results)
            except Exception:  # a check that fails or breaks fails the op
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{name}: {error.strip().splitlines()[-1]}")
                print(f"op {name} failed:\n{error}", file=sys.stderr)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where to write traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(srdkit.__file__).resolve().parent != ROOT / "src" / "srdkit":
        print(f"srdkit imported from {srdkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        start = time.perf_counter()
        wl.generate()
        generate_s = time.perf_counter() - start
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
            close = tracer.op("setup")
        wl.build()
        setup_metrics = {}
        if tracer:
            close()
            tracer.uninstall()
            setup_metrics = tracer.take_pass()
        emit("READY", {"generate_s": generate_s})
        if args.setup_only:
            return 0
        result = measure(wl, args, tracer, setup_metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit("RESULT", result)
    return 0


def measure(wl, args, tracer, setup_metrics) -> dict:
    failures: list[str] = []
    attempted = failed = 0
    # One untimed, checked warm-up pass lets lazy imports and caches settle.
    rows = run_pass(wl, 0, None)
    attempted += len(rows)
    failed += check_pass(wl, rows, failures)
    first = rows[wl.repeat_op][2]

    op_rows = []            # (name, seconds) of timed untraced ops
    traced_rows = []        # (name, seconds) of traced ops
    traced_passes = []
    start = time.perf_counter()
    pass_index = 1
    while True:
        # Traced runs alternate traced and untraced passes, for the overhead.
        traced = bool(tracer) and pass_index % 2 == 1
        seed_pass = 0 if tracer else pass_index
        if traced:
            tracer.install()
        try:
            pass_rows = run_pass(wl, seed_pass, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_passes.append(tracer.take_pass())
            traced_rows += [(n, s) for n, s, _, _ in pass_rows]
        else:
            op_rows += [(n, s) for n, s, _, _ in pass_rows]
        attempted += len(pass_rows)
        failed += check_pass(wl, pass_rows, failures)
        pass_index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (
                not tracer or (len(traced_passes) >= 2 and pass_index % 2 == 1)):
            break

    again = run_pass(wl, 0, None)[wl.repeat_op][2]
    attempted += 1
    if first is None or again is None or not wl.same(first, again):
        failed += 1
        failures.append(f"{rows[wl.repeat_op][0]}: repeat of a seeded call differs")

    result = {
        "workload": wl.name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured_s": time.perf_counter() - start,
        "passes": pass_index - 1,
        "ops": op_rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "recipes": wl.recipes,
        "inputs_sha256": wl.inputs,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "srdkit": srdkit.__version__},
    }
    if tracer:
        layer, mismatches = tracing.summarize(traced_passes)
        layer["datasets.load_ms"] = setup_metrics["datasets.load_ms"]
        traced_s = sum(s for _, s in traced_rows) / len(traced_rows)
        untraced_s = sum(s for _, s in op_rows) / len(op_rows)
        layer["trace.overhead"] = traced_s / untraced_s
        result["layer"] = layer
        result["traced_passes"] = len(traced_passes)
        result["traced_ops"] = len(traced_rows)
        if mismatches:
            result["failed"] += 1
            result["failures"].append("exact counts differ between traced passes: "
                                      + "; ".join(mismatches))
        if args.spans:
            write_spans(tracer.spans, Path(args.spans))
    return result


def write_spans(spans, path: Path) -> None:
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, round((a - t0) * 1e6), round((b - t0) * 1e6), parent]
            for name, a, b, parent, _ in spans]
    path.write_text(json.dumps({"fields": ["name", "start_us", "end_us", "parent"],
                                "spans": rows}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
