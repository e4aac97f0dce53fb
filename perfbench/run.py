"""srdkit benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload crrn_null --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; srdkit is imported from ``src/``.
Set-up time is the median over several fresh processes; everything else is
measured in one further process that sets up, runs one checked warm-up
pass, then runs timed passes for ``--seconds`` seconds.  ``--trace 1``
alternates traced and untraced passes and reports per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its sample count, the environment and the inputs; the same
record, with per-op timings, goes to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("crrn_null", "crossval_large", "cli_small")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# Single-threaded: no BLAS or OpenMP pool beside the library's workers=1.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


class Child:
    """A worker process whose stdout lines are read against a deadline."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv, cwd=ROOT,
            stdout=subprocess.PIPE, env={**os.environ, **THREAD_ENV})
        self._buffer = b""

    def line(self, tag: str) -> tuple[dict, float]:
        """Payload of the next ``tag`` line and the time it arrived."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"worker did not print {tag} in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"worker exited before printing {tag}")
                self._buffer += chunk
        arrived = time.perf_counter()
        text, self._buffer = self._buffer.split(b"\n", 1)
        got, _, payload = text.decode("utf-8").partition(" ")
        if got != tag:
            raise BenchError(f"expected {tag} from worker, got {text[:80]!r}")
        return json.loads(payload), arrived

    def setup_s(self) -> float:
        ready, arrived = self.line("READY")
        return arrived - self.started - ready["generate_s"]

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit in time") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of the srdkit sources measured, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src" / "srdkit"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "git_commit": git_commit(),
        "srdkit_sources_sha256": source_sha256(),
        "thread_env": THREAD_ENV,
    }


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics and the lines that report them with sample counts."""
    times = sorted(s for _, s in res["ops"])
    n = len(times)
    by_op: dict[str, list[float]] = {}
    for name, s in res["ops"]:
        by_op.setdefault(name, []).append(s)
    # Load from other tenants of a shared machine slows whole stretches of a
    # run, up to 2x for seconds to minutes.  Each op's fastest sample is the
    # steadiest estimate of its undisturbed cost: across runs it spread about
    # half as much as the per-op median.
    fastest_pass_s = sum(min(v) for v in by_op.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(by_op) / fastest_pass_s, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    beyond_p95 = n - math.ceil(0.95 * n)
    p95 = (f"{nearest_rank(times, 0.95) * 1e3:.3f} ms ({beyond_p95} of {n} ops beyond it)"
           if beyond_p95 >= 10 else
           f"not reported: {beyond_p95} of {n} ops beyond p95, fewer than 10")
    lines = [
        f"setup_s      {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} "
        f"fresh processes: {', '.join(f'{s:.3f}' for s in setup)})",
        f"ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s ({len(by_op)} ops per pass over "
        f"the sum of per-op fastest latencies; n={n} ops in {res['passes']} passes, "
        f"{sum(times):.2f} s of op time; one closed-loop client)",
        f"op_p50_ms    {statistics.median(times) * 1e3:.3f} ms  (n={n} ops; printed only, "
        f"since it moves with the machine's load)",
        f"op_p95_ms    {p95}",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB  (one process)",
        f"fail_ratio   {res['failed'] / res['attempted']:g} "
        f"({res['failed']} of {res['attempted']} ops, warm-up pass and repeat included)",
    ]
    for name, values in by_op.items():
        lines.append(f"  op {name:<24} p50 {statistics.median(values) * 1e3:10.3f} ms "
                     f"(n={len(values)})")
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    layer = res["layer"]
    metrics = {name: (value, tracing.unit(name)) for name, value in sorted(layer.items())}
    lines = [f"per-layer metrics: medians over {res['traced_passes']} traced passes "
             f"({res['traced_ops']} traced ops); times and counts are per pass"]
    lines += [f"  {name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "srdkit" / "__init__.py").is_file():
        print(f"no srdkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    children: list[Child] = []
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                child = Child(common + ["--setup-only",
                                        "--workdir", str(OUT / f"work-{stem}-{i}")],
                              deadline)
                children.append(child)
                setup.append(child.setup_s())
                child.finish()
        spans = ["--spans", str(OUT / f"{stem}-spans.json")] if args.trace else []
        child = Child(common + ["--workdir", str(OUT / f"work-{stem}")] + spans, deadline)
        children.append(child)
        setup.append(child.setup_s())
        res, _ = child.line("RESULT")
        child.finish()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in children:
            child.kill()

    if args.trace:
        metrics, lines = per_layer(res)
    else:
        metrics, lines = end_to_end(res, setup)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(res.pop("versions")),
        "recipes": res.pop("recipes"), "inputs_sha256": res.pop("inputs_sha256"),
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run": res,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    for name, recipe in record["recipes"].items():
        print(f"recipe {name}: {recipe}")
    for name, digest in record["inputs_sha256"].items():
        print(f"input {name} sha256 {digest}")
    env = record["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env"))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
