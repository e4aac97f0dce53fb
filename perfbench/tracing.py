"""Span tracer that wraps srdkit's public functions from outside the package.

Every traced function is replaced in every srdkit module namespace (and in
every module-level dict) that holds it, because callers look functions up
by name: ``fractional_ranks`` is imported into ``crossval``,
``distribution`` and ``plot``, ``cli`` imports the analysis and writer
functions directly, and ``crossval`` dispatches pair tests through a dict.
Patching only the defining module would miss most calls.

Spans are kept in memory as ``[name, start, end, parent, tag]`` lists and
written out when the benchmark ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "tableio", "preprocess", "core", "distribution", "crossval",
          "plot", "datasets")

# Public functions traced, by the module (layer) that defines them.
TRACED = {
    "core": ("fractional_ranks", "srd_values", "detailed_srd", "rank_matrix",
             "tie_probability"),
    "crossval": ("make_folds", "cross_validate", "crossval_srd", "evaluate_folds",
                 "wilcoxon_pair_test", "dietterich_pair_test", "alpaydin_pair_test"),
    "distribution": ("generate_distribution", "exact_distribution",
                     "extract_thresholds", "classify"),
    "plot": ("pairwise_srd", "plot_perm_test", "plot_crossval", "plot_heatmap"),
    "tableio": ("read_table", "read_replay", "render_detail_rows",
                "render_distribution", "render_crossval_report", "write_table",
                "write_rank_matrix", "write_srd_result", "write_detailed",
                "write_distribution", "write_crossval_report", "write_replay",
                "write_pairwise", "write_chart_files"),
    "preprocess": ("preprocess_table", "create_reference"),
    "cli": ("main",),
    "datasets": ("load_bundesliga", "load_mep"),
}

PAIR_TESTS = ("crossval.wilcoxon_pair_test", "crossval.dietterich_pair_test",
              "crossval.alpaydin_pair_test")
PLOT_RENDERERS = ("plot.plot_perm_test", "plot.plot_crossval", "plot.plot_heatmap")
CRRN_OPTIONS = ("n", "r", "t", "p", "d", "f")
# The published-setting call (bundesliga, n = 18, 1M samples) is reported
# apart from the n = 120 calls of the same option.
PUBLISHED_KEY = "f_n18_1M"

# Metrics that must repeat on identical inputs: counts exactly, traced
# allocation peaks within PEAK_TOLERANCE_MB (Python bookkeeping inside a call
# varies by a few hundred bytes between calls).
EXACT_METRICS = (
    "core.rank_calls", "crossval.pair_tests", "tableio.bytes_written",
    "tableio.read_table_calls", "plot.svg_bytes", "cli.commands",
)
PEAK_METRICS = tuple(f"distribution.peak_alloc_mb.{k}"
                     for k in CRRN_OPTIONS + (PUBLISHED_KEY,))
PEAK_TOLERANCE_MB = 0.01


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if ".peak_alloc_mb" in name:
        return "MB"
    if name.endswith("_ms") or ".generate_ms." in name:
        return "ms"
    if name.endswith(("_calls", ".pair_tests", ".commands")):
        return "count"
    if name.endswith(("_bytes", ".bytes_written")):
        return "B"
    return "ratio"


def _srdkit_modules():
    names = ["srdkit"] + [f"srdkit.{layer}" for layer in LAYERS]
    return [importlib.import_module(name) for name in names]


def _written_paths(name, args, kwargs):
    """Files a tableio writer call creates, from its arguments."""
    if name == "tableio.write_chart_files":
        svg = str(kwargs.get("svg_path", args[1] if len(args) > 1 else ""))
        data = kwargs.get("data_path", args[2] if len(args) > 2 else None)
        if data is None:
            stem, _ = os.path.splitext(svg)
            data = stem + "_data.csv"
        return [svg, str(data)]
    return [str(kwargs.get("path", args[1] if len(args) > 1 else ""))]


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._written: list[str] = []
        self._svg_docs: list = []
        self._peaks: list[tuple[str, int, int]] = []
        self._mark = 0

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        modules = _srdkit_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, names in TRACED.items():
            home = by_name[f"srdkit.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((setattr, module, attr, original))
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._patches.append(
                                        (dict.__setitem__, value, key, original))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        for setter, target, key, original in reversed(self._patches):
            setter(target, key, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        if name == "distribution.generate_distribution":
            return self._wrap_generate(fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if name.startswith("tableio.write_"):
                self._written.extend(_written_paths(name, args, kwargs))
            elif name in PLOT_RENDERERS:
                self._svg_docs.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generate(self, fn):
        """generate_distribution also records its traced allocation peak."""
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        name = "distribution.generate_distribution"

        def traced(table, option="f", *args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, option]
            spans.append(span)
            stack.append(idx)
            tracemalloc.start()
            span[1] = perf()
            try:
                return fn(table, option, *args, **kwargs)
            finally:
                span[2] = perf()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                stack.pop()
                self._peaks.append((option, idx, peak))

        traced.__wrapped__ = fn
        return traced

    def op(self, name: str):
        """Open a top-level op span; returns a callable that closes it."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()

        def close() -> float:
            span[2] = time.perf_counter()
            self._stack.pop()
            return span[2] - span[1]

        return close

    def take_pass(self) -> dict:
        """Per-pass metrics from the spans recorded since the last call."""
        first = self._mark
        spans = [[n, a, b, p - first if p >= 0 else -1, t]
                 for n, a, b, p, t in self.spans[first:]]
        peaks = [(option, idx - first, peak) for option, idx, peak in self._peaks]
        metrics = pass_metrics(spans, peaks,
                               sum(os.path.getsize(p) for p in self._written),
                               sum(len(d.svg.encode("utf-8")) for d in self._svg_docs))
        self._mark = len(self.spans)
        self._written.clear()
        self._svg_docs.clear()
        self._peaks.clear()
        return metrics


def self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _root_names(spans) -> list[str]:
    roots = []
    for s in spans:
        roots.append(s[0] if s[3] < 0 else roots[s[3]])
    return roots


def pass_metrics(spans, peak_alloc, bytes_written, svg_bytes) -> dict:
    """Totals of one traced pass, keyed by per-layer metric name.

    ``spans`` holds only this pass; top-level spans are the benchmark's ops.
    """
    own = self_times(spans)
    roots = _root_names(spans)
    inclusive = defaultdict(float)
    self_by_fn = defaultdict(float)
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    op_ms = 0.0
    generate_ms = defaultdict(float)
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = (end - start) * 1e3
        if parent < 0:
            op_ms += dur
            self_by_layer["other"] += own[i] * 1e3
            continue
        inclusive[name] += dur
        self_by_fn[name] += own[i] * 1e3
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += own[i] * 1e3
        if name == "distribution.generate_distribution":
            key = PUBLISHED_KEY if roots[i].endswith(PUBLISHED_KEY) else tag
            generate_ms[key] += dur

    peak_mb = {}
    for option, idx, peak in peak_alloc:
        key = PUBLISHED_KEY if roots[idx].endswith(PUBLISHED_KEY) else option
        peak_mb[key] = max(peak_mb.get(key, 0.0), peak / 2**20)

    def incl(*names):
        return sum(inclusive[n] for n in names)

    m = {}
    for key in CRRN_OPTIONS + (PUBLISHED_KEY,):
        m[f"distribution.generate_ms.{key}"] = generate_ms.get(key, 0.0)
        m[f"distribution.peak_alloc_mb.{key}"] = peak_mb.get(key, 0.0)
    m["distribution.exact_ms"] = incl("distribution.exact_distribution")
    m["core.rank_calls"] = calls["core.fractional_ranks"]
    m["core.rank_ms"] = incl("core.fractional_ranks")
    m["core.rank_share"] = m["core.rank_ms"] / op_ms
    m["core.srd_values_ms"] = incl("core.srd_values")
    m["core.detailed_srd_ms"] = incl("core.detailed_srd")
    m["core.rank_matrix_ms"] = incl("core.rank_matrix")
    m["crossval.make_folds_ms"] = incl("crossval.make_folds")
    m["crossval.fold_scoring_ms"] = self_by_fn["crossval.cross_validate"]
    m["crossval.evaluate_ms"] = incl("crossval.evaluate_folds")
    m["crossval.pair_tests"] = sum(calls[n] for n in PAIR_TESTS)
    m["plot.pairwise_srd_ms"] = incl("plot.pairwise_srd")
    m["plot.render_ms"] = incl(*PLOT_RENDERERS)
    m["plot.svg_bytes"] = svg_bytes
    m["tableio.read_table_ms"] = incl("tableio.read_table")
    m["tableio.read_table_calls"] = calls["tableio.read_table"]
    m["tableio.read_replay_ms"] = incl("tableio.read_replay")
    m["tableio.render_ms"] = sum(v for n, v in inclusive.items()
                                 if n.startswith("tableio.render_"))
    m["tableio.write_ms"] = sum(v for n, v in self_by_fn.items()
                                if n.startswith("tableio.write_"))
    m["tableio.bytes_written"] = bytes_written
    m["preprocess.preprocess_table_ms"] = incl("preprocess.preprocess_table")
    m["preprocess.create_reference_ms"] = incl("preprocess.create_reference")
    m["datasets.load_ms"] = incl("datasets.load_bundesliga", "datasets.load_mep")
    m["cli.self_ms"] = self_by_fn["cli.main"]
    m["cli.commands"] = calls["cli.main"]
    # datasets runs only during set-up, so it holds no share of op time.
    for layer in LAYERS + ("other",):
        if layer != "datasets":
            m[f"share.{layer}"] = self_by_layer[layer] / op_ms
    m["trace.pass_ms"] = op_ms
    return m


def summarize(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over traced passes, and repeatability failures."""
    merged = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    mismatches = []
    for k in EXACT_METRICS + PEAK_METRICS:
        values = [p[k] for p in passes]
        tolerance = PEAK_TOLERANCE_MB if k in PEAK_METRICS else 0
        if max(values) - min(values) > tolerance:
            mismatches.append(f"{k}: {values}")
    return merged, mismatches
