"""The benchmark's workloads: seeded inputs, the ops of one pass, and checks.

A workload builds its inputs once from the benchmark seed (srdkit sees only
the finished tables), then runs passes.  A pass is a fixed list of ops; an
op is one call into srdkit or one CLI command.  Seeds given to srdkit vary
with the pass, so no two passes repeat a seeded call, except in traced runs,
where every pass uses the pass-0 seeds so that counts can be compared
exactly.  Checks run after the pass, outside the timed ops.

Monte-Carlo outputs are checked by invariants and published tolerances
only, never by digest, so a change to RNG chunking does not fail them.
Deterministic CLI report files are checked by digests recorded when the
benchmark was defined; a mismatch message prints the new digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import srdkit as sk
from srdkit import cli as sk_cli
from srdkit import tableio as sk_tableio

# Published anchors (the paper's tables; tolerances as in the acceptance suite).
BUNDESLIGA_SCORES = (0.3395062, 0.7037037, 0.3148148, 0.3950617, 0.6049383,
                     0.6604938, 0.8888889)
MEP_SCORES = (0.234, 0.297, 0.312, 0.352, 0.352, 0.484, 0.547, 0.891)
PRINTED_THRESHOLDS = {"xx1": 0.4938, "q1": 0.5926, "median": 0.6667,
                      "q3": 0.7346, "xx19": 0.8272}
PRINTED_MOMENTS = {"mean": 0.6631711, "std_dev": 0.1020909}
PUBLISHED_ORDER = "3 1 4 5 6 2 7"
PUBLISHED_STATISTICS = "4 29 36 6 34 36"
PUBLISHED_CATEGORIES = ('"n.s." "(p<0.1)" "(p<0.05*)" "n.s." "(p<0.05*)" '
                        '"(p<0.05*)"')
CATEGORIES = {"n.s.", "(p<0.1)", "(p<0.05*)"}

# SHA-256 of stdout plus every report file of the deterministic CLI ops.
CLI_DIGESTS = {
    "cli.values_bundesliga":
        "45c9b6b65ca641cdece365f4b10b8096cf59715a19681e5cdc432e0cbe210a0c",
    "cli.values_mep":
        "b08dcd495b544d3256698b8c67d1baf0618efc56e914017ab39c6ff020df4ca8",
    "cli.detailed":
        "b2a5f4177b397528c0a54b9adf4bb24985c0125377aabfa954938684d8abd457",
    "cli.rankmatrix":
        "0f3a89588d450df35677fd53bf6fad64fb42ffb9248d286e0ec3d60fc2e185dc",
    "cli.tieprob":
        "aa785fff97020223b1fb25ac3cdac4a3d2e971a305bfd304ea95732e856caaf6",
    "cli.preprocess":
        "74e52ca1a809f00a757c6c2f53f7155c935ad6f89e3651418997fa0fc2575fff",
    "cli.reference":
        "e174460162394f9e0d677aba12f1ded4411d46e6064edff43a5dd2cae979a71d",
    "cli.heatmap_bundesliga":
        "00d99d8dd1e458685b41954d441847435e1d6bae23649b18f3df0408fdfab394",
    "cli.heatmap_mep":
        "befb2f957082aa6f4cf13c9ff00ea08bbdb68721c0affd10cdbfff8672684e6d",
    "cli.crossval_replay":
        "30079855039f7ff16dd64d9759e628da0c7ac621d55f6ada2c187ab9bd8a303d",
}


class CheckFailed(Exception):
    """An op's output broke an invariant or a published anchor."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]


def call_seed(seed: int, pass_index: int, op_index: int) -> int:
    return int(np.random.SeedSequence([seed, pass_index, op_index]).generate_state(1)[0])


def table_sha256(table) -> str:
    """Digest of a table's labels and float64 values."""
    h = hashlib.sha256()
    h.update(repr((table.row_labels, table.col_labels, table.reference)).encode())
    h.update(np.ascontiguousarray(table.values, dtype="<f8").tobytes())
    return h.hexdigest()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Fractional ranks, written independently of srdkit for the checks."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.r_[True, xs[1:] != xs[:-1]]
    first = np.flatnonzero(starts)
    counts = np.diff(np.r_[first, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def raw_srd(solution: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(average_ranks(solution) - average_ranks(reference)).sum())


def check_distribution(dist, n: int, samples: int) -> None:
    """Invariants every null distribution meets, whatever the RNG stream."""
    f = n * n // 2
    require(dist.n_objects == n, f"n_objects {dist.n_objects} != {n}")
    require(dist.sample_count == samples, f"sample_count {dist.sample_count}")
    support, freq = dist.support, dist.frequency
    require(np.all(np.diff(support) > 0), "support not strictly increasing")
    require(support[0] >= 0 and support[-1] <= 1, "support outside [0, 1]")
    grid = support * 2 * f
    require(np.all(np.abs(grid - np.rint(grid)) < 1e-9),
            f"support off the 0.5/{f} grid")
    require(np.all(freq > 0) and abs(freq.sum() - 1.0) < 1e-9,
            "frequencies do not sum to 1")
    counts = freq * samples
    require(np.all(np.abs(counts - np.rint(counts)) < 1e-6),
            "frequencies are not sample fractions")
    t = dist.thresholds
    require(t.xx1 <= t.q1 <= t.median <= t.q3 <= t.xx19, "thresholds out of order")


def check_published_option_f(dist, samples: int) -> None:
    """The published option-f summary, judged on this run's distribution.

    Each published quantile must lie within the criterion-05 tolerance
    (0.01) of the point where this run's distribution reaches that
    quantile's mass, allowing five standard errors of a Monte-Carlo mass.
    Thresholds are not compared directly: at 1M samples the mass near XX1
    sits on the 5% boundary within sampling error, so XX1 itself can land
    four half-steps (0.012) from the published value.  Moments keep the
    criterion-05 tolerance at 1M samples, widened as 1/sqrt(samples).
    """
    support, freq = dist.support, dist.frequency

    def below(x):
        return freq[support <= x].sum()

    def above(x):
        return freq[support >= x].sum()

    for name, p, mass, step in (("xx1", 0.05, below, 0.01), ("q1", 0.25, below, 0.01),
                                ("median", 0.5, below, 0.01), ("q3", 0.75, below, 0.01),
                                ("xx19", 0.05, above, -0.01)):
        printed = PRINTED_THRESHOLDS[name]
        slack = 5 * math.sqrt(p * (1 - p) / samples)
        require(mass(printed - step) <= p + slack and mass(printed + step) >= p - slack,
                f"{name} {getattr(dist.thresholds, name)} is not within 0.01 of the "
                f"published {printed}")
    scale = math.sqrt(1_000_000 / samples)
    for name, printed in PRINTED_MOMENTS.items():
        value = getattr(dist.thresholds, name)
        require(abs(value - printed) <= 0.003 * scale,
                f"{name} {value} vs published {printed}")


def same_distribution(a, b) -> bool:
    return (np.array_equal(a.support, b.support)
            and np.array_equal(a.frequency, b.frequency)
            and a.thresholds == b.thresholds)


class Workload:
    """Inputs from a seed, the ops of one pass, and the checks of a pass."""

    name = ""
    repeat_op = 0  # index of the op rerun after the timed loop

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.recipes: dict = {}
        self.inputs: dict = {}

    def generate(self) -> None:
        """Benchmark-side input generation, excluded from set-up time."""

    def build(self) -> None:
        """Build or load the srdkit tables; counted in set-up time."""

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, name: str, result, results: dict) -> None:
        """Raise CheckFailed if ``result`` of op ``name`` is wrong."""
        raise NotImplementedError

    def same(self, first, again) -> bool:
        """Whether two results of the repeated op are bit-identical."""
        return same_distribution(first, again)


class CrrnNull(Workload):
    """Seven null-distribution draws per pass through the library."""

    name = "crrn_null"
    repeat_op = 1  # option 'n' at n = 120, the cheapest call
    N = 120
    SAMPLES = 65_536
    STEPS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        z = rng.normal(size=self.N)
        cols = [np.round((z + rng.normal(scale=0.3 + 0.1 * j, size=self.N)) / step) * step
                for j, step in enumerate(self.STEPS)]
        cols.append(np.round(z, 1))
        self._values = np.column_stack(cols)
        self._rows = tuple(f"r{i + 1:03d}" for i in range(self.N))
        self._cols = tuple(f"s{j + 1}" for j in range(len(self.STEPS))) + ("ref",)
        self.recipes["synthetic"] = (
            f"{self.N} rows x {len(self._cols)} columns; z ~ N(0,1); solution j "
            f"= round((z + N(0, 0.3 + 0.1 j)) / step_j) * step_j with steps "
            f"{list(self.STEPS)}; reference = round(z, 1); "
            f"{self.SAMPLES} samples per option, tie_prob 0.2 for t and p")
        self.recipes["bundesliga"] = "bundled table, 18 x 8, option f, 1,000,000 samples"

    def build(self) -> None:
        self.table = sk.DataTable(self._values, self._rows, self._cols, "ref")
        self.bundesliga = sk.load_bundesliga()
        self.inputs = {"synthetic": table_sha256(self.table),
                       "bundesliga": table_sha256(self.bundesliga)}

    def ops(self, pass_index: int) -> list[Op]:
        s = [call_seed(self.seed, pass_index, i) for i in range(7)]
        ops = [Op("crrn.f_n18_1M", lambda: sk.generate_distribution(
            self.bundesliga, "f", samples=1_000_000, seed=s[0]))]
        for i, option in enumerate("nrtpdf", start=1):
            tie_prob = 0.2 if option in "tp" else None
            ops.append(Op(f"crrn.{option}", lambda o=option, t=tie_prob, sd=s[i]:
                          sk.generate_distribution(self.table, o, tie_prob=t,
                                                   samples=self.SAMPLES, seed=sd)))
        return ops

    def check(self, name, dist, results) -> None:
        if name == "crrn.f_n18_1M":
            check_distribution(dist, 18, 1_000_000)
            check_published_option_f(dist, 1_000_000)
            return
        option = name.rsplit(".", 1)[1]
        require(dist.option == option, f"option {dist.option}")
        check_distribution(dist, self.N, self.SAMPLES)
        if option == "r":
            mean_raw = dist.thresholds.mean * (self.N * self.N // 2)
            require(abs(mean_raw / (self.N ** 2 / 3) - 1) < 0.01,
                    f"footrule mean {mean_raw} not near n^2/3")


class CrossvalLarge(Workload):
    """Cross-validation and scoring on one wide and one tall synthetic table."""

    name = "crossval_large"
    repeat_op = 0
    WIDE = (2000, 200)
    TALL = 100_000

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, m = self.WIDE
        z = rng.normal(size=n)
        cols = []
        for j in range(m - 1):
            x = z + rng.normal(scale=0.3 + 1.5 * j / (m - 2), size=n)
            if j % 3 == 1:
                x = np.round(x * 2) / 2
            elif j % 3 == 2:
                x = np.round(x * 5) / 5
            cols.append(x)
        cols.append(np.round(z, 1))
        self._wide = (np.column_stack(cols), tuple(str(i + 1) for i in range(n)),
                      tuple(f"s{j + 1}" for j in range(m - 1)) + ("ref",))
        z = rng.normal(size=self.TALL)
        tall = np.column_stack([
            z + rng.normal(scale=0.5, size=self.TALL),
            np.round((z + rng.normal(size=self.TALL)) * 2) / 2,
            np.round(z, 2),
        ])
        self._tall = (tall, tuple(str(i + 1) for i in range(self.TALL)),
                      ("a", "b", "ref"))
        self.recipes["wide"] = (
            f"{n} rows x {m} columns; z ~ N(0,1); solution j = z + "
            f"N(0, 0.3 + 1.5 j/{m - 2}), kept continuous for j%3 = 0, rounded to "
            f"half steps for j%3 = 1 and fifth steps for j%3 = 2; reference = "
            f"round(z, 1); signed-rank k=8 subsample, paired F k=10 half splits")
        self.recipes["tall"] = (
            f"{self.TALL} rows x 3 columns; a = z + N(0, 0.5), b = half-step "
            f"round(z + N(0,1)), reference = round(z, 2); signed-rank k=8")

    def build(self) -> None:
        self.wide = sk.DataTable(*self._wide, reference="ref")
        self.tall = sk.DataTable(*self._tall, reference="ref")
        self.inputs = {"wide": table_sha256(self.wide), "tall": table_sha256(self.tall)}

    def ops(self, pass_index: int) -> list[Op]:
        s = [call_seed(self.seed, pass_index, i) for i in range(3)]
        return [
            Op("cv.wide_wilcoxon",
               lambda: sk.cross_validate(self.wide, "wilcoxon", k=8, seed=s[0])),
            Op("cv.wide_alpaydin",
               lambda: sk.cross_validate(self.wide, "alpaydin", k=10, seed=s[1])),
            Op("pairwise.wide", lambda: sk.pairwise_srd(self.wide)),
            Op("srd_values.wide", lambda: sk.srd_values(self.wide)),
            Op("detailed.wide", lambda: sk.detailed_srd(self.wide)),
            Op("cv.tall_wilcoxon",
               lambda: sk.cross_validate(self.tall, "wilcoxon", k=8, seed=s[2])),
            Op("srd_values.tall", lambda: sk.srd_values(self.tall)),
        ]

    def _check_report(self, report, table, k: int, kind: str) -> None:
        n, m = table.n_rows, table.n_cols - 1
        require(report.fold_srd.shape == (k, m), f"fold_srd shape {report.fold_srd.shape}")
        require(sorted(report.column_order) == list(range(m)), "order not a permutation")
        require(len(report.pair_results) == m - 1, "pair result count")
        for r in report.pair_results:
            require(r.category in CATEGORIES and 0 <= r.p_value <= 1,
                    f"bad pair result {r}")
        if report.test_kind == "wilcoxon":
            require(all(0 <= r.statistic <= k * (k + 1) / 2 for r in report.pair_results),
                    "signed-rank statistic out of range")
        require(np.all(np.diff(report.box_summary, axis=0) >= 0), "box rows unordered")
        scheme = report.scheme
        require(scheme.kind == kind and scheme.k == k, "fold scheme kind")
        if kind == "subsample":
            require(all(len(f) == n - math.ceil(n / k) for f in scheme.folds),
                    "subsample fold size")
        else:
            for a, b in zip(scheme.folds[::2], scheme.folds[1::2]):
                require(sorted(a + b) == list(range(n)), "half splits not complementary")
        ref = table.values[:, -1]
        for i, keep in enumerate(scheme.folds):
            f = len(keep) * len(keep) // 2
            grid = report.fold_srd[i] * 2 * f
            require(np.all(np.abs(grid - np.rint(grid)) < 1e-6), "fold score off grid")
        # Recompute a few fold scores with the checker's own ranking.
        rows = np.asarray(scheme.folds[0])
        for j in sorted({0, m // 2, m - 1}):
            f = rows.size * rows.size // 2
            expect = raw_srd(table.values[rows, j], ref[rows]) / f
            require(abs(report.fold_srd[0, j] - expect) < 1e-12,
                    f"fold 1 score of column {j}: {report.fold_srd[0, j]} vs {expect}")

    def _check_values(self, result, table) -> None:
        f = table.n_rows * table.n_rows // 2
        require(np.all((result.normalized_srd >= 0) & (result.normalized_srd <= 1)),
                "score outside [0, 1]")
        ref = table.values[:, -1]
        for j in sorted({0, (table.n_cols - 1) // 2, table.n_cols - 2}):
            require(result.raw_srd[j] == raw_srd(table.values[:, j], ref),
                    f"raw SRD of column {j}")
        require(np.allclose(result.normalized_srd * f, result.raw_srd, rtol=1e-12, atol=0),
                "normalized and raw scores disagree")

    def check(self, name, result, results) -> None:
        if name == "cv.wide_wilcoxon":
            self._check_report(result, self.wide, 8, "subsample")
        elif name == "cv.wide_alpaydin":
            self._check_report(result, self.wide, 10, "half_split")
        elif name == "cv.tall_wilcoxon":
            self._check_report(result, self.tall, 8, "subsample")
        elif name == "pairwise.wide":
            v = result.values
            require(np.array_equal(v, v.T), "pairwise matrix not symmetric")
            require(np.all(v.diagonal() == 0), "pairwise diagonal not zero")
            values = results.get("srd_values.wide")
            require(values is not None and np.allclose(
                v[:-1, -1], values.normalized_srd, rtol=0, atol=1e-12),
                "pairwise reference column differs from srd_values")
        elif name == "srd_values.wide":
            self._check_values(result, self.wide)
        elif name == "detailed.wide":
            values = results.get("srd_values.wide")
            require(values is not None and np.allclose(
                result.raw_srd, values.raw_srd, rtol=0, atol=1e-9),
                "detailed_srd raw sums differ from srd_values")
            require(np.allclose(result.distances.sum(axis=0), result.raw_srd,
                                rtol=0, atol=1e-9), "distances do not sum to raw SRD")
        elif name == "srd_values.tall":
            self._check_values(result, self.tall)

    def same(self, first, again) -> bool:
        return (np.array_equal(first.fold_srd, again.fold_srd)
                and first.column_order == again.column_order
                and first.pair_results == again.pair_results
                and first.scheme == again.scheme
                and sk_tableio.render_crossval_report(first)
                == sk_tableio.render_crossval_report(again))


@dataclass(frozen=True)
class CliRun:
    argv: list
    code: int
    stdout: str
    stderr: str
    prefix: Path


def run_cli(argv: list[str], prefix: Path) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sk_cli.main(argv + ["-o", str(prefix)])
        except SystemExit as exc:
            code = exc.code
    return CliRun(argv, code, out.getvalue(), err.getvalue(), prefix)


def output_files(run: CliRun) -> dict[str, bytes]:
    stem = run.prefix.name + "_"
    return {p.name[len(stem):]: p.read_bytes()
            for p in sorted(run.prefix.parent.glob(stem + "*"))}


def cli_digest(run: CliRun) -> str:
    h = hashlib.sha256(run.stdout.encode("utf-8"))
    for suffix, data in output_files(run).items():
        h.update(suffix.encode("utf-8") + b"\0" + data)
    return h.hexdigest()


def exact_counts(n: int, reference) -> np.ndarray:
    """Doubled-raw-SRD counts over all n! permutations, for the checks."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    ref2 = np.rint(np.asarray(reference, dtype=float) * 2).astype(np.int64)
    raw2 = np.abs(2 * perms - ref2).sum(axis=1)
    return np.bincount(raw2, minlength=n * n + 1)


class CliSmall(Workload):
    """An interactive user running CLI commands on the two bundled tables."""

    name = "cli_small"
    repeat_op = 14  # exact_distribution(8), identity reference
    EXACT_N = 8
    TIED_REFERENCE = (1.5, 1.5, 3.0, 4.0, 5.0, 6.5, 6.5, 8.0)
    CRRN_SAMPLES = 20_000

    def generate(self) -> None:
        data = self.workdir / "input"
        data.mkdir(parents=True, exist_ok=True)
        shutil.copy(self.root / "src/srdkit/data/bundesliga.csv", data)
        shutil.copy(self.root / "src/srdkit/data/mep_profiles.csv", data)
        shutil.copy(self.root / "tests/data/published_run_replay.csv", data)
        self.bundesliga_csv = str(data / "bundesliga.csv")
        self.mep_csv = str(data / "mep_profiles.csv")
        self.replay_csv = str(data / "published_run_replay.csv")
        (self.workdir / "out").mkdir(exist_ok=True)
        self.recipes["tables"] = ("bundled bundesliga.csv (18 x 8) and "
                                  "mep_profiles.csv (16 x 9), published replay file")
        self.recipes["crrn"] = f"options f and d, {self.CRRN_SAMPLES} samples"
        self.recipes["exact"] = (f"exact_distribution({self.EXACT_N}) with the identity "
                                 f"and the tied reference {list(self.TIED_REFERENCE)}")
        self._expected_exact: dict = {}

    def build(self) -> None:
        self.bundesliga = sk.load_bundesliga()
        self.mep = sk.load_mep()
        self.inputs = {Path(p).name: file_sha256(p)
                       for p in (self.bundesliga_csv, self.mep_csv, self.replay_csv)}

    def ops(self, pass_index: int) -> list[Op]:
        s = [call_seed(self.seed, pass_index, i) for i in range(4)]
        b, m = self.bundesliga_csv, self.mep_csv
        samples = str(self.CRRN_SAMPLES)
        commands = [
            ("cli.values_bundesliga", ["values", b]),
            ("cli.values_mep", ["values", m]),
            ("cli.detailed", ["detailed", b]),
            ("cli.rankmatrix", ["rankmatrix", m]),
            ("cli.tieprob", ["tieprob", b]),
            ("cli.preprocess", ["preprocess", m, "--preprocess", "standardize"]),
            ("cli.reference", ["reference", b, "--reference", "synth:median"]),
            ("cli.heatmap_bundesliga", ["heatmap", b]),
            ("cli.heatmap_mep", ["heatmap", m]),
            ("cli.crossval_wilcoxon", ["crossval", b, "--plot", "--seed", str(s[0])]),
            ("cli.crossval_alpaydin", ["crossval", m, "--plot", "--test", "alpaydin",
                                       "--seed", str(s[1])]),
            ("cli.crossval_replay", ["crossval", b, "--replay", self.replay_csv]),
            ("cli.crrn_f", ["crrn", b, "--plot", "--option", "f",
                            "--samples", samples, "--seed", str(s[2])]),
            ("cli.crrn_d", ["crrn", m, "--plot", "--option", "d",
                            "--samples", samples, "--seed", str(s[3])]),
        ]
        out = self.workdir / "out"
        ops = [Op(name, lambda a=argv, p=out / name.split(".", 1)[1]: run_cli(a, p))
               for name, argv in commands]
        ops.append(Op("exact.identity", lambda: sk.exact_distribution(self.EXACT_N)))
        ops.append(Op("exact.tied", lambda: sk.exact_distribution(
            self.EXACT_N, self.TIED_REFERENCE)))
        return ops

    def _table_for(self, path: str):
        return self.bundesliga if path == self.bundesliga_csv else self.mep

    def check(self, name, result, results) -> None:
        if name.startswith("exact."):
            self._check_exact(name, result)
            return
        run = result
        require(run.code == 0, f"exit code {run.code}: {run.stderr.strip()}")
        require(run.stderr == "", f"stderr: {run.stderr.strip()}")
        if name in CLI_DIGESTS:
            digest = cli_digest(run)
            require(digest == CLI_DIGESTS[name], f"digest {digest}")
        if name == "cli.values_bundesliga":
            scores = [float(x) for x in run.stdout.split()]
            require(np.allclose(scores, BUNDESLIGA_SCORES, atol=1e-6),
                    f"bundesliga scores {scores}")
        elif name == "cli.values_mep":
            scores = [float(x) for x in run.stdout.split()]
            require(np.allclose(scores, MEP_SCORES, atol=5e-4),
                    f"mep scores {scores}")
        elif name == "cli.crossval_replay":
            lines = run.stdout.splitlines()
            require(lines[1] == PUBLISHED_ORDER, f"replay order {lines[1]}")
            require(lines[4] == PUBLISHED_STATISTICS, f"replay statistics {lines[4]}")
            require(lines[7] == PUBLISHED_CATEGORIES, f"replay categories {lines[7]}")
        elif name.startswith("cli.crossval_"):
            self._check_crossval(name, run)
        elif name.startswith("cli.crrn_"):
            self._check_crrn(name, run)

    def _check_crossval(self, name, run) -> None:
        argv = run.argv
        seed = int(argv[argv.index("--seed") + 1])
        test = argv[argv.index("--test") + 1] if "--test" in argv else "wilcoxon"
        table = self._table_for(argv[1])
        report = sk.cross_validate(table, test=test, seed=seed)
        rendered = sk_tableio.render_crossval_report(report)
        files = output_files(run)
        require(files["crossval.csv"].decode("utf-8") == rendered,
                "report differs from library")
        require(run.stdout == rendered, "stdout differs")
        replay_test, scheme = sk.read_replay(run.prefix.parent / (run.prefix.name + "_replay.csv"))
        require(replay_test == test and scheme.folds == report.scheme.folds,
                "replay file does not reproduce the folds")
        require(files["crossval.svg"].startswith(b"<?xml") and files["crossval_data.csv"],
                "crossval chart missing")

    def _check_crrn(self, name, run) -> None:
        argv = run.argv
        option = argv[argv.index("--option") + 1]
        seed = int(argv[argv.index("--seed") + 1])
        table = self._table_for(argv[1])
        dist = sk.generate_distribution(table, option, samples=self.CRRN_SAMPLES, seed=seed)
        check_distribution(dist, table.n_rows, self.CRRN_SAMPLES)
        files = output_files(run)
        rendered = sk_tableio.render_distribution(dist)
        require(files["distribution.csv"].decode("utf-8") == rendered,
                "distribution file differs from library")
        head, _, verdicts = run.stdout.partition("\nverdicts\n")
        require(head == rendered, "printed distribution differs")
        scores = sk.srd_values(table)
        t = dist.thresholds
        lines = verdicts.splitlines()
        require(len(lines) == len(scores.col_labels), "verdict count")
        for line, label, score in zip(lines, scores.col_labels, scores.normalized_srd):
            got_label, got_score, verdict = line.rsplit(" ", 2)
            expect = ("SignificantSimilar" if score <= t.xx1 else
                      "SignificantDissimilar" if score >= t.xx19 else
                      "NotDistinguishable")
            require(got_label == label and got_score == f"{score:.7f}"
                    and verdict == expect, f"verdict line {line!r}")
        if table is self.bundesliga and option == "f":
            check_published_option_f(dist, self.CRRN_SAMPLES)
        require(files["permtest.svg"].startswith(b"<?xml") and files["permtest_data.csv"],
                "permutation chart missing")

    def _check_exact(self, name, dist) -> None:
        n = self.EXACT_N
        reference = (np.arange(1, n + 1, dtype=float) if name == "exact.identity"
                     else np.asarray(self.TIED_REFERENCE))
        if name not in self._expected_exact:
            self._expected_exact[name] = exact_counts(n, reference)
        expected = self._expected_exact[name]
        total = math.factorial(n)
        require(dist.exact and dist.sample_count == total, "not an exact distribution")
        check_distribution(dist, n, total)
        counts = np.zeros(expected.size, dtype=np.int64)
        idx = np.rint(dist.support * n * n).astype(np.int64)
        counts[idx] = np.rint(dist.frequency * total).astype(np.int64)
        require(np.array_equal(counts, expected), "exact counts differ from enumeration")


WORKLOADS = {w.name: w for w in (CrrnNull, CrossvalLarge, CliSmall)}
