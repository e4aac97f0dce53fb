"""Acceptance suite: one test per shipped criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The stochastic criteria
use pinned seeds, so the whole suite is deterministic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import srdkit as sk
from srdkit import core
from srdkit.core import max_srd
from srdkit.tableio import write_crossval_report, write_distribution, write_replay
from tests.conftest import (
    PUBLISHED_CATEGORIES,
    PUBLISHED_ORDER_1BASED,
    PUBLISHED_STATISTICS,
    SOLUTION_LABELS,
)

# Published reference values for the football table (7 solutions, n = 18).
BUNDESLIGA_SCORES = (
    0.3395062, 0.7037037, 0.3148148, 0.3950617, 0.6049383, 0.6604938, 0.8888889,
)
# Published reference values for the profile table (8 solutions, n = 16).
MEP_SCORES = (0.234, 0.297, 0.312, 0.352, 0.352, 0.484, 0.547, 0.891)
# Published distribution summary for option 'f' on the football table.
PRINTED_THRESHOLDS = {
    "xx1": 0.4938, "q1": 0.5926, "median": 0.6667, "q3": 0.7346, "xx19": 0.8272,
}
PRINTED_MOMENTS = {"mean": 0.6631711, "std_dev": 0.1020909}


def _record(num: int, text: str) -> None:
    print(f"[PASS] criterion {num:02d}: {text}")


@pytest.fixture(scope="module")
def football_f_distribution(bundesliga):
    """One million option-'f' samples for each of three seeds."""
    return {
        seed: sk.generate_distribution(bundesliga, option="f",
                                       samples=1_000_000, seed=seed)
        for seed in (1, 2, 3)
    }


def test_criterion_01_normalizer_formula(bundesliga, mep):
    for n in range(1, 101):
        assert sk.max_srd(n) == n * n // 2
    assert sk.max_srd(4) == 8
    assert sk.max_srd(16) == 128
    assert sk.max_srd(18) == 162
    # Raw distances behind the published normalized scores are whole numbers.
    mep_raw = sk.srd_values(mep).raw_srd
    assert mep_raw[0] == 30 and np.array_equal(mep_raw, np.rint(mep_raw))
    football_raw = sk.srd_values(bundesliga).raw_srd
    assert football_raw[0] == 55 and np.array_equal(football_raw, np.rint(football_raw))
    _record(1, "max SRD equals floor(n^2/2) for n = 1..100 with integral raw scores")


def test_criterion_02_worked_example_detail_table(srd_input):
    detail = sk.detailed_srd(srd_input)
    assert detail.solution_labels == ("A", "B", "C")
    assert detail.solution_values.T.tolist() == [
        [2, 5, 7, 8], [5, 1, 6, 10], [6, 3, 2, 3],
    ]
    assert detail.solution_ranks.T.tolist() == [
        [1, 2, 3, 4], [2, 1, 3, 4], [4, 2.5, 1, 2.5],
    ]
    assert detail.distances.T.tolist() == [
        [2, 1, 1, 0], [1, 0, 1, 0], [1.0, 1.5, 1.0, 1.5],
    ]
    assert detail.reference_values.tolist() == [6, 1, 5, 7]
    assert detail.reference_ranks.tolist() == [3, 1, 2, 4]
    assert detail.raw_srd.tolist() == [4, 2, 5]
    _record(2, "worked 4-row example reproduces the step-by-step table exactly")


def test_criterion_03_football_scores(bundesliga):
    scores = sk.srd_values(bundesliga).normalized_srd
    assert np.allclose(scores, BUNDESLIGA_SCORES, atol=1e-6)
    _record(3, "all seven football solution scores match within 1e-6")


def test_criterion_04_profile_scores(mep):
    scores = sk.srd_values(mep).normalized_srd
    assert np.allclose(scores, MEP_SCORES, atol=5e-4)
    _record(4, "all eight profile solution scores match within 5e-4")


def test_criterion_05_option_f_thresholds(football_f_distribution):
    for seed, dist in football_f_distribution.items():
        t = dist.thresholds
        for name, printed in PRINTED_THRESHOLDS.items():
            assert getattr(t, name) == pytest.approx(printed, abs=0.01), (seed, name)
        assert t.mean == pytest.approx(PRINTED_MOMENTS["mean"], abs=0.003)
        assert t.std_dev == pytest.approx(PRINTED_MOMENTS["std_dev"], abs=0.003)
    _record(5, "option-'f' thresholds match the published run across 3 seeds")


def test_criterion_06_footrule_moments_for_large_n():
    n = 100
    table = sk.from_columns(
        {"a": list(range(n)), "ref": list(range(n))}, reference="ref"
    )
    dist = sk.generate_distribution(table, option="r", samples=1_000_000, seed=42)
    raw = dist.support * max_srd(n)
    mean = float((raw * dist.frequency).sum())
    var = float(((raw - mean) ** 2 * dist.frequency).sum())
    skew = float(((raw - mean) ** 3 * dist.frequency).sum()) / var**1.5
    assert mean == pytest.approx(n**2 / 3, rel=0.01)
    assert var == pytest.approx(2 * n**3 / 45, rel=0.05)
    assert abs(skew) < 0.05
    _record(6, "footrule moments at n=100: mean n^2/3, variance 2n^3/45, skew ~ 0")


def test_criterion_07_exact_enumeration_vs_monte_carlo():
    for n, seed in ((5, 101), (7, 102), (8, 103)):
        table = sk.from_columns(
            {"a": list(range(n)), "ref": list(range(n))}, reference="ref"
        )
        mc = sk.generate_distribution(table, option="n", samples=1_000_000, seed=seed)
        exact = sk.exact_distribution(n)
        bins = 2 * max_srd(n) + 1
        pm = np.zeros(bins)
        pm[np.rint(mc.support * (bins - 1)).astype(int)] = mc.frequency
        pe = np.zeros(bins)
        pe[np.rint(exact.support * (bins - 1)).astype(int)] = exact.frequency
        tv = 0.5 * np.abs(pm - pe).sum()
        assert tv < 0.005, (n, tv)
    _record(7, "million-sample runs sit within TV 0.005 of exact enumeration")


def test_criterion_08_tie_free_parity():
    rng = np.random.default_rng(88)
    total = 0
    for n in range(3, 31):
        size = 3600
        a = np.argsort(rng.random((size, n)), axis=1) + 1.0
        b = np.argsort(rng.random((size, n)), axis=1) + 1.0
        raw = np.abs(a - b).sum(axis=1)
        assert np.array_equal(raw, np.rint(raw))
        assert np.all(np.rint(raw).astype(np.int64) % 2 == 0)
        total += size
    assert total >= 100_000
    _record(8, f"raw SRD even for {total} random tie-free ranking pairs")


def test_criterion_09_published_fold_replay(published_folds_exact):
    report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
    assert tuple(j + 1 for j in report.column_order) == PUBLISHED_ORDER_1BASED
    assert tuple(r.statistic for r in report.pair_results) == PUBLISHED_STATISTICS
    assert tuple(r.category for r in report.pair_results) == PUBLISHED_CATEGORIES
    _record(9, "published fold table reproduces order, statistics, and categories")


def _brute_force_signed_rank_p(a, b):
    """Independent oracle: enumerate all 2^k sign assignments of ranks 1..k."""
    d = [Fraction(x) - Fraction(y) for x, y in zip(a, b)]
    d = [x for x in d if x != 0]
    magnitudes = [abs(x) for x in d]
    order = sorted(range(len(d)), key=magnitudes.__getitem__)
    ranks = [0.0] * len(d)
    i = 0
    while i < len(d):
        j = i
        while j + 1 < len(d) and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2 + 1
        i = j + 1
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(r for r, x in zip(ranks, d) if x < 0)
    w_star = math.ceil(min(w_plus, w_minus))
    k = len(d)
    hits = 0
    for signs in itertools.product((0, 1), repeat=k):
        if sum(rank for rank, s in zip(range(1, k + 1), signs) if s) <= w_star:
            hits += 1
    return min(1.0, 2 * hits / 2**k)


def test_criterion_10_signed_rank_exactness():
    rng = np.random.default_rng(10)
    cases = 0
    for k in range(5, 13):
        for _ in range(4):
            # quarter-step grids make ties and zero differences common
            a = (rng.integers(0, 8, size=k) / 4).tolist()
            b = (rng.integers(0, 8, size=k) / 4).tolist()
            if all(x == y for x, y in zip(a, b)):
                continue
            expected = _brute_force_signed_rank_p(a, b)
            assert sk.wilcoxon_pair_test(a, b).p_value == pytest.approx(
                expected, abs=1e-12
            )
            cases += 1
    assert cases >= 24
    _record(10, f"signed-rank p matches 2^k enumeration in {cases} cases, k = 5..12")


def test_criterion_11_fold_grid(bundesliga):
    scheme = sk.make_folds(18, 8, "subsample", seed=111)
    assert all(len(fold) == 15 for fold in scheme.folds)
    matrix = sk.crossval_srd(bundesliga, scheme)
    scaled = matrix * 224  # half-steps of 1/max_srd(15) = 1/112
    assert np.allclose(scaled, np.rint(scaled), atol=1e-9)
    _record(11, "every 8-fold score lands exactly on the 1/224 grid (n' = 15)")


def test_criterion_12_pairwise_matrices(bundesliga, mep):
    for table in (bundesliga, mep):
        matrix = sk.pairwise_srd(table)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(matrix.values.diagonal() == 0)
    matrix = sk.pairwise_srd(mep)
    i, j = matrix.labels.index("Botenga"), matrix.labels.index("Rego")
    assert matrix.values[i, j] == pytest.approx(0.234, abs=5e-4)
    _record(12, "pairwise matrices symmetric, zero-diagonal, published entry matches")


def test_criterion_13_preprocessing_invariance():
    rng = np.random.default_rng(13)
    methods = ("scale_to_unit", "standardize", "range_scale", "scale_to_max")
    for _ in range(100):
        n = int(rng.integers(5, 15))
        m = int(rng.integers(3, 7))
        table = sk.DataTable(
            rng.uniform(0.5, 10.0, size=(n, m)),
            tuple(f"r{i}" for i in range(n)),
            tuple(f"c{j}" for j in range(m)),
            reference=f"c{m - 1}",
        )
        ranks = sk.rank_matrix(table).ranks
        base = sk.srd_values(table)
        for method in methods:
            scaled = sk.preprocess_table(table, method)
            assert np.array_equal(sk.rank_matrix(scaled).ranks, ranks)
            result = sk.srd_values(scaled)
            assert np.array_equal(result.raw_srd, base.raw_srd)
            assert np.array_equal(result.normalized_srd, base.normalized_srd)
    _record(13, "four scalers leave ranks and scores bit-identical on 100 tables")


def test_criterion_14_seeded_runs_are_byte_identical(tmp_path, bundesliga, monkeypatch):
    reference_bytes = None
    for label, workers in (("w1", 1), ("w1_again", 1), ("w2", 2), ("w8", 8)):
        # As many usable CPUs as workers; 150,000 samples make enough blocks for 8.
        monkeypatch.setattr(core.os, "sched_getaffinity",
                            lambda pid, count=workers: set(range(count)), raising=False)
        dist = sk.generate_distribution(bundesliga, option="f", samples=150_000, seed=14)
        path = tmp_path / f"dist_{label}.csv"
        write_distribution(dist, path)
        payload = path.read_bytes()
        reference_bytes = reference_bytes or payload
        assert payload == reference_bytes, label

    cv_bytes = replay_bytes = None
    for run in range(2):
        report = sk.cross_validate(bundesliga, seed=15)
        cv_path = tmp_path / f"cv_{run}.csv"
        replay_path = tmp_path / f"replay_{run}.csv"
        write_crossval_report(report, cv_path)
        write_replay(report, replay_path)
        cv_bytes = cv_bytes or cv_path.read_bytes()
        replay_bytes = replay_bytes or replay_path.read_bytes()
        assert cv_path.read_bytes() == cv_bytes
        assert replay_path.read_bytes() == replay_bytes
    _record(14, "seeded reports byte-identical across reruns and workers 1, 2, 8")


def test_criterion_15_football_verdicts(bundesliga, football_f_distribution):
    result = sk.srd_values(bundesliga)
    verdicts = {}
    for seed, dist in football_f_distribution.items():
        for label, score in zip(result.col_labels, result.normalized_srd):
            verdicts[label] = sk.classify(score, dist.thresholds)
        assert verdicts["Shots pg"] is sk.CrrnVerdict.SIGNIFICANT_SIMILAR
        assert verdicts["Possession%"] is sk.CrrnVerdict.SIGNIFICANT_SIMILAR
        assert verdicts["Pass"] is sk.CrrnVerdict.SIGNIFICANT_SIMILAR
        assert verdicts["Fouls pg"] is sk.CrrnVerdict.SIGNIFICANT_DISSIMILAR
        assert verdicts["RY cards"] is sk.CrrnVerdict.NOT_DISTINGUISHABLE
        assert verdicts["Dribbles pg"] is sk.CrrnVerdict.NOT_DISTINGUISHABLE
        assert verdicts["Offsides pg"] is sk.CrrnVerdict.NOT_DISTINGUISHABLE
    _record(15, "shots/possession/passes similar, fouls reversed, rest undecided")
