"""Cross-validated SRD scores and significance tests between solutions.

Equal or close SRD scores do not mean two solutions rank the objects the
same way.  To compare them, rows are repeatedly dropped, the scores are
recomputed on each retained subset, and consecutive solutions in the
median-ordered ranking are tested pairwise (signed-rank, paired-replication
t, or paired-replication F).

Fold ranks come from one sort per column of the whole table: a fold's
doubled ranks follow from counting its rows in each tie group.  They equal
the ranks of the fold's rows ranked anew, so scores, reports and replay
files are the same bit for bit either way.

Fold SRD values live on the grid of multiples of 0.5/max_srd(retained
rows).  Differences between such values are formed in exact rational
arithmetic: float subtraction perturbs exact ties in |difference| by an
ulp, which silently changes signed-rank statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import f as f_distribution
from scipy.stats import t as t_distribution

from .core import DataTable, SrdError, TieGroups, max_srd

TESTS = ("wilcoxon", "dietterich", "alpaydin")
FOLD_KINDS = ("subsample", "half_split")

CATEGORY_SIGNIFICANT = "(p<0.05*)"
CATEGORY_WEAK = "(p<0.1)"
CATEGORY_NONE = "n.s."

BOX_ROWS = ("min", "xx1", "q1", "median", "q3", "xx19", "max")

_MAX_EXACT_K = 62  # subset-sum counts stay within int64


@dataclass(frozen=True)
class FoldScheme:
    """Retained-row index sets for a cross-validation run.

    ``subsample`` folds each keep n - ceil(n/k) rows with independently
    drawn discards; ``half_split`` folds come in k/2 replications, each a
    partition of the rows into two complementary halves.
    """

    kind: str
    folds: tuple[tuple[int, ...], ...]
    k: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FOLD_KINDS:
            raise SrdError(f"unknown fold kind {self.kind!r}")
        folds = tuple(_checked_fold(fold) for fold in self.folds)
        object.__setattr__(self, "folds", folds)
        if len(folds) != self.k:
            raise SrdError(f"expected {self.k} folds, got {len(folds)}")


def _checked_fold(fold) -> tuple[int, ...]:
    """One fold's row indices as a tuple of Python ints, after validation.

    A tuple that already holds only Python ints is kept as it is, so folds
    drawn by ``make_folds`` keep sharing one int object per row.
    """
    if not isinstance(fold, (tuple, list, np.ndarray)):
        fold = tuple(fold)
    shared = type(fold) is tuple and {*map(type, fold)} == {int}
    try:
        arr = (np.fromiter(fold, dtype=np.int64, count=len(fold)) if shared
               else np.asarray(fold))
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise SrdError("fold indices must be integers")
    if arr.size < 2:
        raise SrdError("every fold must retain at least 2 rows")
    ordered = arr if np.all(arr[1:] > arr[:-1]) else np.sort(arr)
    if ordered[0] < 0 or np.any(ordered[1:] == ordered[:-1]):
        raise SrdError("fold indices must be unique and nonnegative")
    return fold if shared else tuple(arr.tolist())


@dataclass(frozen=True)
class PairTestResult:
    """Outcome of one adjacent-pair comparison."""

    statistic: float
    p_value: float
    category: str


@dataclass(frozen=True)
class CrossValReport:
    """Fold-wise SRD scores with ordering and pairwise test results.

    ``fold_srd`` and ``box_summary`` keep the original solution order;
    ``column_order`` lists 0-based solution indices sorted by ascending
    median fold score (report files print them 1-based).  ``pair_results``
    has one entry per adjacent pair in that order.  ``box_summary`` rows
    follow ``BOX_ROWS``.
    """

    fold_srd: np.ndarray
    solution_labels: tuple[str, ...]
    column_order: tuple[int, ...]
    pair_results: tuple[PairTestResult, ...]
    box_summary: np.ndarray
    test_kind: str
    scheme: FoldScheme | None = None

    def __post_init__(self) -> None:
        for name in ("fold_srd", "box_summary"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False


def make_folds(n: int, k: int, kind: str = "subsample",
               seed: int | None = None) -> FoldScheme:
    """Draw the retained-row sets for a k-fold run over n rows."""
    if kind not in FOLD_KINDS:
        raise SrdError(f"unknown fold kind {kind!r}")
    if k < 2:
        raise SrdError("fold count must be at least 2")
    rng = np.random.default_rng(seed)
    folds: list[tuple[int, ...]] = []
    if kind == "subsample":
        if n < k:
            raise SrdError(f"subsample folds need at least k={k} rows, got {n}")
        drop = -(-n // k)  # ceil(n/k)
        if n - drop < 2:
            raise SrdError(f"removing {drop} of {n} rows leaves fewer than 2")
    else:
        if k % 2:
            raise SrdError("half-split folds need an even fold count")
        if n // 2 < 2:
            raise SrdError(f"half-split folds need at least 4 rows, got {n}")
    # Every fold picks its rows from one set of int objects, so k folds over
    # a long table hold n ints rather than k * n.
    rows = np.arange(n).astype(object)
    if kind == "subsample":
        for _ in range(k):
            kept = np.ones(n, dtype=bool)
            kept[rng.choice(n, size=drop, replace=False)] = False
            folds.append(tuple(rows[kept].tolist()))
    else:
        for _ in range(k // 2):
            first = np.zeros(n, dtype=bool)
            first[rng.permutation(n)[:(n + 1) // 2]] = True
            folds.append(tuple(rows[first].tolist()))
            folds.append(tuple(rows[~first].tolist()))
    return FoldScheme(kind, tuple(folds), k, seed)


def _fold_raw_units(table: DataTable, scheme: FoldScheme):
    """Doubled raw SRD per fold and solution, plus each fold's max SRD.

    Doubling makes every entry an exact integer (ranks are half-integers),
    so fold scores can be carried as exact fractions units / (2 * f).  The
    table is sorted once per column; each fold's ranks then come from
    counting its rows in every tie group, which gives the same integers as
    ranking the fold's rows anew.
    """
    ref_label = table.reference_label
    ref_idx = table.col_labels.index(ref_label)
    sol_idx = [j for j in range(table.n_cols) if j != ref_idx]
    if not sol_idx:
        raise SrdError("cross-validation needs at least one solution column")
    groups = TieGroups(table.values)
    units = np.zeros((len(scheme.folds), len(sol_idx)), dtype=np.int64)
    f_values = np.zeros(len(scheme.folds), dtype=np.int64)
    for fi, keep in enumerate(scheme.folds):
        rows = np.fromiter(keep, dtype=np.intp, count=len(keep))
        if rows.max() >= table.n_rows:
            raise SrdError(
                f"fold {fi + 1} refers to row {rows.max()}, "
                f"but the table has {table.n_rows} rows"
            )
        ranks = groups.doubled_ranks(rows)
        units[fi] = np.abs(ranks - ranks[:, [ref_idx]]).sum(axis=0)[sol_idx]
        f_values[fi] = max_srd(rows.size)
    labels = tuple(table.col_labels[j] for j in sol_idx)
    return units, f_values, labels


def crossval_srd(table: DataTable, scheme: FoldScheme) -> np.ndarray:
    """Normalized SRD recomputed from scratch on each fold's retained rows.

    Returns a k x (number of solutions) matrix; every fold is normalized
    by the max SRD of its own retained row count.
    """
    units, f_values, _ = _fold_raw_units(table, scheme)
    return units / (2.0 * f_values[:, None])


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))


def _exact_fractional_ranks(values: list) -> list[float]:
    """Average ranks with exact tie detection; values need only be orderable."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = mean_rank
        i = j + 1
    return ranks


def _signed_rank_tail(w_obs: float, k: int) -> float:
    """Two-sided p of the signed-rank sum: 2 * P(W <= w) under the exact null.

    The null assigns random signs to the integer ranks 1..k; when ties make
    the observed sum fractional it is rounded up to the next attainable
    value, matching the classical critical-value tables.
    """
    if k > _MAX_EXACT_K:
        raise SrdError(f"signed-rank test supports at most {_MAX_EXACT_K} folds")
    total = k * (k + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in range(1, k + 1):
        counts[r:] += counts[:-r].copy()
    w_star = min(int(math.ceil(w_obs)), total)
    return min(1.0, 2.0 * float(counts[: w_star + 1].sum()) / 2.0**k)


def _category(p: float) -> str:
    if p < 0.05:
        return CATEGORY_SIGNIFICANT
    if p < 0.1:
        return CATEGORY_WEAK
    return CATEGORY_NONE


def _paired_folds(a, b, test_name: str) -> list[Fraction]:
    a = [_to_fraction(x) for x in a]
    b = [_to_fraction(x) for x in b]
    if len(a) != len(b):
        raise SrdError(f"{test_name} needs fold value lists of equal length")
    return [x - y for x, y in zip(a, b)]


def wilcoxon_pair_test(a, b) -> PairTestResult:
    """Signed-rank test between two solutions' fold scores.

    Zero differences are dropped; |differences| get average ranks; the
    reported statistic is |W+ - W-|.  With every difference zero the pair
    is degenerate: statistic 0 and no significance.
    """
    d = _paired_folds(a, b, "the signed-rank test")
    if len(d) < 5:
        raise SrdError("the signed-rank test needs at least 5 folds")
    d = [x for x in d if x != 0]
    if not d:
        return PairTestResult(0.0, 1.0, CATEGORY_NONE)
    ranks = _exact_fractional_ranks([abs(x) for x in d])
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(r for r, x in zip(ranks, d) if x < 0)
    p = _signed_rank_tail(min(w_plus, w_minus), len(d))
    return PairTestResult(abs(w_plus - w_minus), p, _category(p))


def _replication_spread(d: list[Fraction]) -> Fraction:
    # s_i^2 = (d1 - mean)^2 + (d2 - mean)^2 collapses to (d1 - d2)^2 / 2.
    return sum(
        (d[i] - d[i + 1]) ** 2 / 2 for i in range(0, len(d), 2)
    )


def _check_replications(d: list[Fraction], test_name: str) -> int:
    if len(d) % 2:
        raise SrdError(f"{test_name} needs an even number of folds")
    r = len(d) // 2
    if r < 2:
        raise SrdError(f"{test_name} needs at least 2 replications (4 folds)")
    return r


def dietterich_pair_test(a, b) -> PairTestResult:
    """Paired-replication t test between two solutions' fold scores.

    Folds are consumed as k/2 replications of two halves each; the
    statistic is the first difference over the pooled within-replication
    spread, referred to a t distribution with k/2 degrees of freedom.
    """
    d = _paired_folds(a, b, "the paired t test")
    r = _check_replications(d, "the paired t test")
    spread = _replication_spread(d)
    if spread == 0:
        raise SrdError("degenerate variance: no spread within replications")
    t_stat = float(d[0]) / math.sqrt(float(spread) / r)
    p = 2.0 * float(t_distribution.sf(abs(t_stat), r))
    return PairTestResult(t_stat, p, _category(p))


def alpaydin_pair_test(a, b) -> PairTestResult:
    """Paired-replication F test between two solutions' fold scores.

    The sum of all squared differences over twice the pooled
    within-replication spread, referred to an F distribution with
    (k, k/2) degrees of freedom; the upper tail is one-sided.
    """
    d = _paired_folds(a, b, "the paired F test")
    r = _check_replications(d, "the paired F test")
    spread = _replication_spread(d)
    if spread == 0:
        raise SrdError("degenerate variance: no spread within replications")
    f_stat = float(sum(x * x for x in d) / (2 * spread))
    p = float(f_distribution.sf(f_stat, 2 * r, r))
    return PairTestResult(f_stat, p, _category(p))


_PAIR_TESTS = {
    "wilcoxon": wilcoxon_pair_test,
    "dietterich": dietterich_pair_test,
    "alpaydin": alpaydin_pair_test,
}


def _nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    kth = max(1, math.ceil(p * sorted_values.size))
    return float(sorted_values[kth - 1])


def evaluate_folds(fold_srd, solution_labels, test: str = "wilcoxon",
                   scheme: FoldScheme | None = None) -> CrossValReport:
    """Order solutions by median fold score and test adjacent pairs.

    ``fold_srd`` is a k x m matrix of fold scores in original solution
    order; entries may be exact fractions, which the pair tests preserve.
    Ordering ties are broken by ascending mean, then original position.
    """
    if test not in TESTS:
        raise SrdError(f"unknown test {test!r}; expected one of {', '.join(TESTS)}")
    exact = [[_to_fraction(x) for x in row] for row in fold_srd]
    if not exact or not exact[0]:
        raise SrdError("fold matrix must not be empty")
    if any(len(row) != len(exact[0]) for row in exact):
        raise SrdError("fold matrix rows must have equal length")
    m = len(exact[0])
    if solution_labels is not None and len(solution_labels) != m:
        raise SrdError(f"expected {m} solution labels")
    labels = tuple(solution_labels) if solution_labels is not None else tuple(
        f"solution_{j + 1}" for j in range(m)
    )
    values = np.array([[float(x) for x in row] for row in exact])

    medians = np.median(values, axis=0)
    means = values.mean(axis=0)
    order = tuple(int(j) for j in np.lexsort((np.arange(m), means, medians)))

    run_test = _PAIR_TESTS[test]
    pair_results = tuple(
        run_test([row[order[i]] for row in exact], [row[order[i + 1]] for row in exact])
        for i in range(m - 1)
    )

    box = np.zeros((len(BOX_ROWS), m))
    for j in range(m):
        col = np.sort(values[:, j])
        box[:, j] = (
            col[0],
            _nearest_rank(col, 0.05),
            _nearest_rank(col, 0.25),
            _nearest_rank(col, 0.50),
            _nearest_rank(col, 0.75),
            _nearest_rank(col, 0.95),
            col[-1],
        )

    return CrossValReport(
        fold_srd=values,
        solution_labels=labels,
        column_order=order,
        pair_results=pair_results,
        box_summary=box,
        test_kind=test,
        scheme=scheme,
    )


def cross_validate(table: DataTable, test: str = "wilcoxon",
                   k: int | None = None, seed: int | None = None,
                   scheme: FoldScheme | None = None) -> CrossValReport:
    """Full cross-validation: folds, per-fold SRD, ordering, pair tests.

    The signed-rank test defaults to 8 subsample folds; the two
    paired-replication tests default to 10 half-split folds.  Passing a
    ``scheme`` (for instance one read back from a replay file) reruns the
    recorded folds exactly.
    """
    if test not in TESTS:
        raise SrdError(f"unknown test {test!r}; expected one of {', '.join(TESTS)}")
    if scheme is None:
        if k is None:
            k = 8 if test == "wilcoxon" else 10
        kind = "subsample" if test == "wilcoxon" else "half_split"
        scheme = make_folds(table.n_rows, k, kind, seed)
    units, f_values, labels = _fold_raw_units(table, scheme)
    exact = [
        [Fraction(int(units[i, j]), int(2 * f_values[i])) for j in range(units.shape[1])]
        for i in range(units.shape[0])
    ]
    return evaluate_folds(exact, labels, test, scheme)
