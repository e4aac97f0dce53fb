"""Cross-validated SRD scores and significance tests between solutions.

Equal or close SRD scores do not mean two solutions rank the objects the
same way.  To compare them, rows are repeatedly dropped, the scores are
recomputed on each retained subset, and consecutive solutions in the
median-ordered ranking are tested pairwise (signed-rank, paired-replication
t, or paired-replication F).

Fold scores come from the one scoring path in ``core`` that also gives
``srd_values``, whose whole-table scores are the fold that keeps every row.
The table is sorted once; a fold's doubled ranks follow from counting its
rows in each tie group.  They equal the ranks of the fold's rows ranked
anew, so scores, reports and replay files are the same bit for bit either
way.

Fold SRD values are integers over 2 * max_srd(retained rows).  The pair
tests put scores over one common denominator and work on the numerators:
float subtraction perturbs exact ties in |difference| by an ulp, which
silently changes signed-rank statistics.  Python's int / int division is
correctly rounded, so each statistic is the float that exact rationals give.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import DataTable, SrdError, _srd_units, checked_count, checked_seed, max_srd

TESTS = ("wilcoxon", "dietterich", "alpaydin")
FOLD_KINDS = ("subsample", "half_split")

CATEGORY_SIGNIFICANT = "(p<0.05*)"
CATEGORY_WEAK = "(p<0.1)"
CATEGORY_NONE = "n.s."

BOX_ROWS = ("min", "xx1", "q1", "median", "q3", "xx19", "max")

_MAX_EXACT_K = 62  # subset-sum counts stay within int64


@dataclass(frozen=True, init=False, eq=False)
class FoldScheme:
    """Retained-row index sets for a cross-validation run.

    ``subsample`` folds each keep n - ceil(n/k) rows with independently
    drawn discards; ``half_split`` folds come in k/2 replications, each a
    partition of the rows into two complementary halves.  Every scheme, drawn,
    built by hand or read from a file, is checked for exactly that shape.
    ``rows`` holds each fold as a read-only intp array; ``folds`` gives them
    as tuples of Python ints, built anew on every access.
    """

    kind: str
    rows: tuple[np.ndarray, ...]
    k: int
    seed: int | None = None

    def __init__(self, kind: str, folds, k: int, seed: int | None = None) -> None:
        if kind not in FOLD_KINDS:
            raise SrdError(f"unknown fold kind {kind!r}")
        k, seed = checked_count(k, "fold count", 1), checked_seed(seed)
        rows = tuple(_checked_fold(fold) for fold in folds)
        if len(rows) != k:
            raise SrdError(f"expected {k} folds, got {len(rows)}")
        if kind == "half_split":
            _check_half_splits(rows)
        elif len({fold.size for fold in rows}) > 1:
            raise SrdError("subsample folds must all retain the same number of rows")
        self.__dict__.update(kind=kind, rows=rows, k=k, seed=seed)

    @property
    def folds(self) -> tuple[tuple[int, ...], ...]:
        """The folds as tuples of Python ints; dense folds share one int per row index."""
        top = max(int(fold.max()) for fold in self.rows)
        if top > sum(fold.size for fold in self.rows):  # a pool of top + 1 ints could be huge
            return tuple(tuple(fold.tolist()) for fold in self.rows)
        pool = np.arange(top + 1).astype(object)
        return tuple(tuple(pool[fold].tolist()) for fold in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FoldScheme) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.kind, self.k, self.seed, *(fold.tobytes() for fold in self.rows)


def _checked_fold(fold) -> np.ndarray:
    """One fold's row indices as a read-only intp array, after validation."""
    try:
        arr = np.asarray(fold if isinstance(fold, (tuple, list, np.ndarray)) else tuple(fold))
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise SrdError("fold indices must be integers")
    if arr.size < 2:
        raise SrdError("every fold must retain at least 2 rows")
    ordered = np.sort(arr)
    if ordered[0] < 0 or (ordered[1:] == ordered[:-1]).any():
        raise SrdError("fold indices must be unique and nonnegative")
    if int(ordered[-1]) > np.iinfo(np.intp).max:
        raise SrdError(f"fold index {ordered[-1]} is past the largest addressable row")
    rows = arr.astype(np.intp)
    rows.flags.writeable = False
    return rows


def _check_half_splits(folds) -> None:
    """Each replication's two halves are disjoint and cover one common row set."""
    if len(folds) % 2:
        raise SrdError("half-split folds come in pairs; got an odd fold count")
    covered = np.sort(np.concatenate(folds[:2]))
    for i in range(0, len(folds), 2):
        rows = np.sort(np.concatenate(folds[i:i + 2]))
        if (rows[1:] == rows[:-1]).any():
            raise SrdError(f"half-split folds {i + 1} and {i + 2} share a row")
        if not np.array_equal(rows, covered):
            raise SrdError(f"half-split folds {i + 1} and {i + 2} cover other rows "
                           f"than folds 1 and 2")


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
    n = checked_count(n, "row count", 0)
    k = checked_count(k, "fold count", 2)
    rng = np.random.default_rng(checked_seed(seed))
    folds = []
    if kind == "subsample":
        if n < k:
            raise SrdError(f"subsample folds need at least k={k} rows, got {n}")
        drop = -(-n // k)  # ceil(n/k)
        if n - drop < 2:
            raise SrdError(f"removing {drop} of {n} rows leaves fewer than 2")
        for _ in range(k):
            kept = np.ones(n, dtype=bool)
            kept[rng.choice(n, size=drop, replace=False)] = False
            folds.append(np.flatnonzero(kept))
    elif kind == "half_split":
        if k % 2:
            raise SrdError("half-split folds need an even fold count")
        if n // 2 < 2:
            raise SrdError(f"half-split folds need at least 4 rows, got {n}")
        for _ in range(k // 2):
            first = np.zeros(n, dtype=bool)
            first[rng.permutation(n)[:(n + 1) // 2]] = True
            folds += np.flatnonzero(first), np.flatnonzero(~first)
    return FoldScheme(kind, folds, k, seed)  # rejects any other kind


def _fold_raw_units(table: DataTable, scheme: FoldScheme):
    """Doubled raw SRD per fold and solution, each fold's max SRD f, and the labels."""
    for fi, rows in enumerate(scheme.rows):
        if rows.max() >= table.n_rows:
            raise SrdError(
                f"fold {fi + 1} refers to row {rows.max()}, "
                f"but the table has {table.n_rows} rows"
            )
    units, sol = _srd_units(table, scheme.rows)
    f_values = np.array([max_srd(rows.size) for rows in scheme.rows], dtype=np.int64)
    return units, f_values, tuple(table.col_labels[j] for j in sol)


def crossval_srd(table: DataTable, scheme: FoldScheme) -> np.ndarray:
    """Normalized SRD recomputed from scratch on each fold's retained rows.

    Returns a k x (number of solutions) matrix; every fold is normalized
    by the max SRD of its own retained row count.
    """
    units, f_values, _ = _fold_raw_units(table, scheme)
    return units / (2.0 * f_values[:, None])


class _Scaled(tuple):
    """Exact numbers as Python ints: entry x stands for x / ``denominator``."""

    def __new__(cls, numerators, denominator: int):
        scaled = super().__new__(cls, numerators)
        scaled.denominator = denominator
        return scaled


def _over_one_denominator(values) -> tuple[list[int], int]:
    """Fractions, integers or floats as numerators over their lcm denominator."""
    if isinstance(values, _Scaled):
        return values, values.denominator
    try:
        ratios = [(int(x.numerator), int(x.denominator)) if isinstance(x, numbers.Rational)
                  else float(x).as_integer_ratio() for x in values]
    except (OverflowError, ValueError):
        raise SrdError("fold scores must be finite numbers") from None
    common = math.lcm(*(q for _, q in ratios))
    return [p * (common // q) for p, q in ratios], common


def _signed_rank_tail(w_doubled: int, k: int) -> float:
    """Two-sided p of the signed-rank sum: 2 * P(W <= w) under the exact null.

    ``w_doubled`` is twice the observed sum.  The null assigns random signs
    to the integer ranks 1..k; when ties make the observed sum fractional
    it is rounded up to the next attainable value, matching the classical
    critical-value tables.
    """
    total = k * (k + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in range(1, k + 1):
        counts[r:] += counts[:-r].copy()
    w_star = min(-(-w_doubled // 2), total)
    return min(1.0, 2.0 * float(counts[: w_star + 1].sum()) / 2.0**k)


def _category(p: float) -> str:
    if p < 0.05:
        return CATEGORY_SIGNIFICANT
    if p < 0.1:
        return CATEGORY_WEAK
    return CATEGORY_NONE


def _paired_differences(a, b, test_name: str) -> tuple[list[int], int]:
    """Differences a - b as integers over a common denominator, and that denominator."""
    (a, den_a), (b, den_b) = _over_one_denominator(a), _over_one_denominator(b)
    if len(a) != len(b):
        raise SrdError(f"{test_name} needs fold value lists of equal length")
    common = math.lcm(den_a, den_b)
    return [x * (common // den_a) - y * (common // den_b) for x, y in zip(a, b)], common


def _check_signed_rank_folds(k: int) -> None:
    if k > _MAX_EXACT_K:
        raise SrdError(f"the signed-rank test supports at most {_MAX_EXACT_K} folds, "
                       f"got {k}")


def wilcoxon_pair_test(a, b) -> PairTestResult:
    """Signed-rank test between two solutions' fold scores.

    Zero differences are dropped; |differences| get average ranks; the
    reported statistic is |W+ - W-|.  With every difference zero the pair
    is degenerate: statistic 0 and no significance.  The exact null takes
    5 to 62 folds, zero differences included.
    """
    d, _ = _paired_differences(a, b, "the signed-rank test")
    if len(d) < 5:
        raise SrdError("the signed-rank test needs at least 5 folds")
    _check_signed_rank_folds(len(d))
    d = [x for x in d if x]
    if not d:
        return PairTestResult(0.0, 1.0, CATEGORY_NONE)
    # |d| tied at sorted positions i..j share the doubled average rank i + j + 2.
    magnitudes = sorted(map(abs, d))
    w_plus = sum(bisect_left(magnitudes, x) + bisect_right(magnitudes, x) + 1
                 for x in d if x > 0)
    w_minus = len(d) * (len(d) + 1) - w_plus
    p = _signed_rank_tail(min(w_plus, w_minus), len(d))
    return PairTestResult(abs(w_plus - w_minus) / 2, p, _category(p))


def _replication_spread(d: list[int]) -> int:
    # s_i^2 = (d1 - mean)^2 + (d2 - mean)^2 = (d1 - d2)^2 / 2: the pooled
    # spread is this sum over 2 * denominator^2.
    return sum((d[i] - d[i + 1]) ** 2 for i in range(0, len(d), 2))


def _check_replications(d: list[int], test_name: str) -> int:
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
    d, common = _paired_differences(a, b, "the paired t test")
    r = _check_replications(d, "the paired t test")
    spread = _replication_spread(d)
    if spread == 0:
        raise SrdError("degenerate variance: no spread within replications")
    # Unlike W and F, t is not scale-free in floating point: round the first
    # difference and the pooled spread to floats before combining them.
    t_stat = (d[0] / common) / math.sqrt(spread / (2 * common * common) / r)
    # scipy.stats.t.sf(x, r) is stdtr(r, -x); the call skips its argument checks.
    p = 2.0 * float(special.stdtr(r, -abs(t_stat)))
    return PairTestResult(t_stat, p, _category(p))


def alpaydin_pair_test(a, b) -> PairTestResult:
    """Paired-replication F test between two solutions' fold scores.

    The sum of all squared differences over twice the pooled
    within-replication spread, referred to an F distribution with
    (k, k/2) degrees of freedom; the upper tail is one-sided.
    """
    d, _ = _paired_differences(a, b, "the paired F test")
    r = _check_replications(d, "the paired F test")
    spread = _replication_spread(d)
    if spread == 0:
        raise SrdError("degenerate variance: no spread within replications")
    f_stat = sum(x * x for x in d) / spread
    # scipy.stats.f.sf(x, 2r, r) is fdtrc(2r, r, x) for x > 0, as here.
    p = float(special.fdtrc(2 * r, r, f_stat))
    return PairTestResult(f_stat, p, _category(p))


_PAIR_TESTS = {
    "wilcoxon": wilcoxon_pair_test,
    "dietterich": dietterich_pair_test,
    "alpaydin": alpaydin_pair_test,
}


def evaluate_folds(fold_srd, solution_labels, test: str = "wilcoxon",
                   scheme: FoldScheme | None = None) -> CrossValReport:
    """Order solutions by median fold score and test adjacent pairs.

    ``fold_srd`` is a k x m matrix of fold scores in original solution
    order.  Entries may be Fractions, integers or floats; they are put over
    one common denominator, so the pair tests see their exact values.
    Ordering ties are broken by ascending mean, then original position.
    """
    if test not in TESTS:
        raise SrdError(f"unknown test {test!r}; expected one of {', '.join(TESTS)}")
    rows = [_over_one_denominator(row) for row in fold_srd]
    common = math.lcm(*(q for _, q in rows))
    exact = [[x * (common // q) for x in row] for row, q in rows]
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
    values = np.array([[x / common for x in row] for row in exact])

    medians = np.median(values, axis=0)
    means = values.mean(axis=0)
    order = tuple(int(j) for j in np.lexsort((np.arange(m), means, medians)))

    run_test = _PAIR_TESTS[test]
    columns = [_Scaled(column, common) for column in zip(*exact)]
    pair_results = tuple(
        run_test(columns[order[i]], columns[order[i + 1]]) for i in range(m - 1)
    )

    # Min, the nearest-rank (ceil(p k)-th smallest) percentiles, and max.
    k = values.shape[0]
    kth = [1] + [max(1, math.ceil(p * k)) for p in (0.05, 0.25, 0.50, 0.75, 0.95)] + [k]
    box = np.sort(values, axis=0)[[i - 1 for i in kth]]

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

    The signed-rank test defaults to 8 subsample folds and takes at most
    62; the two paired-replication tests default to 10 half-split folds.
    Passing a ``scheme`` (for instance one read back from a replay file)
    reruns the recorded folds exactly and excludes ``k`` and ``seed``; the
    paired-replication tests take only half-split schemes, whose fold pairs
    are their replications.
    """
    if test not in TESTS:
        raise SrdError(f"unknown test {test!r}; expected one of {', '.join(TESTS)}")
    if scheme is not None and (k is not None or seed is not None):
        raise SrdError("a fold scheme fixes the folds; k and seed must be left unset")
    if scheme is None:
        if k is None:
            k = 8 if test == "wilcoxon" else 10
        kind = "subsample" if test == "wilcoxon" else "half_split"
        scheme = make_folds(table.n_rows, k, kind, seed)
    if test == "wilcoxon":
        _check_signed_rank_folds(scheme.k)
    elif scheme.kind != "half_split":
        raise SrdError(f"the {test} test pairs half-split replications, "
                       f"but the scheme has {scheme.kind} folds")
    units, f_values, labels = _fold_raw_units(table, scheme)
    exact = [_Scaled(row, 2 * f) for row, f in zip(units.tolist(), f_values.tolist())]
    return evaluate_folds(exact, labels, test, scheme)
