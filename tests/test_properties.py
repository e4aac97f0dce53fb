"""Property tests: the rank-once kernel against per-column ranking and a
sorted tie count, its worker threads against one worker, the integer pair
tests against the Fraction ones they replaced, the blocked integer CRRN
sampler against the float generators it replaced, and the exact CRRN sweep
against brute-force enumeration and closed forms."""

import copy
import dataclasses
import itertools
import math
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import f as f_distribution
from scipy.stats import rankdata
from scipy.stats import t as t_distribution

import srdkit as sk
from srdkit import core, crossval, distribution
from srdkit.core import TieGroups
from srdkit.crossval import _fold_raw_units
from srdkit.tableio import render_crossval_report

# Few distinct values, so most columns carry ties; -0.0 ties with 0.0.
_CELLS = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.25])


@st.composite
def tables(draw, min_rows=2, max_rows=24):
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(2, 6))
    values = draw(arrays(float, (n, m), elements=_CELLS))
    ref = draw(st.sampled_from([None] + list(range(m))))
    labels = tuple(f"c{j}" for j in range(m))
    reference = None if ref is None else labels[ref]
    return sk.DataTable(values, tuple(str(i) for i in range(n)), labels, reference)


@st.composite
def tables_with_folds(draw):
    """A table and k folds of one size >= 2 whose rows come in any order."""
    table = draw(tables())
    rows = st.permutations(range(table.n_rows))
    k = draw(st.integers(1, 5))
    size = draw(st.integers(2, table.n_rows))
    folds = tuple(tuple(draw(rows)[:size]) for _ in range(k))
    return table, sk.FoldScheme("subsample", folds, k)


def _per_column_ranks(values):
    return np.column_stack([rankdata(values[:, j]) for j in range(values.shape[1])])


def _sorted_tie_shares(values):
    """Per column of an (n, m) matrix, tied neighbours in sorted order over n - 1."""
    ordered = np.sort(values, axis=0)
    return (ordered[1:] == ordered[:-1]).sum(axis=0) / (values.shape[0] - 1)


def _per_fold_units(table, scheme):
    """Doubled raw SRD from ranking every fold's rows anew, one column at a time."""
    ref = table.col_labels.index(table.reference_label)
    units = []
    for keep in scheme.folds:
        ranks = _per_column_ranks(table.values[list(keep), :])
        raw = np.abs(ranks - ranks[:, [ref]]).sum(axis=0)
        units.append([round(2 * x) for j, x in enumerate(raw) if j != ref])
    return np.array(units, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(tables_with_folds())
def test_fold_units_equal_per_fold_ranking(case):
    table, scheme = case
    for small in (core._SMALL_CELLS, 0):  # argsort and kept rows, or packed keys and dropped
        with mock.patch.object(core, "_SMALL_CELLS", small):
            units, f_values, _ = _fold_raw_units(table, scheme)
        assert np.array_equal(units, _per_fold_units(table, scheme))
    assert f_values.tolist() == [len(f) ** 2 // 2 for f in scheme.folds]


@settings(max_examples=60, deadline=None)
@given(tables(min_rows=5, max_rows=25), st.sampled_from([2, 4, 6]), st.integers(0, 2**32))
def test_half_split_units_equal_per_fold_ranking(table, k, seed):
    # Odd row counts give halves of unequal size.
    scheme = sk.make_folds(table.n_rows, k, "half_split", seed)
    units, _, _ = _fold_raw_units(table, scheme)
    assert np.array_equal(units, _per_fold_units(table, scheme))


@settings(max_examples=100, deadline=None)
@given(tables(min_rows=1))
def test_scores_equal_per_column_computation(table):
    ranks = _per_column_ranks(table.values)
    assert np.array_equal(sk.fractional_ranks(table.values), ranks)
    for j in range(table.n_cols):
        assert np.array_equal(sk.fractional_ranks(table.values[:, j]), ranks[:, j])

    ref = table.col_labels.index(table.reference_label)
    sol = [j for j in range(table.n_cols) if j != ref]
    raw = np.array([np.abs(ranks[:, j] - ranks[:, ref]).sum() for j in sol])
    f = table.n_rows ** 2 // 2
    result = sk.srd_values(table)
    assert np.array_equal(result.raw_srd, raw)
    assert np.array_equal(result.normalized_srd, raw / f if f else np.zeros_like(raw))
    if table.n_rows >= 2:  # whole-table scores are the fold that keeps every row
        everything = sk.FoldScheme("subsample", [range(table.n_rows)], 1)
        assert np.array_equal(sk.crossval_srd(table, everything), [result.normalized_srd])

    detail = sk.detailed_srd(table)
    assert np.array_equal(detail.solution_ranks, ranks[:, sol])
    assert np.array_equal(detail.reference_ranks, ranks[:, ref])
    assert np.array_equal(detail.distances, np.abs(ranks[:, sol] - ranks[:, [ref]]))
    assert np.array_equal(detail.raw_srd, raw)

    kept = sol if table.reference is not None else list(range(table.n_cols))
    assert np.array_equal(sk.rank_matrix(table).ranks, ranks[:, kept])

    m = table.n_cols
    expected = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d = np.abs(ranks[:, i] - ranks[:, j]).sum() / f if f else 0.0
            expected[i, j] = expected[j, i] = d
    assert np.array_equal(sk.pairwise_srd(table).values, expected)


@st.composite
def placed_reference_tables(draw):
    """A tied table and its reference's index: the first, a middle or the last column."""
    place = draw(st.sampled_from(["first", "middle", "last"]))
    n = draw(st.integers(1, 24))
    m = draw(st.integers(3 if place == "middle" else 2, 6))
    values = draw(arrays(float, (n, m), elements=_CELLS))
    if place == "middle":
        ref = draw(st.integers(1, m - 2))
    else:
        ref = 0 if place == "first" else m - 1
    labels = tuple(f"c{j}" for j in range(m))
    return sk.DataTable(values, tuple(str(i) for i in range(n)), labels, labels[ref]), ref


@settings(max_examples=150, deadline=None)
@given(placed_reference_tables())
def test_detail_equals_per_column_ranking_and_shares_the_table(case):
    table, ref = case
    values, m = table.values, table.n_cols
    sol = [j for j in range(m) if j != ref]
    ranks = _per_column_ranks(values)
    distances = np.abs(ranks[:, sol] - ranks[:, [ref]])
    expected = {
        "row_labels": table.row_labels,
        "solution_labels": tuple(table.col_labels[j] for j in sol),
        "reference_label": table.col_labels[ref],
        "solution_values": values[:, sol],
        "solution_ranks": ranks[:, sol],
        "distances": distances,
        "reference_values": values[:, ref],
        "reference_ranks": ranks[:, ref],
        "raw_srd": distances.sum(axis=0),
    }
    detail = sk.detailed_srd(table)
    assert [f.name for f in dataclasses.fields(detail)] == list(expected)
    assert _bits(detail) == _bits(list(expected.values()))  # -0.0 stays -0.0
    assert np.shares_memory(detail.solution_values, values) == (ref in (0, m - 1))
    assert np.shares_memory(detail.reference_values, values)
    for result in (detail, sk.srd_values(table), sk.rank_matrix(table),
                   sk.pairwise_srd(table)):
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            assert not isinstance(value, np.ndarray) or not value.flags.writeable


@st.composite
def tie_matrices(draw):
    """Heavily tied, tie-free and constant columns side by side, from 2 rows."""
    n = draw(st.integers(2, 40))
    tied = draw(arrays(float, (n, 3), elements=_CELLS))
    distinct = draw(arrays(float, (n, 1), elements=st.floats(-1e6, 1e6), unique=True))
    return np.hstack([tied, distinct, np.full((n, 1), draw(_CELLS))])


@settings(max_examples=100, deadline=None)
@given(tie_matrices())
@example(np.array([[0.0, 1.0, 5.0], [-0.0, 2.0, 5.0]]))
def test_tie_probabilities_equal_sorted_count(values):
    expected = _sorted_tie_shares(values)
    assert np.array_equal(sk.tie_probability(values), expected)
    assert [sk.tie_probability(column) for column in values.T] == expected.tolist()


@settings(max_examples=150, deadline=None)
@given(tie_matrices(), st.data())
def test_tie_groups_rank_any_row_subset_of_any_columns(values, data):
    # Columns in any order, rows an unsorted subset: each column's ranks
    # restart from the first of its groups, selected or not.
    n, m = values.shape
    cols = data.draw(st.permutations(range(m)))[:data.draw(st.integers(1, m))]
    rows = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    picked = values[:, cols]
    for small in (core._SMALL_CELLS, 0):  # argsort, or packed keys
        with mock.patch.object(core, "_SMALL_CELLS", small):
            groups = TieGroups(values, cols)
        assert np.array_equal(groups.doubled_ranks(np.array(rows, dtype=np.intp)),
                              2 * _per_column_ranks(picked[rows]).T)
        assert np.array_equal(groups.doubled_ranks(), 2 * _per_column_ranks(picked).T)
    distinct = [len(set(column.tolist())) for column in picked.T]  # -0.0 == 0.0
    assert core._tie_shares(picked).tolist() == [(n - g) / (n - 1) for g in distinct]


def _ulps(x, count, toward):
    """``x`` and the ``count`` - 1 floats after it toward ``toward``."""
    run = [x]
    for _ in range(count - 1):
        run.append(float(np.nextafter(run[-1], toward)))
    return run


# Runs of neighbouring floats differ only in their lowest bits, which a packed
# sort key gives to the row index, so they collide in the kept bits; beside
# them -0.0 and 0.0, the smallest subnormals, the smallest normal and the
# float extremes.
_KEY_CELLS = st.sampled_from(
    _ulps(1.0, 5, 2.0) + _ulps(-3.0, 5, -4.0) + _ulps(-0.0, 4, -1.0) + _ulps(0.0, 4, 1.0)
    + [2.2250738585072014e-308, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
       -2.5, 7.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70).flatmap(
    lambda n: st.integers(1, 5).flatmap(lambda m: arrays(float, (n, m), elements=_KEY_CELLS))))
@example(np.array([[np.nextafter(1.0, 2.0)], [1.0]]))
def test_packed_key_sort_labels_and_ranks_equal_per_column_oracle(values):
    with mock.patch.object(core, "_SMALL_CELLS", 0):
        groups = TieGroups(values)
    dense = np.array([rankdata(column, method="dense") - 1 for column in values.T])
    firsts = np.cumsum([0] + [column.max() + 1 for column in dense])
    assert np.array_equal(groups.labels, dense + firsts[:-1, None])
    assert groups.firsts.tolist() == firsts[:-1].tolist() and groups.count == firsts[-1]
    assert np.array_equal(groups._sizes, np.bincount(groups.labels.ravel()))
    assert np.array_equal(groups.doubled_ranks(), 2 * _per_column_ranks(values).T)


def _recording(calls, function):
    """``function``, recording the shape of its first argument in ``calls``."""
    def record(x, *args, **kwargs):
        calls.append(x.shape)
        return function(x, *args, **kwargs)
    return record


def test_key_collisions_fall_back_to_argsort():
    # With two rows the row index takes one key bit, which is all 1.0 and the
    # next float up differ in, so the key sort orders them by row.
    up = np.nextafter(1.0, 2.0)
    collided, in_order = np.array([[up, 5.0], [1.0, 5.0]]), np.array([[1.0, 5.0], [up, 5.0]])
    expected = [2 * _per_column_ranks(v).T for v in (collided, in_order)]
    calls = []
    with mock.patch.object(core, "_SMALL_CELLS", 0), \
            mock.patch.object(core.np, "argsort", _recording(calls, np.argsort)):
        ranks = [TieGroups(v).doubled_ranks() for v in (collided, in_order)]
    assert calls == [(2, 2)]  # the collided matrix only
    assert all(np.array_equal(a, b) for a, b in zip(ranks, expected))


def _tied_table(n, m, seed, ref):
    values = np.random.default_rng(seed).integers(0, 5, size=(n, m)).astype(float)
    labels = tuple(f"c{j}" for j in range(m))
    return sk.DataTable(values, tuple(map(str, range(n))), labels, labels[ref])


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [24, 23, 13, 12, 11, 2])  # of 24 rows: more, half, fewer
def test_fold_units_from_kept_or_dropped_rows_equal_per_fold_ranking(size, cpus):
    # A fold that keeps more rows than it drops is counted from its dropped
    # rows, exactly half or fewer from its kept ones; indices come unsorted.
    table = _tied_table(24, 6, size, ref=2)
    rng = np.random.default_rng(size)
    scheme = sk.FoldScheme("subsample", [rng.permutation(24)[:size] for _ in range(3)], 3)
    with mock.patch.object(core, "_CELLS_PER_WORKER", 1), \
            mock.patch.object(core, "_SMALL_CELLS", 0), \
            mock.patch.object(core.os, "sched_getaffinity", create=True,
                              new=lambda pid: set(range(cpus))):
        units, _, _ = _fold_raw_units(table, scheme)
    assert np.array_equal(units, _per_fold_units(table, scheme))


@pytest.mark.parametrize("n, cpus", [(2003, 1), (2003, 2), (203, 1)])
def test_drawn_subsample_folds_count_only_their_dropped_rows(n, cpus):
    # 2003 x 5 is past _SMALL_CELLS, and 203 x 5 is not.
    k = 8
    table = _tied_table(n, 5, cpus, ref=4)
    scheme = sk.make_folds(n, k, seed=cpus)
    counted = []
    with mock.patch.object(core, "_CELLS_PER_WORKER", 1), \
            mock.patch.object(core.os, "sched_getaffinity", create=True,
                              new=lambda pid: set(range(cpus))), \
            mock.patch.object(core.np, "bincount", _recording(counted, np.bincount)):
        units, _, _ = _fold_raw_units(table, scheme)
    # Each worker counts its groups' sizes once over all rows as it sorts, then
    # each fold once, over its solutions and the reference: one worker all
    # five columns, two workers three each.
    rows = -(-n // k) if n * 5 >= core._SMALL_CELLS else n - -(-n // k)
    cols = 5 if cpus == 1 else 3
    assert sorted(counted) == sorted([(cols * rows,)] * k * cpus + [(cols * n,)] * cpus)
    assert np.array_equal(units, _per_fold_units(table, scheme))


@settings(max_examples=100, deadline=None)
@given(tables(min_rows=1, max_rows=40))
def test_pairwise_is_exactly_symmetric_with_zero_diagonal(table):
    values = sk.pairwise_srd(table).values
    assert np.array_equal(values, values.T)
    assert np.all(values.diagonal() == 0)
    assert np.all((values >= 0) & (values <= 1))


def _bits(value):
    """A result with every array as its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    return value


def _kernel_outputs(table, test, seed):
    outputs = [sk.srd_values(table), sk.detailed_srd(table), sk.pairwise_srd(table)]
    if table.n_rows >= 2:
        everything = sk.FoldScheme("subsample", [range(table.n_rows)], 1)
        outputs.append(sk.crossval_srd(table, everything))
    if table.n_rows >= 5:
        try:
            report = sk.cross_validate(table, test, k=5 if test == "wilcoxon" else 4, seed=seed)
        except sk.SrdError as exc:  # no spread within replications
            outputs.append(str(exc))
        else:
            outputs += [report, sk.crossval_srd(table, report.scheme),
                        render_crossval_report(report)]
    return _bits(outputs)


@settings(max_examples=60, deadline=None)
@given(tables(min_rows=1, max_rows=30), st.sampled_from(crossval.TESTS),
       st.integers(0, 2**32))
def test_rank_kernel_outputs_are_the_same_for_any_worker_count(table, test, seed):
    # With one worker per cell, every call with two or more usable CPUs splits
    # its columns; a table of two columns has fewer solutions than workers.
    # Tables count as large, so workers also sort packed keys and share out
    # the dropped rows of folds that keep most rows.
    threads = set()
    build = TieGroups.__init__

    def record(self, *args, **kwargs):
        threads.add(threading.get_ident())
        build(self, *args, **kwargs)

    outputs = []
    with mock.patch.object(core, "_CELLS_PER_WORKER", 1), \
            mock.patch.object(core, "_SMALL_CELLS", 0), \
            mock.patch.object(TieGroups, "__init__", record):
        for cpus in (1, 2, 3, 4):
            threads.clear()
            with mock.patch.object(core.os, "sched_getaffinity", create=True,
                                   new=lambda pid, cpus=cpus: set(range(cpus))):
                outputs.append(_kernel_outputs(table, test, seed))
            assert (len(threads) > 1) == (cpus > 1)  # pairwise_srd splits every table
    assert outputs[1:] == outputs[:1] * 3


# -- pair tests ----------------------------------------------------------------
# The Fraction pair tests that integer numerators over a common denominator
# replaced, kept verbatim as an oracle, with the ordering and box summary of
# evaluate_folds.

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
    if k > 62:
        raise sk.SrdError(f"signed-rank test supports at most {62} folds")
    total = k * (k + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in range(1, k + 1):
        counts[r:] += counts[:-r].copy()
    w_star = min(int(math.ceil(w_obs)), total)
    return min(1.0, 2.0 * float(counts[: w_star + 1].sum()) / 2.0**k)


def _category(p: float) -> str:
    if p < 0.05:
        return crossval.CATEGORY_SIGNIFICANT
    if p < 0.1:
        return crossval.CATEGORY_WEAK
    return crossval.CATEGORY_NONE


def _paired_folds(a, b, test_name: str) -> list[Fraction]:
    a = [_to_fraction(x) for x in a]
    b = [_to_fraction(x) for x in b]
    if len(a) != len(b):
        raise sk.SrdError(f"{test_name} needs fold value lists of equal length")
    return [x - y for x, y in zip(a, b)]


def _oracle_wilcoxon(a, b) -> sk.PairTestResult:
    d = _paired_folds(a, b, "the signed-rank test")
    if len(d) < 5:
        raise sk.SrdError("the signed-rank test needs at least 5 folds")
    d = [x for x in d if x != 0]
    if not d:
        return sk.PairTestResult(0.0, 1.0, crossval.CATEGORY_NONE)
    ranks = _exact_fractional_ranks([abs(x) for x in d])
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(r for r, x in zip(ranks, d) if x < 0)
    p = _signed_rank_tail(min(w_plus, w_minus), len(d))
    return sk.PairTestResult(abs(w_plus - w_minus), p, _category(p))


def _replication_spread(d: list[Fraction]) -> Fraction:
    return sum(
        (d[i] - d[i + 1]) ** 2 / 2 for i in range(0, len(d), 2)
    )


def _check_replications(d: list[Fraction], test_name: str) -> int:
    if len(d) % 2:
        raise sk.SrdError(f"{test_name} needs an even number of folds")
    r = len(d) // 2
    if r < 2:
        raise sk.SrdError(f"{test_name} needs at least 2 replications (4 folds)")
    return r


def _oracle_dietterich(a, b) -> sk.PairTestResult:
    d = _paired_folds(a, b, "the paired t test")
    r = _check_replications(d, "the paired t test")
    spread = _replication_spread(d)
    if spread == 0:
        raise sk.SrdError("degenerate variance: no spread within replications")
    t_stat = float(d[0]) / math.sqrt(float(spread) / r)
    p = 2.0 * float(t_distribution.sf(abs(t_stat), r))
    return sk.PairTestResult(t_stat, p, _category(p))


def _oracle_alpaydin(a, b) -> sk.PairTestResult:
    d = _paired_folds(a, b, "the paired F test")
    r = _check_replications(d, "the paired F test")
    spread = _replication_spread(d)
    if spread == 0:
        raise sk.SrdError("degenerate variance: no spread within replications")
    f_stat = float(sum(x * x for x in d) / (2 * spread))
    p = float(f_distribution.sf(f_stat, 2 * r, r))
    return sk.PairTestResult(f_stat, p, _category(p))


_ORACLE_TESTS = {
    "wilcoxon": (sk.wilcoxon_pair_test, _oracle_wilcoxon),
    "dietterich": (sk.dietterich_pair_test, _oracle_dietterich),
    "alpaydin": (sk.alpaydin_pair_test, _oracle_alpaydin),
}


def _nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    kth = max(1, math.ceil(p * sorted_values.size))
    return float(sorted_values[kth - 1])


def _oracle_evaluate(fold_srd, test):
    """(values, column order, pair results, box summary) as evaluate_folds gave them."""
    exact = [[_to_fraction(x) for x in row] for row in fold_srd]
    m = len(exact[0])
    values = np.array([[float(x) for x in row] for row in exact])
    medians = np.median(values, axis=0)
    means = values.mean(axis=0)
    order = tuple(int(j) for j in np.lexsort((np.arange(m), means, medians)))
    run_test = _ORACLE_TESTS[test][1]
    pair_results = tuple(
        run_test([row[order[i]] for row in exact], [row[order[i + 1]] for row in exact])
        for i in range(m - 1)
    )
    box = np.zeros((len(crossval.BOX_ROWS), m))
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
    return values, order, pair_results, box


def _same_outcome(run, oracle, *args):
    """Both raise SrdError with one message, or both return equal results."""
    try:
        expected = oracle(*args)
    except sk.SrdError as exc:
        with pytest.raises(sk.SrdError) as got:
            run(*args)
        assert str(got.value) == str(exc)
        return None
    assert run(*args) == expected
    return expected


@st.composite
def fold_matrices(draw):
    """A k x m fold matrix as Fractions, floats, ints or a mix of them.

    Rows take one or two denominators, as subsample folds and half splits of
    an odd row count do.  Small numerators make zero differences and ties
    in |difference| common; large ones pass 2^53.
    """
    k = draw(st.integers(4, 12))
    m = draw(st.integers(2, 5))
    denominators = draw(st.lists(st.sampled_from([1, 2, 3, 8, 224, 2 * 10**9 + 2]),
                                 min_size=1, max_size=2))
    top = draw(st.sampled_from([4, 40, 2**60]))
    numerators = draw(st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m),
                               min_size=k, max_size=k))
    kind = draw(st.sampled_from(["fraction", "float", "int", "mixed"]))
    kinds = [draw(st.sampled_from(["fraction", "float", "int"])) if kind == "mixed"
             else kind for _ in range(k * m)]
    convert = {"fraction": Fraction, "float": lambda p, q: p / q, "int": lambda p, q: p}
    return [[convert[kinds[i * m + j]](p, denominators[i % len(denominators)])
             for j, p in enumerate(row)] for i, row in enumerate(numerators)]


@settings(max_examples=300, deadline=None)
@given(fold_matrices(), st.sampled_from(crossval.TESTS))
# t rounds at a different place if the denominator is cancelled out.
@example([[Fraction(1, 7), 0], [0, 0], [0, 0], [Fraction(1, 7), 0]], "dietterich")
def test_pair_tests_equal_fraction_oracle(matrix, test):
    run, oracle = _ORACLE_TESTS[test]
    for j in range(len(matrix[0]) - 1):
        a, b = [row[j] for row in matrix], [row[j + 1] for row in matrix]
        _same_outcome(run, oracle, a, b)
        _same_outcome(run, oracle, b, a)


@settings(max_examples=200, deadline=None)
@given(fold_matrices(), st.sampled_from(crossval.TESTS))
def test_evaluate_folds_equals_fraction_oracle(matrix, test):
    try:
        values, order, pair_results, box = _oracle_evaluate(matrix, test)
    except sk.SrdError:
        with pytest.raises(sk.SrdError):
            sk.evaluate_folds(matrix, None, test)
        return
    report = sk.evaluate_folds(matrix, None, test)
    assert np.array_equal(report.fold_srd, values)
    assert report.column_order == order
    assert report.pair_results == pair_results
    assert np.array_equal(report.box_summary, box)


@settings(max_examples=80, deadline=None)
@given(tables(min_rows=10, max_rows=25), st.sampled_from(crossval.TESTS),
       st.sampled_from([6, 8, 10]), st.integers(0, 2**32))
def test_cross_validate_equals_fraction_oracle(table, test, k, seed):
    # Odd row counts give half splits with two denominators.
    kind = "subsample" if test == "wilcoxon" else "half_split"
    scheme = sk.make_folds(table.n_rows, k, kind, seed)
    units, f_values, _ = _fold_raw_units(table, scheme)
    exact = [[Fraction(int(u), int(2 * f)) for u in row] for row, f in zip(units, f_values)]
    try:
        values, order, pair_results, box = _oracle_evaluate(exact, test)
    except sk.SrdError:
        with pytest.raises(sk.SrdError):
            sk.cross_validate(table, test, scheme=scheme)
        return
    report = sk.cross_validate(table, test, scheme=scheme)
    assert np.array_equal(report.fold_srd, values)
    assert report.column_order == order
    assert report.pair_results == pair_results
    assert np.array_equal(report.box_summary, box)


# -- CRRN sampler ------------------------------------------------------------
# The float generators the blocked kernel replaced, kept verbatim as an
# oracle: each sub-stream drew every merge uniform, then every permutation
# uniform, in one call each, and held float64 (size, n) arrays throughout.

def _perm_batch(n, size, rng):
    return np.argsort(rng.random((size, n)), axis=1) + 1.0


def _tied_batch(n, tie_probs, rng):
    size = tie_probs.shape[0]
    if n == 1:
        return np.ones((size, 1))
    idx = np.arange(n)
    merge = rng.random((size, n - 1)) < tie_probs[:, None]
    starts_group = np.ones((size, n), dtype=bool)
    starts_group[:, 1:] = ~merge
    first = np.maximum.accumulate(np.where(starts_group, idx, 0), axis=1)
    ends_group = np.ones((size, n), dtype=bool)
    ends_group[:, :-1] = starts_group[:, 1:]
    last = np.minimum.accumulate(
        np.where(ends_group, idx, n - 1)[:, ::-1], axis=1
    )[:, ::-1]
    sorted_ranks = (first + last) / 2.0 + 1.0
    perm = np.argsort(rng.random((size, n)), axis=1)
    return np.take_along_axis(sorted_ranks, perm, axis=1)


def _doubled_srd_counts(solution, reference, n_bins):
    raw2 = np.rint(np.abs(solution - reference).sum(axis=1) * 2.0).astype(np.int64)
    return np.bincount(raw2, minlength=n_bins)


def _oracle_chunk_counts(option, n, size, seed_seq, ref_ranks, tie_probs, n_bins):
    rng = np.random.default_rng(seed_seq)
    if option == "n":
        sol, ref = _perm_batch(n, size, rng), ref_ranks[None, :]
    elif option == "r":
        sol = _perm_batch(n, size, rng)
        ref = _perm_batch(n, size, rng)
    elif option == "t":
        sol = _tied_batch(n, np.broadcast_to(tie_probs, (size,)), rng)
        ref = _tied_batch(n, np.broadcast_to(tie_probs, (size,)), rng)
    elif option == "d":
        donors = rng.integers(0, tie_probs.shape[0], size=size)
        sol, ref = _tied_batch(n, tie_probs[donors], rng), ref_ranks[None, :]
    else:
        sol = _tied_batch(n, np.broadcast_to(tie_probs, (size,)), rng)
        ref = ref_ranks[None, :]
    return _doubled_srd_counts(sol, ref, n_bins)


def _oracle_distribution(table, option, tie_prob, samples, seed):
    """(support, frequency) as the float generators produced them."""
    ref_label = table.reference_label
    if option in ("t", "p"):
        tie_probs = np.full(1, tie_prob)
    elif option == "f":
        tie_probs = _sorted_tie_shares(table.column(ref_label)[:, None])
    elif option == "d":
        solutions = [j for j, c in enumerate(table.col_labels) if c != ref_label]
        tie_probs = _sorted_tie_shares(table.values[:, solutions])
    else:
        tie_probs = np.zeros(1)
    n = table.n_rows
    f = sk.max_srd(n)
    chunk = 1 << 16
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    ref_ranks = rankdata(table.column(ref_label))
    counts = sum(_oracle_chunk_counts(option, n, size, child, ref_ranks, tie_probs,
                                      2 * f + 1)
                 for size, child in zip(sizes, children))
    observed = np.nonzero(counts)[0]
    return observed / (2.0 * f), counts[observed] / samples


_TIE_PROBS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _check_against_oracle(table, option, tie_prob, samples, seed, workers):
    tie_prob = tie_prob if option in ("t", "p") else None
    # As many usable CPUs as workers, so that each worker count stripes the
    # blocks its own way, whatever the host.
    with mock.patch.object(core.os, "sched_getaffinity", create=True,
                           new=lambda pid: set(range(workers))):
        dist = sk.generate_distribution(table, option, tie_prob=tie_prob,
                                        samples=samples, seed=seed)
    support, frequency = _oracle_distribution(table, option, tie_prob, samples, seed)
    assert np.array_equal(dist.support, support)
    assert np.array_equal(dist.frequency, frequency)
    # Every support value is a grid point k * 0.5 / floor(n^2 / 2) in [0, 1].
    f = sk.max_srd(table.n_rows)
    k = np.rint(dist.support * (2 * f))
    assert np.array_equal(dist.support, k / (2 * f))
    assert np.all((k >= 0) & (k <= 2 * f))


@settings(max_examples=80, deadline=None)
@given(tables(max_rows=40), st.sampled_from(distribution.OPTIONS), _TIE_PROBS,
       st.integers(1, 1500), st.integers(1, 5000), st.integers(0, 2**32),
       st.sampled_from([1, 2, 3, 8]))
def test_sampler_counts_equal_float_oracle(table, option, tie_prob, samples, block,
                                           seed, workers):
    # Row blocks and the workers that share them bound memory and time only,
    # so any block budget and worker count give the same counts; small
    # budgets make many blocks, the last one usually partial.
    with mock.patch.object(distribution, "_BLOCK", block):
        _check_against_oracle(table, option, tie_prob, samples, seed, workers)


@settings(max_examples=8, deadline=None)
@given(tables(max_rows=6), st.sampled_from(distribution.OPTIONS), _TIE_PROBS,
       st.integers(65_537, 68_000), st.integers(0, 2**32), st.sampled_from([1, 2, 3, 8]))
def test_sampler_counts_equal_float_oracle_across_sub_streams(table, option, tie_prob,
                                                             samples, seed, workers):
    _check_against_oracle(table, option, tie_prob, samples, seed, workers)


# A sub-stream's doubled SRD values: clustered near a base that may lie far
# from the other sub-streams' bases.
_SUB_STREAM = st.tuples(st.integers(0, 10**6), st.lists(st.integers(0, 50), min_size=1,
                                                        max_size=40))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SUB_STREAM, min_size=1, max_size=6))
@example([(7, [0])])
@example([(3, [0]), (900_000, [0]), (3, [0, 0])])
@example([(500_000, [0, 1]), (0, [0]), (999_950, [49, 50])])
def test_sub_stream_histograms_merge_to_one_bincount(parts):
    values = [np.array([base + x for x in offsets], dtype=np.int64) for base, offsets in parts]
    everything = np.concatenate(values)
    lo, counts = 0, np.zeros(0, dtype=np.int64)
    for part in values:
        lo, counts = distribution._merged_counts(lo, counts, part)
    assert lo == everything.min() and counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(everything)[lo:])


@pytest.mark.parametrize("option", distribution.OPTIONS)
def test_sampler_counts_equal_float_oracle_beyond_the_sort_keys(option):
    # n = 3000 has more columns than a sort key can index, so every block, of
    # 21 rows for one worker and 10 for two, is argsorted.
    rng = np.random.default_rng(3000)
    table = sk.from_columns({"a": np.round(rng.normal(size=3000), 1),
                             "ref": np.round(rng.normal(size=3000), 2)})
    for workers in (1, 2):
        _check_against_oracle(table, option, 0.3, 40, 7, workers)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), _TIE_PROBS, st.integers(0, 2**32))
def test_random_tied_ranking_equals_float_oracle(n, tie_prob, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ranks = sk.random_tied_ranking(n, tie_prob, rng)
    expected = _tied_batch(n, np.full(1, tie_prob), oracle_rng)[0]
    assert ranks.dtype == expected.dtype and np.array_equal(ranks, expected)
    assert rng.random() == oracle_rng.random()  # same draws consumed


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 60), st.integers(1, 40),
       st.integers(0, 3000), st.integers(1, 9))
def test_numpy_draw_accounting_behind_phase_copies(seed, rows, width, donors, columns):
    # The sampler reads each phase of a sub-stream from a copy of its generator
    # advanced past the earlier phases.  That is exact only while a (rows,
    # width) ``random`` draw takes rows * width PCG64 outputs, also after the
    # buffered 32-bit ``integers`` draw of option 'd'.
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rng.integers(0, columns, size=donors)
    ahead = copy.deepcopy(rng)
    ahead.bit_generator.advance(rows * width)
    rng.random((rows, width))
    assert rng.bit_generator.state["state"] == ahead.bit_generator.state["state"]
    assert np.array_equal(rng.random((width, 3)), ahead.random((width, 3)))


# -- exact CRRN null -----------------------------------------------------------
# The n! enumeration the sweep replaced, kept as an oracle.

def _enumerated_counts(n, reference):
    perms = np.array(list(itertools.permutations(range(2, 2 * n + 1, 2))))
    raw2 = np.abs(perms - np.rint(2 * np.asarray(reference)).astype(int)).sum(axis=1)
    return np.bincount(raw2, minlength=2 * sk.max_srd(n) + 1)


def _exact_counts(dist):
    """Doubled-raw-SRD counts as Python ints, checked to lie on the grid in [0, 1]."""
    n, total = dist.n_objects, math.factorial(dist.n_objects)
    two_f = 2 * sk.max_srd(n)
    k = np.rint(dist.support * two_f).astype(int)
    assert np.array_equal(dist.support, k / two_f)
    assert np.all((k >= 0) & (k <= two_f))
    counts = [int(c) for c in np.rint(dist.frequency * total)]
    assert sum(counts) == total == dist.sample_count
    return dict(zip(k.tolist(), counts))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda n: arrays(int, n, elements=st.integers(0, n))))
@example(np.array([0, 0, 1, 2, 3, 4, 4]))
def test_exact_sweep_equals_enumeration_over_tied_references(values):
    n = values.size
    reference = sk.fractional_ranks(values)
    dist = sk.exact_distribution(n, reference)
    expected = _enumerated_counts(n, reference)
    assert _exact_counts(dist) == {k: int(c) for k, c in enumerate(expected) if c}
    observed = np.nonzero(expected)[0]
    assert np.array_equal(dist.frequency, expected[observed] / math.factorial(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 18).flatmap(lambda n: st.permutations(range(1, n + 1))))
@example(list(range(1, 19)))
def test_exact_tie_free_moments_equal_closed_forms(reference):
    n = len(reference)
    counts = _exact_counts(sk.exact_distribution(n, reference))
    total = math.factorial(n)
    # Raw SRD is k / 2 for doubled distance k.
    mean = Fraction(sum(k * c for k, c in counts.items()), 2 * total)
    second = Fraction(sum(k * k * c for k, c in counts.items()), 4 * total)
    assert mean == Fraction(n * n - 1, 3)
    assert second - mean ** 2 == Fraction((n + 1) * (2 * n * n + 7), 45)
