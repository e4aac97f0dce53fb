"""Property tests: the rank-once kernel against per-column ranking."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

import srdkit as sk
from srdkit.crossval import _fold_raw_units

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
    """A table and k folds of any size >= 2 whose rows come in any order."""
    table = draw(tables())
    rows = st.permutations(range(table.n_rows))
    k = draw(st.integers(1, 5))
    folds = []
    for _ in range(k):
        size = draw(st.integers(2, table.n_rows))
        folds.append(tuple(draw(rows)[:size]))
    return table, sk.FoldScheme("subsample", tuple(folds), k)


def _per_column_ranks(values):
    return np.column_stack([rankdata(values[:, j]) for j in range(values.shape[1])])


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


@settings(max_examples=100, deadline=None)
@given(tables(min_rows=1, max_rows=40))
def test_pairwise_is_exactly_symmetric_with_zero_diagonal(table):
    values = sk.pairwise_srd(table).values
    assert np.array_equal(values, values.T)
    assert np.all(values.diagonal() == 0)
    assert np.all((values >= 0) & (values <= 1))
