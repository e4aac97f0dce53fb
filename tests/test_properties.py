"""Property tests: the rank-once kernel against per-column ranking, the
blocked integer CRRN sampler against the float generators it replaced, and
the exact CRRN sweep against brute-force enumeration and closed forms."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

import srdkit as sk
from srdkit import distribution
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
        tie_probs = np.full(1, sk.tie_probability(table.column(ref_label)))
    elif option == "d":
        tie_probs = np.array([sk.tie_probability(table.column(c))
                              for c in table.col_labels if c != ref_label])
    else:
        tie_probs = np.zeros(1)
    n = table.n_rows
    f = sk.max_srd(n)
    chunk = 1 << 16
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    ref_ranks = sk.fractional_ranks(table.column(ref_label))
    counts = sum(_oracle_chunk_counts(option, n, size, child, ref_ranks, tie_probs,
                                      2 * f + 1)
                 for size, child in zip(sizes, children))
    observed = np.nonzero(counts)[0]
    return observed / (2.0 * f), counts[observed] / samples


_TIE_PROBS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _check_against_oracle(table, option, tie_prob, samples, seed, workers):
    tie_prob = tie_prob if option in ("t", "p") else None
    dist = sk.generate_distribution(table, option, tie_prob=tie_prob,
                                    samples=samples, seed=seed, workers=workers)
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
       st.sampled_from([1, 2]))
def test_sampler_counts_equal_float_oracle(table, option, tie_prob, samples, block,
                                           seed, workers):
    # Row blocks bound memory only, so any block budget gives the same counts;
    # small budgets make many blocks, the last one usually partial.
    with mock.patch.object(distribution, "_BLOCK", block):
        _check_against_oracle(table, option, tie_prob, samples, seed, workers)


@settings(max_examples=8, deadline=None)
@given(tables(max_rows=6), st.sampled_from(distribution.OPTIONS), _TIE_PROBS,
       st.integers(65_537, 68_000), st.integers(0, 2**32), st.sampled_from([1, 2]))
def test_sampler_counts_equal_float_oracle_across_sub_streams(table, option, tie_prob,
                                                             samples, seed, workers):
    _check_against_oracle(table, option, tie_prob, samples, seed, workers)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), _TIE_PROBS, st.integers(0, 2**32))
def test_random_tied_ranking_equals_float_oracle(n, tie_prob, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ranks = sk.random_tied_ranking(n, tie_prob, rng)
    expected = _tied_batch(n, np.full(1, tie_prob), oracle_rng)[0]
    assert ranks.dtype == expected.dtype and np.array_equal(ranks, expected)
    assert rng.random() == oracle_rng.random()  # same draws consumed


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
