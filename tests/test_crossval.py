import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import srdkit as sk
from srdkit import SrdError, core, crossval
from srdkit.crossval import BOX_ROWS
from tests.conftest import (
    PUBLISHED_CATEGORIES,
    PUBLISHED_ORDER_1BASED,
    PUBLISHED_STATISTICS,
    SOLUTION_LABELS,
)


class TestMakeFolds:
    def test_subsample_retains_n_minus_ceil(self):
        scheme = sk.make_folds(18, 8, "subsample", seed=0)
        assert scheme.k == 8
        assert all(len(fold) == 15 for fold in scheme.folds)

    def test_sixteen_rows_eight_folds_drop_two(self):
        scheme = sk.make_folds(16, 8, "subsample", seed=0)
        assert all(len(fold) == 14 for fold in scheme.folds)

    def test_half_split_partitions(self):
        scheme = sk.make_folds(10, 10, "half_split", seed=1)
        assert len(scheme.folds) == 10
        for i in range(0, 10, 2):
            first, second = scheme.folds[i], scheme.folds[i + 1]
            assert len(first) == 5 and len(second) == 5
            assert sorted(first + second) == list(range(10))

    def test_odd_row_count_half_split_sizes(self):
        scheme = sk.make_folds(9, 4, "half_split", seed=2)
        assert sorted(len(f) for f in scheme.folds[:2]) == [4, 5]

    def test_seed_determinism(self):
        assert sk.make_folds(18, 8, seed=3) == sk.make_folds(18, 8, seed=3)
        assert sk.make_folds(18, 8, seed=3) != sk.make_folds(18, 8, seed=4)

    def test_invalid_parameters(self):
        with pytest.raises(SrdError):
            sk.make_folds(10, 1)
        with pytest.raises(SrdError):
            sk.make_folds(10, 5, "half_split")
        with pytest.raises(SrdError):
            sk.make_folds(4, 8, "subsample")
        with pytest.raises(SrdError):
            sk.make_folds(3, 4, "half_split")
        with pytest.raises(SrdError):
            sk.make_folds(3, 2, "subsample")  # would retain one row
        with pytest.raises(SrdError):
            sk.make_folds(10, 2, "bootstrap")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=-1), "seed must be an integer of at least 0, got -1"),
        (dict(seed=2.5), "seed must be an integer"),
        (dict(k=2.5), "fold count must be an integer of at least 2, got 2.5"),
    ])
    def test_bad_seed_or_fold_count_rejected(self, bundesliga, kwargs, message):
        with pytest.raises(SrdError, match=message):
            sk.make_folds(18, **{"k": 8, **kwargs})
        with pytest.raises(SrdError, match=message):
            sk.cross_validate(bundesliga, **kwargs)

    @pytest.mark.parametrize("n", [10.5, np.float64(10.0), "10"])
    def test_row_count_must_be_an_integer(self, n):
        with pytest.raises(SrdError, match="row count must be an integer"):
            sk.make_folds(n, 2)

    def test_numpy_integer_seed_equals_int_seed(self):
        assert sk.make_folds(18, np.int64(8), seed=np.int64(3)) == sk.make_folds(18, 8, seed=3)

    def test_scheme_validation(self):
        with pytest.raises(SrdError):
            sk.FoldScheme("subsample", ((0, 1), (0,)), 2)
        with pytest.raises(SrdError):
            sk.FoldScheme("subsample", ((0, 0, 1),), 1)
        with pytest.raises(SrdError):
            sk.FoldScheme("subsample", ((0, 1),), 2)

    @pytest.mark.parametrize("fold", [(2, 0, 2), (3, -1, 4), (1, 0, 1, 2)])
    def test_unsorted_folds_are_checked_like_sorted_ones(self, fold):
        with pytest.raises(SrdError, match="fold indices must be unique and nonnegative"):
            sk.FoldScheme("subsample", (fold,), 1)

    @pytest.mark.parametrize("fold", [(0, 1, 2.5), (0.0, 1.0), ("0", "1"), (True, False),
                                      ([0, 1], [2]), 5])
    def test_scheme_rejects_non_integer_indices(self, fold):
        with pytest.raises(SrdError, match="integers"):
            sk.FoldScheme("subsample", (fold,), 1)

    def test_scheme_holds_python_ints(self):
        scheme = sk.FoldScheme("half_split", (np.array([3, 1]), [np.int64(0), 2]), 2)
        assert scheme.folds == ((3, 1), (0, 2))
        assert all(type(i) is int for fold in scheme.folds for i in fold)

    def test_subsample_folds_must_share_one_size(self):
        with pytest.raises(SrdError, match="same number of rows"):
            sk.FoldScheme("subsample", ((0, 1, 2), (0, 1)), 2)

    @pytest.mark.parametrize("folds, message", [
        (((0, 1), (2, 3), (0, 2)), "in pairs"),
        (((0, 1, 2), (2, 3)), "folds 1 and 2 share a row"),
        (((0, 1), (2, 3), (0, 2), (1, 4)), "folds 3 and 4 cover other rows"),
        (((0, 1), (2, 3), (0, 2), (1, 3), (0, 1), (2, 4)), "folds 5 and 6 cover other rows"),
        (((0, 2**40), (2**40, 3)), "folds 1 and 2 share a row"),
        (((0, 2**40), (2, 3), (0, 2), (3, 2**41)), "folds 3 and 4 cover other rows"),
    ])
    def test_half_splits_must_be_complementary(self, folds, message):
        with pytest.raises(SrdError, match=message):
            sk.FoldScheme("half_split", folds, len(folds))

    def test_half_splits_of_unequal_halves_are_accepted(self):
        scheme = sk.FoldScheme("half_split", ((4, 0, 2), (1, 3), (1, 2), (0, 3, 4)), 4)
        assert scheme.folds[0] == (4, 0, 2)

    def test_sparse_half_splits_are_accepted(self):
        folds = ((2**40, 0, 2), (1, 2**62), (1, 2), (0, 2**62, 2**40))
        assert sk.FoldScheme("half_split", folds, 4).folds == folds

    def test_drawn_schemes_pass_validation(self):
        for kind in ("subsample", "half_split"):
            drawn = sk.make_folds(17, 6, kind, seed=9)
            assert sk.FoldScheme(kind, drawn.folds, 6, 9) == drawn
            assert sk.FoldScheme(kind, drawn.rows, 6, 9) == drawn

    def test_scheme_rows_are_read_only_intp_arrays(self):
        for scheme in (sk.make_folds(17, 6, "half_split", seed=9),
                       sk.FoldScheme("subsample", ((3, 1), [np.uint8(0), 2]), 2)):
            for fold in scheme.rows:
                assert fold.dtype == np.intp and not fold.flags.writeable

    def test_scheme_keeps_its_own_copy_of_the_folds(self):
        fold = np.array([0, 1, 2], dtype=np.intp)
        scheme = sk.FoldScheme("subsample", (fold,), 1)
        assert fold.flags.writeable and not np.shares_memory(fold, scheme.rows[0])
        fold[0] = 7
        assert scheme.folds == ((0, 1, 2),)
        assert scheme == sk.FoldScheme("subsample", ((0, 1, 2),), 1)

    def test_scheme_copies_the_rows_of_another_scheme(self):
        drawn = sk.make_folds(17, 6, "half_split", seed=9)
        again = sk.FoldScheme("half_split", drawn.rows, 6, 9)
        assert not any(np.shares_memory(a, b) for a, b in zip(drawn.rows, again.rows))

    def test_drawn_folds_are_kept_without_a_copy(self, monkeypatch):
        # The scheme keeps the arrays make_folds drew, so drawing holds little
        # more than the folds kept: a copy of each would double the peak.
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        tracemalloc.start()
        try:
            scheme = sk.make_folds(100_000, 8, seed=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(fold.nbytes for fold in scheme.rows)
        assert kept == 8 * 87_500 * np.dtype(np.intp).itemsize
        assert kept <= held < 1.05 * kept and peak < 1.25 * kept

    def test_index_past_the_intp_range_rejected(self):
        # A plain cast to intp would turn 2**64 - 1 into row -1, the last row.
        fold = np.array([0, 2**64 - 1], dtype=np.uint64)
        with pytest.raises(SrdError, match="fold index 18446744073709551615"):
            sk.FoldScheme("subsample", (fold,), 1)

    def test_sparse_hand_built_indices_give_their_folds(self):
        scheme = sk.FoldScheme("subsample", ((0, 2**62), (5, 1)), 2)
        assert scheme.folds == ((0, 2**62), (5, 1))

    def test_scheme_equality_and_hash_follow_the_folds(self):
        scheme = sk.FoldScheme("subsample", ((0, 1, 2), (3, 4, 5)), 2, 7)
        same = sk.FoldScheme("subsample", [np.array([0, 1, 2]), [3, 4, 5]], 2, 7)
        assert scheme == same and hash(scheme) == hash(same)
        assert scheme != sk.FoldScheme("subsample", ((0, 1, 2), (3, 4, 6)), 2, 7)
        assert scheme != sk.FoldScheme("subsample", ((0, 1, 2), (3, 4, 5)), 2, 8)
        assert scheme != scheme.folds
        with pytest.raises(AttributeError):
            scheme.k = 3

    @pytest.mark.parametrize("folds, k, seed, message", [
        ((), 0, None, "fold count must be an integer of at least 1, got 0"),
        (((0, 1),), True, None, "fold count must be an integer of at least 1, got True"),
        (((0, 1),), 1.0, None, "fold count must be an integer"),
        (((0, 1),), 1, -1, "seed must be an integer of at least 0, got -1"),
        (((0, 1),), 1, 2.5, "seed must be an integer"),
    ], ids=["zero_folds", "bool_k", "float_k", "negative_seed", "float_seed"])
    def test_scheme_checks_fold_count_and_seed(self, folds, k, seed, message):
        with pytest.raises(SrdError, match=message):
            sk.FoldScheme("subsample", folds, k, seed)

    @pytest.mark.parametrize("folds", [None, 5])
    def test_scheme_rejects_folds_that_are_not_a_sequence(self, folds):
        with pytest.raises(SrdError, match="folds must be a sequence of row-index sequences"):
            sk.FoldScheme("subsample", folds, 2)

    def test_drawn_folds_share_one_int_per_row(self):
        scheme = sk.make_folds(1000, 4, seed=1)
        ids = {id(i) for fold in scheme.folds for i in fold}
        assert len(ids) == len({i for fold in scheme.folds for i in fold})


class TestCrossvalSrd:
    def test_full_fold_equals_plain_srd(self, bundesliga):
        scheme = sk.FoldScheme("subsample", (tuple(range(18)),) * 2, 2)
        matrix = sk.crossval_srd(bundesliga, scheme)
        expected = sk.srd_values(bundesliga).normalized_srd
        assert np.array_equal(matrix[0], expected)
        assert np.array_equal(matrix[1], expected)

    def test_solution_equal_to_reference_is_zero_in_every_fold(self):
        table = sk.from_columns(
            {"copy": list(range(10)), "other": [3, 1, 4, 1, 5, 9, 2, 6, 8, 7],
             "ref": list(range(10))},
            reference="ref",
        )
        scheme = sk.make_folds(10, 5, seed=5)
        assert np.all(sk.crossval_srd(table, scheme)[:, 0] == 0)

    def test_replayed_folds_reproduce_published_matrix(
        self, bundesliga, published_run_scheme, published_folds_float
    ):
        matrix = sk.crossval_srd(bundesliga, published_run_scheme)
        assert matrix.shape == (8, 7)
        assert np.allclose(matrix, published_folds_float, atol=5e-8)

    def test_out_of_range_fold_index(self, bundesliga):
        # Row 18 is the first past the table; the check must come before the
        # rank gather, which would raise IndexError instead.
        folds = [tuple(range(15))] * 5
        folds[2] = tuple(range(14)) + (18,)
        scheme = sk.FoldScheme("subsample", tuple(folds), 5)
        for run in (sk.crossval_srd, sk.cross_validate):
            with pytest.raises(SrdError, match="fold 3 refers to row 18"):
                run(bundesliga, scheme=scheme)

    def test_one_column_table_rejected(self):
        table = sk.from_columns({"ref": [3, 1, 2, 5, 4]})
        scheme = sk.FoldScheme("half_split", ((0, 1, 2), (3, 4)) * 2, 4)
        for run in (sk.crossval_srd, sk.cross_validate):
            with pytest.raises(SrdError, match="two columns"):
                run(table, scheme=scheme)

    def test_sums_past_int32_stay_exact(self):
        # A reversed column of 52,500 retained rows has a doubled raw SRD of
        # 52,500^2 = 2.76e9, past 2^31: rank sums accumulated in int32 wrap.
        n = 60_000
        table = sk.from_columns({"rev": np.arange(n)[::-1], "ref": np.arange(n)},
                                reference="ref")
        assert sk.srd_values(table).normalized_srd.tolist() == [1.0]
        scheme = sk.make_folds(n, 8, seed=1)
        assert {len(fold) for fold in scheme.folds} == {52_500}
        assert sk.crossval_srd(table, scheme).tolist() == [[1.0]] * 8
        assert sk.pairwise_srd(table).values.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def _brute_force_p(a, b):
    """Signed-rank p by full enumeration of sign assignments on ranks 1..k."""
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
    hits = sum(
        1
        for signs in itertools.product((0, 1), repeat=k)
        if sum(rank for rank, s in zip(range(1, k + 1), signs) if s) <= w_star
    )
    return min(1.0, 2 * hits / 2**k)


class TestWilcoxonPairTest:
    def test_published_first_pair(self, published_folds_exact):
        possession = [row[2] for row in published_folds_exact]
        shots = [row[0] for row in published_folds_exact]
        result = sk.wilcoxon_pair_test(possession, shots)
        assert result.statistic == 4
        assert result.category == "n.s."

    def test_published_second_pair_keeps_exact_ties(self, published_folds_exact):
        shots = [row[0] for row in published_folds_exact]
        passes = [row[3] for row in published_folds_exact]
        result = sk.wilcoxon_pair_test(shots, passes)
        assert result.statistic == 29
        assert result.category == "(p<0.1)"

    def test_published_pair_with_a_zero_difference(self, published_folds_exact):
        dribbles = [row[4] for row in published_folds_exact]
        offsides = [row[5] for row in published_folds_exact]
        result = sk.wilcoxon_pair_test(dribbles, offsides)
        assert result.statistic == 6
        assert result.category == "n.s."

    def test_all_positive_distinct_differences(self):
        result = sk.wilcoxon_pair_test(list(range(1, 9)), [0.5] * 8)
        assert result.statistic == 36
        assert result.p_value == pytest.approx(2 / 256, abs=1e-15)
        assert result.category == "(p<0.05*)"

    def test_identical_samples_are_degenerate(self):
        result = sk.wilcoxon_pair_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert result.statistic == 0
        assert result.category == "n.s."

    def test_swapping_sides_preserves_statistic(self):
        rng = np.random.default_rng(6)
        a, b = rng.random(8).tolist(), rng.random(8).tolist()
        r1, r2 = sk.wilcoxon_pair_test(a, b), sk.wilcoxon_pair_test(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for k in (5, 6, 8, 10):
            for _ in range(5):
                a = (rng.integers(0, 6, size=k) / 4).tolist()
                b = (rng.integers(0, 6, size=k) / 4).tolist()
                assert sk.wilcoxon_pair_test(a, b).p_value == pytest.approx(
                    _brute_force_p(a, b), abs=1e-12
                )

    def test_too_few_folds(self):
        with pytest.raises(SrdError, match="at least 5"):
            sk.wilcoxon_pair_test([1, 2, 3], [3, 2, 1])

    def test_length_mismatch(self):
        with pytest.raises(SrdError, match="equal length"):
            sk.wilcoxon_pair_test([1, 2, 3, 4, 5], [1, 2, 3, 4])

    @pytest.mark.parametrize("zeros", [0, 1, 5])
    def test_fold_limit_counts_zero_differences(self, zeros):
        a = list(range(63))
        b = [x + 0.5 for x in a[zeros:]]
        with pytest.raises(SrdError, match="at most 62 folds, got 63"):
            sk.wilcoxon_pair_test(a, a[:zeros] + b)

    def test_sixty_two_folds_are_exact(self):
        result = sk.wilcoxon_pair_test(list(range(62)), [x + 0.5 for x in range(62)])
        assert result.p_value == 2 / 2**62

    def test_null_is_shared_and_read_only(self):
        # Every later test reads the same table, so no caller may change it.
        null = crossval._signed_rank_null(4)
        assert crossval._signed_rank_null(4) is null
        assert null.tolist() == [1, 2, 3, 5, 7, 9, 11, 13, 14, 15, 16]
        with pytest.raises(ValueError):
            null[0] = 0


class TestDietterichPairTest:
    def test_alternating_unit_differences(self):
        # d = (1, -1) in each of 5 replications: spread 2 each, t = 1/sqrt(2).
        result = sk.dietterich_pair_test([1, 0] * 5, [0, 1] * 5)
        assert result.statistic == pytest.approx(1 / math.sqrt(2))
        assert result.p_value == pytest.approx(0.5110840804302808, abs=1e-9)
        assert result.category == "n.s."

    def test_zero_first_difference_gives_zero_statistic(self):
        result = sk.dietterich_pair_test([1, 3, 2, 0], [1, 1, 0, 1])
        assert result.statistic == 0
        assert result.category == "n.s."

    def test_equal_differences_are_degenerate(self):
        result = sk.dietterich_pair_test([2, 2, 2, 2], [1, 1, 1, 1])
        assert result == sk.PairTestResult(0.0, 1.0, "n.s.")

    def test_swapping_sides_negates_t(self):
        rng = np.random.default_rng(8)
        a, b = rng.random(10).tolist(), rng.random(10).tolist()
        r1, r2 = sk.dietterich_pair_test(a, b), sk.dietterich_pair_test(b, a)
        assert r1.statistic == pytest.approx(-r2.statistic)
        assert r1.p_value == pytest.approx(r2.p_value)
        assert r1.category == r2.category

    def test_odd_fold_count_rejected(self):
        with pytest.raises(SrdError, match="even"):
            sk.dietterich_pair_test([1, 2, 3], [3, 2, 1])

    def test_single_replication_rejected(self):
        with pytest.raises(SrdError, match="replications"):
            sk.dietterich_pair_test([1, 2], [2, 1])

    @pytest.mark.parametrize("a, b", [
        ([1e308, -1e308, 1e308, -1e308], [-1e308, 1e308, 0.0, 0.0]),  # d[0] = 2e308
        ([5e-324, 0, 0, 0], [0, 0, 0, 0]),  # the pooled spread underflows to 0.0
    ])
    def test_statistic_beyond_the_float_range_rejected(self, a, b):
        with pytest.raises(SrdError, match="paired t statistic is beyond the float range"):
            sk.dietterich_pair_test(a, b)


class TestAlpaydinPairTest:
    def test_alternating_unit_differences(self):
        result = sk.alpaydin_pair_test([1, 0] * 5, [0, 1] * 5)
        assert result.statistic == pytest.approx(0.5)
        assert result.p_value == pytest.approx(0.8358050491002613, abs=1e-9)
        assert result.category == "n.s."

    def test_all_zero_differences_are_degenerate(self):
        result = sk.alpaydin_pair_test([1, 2, 3, 4], [1, 2, 3, 4])
        assert result == sk.PairTestResult(0.0, 1.0, "n.s.")

    def test_constant_nonzero_differences_are_degenerate(self):
        result = sk.alpaydin_pair_test([3, 3, 3, 3], [1, 1, 1, 1])
        assert result == sk.PairTestResult(0.0, 1.0, "n.s.")

    def test_statistic_beyond_the_float_range_rejected(self):
        with pytest.raises(SrdError, match="paired F statistic is beyond the float range"):
            sk.alpaydin_pair_test([1e308] * 4, [0, 0, 0, 5e-324])

    def test_swapping_sides_preserves_f(self):
        rng = np.random.default_rng(9)
        a, b = rng.random(10).tolist(), rng.random(10).tolist()
        r1, r2 = sk.alpaydin_pair_test(a, b), sk.alpaydin_pair_test(b, a)
        assert r1.statistic == pytest.approx(r2.statistic)
        assert r1.category == r2.category


class TestEvaluateFolds:
    def test_published_run_end_to_end(self, published_folds_exact):
        report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
        assert tuple(j + 1 for j in report.column_order) == PUBLISHED_ORDER_1BASED
        assert tuple(r.statistic for r in report.pair_results) == PUBLISHED_STATISTICS
        assert tuple(r.category for r in report.pair_results) == PUBLISHED_CATEGORIES

    def test_published_boxplot_values(self, published_folds_exact, published_boxplot):
        report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
        for r, name in enumerate(BOX_ROWS):
            assert np.allclose(report.box_summary[r, :], published_boxplot[name],
                               atol=5e-5)

    def test_box_summary_is_ordered(self, published_folds_exact):
        report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
        box = report.box_summary
        for r in range(box.shape[0] - 1):
            assert np.all(box[r, :] <= box[r + 1, :])

    def test_scores_near_the_float_limit_order_without_a_warning(self):
        # A column of 1e308 sums past the float range; the order reads only
        # exact keys, and pytest turns a RuntimeWarning into an error.
        report = sk.evaluate_folds([[0.25, 1e308]] * 5, None)
        assert report.column_order == (0, 1)
        assert report.box_summary[:, 1].tolist() == [1e308] * len(BOX_ROWS)

    def test_default_labels(self):
        report = sk.evaluate_folds([[0.1, 0.2]] * 5, None)
        assert report.solution_labels == ("solution_1", "solution_2")

    def test_validation(self):
        with pytest.raises(SrdError):
            sk.evaluate_folds([], None)
        with pytest.raises(SrdError):
            sk.evaluate_folds([[0.1, 0.2], [0.1]], None)
        with pytest.raises(SrdError):
            sk.evaluate_folds([[0.1, 0.2]] * 5, ("one",))
        with pytest.raises(SrdError):
            sk.evaluate_folds([[0.1, 0.2]] * 5, None, test="anova")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(SrdError, match="finite"):
            sk.evaluate_folds([[0.1, bad]] * 5, None)

    @pytest.mark.parametrize("fold_srd, message", [
        ([1.0, 2.0], "fold scores must be rows of numbers, got 1.0"),
        (None, "fold scores must be rows of numbers, got None"),
        ([[0.1, 0.2j]] * 5, "fold scores must be finite real numbers, got 0.2j"),
        ([[0.1, None]] * 5, "fold scores must be finite real numbers, got None"),
        ([[0.1, "0.2"]] * 5, "fold scores must be finite real numbers, got '0.2'"),
    ], ids=["flat_list", "none", "complex", "none_cell", "string_cell"])
    def test_non_numeric_scores_rejected(self, fold_srd, message):
        with pytest.raises(SrdError, match=message):
            sk.evaluate_folds(fold_srd, None)

    def test_scheme_must_have_one_fold_per_row(self):
        # A report's scheme is what its replay file records.
        scores = [[0.1, 0.2], [0.2, 0.1], [0.3, 0.1], [0.1, 0.4], [0.2, 0.2]]
        report = sk.evaluate_folds(scores, None, scheme=sk.make_folds(10, 5, seed=1))
        assert report.scheme.k == 5
        with pytest.raises(SrdError, match="the scheme has 3 folds, but the fold matrix "
                                           "has 5 rows"):
            sk.evaluate_folds(scores, None, scheme=sk.make_folds(10, 3, seed=1))

    @pytest.mark.parametrize("test", ["dietterich", "alpaydin"])
    def test_paired_replication_tests_reject_subsample_schemes(self, bundesliga, test):
        # As in cross_validate, so no report records a replay it would refuse.
        message = (f"the {test} test pairs half-split replications, "
                   f"but the scheme has subsample folds")
        with pytest.raises(SrdError, match=message):
            sk.cross_validate(bundesliga, test, scheme=sk.make_folds(18, 4, seed=1))
        scores = [[0.1, 0.2], [0.2, 0.1], [0.3, 0.1], [0.1, 0.4]]
        with pytest.raises(SrdError, match=message):
            sk.evaluate_folds(scores, None, test, scheme=sk.make_folds(10, 4, seed=1))
        assert sk.evaluate_folds(scores, None, test,
                                 scheme=sk.make_folds(10, 4, "half_split", seed=1)).scheme.k == 4


class TestFloatMatrixOnTheSchemeGrid:
    """``evaluate_folds`` on ``crossval_srd``'s floats agrees with ``cross_validate``."""

    @pytest.mark.parametrize("test", crossval.TESTS)
    def test_layered_route_equals_cross_validate(self, bundesliga, mep, test):
        kind, k = ("subsample", 8) if test == "wilcoxon" else ("half_split", 10)
        for table in (bundesliga, mep):
            for seed in range(100):
                scheme = sk.make_folds(table.n_rows, k, kind, seed)
                report = sk.cross_validate(table, test, scheme=scheme)
                layered = sk.evaluate_folds(sk.crossval_srd(table, scheme),
                                            report.solution_labels, test, scheme)
                assert layered.pair_results == report.pair_results, (table.n_rows, seed)
                assert layered == report

    @pytest.mark.parametrize("test", crossval.TESTS)
    def test_report_fold_scores_reproduce_the_report(self, bundesliga, mep, test):
        for table, seed in ((bundesliga, 28), (mep, 3)):
            report = sk.cross_validate(table, test, seed=seed)
            assert sk.evaluate_folds(report.fold_srd, report.solution_labels, test,
                                     report.scheme) == report

    def test_binary_values_split_a_tie_that_the_grid_keeps(self, bundesliga):
        # Possession% and Shots pg tie in |difference| on the scheme's grid;
        # read at their binary values the tie splits by an ulp.
        scheme = sk.make_folds(bundesliga.n_rows, 8, "subsample", 28)
        report = sk.cross_validate(bundesliga, scheme=scheme)
        floats = sk.crossval_srd(bundesliga, scheme)
        pair = report.column_order.index(2)
        assert report.column_order[pair + 1] == 0
        assert report.pair_results[pair] == crossval.PairTestResult(25.0, 0.109375, "n.s.")
        binary = sk.evaluate_folds(floats, report.solution_labels).pair_results[pair]
        assert binary == crossval.PairTestResult(26.0, 0.078125, "(p<0.1)")

    def test_a_matrix_off_the_grid_is_read_at_its_exact_values(self, bundesliga):
        scheme = sk.make_folds(bundesliga.n_rows, 8, "subsample", 28)
        floats = sk.crossval_srd(bundesliga, scheme)
        off = floats.copy()
        off[3, 4] = np.nextafter(off[3, 4], 1.0)  # one entry off the grid
        exact = [[Fraction(x) for x in row] for row in off.tolist()]
        for matrix in (off, off.tolist(), exact):
            read = sk.evaluate_folds(matrix, None, scheme=scheme)
            assert read.pair_results == sk.evaluate_folds(exact, None).pair_results
        # Fractions and integers are read as they are, on the grid or off it.
        on_grid = [[Fraction(x).limit_denominator(224) for x in row] for row in floats.tolist()]
        assert (sk.evaluate_folds(on_grid, None, scheme=scheme).pair_results
                == sk.evaluate_folds(on_grid, None).pair_results)

    def test_only_floats_are_read_on_the_grid(self):
        scheme = sk.make_folds(10, 5, seed=1)  # 8 retained rows: a grid of 1/64
        assert crossval._on_scheme_grid([[1, 0.5]] * 5, scheme) == [[1, 0.5]] * 5
        assert crossval._on_scheme_grid([[0.25, 0.1]] * 5, scheme) == [[0.25, 0.1]] * 5
        assert crossval._on_scheme_grid([[0.25, 1e307]] * 5, scheme) == [[0.25, 1e307]] * 5
        assert sk.evaluate_folds([[0.25, 1e307]] * 5, None, scheme=scheme).fold_srd[0, 1] == 1e307
        rows = iter([0.25, 0.5])
        assert crossval._on_scheme_grid([rows] * 5, scheme)[0] is rows
        scaled = crossval._on_scheme_grid(np.full((5, 2), 0.25), scheme)
        assert [(tuple(row), row.denominator) for row in scaled] == [((16, 16), 64)] * 5


class TestCrossValidate:
    def test_unknown_test_rejected(self, bundesliga):
        with pytest.raises(SrdError, match="unknown test 'sign'; expected one of"):
            sk.cross_validate(bundesliga, test="sign")

    @pytest.mark.parametrize("extra", [{"k": 5}, {"seed": 99}, {"k": 5, "seed": 99}])
    def test_scheme_excludes_k_and_seed(self, bundesliga, extra):
        scheme = sk.make_folds(bundesliga.n_rows, 8, "subsample", seed=1)
        with pytest.raises(SrdError, match="k and seed must be left unset"):
            sk.cross_validate(bundesliga, scheme=scheme, **extra)

    def test_seed_determinism(self, bundesliga):
        a = sk.cross_validate(bundesliga, seed=20)
        b = sk.cross_validate(bundesliga, seed=20)
        assert a.column_order == b.column_order
        assert np.array_equal(a.fold_srd, b.fold_srd)
        assert a.pair_results == b.pair_results
        assert a.scheme == b.scheme

    def test_medians_non_decreasing_for_any_seed(self, bundesliga):
        for seed in range(5):
            report = sk.cross_validate(bundesliga, seed=seed)
            medians = np.median(report.fold_srd, axis=0)
            ordered = medians[list(report.column_order)]
            assert np.all(np.diff(ordered) >= 0)

    def test_default_fold_counts(self, bundesliga):
        assert sk.cross_validate(bundesliga, seed=0).scheme.k == 8
        assert sk.cross_validate(bundesliga, test="alpaydin", seed=0).scheme.k == 10
        assert sk.cross_validate(bundesliga, test="dietterich", seed=0).scheme.kind == "half_split"

    @staticmethod
    def _twin_pair(test):
        table = sk.from_columns(
            {
                "twin_a": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
                "twin_b": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
                "ref": list(range(12)),
            },
            reference="ref",
        )
        report = sk.cross_validate(table, test, k=6, seed=21)
        i = report.column_order.index(0)
        j = report.column_order.index(1)
        assert abs(i - j) == 1
        return report.pair_results[min(i, j)]

    def test_identical_solutions_sit_adjacent_with_degenerate_test(self):
        pair = self._twin_pair("wilcoxon")
        assert pair.statistic == 0 and pair.category == "n.s."

    @pytest.mark.parametrize("test", ["dietterich", "alpaydin"])
    def test_identical_solutions_pass_the_paired_tests_as_degenerate(self, test):
        # Twin columns have no spread within replications.
        pair = self._twin_pair(test)
        assert pair.statistic == 0 and pair.category == "n.s."

    def test_profile_table_run_with_a_degenerate_pair(self, mep):
        report = sk.cross_validate(mep, "alpaydin", seed=3265389455)
        assert sk.PairTestResult(0.0, 1.0, "n.s.") in report.pair_results

    def test_fold_values_stay_on_their_grid(self, bundesliga):
        report = sk.cross_validate(bundesliga, k=8, seed=22)
        scaled = report.fold_srd * 224  # f(15) = 112, half-steps of 1/224
        assert np.allclose(scaled, np.rint(scaled), atol=1e-9)

    def test_half_split_tests_run_on_the_football_table(self, bundesliga):
        for test in ("dietterich", "alpaydin"):
            report = sk.cross_validate(bundesliga, test=test, seed=23)
            assert len(report.pair_results) == 6
            assert all(
                r.category in ("n.s.", "(p<0.1)", "(p<0.05*)")
                for r in report.pair_results
            )

    def test_signed_rank_fold_limit_is_checked_before_scoring(self, monkeypatch):
        rows = np.arange(70.0)
        table = sk.from_columns({"a": rows[::-1], "b": rows % 7, "ref": rows})
        assert sk.cross_validate(table, k=62, seed=1).scheme.k == 62

        def no_scoring(*args):
            raise AssertionError("folds were scored")

        monkeypatch.setattr(crossval, "_fold_raw_units", no_scoring)
        with pytest.raises(SrdError, match="at most 62 folds, got 70"):
            sk.cross_validate(table, k=70, seed=1)
        with pytest.raises(SrdError, match="at most 62 folds, got 63"):
            sk.cross_validate(table, scheme=sk.make_folds(70, 63, seed=2))

    @pytest.mark.parametrize("test", ["dietterich", "alpaydin"])
    def test_paired_tests_reject_subsample_folds(self, bundesliga, test):
        scheme = sk.make_folds(18, 10, "subsample", seed=3)
        with pytest.raises(SrdError, match=f"the {test} test .* subsample folds"):
            sk.cross_validate(bundesliga, test, scheme=scheme)

    def test_signed_rank_test_takes_half_splits(self, bundesliga):
        scheme = sk.make_folds(18, 10, "half_split", seed=3)
        assert sk.cross_validate(bundesliga, scheme=scheme).scheme == scheme

    def test_single_solution_has_no_pairs(self):
        table = sk.from_columns(
            {"only": [2, 4, 1, 3, 5, 0, 6, 8, 7, 9], "ref": list(range(10))},
            reference="ref",
        )
        report = sk.cross_validate(table, k=5, seed=24)
        assert report.pair_results == ()

    def test_profile_table_significance_patterns(self, mep):
        # Half-split tests are far less sensitive than the signed-rank one:
        # on the profile table the paired t separates nothing, and the
        # paired F separates only the last (reverse-ranking) solution.
        dietterich = sk.cross_validate(mep, test="dietterich", k=10, seed=0)
        assert all(p.category == "n.s." for p in dietterich.pair_results)
        alpaydin = sk.cross_validate(mep, test="alpaydin", k=10, seed=0)
        assert all(p.category == "n.s." for p in alpaydin.pair_results[:-1])
        assert alpaydin.pair_results[-1].category == "(p<0.05*)"
        assert alpaydin.solution_labels[alpaydin.column_order[-1]] == "Kaljurand"
