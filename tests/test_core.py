import dataclasses
import tracemalloc

import numpy as np
import pytest

import srdkit as sk
from srdkit import SrdError, core


class TestFractionalRanks:
    def test_distinct_values(self):
        assert sk.fractional_ranks([2, 5, 7, 8]).tolist() == [1, 2, 3, 4]

    def test_tied_pair_shares_mean_rank(self):
        assert sk.fractional_ranks([6, 3, 2, 3]).tolist() == [4, 2.5, 1, 2.5]

    def test_all_tied(self):
        assert sk.fractional_ranks([5, 5, 5]).tolist() == [2, 2, 2]

    def test_empty_rejected(self):
        with pytest.raises(SrdError):
            sk.fractional_ranks([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SrdError):
            sk.fractional_ranks([1.0, bad, 2.0])

    def test_rank_sum_and_half_integer_closure(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            column = rng.integers(0, 8, size=n).astype(float)  # ties likely
            ranks = sk.fractional_ranks(column)
            assert ranks.sum() == n * (n + 1) / 2
            assert np.all(ranks * 2 == np.rint(ranks * 2))
            assert ranks.min() >= 1 and ranks.max() <= n


class TestMaxSrd:
    @pytest.mark.parametrize("n,expected", [(4, 8), (1, 0), (5, 12), (2, 2)])
    def test_values(self, n, expected):
        assert sk.max_srd(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(SrdError):
            sk.max_srd(0)

    @pytest.mark.parametrize("n", [2.5, True, "4"])
    def test_rejects_non_integers(self, n):
        with pytest.raises(SrdError, match="n must be an integer of at least 1"):
            sk.max_srd(n)


class TestDataTable:
    def test_duplicate_column_labels_rejected(self):
        with pytest.raises(SrdError, match="duplicate column"):
            sk.DataTable(np.ones((2, 2)), ("r1", "r2"), ("x", "x"))

    def test_duplicate_row_labels_rejected(self):
        with pytest.raises(SrdError, match="duplicate row"):
            sk.DataTable(np.ones((2, 2)), ("r", "r"), ("a", "b"))

    def test_non_finite_rejected(self):
        with pytest.raises(SrdError, match="finite"):
            sk.from_columns({"a": [1.0, float("nan")]})

    def test_unknown_reference_rejected(self):
        with pytest.raises(SrdError, match="reference"):
            sk.from_columns({"a": [1, 2]}, reference="b")

    def test_label_count_mismatch(self):
        with pytest.raises(SrdError):
            sk.DataTable(np.ones((2, 3)), ("r1", "r2"), ("a", "b"))

    def test_row_label_count_mismatch(self):
        with pytest.raises(SrdError, match="expected 2 row labels, got 3"):
            sk.DataTable(np.ones((2, 3)), ("r1", "r2", "r3"), ("a", "b", "c"))

    @pytest.mark.parametrize("values", [np.ones(3), np.ones((0, 2)), np.ones((2, 0)),
                                        np.ones((1, 1, 1))])
    def test_values_must_be_a_non_empty_matrix(self, values):
        with pytest.raises(SrdError, match="non-empty 2-D matrix"):
            sk.DataTable(values, ("r",), ("a",))

    def test_no_columns_rejected(self):
        with pytest.raises(SrdError, match="at least one column is required"):
            sk.from_columns({})

    def test_unknown_column_lookup_rejected(self):
        with pytest.raises(SrdError, match="no column named 'z'"):
            sk.from_columns({"a": [1, 2]}).column("z")

    def test_values_are_immutable(self):
        table = sk.from_columns({"a": [1, 2]})
        with pytest.raises(ValueError):
            table.values[0, 0] = 9.0

    def test_rejected_table_leaves_the_callers_array_writable(self):
        values = np.ones((2, 2))
        with pytest.raises(SrdError, match="duplicate column"):
            sk.DataTable(values, ("r1", "r2"), ("x", "x"))
        assert values.flags.writeable
        sk.DataTable(values, ("r1", "r2"), ("x", "y"))
        assert not values.flags.writeable  # an accepted float64 array is adopted

    def test_reference_label_defaults_to_last(self):
        table = sk.from_columns({"a": [1, 2], "b": [3, 4]})
        assert table.reference is None
        assert table.reference_label == "b"


    def test_transpose_swaps_labels_and_drops_reference(self):
        table = sk.from_columns({"a": [1, 2], "b": [3, 4]}, reference="b")
        flipped = sk.transpose(table)
        assert flipped.col_labels == table.row_labels
        assert flipped.row_labels == ("a", "b")
        assert flipped.reference is None
        assert np.array_equal(flipped.values, table.values.T)


class TestRankMatrix:
    def test_worked_example_excludes_reference(self, srd_input):
        matrix = sk.rank_matrix(srd_input)
        assert matrix.col_labels == ("A", "B", "C")
        assert matrix.ranks.T.tolist() == [
            [1, 2, 3, 4],
            [2, 1, 3, 4],
            [4, 2.5, 1, 2.5],
        ]

    def test_single_undesignated_column_is_identity(self):
        table = sk.from_columns({"only": [3.0, 7.0, 9.0, 11.0]})
        matrix = sk.rank_matrix(table)
        assert matrix.col_labels == ("only",)
        assert matrix.ranks[:, 0].tolist() == [1, 2, 3, 4]

    def test_column_sums(self, bundesliga):
        matrix = sk.rank_matrix(bundesliga)
        n = bundesliga.n_rows
        assert np.allclose(matrix.ranks.sum(axis=0), n * (n + 1) / 2)

    def test_reference_only_table_rejected(self):
        table = sk.from_columns({"ref": [3.0, 7.0, 9.0]}, reference="ref")
        with pytest.raises(SrdError, match="needs a column besides the reference"):
            sk.rank_matrix(table)


class TestSrdValues:
    def test_worked_example_raw_scores(self, srd_input):
        result = sk.srd_values(srd_input)
        assert result.col_labels == ("A", "B", "C")
        assert result.raw_srd.tolist() == [4, 2, 5]
        assert result.normalized_srd.tolist() == [0.5, 0.25, 0.625]

    def test_output_follows_input_column_order(self, mep):
        result = sk.srd_values(mep)
        assert result.col_labels == tuple(c for c in mep.col_labels if c != "Rego")

    def test_solution_equal_to_reference_scores_zero(self):
        table = sk.from_columns({"copy": [4, 1, 3], "ref": [4, 1, 3]}, reference="ref")
        result = sk.srd_values(table)
        assert result.raw_srd.tolist() == [0]
        assert result.normalized_srd.tolist() == [0]

    def test_reverse_of_tie_free_reference_scores_one(self):
        table = sk.from_columns(
            {"rev": [5, 4, 3, 2, 1], "ref": [1, 2, 3, 4, 5]}, reference="ref"
        )
        assert sk.srd_values(table).normalized_srd.tolist() == [1.0]

    def test_single_column_rejected(self):
        with pytest.raises(SrdError, match="two columns"):
            sk.srd_values(sk.from_columns({"a": [1, 2]}))

    def test_normalize_flag_selects_scores(self, srd_input):
        raw = sk.srd_values(srd_input, normalize=False)
        assert raw.scores.tolist() == [4, 2, 5]
        assert sk.srd_values(srd_input).scores.tolist() == [0.5, 0.25, 0.625]

    def test_tie_free_parity(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(3, 13))
            table = sk.from_columns(
                {"s": rng.permutation(n) + 1.0, "r": rng.permutation(n) + 1.0},
                reference="r",
            )
            raw = sk.srd_values(table).raw_srd[0]
            assert raw == int(raw) and int(raw) % 2 == 0

    def test_half_integer_closure_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            table = sk.from_columns(
                {
                    "s": rng.integers(0, 4, size=n).astype(float),
                    "r": rng.integers(0, 4, size=n).astype(float),
                },
                reference="r",
            )
            result = sk.srd_values(table)
            assert 0.0 <= result.normalized_srd[0] <= 1.0
            assert result.raw_srd[0] * 2 == round(result.raw_srd[0] * 2)


class TestDetailedSrd:
    def test_worked_example_full_grid(self, srd_input):
        detail = sk.detailed_srd(srd_input)
        assert detail.solution_labels == ("A", "B", "C")
        assert detail.reference_label == "refCol"
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

    def test_summary_row_matches_srd_values(self, bundesliga):
        detail = sk.detailed_srd(bundesliga)
        assert np.array_equal(detail.raw_srd, sk.srd_values(bundesliga).raw_srd)

    def test_identical_solution_has_zero_distances(self):
        table = sk.from_columns({"copy": [4, 1, 3], "ref": [4, 1, 3]}, reference="ref")
        assert np.all(sk.detailed_srd(table).distances == 0)


class TestTieProbability:
    def test_documented_example(self):
        assert sk.tie_probability([1, 3, 3, 3, 2, 2, 4, 3]) == pytest.approx(4 / 7)

    def test_distinct_values(self):
        assert sk.tie_probability([3, 1, 2]) == 0.0

    def test_constant_vector(self):
        assert sk.tie_probability([7, 7, 7, 7]) == 1.0

    def test_too_short_rejected(self):
        for values in ([1.0], [[1.0, 2.0]], np.empty((3, 0)), 1.0):
            with pytest.raises(SrdError, match="at least two values"):
                sk.tie_probability(values)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(SrdError, match="tie probability requires finite values"):
                sk.tie_probability([1.0, bad, 2.0])

    def test_matrix_gives_each_column(self, bundesliga):
        probs = sk.tie_probability(bundesliga.values)
        assert probs.shape == (bundesliga.n_cols,)
        for j in range(bundesliga.n_cols):
            assert probs[j] == sk.tie_probability(bundesliga.values[:, j])


# Per result type: a builder of a fresh object, an array field, and a change
# to its last cell that keeps the object valid.
_VALUE_CASES = {
    "DataTable": (sk.load_bundesliga, "values", 1.0),
    "RankMatrix": (lambda: sk.rank_matrix(sk.load_bundesliga()), "ranks", 0.5),
    "SrdResult": (lambda: sk.srd_values(sk.load_mep()), "raw_srd", 1.0),
    "SrdDetail": (lambda: sk.detailed_srd(sk.load_mep()), "distances", 0.5),
    "CrossValReport": (lambda: sk.cross_validate(sk.load_bundesliga(), seed=3),
                       "fold_srd", 0.25),
    "SrdDistribution": (lambda: sk.exact_distribution(4), "support", 1 / 16),
    "PairwiseMatrix": (lambda: sk.pairwise_srd(sk.load_mep()), "values", 0.125),
}


@pytest.mark.parametrize("build, field, step", _VALUE_CASES.values(), ids=list(_VALUE_CASES))
def test_results_are_equal_by_value_and_unhashable(build, field, step):
    first, again = build(), build()
    assert first == again and not first != again
    assert first != "something else"
    changed = np.array(getattr(first, field))
    changed.flat[-1] += step
    assert dataclasses.replace(first, **{field: changed}) != first
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


@pytest.mark.parametrize("build", [case[0] for case in _VALUE_CASES.values()],
                         ids=list(_VALUE_CASES))
def test_result_arrays_are_read_only(build):
    result = build()
    arrays = [value for value in (getattr(result, f.name) for f in dataclasses.fields(result))
              if isinstance(value, np.ndarray)]
    assert arrays
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize("ref, copies", [(0, 0), (100, 1), (199, 0)],
                         ids=["first", "middle", "last"])
def test_detailed_srd_keeps_a_view_of_contiguous_solutions(monkeypatch, ref, copies):
    # The result holds the solution ranks and distances, two n x (m - 1)
    # float64 arrays; a third, a copy of the solution values, only when the
    # reference splits the solutions.
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    n, m = 2000, 200
    values = np.random.default_rng(1).integers(0, 50, (n, m)).astype(float)
    labels = tuple(f"c{j}" for j in range(m))
    table = sk.DataTable(values, tuple(map(str, range(n))), labels, labels[ref])
    tracemalloc.start()
    try:
        detail = sk.detailed_srd(table)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 + copies < held / (n * (m - 1) * 8) < 2.5 + copies
    assert np.shares_memory(detail.solution_values, table.values) == (not copies)


class TestRankWorkers:
    @pytest.mark.parametrize("shape, cpus, expected", [
        ((2000, 200), 2, [(0, 99), (99, 199)]),  # one range per usable CPU
        ((100_000, 3), 8, [(0, 1), (1, 2)]),  # no more than the solution columns
        ((2**15, 9), 8, [(0, 2), (2, 4), (4, 6), (6, 8)]),  # one per 2**16 cells
        ((2**15, 3), 8, [(0, 2)]),
        ((18, 8), 8, [(0, 7)]),
    ])
    def test_solution_columns_split_by_cpus_columns_and_cells(self, monkeypatch, shape,
                                                              cpus, expected):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        table = sk.DataTable(np.zeros(shape), tuple(map(str, range(shape[0]))),
                             tuple(map(str, range(shape[1]))))
        ranges = core._column_ranges(table, shape[1] - 1)
        assert [(part.start, part.stop) for part in ranges] == expected

    def test_bundled_tables_start_no_thread(self, monkeypatch, bundesliga, mep):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(core, "ThreadPoolExecutor", refuse)
        for table in (bundesliga, mep):
            sk.srd_values(table)
            sk.detailed_srd(table)
            sk.rank_matrix(table)
            sk.pairwise_srd(table)
            for test in ("wilcoxon", "alpaydin"):
                report = sk.cross_validate(table, test, seed=1)
                sk.crossval_srd(table, report.scheme)

    @pytest.mark.parametrize("cpus, parts, expected", [(2, 5, 2), (8, 3, 3), (8, 0, 1),
                                                       (1, 9, 1)])
    def test_worker_count_is_the_usable_cpus_bounded_by_the_parts(self, monkeypatch, cpus,
                                                                  parts, expected):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert core._worker_count(parts) == expected

    @pytest.mark.parametrize("count", [1, 3])
    def test_in_workers_takes_each_step_once_the_last_is_done(self, count):
        done = []

        def steps():
            for i in range(3):
                yield lambda w, i=i: done.append((i, w))
                # Every worker has finished step i before the next is taken.
                assert sorted(done) == [(i, w) for w in range(count)]
                done.clear()

        core._in_workers(count, steps())
