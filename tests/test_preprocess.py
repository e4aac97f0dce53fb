import itertools

import numpy as np
import pytest

import srdkit as sk
from srdkit import SrdError


class TestScalers:
    def test_range_scale_endpoints(self):
        table = sk.from_columns({"a": [1, 2, 3]})
        assert sk.preprocess_table(table, "range_scale").values[:, 0].tolist() == [
            0.0, 0.5, 1.0,
        ]

    def test_scale_to_unit(self):
        table = sk.from_columns({"a": [3, 4]})
        assert sk.preprocess_table(table, "scale_to_unit").values[:, 0].tolist() == [
            0.6, 0.8,
        ]

    def test_standardize_uses_sample_deviation(self):
        # mean 2, sample sd sqrt(2): (1, 3) maps to -1/sqrt(2), +1/sqrt(2)
        table = sk.from_columns({"a": [1, 3]})
        out = sk.preprocess_table(table, "standardize").values[:, 0]
        assert out == pytest.approx([-0.7071068, 0.7071068], abs=1e-7)

    def test_scale_to_max(self):
        table = sk.from_columns({"a": [2, 5, 10]})
        assert sk.preprocess_table(table, "scale_to_max").values[:, 0].tolist() == [
            0.2, 0.5, 1.0,
        ]

    def test_unknown_method(self):
        with pytest.raises(SrdError, match="unknown preprocessing method"):
            sk.preprocess_table(sk.from_columns({"a": [1, 2]}), "log")

    @pytest.mark.parametrize("method", ["standardize", "range_scale"])
    def test_constant_column_reported_with_label(self, method):
        table = sk.from_columns({"ok": [1, 2], "flat": [5, 5]})
        with pytest.raises(SrdError, match="'flat'"):
            sk.preprocess_table(table, method)

    def test_zero_norm_reported_with_label(self):
        table = sk.from_columns({"zeros": [0, 0]})
        with pytest.raises(SrdError, match="'zeros'"):
            sk.preprocess_table(table, "scale_to_unit")

    def test_non_positive_max_reported_with_label(self):
        table = sk.from_columns({"neg": [-3, -1]})
        with pytest.raises(SrdError, match="'neg'"):
            sk.preprocess_table(table, "scale_to_max")

    def test_labels_and_reference_preserved(self, bundesliga):
        out = sk.preprocess_table(bundesliga, "range_scale")
        assert out.col_labels == bundesliga.col_labels
        assert out.row_labels == bundesliga.row_labels
        assert out.reference == bundesliga.reference

    @pytest.mark.parametrize(
        "method", ["scale_to_unit", "standardize", "range_scale", "scale_to_max"]
    )
    def test_scalers_never_change_ranks(self, bundesliga, method):
        before = sk.rank_matrix(bundesliga).ranks
        after = sk.rank_matrix(sk.preprocess_table(bundesliga, method)).ranks
        assert np.array_equal(before, after)


class TestCreateReference:
    def test_mean_stores_exact_values(self):
        table = sk.from_columns({"A": [2, 5, 7, 8], "B": [5, 1, 6, 10], "C": [6, 3, 2, 3]})
        out = sk.create_reference(table, "mean")
        assert out.col_labels == ("A", "B", "C", "refCol")
        assert out.reference == "refCol"
        # exact 13/3 is stored; display rounding is the writer's business
        assert out.column("refCol").tolist() == [13 / 3, 3, 5, 7]

    def test_mixed_per_row_methods(self):
        table = sk.from_columns({"A": [2, 5, 7, 8], "B": [5, 1, 6, 10], "C": [6, 3, 2, 3]})
        out = sk.create_reference(table, "mixed:max,min,mean,mean")
        assert out.column("refCol").tolist() == [6, 1, 5, 7]

    def test_input_table_is_unchanged(self):
        table = sk.from_columns({"A": [1, 2]})
        before = table.values.copy()
        sk.create_reference(table, "max")
        assert np.array_equal(table.values, before)
        assert table.col_labels == ("A",)

    def test_single_column_any_method_copies_it(self):
        table = sk.from_columns({"A": [4, 9, 2]})
        for kind in ("max", "min", "median", "mean"):
            out = sk.create_reference(table, kind)
            assert out.column("refCol").tolist() == [4, 9, 2]

    def test_explicit_reference_excluded_from_aggregation(self):
        table = sk.from_columns(
            {"A": [1, 1], "B": [3, 3], "old": [99, 99]}, reference="old"
        )
        assert sk.create_reference(table, "mean").column("refCol").tolist() == [2, 2]

    def test_constant_rows_mean_is_that_constant(self):
        table = sk.from_columns({"A": [5, 2], "B": [5, 2], "C": [5, 2]})
        assert sk.create_reference(table, "mean").column("refCol").tolist() == [5, 2]

    def test_even_count_median_averages_middle_pair(self):
        table = sk.from_columns({"A": [1.0], "B": [2.0], "C": [4.0], "D": [8.0]})
        assert sk.create_reference(table, "median").column("refCol").tolist() == [3.0]

    def test_mixed_length_mismatch(self):
        table = sk.from_columns({"A": [1, 2, 3]})
        with pytest.raises(SrdError, match="3 rows"):
            sk.create_reference(table, "mixed:max,min")

    def test_unknown_kind(self):
        table = sk.from_columns({"A": [1, 2, 3]})
        with pytest.raises(SrdError, match="unknown reference method"):
            sk.create_reference(table, "mode")

    def test_mixed_requires_per_row(self):
        table = sk.from_columns({"A": [1, 2, 3]})
        with pytest.raises(SrdError, match="per-row"):
            sk.create_reference(table, "mixed")

    def test_per_row_only_for_mixed(self):
        table = sk.from_columns({"A": [1, 2, 3]})
        with pytest.raises(SrdError):
            sk.create_reference(table, "mean:max")

    def test_existing_refcol_rejected(self):
        table = sk.from_columns({"refCol": [1, 2]})
        with pytest.raises(SrdError, match="refCol"):
            sk.create_reference(table, "mean")

    @pytest.mark.parametrize("text, message", [
        ("median:junk", "per-row methods only apply to mixed, not to 'median'"),
        ("mean:", "per-row methods only apply to mixed, not to 'mean'"),
        ("mixed", r"per-row method list, e\.g\. mixed:max,min,mean,mean"),
        ("mixed:", r"unknown per-row reference method\(s\): ''"),
        ("mixed:max,mode,max", r"unknown per-row reference method\(s\): 'mode'"),
        ("mixed:max,min", "mixed reference lists 2 methods for 3 rows"),
        ("", "unknown reference method ''"),
    ])
    def test_string_grammar_rejects(self, text, message):
        table = sk.from_columns({"A": [1, 2, 3], "B": [3, 2, 1]})
        with pytest.raises(SrdError, match=message):
            sk.create_reference(table, text)

    @pytest.mark.parametrize("spec", [None, 3, ("max",), b"max"])
    def test_spec_of_another_type_rejected(self, spec):
        table = sk.from_columns({"A": [1, 2, 3]})
        with pytest.raises(SrdError, match="reference spec must be a string, got"):
            sk.create_reference(table, spec)


class TestPreprocessingInvariance:
    def test_srd_values_unchanged_by_any_scaler(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.uniform(0.5, 10.0, size=(9, 5))
            table = sk.DataTable(
                values,
                tuple(f"r{i}" for i in range(9)),
                tuple(f"c{j}" for j in range(5)),
                reference="c4",
            )
            base = sk.srd_values(table)
            for method in ("scale_to_unit", "standardize", "range_scale", "scale_to_max"):
                scaled = sk.srd_values(sk.preprocess_table(table, method))
                assert np.array_equal(base.raw_srd, scaled.raw_srd)
                assert np.array_equal(base.normalized_srd, scaled.normalized_srd)


class TestMedianReferenceOptimality:
    def test_row_median_of_rankings_minimizes_total_rank_distance(self):
        # Classical aggregation fact, checked by brute force: when the
        # columns are rankings and the row medians themselves form a
        # ranking, that ranking has the smallest total L1 distance to the
        # columns among all n! candidate rankings.
        rng = np.random.default_rng(11)
        n, m = 5, 3
        checked = 0
        while checked < 10:
            cols = {f"c{j}": rng.permutation(n) + 1.0 for j in range(m)}
            table = sk.from_columns(cols)
            with_ref = sk.create_reference(table, "median")
            ref = with_ref.column("refCol")
            if sorted(ref.tolist()) != list(range(1, n + 1)):
                continue
            checked += 1
            solutions = [cols[f"c{j}"] for j in range(m)]

            def total_distance(candidate):
                return sum(np.abs(np.asarray(candidate) - s).sum() for s in solutions)

            best = min(
                total_distance(p) for p in itertools.permutations(range(1, n + 1))
            )
            assert total_distance(ref) == best
