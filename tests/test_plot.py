import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.stats import rankdata

import srdkit as sk
from srdkit import SrdError
from srdkit.plot import DEFAULT_PALETTE, Palette


def _parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.get("viewBox")
    return root


class TestPairwiseSrd:
    def test_profile_entry_matches_published_score(self, mep):
        matrix = sk.pairwise_srd(mep)
        i = matrix.labels.index("Botenga")
        j = matrix.labels.index("Rego")
        assert matrix.values[i, j] == pytest.approx(0.234, abs=5e-4)

    def test_symmetric_with_zero_diagonal(self, mep, bundesliga):
        for table in (mep, bundesliga):
            matrix = sk.pairwise_srd(table)
            assert np.array_equal(matrix.values, matrix.values.T)
            assert np.all(matrix.values.diagonal() == 0)

    def test_reference_column_participates(self, bundesliga):
        matrix = sk.pairwise_srd(bundesliga)
        assert matrix.labels == bundesliga.col_labels

    def test_entry_agrees_with_srd_values(self, bundesliga):
        matrix = sk.pairwise_srd(bundesliga)
        scores = sk.srd_values(bundesliga).normalized_srd
        j = matrix.labels.index("pts")
        for s, label in enumerate(c for c in matrix.labels if c != "pts"):
            assert matrix.values[matrix.labels.index(label), j] == scores[s]

    @pytest.mark.parametrize("n", [16_383, 16_384])
    def test_long_tables_match_per_column_ranks(self, n):
        # Doubled ranks switch from int16 to int32 at 2n = 2^15.  A reversed
        # column gives the largest possible sums.
        rng = np.random.default_rng(n)
        table = sk.from_columns({
            "up": np.arange(n), "down": -np.arange(n),
            "tied": rng.integers(0, 50, size=n), "noisy": rng.normal(size=n),
        })
        ranks = np.column_stack([rankdata(table.values[:, j]) for j in range(4)])
        expected = np.array([[np.abs(ranks[:, i] - ranks[:, j]).sum() / (n * n // 2)
                              for j in range(4)] for i in range(4)])
        assert np.array_equal(sk.pairwise_srd(table).values, expected)
        assert expected[0, 1] == 1.0
        for other in ("down", "tied"):  # two-column tables, as well
            two = sk.from_columns({"up": table.column("up"), other: table.column(other)})
            assert sk.pairwise_srd(two).values[0, 1] == expected[0, table.col_labels.index(other)]

    def test_needs_two_columns(self):
        with pytest.raises(SrdError, match="two columns"):
            sk.pairwise_srd(sk.from_columns({"a": [1, 2]}))


class TestPalette:
    def test_default_has_eight_warm_to_cool_entries(self):
        assert len(DEFAULT_PALETTE.colors) == 8

    def test_bucket_boundaries(self):
        assert DEFAULT_PALETTE.bucket(0.0) == 0
        assert DEFAULT_PALETTE.bucket(1.0) == 7
        assert DEFAULT_PALETTE.bucket(0.999) == 7
        assert DEFAULT_PALETTE.bucket(0.124) == 0
        assert DEFAULT_PALETTE.bucket(0.126) == 1

    def test_validation(self):
        with pytest.raises(SrdError, match="at least 2"):
            Palette(("#ffffff",))
        with pytest.raises(SrdError, match="RRGGBB"):
            Palette(("#ffffff", "red"))

    def test_custom_orange_to_green_ramp_accepted(self):
        colors = ("#eb9c34", "#ebba34", "#ebd634", "#ebe534",
                  "#d9eb34", "#b7eb34", "#99eb34", "#6beb34")
        palette = Palette(colors)
        assert palette.colors == colors


class TestHeatmap:
    def test_well_formed_and_byte_stable(self, mep):
        matrix = sk.pairwise_srd(mep)
        doc1 = sk.plot_heatmap(matrix)
        doc2 = sk.plot_heatmap(matrix)
        _parse(doc1.svg)
        assert doc1.svg == doc2.svg and doc1.data == doc2.data

    def test_diagonal_uses_first_bucket_and_one_uses_last(self):
        matrix = sk.PairwiseMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        svg = sk.plot_heatmap(matrix).svg
        assert DEFAULT_PALETTE.colors[0] in svg
        assert DEFAULT_PALETTE.colors[-1] in svg

    def test_custom_palette_codes_appear_verbatim(self, mep):
        colors = ("#eb9c34", "#ebba34", "#ebd634", "#ebe534",
                  "#d9eb34", "#b7eb34", "#99eb34", "#6beb34")
        svg = sk.plot_heatmap(sk.pairwise_srd(mep), Palette(colors)).svg
        assert all(c in svg for c in colors)

    def test_companion_data_is_the_matrix(self, mep):
        matrix = sk.pairwise_srd(mep)
        lines = sk.plot_heatmap(matrix).data.splitlines()
        assert lines[0] == ";" + ";".join(matrix.labels)
        first = [float(x) for x in lines[1].split(";")[1:]]
        assert first == pytest.approx(matrix.values[0].tolist(), abs=5e-8)

    def test_non_square_rejected(self):
        with pytest.raises(SrdError, match="square"):
            sk.PairwiseMatrix(("a",), np.zeros((1, 2)))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(SrdError, match="one label per matrix row is required"):
            sk.PairwiseMatrix(("a", "b", "c"), np.zeros((2, 2)))

    @pytest.mark.parametrize("off", [-0.5, 1.5, np.nan, np.inf, -np.inf])
    def test_distances_outside_the_unit_interval_rejected(self, off):
        # Symmetric with a zero diagonal, so only the range check can catch it.
        matrix = sk.PairwiseMatrix(("a", "b"), np.array([[0.0, off], [off, 0.0]]))
        with pytest.raises(SrdError, match=r"must be finite and lie in \[0, 1\]"):
            sk.plot_heatmap(matrix)

    def test_asymmetric_rejected(self):
        matrix = sk.PairwiseMatrix(("a", "b"), np.array([[0.0, 0.2], [0.3, 0.0]]))
        with pytest.raises(SrdError, match="symmetric"):
            sk.plot_heatmap(matrix)

    def test_nonzero_diagonal_rejected(self):
        matrix = sk.PairwiseMatrix(("a", "b"), np.array([[0.1, 0.2], [0.2, 0.1]]))
        with pytest.raises(SrdError, match="diagonal"):
            sk.plot_heatmap(matrix)


@pytest.fixture(scope="module")
def mep_result_and_dist(mep):
    result = sk.srd_values(mep)
    dist = sk.generate_distribution(mep, option="n", samples=60_000, seed=40)
    return result, dist


class TestPermTestPlot:
    def test_one_bar_per_solution_with_threshold_markers(self, mep_result_and_dist):
        result, dist = mep_result_and_dist
        doc = sk.plot_perm_test(result, dist)
        _parse(doc.svg)
        assert doc.svg.count('fill-opacity="0.85"') == len(result.col_labels)
        assert ">XX1<" in doc.svg and ">XX19<" in doc.svg

    def test_legend_preserves_solution_order(self, mep_result_and_dist):
        result, dist = mep_result_and_dist
        svg = sk.plot_perm_test(result, dist).svg
        positions = [svg.index(f">{label}<") for label in result.col_labels]
        assert positions == sorted(positions)

    def test_density_overlay_is_scaled_to_one(self, mep_result_and_dist):
        result, dist = mep_result_and_dist
        rows = [
            line.split(",") for line in sk.plot_perm_test(result, dist).data.splitlines()
            if line.startswith("density,")
        ]
        assert max(float(r[2]) for r in rows) == pytest.approx(1.0)

    def test_cumulative_overlay_is_monotone(self, mep_result_and_dist):
        result, dist = mep_result_and_dist
        doc = sk.plot_perm_test(result, dist, density_to_distr=True)
        values = [
            float(line.split(",")[2])
            for line in doc.data.splitlines()
            if line.startswith("cumulative,")
        ]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_companion_data_lists_solutions_and_thresholds(self, mep_result_and_dist):
        result, dist = mep_result_and_dist
        data = sk.plot_perm_test(result, dist).data
        assert f"solution,Botenga,{result.normalized_srd[0]:.7f}" in data
        assert f"threshold,xx1,{dist.thresholds.xx1:.7f}" in data

    def test_mismatched_n_rejected(self, mep_result_and_dist):
        result, _ = mep_result_and_dist
        other = sk.exact_distribution(5)
        with pytest.raises(SrdError, match="n="):
            sk.plot_perm_test(result, other)

    def test_empty_result_rejected(self):
        empty = sk.SrdResult((), np.array([]), np.array([]), 5, "ref")
        with pytest.raises(SrdError, match="no solutions"):
            sk.plot_perm_test(empty, sk.exact_distribution(5))


class TestCrossvalPlot:
    def test_published_run_draws_boxes_in_median_order(self, published_folds_exact):
        from tests.conftest import SOLUTION_LABELS

        report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
        doc = sk.plot_crossval(report)
        _parse(doc.svg)
        expected = ["Possession%", "Shots pg", "Pass", "Dribbles pg",
                    "Offsides pg", "RY cards", "Fouls pg"]
        positions = [doc.svg.index(f">{label}<") for label in expected]
        assert positions == sorted(positions)
        # published categories: n.s., p<0.1, p<0.05, n.s., p<0.05, p<0.05
        assert doc.svg.count(">~<") == 2
        assert doc.svg.count(">&lt;<") == 4

    def test_single_solution_has_no_annotations(self):
        report = sk.evaluate_folds([[0.2], [0.3], [0.25], [0.22], [0.28]], ("only",))
        doc = sk.plot_crossval(report)
        _parse(doc.svg)
        assert ">~<" not in doc.svg and ">&lt;<" not in doc.svg

    def test_companion_data_holds_box_rows_and_significance(self, bundesliga):
        report = sk.cross_validate(bundesliga, seed=41)
        data = sk.plot_crossval(report).data
        for name in ("min", "xx1", "q1", "median", "q3", "xx19", "max", "mean"):
            assert any(line.startswith(name + ";") for line in data.splitlines())
        assert "significance" in data
