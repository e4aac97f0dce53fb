import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srdkit as sk
from srdkit import SrdError, cli
from srdkit.crossval import TESTS
from srdkit.tableio import (
    delimited,
    read_replay,
    read_table,
    render_distribution,
    write_crossval_report,
    write_detailed,
    write_distribution,
    write_replay,
    write_srd_result,
    write_table,
)
from tests.conftest import DATA


class TestReadTable:
    def test_bundled_football_fixture(self, bundesliga):
        assert bundesliga.n_rows == 18 and bundesliga.n_cols == 8
        assert bundesliga.col_labels[-1] == "pts"
        assert bundesliga.reference == "pts"
        assert bundesliga.row_labels[0] == "Bayern Muenchen"

    def test_bundled_profile_fixture(self, mep):
        assert mep.n_rows == 16 and mep.n_cols == 9
        assert mep.col_labels[-1] == "Rego"
        assert mep.column("Botenga")[0] == 12

    def test_minimal_one_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(";a;b\nrow;1.5;2\n", encoding="utf-8")
        table = read_table(path)
        assert table.n_rows == 1 and table.n_cols == 2
        assert table.values.tolist() == [[1.5, 2.0]]

    def test_whitespace_is_trimmed(self, tmp_path):
        path = tmp_path / "pad.csv"
        path.write_text(" ; a ; b \n r1 ; 1 ; 2 \n", encoding="utf-8")
        table = read_table(path)
        assert table.col_labels == ("a", "b")
        assert table.row_labels == ("r1",)

    def test_ragged_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(";a;b\nr1;1;2\nr2;3\n", encoding="utf-8")
        with pytest.raises(SrdError, match="line 3"):
            read_table(path)

    def test_blank_lines_count_for_line_numbers_not_row_labels(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(";a;b\n\n\nr1;1;2\nr2;3\n", encoding="utf-8")
        with pytest.raises(SrdError, match="line 5 has 2 fields, expected 3"):
            read_table(path)
        path.write_text("a;b\n\n1;2\n\n3;4\n", encoding="utf-8")
        table = read_table(path, has_row_names=False)
        assert table.row_labels == ("1", "2")
        assert table.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_numeric_cell_reported_with_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(";a;b\nr1;1;x\n", encoding="utf-8")
        with pytest.raises(SrdError, match="row 'r1', column 'b'"):
            read_table(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(";a\nr1;inf\n", encoding="utf-8")
        with pytest.raises(SrdError, match="finite"):
            read_table(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(";a;a\nr1;1;2\n", encoding="utf-8")
        with pytest.raises(SrdError, match="duplicate"):
            read_table(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(";a;b\n", encoding="utf-8")
        with pytest.raises(SrdError, match="data row"):
            read_table(path)

    def test_comma_delimiter(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(",a,b\nr1,1,2\n", encoding="utf-8")
        table = read_table(path, delimiter=",")
        assert table.values.tolist() == [[1.0, 2.0]]

    def test_no_row_names_mode(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a;b\n1;2\n3;4\n", encoding="utf-8")
        table = read_table(path, has_row_names=False)
        assert table.col_labels == ("a", "b")
        assert table.row_labels == ("1", "2")

    @pytest.mark.parametrize("delim", [".", "\n", ";;", '"'])
    def test_invalid_delimiter_rejected(self, delim):
        with pytest.raises(SrdError, match="delimiter"):
            read_table("x.csv", delimiter=delim)

    def test_quote_delimiter_rejected_by_every_reader_and_writer(self, tmp_path, bundesliga):
        # csv quotes with '"', so a report written with it would not read back.
        path = tmp_path / "q.csv"
        for run in (lambda: write_table(bundesliga, path, '"'),
                    lambda: delimited([["a", "b"]], '"'),
                    lambda: read_replay(path, '"')):
            with pytest.raises(SrdError, match="other than '.', '\"' or a line break"):
                run()
        assert not path.exists()


# Labels that may hold the delimiter, a comma, a quote, line breaks and any
# other text; read_table strips whitespace around cells, so none at the edges.
_LABEL = st.text(st.one_of(st.sampled_from(';,"\n\r'),
                           st.characters(exclude_categories=("Cs",))),
                 min_size=1, max_size=8).filter(lambda label: label == label.strip())


class TestRoundTrips:
    def test_table_round_trip_is_identity(self, tmp_path, bundesliga):
        path = tmp_path / "out.csv"
        write_table(bundesliga, path)
        again = read_table(path)
        assert again.col_labels == bundesliga.col_labels
        assert again.row_labels == bundesliga.row_labels
        assert np.array_equal(again.values, bundesliga.values)

    def test_round_trip_preserves_awkward_values(self, tmp_path):
        table = sk.from_columns({"a": [1 / 3, 0.1, 1e-17], "b": [2, 3, 4]})
        path = tmp_path / "awk.csv"
        write_table(table, path)
        assert np.array_equal(read_table(path).values, table.values)

    def test_labels_containing_the_delimiter_survive(self, tmp_path):
        # csv before Python 3.12 leaves a bare carriage return unquoted.
        for row_label, col_label in (("semi;colon", "col;umn"), ("a\rb", "c\rd")):
            table = sk.DataTable(np.ones((1, 1)), (row_label,), (col_label,))
            path = tmp_path / "quoted.csv"
            write_table(table, path)
            again = read_table(path)
            assert again.row_labels == (row_label,)
            assert again.col_labels == (col_label,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LABEL, min_size=1, max_size=4, unique=True),
           st.lists(_LABEL, min_size=1, max_size=4, unique=True))
    def test_labels_without_edge_whitespace_round_trip(self, tmp_path_factory,
                                                       row_labels, col_labels):
        values = np.arange(len(row_labels) * len(col_labels), dtype=float) / 3
        table = sk.DataTable(values.reshape(len(row_labels), -1), tuple(row_labels),
                             tuple(col_labels))
        path = tmp_path_factory.getbasetemp() / "labels.csv"
        write_table(table, path)
        again = read_table(path)
        assert (again.row_labels, again.col_labels) == (table.row_labels, table.col_labels)
        assert np.array_equal(again.values, table.values)

    def test_replay_round_trip_reproduces_the_report(self, tmp_path, bundesliga):
        report = sk.cross_validate(bundesliga, seed=30)
        path = tmp_path / "replay.csv"
        write_replay(report, path)
        test, scheme = read_replay(path)
        again = sk.cross_validate(bundesliga, test=test, scheme=scheme)
        assert again.column_order == report.column_order
        assert np.array_equal(again.fold_srd, report.fold_srd)
        assert again.pair_results == report.pair_results
        assert np.array_equal(again.box_summary, report.box_summary)

    def test_replay_requires_a_scheme(self, tmp_path, published_folds_exact):
        from tests.conftest import SOLUTION_LABELS

        report = sk.evaluate_folds(published_folds_exact, SOLUTION_LABELS)
        with pytest.raises(SrdError, match="scheme"):
            write_replay(report, tmp_path / "nope.csv")


_REPLAY = "test;wilcoxon\nkind;subsample\nk;2\nseed;7\nfold_1;0;1;2\nfold_2;3;4;5\n"


class TestReadReplay:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text(_REPLAY)
        test, scheme = read_replay(path)
        assert test == "wilcoxon"
        assert scheme == sk.FoldScheme("subsample", ((0, 1, 2), (3, 4, 5)), 2, 7)

    def test_blank_lines_are_skipped(self, tmp_path):
        plain, gaps = tmp_path / "plain.csv", tmp_path / "gaps.csv"
        plain.write_text(_REPLAY)
        gaps.write_text(_REPLAY.replace("k;2\n", "k;2\n\n") + "\n")
        assert read_replay(gaps) == read_replay(plain)

    @pytest.mark.parametrize("old, new, message", [
        ("k;2", "k;eight", "line 3: 'k' must be an integer, got 'eight'"),
        ("k;2", "k", "line 3: 'k' has no value"),
        ("seed;7", "seed;7.5", "line 4: 'seed' must be an integer, got '7.5'"),
        ("fold_2;3;4;5", "fold_2;3;2.5;5", "line 6: 'fold_2' must be an integer, got '2.5'"),
        ("fold_1;0;1;2", "fold_1;0;1;2;", "line 5: 'fold_1' must be an integer, got ''"),
        ("kind;subsample", "kind;", "line 2: 'kind' has no value"),
        ("test;wilcoxon", "test", "line 1: 'test' has no value"),
        ("test;wilcoxon", "test;wilcoxon;junk", "line 1: 'test' takes one value, got 2"),
        ("kind;subsample", "kind;subsample;half", "line 2: 'kind' takes one value, got 2"),
        ("k;2", "k;2;9", "line 3: 'k' takes one value, got 2"),
        ("seed;7", "seed;7;", "line 4: 'seed' takes one value, got 2"),
        ("fold_2;3;4;5", "fold_1;3;4;5", "line 6: repeated 'fold_1' line (first on line 5)"),
        ("seed;7\n", "seed;7\nk;2\n", "line 5: repeated 'k' line (first on line 3)"),
        ("fold_2;3;4;5", "fold_2;3;4;5\nfold_3;6;7;8", "line 7: unexpected 'fold_3' line; "
         "a replay file holds test, kind, k, seed and fold_1 to fold_k (k = 2)"),
        ("k;2", "bogus;1\nk;2", "line 3: unexpected 'bogus' line; "
         "a replay file holds test, kind, k, seed and fold_1 to fold_k (k = 2)"),
    ])
    def test_malformed_values_name_the_line(self, tmp_path, old, new, message):
        path = tmp_path / "replay.csv"
        path.write_text(_REPLAY.replace(old, new))
        with pytest.raises(SrdError) as exc:
            read_replay(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("old, new, message", [
        ("k;2\nseed;7\nfold_1;0;1;2\nfold_2;3;4;5", "k;0\nseed;7",
         "fold count must be an integer of at least 1, got 0"),
        ("seed;7", "seed;-7", "seed must be an integer of at least 0, got -7"),
    ], ids=["zero_folds", "negative_seed"])
    def test_fold_count_and_seed_are_checked(self, tmp_path, old, new, message):
        path = tmp_path / "replay.csv"
        path.write_text(_REPLAY.replace(old, new))
        with pytest.raises(SrdError) as exc:
            read_replay(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_invalid_fold_is_reported_with_the_file(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text(_REPLAY.replace("fold_2;3;4;5", "fold_2;3;3;5"))
        with pytest.raises(SrdError, match="replay.csv: fold indices must be unique"):
            read_replay(path)

    @pytest.mark.parametrize("kind, fold_2, message", [
        ("subsample", "fold_2;3;4", "subsample folds must all retain the same number"),
        ("half_split", "fold_2;2;3;4", "half-split folds 1 and 2 share a row"),
    ])
    def test_folds_that_form_no_scheme_are_rejected(self, tmp_path, kind, fold_2, message):
        path = tmp_path / "replay.csv"
        path.write_text(_REPLAY.replace("kind;subsample", f"kind;{kind}")
                        .replace("fold_2;3;4;5", fold_2))
        with pytest.raises(SrdError, match=f"replay.csv: {message}"):
            read_replay(path)


_TABLE = b";a;b;ref\nr1;1;2;3\nr2;2;1;3\nr3;0.5;4;1\n"


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


def _spliced(base: bytes):
    """``base`` with one random stretch replaced by arbitrary bytes."""
    return st.tuples(st.integers(0, len(base)), st.integers(0, len(base)),
                     st.binary(max_size=40)).map(
        lambda t: base[:min(t[:2])] + t[2] + base[max(t[:2]):])


class TestHostileFiles:
    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(_TABLE.replace(b"r2", b"r\xff"))
        with pytest.raises(SrdError, match="bad.csv: not readable as delimited UTF-8"):
            read_table(path)

    def test_field_beyond_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes(_TABLE.replace(b"r2", b"r" * 140_000))
        with pytest.raises(SrdError, match="long.csv: .*field limit"):
            read_table(path)
        path.write_bytes(_REPLAY.encode().replace(b"fold_1", b"f" * 140_000))
        with pytest.raises(SrdError, match="long.csv: .*field limit"):
            read_replay(path)

    def test_byte_order_mark_is_skipped_in_tables(self, tmp_path, capsys):
        # Spreadsheets that save "CSV UTF-8" start the file with a BOM, which
        # used to stay in the first label.
        path = _written(tmp_path / "bom.csv", b"\xef\xbb\xbfa;b;c\n1;2;3\n2;1;3\n3;3;1\n")
        table = read_table(path, has_row_names=False)
        assert table.col_labels == ("a", "b", "c")
        assert cli.main(["values", str(path), "--no-row-names", "--reference", "a",
                         "--no-save"]) == 0
        assert capsys.readouterr().out.split() == ["0.5000000", "1.0000000"]
        with_names = _written(tmp_path / "bom_names.csv", b"\xef\xbb\xbf" + _TABLE)
        assert read_table(with_names) == read_table(_written(tmp_path / "plain.csv", _TABLE))

    def test_byte_order_mark_is_skipped_in_replay_files(self, tmp_path):
        published = (DATA / "published_run_replay.csv").read_bytes()
        path = tmp_path / "bom_replay.csv"
        path.write_bytes(b"\xef\xbb\xbf" + published)
        test, scheme = read_replay(path)
        assert (test, scheme) == read_replay(DATA / "published_run_replay.csv")
        assert test == "wilcoxon" and scheme.k == 8

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=200), _spliced(_TABLE)))
    def test_read_table_accepts_or_rejects_any_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_table.csv"
        path.write_bytes(data)
        try:
            table = read_table(path)
        except SrdError:
            return
        assert table.values.shape == (len(table.row_labels), len(table.col_labels))
        assert np.all(np.isfinite(table.values))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=200), _spliced(_REPLAY.encode())))
    def test_read_replay_accepts_or_rejects_any_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_replay.csv"
        path.write_bytes(data)
        try:
            test, scheme = read_replay(path)
        except SrdError:
            return
        assert test in TESTS and len(scheme.folds) == scheme.k
        assert all(type(i) is int and i >= 0 for fold in scheme.folds for i in fold)


class TestReportFormats:
    def test_srd_result_row_has_seven_decimals(self, tmp_path, bundesliga):
        path = tmp_path / "values.csv"
        write_srd_result(sk.srd_values(bundesliga), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith(";Shots pg;")
        assert lines[1].startswith("normalized_srd;0.3395062;0.7037037;")

    def test_distribution_format(self, tmp_path, bundesliga):
        dist = sk.generate_distribution(bundesliga, option="f",
                                        samples=50_000, seed=31)
        path = tmp_path / "dist.csv"
        write_distribution(dist, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "SRD_value,relative_frequency"
        value, freq = lines[1].split(",")
        assert len(value.split(".")[1]) == 6 and len(freq.split(".")[1]) == 6
        labels = [line.split(",")[0] for line in lines[-7:]]
        assert labels == ["xx1", "q1", "median", "q3", "xx19", "avg", "std_dev"]

    def test_distribution_reparses_to_printed_precision(self, bundesliga):
        dist = sk.generate_distribution(bundesliga, option="f",
                                        samples=50_000, seed=32)
        body = render_distribution(dist).splitlines()
        parsed = [float(line.split(",")[0]) for line in body[1 : 1 + dist.support.size]]
        assert np.allclose(parsed, dist.support, atol=5e-7)

    def test_crossval_report_blocks(self, tmp_path, bundesliga):
        report = sk.cross_validate(bundesliga, seed=33)
        path = tmp_path / "cv.csv"
        write_crossval_report(report, path)
        text = path.read_text(encoding="utf-8")
        for block in (
            "new_column_order_based_on_folds",
            "test_statistics",
            "statistical_significance",
            "SRD_values_of_different_folds",
            "boxplot_values",
        ):
            assert block in text
        assert "fold_8" in text and "median" in text

    def test_detail_file_matches_worked_example(self, tmp_path, srd_input):
        path = tmp_path / "detail.csv"
        write_detailed(sk.detailed_srd(srd_input), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ";A;A_Rank;A_Dist;B;B_Rank;B_Dist;C;C_Rank;C_Dist;refCol;refCol_Rank"
        assert lines[1] == "1;2;1;2;5;2;1;6;4;1.0;6;3"
        assert lines[2] == "2;5;2;1;1;1;0;3;2.5;1.5;1;1"
        assert lines[3] == "3;7;3;1;6;3;1;2;1;1.0;5;2"
        assert lines[4] == "4;8;4;0;10;4;0;3;2.5;1.5;7;4"
        assert lines[5] == "SRD;-;-;4;-;-;2;-;-;5.0;-;-"

    def test_detail_values_off_the_half_grid_keep_seven_digits(self, tmp_path, bundesliga):
        path = tmp_path / "standardized.csv"
        write_detailed(sk.detailed_srd(sk.preprocess_table(bundesliga, "standardize")), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == ("Bayern Muenchen;3.091442;18;0.0;-2.043311;2;16.0;2.204657;18;0.0;"
                            "1.833121;18;0.0;2.637606;18;0.0;1.113272;16.5;1.5;-2.231258;1;17.0;"
                            "2.026631;18")
        assert lines[2] == ("Bayer Leverkusen;0.2412833;13;3.0;0.583803;14;2.0;0.5780304;13;3.0;"
                            "0.8986373;14;2.0;1.341472;17;1.0;-0.2847904;6.5;9.5;-0.9182485;5;"
                            "11.0;1.150048;16")
        assert lines[-1] == ("SRD;-;-;55.0;-;-;114.0;-;-;51.0;-;-;64.0;-;-;98.0;-;-;107.0;-;-;"
                             "144.0;-;-")
