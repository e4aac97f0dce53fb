import csv

import numpy as np
import pytest

import srdkit as sk
from srdkit import cli
from srdkit.cli import main
from srdkit.tableio import write_table


@pytest.fixture()
def bundesliga_csv(tmp_path, bundesliga):
    path = tmp_path / "bundesliga.csv"
    write_table(bundesliga, path)
    return str(path)


@pytest.fixture()
def tied_csv(tmp_path):
    path = tmp_path / "tied.csv"
    path.write_text(";A;B;ref\nr1;1;2;1\nr2;1;3;2\nr3;1;3;3\nr4;5;1;4\n")
    return str(path)


@pytest.fixture()
def srd_input_csv(tmp_path):
    path = tmp_path / "srd_input.csv"
    table = sk.from_columns({"A": [2, 5, 7, 8], "B": [5, 1, 6, 10], "C": [6, 3, 2, 3]})
    write_table(table, path)
    return str(path)


def test_maxsrd_prints_the_normalizer(capsys):
    assert main(["maxsrd", "4"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_values_prints_published_scores(capsys, tmp_path, bundesliga_csv):
    prefix = str(tmp_path / "out")
    assert main(["values", bundesliga_csv, "--reference", "last", "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert out.split() == [
        "0.3395062", "0.7037037", "0.3148148", "0.3950617",
        "0.6049383", "0.6604938", "0.8888889",
    ]
    assert (tmp_path / "out_srd_values.csv").exists()


def test_no_save_writes_nothing(capsys, tmp_path, bundesliga_csv):
    prefix = str(tmp_path / "dry")
    assert main(["values", bundesliga_csv, "-o", prefix, "--no-save"]) == 0
    assert not list(tmp_path.glob("dry*"))


def test_detailed_worked_example(capsys, tmp_path, srd_input_csv):
    code = main([
        "detailed", srd_input_csv,
        "--reference", "synth:mixed:max,min,mean,mean",
        "-o", str(tmp_path / "d"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "refCol_Rank" in out
    assert "SRD" in out and " 4" in out and " 2" in out and " 5.0" in out


def test_reference_synth_mean(capsys, tmp_path, srd_input_csv):
    assert main(["reference", srd_input_csv, "--reference", "synth:mean",
                 "-o", str(tmp_path / "r")]) == 0
    assert "refCol" in capsys.readouterr().out
    assert (tmp_path / "r_with_reference.csv").exists()


@pytest.mark.parametrize("spec, message", [
    ("synth:median:junk", "per-row methods only apply to mixed, not to 'median'"),
    ("synth:mixed", "mixed reference needs a per-row method list, "
                    "e.g. mixed:max,min,mean,mean"),
    ("synth:mixed:", "unknown per-row reference method(s): ''"),
])
def test_reference_synth_rejects_malformed_spec(capsys, srd_input_csv, spec, message):
    assert main(["reference", srd_input_csv, "--reference", spec, "--no-save"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"srd: error: {message}\n"


def test_rankmatrix_excludes_reference(capsys, tmp_path, bundesliga_csv):
    assert main(["rankmatrix", bundesliga_csv, "-o", str(tmp_path / "m"),
                 "--no-save"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "pts" not in header and "Shots pg" in header


def test_tieprob_single_column(capsys, bundesliga_csv, tmp_path):
    assert main(["tieprob", bundesliga_csv, "--column", "pts",
                 "-o", str(tmp_path / "t"), "--no-save"]) == 0
    label, value = capsys.readouterr().out.split(":")
    assert label == "pts"
    assert float(value) == pytest.approx(4 / 17)


def test_rankmatrix_file_text(capsys, tmp_path, tied_csv):
    assert main(["rankmatrix", tied_csv, "-o", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    assert (tmp_path / "m_ranking_matrix.csv").read_text() == (
        ";A;B\nr1;2;2\nr2;2;3.5\nr3;2;3.5\nr4;4;1\n")


def test_tieprob_file_text(capsys, tmp_path, tied_csv, monkeypatch):
    sorts = []  # one sort of the whole table
    real = sk.core.TieGroups
    monkeypatch.setattr(sk.core, "TieGroups",
                        lambda values: sorts.append(values.shape) or real(values))
    assert main(["tieprob", tied_csv, "-o", str(tmp_path / "t")]) == 0
    assert sorts == [(4, 3)]
    assert capsys.readouterr().out == "A: 0.6666667\nB: 0.3333333\nref: 0.0000000\n"
    assert (tmp_path / "t_tie_probability.csv").read_text() == (
        "A;0.6666667\nB;0.3333333\nref;0.0000000\n")


def test_tieprob_of_one_row_exits_two(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(";A;B\nr1;1;2\n")
    for extra in ([], ["--column", "B"]):
        assert main(["tieprob", str(path), "--no-save", *extra]) == 2
        assert "tie probability needs at least two values" in capsys.readouterr().err


def test_quoted_labels_read_back_from_every_delimited_file(capsys, tmp_path):
    solutions = ["a;b", "c,d", 'say "hi"']
    rows = ["r;1", "r,2", 'r"3'] + [f"r{i}" for i in range(4, 13)]
    rng = np.random.default_rng(3)
    columns = {label: rng.integers(0, 6, len(rows)) for label in solutions}
    table = sk.from_columns({**columns, "ref": np.arange(len(rows))}, rows)
    path = tmp_path / "quoted.csv"
    write_table(table, path)
    assert sk.read_table(path).col_labels == table.col_labels
    prefix = str(tmp_path / "q")
    for argv in (["values"], ["rankmatrix"], ["tieprob"], ["heatmap"],
                 ["crossval", "--plot", "--seed", "1"],
                 ["crrn", "--plot", "--samples", "2000", "--seed", "1"]):
        assert main([argv[0], str(path), *argv[1:], "-o", prefix]) == 0
    capsys.readouterr()

    def read(suffix, delimiter=";"):
        with open(tmp_path / f"q_{suffix}", newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle, delimiter=delimiter))

    everything = solutions + ["ref"]
    assert read("srd_values.csv")[0] == ["", *solutions]
    assert [row[0] for row in read("ranking_matrix.csv")] == ["", *rows]
    assert [row[0] for row in read("tie_probability.csv")] == everything
    for suffix in ("pairwise.csv", "heatmap_data.csv"):
        grid = read(suffix)
        assert grid[0] == ["", *everything]
        assert [row[0] for row in grid[1:]] == everything
    report = read("crossval.csv")
    header = report[report.index(["SRD_values_of_different_folds"]) + 1]
    boxes = report[report.index(["boxplot_values"]) + 1]
    chart = read("crossval_data.csv")[0]
    assert header == boxes == chart and sorted(header) == sorted(["", *solutions])
    perm = read("permtest_data.csv", ",")
    assert [row[1] for row in perm if row[0] == "solution"] == solutions


def test_preprocess_requires_method(capsys, bundesliga_csv):
    assert main(["preprocess", bundesliga_csv, "--no-save"]) == 1
    assert "preprocess" in capsys.readouterr().err


def test_preprocess_range_scale(capsys, tmp_path, bundesliga_csv):
    assert main(["preprocess", bundesliga_csv, "--preprocess", "range_scale",
                 "-o", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p_preprocessed.csv").exists()


def test_crrn_writes_deterministic_report(capsys, tmp_path, bundesliga_csv):
    args = ["crrn", bundesliga_csv, "--option", "f", "--samples", "60000",
            "--seed", "1"]
    assert main(args + ["-o", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "SRD_value,relative_frequency" in first
    assert "verdicts" in first and "SignificantDissimilar" in first
    a = (tmp_path / "a_distribution.csv").read_bytes()
    b = (tmp_path / "b_distribution.csv").read_bytes()
    assert a == b


def test_consecutive_calls_share_no_parsed_state(monkeypatch, capsys, bundesliga_csv):
    seeds = []
    real = cli.generate_distribution

    def spy(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_distribution", spy)
    args = ["crrn", bundesliga_csv, "--samples", "1000", "--no-save"]
    assert main(args + ["--seed", "1"]) == 0
    assert main(args) == 0
    capsys.readouterr()
    assert seeds == [1, None]
    assert cli.build_parser() is cli.build_parser()


def test_crrn_plot_emits_chart_files(tmp_path, bundesliga_csv, capsys):
    assert main(["crrn", bundesliga_csv, "--samples", "30000", "--seed", "2",
                 "--plot", "-o", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert (tmp_path / "c_permtest.svg").exists()
    assert (tmp_path / "c_permtest_data.csv").exists()


def test_crrn_missing_tie_prob_is_a_data_error(capsys, bundesliga_csv):
    assert main(["crrn", bundesliga_csv, "--option", "t", "--samples", "10",
                 "--no-save"]) == 2
    assert "tie probability" in capsys.readouterr().err


def test_quote_delimiter_exits_two(capsys, bundesliga_csv):
    assert main(["values", bundesliga_csv, "--delimiter", '"', "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: delimiter must be") and "Traceback" not in err


@pytest.mark.parametrize("command", ["crrn", "crossval"])
def test_negative_seed_exits_two(capsys, bundesliga_csv, command):
    assert main([command, bundesliga_csv, "--seed", "-1", "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: seed must be") and "Traceback" not in err


def test_crossval_report_and_replay(capsys, tmp_path, bundesliga_csv):
    prefix = str(tmp_path / "cv")
    assert main(["crossval", bundesliga_csv, "--seed", "4", "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert "new_column_order_based_on_folds" in out
    report = (tmp_path / "cv_crossval.csv").read_bytes()
    assert (tmp_path / "cv_replay.csv").exists()

    replay_prefix = str(tmp_path / "again")
    assert main(["crossval", bundesliga_csv, "--replay",
                 str(tmp_path / "cv_replay.csv"), "-o", replay_prefix]) == 0
    capsys.readouterr()
    assert (tmp_path / "again_crossval.csv").read_bytes() == report


@pytest.mark.parametrize("extra", [["--folds", "8"], ["--seed", "4"],
                                   ["--test", "wilcoxon"]])
def test_replay_rejects_fold_options(capsys, tmp_path, bundesliga_csv, extra):
    prefix = str(tmp_path / "cv")
    assert main(["crossval", bundesliga_csv, "--seed", "4", "-o", prefix]) == 0
    capsys.readouterr()
    assert main(["crossval", bundesliga_csv, "--replay", prefix + "_replay.csv",
                 "--no-save", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("srd: error: --replay reruns the recorded test and folds; "
                            "it takes no --test, --folds or --seed\n")


def test_crossval_beyond_signed_rank_fold_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "tall.csv"
    rows = np.arange(64.0)
    write_table(sk.from_columns({"a": rows[::-1], "b": rows % 7, "ref": rows}), path)
    assert main(["crossval", str(path), "--folds", "63", "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: the signed-rank test supports at most 62 folds")


@pytest.mark.parametrize("old, new, line", [
    ("k;8", "k;eight", "line 3"),
    ("fold_2;", "fold_2;2.5;", "line 6"),
    ("fold_2;", "fold_1;", "line 6"),
    ("k;8", "k;8;9", "line 3"),
    ("test;wilcoxon", "test;wilcoxon;junk", "line 1"),
    ("fold_2;", "fold_9;0;1;2\nfold_2;", "line 6"),
    ("k;8", "bogus;1\nk;8", "line 3"),
])
def test_malformed_replay_exits_two(capsys, tmp_path, bundesliga_csv, old, new, line):
    prefix = str(tmp_path / "cv")
    assert main(["crossval", bundesliga_csv, "--seed", "4", "-o", prefix]) == 0
    capsys.readouterr()
    replay = tmp_path / "cv_replay.csv"
    text = replay.read_text()
    assert old in text
    replay.write_text(text.replace(old, new, 1))
    assert main(["crossval", bundesliga_csv, "--replay", str(replay), "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: ") and f"{line}:" in err
    assert "Traceback" not in err


def test_replay_of_unequal_subsample_folds_exits_two(capsys, tmp_path, bundesliga_csv):
    replay = tmp_path / "replay.csv"
    replay.write_text("test;wilcoxon\nkind;subsample\nk;5\nseed;none\n" + "".join(
        f"fold_{i + 1};" + ";".join(map(str, range(15 if i else 2))) + "\n" for i in range(5)))
    assert main(["crossval", bundesliga_csv, "--replay", str(replay), "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: ") and "same number of rows" in err


def test_replay_of_paired_test_on_subsample_folds_exits_two(capsys, tmp_path,
                                                           bundesliga_csv):
    prefix = str(tmp_path / "cv")
    assert main(["crossval", bundesliga_csv, "--seed", "4", "-o", prefix]) == 0
    capsys.readouterr()
    replay = tmp_path / "cv_replay.csv"
    replay.write_text(replay.read_text().replace("test;wilcoxon", "test;alpaydin", 1))
    assert main(["crossval", bundesliga_csv, "--replay", str(replay), "--no-save"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("srd: error: the alpaydin test pairs half-split")
    assert "subsample folds" in captured.err


def test_replay_naming_a_row_past_the_table_exits_two(capsys, tmp_path, bundesliga_csv):
    folds = [list(range(15))] * 5
    folds[2] = list(range(14)) + [18]
    replay = tmp_path / "replay.csv"
    replay.write_text("test;wilcoxon\nkind;subsample\nk;5\nseed;none\n" + "".join(
        f"fold_{i + 1};" + ";".join(map(str, fold)) + "\n" for i, fold in enumerate(folds)))
    assert main(["crossval", bundesliga_csv, "--replay", str(replay), "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("srd: error: fold 3 refers to row 18")


@pytest.mark.parametrize("old, new", [
    (b"Bayern", b"Bay\xffern"),  # not UTF-8
    (b"Bayern", b"B" * 140_000),  # beyond the csv module's field size limit
])
def test_unreadable_table_exits_two(capsys, tmp_path, bundesliga_csv, old, new):
    path = tmp_path / "hostile.csv"
    data = (tmp_path / "bundesliga.csv").read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    assert main(["values", str(path), "--no-save"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"srd: error: {path}: ") and "Traceback" not in err


def test_crossval_plot_emits_chart_files(capsys, tmp_path, bundesliga_csv):
    assert main(["crossval", bundesliga_csv, "--seed", "5", "--plot",
                 "-o", str(tmp_path / "cvp")]) == 0
    capsys.readouterr()
    assert (tmp_path / "cvp_crossval.svg").exists()
    assert (tmp_path / "cvp_crossval_data.csv").exists()


def test_transpose_flag_flips_the_table(capsys, tmp_path, bundesliga_csv):
    assert main(["rankmatrix", bundesliga_csv, "--transpose", "--no-save"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "Bayern Muenchen" in header and "Shots pg" not in header


def test_heatmap_outputs(capsys, tmp_path, bundesliga_csv):
    prefix = str(tmp_path / "h")
    assert main(["heatmap", bundesliga_csv, "-o", prefix]) == 0
    capsys.readouterr()
    assert (tmp_path / "h_heatmap.svg").exists()
    assert (tmp_path / "h_pairwise.csv").exists()
    assert (tmp_path / "h_heatmap_data.csv").exists()


def test_heatmap_custom_palette(capsys, tmp_path, bundesliga_csv):
    assert main(["heatmap", bundesliga_csv, "--palette", "#ff0000,#00ff00",
                 "-o", str(tmp_path / "h2")]) == 0
    capsys.readouterr()
    assert "#ff0000" in (tmp_path / "h2_heatmap.svg").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [
    "values", "detailed", "rankmatrix", "maxsrd", "tieprob",
    "preprocess", "reference", "crrn", "crossval", "heatmap",
])
def test_every_subcommand_documents_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out
    if command not in ("maxsrd",):
        assert "--output-prefix" in out and "--no-save" in out


def test_crrn_workers_default_to_the_usable_cpus(capsys, bundesliga_csv):
    with pytest.raises(SystemExit):
        main(["crrn", "--help"])
    assert "one per usable CPU" in " ".join(capsys.readouterr().out.split())
    argv = ["crrn", bundesliga_csv, "--samples", "3000", "--seed", "2", "--no-save"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--workers", "3"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--workers", "0"]) == 2
    assert "worker count must be an integer of at least 1" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["values"])  # missing input path
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["crrn", "x.csv", "--option", "z"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    assert main(["values", "/no/such/file.csv", "--no-save"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_reference_column_exits_two(capsys, bundesliga_csv):
    assert main(["values", bundesliga_csv, "--reference", "nope",
                 "--no-save"]) == 2
    assert "nope" in capsys.readouterr().err


def test_usage_error_leaves_no_partial_files(tmp_path, capsys, bundesliga_csv):
    prefix = tmp_path / "partial"
    with pytest.raises(SystemExit):
        main(["crossval", bundesliga_csv, "--test", "anova", "-o", str(prefix)])
    capsys.readouterr()
    assert not list(tmp_path.glob("partial*"))
