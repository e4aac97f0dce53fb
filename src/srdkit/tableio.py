"""Reading delimited tables and writing every report format.

All files are plain delimited text with '.' as the decimal mark.  Tables
round-trip exactly: values are written with a shortest representation that
re-parses to the identical float.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DataTable,
    RankMatrix,
    SrdDetail,
    SrdError,
    SrdResult,
)
from .crossval import BOX_ROWS, CrossValReport, FoldScheme, TESTS
from .distribution import SrdDistribution


@dataclass(frozen=True)
class TableFileSpec:
    """Where and how to read a delimited table.

    The first row is a header; with ``has_row_names`` the first column
    holds the row labels and the header's corner cell is ignored.
    """

    path: str | Path
    delimiter: str = ";"
    has_row_names: bool = True

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in ".\r\n":
            raise SrdError(
                "delimiter must be a single character other than '.' or a line break"
            )


def _csv_rows(path: Path, delimiter: str) -> list[tuple[int, list[str]]]:
    """Every row of a delimited UTF-8 file, with the line number it ends on.

    Bytes that are not UTF-8 and fields beyond the csv module's size limit
    raise SrdError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            return [(reader.line_num, row) for row in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SrdError(f"{path}: not readable as delimited UTF-8 text: {exc}") from None


def read_table(spec: TableFileSpec | str | Path) -> DataTable:
    """Parse a delimited file into a DataTable.

    Rows must be rectangular; every data cell must parse as a finite real.
    Problems are reported with the offending row and column labels.
    """
    if not isinstance(spec, TableFileSpec):
        spec = TableFileSpec(spec)
    path = Path(spec.path)
    rows = [(line, row) for line, row in _csv_rows(path, spec.delimiter)
            if any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise SrdError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in rows[0][1]]
    col_labels = header[1:] if spec.has_row_names else header
    if not col_labels:
        raise SrdError(f"{path}: header defines no data columns")
    width = len(header)
    row_labels: list[str] = []
    values = np.empty((len(rows) - 1, len(col_labels)))
    for i, (line, row) in enumerate(rows[1:]):
        if len(row) != width:
            raise SrdError(
                f"{path}: line {line} has {len(row)} fields, expected {width}"
            )
        cells = [cell.strip() for cell in row]
        if spec.has_row_names:
            row_labels.append(cells[0])
            cells = cells[1:]
        else:
            row_labels.append(str(i + 1))
        for j, cell in enumerate(cells):
            try:
                parsed = float(cell)
            except ValueError:
                parsed = math.nan
            if not math.isfinite(parsed):
                raise SrdError(
                    f"{path}: cell at row {row_labels[-1]!r}, "
                    f"column {col_labels[j]!r} is not a finite number: {cell!r}"
                )
            values[i, j] = parsed
    return DataTable(values, tuple(row_labels), tuple(col_labels))


def _float_repr(x: float) -> str:
    return repr(float(x))


def _grid_repr(x: float) -> str:
    """Integers bare, half-integers with one decimal, anything else 7 digits."""
    if x == int(x):
        return str(int(x))
    if 2 * x == int(2 * x):
        return f"{x:.1f}"
    return f"{x:.7g}"


def _write_rows(path: Path, rows, delimiter: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, delimiter=delimiter, lineterminator="\n").writerows(rows)


def write_table(table: DataTable, path, delimiter: str = ";") -> None:
    rows = [[""] + list(table.col_labels)]
    for i, label in enumerate(table.row_labels):
        rows.append([label] + [_float_repr(v) for v in table.values[i, :]])
    _write_rows(Path(path), rows, delimiter)


def write_rank_matrix(matrix: RankMatrix, path, delimiter: str = ";") -> None:
    rows = [[""] + list(matrix.col_labels)]
    for i, label in enumerate(matrix.row_labels):
        rows.append([label] + [_grid_repr(v) for v in matrix.ranks[i, :]])
    _write_rows(Path(path), rows, delimiter)


def write_srd_result(result: SrdResult, path, delimiter: str = ";") -> None:
    kind = "normalized_srd" if result.normalized else "raw_srd"
    rows = [
        [""] + list(result.col_labels),
        [kind] + [f"{v:.7f}" for v in result.scores],
    ]
    _write_rows(Path(path), rows, delimiter)


def render_detail_rows(detail: SrdDetail) -> list[list[str]]:
    """Cell grid of the step-by-step SRD table, summary row included.

    Distance columns format uniformly (one decimal as soon as the column
    holds a half-integer, summary value included); value and rank cells
    render individually.
    """
    def dist_format(j: int):
        column = np.append(detail.distances[:, j], detail.raw_srd[j])
        if np.all(column == np.rint(column)):
            return lambda x: str(int(x))
        return lambda x: f"{x:.1f}"

    dist_formats = [dist_format(j) for j in range(len(detail.solution_labels))]
    header = [""]
    for label in detail.solution_labels:
        header += [label, f"{label}_Rank", f"{label}_Dist"]
    header += [detail.reference_label, f"{detail.reference_label}_Rank"]
    rows = [header]
    for i, row_label in enumerate(detail.row_labels):
        row = [row_label]
        for j in range(len(detail.solution_labels)):
            row += [
                _grid_repr(detail.solution_values[i, j]),
                _grid_repr(detail.solution_ranks[i, j]),
                dist_formats[j](detail.distances[i, j]),
            ]
        row += [
            _grid_repr(detail.reference_values[i]),
            _grid_repr(detail.reference_ranks[i]),
        ]
        rows.append(row)
    summary = ["SRD"]
    for j in range(len(detail.solution_labels)):
        summary += ["-", "-", dist_formats[j](detail.raw_srd[j])]
    summary += ["-", "-"]
    rows.append(summary)
    return rows


def write_detailed(detail: SrdDetail, path, delimiter: str = ";") -> None:
    _write_rows(Path(path), render_detail_rows(detail), delimiter)


def render_distribution(dist: SrdDistribution) -> str:
    """Support/frequency rows followed by the labeled threshold lines."""
    if dist.support.size == 0:
        raise SrdError("refusing to write a distribution with empty support")
    lines = ["SRD_value,relative_frequency"]
    for value, freq in zip(dist.support, dist.frequency):
        lines.append(f"{value:.6f},{freq:.6f}")
    t = dist.thresholds
    lines += [
        f"xx1,{t.xx1:.4f}",
        f"q1,{t.q1:.4f}",
        f"median,{t.median:.4f}",
        f"q3,{t.q3:.4f}",
        f"xx19,{t.xx19:.4f}",
        f"avg,{t.mean:.7f}",
        f"std_dev,{t.std_dev:.7f}",
    ]
    return "\n".join(lines) + "\n"


def write_distribution(dist: SrdDistribution, path) -> None:
    Path(path).write_text(render_distribution(dist), encoding="utf-8")


def render_crossval_report(report: CrossValReport, delimiter: str = ";") -> str:
    """Blocks of the cross-validation report, columns in median order."""
    order = list(report.column_order)
    ordered_labels = [report.solution_labels[j] for j in order]
    lines = [
        "new_column_order_based_on_folds",
        " ".join(str(j + 1) for j in order),
        "",
        "test_statistics",
        " ".join(f"{r.statistic:g}" for r in report.pair_results),
        "",
        "statistical_significance",
        " ".join(f'"{r.category}"' for r in report.pair_results),
        "",
        "SRD_values_of_different_folds",
        delimiter.join([""] + ordered_labels),
    ]
    for i in range(report.fold_srd.shape[0]):
        cells = [f"{report.fold_srd[i, j]:.7f}" for j in order]
        lines.append(delimiter.join([f"fold_{i + 1}"] + cells))
    lines += ["", "boxplot_values", delimiter.join([""] + ordered_labels)]
    for r, name in enumerate(BOX_ROWS):
        cells = [f"{report.box_summary[r, j]:.4f}" for j in order]
        lines.append(delimiter.join([name] + cells))
    return "\n".join(lines) + "\n"


def write_crossval_report(report: CrossValReport, path, delimiter: str = ";") -> None:
    Path(path).write_text(render_crossval_report(report, delimiter), encoding="utf-8")


def write_replay(report: CrossValReport, path, delimiter: str = ";") -> None:
    """Record the test kind and every fold's retained rows for exact reruns."""
    if report.scheme is None:
        raise SrdError("report has no fold scheme to replay")
    scheme = report.scheme
    rows = [
        ["test", report.test_kind],
        ["kind", scheme.kind],
        ["k", str(scheme.k)],
        ["seed", "none" if scheme.seed is None else str(scheme.seed)],
    ]
    for i, fold in enumerate(scheme.folds):
        rows.append([f"fold_{i + 1}"] + [str(idx) for idx in fold])
    _write_rows(Path(path), rows, delimiter)


def read_replay(path, delimiter: str = ";") -> tuple[str, FoldScheme]:
    """Load a replay file back into (test kind, fold scheme).

    Malformed or ambiguous content (a repeated line, extra cells after a
    single value, a line other than test, kind, k, seed and fold_1..fold_k)
    raises SrdError naming the offending line; folds that do not form a
    valid scheme raise SrdError naming the file.
    """
    path = Path(path)
    fields: dict[str, tuple[int, list[str]]] = {}
    for line, row in _csv_rows(path, delimiter):
        if not row:
            continue
        if row[0] in fields:
            raise SrdError(f"{path}: line {line}: repeated {row[0]!r} "
                           f"line (first on line {fields[row[0]][0]})")
        fields[row[0]] = (line, row[1:])
    for required in ("test", "kind", "k", "seed"):
        if required not in fields:
            raise SrdError(f"{path}: replay file is missing the {required!r} line")
    test = _replay_word(path, fields, "test")
    if test not in TESTS:
        raise SrdError(f"{path}: unknown test {test!r} in replay file")
    kind = _replay_word(path, fields, "kind")
    k = _replay_ints(path, fields, "k", [_replay_word(path, fields, "k")])[0]
    seed_text = _replay_word(path, fields, "seed")
    seed = None if seed_text == "none" else _replay_ints(
        path, fields, "seed", [seed_text])[0]
    folds = []
    for i in range(k):
        key = f"fold_{i + 1}"
        if key not in fields:
            raise SrdError(f"{path}: replay file is missing {key!r}")
        folds.append(tuple(_replay_ints(path, fields, key, fields[key][1])))
    expected = {"test", "kind", "k", "seed"} | {f"fold_{i + 1}" for i in range(k)}
    for key, (line, _) in fields.items():
        if key not in expected:
            raise SrdError(f"{path}: line {line}: unexpected {key!r} line; a replay file "
                           f"holds test, kind, k, seed and fold_1 to fold_k (k = {k})")
    try:
        return test, FoldScheme(kind, tuple(folds), k, seed)
    except SrdError as exc:
        raise SrdError(f"{path}: {exc}") from None


def _replay_word(path, fields, key: str) -> str:
    line, cells = fields[key]
    if not cells or not cells[0].strip():
        raise SrdError(f"{path}: line {line}: {key!r} has no value")
    if len(cells) > 1:
        raise SrdError(f"{path}: line {line}: {key!r} takes one value, got {len(cells)}")
    return cells[0]


def _replay_ints(path, fields, key: str, cells: list[str]) -> list[int]:
    line = fields[key][0]
    values = []
    for cell in cells:
        try:
            values.append(int(cell))
        except ValueError:
            raise SrdError(
                f"{path}: line {line}: {key!r} must be an integer, got {cell!r}"
            ) from None
    return values


def write_pairwise(matrix, path, delimiter: str = ";") -> None:
    rows = [[""] + list(matrix.labels)]
    for i, label in enumerate(matrix.labels):
        rows.append([label] + [f"{v:.7f}" for v in matrix.values[i, :]])
    _write_rows(Path(path), rows, delimiter)


def write_chart_files(doc, svg_path, data_path=None) -> None:
    """Write a chart's SVG and its companion data file side by side."""
    svg_path = Path(svg_path)
    if data_path is None:
        data_path = svg_path.with_name(svg_path.stem + "_data.csv")
    svg_path.write_text(doc.svg, encoding="utf-8")
    Path(data_path).write_text(doc.data, encoding="utf-8")
