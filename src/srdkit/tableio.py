"""Reading delimited tables and writing every report format.

All files are plain delimited text with '.' as the decimal mark.  Tables
round-trip exactly: values are written with a shortest representation that
re-parses to the identical float.
"""

from __future__ import annotations

import csv
import io
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


def _grid_repr(x: float) -> str:
    """Integers bare, half-integers with one decimal, anything else 7 digits."""
    if x == int(x):
        return str(int(x))
    if 2 * x == int(2 * x):
        return f"{x:.1f}"
    return f"{x:.7g}"


def grid(col_labels, row_labels, rows, fmt) -> list[list[str]]:
    """A header of column labels, then one labelled row of formatted cells per item.

    ``rows`` is a 2-D array or nested sequence of numbers; ``fmt`` formats
    each one as a Python float.
    """
    cells = np.asarray(rows, dtype=float).tolist()
    return [["", *col_labels]] + [[label, *map(fmt, row)]
                                  for label, row in zip(row_labels, cells)]


def delimited(rows, delimiter: str = ";") -> str:
    """Rows of cells as delimited text with csv quoting and "\n" line ends.

    A cell holding the delimiter, a quote or a line break is quoted, so
    ``csv.reader`` reads every cell back whatever the labels hold.
    """
    text = io.StringIO()
    csv.writer(text, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_table(table: DataTable, path, delimiter: str = ";") -> None:
    rows = grid(table.col_labels, table.row_labels, table.values, repr)
    _write_text(path, delimited(rows, delimiter))


def write_rank_matrix(matrix: RankMatrix, path, delimiter: str = ";") -> None:
    rows = grid(matrix.col_labels, matrix.row_labels, matrix.ranks, _grid_repr)
    _write_text(path, delimited(rows, delimiter))


def write_srd_result(result: SrdResult, path, delimiter: str = ";") -> None:
    kind = "normalized_srd" if result.normalized else "raw_srd"
    rows = grid(result.col_labels, [kind], [result.scores], "{:.7f}".format)
    _write_text(path, delimited(rows, delimiter))


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
    _write_text(path, delimited(render_detail_rows(detail), delimiter))


def render_distribution(dist: SrdDistribution) -> str:
    """Support/frequency rows followed by the labeled threshold lines."""
    t = dist.thresholds
    rows = [["SRD_value", "relative_frequency"]]
    rows += [[f"{value:.6f}", f"{freq:.6f}"]
             for value, freq in zip(dist.support.tolist(), dist.frequency.tolist())]
    rows += [["xx1", f"{t.xx1:.4f}"], ["q1", f"{t.q1:.4f}"],
             ["median", f"{t.median:.4f}"], ["q3", f"{t.q3:.4f}"],
             ["xx19", f"{t.xx19:.4f}"], ["avg", f"{t.mean:.7f}"],
             ["std_dev", f"{t.std_dev:.7f}"]]
    return delimited(rows, ",")


def write_distribution(dist: SrdDistribution, path) -> None:
    _write_text(path, render_distribution(dist))


def render_crossval_report(report: CrossValReport, delimiter: str = ";") -> str:
    """Blocks of the cross-validation report, columns in median order."""
    order = list(report.column_order)
    labels = [report.solution_labels[j] for j in order]
    folds = [f"fold_{i + 1}" for i in range(report.fold_srd.shape[0])]
    head = [
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
    ]
    fold_grid = grid(labels, folds, report.fold_srd[:, order], "{:.7f}".format)
    box_grid = grid(labels, BOX_ROWS, report.box_summary[:, order], "{:.4f}".format)
    return ("\n".join(head) + "\n" + delimited(fold_grid, delimiter)
            + "\nboxplot_values\n" + delimited(box_grid, delimiter))


def write_crossval_report(report: CrossValReport, path, delimiter: str = ";") -> None:
    _write_text(path, render_crossval_report(report, delimiter))


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
    _write_text(path, delimited(rows, delimiter))


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
    rows = grid(matrix.labels, matrix.labels, matrix.values, "{:.7f}".format)
    _write_text(path, delimited(rows, delimiter))


def write_chart_files(doc, svg_path, data_path=None) -> None:
    """Write a chart's SVG and its companion data file side by side."""
    svg_path = Path(svg_path)
    if data_path is None:
        data_path = svg_path.with_name(svg_path.stem + "_data.csv")
    _write_text(svg_path, doc.svg)
    _write_text(data_path, doc.data)
