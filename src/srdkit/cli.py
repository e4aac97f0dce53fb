"""Command-line front end: srd <subcommand> [options].

Every analysis subcommand reads a delimited table, optionally transposes,
scales, and attaches or synthesizes a reference column, then prints its
report and writes the same report under the output prefix.  Exit status is
0 on success, 1 on a usage error, and 2 on a data or file error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import plot as plotmod
from .core import (
    SrdError,
    detailed_srd,
    max_srd,
    pairwise_srd,
    rank_matrix,
    srd_values,
    tie_probability,
    transpose,
)
from .crossval import TESTS, cross_validate
from .distribution import OPTIONS, classify, generate_distribution
from .preprocess import PREPROCESS_METHODS, create_reference, preprocess_table
from .tableio import (
    delimited,
    grid,
    read_replay,
    read_table,
    render_crossval_report,
    render_detail_rows,
    render_distribution,
    write_chart_files,
    write_crossval_report,
    write_detailed,
    write_distribution,
    write_pairwise,
    write_rank_matrix,
    write_replay,
    write_srd_result,
    write_table,
)


class UsageError(Exception):
    """Flag combinations argparse cannot catch; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_io_options(sub, with_reference=True):
    sub.add_argument("input", help="delimited input table")
    sub.add_argument("--delimiter", default=";", metavar="CHAR",
                     help="field delimiter (default ';')")
    sub.add_argument("--no-row-names", action="store_true",
                     help="first column holds data, not row labels")
    sub.add_argument("--transpose", action="store_true",
                     help="swap rows and columns after reading")
    sub.add_argument("--preprocess", choices=PREPROCESS_METHODS, default=None,
                     help="scale every column before the analysis")
    if with_reference:
        sub.add_argument("--reference", default="last", metavar="SPEC",
                         help="'last', a column name, or synth:SPEC "
                              "(SPEC: mean|median|min|max|mixed:m1,m2,...)")
    sub.add_argument("-o", "--output-prefix", default="srd", metavar="PREFIX",
                     help="path prefix for written reports (default 'srd')")
    sub.add_argument("--no-save", action="store_true",
                     help="print only, write no files")


def _load_table(args, with_reference=True):
    table = read_table(args.input, args.delimiter, has_row_names=not args.no_row_names)
    if args.transpose:
        table = transpose(table)
    if args.preprocess:
        table = preprocess_table(table, args.preprocess)
    if not with_reference:
        return table
    ref = args.reference
    if ref == "last":
        return table.with_reference(table.col_labels[-1])
    if ref.startswith("synth:"):
        return create_reference(table, ref.removeprefix("synth:"))
    return table.with_reference(ref)


def _print_aligned(rows):
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    for row in rows:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[j + 1]) for j, cell in enumerate(row[1:])]
        print(" ".join([first] + rest).rstrip())


def _out(args, suffix):
    return Path(f"{args.output_prefix}_{suffix}")


def _cmd_values(args):
    table = _load_table(args)
    result = srd_values(table)
    print(" ".join(f"{v:.7f}" for v in result.normalized_srd))
    if not args.no_save:
        write_srd_result(result, _out(args, "srd_values.csv"), args.delimiter)
    return 0


def _cmd_detailed(args):
    table = _load_table(args)
    detail = detailed_srd(table)
    _print_aligned(render_detail_rows(detail))
    if not args.no_save:
        write_detailed(detail, _out(args, "detailed_srd.csv"), args.delimiter)
    return 0


def _cmd_rankmatrix(args):
    table = _load_table(args)
    matrix = rank_matrix(table)
    _print_aligned(grid(matrix.col_labels, matrix.row_labels, matrix.ranks, "{:g}".format))
    if not args.no_save:
        write_rank_matrix(matrix, _out(args, "ranking_matrix.csv"), args.delimiter)
    return 0


def _cmd_maxsrd(args):
    print(max_srd(args.n))
    return 0


def _cmd_tieprob(args):
    table = _load_table(args, with_reference=False)
    labels = [args.column] if args.column else list(table.col_labels)
    values = table.column(args.column)[:, None] if args.column else table.values
    rows = [[label, f"{p:.7f}"] for label, p in zip(labels, tie_probability(values))]
    for label, value in rows:
        print(f"{label}: {value}")
    if not args.no_save:
        _out(args, "tie_probability.csv").write_text(delimited(rows, args.delimiter),
                                                     encoding="utf-8", newline="")
    return 0


def _cmd_preprocess(args):
    if not args.preprocess:
        raise UsageError("preprocess requires --preprocess METHOD")
    table = _load_table(args, with_reference=False)
    _print_table(table)
    if not args.no_save:
        write_table(table, _out(args, "preprocessed.csv"), args.delimiter)
    return 0


def _cmd_reference(args):
    table = _load_table(args)
    _print_table(table)
    if not args.no_save:
        write_table(table, _out(args, "with_reference.csv"), args.delimiter)
    return 0


def _print_table(table):
    _print_aligned(grid(table.col_labels, table.row_labels, table.values, "{:.7g}".format))


def _cmd_crrn(args):
    table = _load_table(args)
    result = srd_values(table)
    dist = generate_distribution(table, option=args.option, tie_prob=args.tie_prob,
                                 samples=args.samples, seed=args.seed)
    print(render_distribution(dist), end="")
    print("\nverdicts")
    for label, score in zip(result.col_labels, result.normalized_srd):
        print(f"{label} {score:.7f} {classify(score, dist.thresholds)}")
    if not args.no_save:
        write_distribution(dist, _out(args, "distribution.csv"))
        if args.plot:
            doc = plotmod.plot_perm_test(result, dist, density_to_distr=args.cdf)
            write_chart_files(doc, _out(args, "permtest.svg"))
    return 0


def _cmd_crossval(args):
    table = _load_table(args)
    if args.replay:
        if args.test is not None or args.folds is not None or args.seed is not None:
            raise UsageError("--replay reruns the recorded test and folds; "
                             "it takes no --test, --folds or --seed")
        test, scheme = read_replay(args.replay, args.delimiter)
        report = cross_validate(table, test=test, scheme=scheme)
    else:
        report = cross_validate(table, test=args.test or "wilcoxon", k=args.folds,
                                seed=args.seed)
    print(render_crossval_report(report, args.delimiter), end="")
    if not args.no_save:
        write_crossval_report(report, _out(args, "crossval.csv"), args.delimiter)
        write_replay(report, _out(args, "replay.csv"), args.delimiter)
        if args.plot:
            write_chart_files(plotmod.plot_crossval(report),
                              _out(args, "crossval.svg"))
    return 0


def _cmd_heatmap(args):
    table = _load_table(args, with_reference=False)
    matrix = pairwise_srd(table)
    palette = plotmod.Palette(tuple(args.palette.split(","))) if args.palette else None
    doc = plotmod.plot_heatmap(matrix, palette)
    print(doc.data, end="")
    if not args.no_save:
        write_pairwise(matrix, _out(args, "pairwise.csv"), args.delimiter)
        write_chart_files(doc, _out(args, "heatmap.svg"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full subcommand tree, built once; each parse returns a fresh namespace."""
    parser = _Parser(prog="srd", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    sub = commands.add_parser("values", help="normalized SRD score per solution")
    _add_io_options(sub)
    sub.set_defaults(run=_cmd_values)

    sub = commands.add_parser("detailed", help="ranks, distances, and raw scores")
    _add_io_options(sub)
    sub.set_defaults(run=_cmd_detailed)

    sub = commands.add_parser("rankmatrix", help="fractional ranks of the solutions")
    _add_io_options(sub)
    sub.set_defaults(run=_cmd_rankmatrix)

    sub = commands.add_parser("maxsrd", help="largest distance for n objects")
    sub.add_argument("n", type=int)
    sub.set_defaults(run=_cmd_maxsrd)

    sub = commands.add_parser("tieprob", help="tie frequency of each column")
    _add_io_options(sub, with_reference=False)
    sub.add_argument("--column", default=None, help="restrict to one column")
    sub.set_defaults(run=_cmd_tieprob)

    sub = commands.add_parser("preprocess", help="scale columns and emit the table")
    _add_io_options(sub, with_reference=False)
    sub.set_defaults(run=_cmd_preprocess)

    sub = commands.add_parser("reference", help="attach or synthesize a reference")
    _add_io_options(sub)
    sub.set_defaults(run=_cmd_reference)

    sub = commands.add_parser("crrn", help="permutation-test distribution and verdicts")
    _add_io_options(sub)
    sub.add_argument("--option", choices=OPTIONS, default="f",
                     help="null-distribution generator (default f)")
    sub.add_argument("--tie-prob", type=float, default=None,
                     help="tie probability for options t and p")
    sub.add_argument("--samples", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--plot", action="store_true", help="also emit the chart")
    sub.add_argument("--cdf", action="store_true",
                     help="overlay the cumulative curve instead of the density")
    sub.set_defaults(run=_cmd_crrn)

    sub = commands.add_parser("crossval", help="cross-validated pairwise testing")
    _add_io_options(sub)
    sub.add_argument("--test", choices=TESTS, default=None,
                     help="pair test (default wilcoxon)")
    sub.add_argument("--folds", type=int, default=None,
                     help="fold count (default 8 for wilcoxon, else 10)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--replay", default=None, metavar="FILE",
                     help="rerun the folds recorded in a replay file")
    sub.add_argument("--plot", action="store_true", help="also emit the chart")
    sub.set_defaults(run=_cmd_crossval)

    sub = commands.add_parser("heatmap", help="pairwise distance matrix and chart")
    _add_io_options(sub, with_reference=False)
    sub.add_argument("--palette", default=None, metavar="COLORS",
                     help="comma-separated #RRGGBB bucket colors")
    sub.set_defaults(run=_cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"srd: error: {exc}", file=sys.stderr)
        return 1
    except (SrdError, OSError) as exc:
        print(f"srd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
