"""Rank transformation and sum-of-ranking-differences (SRD) scoring.

The input is a table whose columns are the solutions to compare and whose
rows are the ranked objects.  One column acts as the reference.  Every
column is converted to fractional ranks (ties share the mean of the integer
ranks they occupy) and each solution is scored by the L1 distance between
its rank column and the reference rank column, optionally normalized by the
largest distance two rankings of that size can have.

Every score takes one path: one sort of the table, then int64 sums of doubled
ranks per row set.  Whole-table scores are the set of all rows; each
cross-validation fold is another.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np


class SrdError(ValueError):
    """Raised for invalid tables, parameters, or file contents."""


def checked_count(value, what: str, minimum: int = 1) -> int:
    """``value`` as an int, or SrdError unless it is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise SrdError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def checked_probability(value, what: str) -> float:
    """``value`` as a float, or SrdError unless it is a real number in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise SrdError(f"{what} must be a real number in [0, 1], got {value!r}")
    return float(value)


def checked_seed(seed) -> int | None:
    """A seed for numpy's SeedSequence: None or a nonnegative integer."""
    return None if seed is None else checked_count(seed, "seed", 0)


def _check_labels(labels: tuple[str, ...], what: str) -> None:
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise SrdError(f"duplicate {what} labels: {', '.join(dupes)}")


@dataclass(frozen=True)
class DataTable:
    """Named real-valued matrix; rows are objects, columns are solutions.

    ``reference`` designates the reference column by label.  ``None`` means
    no column has been designated explicitly; operations that need one fall
    back to the last column, which is the conventional position for the
    reference.

    ``values`` is stored as a read-only float64 array.  A float64 input is
    adopted, not copied: the caller's array is marked read-only too, but a
    writable view taken from it earlier can still change the table.
    """

    values: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    reference: str | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise SrdError("table values must form a non-empty 2-D matrix")
        if not np.all(np.isfinite(values)):
            raise SrdError("table values must all be finite")
        object.__setattr__(self, "values", values)
        values.flags.writeable = False
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if len(self.row_labels) != values.shape[0]:
            raise SrdError(
                f"expected {values.shape[0]} row labels, got {len(self.row_labels)}"
            )
        if len(self.col_labels) != values.shape[1]:
            raise SrdError(
                f"expected {values.shape[1]} column labels, got {len(self.col_labels)}"
            )
        _check_labels(self.row_labels, "row")
        _check_labels(self.col_labels, "column")
        if self.reference is not None and self.reference not in self.col_labels:
            raise SrdError(f"reference column {self.reference!r} is not in the table")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def reference_label(self) -> str:
        """Designated reference column, defaulting to the last column."""
        return self.reference if self.reference is not None else self.col_labels[-1]

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.col_labels.index(label)
        except ValueError:
            raise SrdError(f"no column named {label!r}") from None
        return self.values[:, j]

    def with_reference(self, label: str) -> "DataTable":
        """Return a copy with ``label`` designated as the reference column."""
        return replace(self, reference=label)

    def select_rows(self, indices) -> "DataTable":
        """Return the sub-table with the given rows (0 .. n_rows - 1), in the given order."""
        idx = list(indices)
        if len(idx) == 0:
            raise SrdError("cannot select an empty set of rows")
        for i in idx:
            if (isinstance(i, bool) or not isinstance(i, numbers.Integral)
                    or not 0 <= i < self.n_rows):
                raise SrdError(f"row index {i!r} is not an integer in 0..{self.n_rows - 1}")
        return replace(
            self,
            values=self.values[idx, :],
            row_labels=tuple(self.row_labels[i] for i in idx),
        )


def from_columns(columns: dict[str, list[float]],
                 row_labels=None,
                 reference: str | None = None) -> DataTable:
    """Build a DataTable from a column-name to values mapping.

    Row labels default to "1", "2", ... which matches how unlabeled data
    frames are usually displayed.
    """
    if not columns:
        raise SrdError("at least one column is required")
    labels = tuple(columns)
    values = np.column_stack([np.asarray(columns[c], dtype=float) for c in labels])
    if row_labels is None:
        row_labels = tuple(str(i + 1) for i in range(values.shape[0]))
    return DataTable(values, tuple(row_labels), labels, reference)


def transpose(table: DataTable) -> DataTable:
    """Swap rows and columns.  Any reference designation is dropped."""
    return DataTable(table.values.T.copy(), table.col_labels, table.row_labels)


@dataclass(frozen=True)
class RankMatrix:
    """Column-wise fractional ranks of the solution columns of a table."""

    ranks: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_cols(self) -> int:
        return self.ranks.shape[1]


@dataclass(frozen=True)
class SrdResult:
    """Per-solution SRD scores against the reference column.

    ``raw_srd[j]`` is the L1 distance of solution j's rank column from the
    reference rank column; ``normalized_srd[j]`` divides it by
    ``max_srd(n_objects)``.  ``scores`` holds whichever of the two the
    caller asked for and is what reports display.
    """

    col_labels: tuple[str, ...]
    raw_srd: np.ndarray
    normalized_srd: np.ndarray
    n_objects: int
    reference_label: str
    normalized: bool = True

    @property
    def scores(self) -> np.ndarray:
        return self.normalized_srd if self.normalized else self.raw_srd


@dataclass(frozen=True)
class SrdDetail:
    """Step-by-step SRD computation: values, ranks, and per-row distances.

    ``distances[i, j]`` is ``|rank(solution j)[i] - rank(reference)[i]|``;
    summing a column gives that solution's raw SRD, stored in ``raw_srd``.
    """

    row_labels: tuple[str, ...]
    solution_labels: tuple[str, ...]
    reference_label: str
    solution_values: np.ndarray
    solution_ranks: np.ndarray
    distances: np.ndarray
    reference_values: np.ndarray
    reference_ranks: np.ndarray
    raw_srd: np.ndarray


class TieGroups:
    """The one sort of a matrix's columns: ranks of any row subset and tie frequencies.

    Each cell is labelled with its column's tie group.  Labels run across
    the whole matrix, column after column and ascending by value within a
    column, so one ``bincount`` over a set of rows counts the selected
    members of every group of every column at once.

    ``labels`` is (m, n) for an n x m matrix: one contiguous row per column,
    so a set of rows is gathered from each column's row in one ``take``.
    Labels and doubled ranks (at most 2n) are int32, or int64 for matrices
    of 2^30 cells or more.  Two steps need int64: the count table, whose
    running sum spans the selected rows of every column, and any sum of
    rank differences, since one column's doubled raw SRD passes 2^31 from
    46,341 rows.
    """

    def __init__(self, values: np.ndarray) -> None:
        cols = np.ascontiguousarray(values.T)
        m, n = cols.shape
        order = np.argsort(cols, axis=1)  # tied values need no stable order
        order += n * np.arange(m)[:, None]
        flat = order.ravel()
        ordered = cols.take(flat)
        starts = np.empty(cols.size, dtype=bool)
        starts[1:] = ordered[1:] != ordered[:-1]
        starts[::n] = True  # each column's smallest value opens a group
        dtype = np.int32 if 2 * cols.size < 2**31 else np.int64
        labels = np.cumsum(starts, dtype=dtype)
        labels -= 1
        groups = np.empty_like(labels)
        groups[flat] = labels
        self.labels = groups.reshape(m, n)
        self.count = int(labels[-1]) + 1
        self._label_cols = np.flatnonzero(starts)
        self._label_cols //= n

    def doubled_ranks(self, rows=None) -> np.ndarray:
        """Twice the (m, k) average ranks of k given rows, ranked among themselves.

        A tie group preceded by e selected rows of its column and holding c
        selected rows covers ranks e + 1 .. e + c, so its doubled average
        rank is the integer 2e + c + 1.  All rows are ranked when ``rows``
        is None.  Row j of the result is column j of the matrix.
        """
        sub = self.labels if rows is None else self.labels.take(rows, axis=1)
        counts = np.bincount(sub.ravel(), minlength=self.count)
        doubled = 2 * np.cumsum(counts) - counts + 1
        # The labels count the selected rows of every earlier column too.
        doubled -= 2 * sub.shape[1] * self._label_cols
        return doubled.astype(self.labels.dtype).take(sub)

    def tie_probabilities(self) -> np.ndarray:
        """Per column, the share of its n - 1 adjacent sorted pairs that are tied."""
        m, n = self.labels.shape
        return (n - np.bincount(self._label_cols, minlength=m)) / (n - 1)


def fractional_ranks(values) -> np.ndarray:
    """Rank values ascending from 1; tied values share the mean of their ranks.

    A 1-D input is one column; a 2-D input is ranked column by column in one
    call.  It is the float view of ``TieGroups.doubled_ranks`` for outputs
    that show ranks.  Ties are detected by exact equality of the parsed
    numbers.  Each ranked column sums to n(n+1)/2 and every rank is a
    multiple of 0.5, so sums of rank differences are exact in floating point.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise SrdError("ranking requires a non-empty 1-D sequence or 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise SrdError("ranking requires finite values")
    doubled = TieGroups(arr.reshape(arr.shape[0], -1)).doubled_ranks()
    return (doubled / 2).T.reshape(arr.shape)


def max_srd(n: int) -> int:
    """Largest possible L1 distance between two rankings of n objects.

    Equals floor(n^2 / 2): n^2/2 for even n and (n^2 - 1)/2 for odd n.
    """
    n = checked_count(n, "n")
    return n * n // 2


def _reference_split(table: DataTable) -> tuple[int, list[int]]:
    """Column index of the reference and of every solution, in table order."""
    if table.n_cols < 2:
        raise SrdError("SRD needs at least two columns: solutions plus a reference")
    ref = table.col_labels.index(table.reference_label)
    return ref, [j for j in range(table.n_cols) if j != ref]


def _srd_units(table: DataTable, folds=(None,)) -> tuple[np.ndarray, list[int]]:
    """Doubled raw SRD per row set and solution, and the solutions' column indices.

    Each of ``folds`` is an intp array of rows, ranked among themselves, or
    None for all rows.  Doubling makes every rank, so every sum, an integer.
    """
    ref, sol = _reference_split(table)
    groups = TieGroups(table.values)
    units = np.empty((len(folds), len(sol)), dtype=np.int64)
    for i, rows in enumerate(folds):
        ranks = groups.doubled_ranks(rows)
        units[i] = np.abs(ranks - ranks[ref]).sum(axis=1, dtype=np.int64)[sol]
    return units, sol


def rank_matrix(table: DataTable) -> RankMatrix:
    """Fractional ranks of every solution column.

    An explicitly designated reference column is left out of the output so
    the matrix can feed ranking tools that expect solutions only; with no
    designation every column is ranked.
    """
    cols = [j for j, c in enumerate(table.col_labels) if c != table.reference]
    ranks = fractional_ranks(table.values[:, cols])
    return RankMatrix(ranks, table.row_labels, tuple(table.col_labels[j] for j in cols))


def srd_values(table: DataTable, normalize: bool = True) -> SrdResult:
    """Score every solution column by its rank distance from the reference.

    Output order follows the input column order.  ``normalize`` selects
    whether ``scores`` reports the normalized or the raw distances; both
    are always computed.
    """
    units, sol = _srd_units(table)
    raw = units[0] / 2
    f = max_srd(table.n_rows)
    # n = 1 gives f = 0, but then both rankings coincide and raw is 0.
    normalized = raw / f if f else np.zeros_like(raw)
    return SrdResult(
        col_labels=tuple(table.col_labels[j] for j in sol),
        raw_srd=raw,
        normalized_srd=normalized,
        n_objects=table.n_rows,
        reference_label=table.reference_label,
        normalized=normalize,
    )


def detailed_srd(table: DataTable) -> SrdDetail:
    """Expanded SRD computation for inspection and teaching.

    For every solution column the result carries the original values, their
    fractional ranks, and the per-row absolute rank differences from the
    reference, together with the per-solution raw SRD totals.
    """
    ref, sol = _reference_split(table)
    doubled = TieGroups(table.values).doubled_ranks()
    units = np.abs(doubled[sol] - doubled[ref])
    return SrdDetail(
        row_labels=table.row_labels,
        solution_labels=tuple(table.col_labels[j] for j in sol),
        reference_label=table.reference_label,
        solution_values=table.values[:, sol],
        solution_ranks=doubled[sol].T / 2,
        distances=units.T / 2,
        reference_values=table.values[:, ref],
        reference_ranks=doubled[ref] / 2,
        raw_srd=units.sum(axis=1, dtype=np.int64) / 2,
    )


def tie_probability(column) -> float | np.ndarray:
    """Fraction of adjacent positions in sorted order occupied by equal values.

    An n-long vector has n-1 adjacent positions, so the result is the
    number of tied neighbor pairs divided by n-1.  A 2-D input gives an
    array with one value per column, from one sort of the matrix.
    """
    arr = np.asarray(column, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] < 2 or arr.size == 0:
        raise SrdError("tie probability needs at least two values")
    if not np.all(np.isfinite(arr)):
        raise SrdError("tie probability requires finite values")
    probs = TieGroups(arr.reshape(arr.shape[0], -1)).tie_probabilities()
    return probs if arr.ndim == 2 else float(probs[0])
