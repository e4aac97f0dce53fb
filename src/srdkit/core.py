"""Rank transformation and sum-of-ranking-differences (SRD) scoring.

The input is a table whose columns are the solutions to compare and whose
rows are the ranked objects.  One column acts as the reference.  Every
column is converted to fractional ranks (ties share the mean of the integer
ranks they occupy) and each solution is scored by the L1 distance between
its rank column and the reference rank column, optionally normalized by the
largest distance two rankings of that size can have.

Every score takes one path: one sort of each range of solution columns, with
the reference, into intp tie-group labels, then int64 sums of doubled ranks
per row set.  Whole-table scores are the set of all rows; each fold is
another.  The sort is of packed keys, argsorted only where two distinct
values share a key, and a fold that keeps more rows than it drops is counted
from the rows it drops.  Pairwise distances sort all columns the same way.
Large tables split their columns over one worker thread per usable CPU;
integer sums make every output the same for any number of workers.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

# Cells of a table per rank-kernel worker, at least: two threads scoring a
# table of 2**16 cells or fewer ran no faster than one.
_CELLS_PER_WORKER = 1 << 16


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


def _worker_count(parts: int) -> int:
    """The library's one worker rule: a thread per usable CPU, at most ``parts``, at least 1.

    Usable CPUs are the affinity set where the OS keeps one, else
    ``os.cpu_count()``; ``taskset`` is the control, and there is no setting.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, parts))


def _in_workers(count: int, steps) -> None:
    """Run ``step(w)`` for w in range(count) for each step of ``steps``, in turn.

    ``steps`` is read lazily, each step once every worker is done with the
    last, so a generator can prepare each step and use its results on the
    calling thread.  The calling thread is worker 0, so one worker starts no
    thread; this is the library's only thread pool.
    """
    if count == 1:
        for step in steps:
            step(0)
        return
    with ThreadPoolExecutor(max_workers=count - 1) as pool:
        for step in steps:
            jobs = [pool.submit(step, w) for w in range(1, count)]
            step(0)
            for job in jobs:
                job.result()


class _ArrayFields:
    """Equality for frozen dataclasses that hold arrays: equal when every field is.

    Arrays compare by shape and value with ``np.array_equal``, other fields
    with ``==``.  Such objects are unhashable, as their arrays are.
    ``__post_init__`` marks every array field read-only; a class that checks
    or converts its fields calls it last.
    """

    __hash__ = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if isinstance(value := getattr(self, f.name), np.ndarray):
                value.flags.writeable = False

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in ((getattr(self, f.name), getattr(other, f.name))
                                for f in fields(self)))


def _check_labels(labels: tuple[str, ...], what: str) -> None:
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise SrdError(f"duplicate {what} labels: {', '.join(dupes)}")


@dataclass(frozen=True, eq=False)
class DataTable(_ArrayFields):
    """Named real-valued matrix; rows are objects, columns are solutions.

    ``reference`` designates the reference column by label.  ``None`` means
    no column has been designated explicitly; operations that need one fall
    back to the last column, which is the conventional position for the
    reference.

    ``values`` is stored as a read-only float64 array.  A float64 input is
    adopted, not copied: once the table is built, the caller's array is
    read-only too, but a writable view taken from it earlier can still
    change the table.

    Two tables are equal when their values, labels and reference are; tables
    are unhashable.
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
        super().__post_init__()

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


@dataclass(frozen=True, eq=False)
class RankMatrix(_ArrayFields):
    """Column-wise fractional ranks of the solution columns of a table.

    ``ranks`` is read-only.  Equal when ranks and labels are; unhashable.
    """

    ranks: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SrdResult(_ArrayFields):
    """Per-solution SRD scores against the reference column.

    ``raw_srd[j]`` is the L1 distance of solution j's rank column from the
    reference rank column; ``normalized_srd[j]`` divides it by
    ``max_srd(n_objects)``.  ``scores`` holds whichever of the two the
    caller asked for and is what reports display.  The arrays are
    read-only.  Equal when every field is; unhashable.
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


@dataclass(frozen=True, eq=False)
class SrdDetail(_ArrayFields):
    """Step-by-step SRD computation: values, ranks, and per-row distances.

    ``distances[i, j]`` is ``|rank(solution j)[i] - rank(reference)[i]|``;
    summing a column gives that solution's raw SRD, stored in ``raw_srd``.
    Every array is read-only.  ``reference_values`` is a view of the table's
    values, and so is ``solution_values`` when the solution columns are
    contiguous, as they are when the reference is the first or the last
    column; a reference in the middle gives a copy.  Equal when every field
    is; unhashable.
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


@dataclass(frozen=True, eq=False)
class PairwiseMatrix(_ArrayFields):
    """Symmetric normalized SRD distances between all columns of a table.

    Equal when labels and distances are; unhashable.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise SrdError("pairwise distance matrix must be square")
        if len(self.labels) != values.shape[0]:
            raise SrdError("one label per matrix row is required")
        super().__post_init__()


class TieGroups:
    """One sort of a matrix's columns, giving the ranks of any row subset.

    ``columns`` (a slice or a list of indices, all columns by default)
    selects the columns sorted, in that order; a rank-kernel worker sorts
    its own range of solution columns, with the reference last.  Each cell
    is labelled with its column's tie group.  Labels run across the selected
    columns, column after column and ascending by value within a column, so
    one ``bincount`` over a set of rows counts the selected members of every
    group of every column at once.  The sort is of packed keys: each value's
    float64 bits, the lowest bit_length(n - 1) of them replaced by its row
    index.  Equal values stay together (-0.0 beside 0.0); distinct ones that
    differ only in those bits may not, so if any sorted column ever
    decreases, argsort sorts instead.

    ``labels`` is (m, n) intp for m selected columns of n rows: one contiguous
    row per column, gathered for a set of rows in one ``take``, and used by
    ``bincount`` and ``take`` with no conversion.  ``firsts`` holds each
    column's first label, so a column's groups run up to the next one's.  The
    k doubled ranks of a column are intp too, at most 2k, and sum to k(k + 1).
    Sums of rank differences need int64: one column's doubled raw SRD passes
    2^31 from 46,341 rows.
    """

    def __init__(self, values: np.ndarray, columns=slice(None)) -> None:
        cols = np.ascontiguousarray(values.T[columns], dtype=float)
        m, n = cols.shape
        starts = np.empty(m * n, dtype=bool)
        index_bits = (1 << (n - 1).bit_length()) - 1  # low key bits, for the row index
        order = cols.view(np.int64) & ~index_bits
        order |= np.arange(n)
        order.view(np.float64).sort(axis=1)
        order &= index_bits
        order += n * np.arange(m)[:, None]
        flat = order.ravel()
        ordered = cols.take(flat)
        np.less(ordered[1:], ordered[:-1], out=starts[1:])
        starts[::n] = False
        if starts.any():  # distinct values shared their kept bits
            order = np.argsort(cols, axis=1)  # tied values need no stable order
            order += n * np.arange(m)[:, None]
            flat = order.ravel()
            ordered = cols.take(flat)
        del cols  # workers sort at once, so free each temporary once it is used
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        del ordered
        starts[::n] = True  # each column's smallest value opens a group
        labels = np.cumsum(starts, dtype=np.intp)
        del starts
        labels -= 1
        groups = np.empty_like(labels)
        groups[flat] = labels
        del order, flat  # so that the group sizes add nothing to the build's peak
        self._sizes = np.bincount(labels)  # each group's size
        self.labels = groups.reshape(m, n)
        self.count = int(labels[-1]) + 1
        self.firsts = labels[::n].copy()

    def doubled_ranks(self, rows=None) -> np.ndarray:
        """Twice the (m, k) average ranks of k given rows, ranked among themselves.

        A tie group preceded by e selected rows of its column and holding c
        selected rows covers ranks e + 1 .. e + c, so its doubled average
        rank is the integer 2e + c + 1.  All rows are ranked when ``rows``
        is None.  Row j of the result is column j of the matrix.
        """
        sub = self.labels if rows is None else self.labels.take(rows, axis=1)
        counts = self._sizes if rows is None else np.bincount(sub.ravel(), minlength=self.count)
        return self._by_group(counts, sub.shape[1]).take(sub)

    def _ranks_without(self, dropped: np.ndarray) -> np.ndarray:
        """``doubled_ranks`` of the rows not ``dropped``, counted from the dropped
        ones, at full (m, n) length; a dropped row holds no rank of its own."""
        counts = np.bincount(self.labels.take(dropped, axis=1).ravel(), minlength=self.count)
        np.subtract(self._sizes, counts, out=counts)
        return self._by_group(counts, self.labels.shape[1] - dropped.size).take(self.labels)

    def _by_group(self, counts: np.ndarray, k: int) -> np.ndarray:
        """Each group's doubled rank, from its ``counts`` among k selected rows."""
        doubled = 2 * counts
        doubled[self.firsts[1:]] -= 2 * k  # restart each column's sum
        np.cumsum(doubled, out=doubled)
        doubled -= counts
        doubled += 1
        return doubled


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


def _column_ranges(table: DataTable, columns: int) -> list[slice]:
    """``columns`` split into one contiguous range per rank-kernel worker.

    ``_worker_count`` gives the workers, no more than ``columns`` and no more
    than one per ``_CELLS_PER_WORKER`` cells of the table.
    """
    workers = _worker_count(min(columns, table.values.size // _CELLS_PER_WORKER))
    bounds = [columns * w // workers for w in range(workers + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _srd_units(table: DataTable, folds=(None,)) -> tuple[np.ndarray, list[int]]:
    """Doubled raw SRD per row set and solution, and the solutions' column indices.

    Each of ``folds`` is an intp array of rows, ranked among themselves, or
    None for all rows.  Doubling makes every rank, so every sum, an integer:
    two columns of k doubled ranks each sum to k(k + 1), so their L1 distance
    is 2k(k + 1) - 2 sum(min(a, b)).  Each worker sorts its range of solutions
    with the reference and lists the rows dropped by its share of the folds
    that keep more rows than they drop; then it scores its range on every
    fold, counting such a fold from the rows it drops and any other from the
    rows it keeps.
    """
    ref, sol = _reference_split(table)
    n = table.n_rows
    units = np.empty((len(folds), len(sol)), dtype=np.int64)
    parts = _column_ranges(table, len(sol))
    groups = [None] * len(parts)
    dropped = [None] * len(folds)  # the rows left out by a fold that keeps most rows

    def build(w: int) -> None:
        groups[w] = TieGroups(table.values, sol[parts[w]] + [ref])
        for i in range(w, len(folds), len(parts)):
            if folds[i] is not None and 2 * folds[i].size > n:
                kept = np.ones(n, dtype=bool)
                kept[folds[i]] = False
                dropped[i] = np.flatnonzero(kept)

    def score(w: int) -> None:
        for i, rows in enumerate(folds):
            if dropped[i] is None:
                ranks = groups[w].doubled_ranks(rows)
            else:  # a dropped row's reference rank of 0 makes its minima 0
                ranks = groups[w]._ranks_without(dropped[i])
                ranks[-1, dropped[i]] = 0
            low = np.minimum(ranks[:-1], ranks[-1], out=ranks[:-1])
            k = n if rows is None else rows.size
            units[i, parts[w]] = 2 * k * (k + 1) - 2 * low.sum(axis=1, dtype=np.int64)

    _in_workers(len(parts), [build, score])
    return units, sol


def rank_matrix(table: DataTable) -> RankMatrix:
    """Fractional ranks of every solution column.

    An explicitly designated reference column is left out of the output so
    the matrix can feed ranking tools that expect solutions only; with no
    designation every column is ranked.
    """
    cols = [j for j, c in enumerate(table.col_labels) if c != table.reference]
    if not cols:
        raise SrdError("the rank matrix needs a column besides the reference")
    ranks = TieGroups(table.values, cols).doubled_ranks() / 2
    return RankMatrix(ranks.T, table.row_labels, tuple(table.col_labels[j] for j in cols))


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
    ranks = np.empty((len(sol) + 1, table.n_rows))  # the reference's last
    distances = np.empty((len(sol), table.n_rows))
    raw = np.empty(len(sol))
    parts = _column_ranges(table, len(sol))

    def detail(w: int) -> None:
        part = parts[w]
        doubled = TieGroups(table.values, sol[part] + [ref]).doubled_ranks()
        np.divide(doubled[:-1], 2, out=ranks[part])
        if w == 0:
            np.divide(doubled[-1], 2, out=ranks[-1])
        units = doubled[:-1]
        units -= doubled[-1]
        np.divide(np.abs(units, out=units), 2, out=distances[part])
        np.divide(units.sum(axis=1, dtype=np.int64), 2, out=raw[part])

    _in_workers(len(parts), [detail])
    lo, hi = sol[0], sol[-1] + 1  # one range, so a view, when the reference is first or last
    values = table.values[:, lo:hi] if hi - lo == len(sol) else table.values[:, sol]
    return SrdDetail(
        row_labels=table.row_labels,
        solution_labels=tuple(table.col_labels[j] for j in sol),
        reference_label=table.reference_label,
        solution_values=values,
        solution_ranks=ranks[:-1].T,
        distances=distances.T,
        reference_values=table.values[:, ref],
        reference_ranks=ranks[-1],
        raw_srd=raw,
    )


def pairwise_srd(table: DataTable) -> PairwiseMatrix:
    """Normalized SRD between every pair of columns.

    Column j serves as the reference for entry (i, j); any designated
    reference column participates like an ordinary column.  The result is
    symmetric with a zero diagonal.  Each rank-kernel worker sorts one range
    of columns into a shared matrix of doubled ranks, then takes every
    workers-th row of the triangle; integer sums make the result the same for
    any number of workers.
    """
    if table.n_cols < 2:
        raise SrdError("pairwise distances need at least two columns")
    # TieGroups' doubled ranks are integers up to 2n, one contiguous row per
    # column, each summing to n(n + 1); a distance is 2n(n + 1) - 2 sum(min).
    # The narrowest dtype keeps the m^2 / 2 column minima cheap: for n < 16384,
    # int16 holds 2n and int32 every sum, as 2n(n + 1) < 2^31.
    narrow = 2 * table.n_rows < 2**15
    m, n = table.n_cols, table.n_rows
    doubled = np.empty((m, n), dtype=np.int16 if narrow else np.int32)
    total = np.int32 if narrow else np.int64
    f2, rank_sums = 2 * max_srd(n), 2 * n * (n + 1)
    values = np.zeros((m, m))
    parts = _column_ranges(table, m)
    workers = len(parts)

    def rank(w: int) -> None:
        doubled[parts[w]] = TieGroups(table.values, parts[w]).doubled_ranks()

    def distances(w: int) -> None:
        # n = 1 gives f2 = 0, but then every distance is 0 as well.  Integer
        # sums make both triangles, filled from one row, exactly equal.
        lows = np.empty((m - 1, n), dtype=doubled.dtype)
        for i in range(w, m - 1 if f2 else 0, workers):
            low = np.minimum(doubled[i + 1:], doubled[i], out=lows[:m - 1 - i])
            d = (rank_sums - 2 * low.sum(axis=1, dtype=total)) / f2
            values[i, i + 1:] = d
            values[i + 1:, i] = d

    _in_workers(workers, (rank, distances))
    return PairwiseMatrix(table.col_labels, values)


def _tie_shares(values: np.ndarray) -> np.ndarray:
    """Per column of a finite (n, m) matrix, n >= 2, its tied sorted neighbours over n - 1."""
    ordered = np.sort(values, axis=0)
    return (ordered[1:] == ordered[:-1]).sum(axis=0) / (values.shape[0] - 1)


def tie_probability(column) -> float | np.ndarray:
    """Fraction of adjacent positions in sorted order occupied by equal values.

    An n-long vector has n-1 adjacent positions, so the result is the
    number of tied neighbor pairs divided by n-1.  A 2-D input gives an
    array with one value per column, from one sort of the matrix.  Equal
    means equal as numbers, so -0.0 ties with 0.0.
    """
    arr = np.asarray(column, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] < 2 or arr.size == 0:
        raise SrdError("tie probability needs at least two values")
    if not np.all(np.isfinite(arr)):
        raise SrdError("tie probability requires finite values")
    probs = _tie_shares(arr.reshape(arr.shape[0], -1))
    return probs if arr.ndim == 2 else float(probs[0])
