"""Column standardization and reference-column synthesis.

All four scalers are strictly monotonic per column, so they never change
the rank transformation of a column; they matter when a reference is later
aggregated from the scaled values or when rows rather than columns are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DataTable, SrdError

PREPROCESS_METHODS = ("scale_to_unit", "standardize", "range_scale", "scale_to_max")
REFERENCE_KINDS = ("max", "min", "median", "mean")

REFERENCE_COLUMN = "refCol"


@dataclass(frozen=True)
class ReferenceSpec:
    """How to aggregate each row into a synthesized reference value.

    ``kind`` is one of max, min, median, mean, or mixed; ``per_row`` gives
    one of the first four per row and is required exactly when kind is
    mixed.
    """

    kind: str
    per_row: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in REFERENCE_KINDS + ("mixed",):
            raise SrdError(
                f"unknown reference method {self.kind!r}; "
                f"expected one of {', '.join(REFERENCE_KINDS + ('mixed',))}"
            )
        if self.kind == "mixed":
            if not self.per_row:
                raise SrdError("mixed reference needs a per-row method list, "
                               "e.g. mixed:max,min,mean,mean")
            object.__setattr__(self, "per_row", tuple(self.per_row))
            bad = sorted({m for m in self.per_row if m not in REFERENCE_KINDS})
            if bad:
                raise SrdError("unknown per-row reference method(s): "
                               + ", ".join(map(repr, bad)))
        elif self.per_row is not None:
            raise SrdError(f"per-row methods only apply to mixed, not to {self.kind!r}")


def _scale_to_unit(col: np.ndarray, label: str) -> np.ndarray:
    norm = float(np.sqrt(np.sum(col * col)))
    if norm == 0.0:
        raise SrdError(f"column {label!r} has zero norm; cannot scale to unit length")
    return col / norm

def _standardize(col: np.ndarray, label: str) -> np.ndarray:
    if col.size < 2 or np.all(col == col[0]):
        raise SrdError(f"column {label!r} is constant; cannot standardize")
    return (col - col.mean()) / col.std(ddof=1)

def _range_scale(col: np.ndarray, label: str) -> np.ndarray:
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        raise SrdError(f"column {label!r} is constant; cannot range-scale")
    return (col - lo) / (hi - lo)

def _scale_to_max(col: np.ndarray, label: str) -> np.ndarray:
    hi = float(col.max())
    if hi <= 0.0:
        raise SrdError(
            f"column {label!r} has non-positive maximum; cannot scale to max"
        )
    return col / hi

_SCALERS = {
    "scale_to_unit": _scale_to_unit,
    "standardize": _standardize,
    "range_scale": _range_scale,
    "scale_to_max": _scale_to_max,
}


def preprocess_table(table: DataTable, method: str) -> DataTable:
    """Apply one of the four column scalers to every column.

    scale_to_unit divides by the Euclidean norm, standardize centers and
    divides by the sample standard deviation (n-1 divisor), range_scale
    maps onto [0, 1], and scale_to_max divides by the column maximum.
    """
    try:
        scaler = _SCALERS[method]
    except KeyError:
        raise SrdError(
            f"unknown preprocessing method {method!r}; "
            f"expected one of {', '.join(PREPROCESS_METHODS)}"
        ) from None
    cols = [scaler(table.values[:, j], label) for j, label in enumerate(table.col_labels)]
    return replace(table, values=np.column_stack(cols))


_ROW_STATS = {
    "max": np.max,
    "min": np.min,
    "median": np.median,
    "mean": np.mean,
}


def create_reference(table: DataTable, spec: ReferenceSpec | str) -> DataTable:
    """Append a synthesized reference column named "refCol".

    Each row of the new column aggregates that row's solution values with
    the requested statistic (or the per-row statistic under mixed).  A
    string ``spec`` is ``KIND`` or ``mixed:m1,m2,...``, one method per row.
    The input table is not modified; the result designates "refCol" as its
    reference.
    """
    if isinstance(spec, str):
        kind, sep, methods = spec.partition(":")
        spec = ReferenceSpec(kind, tuple(methods.split(",")) if sep else None)
    elif not isinstance(spec, ReferenceSpec):
        raise SrdError(f"reference spec must be a string or ReferenceSpec, got {spec!r}")
    if REFERENCE_COLUMN in table.col_labels:
        raise SrdError(f"table already has a {REFERENCE_COLUMN!r} column")
    methods = spec.per_row or (spec.kind,) * table.n_rows
    if len(methods) != table.n_rows:
        raise SrdError(f"mixed reference lists {len(methods)} methods "
                       f"for {table.n_rows} rows")
    sol = [j for j, c in enumerate(table.col_labels) if c != table.reference]
    rows = table.values[:, sol]
    ref = np.array([_ROW_STATS[m](row) for m, row in zip(methods, rows)])
    values = np.column_stack([table.values, ref])
    return DataTable(
        values,
        table.row_labels,
        table.col_labels + (REFERENCE_COLUMN,),
        REFERENCE_COLUMN,
    )
