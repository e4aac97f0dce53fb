"""Static SVG charts: permutation test, cross-validation boxes, heatmap.

Charts are emitted as standalone SVG text plus a companion delimited data
block holding the plotted numbers, so rendering can be tested without
pixel comparison.  Given identical inputs the documents are byte-stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .core import DataTable, SrdError, SrdResult, TieGroups, max_srd
from .crossval import BOX_ROWS, CATEGORY_NONE, CrossValReport
from .distribution import SrdDistribution
from .tableio import delimited, grid

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")

# Warm-to-cool ramp: distance 0 reads red, distance 1 reads blue.
DEFAULT_PALETTE_COLORS = (
    "#b2182b", "#d6604d", "#f4a582", "#fddbc7",
    "#d1e5f0", "#92c5de", "#4393c3", "#2166ac",
)

# Categorical colors for per-solution bars and legend swatches.
_SERIES_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class Palette:
    """Ordered bucket colors dividing [0, 1] into len(colors) categories."""

    colors: tuple[str, ...]

    def __post_init__(self) -> None:
        colors = tuple(self.colors)
        object.__setattr__(self, "colors", colors)
        if len(colors) < 2:
            raise SrdError("a palette needs at least 2 colors")
        bad = [c for c in colors if not _HEX_COLOR.match(c)]
        if bad:
            raise SrdError(f"not #RRGGBB color codes: {', '.join(bad)}")

    def bucket(self, value: float) -> int:
        return min(int(value * len(self.colors)), len(self.colors) - 1)


DEFAULT_PALETTE = Palette(DEFAULT_PALETTE_COLORS)


@dataclass(frozen=True)
class PairwiseMatrix:
    """Symmetric normalized SRD distances between all columns of a table."""

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
        values.flags.writeable = False


@dataclass(frozen=True)
class ChartDocument:
    """An SVG document plus the plotted numbers as delimited text."""

    svg: str
    data: str


def pairwise_srd(table: DataTable) -> PairwiseMatrix:
    """Normalized SRD between every pair of columns.

    Column j serves as the reference for entry (i, j); any designated
    reference column participates like an ordinary column.  The result is
    symmetric with a zero diagonal.
    """
    if table.n_cols < 2:
        raise SrdError("pairwise distances need at least two columns")
    # TieGroups' doubled ranks are integers up to 2n, one contiguous row per
    # column; the narrowest dtype keeps the m^2 / 2 column differences exact
    # and cheap.  Below 2n = 2^15, int16 holds them and int32 their n-term sums.
    narrow = 2 * table.n_rows < 2**15
    doubled = TieGroups(table.values).doubled_ranks().astype(np.int16 if narrow else np.int32)
    total = np.int32 if narrow else np.int64
    f2 = 2 * max_srd(table.n_rows)
    m = table.n_cols
    values = np.zeros((m, m))
    # n = 1 gives f2 = 0, but then every distance is 0 as well.  Integer sums
    # make both triangles, filled from one row, exactly equal.
    for i in range(m - 1 if f2 else 0):
        d = np.abs(doubled[i + 1:] - doubled[i]).sum(axis=1, dtype=total) / f2
        values[i, i + 1:] = d
        values[i + 1:, i] = d
    return PairwiseMatrix(table.col_labels, values)


def _num(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _tag(name: str, text: str | None = None, **attrs) -> str:
    parts = [name]
    for key, value in attrs.items():
        parts.append(f'{key.replace("_", "-")}="{value}"')
    if text is None:
        return f'<{" ".join(parts)}/>'
    return f'<{" ".join(parts)}>{escape(text)}</{name}>'


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="sans-serif">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _axis(x0: float, y0: float, w: float, h: float, y_max: float = 1.0) -> list[str]:
    """Left and bottom axis lines with 0..1 ticks (x) and 0..y_max ticks (y)."""
    parts = [
        _tag("line", x1=_num(x0), y1=_num(y0 + h), x2=_num(x0 + w), y2=_num(y0 + h),
             stroke="#333333", stroke_width="1"),
        _tag("line", x1=_num(x0), y1=_num(y0), x2=_num(x0), y2=_num(y0 + h),
             stroke="#333333", stroke_width="1"),
    ]
    for i in range(6):
        frac = i / 5
        x = x0 + frac * w
        parts.append(_tag("line", x1=_num(x), y1=_num(y0 + h), x2=_num(x),
                          y2=_num(y0 + h + 4), stroke="#333333", stroke_width="1"))
        parts.append(_tag("text", f"{frac:.1f}", x=_num(x), y=_num(y0 + h + 16),
                          font_size="10", text_anchor="middle"))
        y = y0 + h - frac * h
        parts.append(_tag("line", x1=_num(x0 - 4), y1=_num(y), x2=_num(x0),
                          y2=_num(y), stroke="#333333", stroke_width="1"))
        parts.append(_tag("text", f"{frac * y_max:.1f}", x=_num(x0 - 7), y=_num(y + 3),
                          font_size="10", text_anchor="end"))
    return parts


def plot_perm_test(result: SrdResult, dist: SrdDistribution,
                   density_to_distr: bool = False) -> ChartDocument:
    """Solution bars against the null distribution with XX1/XX19 markers.

    Each solution is a bar standing at its normalized SRD whose height
    equals that same value, so distance from the origin is visible twice.
    The overlay is the distribution's density, or its cumulative curve when
    ``density_to_distr`` is set.
    """
    if len(result.col_labels) == 0:
        raise SrdError("no solutions to plot")
    if result.n_objects != dist.n_objects:
        raise SrdError(
            f"result has n={result.n_objects} objects "
            f"but the distribution was built for n={dist.n_objects}"
        )
    x0, y0, w, h = 55.0, 20.0, 400.0, 340.0
    width, height = 660, 420

    if density_to_distr:
        curve_y = np.cumsum(dist.frequency)
        curve_label = "cumulative"
    else:
        peak = float(dist.frequency.max())
        curve_y = dist.frequency / peak if peak else dist.frequency
        curve_label = "density"

    body = _axis(x0, y0, w, h)
    body.append(_tag("text", "normalized SRD", x=_num(x0 + w / 2),
                     y=_num(y0 + h + 34), font_size="11", text_anchor="middle"))

    points = " ".join(
        f"{_num(x0 + v * w)},{_num(y0 + h - c * h)}"
        for v, c in zip(dist.support, curve_y)
    )
    body.append(f'<polyline points="{points}" fill="none" '
                'stroke="#888888" stroke-width="1.2"/>')

    for name, value in (("XX1", dist.thresholds.xx1), ("XX19", dist.thresholds.xx19)):
        x = x0 + value * w
        body.append(_tag("line", x1=_num(x), y1=_num(y0), x2=_num(x), y2=_num(y0 + h),
                         stroke="#444444", stroke_width="1",
                         stroke_dasharray="5,4"))
        body.append(_tag("text", name, x=_num(x + 3), y=_num(y0 + 10),
                         font_size="10"))

    for i, (label, score) in enumerate(zip(result.col_labels, result.normalized_srd)):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        bar_h = score * h
        body.append(_tag("rect", x=_num(x0 + score * w - 3),
                         y=_num(y0 + h - bar_h), width="6", height=_num(bar_h),
                         fill=color, fill_opacity="0.85"))
        swatch_y = y0 + 8 + i * 18
        body.append(_tag("rect", x=_num(x0 + w + 18), y=_num(swatch_y),
                         width="12", height="12", fill=color))
        body.append(_tag("text", label, x=_num(x0 + w + 35), y=_num(swatch_y + 10),
                         font_size="10"))

    rows = [["section", "label", "value"]]
    rows += [["solution", label, f"{score:.7f}"]
             for label, score in zip(result.col_labels, result.normalized_srd.tolist())]
    rows += [["threshold", "xx1", f"{dist.thresholds.xx1:.7f}"],
             ["threshold", "xx19", f"{dist.thresholds.xx19:.7f}"]]
    rows += [[curve_label, f"{v:.6f}", f"{c:.6f}"]
             for v, c in zip(dist.support.tolist(), curve_y.tolist())]
    return ChartDocument(_svg_document(width, height, body), delimited(rows, ","))


def plot_crossval(report: CrossValReport) -> ChartDocument:
    """Box-whisker chart of fold scores in median order.

    Whiskers span min to max, the box the quartiles, the line marks the
    median and the diamond the mean.  Between neighboring boxes, ``<``
    flags a significant pairwise difference and ``~`` an indistinguishable
    one.
    """
    order = list(report.column_order)
    m = len(order)
    slot = 78.0
    x0, y0, h = 55.0, 26.0, 320.0
    w = slot * m
    width, height = int(x0 + w + 30), 430

    body = _axis(x0, y0, w, h)
    means = report.fold_srd.mean(axis=0)

    def ypix(v: float) -> float:
        return y0 + h - v * h

    for slot_i, j in enumerate(order):
        cx = x0 + slot * (slot_i + 0.5)
        mn, _xx1, q1, med, q3, _xx19, mx = report.box_summary[:, j]
        half = 22.0
        body.append(_tag("line", x1=_num(cx), y1=_num(ypix(mn)), x2=_num(cx),
                         y2=_num(ypix(mx)), stroke="#555555", stroke_width="1"))
        for v in (mn, mx):
            body.append(_tag("line", x1=_num(cx - half / 2), y1=_num(ypix(v)),
                             x2=_num(cx + half / 2), y2=_num(ypix(v)),
                             stroke="#555555", stroke_width="1"))
        body.append(_tag("rect", x=_num(cx - half), y=_num(ypix(q3)),
                         width=_num(2 * half), height=_num(ypix(q1) - ypix(q3)),
                         fill="#9ecae1", stroke="#3182bd", stroke_width="1"))
        body.append(_tag("line", x1=_num(cx - half), y1=_num(ypix(med)),
                         x2=_num(cx + half), y2=_num(ypix(med)),
                         stroke="#08519c", stroke_width="1.5"))
        my = ypix(float(means[j]))
        body.append(f'<path d="M {_num(cx)} {_num(my - 4)} L {_num(cx + 4)} {_num(my)} '
                    f'L {_num(cx)} {_num(my + 4)} L {_num(cx - 4)} {_num(my)} Z" '
                    'fill="#08306b"/>')
        body.append(_tag("text", report.solution_labels[j], x=_num(cx),
                         y=_num(y0 + h + 30), font_size="9", text_anchor="middle",
                         transform=f"rotate(-25 {_num(cx)} {_num(y0 + h + 30)})"))

    for i, pair in enumerate(report.pair_results):
        symbol = "~" if pair.category == CATEGORY_NONE else "<"
        cx = x0 + slot * (i + 1)
        body.append(_tag("text", symbol, x=_num(cx), y=_num(y0 + 10),
                         font_size="13", text_anchor="middle"))

    boxes = grid([report.solution_labels[j] for j in order], BOX_ROWS + ("mean",),
                 np.vstack([report.box_summary, means])[:, order], "{:.4f}".format)
    categories = " ".join(f'"{p.category}"' for p in report.pair_results)
    data = delimited(boxes) + f"\nsignificance\n{categories}\n"
    return ChartDocument(_svg_document(width, height, body), data)


def plot_heatmap(matrix: PairwiseMatrix,
                 palette: Palette | None = None) -> ChartDocument:
    """Colored pairwise distance matrix.

    Cell color is the palette bucket of the distance, warm for similar and
    cool for opposite rankings under the built-in palette.
    """
    if palette is None:
        palette = DEFAULT_PALETTE
    values = matrix.values
    if not np.all((values >= 0) & (values <= 1)):
        raise SrdError("pairwise distances must be finite and lie in [0, 1]")
    if not np.array_equal(values, values.T):
        raise SrdError("pairwise distance matrix must be symmetric")
    if np.any(values.diagonal() != 0):
        raise SrdError("pairwise distance matrix must have a zero diagonal")
    m = len(matrix.labels)
    cell = 34.0
    gutter = 120.0
    width = int(gutter + m * cell + 20)
    height = int(gutter + m * cell + 60)

    body = []
    for i, label in enumerate(matrix.labels):
        y = gutter + cell * (i + 0.65)
        body.append(_tag("text", label, x=_num(gutter - 6), y=_num(y),
                         font_size="10", text_anchor="end"))
        x = gutter + cell * (i + 0.5)
        body.append(_tag("text", label, x=_num(x), y=_num(gutter - 8),
                         font_size="10", text_anchor="start",
                         transform=f"rotate(-60 {_num(x)} {_num(gutter - 8)})"))
    for i in range(m):
        for j in range(m):
            color = palette.colors[palette.bucket(float(values[i, j]))]
            x = gutter + j * cell
            y = gutter + i * cell
            body.append(
                f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(cell)}" '
                f'height="{_num(cell)}" fill="{color}" stroke="#ffffff" '
                f'stroke-width="1"><title>{escape(matrix.labels[i])} vs '
                f'{escape(matrix.labels[j])}: {values[i, j]:.4f}</title></rect>'
            )
    b = len(palette.colors)
    for idx, color in enumerate(palette.colors):
        x = gutter + idx * 40.0
        y = gutter + m * cell + 18
        body.append(_tag("rect", x=_num(x), y=_num(y), width="40", height="12",
                         fill=color))
        body.append(_tag("text", f"{idx / b:.2f}", x=_num(x), y=_num(y + 24),
                         font_size="9"))

    data = delimited(grid(matrix.labels, matrix.labels, values, "{:.7f}".format))
    return ChartDocument(_svg_document(width, height, body), data)
