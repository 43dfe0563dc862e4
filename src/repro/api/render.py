"""ASCII rendering of experiment output.

Experiments print the same rows/series the paper reports: tables render
as aligned ASCII, time series as compact sparkline-style plots.  All
renderers return strings so benches and tests can assert on them.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Union

from repro.analysis.timeseries import Series

Cell = Union[str, int, float, None]


def format_cell(value: Cell, *, precision: int = 3) -> str:
    """Human-friendly formatting for one table cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value != 0 and (abs(value) >= 10000 or abs(value) < 0.001):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned ASCII table."""
    formatted = [
        [format_cell(cell, precision=precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_dict_rows(
    rows: Sequence[Mapping[str, Cell]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render a list of dict rows, inferring columns when not given."""
    if not rows:
        return (title + "\n(empty)") if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    table_rows = [[row.get(column) for column in columns] for row in rows]
    return render_table(columns, table_rows, title=title, precision=precision)


_SPARK_CHARS = " .:-=+*#%@"


def render_series(
    series: Series,
    *,
    width: Optional[int] = None,
    show_range: bool = True,
) -> str:
    """Render a series as a one-line density sparkline.

    NaN bins render as ``_``.  Values are min-max normalised across the
    finite bins.
    """
    values = list(series.values)
    if width is not None and width > 0 and len(values) > width:
        # Downsample by averaging consecutive chunks.
        chunk = len(values) / width
        resampled: List[float] = []
        for i in range(width):
            lo = int(i * chunk)
            hi = max(lo + 1, int((i + 1) * chunk))
            window = [v for v in values[lo:hi] if not math.isnan(v)]
            resampled.append(sum(window) / len(window) if window else math.nan)
        values = resampled
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        body = "_" * len(values)
        low = high = math.nan
    else:
        low, high = min(finite), max(finite)
        span = high - low
        chars: List[str] = []
        for v in values:
            if math.isnan(v):
                chars.append("_")
            elif span == 0:
                chars.append(_SPARK_CHARS[len(_SPARK_CHARS) // 2])
            else:
                index = int((v - low) / span * (len(_SPARK_CHARS) - 1))
                chars.append(_SPARK_CHARS[index])
        body = "".join(chars)
    label = series.label or "series"
    if show_range and finite:
        return f"{label:>24} |{body}| [{format_cell(low)}, {format_cell(high)}]"
    return f"{label:>24} |{body}|"


def render_series_block(
    series_list: Sequence[Series],
    *,
    title: Optional[str] = None,
    width: int = 72,
) -> str:
    """Render several aligned series under a shared title."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for series in series_list:
        lines.append(render_series(series, width=width))
    return "\n".join(lines)
