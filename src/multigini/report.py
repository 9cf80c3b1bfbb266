"""CSV ingestion of multivariate panels and grouped inequality reports.

The input shape is one row per unit (e.g. one company) with a group label
and d positive metric columns.  A report carries, per group and for the
pooled "All" row, the per-metric one-dimensional Gini indices, the
multivariate index with its decomposition weights, plus pooled summary
statistics and the pooled correlation matrix.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import DataError, NumericalError
from .gini import GiniResult, _check_integers, _validate_p, gini_1_decomposed, gini_1d, gini_p
from .sample import MomentSummary, WeightedSample, moments

POOLED_LABEL = "All"

# _read_csv converts metric cells to floats in batches of this many cells
_CELL_BATCH = 1 << 15


@dataclass(frozen=True)
class PanelSet:
    """Per-group samples (uniform weights) plus the pooled sample."""

    groups: dict
    pooled: WeightedSample


@dataclass(frozen=True)
class GroupRow:
    """One group's per-metric Ginis and index; ``result`` is None when ``error`` says why."""

    group: str
    n: int
    metric_ginis: tuple | None = None
    result: GiniResult | None = None
    error: str | None = None


@dataclass(frozen=True)
class InequalityReport:
    """Grouped inequality rows with the pooled sample's moments."""

    p: float
    metrics: tuple
    pooled: MomentSummary
    rows: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PanelTable:
    """Columnar panel: an (n, d) float matrix and one group label per row, or None."""

    values: np.ndarray
    groups: np.ndarray | None

    def __len__(self) -> int:
        return len(self.values)


def _read_csv(path, metric_columns, positive, group_column=None, name_column=None):
    """The one CSV reader: metric cells as a float matrix, plus group labels.

    The name column, when given, is required but not read.  As with
    ``csv.DictReader``, a repeated header name means its last occurrence and
    blank lines are skipped.  Every other row becomes a matrix row, nan where
    a metric cell is missing or rejected by ``float``.  It is dropped and
    counted exactly when ``keep`` is False there: a cell is non-finite, or
    with ``positive`` not positive.  A byte that is not UTF-8, or a record
    the csv module rejects, anywhere in the file is a DataError.
    Metric cells are collected as text and converted by ``float`` in batches
    of ``_CELL_BATCH`` cells into a typed buffer of 8 bytes per value.
    Returns ``(matrix, labels, dropped)``; labels is None without a group column.
    """
    metric_columns = list(metric_columns)
    if not metric_columns:
        raise DataError("no metric columns given")
    for j, column in enumerate(metric_columns):
        if column in metric_columns[:j]:
            raise DataError(f"metric column {column!r} listed twice")
    try:
        handle = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    d = len(metric_columns)
    values = array("d")
    with handle:
        try:
            reader = csv.reader(handle)
            index = {column: j for j, column in enumerate(next(reader, []))}
            for column in [name_column, group_column, *metric_columns]:
                if column is not None and column not in index:
                    raise DataError(f"missing column {column!r} in {path}")
            metric_index = [index[column] for column in metric_columns]
            cells_of = itemgetter(*metric_index)
            if d == 1:
                # one index returns a str, whose characters += would add
                cells_of = lambda row, cell=cells_of: (cell(row),)
            group_index = index.get(group_column)
            cells, labels, missing, seen = [], [], ("",) * d, {}
            for row in reader:
                try:
                    cells += cells_of(row)
                except IndexError:
                    if not row:
                        continue  # a blank line is skipped, not counted
                    cells += missing
                if group_index is not None:
                    label = row[group_index].strip() if group_index < len(row) else ""
                    labels.append(seen.setdefault(label, label))  # one str per distinct label
                if len(cells) >= _CELL_BATCH:
                    _convert_cells(cells, values)
                    cells.clear()
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    _convert_cells(cells, values)
    matrix = np.frombuffer(values).reshape(-1, d)
    keep = np.isfinite(matrix).all(axis=1)
    if positive:
        keep &= (matrix > 0.0).all(axis=1)
    dropped = int(keep.size - np.count_nonzero(keep))
    if not keep.any():
        raise DataError(f"no usable rows in {path} ({dropped} dropped)")
    labels = None if group_index is None else np.array(labels, dtype=object)[keep]
    return matrix[keep], labels, dropped


def _convert_cells(cells, values: array) -> None:
    """Append ``float`` of each cell to ``values``; a rejected cell appends nan.

    On the ValueError, CPython's ``array.extend`` keeps the items it appended
    before it, so the conversion resumes on the same iterator after the cell.
    """
    converted = map(float, cells)
    while True:
        try:
            values.extend(converted)
            return
        except ValueError:
            values.append(math.nan)


def load_csv(path, metric_columns, group_column="group", name_column=None):
    """Parse the panel CSV into a :class:`PanelTable`; returns ``(table, dropped_count)``.

    Rows with a non-positive metric are dropped too: the inequality indices
    require positive data, and non-positive sizes are data errors in this domain.
    A ``name_column``, when given, must be present but is not read.
    """
    matrix, labels, dropped = _read_csv(
        path, metric_columns, positive=True, group_column=group_column, name_column=name_column
    )
    return PanelTable(matrix, labels), dropped


def load_metric_columns(path, metric_columns):
    """Parse only the metric columns of a CSV; returns ``(matrix, dropped_count)``.

    Unlike :func:`load_csv`, zeros and negative values are kept: the indices
    are defined for any finite data with nonzero means, and exact fixtures
    legitimately place mass at zero.  No group or name column is required.
    """
    matrix, _, dropped = _read_csv(path, metric_columns, positive=False)
    return matrix, dropped


def panelize(table: PanelTable, min_group_size: int = 2) -> PanelSet:
    """Group a table into per-group samples plus the pooled sample.

    Groups are keyed by label in sorted order, each keeping its rows in
    table order.  Groups smaller than ``min_group_size`` are excluded from
    the per-group map but still contribute to the pooled sample.
    """
    _check_integers(min_group_size=min_group_size)
    if min_group_size < 2:
        raise DataError(f"min_group_size must be >= 2, got {min_group_size}")
    if table.groups is None:
        raise DataError("the table has no group labels; load it with a group column")
    if len(table.groups) != len(table):
        raise DataError(f"expected {len(table)} group labels, got {len(table.groups)}")
    # a dict codes labels as Python strings: np.unique on a fixed-width string
    # array drops trailing NULs, and on an object array it is slower
    keys = sorted(set(table.groups))
    code = {key: i for i, key in enumerate(keys)}
    inverse = np.fromiter(map(code.__getitem__, table.groups), dtype=np.intp, count=len(table))
    counts = np.bincount(inverse, minlength=len(keys))
    rows = np.split(table.values[np.argsort(inverse, kind="stable")], np.cumsum(counts)[:-1])
    groups = {
        key: WeightedSample(points)
        for key, points, count in zip(keys, rows, counts)
        if count >= min_group_size
    }
    return PanelSet(groups=groups, pooled=WeightedSample(table.values))


def _row_for_sample(label: str, sample: WeightedSample, p: float) -> GroupRow:
    # one degenerate group must not kill the whole report: each part that
    # fails turns into an error note, the rest is kept
    metric_ginis = None
    result = None
    notes = []
    try:
        metric_ginis = tuple(
            float(gini_1d(sample.points[:, j], sample.weights)) for j in range(sample.dim)
        )
    except NumericalError as exc:
        notes.append(str(exc))
    # above the exact cap (p != 1) a DataError is raised, which is one row's note too
    try:
        result = gini_1_decomposed(sample) if p == 1.0 else gini_p(sample, p)
    except (NumericalError, DataError) as exc:
        notes.append(str(exc))
    return GroupRow(label, sample.n, metric_ginis, result, "; ".join(notes) or None)


def build_report(panels: PanelSet, p: float = 1.0, metric_names=None) -> InequalityReport:
    """Per-group inequality rows plus the pooled sample's moments.

    Rows are ordered by group name with the pooled row last.  Groups whose
    covariance is singular get an error note instead of aborting; an
    invalid p is a :class:`DataError` before any row.  At p != 1 each row's
    exact double sum runs on :func:`gini_p`'s default threads, every CPU this
    process may run on, which never changes a value.  The pooled moments
    come from the pooled row's fit, and are computed here only when that
    row has no index.
    """
    p = _validate_p(p)
    if panels.pooled is None:
        raise DataError("empty panel set")
    dim = panels.pooled.dim
    if metric_names is None:
        metric_names = [f"metric{j}" for j in range(dim)]
    metric_names = tuple(str(name) for name in metric_names)
    if len(metric_names) != dim:
        raise DataError(f"expected {dim} metric names, got {len(metric_names)}")
    for j, name in enumerate(metric_names):
        if name in metric_names[:j]:
            raise DataError(f"metric name {name!r} listed twice")
    rows = [_row_for_sample(name, sample, p) for name, sample in sorted(panels.groups.items())]
    rows.append(_row_for_sample(POOLED_LABEL, panels.pooled, p))
    pooled = rows[-1].result
    pooled_moments = moments(panels.pooled) if pooled is None else pooled.transform.fitted_moments
    return InequalityReport(p=p, metrics=metric_names, pooled=pooled_moments, rows=tuple(rows))


def correlation_json(correlation) -> list:
    """Correlation rows as JSON lists; the nan of a zero-variance component becomes null."""
    return [[float(v) if math.isfinite(v) else None for v in row] for row in correlation]


def _mean_std(m: MomentSummary) -> list:
    """(mean, standard deviation) of each component of the moments m, as floats."""
    return [(float(mean), math.sqrt(variance)) for mean, variance in zip(m.mean, m.variances)]


def summary_json(names, m: MomentSummary) -> dict:
    """Each metric's mean and standard deviation in m, as a JSON object per name."""
    return {name: {"mean": mean, "std": std} for name, (mean, std) in zip(names, _mean_std(m))}


def summary_lines(names, m: MomentSummary, width: int) -> list[str]:
    """Header and one row per metric of the mean / std table of m, names padded to width."""
    lines = [f"{'metric':<{width}}  {'mean':>12}  {'std':>12}"]
    lines += [
        f"{name:<{width}}  {mean:>12.3e}  {std:>12.3e}" for name, (mean, std) in zip(names, _mean_std(m))
    ]
    return lines


def correlation_lines(names, correlation, width: int) -> list[str]:
    """Header and one row per metric of the correlation table, names padded to width."""
    lines = [f"{'':<{width}}  " + "  ".join(f"{name:>8}" for name in names)]
    for name, row in zip(names, correlation):
        cells = "  ".join(f"{v:>8.3f}" if math.isfinite(v) else f"{'nan':>8}" for v in row)
        lines.append(f"{name:<{width}}  {cells}")
    return lines


def report_to_dict(report: InequalityReport) -> dict:
    """JSON-friendly dict with a stable key order (documented in docs/report-schema.md).

    The max-norm order serializes as the string "inf".
    """
    return {
        "p": report.p if math.isfinite(report.p) else "inf",
        "metrics": list(report.metrics),
        "summary": summary_json(report.metrics, report.pooled),
        "correlation": correlation_json(report.pooled.correlation),
        "rows": [_row_json(row, report.metrics) for row in report.rows],
    }


def _row_json(row: GroupRow, metrics) -> dict:
    d = len(metrics)
    values, warned = _index_values(row, d)
    g1, weights = values[d], values[d + 1:]
    return {
        "group": row.group,
        "n": row.n,
        "gini": None if row.metric_ginis is None else dict(zip(metrics, row.metric_ginis)),
        "g1": g1,
        "weights": None if None in weights else dict(zip(metrics, weights)),
        "negativity_warning": warned,
        "error": row.error,
    }


def _index_values(row: GroupRow, d: int) -> tuple[list, bool]:
    """A row's index values in column order, None where missing, and its negativity flag.

    The columns are the d metric Ginis, g1 and the d weights; each value is a float.
    """
    ginis = row.metric_ginis or [None] * d
    result = row.result
    if result is None:
        return [*ginis, *[None] * (d + 1)], False
    weights = [None] * d if result.weights is None else result.weights.tolist()
    return [*ginis, result.value, *weights], result.negativity_warning


def _format_table(report: InequalityReport) -> str:
    metrics = report.metrics
    name_width = max(len("metric"), *(len(m) for m in metrics))
    lines = ["Summary statistics (pooled)"]
    lines += summary_lines(metrics, report.pooled, name_width)
    lines += ["", "Correlation matrix (pooled)"]
    lines += correlation_lines(metrics, report.pooled.correlation, name_width)
    lines += ["", "Inequality by group"]
    group_width = max(len("group"), *(len(r.group) for r in report.rows))
    d = len(metrics)
    names = [f"gini_{m}" for m in metrics] + ["g1"] + [f"w_{m}" for m in metrics]
    # a Gini column is at least 10 wide, the g1 and weight columns at least 8
    widths = [max(10, len(name)) for name in names[:d]] + [max(8, len(name)) for name in names[d:]]
    head = [f"{'group':<{group_width}}", f"{'n':>6}"]
    head += [f"{name:>{width}}" for name, width in zip(names, widths)]
    lines.append("  ".join(head + ["note"]))
    for row in report.rows:
        values, warned = _index_values(row, d)
        cells = [f"{row.group:<{group_width}}", f"{row.n:>6}"]
        cells += [
            f"{'-':>{width}}" if value is None else f"{value:>{width}.3f}"
            for value, width in zip(values, widths)
        ]
        cells.append(row.error or ("negativity" if warned else ""))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# cells that a CSV record must quote: a delimiter, a quote or a line break
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_record(cells) -> str:
    """One CSV line, quoting as ``csv.writer`` does, and also a cell with a bare "\\r".

    Only Python 3.13's writer quotes "\\r" when the line terminator is "\\n";
    unquoted, the cell splits its record when it is read back.
    """
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if _CSV_QUOTED.search(cell) else cell
        for cell in cells
    ) + "\n"


def _format_csv(report: InequalityReport) -> str:
    metrics = report.metrics
    names = [f"gini_{m}" for m in metrics] + ["g1"] + [f"weight_{m}" for m in metrics]
    lines = [_csv_record(["group", "n", *names, "negativity_warning", "error"])]
    for row in report.rows:
        values, warned = _index_values(row, len(metrics))
        cells = [row.group, str(row.n), *("" if value is None else repr(value) for value in values)]
        cells += ["true" if warned else "false", row.error or ""]
        lines.append(_csv_record(cells))
    return "".join(lines)


def serialize_report(report: InequalityReport, format: str = "table") -> str:
    """Render a report as a fixed-width table, CSV rows, or JSON.

    Table mode prints 3 decimals; csv and json carry full precision and are
    byte-deterministic for identical inputs.
    """
    if format == "table":
        return _format_table(report)
    if format == "csv":
        return _format_csv(report)
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"
    raise DataError(f"unknown report format {format!r}; choose table, csv or json")
