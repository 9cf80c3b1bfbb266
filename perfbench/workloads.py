"""Seeded input generators for the three benchmark workloads.

Every workload is a correlated lognormal panel written as CSV.  Money
columns are in millions of euros and head-count columns in persons; see
README.md for why the money unit is not plain euros.  Generation uses only
numpy, and each generator also returns the clean values it wrote (parsed
back from the CSV text), so the references never read the CSV through the
program under test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

REPORT_ROWS = 200_000
REPORT_GROUPS = 40
REPORT_DIRTY_FRACTION = 0.01
EXACT_ROWS = 5_000
PAIRS_ROWS = 200_000
PAIRS_DIRTY_FRACTION = 0.005
PAIRS_PER_OP = 1_500_000

# log-scale location and spread of each column kind (money in MEUR,
# head-counts in persons)
_KINDS = {
    "marketcap": (5.5, 1.8, "money"),
    "revenues": (5.0, 1.6, "money"),
    "assets": (6.0, 1.7, "money"),
    "equity": (4.8, 1.9, "money"),
    "ebitda": (3.0, 1.7, "money"),
    "employees": (6.2, 1.5, "count"),
    "offices": (1.5, 0.9, "count"),
    "patents": (2.5, 1.4, "count"),
}


@dataclass
class Workload:
    """One generated input file plus what the references need to know about it."""

    name: str
    csv_path: str
    columns: list
    clean: np.ndarray                 # rows the program must keep, in file order
    groups: np.ndarray | None = None  # group label per clean row (report-panel)
    dirty_rows: int = 0


def _factor_correlation(d: int, loading: float) -> np.ndarray:
    """A fixed, well-conditioned correlation matrix with one common factor."""
    load = np.full(d, loading) - 0.05 * np.arange(d)
    corr = np.outer(load, load)
    np.fill_diagonal(corr, 1.0)
    return corr


def _lognormal(rng, n: int, columns: list, corr: np.ndarray, shift=None) -> np.ndarray:
    mu = np.array([_KINDS[c][0] for c in columns])
    sigma = np.array([_KINDS[c][1] for c in columns])
    if shift is not None:
        mu = mu + shift
    z = rng.standard_normal((n, len(columns))) @ np.linalg.cholesky(corr).T
    return np.exp(mu + sigma * z)


def _format_columns(values: np.ndarray, columns: list) -> list:
    """Per-column lists of cell strings; counts are whole persons (at least 1)."""
    cells = []
    for j, column in enumerate(columns):
        if _KINDS.get(column, (0, 0, "money"))[2] == "count":
            ints = np.maximum(np.rint(values[:, j]), 1).astype(np.int64)
            cells.append([str(v) for v in ints.tolist()])
        else:
            cells.append([f"{v:.6g}" for v in values[:, j].tolist()])
    return cells


def _inject_dirty(rng, cells: list, fraction: float, kinds: tuple) -> np.ndarray:
    """Spoil one metric cell in a random subset of rows; return the spoiled row mask.

    Kinds are split as equally as the count allows: "blank" empties the
    cell, "text" writes a non-numeric token, "negative" negates the value.
    """
    n = len(cells[0])
    count = int(round(fraction * n))
    rows = rng.choice(n, size=count, replace=False)
    columns = rng.integers(0, len(cells), size=count)
    for k, (row, column) in enumerate(zip(rows.tolist(), columns.tolist())):
        kind = kinds[k % len(kinds)]
        if kind == "blank":
            cells[column][row] = ""
        elif kind == "text":
            cells[column][row] = "n/a"
        else:
            cells[column][row] = "-" + cells[column][row]
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def _write_csv(path: str, header: list, columns: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


def _parse(cells: list, keep: np.ndarray) -> np.ndarray:
    """The clean rows as floats, parsed from the exact text that was written."""
    return np.column_stack(
        [np.array([c for c, k in zip(col, keep.tolist()) if k], dtype=float) for col in cells]
    )


def make_report_panel(seed: int, workdir: str) -> Workload:
    """~200k firms in 40 Zipf-sized groups, d=3, about 1% dirty rows."""
    rng = np.random.default_rng([seed, 1])
    columns = ["marketcap", "employees", "revenues"]
    corr = np.array([[1.0, 0.6, 0.7], [0.6, 1.0, 0.75], [0.7, 0.75, 1.0]])
    ranks = np.arange(1, REPORT_GROUPS + 1)
    sizes = np.floor(REPORT_ROWS / ranks / np.sum(1.0 / ranks)).astype(int)
    labels = np.repeat(np.arange(REPORT_GROUPS), sizes)
    shifts = rng.normal(0.0, 0.3, size=(REPORT_GROUPS, len(columns)))
    values = np.empty((labels.size, len(columns)))
    for g in range(REPORT_GROUPS):
        rows = labels == g
        values[rows] = _lognormal(rng, int(rows.sum()), columns, corr, shifts[g])
    order = rng.permutation(labels.size)
    labels, values = labels[order], values[order]
    n = labels.size
    cells = _format_columns(values, columns)
    dirty = _inject_dirty(rng, cells, REPORT_DIRTY_FRACTION, ("blank", "text", "negative"))
    group_names = np.array([f"region-{g:02d}" for g in range(REPORT_GROUPS)])
    path = os.path.join(workdir, f"report-panel-{seed}.csv")
    _write_csv(
        path,
        ["name", "group", *columns],
        [[f"firm{i:06d}" for i in range(n)], group_names[labels].tolist(), *cells],
    )
    return Workload(
        name="report-panel",
        csv_path=path,
        columns=columns,
        clean=_parse(cells, ~dirty),
        groups=group_names[labels][~dirty],
        dirty_rows=int(dirty.sum()),
    )


def make_gini_exact(seed: int, workdir: str) -> Workload:
    """~5k firms, d=8, no dirty rows: the exact double sum dominates."""
    rng = np.random.default_rng([seed, 2])
    columns = ["marketcap", "revenues", "assets", "equity", "ebitda",
               "employees", "offices", "patents"]
    values = _lognormal(rng, EXACT_ROWS, columns, _factor_correlation(len(columns), 0.75))
    cells = _format_columns(values, columns)
    path = os.path.join(workdir, f"gini-exact-{seed}.csv")
    _write_csv(path, ["name", *columns], [[f"firm{i:05d}" for i in range(EXACT_ROWS)], *cells])
    return Workload(
        name="gini-exact",
        csv_path=path,
        columns=columns,
        clean=_parse(cells, np.ones(EXACT_ROWS, dtype=bool)),
    )


def make_gini_pairs(seed: int, workdir: str) -> Workload:
    """~200k firms, d=3 with a signed net-income column, about 0.5% dirty rows.

    The gini reader keeps zero and negative values and drops only blank or
    non-numeric cells, so the dirty kinds here are those two and net income
    is negative for about a fifth of the firms.
    """
    rng = np.random.default_rng([seed, 3])
    columns = ["marketcap", "employees", "revenues"]
    corr = np.array([[1.0, 0.55, 0.7], [0.55, 1.0, 0.75], [0.7, 0.75, 1.0]])
    values = _lognormal(rng, PAIRS_ROWS, columns, corr)
    margin = rng.normal(0.06, 0.07, size=PAIRS_ROWS)
    values[:, 2] = values[:, 2] * margin
    columns = ["marketcap", "employees", "net_income"]
    cells = _format_columns(values, columns)
    dirty = _inject_dirty(rng, cells, PAIRS_DIRTY_FRACTION, ("blank", "text"))
    path = os.path.join(workdir, f"gini-pairs-{seed}.csv")
    _write_csv(path, ["name", *columns], [[f"firm{i:06d}" for i in range(PAIRS_ROWS)], *cells])
    return Workload(
        name="gini-pairs",
        csv_path=path,
        columns=columns,
        clean=_parse(cells, ~dirty),
        dirty_rows=int(dirty.sum()),
    )


MAKERS = {
    "report-panel": make_report_panel,
    "gini-exact": make_gini_exact,
    "gini-pairs": make_gini_pairs,
}
