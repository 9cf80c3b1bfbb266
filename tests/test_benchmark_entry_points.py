"""The names the benchmark's traced run calls and rebinds still exist and work.

perfbench/tracing.py replays ``multigini report`` and ``multigini gini`` in
process and rebinds the module-level names listed in its ``_NESTED`` table.
A refactor that renames or reshapes one of them breaks ``--trace 1``; these
tests make that a test failure instead.  perfbench/ is only read here.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multigini

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    rng = np.random.default_rng(81)
    lines = ["name,group,marketcap,employees,revenues"]
    for i, group in enumerate(["north"] * 30 + ["south"] * 20 + ["tiny"]):
        cells = ",".join(f"{v:.6g}" for v in rng.lognormal(0.0, 0.8, 3))
        lines.append(f"firm{i},{group},{cells}")
    lines.append("firm99,north,,1,2")
    path = tmp_path_factory.mktemp("bench") / "panel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SimpleNamespace(name="report-panel", csv_path=str(path),
                           columns=["marketcap", "employees", "revenues"])


def test_every_rebound_name_exists(tracing):
    for module_name, attribute, _ in tracing._NESTED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), (module_name, attribute)


def test_report_call_sequence(panel_csv):
    table, dropped = multigini.report.load_csv(
        panel_csv.csv_path, panel_csv.columns, group_column="group", name_column="name")
    assert (len(table), dropped) == (51, 1)
    panels = multigini.report.panelize(table, min_group_size=2)
    report = multigini.report.build_report(panels, p=1.0, metric_names=panel_csv.columns)
    assert [row.group for row in report.rows] == ["north", "south", "All"]
    assert multigini.report.serialize_report(report, "json").startswith("{")


@pytest.mark.parametrize("workload", ["report-panel", "gini-exact"])
def test_traced_op_spans_every_rebound_name(tracing, panel_csv, workload):
    tracer = tracing.Tracer()
    tracer.begin_op()
    panel_csv = SimpleNamespace(**{**vars(panel_csv), "name": workload})
    with tracing.Instrumented(tracer):
        outputs, info = tracing.run_op(multigini, tracer.call, panel_csv, 0)
    assert outputs and info["whitened"]
    spans = {span.name for span in tracer.spans}
    expected = {"sample.moments", "whitening.fit"}
    if workload == "report-panel":
        expected |= {"report.load_csv", "report.panelize", "report.build_report",
                     "sample.weighted_sample", "gini.gini_1d", "gini.gini_1_decomposed"}
    else:
        expected |= {"report.load_metric_columns", "gini.exact_p1", "gini.exact_p2"}
    assert expected <= spans
    # the bindings are restored once the traced op ends
    assert multigini.report.moments is multigini.sample.moments
    assert multigini.gini.fit_whitening is multigini.whitening.fit_whitening
