"""The argument rules of ``multigini.errors`` as each public caller applies them.

A list of names is never a string, never empty and never names one thing
twice; a choice is refused with every allowed value in the message.
"""

import re

import pytest

from multigini import (
    DataError,
    PanelSet,
    WeightedSample,
    build_report,
    fit_whitening,
    gini_p,
    load_csv,
    moments,
    serialize_report,
)
from multigini.report import REPORT_FORMATS, load_metric_columns
from multigini.synth import expand_to_rows, gen_spike_cube, write_sample_csv
from multigini.verify import run_checks


def spike_sample():
    return WeightedSample(expand_to_rows(gen_spike_cube(0.2, 3), 125))


def csv_path(tmp_path):
    path = tmp_path / "abc.csv"
    path.write_text("name,group,a,b,c\nu,g,1,2,3\nv,g,2,1,5\nw,g,4,3,2\n", encoding="utf-8")
    return path


# each caller of the name rule: the kind of name, the call, and a list that
# names one thing twice but is otherwise acceptable (three names for the
# 3-component sample and the columns a, b and c)
CALLERS = {
    "load_csv": ("metric column", lambda tmp_path, names: load_csv(csv_path(tmp_path), names),
                 ["a", "b", "b"]),
    "load_metric_columns": (
        "metric column", lambda tmp_path, names: load_metric_columns(csv_path(tmp_path), names),
        ["a", "b", "b"]),
    "build_report": ("metric name", lambda tmp_path, names: build_report(
        PanelSet(groups={}, pooled=spike_sample()), metric_names=names), ["a", "b", "b"]),
    "run_checks": ("check name", lambda tmp_path, names: run_checks(names=names),
                   ["reference-eigenvalues"] * 2),
    "write_sample_csv": ("metric name", lambda tmp_path, names: write_sample_csv(
        spike_sample(), tmp_path / "out.csv", names), ["a", "b", "b"]),
}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("case", ["str", "empty", "repeated"])
def test_name_lists(tmp_path, caller, case):
    # "abc" would otherwise be read as the names a, b and c
    what, call, repeated = CALLERS[caller]
    names, message = {
        "str": ("abc", f"{what}s must be a list, got the string 'abc'"),
        "empty": ([], f"no {what}s given"),
        "repeated": (repeated, f"{what} {repeated[-1]!r} listed twice"),
    }[case]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(tmp_path, names)
    assert not (tmp_path / "out.csv").exists()


def test_a_generator_of_check_names_runs_its_check():
    results = run_checks(names=(name for name in ["reference-eigenvalues"]))
    assert [result.name for result in results] == ["reference-eigenvalues"]
    assert results[0].passed


METHOD_CHOICE = "unknown whitening method 'ica'; choose 'zca', 'pca', 'cholesky' or 'zca_cor'"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: fit_whitening("ica", moments(spike_sample())), METHOD_CHOICE,
                 id="fit_whitening"),
    pytest.param(lambda: gini_p(spike_sample(), method="ica"), METHOD_CHOICE, id="gini_p-method"),
    pytest.param(lambda: gini_p(spike_sample(), estimator="ica"),
                 "unknown estimator 'ica'; choose 'exact' or 'pairs'", id="gini_p-estimator"),
    pytest.param(lambda: serialize_report(build_report(PanelSet({}, spike_sample())), "xml"),
                 "unknown report format 'xml'; choose 'table', 'csv' or 'json'",
                 id="serialize_report"),
])
def test_choices_name_every_allowed_value(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()

