import json
import os
import subprocess
import sys

import numpy as np
import pytest

from multigini import WeightedSample
from multigini.gini import _exact_chunks
from multigini.synth import gen_spike_cube, pca_instability_fixture, write_sample_csv


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "multigini", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def spike_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "spike.csv"
    write_sample_csv(gen_spike_cube(0.2, 3), path, ["m1", "m2", "m3"], rows=125)
    return str(path)


@pytest.fixture(scope="module")
def lognormal_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "lognormal.csv"
    sample = WeightedSample(np.random.default_rng(17).lognormal(0.0, 0.6, (1500, 3)))
    write_sample_csv(sample, path, ["m1", "m2", "m3"])
    return str(path)


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "design.csv"
    write_sample_csv(pca_instability_fixture().sample, path, ["a", "b"])
    return str(path)


@pytest.fixture(scope="module")
def grouped_csv(tmp_path_factory):
    rng = np.random.default_rng(71)
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    lines = ["name,country,cap,emp,rev"]
    for group, count in (("US", 30), ("JP", 20), ("DE", 1)):
        for i in range(count):
            cap, emp, rev = (float(v) for v in rng.lognormal(0.0, 0.7, 3) + 0.01)
            lines.append(f"c{group}{i},{group},{cap!r},{emp!r},{rev!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_missing_file_is_data_error(self):
        proc = run_cli("gini", "--input", "missing.csv", "--columns", "a")
        assert proc.returncode == 2
        assert "missing.csv" in proc.stderr

    def test_unknown_flag_is_usage_error(self, spike_csv):
        proc = run_cli("gini", "--input", spike_csv, "--columns", "m1", "--bogus")
        assert proc.returncode == 1

    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 1

    def test_invalid_p_is_data_error(self, spike_csv):
        proc = run_cli("gini", "--input", spike_csv, "--columns", "m1,m2,m3", "--p", "0.5")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["gini", "report"])
    @pytest.mark.parametrize("value", ["-inf", "-Infinity"])
    def test_negative_infinite_p_is_data_error(self, grouped_csv, command, value):
        # a value that starts with "-" and is not a plain number is still a value
        argv = [command, "--input", grouped_csv, "--columns", "cap,emp,rev"]
        if command == "report":
            argv += ["--group-column", "country"]
        spaced = run_cli(*argv, "--p", value)
        joined = run_cli(*argv, f"--p={value}")
        assert spaced.returncode == joined.returncode == 2
        assert spaced.stderr == joined.stderr
        assert "p must be >= 1 (or inf), got -inf" in spaced.stderr

    @pytest.mark.parametrize("argv, message", [
        (["gini", "--p", "abc"], "p must be a number, got 'abc'"),
        (["report", "--group-column", "country", "--p", "abc"], "p must be a number, got 'abc'"),
        (["whiten", "--q", "2,abc"], "scale factors must be numbers, got ['2', 'abc']"),
    ], ids=["gini", "report", "whiten"])
    def test_non_numeric_p_or_q_is_the_library_data_error(self, grouped_csv, argv, message):
        proc = run_cli(argv[0], "--input", grouped_csv, "--columns", "cap,emp,rev", *argv[1:])
        assert proc.returncode == 2
        assert proc.stderr == f"multigini: data error: {message}\n"

    def test_p_and_q_text_read_as_python_floats(self, grouped_csv):
        args = ("--input", grouped_csv, "--columns", "cap,emp,rev", "--format", "json")
        inf = run_cli("gini", *args, "--p", "inf")
        overflowing = run_cli("gini", *args, "--p", "1e400")
        assert inf.returncode == overflowing.returncode == 0
        assert overflowing.stdout == inf.stdout
        assert json.loads(inf.stdout)["p"] == "inf"
        nan = run_cli("gini", *args, "--p", "nan")
        assert nan.returncode == 2
        assert nan.stderr == "multigini: data error: p must be >= 1 (or inf), got nan\n"
        spaced = run_cli("whiten", *args, "--q", " 2 ,1_0, 3")
        plain = run_cli("whiten", *args, "--q", "2,10,3")
        assert spaced.returncode == plain.returncode == 0
        assert spaced.stdout == plain.stdout

    @pytest.mark.parametrize("command", ["gini", "report"])
    @pytest.mark.parametrize("offset", ["first row", "after 8 KB"])
    def test_non_utf8_input_is_data_error(self, tmp_path, command, offset):
        # the bad byte may arrive in any chunk the reader decodes, not only the first
        lines = ["name,group,a,b"]
        if offset == "after 8 KB":
            lines += [f"n{i},g{i % 2},{i + 1},{(i * 7) % 11 + 1}" for i in range(1000)]
        lines += ["Soci\u00e9t\u00e9,g0,3,4", "x,g1,5,2", "y,g0,1,9"]
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        assert (path.read_bytes().index(b"\xe9") > 8192) == (offset == "after 8 KB")
        proc = run_cli(command, "--input", str(path), "--columns", "a,b")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("multigini:")]
        assert errors == [line for line in proc.stderr.splitlines() if line]
        assert len(errors) == 1 and errors[0].startswith("multigini: data error:")
        assert str(path) in errors[0]

    @pytest.mark.parametrize("command", ["gini", "report"])
    def test_repeated_column_is_data_error(self, tmp_path, command):
        # a column listed twice is the input's fault, not a singular correlation
        path = tmp_path / "t.csv"
        path.write_text("name,group,a,b\nx,g,1,2\ny,g,2,5\nz,g,4,3\n", encoding="utf-8")
        proc = run_cli(command, "--input", str(path), "--columns", "a,b,a")
        assert proc.returncode == 2
        assert proc.stderr == "multigini: data error: metric column 'a' listed twice\n"
        assert proc.stdout == ""

    def test_unwritable_out_is_data_error(self, grouped_csv, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        proc = run_cli(
            "report", "--input", grouped_csv, "--columns", "cap,emp,rev",
            "--group-column", "country", "--format", "json", "--out", str(out),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            line for line in proc.stderr.splitlines() if line.startswith("multigini: data error:")
        ]
        assert len(proc.stderr.splitlines()) == 1
        assert f"cannot write {out}" in proc.stderr
        assert not out.exists()

    def test_negative_pairs_seed_is_data_error(self, spike_csv):
        proc = run_cli(
            "gini", "--input", spike_csv, "--columns", "m1,m2,m3",
            "--estimator", "pairs", "--pairs", "1000", "--seed", "-1",
        )
        assert proc.returncode == 2
        assert proc.stderr == "multigini: data error: seed must be >= 0, got -1\n"

    def test_negative_exact_cap_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,group,a,b\nw,g,1,3\nx,g,2,5\ny,g,4,4\nz,g,3,9\n", encoding="utf-8")
        proc = run_cli("gini", "--input", str(path), "--columns", "a,b", "--exact-cap", "-3", "--p", "2")
        assert proc.returncode == 2
        assert proc.stderr == "multigini: data error: exact cap must be >= 0, got -3\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--pairs", "0", "pair count must be positive"), ("--seed", "-3", "seed must be >= 0, got -3")],
    )
    def test_pair_arguments_checked_before_the_fit(self, tmp_path, flag, value, message):
        # the sample is singular too, but a bad argument is reported first
        path = tmp_path / "flat.csv"
        path.write_text("name,group,a,b\nx,g,1,2\ny,g,2,4\nz,g,3,6\n", encoding="utf-8")
        args = ("gini", "--input", str(path), "--columns", "a,b", "--p", "2", "--estimator", "pairs")
        assert run_cli(*args).returncode == 3
        proc = run_cli(*args, flag, value)
        assert proc.returncode == 2
        assert proc.stderr == f"multigini: data error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--pairs", "0", "pair count must be positive"), ("--seed", "-1", "seed must be >= 0, got -1")],
    )
    def test_pair_arguments_checked_for_the_exact_estimator(self, tmp_path, flag, value, message):
        path = tmp_path / "t.csv"
        path.write_text("name,group,a,b\nw,g,1,3\nx,g,2,5\ny,g,4,4\nz,g,3,9\n", encoding="utf-8")
        args = ("gini", "--input", str(path), "--columns", "a,b", "--p", "1")
        assert run_cli(*args).returncode == 0
        proc = run_cli(*args, flag, value)
        assert proc.returncode == 2
        assert proc.stderr == f"multigini: data error: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("estimator", ["exact", "pairs"])
    @pytest.mark.parametrize("p", ["1000", "1e6"])
    def test_large_p_is_numerical_error(self, tmp_path, estimator, p):
        rng = np.random.default_rng(83)
        points = rng.lognormal(0.0, 0.5, (200, 3))
        points[0] *= 40.0
        path = tmp_path / "outlier.csv"
        write_sample_csv(WeightedSample(points), path, ["a", "b", "c"])
        proc = run_cli(
            "gini", "--input", str(path), "--columns", "a,b,c", "--p", p,
            "--estimator", estimator, "--pairs", "20000", "--format", "json",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"multigini: numerical error: p = {float(p):g} is too large")
        assert "--p inf" in proc.stderr

    def test_negative_verify_seed_is_data_error(self):
        proc = run_cli("verify", "--seed", "-20")
        assert proc.returncode == 2
        assert proc.stderr == "multigini: data error: seed must be >= 0, got -20\n"
        assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout

    @pytest.mark.parametrize("command", ["gini", "summary", "corr", "whiten", "report"])
    def test_covariance_overflow_is_numerical_error(self, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text("group,a,b\ng,1e308,1\ng,1.7e308,2\ng,1.7e308,3\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "multigini", command,
             "--input", str(path), "--columns", "a,b"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "multigini: numerical error: covariance overflows in component(s) [0]; "
            "rescale the data\n"
        )

    def test_singular_covariance_is_numerical_error(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "flat.csv"
        path.write_text("name,group,a,b\nx,g,1,2\ny,g,2,4\nz,g,3,6\n", encoding="utf-8")
        proc = run_cli("whiten", "--input", str(path), "--columns", "a,b")
        assert proc.returncode == 3
        assert "eigenvalue" in proc.stderr

    def test_mean_near_the_float_limit_is_not_zero_variance(self, tmp_path):
        # the value is that of the same data with column a in units 1e4 larger
        huge, scaled = tmp_path / "huge.csv", tmp_path / "scaled.csv"
        huge.write_text("a,b\n2e154,1\n2.0001e154,2\n2.0002e154,4\n", encoding="utf-8")
        scaled.write_text("a,b\n2e150,1\n2.0001e150,2\n2.0002e150,4\n", encoding="utf-8")
        values = []
        for path in (huge, scaled):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "multigini", "gini",
                 "--input", str(path), "--columns", "a,b", "--format", "json"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            values.append(json.loads(proc.stdout)["value"])
        assert abs(values[0] - values[1]) <= 1e-12


class TestGiniCommand:
    def test_pipeline_value(self, spike_csv):
        proc = run_cli(
            "gini", "--input", spike_csv, "--columns", "m1,m2,m3", "--p", "1",
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - 0.8) <= 1e-10
        assert payload["estimator"] == "exact"
        assert len(payload["weights"]) == 3
        # the p=1 decomposition: value is the weighted sum of the component indices
        combined = sum(w * g for w, g in zip(payload["weights"], payload["component_ginis"]))
        assert abs(combined - payload["value"]) <= 1e-12

    def test_thread_count_does_not_change_output(self, spike_csv, lognormal_csv):
        base = ("gini", "--input", spike_csv, "--columns", "m1,m2,m3", "--format", "json")
        pairs = ("--estimator", "pairs", "--pairs", "30000", "--seed", "5")
        # 1,500 rows: the exact double sum has 9 chunks, more than 4 workers
        exact = ("gini", "--input", lognormal_csv, "--columns", "m1,m2,m3", "--format", "json")
        assert len(_exact_chunks(1500)) > 4
        for args in (base, (*base, *pairs, "--p", "1.5"), (*base, *pairs, "--p", "2"),
                     (*exact, "--p", "2"), (*exact, "--p", "1.5")):
            one = run_cli(*args, "--threads", "1")
            four = run_cli(*args, "--threads", "4")
            assert one.returncode == four.returncode == 0
            assert one.stdout == four.stdout

    def test_pairs_estimator_prints_seed(self, spike_csv):
        proc = run_cli(
            "gini", "--input", spike_csv, "--columns", "m1,m2,m3",
            "--estimator", "pairs", "--pairs", "50000", "--seed", "7",
        )
        assert proc.returncode == 0
        assert "seed: 7" in proc.stdout
        assert "std_error:" in proc.stdout

    def test_pairs_agree_with_exact(self, spike_csv):
        exact = json.loads(
            run_cli("gini", "--input", spike_csv, "--columns", "m1,m2,m3",
                    "--format", "json").stdout
        )
        pairs = json.loads(
            run_cli("gini", "--input", spike_csv, "--columns", "m1,m2,m3",
                    "--estimator", "pairs", "--pairs", "200000", "--seed", "7",
                    "--format", "json").stdout
        )
        assert abs(pairs["value"] - exact["value"]) <= 4.0 * pairs["std_error"]

    def test_cholesky_method_accepted(self, spike_csv):
        proc = run_cli(
            "gini", "--input", spike_csv, "--columns", "m1,m2,m3",
            "--method", "cholesky", "--format", "json",
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 0.8) <= 1e-10

    def test_pca_method_rejected(self, spike_csv):
        proc = run_cli("gini", "--input", spike_csv, "--columns", "m1,m2,m3", "--method", "pca")
        assert proc.returncode == 1

    def test_max_norm_order(self, spike_csv):
        proc = run_cli(
            "gini", "--input", spike_csv, "--columns", "m1,m2,m3", "--p", "inf",
            "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["p"] == "inf"
        assert payload["weights"] is None


class TestWhitenCommand:
    def test_pca_unstable_on_fixture(self, fixture_csv):
        proc = run_cli(
            "whiten", "--input", fixture_csv, "--columns", "a,b", "--method", "pca",
            "--q", "2,1", "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["scale_stability_deviation"] > 0.1

    @pytest.mark.parametrize("method", ["zca-cor", "cholesky"])
    def test_stable_methods_on_fixture(self, fixture_csv, method):
        proc = run_cli(
            "whiten", "--input", fixture_csv, "--columns", "a,b", "--method", method,
            "--q", "2,1", "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["scale_stability_deviation"] <= 1e-9
        assert payload["whiteness_residual"] <= 1e-8

    def test_table_output(self, fixture_csv):
        proc = run_cli("whiten", "--input", fixture_csv, "--columns", "a,b")
        assert proc.returncode == 0
        assert "whitening matrix" in proc.stdout
        assert "whiteness residual" in proc.stdout

    def test_q_length_must_match_columns(self, spike_csv):
        proc = run_cli("whiten", "--input", spike_csv, "--columns", "m1,m2,m3", "--q", "2,1")
        assert proc.returncode == 2
        assert "expected 3 scale factors, got 2" in proc.stderr

    def test_non_white_fit_is_numerical_error(self, tmp_path):
        # one column in units 1e8 times smaller: zca loses whiteness to roundoff
        points = np.random.default_rng(1).lognormal(0.0, 0.6, (400, 3))
        path = tmp_path / "mixed.csv"
        write_sample_csv(WeightedSample(points).scaled([1.0, 1e-8, 1.0]), path, ["a", "b", "c"])
        args = ("whiten", "--input", str(path), "--columns", "a,b,c", "--method")
        proc = run_cli(*args, "zca")
        assert proc.returncode == 3
        assert "not white" in proc.stderr
        assert run_cli(*args, "zca-cor").returncode == 0

    def test_method_choices_are_the_library_methods(self, tmp_path):
        from multigini.whitening import METHODS

        path = tmp_path / "flat.csv"
        path.write_text("a,b\n1,1\n1,2\n1,4\n", encoding="utf-8")
        usage = run_cli("whiten", "--input", str(path), "--columns", "a,b", "--method", "ica")
        assert usage.returncode == 1
        flags = tuple(method.replace("_", "-") for method in METHODS)
        assert f"(choose from {', '.join(map(repr, flags))})" in usage.stderr
        # a zero-variance column: each method's error names the matrix it needs
        matrices = {"zca": "covariance", "pca": "covariance", "cholesky": "triangular",
                    "zca-cor": "correlation"}
        assert set(matrices) == set(flags)
        for flag, matrix in matrices.items():
            proc = run_cli("whiten", "--input", str(path), "--columns", "a,b", "--method", flag)
            assert proc.returncode == 3
            assert f"component(s) [0]; {matrix} whitening is undefined" in proc.stderr


class TestSummaryCorr:
    def test_summary_json(self, grouped_csv):
        proc = run_cli("summary", "--input", grouped_csv, "--columns", "cap,emp,rev",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["n"] == 51
        assert set(payload["summary"]) == {"cap", "emp", "rev"}

    def test_corr_json_unit_diagonal(self, grouped_csv):
        proc = run_cli("corr", "--input", grouped_csv, "--columns", "cap,emp,rev",
                       "--format", "json")
        corr = json.loads(proc.stdout)["correlation"]
        assert corr[0][0] == 1.0 and corr[1][1] == 1.0 and corr[2][2] == 1.0

    def test_summary_table(self, grouped_csv):
        proc = run_cli("summary", "--input", grouped_csv, "--columns", "cap,emp,rev")
        assert proc.returncode == 0
        assert "mean" in proc.stdout and "std" in proc.stdout

    def test_zero_variance_column_matches_report_blocks(self, tmp_path):
        rows = [f"g,{v},2.5,{3 * v}" for v in (1.0, 4.0, 2.0, 7.0)]
        path = tmp_path / "flat.csv"
        path.write_text("group,a,flat,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ("--input", str(path), "--columns", "a,flat,b")
        summary, corr, report = (run_cli(c, *args) for c in ("summary", "corr", "report"))
        assert summary.returncode == corr.returncode == report.returncode == 0
        assert summary.stdout.splitlines()[1:] == report.stdout.splitlines()[1:5]
        assert corr.stdout.splitlines() == [
            "             a      flat         b",
            "a        1.000       nan     1.000",
            "flat       nan       nan       nan",
            "b        1.000       nan     1.000",
        ]
        json_out = {c: json.loads(run_cli(c, *args, "--format", "json").stdout)
                    for c in ("summary", "corr", "report")}
        assert json_out["corr"]["correlation"] == json_out["report"]["correlation"]
        assert json_out["corr"]["correlation"][1] == [None, None, None]
        assert json_out["summary"]["summary"] == json_out["report"]["summary"]


@pytest.fixture(scope="module")
def bom_csv(grouped_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bom.csv"
    with open(grouped_csv, encoding="utf-8") as handle:
        path.write_text("\ufeff" + handle.read(), encoding="utf-8")
    return str(path)


class TestBomInput:
    """A UTF-8 byte-order mark before the header reads like the plain file."""

    def test_report(self, grouped_csv, bom_csv):
        args = ("--columns", "cap,emp,rev", "--group-column", "country", "--format", "json")
        plain = run_cli("report", "--input", grouped_csv, *args)
        bom = run_cli("report", "--input", bom_csv, *args)
        assert bom.returncode == 0, bom.stderr
        assert bom.stdout == plain.stdout

    def test_gini(self, grouped_csv, bom_csv):
        args = ("--columns", "cap,emp,rev", "--p", "2", "--format", "json")
        plain = run_cli("gini", "--input", grouped_csv, *args)
        bom = run_cli("gini", "--input", bom_csv, *args)
        assert bom.returncode == 0, bom.stderr
        assert bom.stdout == plain.stdout


class TestReportCommand:
    def test_table_shape(self, grouped_csv):
        proc = run_cli(
            "report", "--input", grouped_csv, "--columns", "cap,emp,rev",
            "--group-column", "country",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Inequality by group" in proc.stdout
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("JP", "US", "All", "DE"))]
        # DE has a single company: below the group threshold, pooled only
        assert [l.split()[0] for l in lines] == ["JP", "US", "All"]

    def test_json_deterministic_and_parseable(self, grouped_csv):
        args = ("report", "--input", grouped_csv, "--columns", "cap,emp,rev",
                "--group-column", "country", "--format", "json")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["rows"][-1]["group"] == "All"
        assert payload["rows"][-1]["n"] == 51

    def test_out_path(self, grouped_csv, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli(
            "report", "--input", grouped_csv, "--columns", "cap,emp,rev",
            "--group-column", "country", "--format", "csv", "--out", str(out),
        )
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8").startswith("group,n,gini_cap")


    def test_name_column_not_required(self, grouped_csv, tmp_path):
        # the report never reads a name column, so a file without one works
        with open(grouped_csv, encoding="utf-8") as handle:
            text = "".join(line.split(",", 1)[1] for line in handle)
        path = tmp_path / "unnamed.csv"
        path.write_text(text, encoding="utf-8")
        args = ("--columns", "cap,emp,rev", "--group-column", "country", "--format", "json")
        unnamed = run_cli("report", "--input", str(path), *args)
        assert unnamed.returncode == 0, unnamed.stderr
        assert unnamed.stdout == run_cli("report", "--input", grouped_csv, *args).stdout

    def test_json_bytes_do_not_depend_on_the_blas_pool(self, tmp_path):
        # OpenBLAS splits a dot product over its threads above 10,000 entries,
        # so the group has 12,000 rows.  On this seed-0 file a dot-product
        # mean gave the per-metric Ginis different last digits under the two
        # pool sizes.
        rows = np.random.default_rng(0).lognormal(0.0, 1.0, (12_000, 3)).tolist()
        path = tmp_path / "one-group.csv"
        path.write_text("group,a,b,c\n" + "".join(
            f"big,{a!r},{b!r},{c!r}\n" for a, b, c in rows), encoding="utf-8")
        args = ("report", "--input", str(path), "--columns", "a,b,c", "--p", "1",
                "--format", "json")
        outputs = []
        for threads in ("1", "2"):
            proc = run_cli(*args, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestVerifyCommand:
    SUBSET = "reference-eigenvalues,coinflip-cube-shift,spike-cube-exactness"

    def test_subset_passes_and_log_deterministic(self):
        a = run_cli("verify", "--seed", "11", "--checks", self.SUBSET)
        b = run_cli("verify", "--seed", "11", "--checks", self.SUBSET)
        assert a.returncode == 0, a.stdout
        assert a.stdout == b.stdout
        assert a.stdout.startswith("seed: 11\n")
        assert a.stdout.count("PASS") == 3

    def test_tamper_makes_it_fail(self):
        proc = run_cli("verify", "--checks", "pca-instability-witness", "--tamper")
        assert proc.returncode == 3
        assert "FAIL pca-instability-witness" in proc.stdout

    def test_untampered_witness_passes(self):
        proc = run_cli("verify", "--checks", "pca-instability-witness")
        assert proc.returncode == 0
        assert proc.stdout.startswith("seed: 20240\n")
        assert "PASS pca-instability-witness" in proc.stdout

    def test_unknown_check_name(self):
        proc = run_cli("verify", "--checks", "nonsense")
        assert proc.returncode == 2

    @pytest.mark.parametrize("checks", [",", " ", ""])
    def test_empty_check_list_is_data_error(self, checks):
        proc = run_cli("verify", "--checks", checks)
        assert proc.returncode == 2
        assert proc.stderr == "multigini: data error: no check names given\n"
        assert "PASS" not in proc.stdout and "checks passed" not in proc.stdout

    def test_runs_without_scipy(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from multigini.cli import main\n"
            "raise SystemExit(main(['verify', '--checks', "
            "'pca-instability-witness,scale-stability-suite,norm-independence']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.count("PASS") == 3


def test_cli_import_skips_what_only_some_commands_run():
    # verify (with synth) and the thread pool are imported by the code that uses them
    code = (
        "import sys\n"
        "import multigini.cli\n"
        "print(sorted(m for m in ('multigini.verify', 'multigini.synth', 'concurrent.futures')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
