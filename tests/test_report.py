import csv
import io
import json
import math
import os
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigini import (
    DataError,
    PanelSet,
    PanelTable,
    WeightedSample,
    build_report,
    gini_1_decomposed,
    gini_1d,
    gini_p,
    load_csv,
    panelize,
    serialize_report,
)
import multigini.gini
import multigini.report
import multigini.sample
from multigini.gini import DEFAULT_EXACT_CAP
from multigini.report import load_metric_columns, report_to_dict
from multigini.synth import expand_to_rows, gen_spike_cube


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def table(groups, values):
    return PanelTable(np.asarray(values, dtype=float), np.asarray(groups, dtype=object))


def record_loop_panelize(table, min_group_size=2):
    """The per-record panelize loop the columnar one replaced, kept as its reference.

    Returns the per-group point matrices (sorted by label) and the pooled matrix.
    """
    by_group = {}
    pooled = []
    for group, metrics in zip(table.groups, table.values.tolist()):
        by_group.setdefault(group, []).append(tuple(metrics))
        pooled.append(tuple(metrics))
    groups = {
        name: np.asarray(rows, dtype=float)
        for name, rows in sorted(by_group.items())
        if len(rows) >= min_group_size
    }
    return groups, np.asarray(pooled, dtype=float)


WELL_FORMED = """name,country,marketcap,employees,revenues
Acme,US,100,50,80
Bolt,US,20,5,10
Cave,JP,30,8,25
"""


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "data.csv", WELL_FORMED)
        panel, dropped = load_csv(
            path, ["marketcap", "employees", "revenues"], group_column="country"
        )
        assert dropped == 0
        assert len(panel) == 3
        np.testing.assert_array_equal(panel.values[0], [100.0, 50.0, 80.0])
        assert panel.groups.tolist() == ["US", "US", "JP"]

    def test_equal_labels_are_one_object(self, tmp_path):
        # one str per distinct label, not one per row; CPython already shares
        # one-character strings, so the labels here are longer
        path = write(
            tmp_path / "data.csv",
            "group,rev\nregion-07,1\n region-07 ,2\nregion-11,3\nregion-07,4\nregion-11,5\n",
        )
        groups = load_csv(path, ["rev"])[0].groups
        assert groups.tolist() == ["region-07", "region-07", "region-11", "region-07", "region-11"]
        assert len({id(label) for label in groups}) == 2

    def test_blank_cell_dropped(self, tmp_path):
        path = write(
            tmp_path / "data.csv",
            "name,group,rev\nA,x,1\nB,x,\nC,y,3\n",
        )
        panel, dropped = load_csv(path, ["rev"])
        assert dropped == 1
        assert panel.values[:, 0].tolist() == [1.0, 3.0]
        assert panel.groups.tolist() == ["x", "y"]

    def test_non_positive_dropped(self, tmp_path):
        path = write(
            tmp_path / "data.csv",
            "name,group,rev\nA,x,1\nB,x,0\nC,y,-3\nD,y,2\n",
        )
        panel, dropped = load_csv(path, ["rev"])
        assert dropped == 2
        assert panel.values[:, 0].tolist() == [1.0, 2.0]

    def test_accounting(self, tmp_path):
        path = write(
            tmp_path / "data.csv",
            "name,group,rev\nA,x,1\nB,x,bad\nC,y,3\nD,y,-1\nE,z,7\n",
        )
        panel, dropped = load_csv(path, ["rev"])
        assert len(panel) + dropped == 5

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,rev\nA,1\n")
        with pytest.raises(DataError, match="'group'"):
            load_csv(path, ["rev"])

    def test_name_column_required_only_when_named(self, tmp_path):
        path = write(tmp_path / "data.csv", "group,rev\nx,1\ny,2\n")
        panel, dropped = load_csv(path, ["rev"])
        assert (panel.groups.tolist(), dropped) == (["x", "y"], 0)
        with pytest.raises(DataError, match="missing column 'name'"):
            load_csv(path, ["rev"], name_column="name")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", ["rev"])

    def test_zero_surviving_rows(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,rev\nA,x,-1\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path, ["rev"])

    def test_malformed_csv_is_data_error(self, tmp_path):
        # a field over the csv module's size limit is a read error, not a traceback
        path = write(tmp_path / "data.csv", "name,group,rev\nA,x,5\nB,x," + "9" * 200_000 + "\n")
        with pytest.raises(DataError, match="cannot read .*field larger than field limit"):
            load_csv(path, ["rev"])

    def test_quoted_fields(self, tmp_path):
        path = write(
            tmp_path / "data.csv",
            'name,group,rev\n"Smith, Jones & Co",x,5\nB,x,7\n',
        )
        panel, _ = load_csv(path, ["rev"])
        assert panel.values[:, 0].tolist() == [5.0, 7.0]

    def test_quoted_comma_in_group_cell(self, tmp_path):
        path = write(tmp_path / "data.csv", 'name,group,rev\nA,"North, East",5\nB, West ,7\n')
        panel, _ = load_csv(path, ["rev"])
        assert panel.groups.tolist() == ["North, East", "West"]
        assert panel.values[:, 0].tolist() == [5.0, 7.0]

    def test_blank_lines_skipped_not_counted(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,rev\n\nA,x,1\n\n\nB,y,2\n\n")
        panel, dropped = load_csv(path, ["rev"])
        assert dropped == 0
        assert panel.values[:, 0].tolist() == [1.0, 2.0]
        matrix, dropped = load_metric_columns(path, ["rev"])
        assert dropped == 0
        assert matrix[:, 0].tolist() == [1.0, 2.0]

    def test_duplicate_header_uses_last_occurrence(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,rev,group,rev\nA,x,-1,p,1\nB,y,-2,q,2\n")
        panel, dropped = load_csv(path, ["rev"])
        assert dropped == 0
        assert panel.values[:, 0].tolist() == [1.0, 2.0]
        assert panel.groups.tolist() == ["p", "q"]
        matrix, _ = load_metric_columns(path, ["rev"])
        assert matrix[:, 0].tolist() == [1.0, 2.0]

    def test_short_row_has_missing_cells(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,a,b\nA,x,1,2\nB,x,3\nC\nD,y,4,5\n")
        panel, dropped = load_csv(path, ["a", "b"])
        assert dropped == 2
        assert panel.values.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        matrix, dropped = load_metric_columns(path, ["a", "b"])
        assert dropped == 2
        # a short row that still holds every metric keeps an empty group label
        panel, dropped = load_csv(write(tmp_path / "g.csv", "name,a,group\nA,1\nB,2,y\n"), ["a"])
        assert dropped == 0
        assert panel.groups.tolist() == ["", "y"]

    def test_line_endings(self, tmp_path):
        lines = ["name,group,a,b", "A,x,1,2", "", "B,x,3", "C,y,4,5", "D,y,n/a,1", "E", "F,z,6,7"]
        read = []
        for name, ending in [("lf.csv", "\n"), ("crlf.csv", "\r\n")]:
            path = tmp_path / name
            path.write_bytes(ending.join(lines + [""]).encode())
            panel, dropped = load_csv(path, ["a", "b"])
            matrix, metric_dropped = load_metric_columns(path, ["a", "b"])
            read.append((panel.values.tolist(), panel.groups.tolist(), dropped,
                         matrix.tolist(), metric_dropped))
        assert read[0] == read[1]
        assert read[0] == ([[1.0, 2.0], [4.0, 5.0], [6.0, 7.0]], ["x", "y", "z"], 3,
                           [[1.0, 2.0], [4.0, 5.0], [6.0, 7.0]], 3)

    def test_bom_header(self, tmp_path):
        path = write(tmp_path / "data.csv", "\ufeffname,group,rev\nA,x,1\nB,x,2\n")
        panel, dropped = load_csv(path, ["rev"])
        assert (len(panel), dropped) == (2, 0)
        matrix, _ = load_metric_columns(write(tmp_path / "m.csv", "\ufeffrev\n1\n2\n"), ["rev"])
        assert matrix[:, 0].tolist() == [1.0, 2.0]

    def test_metric_loader_keeps_zeros(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,a\nA,x,0\nB,x,2\nC,x,oops\n")
        matrix, dropped = load_metric_columns(path, ["a"])
        assert dropped == 1
        np.testing.assert_array_equal(matrix[:, 0], [0.0, 2.0])

    def test_metric_loader_drops_non_finite_and_missing_column_named(self, tmp_path):
        path = write(tmp_path / "data.csv", "a,b\n1,-2\ninf,1\nnan,1\n3,\n4,0\n")
        matrix, dropped = load_metric_columns(path, ["a", "b"])
        assert dropped == 3
        assert matrix.tolist() == [[1.0, -2.0], [4.0, 0.0]]
        with pytest.raises(DataError, match="missing column 'c'"):
            load_metric_columns(path, ["a", "c"])

    def test_repeated_metric_column_named(self, tmp_path):
        path = write(tmp_path / "data.csv", "name,group,a,b\nA,x,1,2\nB,x,2,3\n")
        with pytest.raises(DataError, match="metric column 'b' listed twice"):
            load_metric_columns(path, ["b", "a", "b"])
        with pytest.raises(DataError, match="metric column 'a' listed twice"):
            load_csv(path, ["a", "a"])


def row_loop_read(text, metric_columns, positive, group_column):
    """Test oracle for ``_read_csv``: one ``float`` call per cell, row by row."""
    reader = csv.reader(io.StringIO(text))
    index = {column: j for j, column in enumerate(next(reader, []))}
    metric_index = [index[column] for column in metric_columns]
    group_index = index.get(group_column)
    rows, labels, dropped = [], [], 0
    for row in reader:
        if not row:
            continue
        try:
            values = [float(row[j]) for j in metric_index]
        except (ValueError, IndexError):
            dropped += 1
            continue
        if not all(map(math.isfinite, values)) or (positive and min(values) <= 0.0):
            dropped += 1
            continue
        rows.append(values)
        if group_index is not None:
            labels.append(row[group_index].strip() if group_index < len(row) else "")
    return rows, labels, dropped


# cells the reader must convert or reject exactly as float() does
_ODD_CELLS = ["", "n/a", "nan", "inf", "-inf", "1_0", " 2 ", "\u0661\u0662", "-3", "0", "1e400",
              "4,5", '"6"', "0x10"]


class TestReaderAgainstRowLoop:
    """Batched conversion equals a per-row, per-cell ``float`` loop, batch boundaries included."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_row_loop(self, tmp_path_factory, data):
        d = data.draw(st.sampled_from([1, 3]))
        metrics = ["a", "b", "c"][:d]
        header = data.draw(st.permutations(["name", "group", *metrics]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lines = []
        for _ in range(data.draw(st.integers(0, 25))):
            cells = [
                str(rng.choice(_ODD_CELLS)) if rng.random() < 0.3 else repr(rng.lognormal(0.0, 2.0))
                for _ in header
            ]
            cells[header.index("group")] = str(rng.choice(["x", " y ", "p,q", 'say "hi"']))
            if rng.random() < 0.15:
                cells = cells[:int(rng.integers(0, len(header)))]
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerow(cells)
            lines.append(buffer.getvalue() if cells else "\n")
            if rng.random() < 0.1:
                lines.append("\n")
        text = ",".join(header) + "\n" + "".join(lines)
        path = tmp_path_factory.mktemp("reader") / "data.csv"
        path.write_text(text, encoding="utf-8")
        positive = data.draw(st.booleans())
        group_column = "group" if positive else None
        rows, labels, dropped = row_loop_read(text, metrics, positive, group_column)
        with mock.patch.object(multigini.report, "_CELL_BATCH", data.draw(st.integers(1, 7))):
            if not rows:
                with pytest.raises(DataError, match=f"no usable rows .*\\({dropped} dropped\\)"):
                    multigini.report._read_csv(path, metrics, positive, group_column)
                return
            matrix, got_labels, got_dropped = multigini.report._read_csv(
                path, metrics, positive, group_column
            )
        assert matrix.tobytes() == np.array(rows).tobytes()
        assert matrix.shape == (len(rows), d)
        assert got_labels is None if group_column is None else got_labels.tolist() == labels
        assert got_dropped == dropped

    def test_rejected_cells_resume_the_batch(self):
        values = array("d", [7.0, 8.0])
        # rejected cells first, last, side by side and twice in one row
        cells = ["x", "1", "y", "z", "2", "3", "4", "w"]
        multigini.report._convert_cells(cells, values)
        assert [v if math.isfinite(v) else "nan" for v in values.tolist()] == [
            7.0, 8.0, "nan", 1.0, "nan", "nan", 2.0, 3.0, 4.0, "nan"]


class TestPanelize:
    def table(self, sizes):
        groups, values = [], []
        for label, count in sizes.items():
            for i in range(count):
                groups.append(label)
                values.append((float(i + 1), float(2 * i + 1)))
        return table(groups, values)

    def test_small_group_excluded_but_pooled(self):
        panels = panelize(self.table({"A": 5, "B": 1}), min_group_size=2)
        assert list(panels.groups) == ["A"]
        assert panels.pooled.n == 6

    def test_all_groups_kept_when_large_enough(self):
        panels = panelize(self.table({"A": 3, "B": 2}), min_group_size=2)
        assert sorted(panels.groups) == ["A", "B"]

    def test_uniform_weights(self):
        panels = panelize(self.table({"A": 4}), min_group_size=2)
        np.testing.assert_array_equal(panels.groups["A"].weights, np.full(4, 0.25))

    def test_threshold_validated(self):
        with pytest.raises(DataError, match="min_group_size"):
            panelize(self.table({"A": 3}), min_group_size=1)

    @pytest.mark.parametrize("value", [math.nan, "3", 2.5, True])
    def test_threshold_must_be_an_integer(self, value):
        with pytest.raises(DataError, match=f"min_group_size must be an integer, got {value!r}"):
            panelize(self.table({"A": 3}), min_group_size=value)

    def test_label_count_validated(self):
        with pytest.raises(DataError, match="group labels"):
            panelize(table(["A", "A"], np.ones((3, 2))))

    def test_table_without_labels_is_data_error(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,3\n2,5\n4,4\n3,9\n")
        unlabelled, dropped = load_csv(path, ["a", "b"], group_column=None)
        assert unlabelled.groups is None and len(unlabelled) == 4 and dropped == 0
        with pytest.raises(DataError, match="no group labels"):
            panelize(unlabelled)
        with pytest.raises(DataError, match="no group labels"):
            panelize(PanelTable(np.ones((3, 2)), None))

    def test_labels_order_as_python_strings(self):
        # a fixed-width numpy string array would merge "a" and "a\x00"
        labels = ["é", "a\x00", "", "a", "Z", "a", "", "é", "a\x00", "Z"]
        values = np.arange(20.0).reshape(10, 2) + 1.0
        panels = panelize(table(labels, values))
        assert list(panels.groups) == ["", "Z", "a", "a\x00", "é"]
        np.testing.assert_array_equal(panels.groups["a"].points, [[7.0, 8.0], [11.0, 12.0]])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_record_loop(self, data):
        keys = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
        labels = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=40))
        dim = data.draw(st.integers(1, 3))
        min_group_size = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        panel = table(labels, rng.lognormal(0.0, 1.0, (len(labels), dim)))
        ref_groups, ref_pooled = record_loop_panelize(panel, min_group_size)
        panels = panelize(panel, min_group_size=min_group_size)
        assert list(panels.groups) == list(ref_groups)
        for key, points in ref_groups.items():
            assert panels.groups[key].points.tobytes() == points.tobytes()
        assert panels.pooled.points.tobytes() == ref_pooled.tobytes()


def spike_panels():
    expanded = WeightedSample(expand_to_rows(gen_spike_cube(0.2, 3), 125))
    return PanelSet(groups={"only": expanded}, pooled=expanded)


class TestBuildReport:
    def test_exchangeable_columns_all_indices_equal(self):
        report = build_report(spike_panels())
        row = report.rows[-1]
        assert row.group == "All"
        for value in row.metric_ginis:
            assert value == pytest.approx(0.8, abs=1e-10)
        assert row.result.value == pytest.approx(0.8, abs=1e-10)

    def test_pipeline_identity_through_panels(self):
        report = build_report(spike_panels())
        assert report.rows[0].result.value == pytest.approx(0.8, abs=1e-10)

    def test_rows_sorted_with_pooled_last(self):
        rng = np.random.default_rng(61)
        groups = [group for group in ("zeta", "alpha", "mid") for _ in range(4)]
        report = build_report(panelize(table(groups, rng.lognormal(0, 0.5, (12, 2)))))
        assert [r.group for r in report.rows] == ["alpha", "mid", "zeta", "All"]

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(62)
        report = build_report(panelize(table(["g"] * 30, rng.lognormal(0, 0.5, (30, 3)))))
        for row in report.rows:
            assert abs(sum(row.result.weights) - 1.0) <= 1e-12

    def test_metric_ginis_are_gini_1d_of_the_column(self):
        # at n = 49, n * fl(1/n) does not round to 1: the group's weights must
        # not be normalized a second time
        rng = np.random.default_rng(64)
        values = rng.lognormal(0.0, 1.0, (65, 3))
        report = build_report(panelize(table(["a"] * 49 + ["b"] * 16, values)))
        columns = {"a": values[:49], "b": values[49:], "All": values}
        for row in report.rows:
            assert [v.hex() for v in row.metric_ginis] == [
                gini_1d(column).hex() for column in columns[row.group].T
            ]

    def test_indices_in_unit_interval_absent_warnings(self):
        rng = np.random.default_rng(63)
        report = build_report(panelize(table(["g"] * 60, rng.lognormal(0, 0.8, (60, 3)))))
        for row in report.rows:
            if row.result.negativity_warning:
                continue
            for value in (*row.metric_ginis, row.result.value):
                assert 0.0 <= value <= 1.0

    def test_singular_group_gets_error_note(self):
        rng = np.random.default_rng(64)
        good = rng.lognormal(0, 0.5, (10, 2))
        bad = [(1.0, float(i + 1)) for i in range(5)]
        report = build_report(panelize(table(["good"] * 10 + ["bad"] * 5, [*good, *bad])))
        by_group = {row.group: row for row in report.rows}
        assert by_group["bad"].error is not None
        assert by_group["bad"].result is None
        assert by_group["good"].error is None
        assert by_group["good"].result is not None

    def test_group_above_exact_cap_gets_note_at_p2(self, monkeypatch):
        rng = np.random.default_rng(65)
        big = DEFAULT_EXACT_CAP + 1
        groups = ["big"] * big + ["small"] * 10
        panels = panelize(table(groups, rng.lognormal(0, 0.5, (big + 10, 2))))
        seen = []

        def counting(sample):
            seen.append(id(sample))
            return multigini.sample.moments(sample)

        monkeypatch.setattr(multigini.report, "moments", counting)
        monkeypatch.setattr(multigini.gini, "moments", counting)
        report = build_report(panels, p=2.0)
        # a capped row computes no moments; the report's summary needs the pooled ones once
        assert seen.count(id(panels.groups["big"])) == 0
        assert seen.count(id(panels.groups["small"])) == 1
        assert seen.count(id(panels.pooled)) == 1
        by_group = {row.group: row for row in report.rows}
        for label in ("big", "All"):
            assert "capped" in by_group[label].error
            assert by_group[label].result is None
            assert by_group[label].metric_ginis is not None
        assert by_group["small"].error is None
        assert by_group["small"].result is not None

    def test_summary_and_correlation_from_pooled(self):
        panels = spike_panels()
        report = build_report(panels)
        from multigini import moments

        pooled = moments(panels.pooled)
        np.testing.assert_allclose(report.pooled.mean, pooled.mean, atol=1e-14)
        np.testing.assert_allclose(
            np.sqrt(report.pooled.variances), np.sqrt(pooled.variances), atol=1e-14
        )
        np.testing.assert_allclose(report.pooled.correlation, pooled.correlation, atol=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_moments_once_per_sample(self, monkeypatch, p):
        rng = np.random.default_rng(66)
        groups = [group for group in ("a", "b", "c") for _ in range(8)]
        panels = panelize(table(groups, rng.lognormal(0, 0.5, (24, 3))))
        seen = []

        def counting(sample):
            seen.append(id(sample))
            return multigini.sample.moments(sample)

        monkeypatch.setattr(multigini.report, "moments", counting)
        monkeypatch.setattr(multigini.gini, "moments", counting)
        build_report(panels, p=p)
        samples = [*panels.groups.values(), panels.pooled]
        assert sorted(seen) == sorted(id(sample) for sample in samples)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_every_row_is_the_public_index(self, p):
        rng = np.random.default_rng(67)
        groups = [group for group in ("a", "b") for _ in range(10)]
        panels = panelize(table(groups, rng.lognormal(0, 0.5, (20, 3))))
        report = build_report(panels, p=p)
        assert [row.group for row in report.rows] == ["a", "b", "All"]
        samples = [panels.groups["a"], panels.groups["b"], panels.pooled]

        def listed(array):
            return None if array is None else array.tolist()

        for row, sample in zip(report.rows, samples):
            expected = gini_1_decomposed(sample) if p == 1.0 else gini_p(sample, p)
            assert row.result.value == expected.value
            assert listed(row.result.weights) == listed(expected.weights)
            assert listed(row.result.component_ginis) == listed(expected.component_ginis)
            assert row.result.worst_negative == expected.worst_negative

    def test_metric_name_count_checked(self):
        with pytest.raises(DataError, match="metric names"):
            build_report(spike_panels(), metric_names=["a"])

    def test_panel_set_without_a_pooled_sample_is_a_data_error(self):
        with pytest.raises(DataError, match="empty panel set"):
            build_report(PanelSet(groups={}, pooled=None))

    def test_repeated_metric_name_is_a_data_error(self):
        # the JSON writer keys each row's Ginis and weights by name, so a
        # repeated name would drop a metric without an error
        with mock.patch.object(multigini.report, "_row_for_sample") as row_for_sample:
            with pytest.raises(DataError, match="metric name 'm' listed twice"):
                build_report(spike_panels(), metric_names=["m", "x", "m"])
        row_for_sample.assert_not_called()

    @pytest.mark.parametrize("p", [0.5, float("nan")])
    def test_invalid_p_rejected_before_any_row(self, p):
        with pytest.raises(DataError, match="p must be >= 1"):
            build_report(spike_panels(), p=p)

    def test_p_that_is_not_a_number_is_a_data_error(self):
        with pytest.raises(DataError, match="p must be a number, got None"):
            build_report(spike_panels(), p=None)
        with pytest.raises(DataError, match="p must be a number, got 1000"):
            build_report(spike_panels(), p=10**400)
        # a bool is no order, though float(True) is 1.0
        with pytest.raises(DataError, match="p must be a number, got True"):
            build_report(spike_panels(), p=True)

    def test_rows_at_p2_use_every_cpu_of_the_mask(self, monkeypatch):
        rng = np.random.default_rng(67)
        groups = ["a"] * 1500 + ["b"] * 600
        panels = panelize(table(groups, rng.lognormal(0, 0.5, (2100, 3))))
        threads = []
        exact = multigini.gini._exact_mean_distance

        def recording(y, w, p, count):
            threads.append(count)
            return exact(y, w, p, count)

        monkeypatch.setattr(multigini.gini, "_exact_mean_distance", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = serialize_report(build_report(panels, p=2.0), "json")
        # groups a and b, then the pooled row; even b's sum spans several chunks
        assert threads == [2, 2, 2]
        assert len(multigini.gini._exact_chunks(600)) > 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = serialize_report(build_report(panels, p=2.0), "json")
        assert threads[3:] == [1, 1, 1]
        assert one == two

    def test_other_orders_have_no_weights(self):
        report = build_report(spike_panels(), p=2.0)
        row = report.rows[-1]
        assert row.result.weights is None
        assert row.result.value is not None

    def test_max_norm_order_serializes(self):
        import math

        report = build_report(spike_panels(), p=math.inf)
        payload = json.loads(serialize_report(report, "json"))
        assert payload["p"] == "inf"
        assert payload["rows"][-1]["g1"] is not None


class TestSerialize:
    def test_csv_header_schema(self):
        text = serialize_report(build_report(spike_panels(), metric_names=["a", "b", "c"]), "csv")
        header = text.splitlines()[0]
        assert header == (
            "group,n,gini_a,gini_b,gini_c,g1,weight_a,weight_b,weight_c,"
            "negativity_warning,error"
        )

    def test_csv_cells_quoted(self):
        # a comma or quote in a label, and a note listing two components,
        # each stay one cell
        rng = np.random.default_rng(8)
        labels = ["Korea, Republic of"] * 6 + ['say "hi"'] * 6 + ["flat"] * 4
        values = [tuple(rng.uniform(1.0, 5.0, 3)) for _ in range(12)]
        values += [(i + 1.0, 2.0, 3.0) for i in range(4)]
        report = build_report(panelize(table(labels, values)))
        rows = list(csv.reader(io.StringIO(serialize_report(report, "csv"))))
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [row[0] for row in rows[1:]] == [row.group for row in report.rows]
        assert [row[-1] for row in rows[1:]] == [row.error or "" for row in report.rows]
        notes = {row[0]: row[-1] for row in rows[1:]}
        assert "zero variance in component(s) [1, 2]" in notes["flat"]

    def test_csv_inner_carriage_return_round_trips(self):
        # a bare "\r" inside a label must not split its record when read back
        rng = np.random.default_rng(9)
        labels = ["a\rb"] * 6 + ["plain"] * 6
        values = [tuple(rng.uniform(1.0, 5.0, 3)) for _ in range(12)]
        report = build_report(panelize(table(labels, values)))
        text = serialize_report(report, "csv")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) == 1 + len(report.rows)
        assert [row[0] for row in rows[1:]] == ["a\rb", "plain", "All"]
        assert '\n"a\rb",' in text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=st.sampled_from('ab ,"\n\u00e9'), max_size=6),
                    min_size=2, max_size=5))
    def test_csv_record_matches_csv_writer_without_carriage_return(self, cells):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(cells)
        assert multigini.report._csv_record(cells) == out.getvalue()

    def test_json_round_trips_full_precision(self):
        report = build_report(spike_panels())
        payload = json.loads(serialize_report(report, "json"))
        row = payload["rows"][-1]
        assert row["g1"] == report.rows[-1].result.value
        assert payload["summary"]["metric0"]["mean"] == report.pooled.mean[0]

    def test_json_byte_deterministic(self):
        a = serialize_report(build_report(spike_panels()), "json")
        b = serialize_report(build_report(spike_panels()), "json")
        assert a == b

    def test_table_sections(self):
        text = serialize_report(build_report(spike_panels(), metric_names=["x", "y", "z"]), "table")
        assert "Summary statistics" in text
        assert "Correlation matrix" in text
        assert "Inequality by group" in text
        assert "gini_x" in text

    def test_table_three_decimals(self):
        text = serialize_report(build_report(spike_panels()), "table")
        assert " 0.800" in text

    def test_error_rows_serializable_everywhere(self):
        report = build_report(panelize(table(["bad"] * 5, [(1.0, i + 1.0) for i in range(5)])))
        for fmt in ("table", "csv", "json"):
            text = serialize_report(report, fmt)
            assert "singular" in text or "zero variance" in text

    def test_nan_correlation_becomes_null_in_json(self):
        bad = table(["bad"] * 5, [(1.0, i + 1.0) for i in range(5)])
        payload = json.loads(serialize_report(build_report(panelize(bad)), "json"))
        assert payload["correlation"][0][1] is None

    def test_unknown_format(self):
        with pytest.raises(DataError, match="format"):
            serialize_report(build_report(spike_panels()), "xml")

    def test_dict_key_order_stable(self):
        payload = report_to_dict(build_report(spike_panels()))
        assert list(payload) == ["p", "metrics", "summary", "correlation", "rows"]


def format_panels():
    """Four groups of four rows, one per kind of row a report can hold.

    "Korea, Republic of" is a plain row whose label needs CSV quoting;
    "flat" has a constant column, so no g1 and no weights, with a note;
    "signed" has negative entries, so the negativity flag; "zero mean" has a
    zero-mean column, so no metric Ginis (and at p = 1 no g1).  Within each
    group, and pooled, the columns are uncorrelated and the values dyadic,
    so the moments are exact and the whitening matrices diagonal.
    """
    groups = {
        "Korea, Republic of": [(1.0, 2.0), (3.0, 2.0), (1.0, 4.0), (3.0, 4.0)],
        "flat": [(0.5, 7.0), (0.5, 7.0), (1.5, 7.0), (1.5, 7.0)],
        "signed": [(-1.0, 1.0), (3.0, 1.0), (-1.0, 5.0), (3.0, 5.0)],
        "zero mean": [(-1.0, 2.0), (1.0, 2.0), (-1.0, 4.0), (1.0, 4.0)],
    }
    return PanelSet(
        groups={label: WeightedSample(rows) for label, rows in groups.items()},
        pooled=WeightedSample([row for rows in groups.values() for row in rows]),
    )


_EXPECTED_P1_TABLE = """\
Summary statistics (pooled)
metric                       mean           std
cap                     1.000e+00     1.436e+00
employees_worldwide     4.000e+00     2.121e+00

Correlation matrix (pooled)
                          cap  employees_worldwide
cap                     1.000     0.000
employees_worldwide     0.000     1.000

Inequality by group
group                    n    gini_cap  gini_employees_worldwide        g1     w_cap  w_employees_worldwide  note
Korea, Republic of       4       0.250                     0.167     0.200     0.400                  0.600
flat                     4       0.250                     0.000         -         -                      -  zero variance in component(s) [1]; correlation whitening is undefined
signed                   4       1.000                     0.333     0.500     0.250                  0.750  negativity
zero mean                4           -                         -         -         -                      -  undefined inequality for zero-mean component; whitened component(s) [0] have zero mean; their one-dimensional index is undefined
All                     16       0.797                     0.297     0.432     0.270                  0.730  negativity
"""


_EXPECTED_P1_CSV = """\
group,n,gini_cap,gini_employees_worldwide,g1,weight_cap,weight_employees_worldwide,negativity_warning,error
"Korea, Republic of",4,0.25,0.16666666666666666,0.2,0.4,0.6,false,
flat,4,0.25,0.0,,,,false,zero variance in component(s) [1]; correlation whitening is undefined
signed,4,1.0,0.3333333333333333,0.5,0.25,0.75,true,
zero mean,4,,,,,,false,undefined inequality for zero-mean component; whitened component(s) [0] have zero mean; their one-dimensional index is undefined
All,16,0.796875,0.296875,0.43171811591147263,0.26968623182294527,0.7303137681770547,true,
"""


_EXPECTED_P1_JSON = """\
{
  "p": 1.0,
  "metrics": [
    "cap",
    "employees_worldwide"
  ],
  "summary": {
    "cap": {
      "mean": 1.0,
      "std": 1.4361406616345072
    },
    "employees_worldwide": {
      "mean": 4.0,
      "std": 2.1213203435596424
    }
  },
  "correlation": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.0
    ]
  ],
  "rows": [
    {
      "group": "Korea, Republic of",
      "n": 4,
      "gini": {
        "cap": 0.25,
        "employees_worldwide": 0.16666666666666666
      },
      "g1": 0.2,
      "weights": {
        "cap": 0.4,
        "employees_worldwide": 0.6
      },
      "negativity_warning": false,
      "error": null
    },
    {
      "group": "flat",
      "n": 4,
      "gini": {
        "cap": 0.25,
        "employees_worldwide": 0.0
      },
      "g1": null,
      "weights": null,
      "negativity_warning": false,
      "error": "zero variance in component(s) [1]; correlation whitening is undefined"
    },
    {
      "group": "signed",
      "n": 4,
      "gini": {
        "cap": 1.0,
        "employees_worldwide": 0.3333333333333333
      },
      "g1": 0.5,
      "weights": {
        "cap": 0.25,
        "employees_worldwide": 0.75
      },
      "negativity_warning": true,
      "error": null
    },
    {
      "group": "zero mean",
      "n": 4,
      "gini": null,
      "g1": null,
      "weights": null,
      "negativity_warning": false,
      "error": "undefined inequality for zero-mean component; whitened component(s) [0] have zero mean; their one-dimensional index is undefined"
    },
    {
      "group": "All",
      "n": 16,
      "gini": {
        "cap": 0.796875,
        "employees_worldwide": 0.296875
      },
      "g1": 0.43171811591147263,
      "weights": {
        "cap": 0.26968623182294527,
        "employees_worldwide": 0.7303137681770547
      },
      "negativity_warning": true,
      "error": null
    }
  ]
}
"""


_EXPECTED_P2_TABLE = """\
Summary statistics (pooled)
metric                       mean           std
cap                     1.000e+00     1.436e+00
employees_worldwide     4.000e+00     2.121e+00

Correlation matrix (pooled)
                          cap  employees_worldwide
cap                     1.000     0.000
employees_worldwide     0.000     1.000

Inequality by group
group                    n    gini_cap  gini_employees_worldwide        g1     w_cap  w_employees_worldwide  note
Korea, Republic of       4       0.250                     0.167     0.237         -                      -
flat                     4       0.250                     0.000         -         -                      -  zero variance in component(s) [1]; correlation whitening is undefined
signed                   4       1.000                     0.333     0.540         -                      -  negativity
zero mean                4           -                         -     0.285         -                      -  undefined inequality for zero-mean component
All                     16       0.797                     0.297     0.441         -                      -  negativity
"""


_EXPECTED_P2_CSV = """\
group,n,gini_cap,gini_employees_worldwide,g1,weight_cap,weight_employees_worldwide,negativity_warning,error
"Korea, Republic of",4,0.25,0.16666666666666666,0.2367331166253993,,,false,
flat,4,0.25,0.0,,,,false,zero variance in component(s) [1]; correlation whitening is undefined
signed,4,1.0,0.3333333333333333,0.5398345637668168,,,true,
zero mean,4,,,0.2845177968644246,,,true,undefined inequality for zero-mean component
All,16,0.796875,0.296875,0.4414779013275652,,,true,
"""


_EXPECTED_P2_JSON = """\
{
  "p": 2.0,
  "metrics": [
    "cap",
    "employees_worldwide"
  ],
  "summary": {
    "cap": {
      "mean": 1.0,
      "std": 1.4361406616345072
    },
    "employees_worldwide": {
      "mean": 4.0,
      "std": 2.1213203435596424
    }
  },
  "correlation": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.0
    ]
  ],
  "rows": [
    {
      "group": "Korea, Republic of",
      "n": 4,
      "gini": {
        "cap": 0.25,
        "employees_worldwide": 0.16666666666666666
      },
      "g1": 0.2367331166253993,
      "weights": null,
      "negativity_warning": false,
      "error": null
    },
    {
      "group": "flat",
      "n": 4,
      "gini": {
        "cap": 0.25,
        "employees_worldwide": 0.0
      },
      "g1": null,
      "weights": null,
      "negativity_warning": false,
      "error": "zero variance in component(s) [1]; correlation whitening is undefined"
    },
    {
      "group": "signed",
      "n": 4,
      "gini": {
        "cap": 1.0,
        "employees_worldwide": 0.3333333333333333
      },
      "g1": 0.5398345637668168,
      "weights": null,
      "negativity_warning": true,
      "error": null
    },
    {
      "group": "zero mean",
      "n": 4,
      "gini": null,
      "g1": 0.2845177968644246,
      "weights": null,
      "negativity_warning": true,
      "error": "undefined inequality for zero-mean component"
    },
    {
      "group": "All",
      "n": 16,
      "gini": {
        "cap": 0.796875,
        "employees_worldwide": 0.296875
      },
      "g1": 0.4414779013275652,
      "weights": null,
      "negativity_warning": true,
      "error": null
    }
  ]
}
"""


class TestSerializedBytes:
    """Every byte of each format, the table's widths and "-" cells and the CSV's empty cells too.

    The second metric name is wider than the default column.  The pooled
    g1 at p = 2 comes from the double sum's BLAS dot products, whose last
    digit depends on the BLAS kernel: the expected digits are those of
    OpenBLAS's FMA kernels (Haswell and later); its pre-FMA kernels
    (OPENBLAS_CORETYPE=Sandybridge) print 0.44147790132756515.
    """

    @pytest.mark.parametrize(
        "p, fmt, expected",
        [
            (1.0, "table", _EXPECTED_P1_TABLE),
            (1.0, "csv", _EXPECTED_P1_CSV),
            (1.0, "json", _EXPECTED_P1_JSON),
            (2.0, "table", _EXPECTED_P2_TABLE),
            (2.0, "csv", _EXPECTED_P2_CSV),
            (2.0, "json", _EXPECTED_P2_JSON),
        ],
    )
    def test_serialized_report(self, p, fmt, expected):
        report = build_report(format_panels(), p, metric_names=["cap", "employees_worldwide"])
        assert serialize_report(report, fmt) == expected
