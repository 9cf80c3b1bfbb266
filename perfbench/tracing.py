"""In-process traced replay of the CLI's call sequence.

The CLI is not instrumented.  Instead the traced run calls the same public
functions that ``multigini report`` and ``multigini gini`` call, in the same
order, and records a span around each call.  Calls those functions make
into other layers are recorded by temporarily rebinding the names the
calling module looks up (``multigini.report.moments`` and so on) to
span-recording wrappers; the bindings are restored after every traced op,
so untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import harness
import reference
import workloads


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts of every traced op, kept in memory until the run ends."""

    spans: list = field(default_factory=list)
    counts: list = field(default_factory=list)   # one dict per op
    _stack: list = field(default_factory=list)
    op: int = -1

    def begin_op(self) -> None:
        self.op += 1
        self.counts.append({})

    def count(self, name: str) -> None:
        ops = self.counts[self.op]
        ops[name] = ops.get(name, 0) + 1

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()
            self.count(name + ".calls")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
            "counts": self.counts,
        }


def self_seconds(spans: list, index: int) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    span = spans[index]
    children = sorted((s.start, s.end) for s in spans if s.parent == index)
    covered, reach = 0.0, span.start
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.seconds - covered


# (module, attribute, span name) rebound while an op is traced.  These are
# the names report.py and gini.py look up when panelize, build_report,
# gini_p and gini_1_decomposed run.
_NESTED = (
    ("multigini.report", "WeightedSample", "sample.weighted_sample"),
    ("multigini.report", "moments", "sample.moments"),
    ("multigini.report", "gini_1d", "gini.gini_1d"),
    ("multigini.report", "gini_1_decomposed", "gini.gini_1_decomposed"),
    ("multigini.gini", "moments", "sample.moments"),
    ("multigini.gini", "fit_whitening", "whitening.fit"),
    ("multigini.gini", "gini_1d", "gini.gini_1d"),
)


class Instrumented:
    """Context manager that rebinds the nested-call names to traced wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._targets = []
        for module_name, attr, span in _NESTED:
            module = importlib.import_module(module_name)
            self._targets.append((module, attr, span, getattr(module, attr)))

    def __enter__(self):
        for module, attr, span, fn in self._targets:
            setattr(module, attr, self.tracer.wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, _, fn in self._targets:
            setattr(module, attr, fn)
        return False


def replay_whitening(samples) -> float:
    """Seconds spent replaying the whitening product of each sample.

    gini_p and gini_1_decomposed whiten inline with
    ``sample.points @ transform.matrix.T``, so that step has no call of its
    own to span.  This times the same expression, after the op and outside
    its spans, with the transform each of them fits (zca_cor).  It is a
    replay: a change to how gini_p whitens inline does not move it.
    """
    from multigini import fit_whitening, moments

    total = 0.0
    for sample in samples:
        transform = fit_whitening("zca_cor", moments(sample))
        start = time.perf_counter()
        sample.points @ transform.matrix.T
        total += time.perf_counter() - start
    return total


# ----------------------------------------------------------- traced ops

def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def report_op(mg, call, workload) -> tuple:
    """What ``multigini report --p 1 --format json`` does after parsing its flags."""
    columns = list(workload.columns)
    records, dropped = call("report.load_csv", mg.report.load_csv, workload.csv_path, columns,
                            group_column="group", name_column="name")
    panels = call("report.panelize", mg.report.panelize, records, min_group_size=2)
    report = call("report.build_report", mg.report.build_report, panels, p=1.0,
                  metric_names=columns)
    text = call("report.serialize_report", mg.report.serialize_report, report, "json")
    info = {"report.load_csv": (len(records) + dropped, dropped),
            "whitened": [*panels.groups.values(), panels.pooled]}
    return [(text, f"dropped rows: {dropped}\n")], info


def gini_op(mg, call, workload, op_seed: int) -> tuple:
    """What one ``multigini gini`` op of the workload does after parsing its flags."""
    if workload.name == "gini-exact":
        runs = [("gini.exact_p1", 1.0, {"estimator": "exact", "threads": harness.EXACT_THREADS}),
                ("gini.exact_p2", 2.0, {"estimator": "exact", "threads": harness.EXACT_THREADS})]
    else:
        runs = [("gini.pairs", 2.0, {"estimator": "pairs", "pairs": workloads.PAIRS_PER_OP,
                                     "seed": op_seed, "threads": os.cpu_count() or 1})]
    outputs, rows, dropped, whitened = [], 0, 0, []
    for span, p, kwargs in runs:
        matrix, lost = call("report.load_metric_columns", mg.report.load_metric_columns,
                            workload.csv_path, list(workload.columns))
        sample = call("sample.weighted_sample", mg.WeightedSample, matrix)
        result = call(span, mg.gini.gini_p, sample, p, method="zca_cor", **kwargs)
        outputs.append((json.dumps(result.to_dict(), indent=2),
                        f"dropped rows: {lost}\n" if lost else ""))
        rows += matrix.shape[0] + lost
        dropped += lost
        whitened.append(sample)
    info = {"report.load_metric_columns": (rows, dropped), "whitened": whitened,
            "n": sample.n}
    return outputs, info


def run_op(mg, call, workload, op_seed: int) -> tuple:
    if workload.name == "report-panel":
        return report_op(mg, call, workload)
    return gini_op(mg, call, workload, op_seed)


# --------------------------------------------------------- layer metrics

SPAN_METRICS = (
    "report.load_csv", "report.load_metric_columns", "report.panelize", "report.build_report",
    "report.serialize_report", "sample.weighted_sample", "sample.moments", "whitening.fit",
    "gini.gini_1d", "gini.gini_1_decomposed", "gini.exact_p1", "gini.exact_p2", "gini.pairs",
)
# Where a metric's call is not on the traced workload's own path, its value
# comes from the first of these workloads whose op makes the call.
FALLBACK_ORDER = ("gini-pairs", "report-panel", "gini-exact")
# Layer metrics each workload's own ops must yield (the README's table).
_SHARED_PATH = ("sample.weighted_sample_s", "sample.moments_s", "sample.moments.calls",
                "whitening.fit_s", "whitening.apply_s")
_GINI_READER = ("report.load_metric_columns_s", "report.load_metric_columns.rows_per_s",
                "report.load_metric_columns.dropped")
OWN_PATH = {
    "report-panel": ("report.load_csv_s", "report.load_csv.rows_per_s", "report.load_csv.dropped",
                     "report.panelize_s", "report.build_report_s", "report.build_report.self_s",
                     "report.serialize_report_s", *_SHARED_PATH, "gini.gini_1d_s",
                     "gini.gini_1d.calls", "gini.gini_1_decomposed_s"),
    "gini-exact": (*_GINI_READER, *_SHARED_PATH, "gini.exact_p1_s", "gini.exact_p2_s",
                   "gini.exact.pairs_per_s"),
    "gini-pairs": (*_GINI_READER, *_SHARED_PATH, "gini.pairs_s", "gini.pairs.pairs_per_s"),
}
# Derived once per run rather than per traced op.
RUN_METRICS = ("gini.exact_threads1_s", "gini.exact.parallel_eff", "cli.self_s",
               "trace.overhead_s")
COUNT_METRICS = ("sample.moments.calls", "gini.gini_1d.calls")
LAYER_METRICS = (
    ("report.load_csv_s", "s"), ("report.load_csv.rows_per_s", "1/s"),
    ("report.load_csv.dropped", "count"),
    ("report.load_metric_columns_s", "s"), ("report.load_metric_columns.rows_per_s", "1/s"),
    ("report.load_metric_columns.dropped", "count"),
    ("report.panelize_s", "s"), ("report.build_report_s", "s"),
    ("report.build_report.self_s", "s"), ("report.serialize_report_s", "s"),
    ("sample.weighted_sample_s", "s"), ("sample.moments_s", "s"), ("sample.moments.calls", "count"),
    ("whitening.fit_s", "s"), ("whitening.apply_s", "s"),
    ("gini.gini_1d_s", "s"), ("gini.gini_1d.calls", "count"), ("gini.gini_1_decomposed_s", "s"),
    ("gini.exact_p1_s", "s"), ("gini.exact_p2_s", "s"), ("gini.exact.pairs_per_s", "1/s"),
    ("gini.exact_threads1_s", "s"), ("gini.exact.parallel_eff", "ratio"),
    ("gini.pairs_s", "s"), ("gini.pairs.pairs_per_s", "1/s"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)


def op_layer_metrics(tracer: Tracer, op: int, info: dict, whitening_s: float) -> dict:
    """Per-layer figures of one traced op, for the spans and counts it recorded."""
    spans = tracer.spans
    indices = [i for i, s in enumerate(spans) if s.op == op]
    totals = {}
    for i in indices:
        totals[spans[i].name] = totals.get(spans[i].name, 0.0) + spans[i].seconds
    out = {f"{name}_s": totals[name] for name in SPAN_METRICS if name in totals}
    out.update({name: tracer.counts[op][name] for name in COUNT_METRICS
                if name in tracer.counts[op]})
    for reader in ("report.load_csv", "report.load_metric_columns"):
        if reader in info and reader in totals:
            rows, dropped = info[reader]
            out[f"{reader}.rows_per_s"] = rows / totals[reader]
            out[f"{reader}.dropped"] = dropped
    if "report.build_report" in totals:
        out["report.build_report.self_s"] = sum(
            self_seconds(spans, i) for i in indices if spans[i].name == "report.build_report")
    if "gini.exact_p1" in totals and "gini.exact_p2" in totals:
        out["gini.exact.pairs_per_s"] = (
            2 * info["n"] ** 2 / (totals["gini.exact_p1"] + totals["gini.exact_p2"]))
    if "gini.pairs" in totals:
        out["gini.pairs.pairs_per_s"] = workloads.PAIRS_PER_OP / totals["gini.pairs"]
    out["whitening.apply_s"] = whitening_s
    return out


# ------------------------------------------------------------ the run

def _check(checker, outputs) -> str | None:
    try:
        checker.check(outputs)
    except (reference.Mismatch, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def traced_run(cases: dict, args, workdir: str, env: dict, bench_setup_s: float) -> int:
    """Per-layer metrics of ``args.workload``, with one traced op of every other pipeline.

    For ``args.seconds`` the run repeats a cycle of four steps: one
    untraced CLI op, one setup child, one untraced in-process op and one
    traced in-process op.  cli.self_s and trace.overhead_s are medians of
    per-cycle differences, so slow stretches of the host hit both sides of
    each difference.  Then each other workload's op is traced once, so that
    every layer metric is a measurement in every run.  A metric on this
    workload's own path (OWN_PATH) must come from its own ops; the others
    come from the first workload in FALLBACK_ORDER whose op makes the
    call, and the run records which one.
    """
    sys.path.insert(0, harness.SRC)
    import multigini as mg

    own, checker = cases[args.workload]
    rng = np.random.default_rng([args.seed, 98])
    tracer = Tracer()
    instrumented = Instrumented(tracer)
    layer_ops = {name: [] for name in cases}
    failures = []

    def plain_op(workload, chk):
        start = time.perf_counter()
        outputs, _ = run_op(mg, _plain, workload, int(rng.integers(2**31)))
        seconds = time.perf_counter() - start
        failures.append(_check(chk, outputs))
        return seconds

    def traced_op(workload, chk):
        tracer.begin_op()
        with instrumented:
            start = time.perf_counter()
            outputs, info = run_op(mg, tracer.call, workload, int(rng.integers(2**31)))
            seconds = time.perf_counter() - start
        failures.append(_check(chk, outputs))
        whitening_s = replay_whitening(info["whitened"])
        layer_ops[workload.name].append(op_layer_metrics(tracer, tracer.op, info, whitening_s))
        return seconds

    harness.setup_child(workdir, env)   # warm-up: bytecode, page cache
    plain_op(own, checker)              # warm-up: lazy imports
    failures.clear()
    cycles = []     # (CLI op, setup child, in-process op, traced op) seconds
    start = time.perf_counter()
    while True:
        op, children_per_op = harness.cli_op(own, checker, int(rng.integers(2**31)),
                                             workdir, env)
        failures.append(op["failure"])
        setup_s = harness.setup_child(workdir, env)["seconds"]
        cycles.append((op["seconds"], setup_s, plain_op(own, checker),
                       traced_op(own, checker)))
        cycle_s = statistics.median(sum(c) for c in cycles)
        if time.perf_counter() - start + cycle_s > args.seconds:
            break
    sources = [own.name] + [n for n in FALLBACK_ORDER if n != own.name]
    for name in sources[1:]:
        traced_op(*cases[name])

    exact, _ = cases["gini-exact"]
    matrix, _ = mg.report.load_metric_columns(exact.csv_path, list(exact.columns))
    sample = mg.WeightedSample(matrix)
    start = time.perf_counter()
    mg.gini_p(sample, 2.0, method="zca_cor", estimator="exact", threads=1)
    threads1_s = time.perf_counter() - start

    layer, source_of = {}, {}
    for name, _ in LAYER_METRICS:
        if name in RUN_METRICS:
            continue
        for source in sources:
            values = [m[name] for m in layer_ops[source] if name in m]
            if values:
                layer[name] = statistics.median(values)
                source_of[name] = source
                break
        if source_of.get(name) != own.name and name in OWN_PATH[own.name]:
            raise harness.BenchError(
                f"{name} is on the {own.name} path, but its traced ops did not yield it "
                f"(found in: {source_of.get(name, 'no workload')})")
        if name not in layer:
            raise harness.BenchError(f"no traced op yielded {name}")
    layer["gini.exact_threads1_s"] = threads1_s
    layer["gini.exact.parallel_eff"] = threads1_s / (harness.EXACT_THREADS * layer["gini.exact_p2_s"])
    layer["cli.self_s"] = statistics.median(
        cli - children_per_op * setup - plain for cli, setup, plain, _ in cycles)
    layer["trace.overhead_s"] = statistics.median(traced - plain for *_, plain, traced in cycles)
    source_of.update({name: "this run" for name in RUN_METRICS})
    metrics = {name: harness.metric(layer[name], unit) for name, unit in LAYER_METRICS}

    failed = sum(f is not None for f in failures)
    medians = [statistics.median(c[k] for c in cycles) for k in range(4)]
    lines = [f"traced run of {own.name}: {len(cycles)} cycles; median seconds: CLI op "
             f"{medians[0]:.4f}, setup child {medians[1]:.4f}, in-process op {medians[2]:.4f}, "
             f"traced op {medians[3]:.4f}; then one traced op each of "
             + ", ".join(n for n in sources[1:])]
    lines += [f"{name} {metrics[name]['value']:.6g} {unit}  [{source_of[name]}]"
              for name, unit in LAYER_METRICS]
    lines += [f"failed_frac {failed / len(failures):.4f} ({failed} of {len(failures)} ops)",
              f"bench_setup_s {bench_setup_s:.2f} s (inputs and references, not a metric)"]
    lines += [f"failure: {f}" for f in failures if f][:3]
    record = {"workload": own.name, "seed": args.seed, "trace": 1, "cycles": cycles,
              "layer_ops": layer_ops, "metrics": metrics, "metric_sources": source_of,
              **tracer.to_json()}
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": metrics}
    harness.emit(result, lines, record, f"trace-{own.name}-seed{args.seed}.json")
    return 0 if failed == 0 else 1
