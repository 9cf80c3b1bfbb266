"""Child processes, the closed loop, the environment record and result output."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5          # fewest `multigini --help` children per run; setup_s is their median
TAIL_BEYOND = 10        # the tail percentile needs this many ops beyond it
EXACT_THREADS = 2


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


# ---------------------------------------------------------------- children

def child_env() -> dict:
    """The benchmark's own environment (thread pools already pinned) with src/ on the path."""
    return dict(os.environ, PYTHONPATH=SRC)


def run_child(args: list, workdir: str, env: dict) -> dict:
    """Spawn one ``multigini`` child, wait for it, and read its usage with wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "multigini", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8") as handle:
        stderr = handle.read()
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "stdout": stdout, "stderr": stderr}


def op_commands(workload, op_seed: int) -> list:
    """The CLI argument lists of one op of ``workload``."""
    csv_args = ["--input", workload.csv_path, "--columns", ",".join(workload.columns)]
    if workload.name == "report-panel":
        return [["report", *csv_args, "--p", "1", "--format", "json"]]
    if workload.name == "gini-exact":
        return [["gini", *csv_args, "--threads", str(EXACT_THREADS), "--p", p, "--format", "json"]
                for p in ("1", "2")]
    return [["gini", *csv_args, "--p", "2", "--estimator", "pairs",
             "--pairs", str(workloads.PAIRS_PER_OP), "--seed", str(op_seed), "--format", "json"]]


def setup_child(workdir: str, env: dict) -> dict:
    """One child that only imports multigini and builds the parser."""
    child = run_child(["--help"], workdir, env)
    if child["code"] != 0:
        raise BenchError(f"`multigini --help` failed:\n{child['stderr']}")
    return child


def cli_op(workload, checker, op_seed: int, workdir: str, env: dict) -> tuple:
    """One op: its children, back to back, and the check of their outputs."""
    children = [run_child(args, workdir, env) for args in op_commands(workload, op_seed)]
    failure = None
    if any(c["code"] != 0 for c in children):
        bad = next(c for c in children if c["code"] != 0)
        failure = f"exit {bad['code']}: {bad['stderr'].strip()[-300:]}"
    else:
        try:
            checker.check([(c["stdout"], c["stderr"]) for c in children])
        except (reference.Mismatch, ValueError, KeyError, TypeError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
    op = {"seconds": sum(c["seconds"] for c in children),
          "rss_mb": max(c["rss_mb"] for c in children),
          "failure": failure}
    return op, len(children)


def cli_loop(workload, checker, seconds: float, rng, workdir: str, env: dict) -> dict:
    """Closed loop: ops back to back until the next one would overrun ``seconds``.

    One setup child follows every op, so that setup_s samples the same
    stretch of time as the ops; after the loop the setup children are
    topped up to SETUP_REPS.
    """
    ops, setups = [], []
    setup_child(workdir, env)  # compiles bytecode and fills the page cache
    start = time.perf_counter()
    while True:
        op, children_per_op = cli_op(workload, checker, int(rng.integers(2**31)), workdir, env)
        ops.append(op)
        setups.append(setup_child(workdir, env))
        elapsed = time.perf_counter() - start
        step = (statistics.median(o["seconds"] for o in ops)
                + statistics.median(c["seconds"] for c in setups))
        if elapsed + step > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(setup_child(workdir, env))
    return {"ops": ops, "elapsed": elapsed, "children_per_op": children_per_op,
            "setup": [c["seconds"] for c in setups],
            "setup_rss_mb": max(c["rss_mb"] for c in setups)}


def tail(values: list) -> tuple | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops beyond it.

    None when that percentile would not lie above the median, that is when
    the run has fewer than 2 * TAIL_BEYOND ops.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND          # ops at or below the tail value
    return 100.0 * k / n, sorted(values)[k - 1]


# ------------------------------------------------------------- environment

def environment() -> dict:
    """nproc, CPU model, cache sizes, library versions and thread-pool variables."""
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }
    try:
        record["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        record["scipy"] = "not installed"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as handle:
                    fields[key] = handle.read().strip()
            record["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return record


# ------------------------------------------------------------------ output

def emit(result: dict, lines: list, record: dict, record_name: str) -> None:
    """Write the run record under OUT, then print the lines and, last, the result."""
    env = environment()
    record = {"environment": env, **record}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, record_name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    caches = ", ".join(f"{k} {v}" for k, v in env["caches"].items())
    lines = [*lines,
             f"environment: nproc {env['nproc']}, {env['cpu_model']}; caches {caches}; "
             f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
             f"thread pools pinned to 1 ({', '.join(sorted(env['thread_env']))})"]
    for line in lines:
        print(line)
    print(json.dumps(result))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
