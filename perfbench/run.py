"""Benchmark of the multigini command line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload report-panel --seed 1 --seconds 36 --trace 0

Each workload is a closed loop with one client: this process spawns one
``multigini`` child at a time (``python -m multigini`` with ``src/`` on the
path), waits for it, checks its output against an independent numpy
reference, and only then spawns the next.  ``--trace 0`` measures the
end-to-end metrics with nothing instrumented; ``--trace 1`` adds an
in-process run that calls the CLI's public functions in the CLI's order
with spans around them and reports the per-layer metrics.  The last line
of standard output is one JSON object with the run's result.  See
README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child, so
# that no op runs more compute threads than the machine has cores.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.MAKERS)


def e2e_run(workload, checker, args, workdir: str, env: dict, bench_setup_s: float) -> int:
    rng = np.random.default_rng([args.seed, 99])
    loop = harness.cli_loop(workload, checker, args.seconds, rng, workdir, env)
    ops = loop["ops"]
    times = [o["seconds"] for o in ops]
    failed = sum(o["failure"] is not None for o in ops)
    p50 = statistics.median(times)
    setup_s = statistics.median(loop["setup"])
    peak = max(loop["setup_rss_mb"], *(o["rss_mb"] for o in ops))
    tail_info = harness.tail(times)
    metrics = {
        "op_s.p50": harness.metric(p50, "s"),
        "setup_s": harness.metric(setup_s, "s"),
        "peak_rss_mb": harness.metric(peak, "MB"),
    }
    lines = [f"workload {workload.name}: closed loop, 1 client, {len(ops)} ops in "
             f"{loop['elapsed']:.1f} s, {loop['children_per_op']} child(ren) per op",
             f"op_s.p50 {p50:.4f} s (throughput {1.0 / p50:.4f} ops/s)"]
    if tail_info is None:
        lines.append(f"op_s.tail unavailable: {len(ops)} ops, a tail above the median with "
                     f"{harness.TAIL_BEYOND} ops beyond it needs {2 * harness.TAIL_BEYOND}")
    else:
        pct, value = tail_info
        lines.append(f"op_s.tail {value:.4f} s at p{pct:.1f} "
                     f"({harness.TAIL_BEYOND} of {len(ops)} ops beyond)")
    lines += [f"setup_s {setup_s:.4f} s (median of {len(loop['setup'])} `multigini --help`, "
              "one after each op)",
              f"peak_rss_mb {peak:.1f} MB",
              f"failed_frac {failed / len(ops):.4f} ({failed} of {len(ops)} ops)",
              f"bench_setup_s {bench_setup_s:.2f} s (inputs and references, not a metric)"]
    lines += [f"failure: {o['failure']}" for o in ops if o["failure"]][:3]
    record = {"workload": workload.name, "seed": args.seed, "trace": 0,
              "ops": ops, "setup_children_s": loop["setup"], "metrics": metrics}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    harness.emit(result, lines, record, f"run-{workload.name}-seed{args.seed}.json")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("value", "dropped"), default=None,
                        help="self-check: corrupt what is compared, so every op must fail")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(harness.SRC, "multigini", "__init__.py")):
        print(f"perfbench: no program source at {harness.SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(harness.ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        env = harness.child_env()
        start = time.perf_counter()
        names = [args.workload] + ([w for w in WORKLOADS if w != args.workload] if args.trace else [])
        cases = {}
        for name in names:
            workload = workloads.MAKERS[name](args.seed, workdir)
            cases[name] = (workload, reference.Checker(
                workload, reference.build_reference(workload), args.tamper))
        bench_setup_s = time.perf_counter() - start
        workload, checker = cases[args.workload]
        if args.trace:
            return tracing.traced_run(cases, args, workdir, env, bench_setup_s)
        return e2e_run(workload, checker, args, workdir, env, bench_setup_s)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
