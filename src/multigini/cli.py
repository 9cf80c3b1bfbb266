"""Command line interface.

Subcommands: summary, corr, gini, whiten, report, verify.  Exit codes are a
stable contract: 0 success, 1 usage error, 2 data error, 3 numerical error.
Every command is deterministic given its flags and seed; the thread count
never changes a printed value.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DataError, NumericalError
from .gini import DEFAULT_EXACT_CAP, ESTIMATORS, gini_p
from .report import (
    build_report,
    correlation_json,
    correlation_lines,
    load_csv,
    load_metric_columns,
    panelize,
    serialize_report,
    summary_json,
    summary_lines,
)
from .sample import WeightedSample, moments
from .whitening import METHODS, SCALE_STABLE_METHODS, fit_whitening, scale_stability_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _method_flags(methods) -> dict[str, str]:
    """Each whitening method's ``--method`` flag, hyphenated, mapped to its name."""
    return {method.replace("_", "-"): method for method in methods}


_METHOD_FLAGS = _method_flags(METHODS)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1.

    argparse reads only plain negative numbers such as ``-2`` as values;
    here ``-inf``, ``-Infinity``, ``-nan`` and ``-1e3`` are values too, so
    ``--p -inf`` reaches the library's check on p like ``--p=-inf`` does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split(text: str) -> list[str]:
    """The non-blank items of a comma-separated list."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _load_sample(args) -> tuple[list[str], WeightedSample]:
    columns = _split(args.columns)
    matrix, dropped = load_metric_columns(args.input, columns)
    if dropped:
        print(f"dropped rows: {dropped}", file=sys.stderr)
    return columns, WeightedSample(matrix)


def cmd_summary(args) -> int:
    columns, sample = _load_sample(args)
    m = moments(sample)
    if args.format == "json":
        print(json.dumps({"n": sample.n, "summary": summary_json(columns, m)}, indent=2))
        return EXIT_OK
    print(f"n: {sample.n}")
    print("\n".join(summary_lines(columns, m, max(len("metric"), *map(len, columns)))))
    return EXIT_OK


def cmd_corr(args) -> int:
    columns, sample = _load_sample(args)
    m = moments(sample)
    if args.format == "json":
        corr = correlation_json(m.correlation)
        print(json.dumps({"n": sample.n, "columns": columns, "correlation": corr}, indent=2))
        return EXIT_OK
    print("\n".join(correlation_lines(columns, m.correlation, max(map(len, columns)))))
    return EXIT_OK


def cmd_gini(args) -> int:
    columns, sample = _load_sample(args)
    result = gini_p(
        sample,
        args.p,
        method=_METHOD_FLAGS[args.method],
        estimator=args.estimator,
        pairs=args.pairs,
        seed=args.seed,
        exact_cap=args.exact_cap,
        threads=args.threads,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return EXIT_OK
    print(f"p: {result.p:g}")
    print(f"method: {args.method}")
    print(f"estimator: {result.estimator}")
    if result.estimator == "pairs":
        print(f"seed: {result.seed}")
        print(f"pairs: {result.pair_count}")
        print(f"std_error: {result.std_error:.6e}")
    print(f"value: {result.value:.12g}")
    print(f"normalizer: {result.normalizer:.12g}")
    if result.weights is not None:
        weights = ", ".join(f"{name}={w:.6f}" for name, w in zip(columns, result.weights))
        print(f"weights: {weights}")
    if result.negativity_warning:
        print(f"negativity warning: worst whitened entry {result.worst_negative:.6e}")
    return EXIT_OK


def cmd_whiten(args) -> int:
    _, sample = _load_sample(args)
    method = _METHOD_FLAGS[args.method]
    transform = fit_whitening(method, moments(sample))
    deviation = None
    if args.q is not None:
        deviation = scale_stability_check(method, sample, _split(args.q))
    if args.format == "json":
        payload = {
            "method": args.method,
            "matrix": [[float(v) for v in row] for row in transform.matrix],
            "whiteness_residual": transform.whiteness_residual,
            "scale_stability_deviation": deviation,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"method: {args.method}")
    print("whitening matrix:")
    for row in transform.matrix:
        print("  " + "  ".join(f"{v:>12.6f}" for v in row))
    print(f"whiteness residual: {transform.whiteness_residual:.6e}")
    if deviation is not None:
        print(f"scale stability deviation (q={args.q}): {deviation:.6e}")
    return EXIT_OK


def cmd_report(args) -> int:
    columns = _split(args.columns)
    table, dropped = load_csv(args.input, columns, group_column=args.group_column)
    if dropped:
        print(f"dropped rows: {dropped}", file=sys.stderr)
    panels = panelize(table, min_group_size=args.min_group_size)
    report = build_report(panels, p=args.p, metric_names=columns)
    text = serialize_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: verify brings synth and subprocess, which no other command needs
    from .verify import DEFAULT_SEED, run_checks

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = None if args.checks is None else _split(args.checks)
    results = run_checks(seed=seed, tamper=args.tamper, names=names)
    print(f"seed: {seed}")
    if args.tamper:
        print("tamper mode: one tolerance deliberately made impossible")
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        print(f"{status} {result.name}: {result.detail}")
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _add_csv_flags(parser) -> None:
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--columns", required=True, help="comma-separated metric column names")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multigini", description="Scale-invariant multivariate Gini indices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="pooled mean and standard deviation per metric")
    _add_csv_flags(p_summary)
    p_summary.add_argument("--format", choices=("table", "json"), default="table")
    p_summary.set_defaults(func=cmd_summary)

    p_corr = sub.add_parser("corr", help="pooled correlation matrix")
    _add_csv_flags(p_corr)
    p_corr.add_argument("--format", choices=("table", "json"), default="table")
    p_corr.set_defaults(func=cmd_corr)

    p_gini = sub.add_parser("gini", help="multivariate Gini index of the metric columns")
    _add_csv_flags(p_gini)
    p_gini.add_argument("--p", default="1", help="index order, a real >= 1 or 'inf' (default 1)")
    p_gini.add_argument(
        "--method",
        choices=tuple(_method_flags(SCALE_STABLE_METHODS)),
        default="zca-cor",
        help="scale stable whitening to use (default zca-cor)",
    )
    p_gini.add_argument("--estimator", choices=ESTIMATORS, default="exact")
    p_gini.add_argument("--pairs", type=int, default=1_000_000, help="pair count for --estimator pairs")
    p_gini.add_argument("--seed", type=int, default=0, help="seed for --estimator pairs")
    p_gini.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP,
                        help="largest n the exact double sum (p != 1) accepts; exact p=1 is "
                             "O(n log n) and uncapped")
    p_gini.add_argument("--threads", type=int, default=None,
                        help="threads for the exact double sum, used only for p != 1, and "
                             "at most the CPUs this process may run on (default: all of "
                             "them; never changes printed values)")
    p_gini.add_argument("--format", choices=("table", "json"), default="table")
    p_gini.set_defaults(func=cmd_gini)

    p_whiten = sub.add_parser("whiten", help="fit a whitening transform and print diagnostics")
    _add_csv_flags(p_whiten)
    p_whiten.add_argument("--method", choices=tuple(_METHOD_FLAGS), default="zca-cor")
    p_whiten.add_argument("--q", default=None,
                          help="comma-separated positive scale factors; also report the "
                               "whitened-output deviation under this rescaling")
    p_whiten.add_argument("--format", choices=("table", "json"), default="table")
    p_whiten.set_defaults(func=cmd_whiten)

    p_report = sub.add_parser("report", help="grouped inequality report (table, csv or json)")
    _add_csv_flags(p_report)
    p_report.add_argument("--group-column", default="group")
    p_report.add_argument("--min-group-size", type=int, default=2)
    p_report.add_argument("--p", default="1", help="index order (default 1)")
    p_report.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_report.add_argument("--out", default=None, help="write to this path instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_verify = sub.add_parser("verify", help="run the bundled fixture and property checks")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--checks", default=None,
                          help="comma-separated subset of check names (default: all)")
    p_verify.add_argument("--tamper", action="store_true",
                          help="debug: make one tolerance impossible to prove the harness "
                               "detects failures")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"multigini: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"multigini: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
