"""Acceptance gate: every bundled correctness criterion at its stated tolerance.

Runs the shared verification checks once (the same set `multigini verify`
exposes) and asserts each one, printing a pass/fail line with the measured
values and elapsed time per criterion.  Run with ``pytest -v -s`` to see
the per-criterion lines.
"""

import math
import re

import pytest

from multigini import DataError
from multigini.verify import CHECKS, run_checks

CHECK_NAMES = [name for name, _ in CHECKS]


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in run_checks()}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_criterion(name, results):
    result = results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail} [{result.seconds:.2f}s]")
    assert result.passed, f"{result.name}: {result.detail}"


def test_every_check_has_unique_name():
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES) == 11


def test_unknown_check_name_is_data_error():
    with pytest.raises(DataError, match="unknown check"):
        run_checks(names=["nope"])


def test_empty_check_list_is_data_error():
    with pytest.raises(DataError, match="no check names given"):
        run_checks(names=[])


def test_negative_seed_is_data_error():
    with pytest.raises(DataError, match="seed must be >= 0, got -20"):
        run_checks(seed=-20)


@pytest.mark.parametrize("seed", [1.5, math.nan, "3"])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(DataError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        run_checks(seed=seed, names=["reference-eigenvalues"])
