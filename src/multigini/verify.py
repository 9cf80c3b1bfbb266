"""Self-contained verification checks over bundled fixtures and properties.

Each check exercises one contract of the library end to end, needs no
external data, and is deterministic for a fixed seed.  The CLI ``verify``
command prints one line per check; the acceptance test suite asserts them
individually.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError
from .gini import (
    _check_integers,
    _exact_mean_distance,
    _whitened,
    _whitened_mean_norm,
    gaussian_g1_closed_form,
    gini_1d,
    gini_1_decomposed,
    gini_p,
    usable_cpus,
)
from .sample import MomentSummary, WeightedSample, cholesky_lower, moments, sym_eigen
from .synth import (
    brute_force_gini_1d,
    brute_force_gini_p,
    gen_coinflip_cube,
    gen_gaussian,
    gen_spike_cube,
    pca_instability_fixture,
    rational_gini_1d,
    rational_mean_abs_difference,
    write_sample_csv,
)
from .whitening import METHODS, fit_whitening, scale_stability_check

DEFAULT_SEED = 20240


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_spd(rng, dim: int, ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a @ a.T + ridge * np.eye(dim)


def _random_sample(rng, dim: int, n: int, mean_scale: float = 2.0) -> WeightedSample:
    cov = _random_spd(rng, dim)
    mean = rng.uniform(1.0, 1.0 + mean_scale, dim) * rng.choice([-1.0, 1.0], dim)
    z = rng.standard_normal((n, dim))
    return WeightedSample(mean + z @ cholesky_lower(cov).T)


def _random_nonneg_sample(rng, dim: int, n: int, weighted: bool) -> WeightedSample:
    mu = rng.normal(0.0, 0.5, dim)
    points = rng.lognormal(mean=mu, sigma=0.6, size=(n, dim))
    weights = rng.random(n) + 0.05 if weighted else None
    return WeightedSample(points, weights)


def check_reference_eigenvalues(seed: int, tamper: bool) -> tuple[bool, str]:
    """Eigenvalues of the two fixture covariances match the 2-decimal references."""
    fixture = pca_instability_fixture()
    base_cov = moments(fixture.sample).covariance
    scaled_cov = np.asarray(fixture.expected["scaled_cov"])
    tol = 0.005
    err = 0.0
    for cov, key in ((base_cov, "eigenvalues_2dp"), (scaled_cov, "scaled_eigenvalues_2dp")):
        got = sym_eigen(cov).eigenvalues
        err = max(err, float(np.abs(got - fixture.expected[key]).max()))
    return err <= tol, f"max eigenvalue error {err:.3e} (tolerance {tol:g})"


def check_pca_instability_witness(seed: int, tamper: bool) -> tuple[bool, str]:
    """pca moves under rescaling on the fixture; cholesky and zca_cor do not."""
    fixture = pca_instability_fixture()
    sample = fixture.sample
    q = fixture.expected["scale"]
    dev_pca = scale_stability_check("pca", sample, q)
    dev_chol = scale_stability_check("cholesky", sample, q)
    dev_cor = scale_stability_check("zca_cor", sample, q)
    stable_tol = 1e-9
    pca_floor = float(fixture.expected["min_sup_deviation"])
    if tamper:
        # deliberately impossible: demands pca be scale stable
        ok = dev_pca <= stable_tol and dev_chol <= stable_tol and dev_cor <= stable_tol
    else:
        ok = dev_pca > pca_floor and dev_chol <= stable_tol and dev_cor <= stable_tol
    return ok, (
        f"pca deviation {dev_pca:.3e} (> {pca_floor:g}), "
        f"cholesky {dev_chol:.3e}, zca_cor {dev_cor:.3e} (<= {stable_tol:g})"
    )


def check_scale_stability_suite(seed: int, tamper: bool) -> tuple[bool, str]:
    """cholesky and zca_cor whitened samples are invariant under 100 random rescalings."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(dim + 2, 201))
        sample = _random_sample(rng, dim, n)
        q = np.exp(rng.uniform(np.log(0.1), np.log(10.0), dim))
        base = fit_whitening("zca_cor", moments(sample))
        scale = max(1.0, float(np.abs(base.apply(sample)).max()))
        for method in ("cholesky", "zca_cor"):
            dev = scale_stability_check(method, sample, q) / scale
            worst = max(worst, dev)
    return worst <= 1e-9, f"worst relative deviation {worst:.3e} over 100 trials (tolerance 1e-9)"


def _double_sum_g1(sample: WeightedSample) -> float:
    """G_1 by the pairwise double sum, independent of the per-component sort."""
    _, y, m_star = _whitened(sample, "zca_cor")
    return _exact_mean_distance(y, sample.weights, 1.0, 1) / (2.0 * float(np.abs(m_star).sum()))


def check_decomposition_identity(seed: int, tamper: bool) -> tuple[bool, str]:
    """Weighted component combination equals the direct pairwise index, 100 samples."""
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(dim + 2, 201))
        sample = _random_nonneg_sample(rng, dim, n, weighted=trial % 2 == 0)
        direct = _double_sum_g1(sample)
        decomposed = gini_1_decomposed(sample).value
        worst = max(worst, abs(direct - decomposed))
    return worst <= 1e-10, f"worst |decomposed - direct| {worst:.3e} over 100 samples (tolerance 1e-10)"


def check_spike_cube_exactness(seed: int, tamper: bool) -> tuple[bool, str]:
    """The rare-spike cube has index exactly 1 - p in every dimension."""
    worst = 0.0
    for p_hi in (0.01, 0.25, 0.5, 0.9):
        for dim in (1, 3):
            value = gini_p(gen_spike_cube(p_hi, dim), 1.0).value
            worst = max(worst, abs(value - (1.0 - p_hi)))
    return worst <= 1e-12, f"worst |G - (1-p)| {worst:.3e} (tolerance 1e-12)"


def check_coinflip_cube_shift(seed: int, tamper: bool) -> tuple[bool, str]:
    """The shifted coin-flip cube has index exactly 1 / (2 (1 + shift))."""
    worst = 0.0
    for shift in (0.0, 1.0, 9.0, 99.0):
        for dim in (1, 3):
            value = gini_p(gen_coinflip_cube(shift, dim), 1.0).value
            worst = max(worst, abs(value - 1.0 / (2.0 * (1.0 + shift))))
    return worst <= 1e-12, f"worst |G - 1/(2(1+M))| {worst:.3e} (tolerance 1e-12)"


def check_gaussian_closed_form_mc(seed: int, tamper: bool) -> tuple[bool, str]:
    """Pair-sampled vs exact G_1 of 1e5 Gaussian draws, and exact vs the closed form.

    The standard error covers pair sampling only, not the noise of the draws.
    """
    rng = np.random.default_rng(seed + 7)
    mean = np.array([2.0, 3.0, 4.0])
    cov = _random_spd(rng, 3, ridge=1.0)
    sample = gen_gaussian(mean, cov, 100_000, seed + 8)
    result = gini_p(sample, 1.0, estimator="pairs", pairs=10_000_000, seed=seed + 9)
    exact = gini_p(sample, 1.0).value
    closed = gaussian_g1_closed_form(mean, cov)
    gap = abs(result.value - exact)
    rel = abs(exact - closed) / closed
    ok = gap <= 4.0 * result.std_error and rel <= 0.01
    return ok, (
        f"mc {result.value:.6f} vs exact {exact:.6f}: gap {gap:.2e} <= 4*se "
        f"{4.0 * result.std_error:.2e}; exact vs closed form {closed:.6f}: "
        f"relative {rel:.2e} <= 1e-02"
    )


def check_rising_tide(seed: int, tamper: bool) -> tuple[bool, str]:
    """Adding a positive constant vector never increases the index (100 samples)."""
    rng = np.random.default_rng(seed + 10)
    worst = -math.inf
    for trial in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(dim + 2, 201))
        sample = _random_nonneg_sample(rng, dim, n, weighted=trial % 2 == 0)
        shift = rng.uniform(0.05, 3.0, dim)
        increase = gini_p(sample.shifted(shift), 1.0).value - gini_p(sample, 1.0).value
        worst = max(worst, increase)
    return worst <= 1e-12, f"worst index increase under positive shift {worst:.3e} (tolerance 1e-12)"


def check_oracle_equivalence(seed: int, tamper: bool) -> tuple[bool, str]:
    """Fast paths agree with the naive double-sum references."""
    rng = np.random.default_rng(seed + 11)
    worst_p = 0.0
    p_choices = (1.0, 1.5, 2.0, math.inf)
    for trial in range(50):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(40, 501))
        sample = _random_sample(rng, dim, n)
        p = p_choices[trial % len(p_choices)]
        transform = fit_whitening("zca_cor", moments(sample))
        fast = gini_p(sample, p).value
        reference = brute_force_gini_p(sample, p, transform)
        worst_p = max(worst_p, abs(fast - reference))
    worst_1d = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 401))
        values = rng.lognormal(0.0, 0.8, n)
        weights = rng.random(n) + 0.05 if trial % 2 == 0 else None
        fast = gini_1d(values, weights)
        reference = brute_force_gini_1d(values, weights)
        worst_1d = max(worst_1d, abs(fast - reference) / max(1.0, reference))
    # at report scale, the p = 1 kernel against exact rational arithmetic:
    # gini_1d of a lognormal column and the indices of the mixed-sign
    # whitened components, with equal and with unequal weights
    worst_exact = 0.0
    for weighted in (False, True):
        n = 100_000
        points = rng.lognormal(5.5, 1.8, (n, 2)) @ np.array([[1.0, 0.6], [0.0, 1.0]])
        weights = rng.random(n) + 0.05 if weighted else None
        sample = WeightedSample(points, weights)
        _, y, m_star = _whitened(sample, "zca_cor")
        pairs = [(gini_1d(points[:, 0], weights), rational_gini_1d(points[:, 0], weights))]
        for k, fast in enumerate(gini_p(sample, 1.0).component_ginis):
            exact = rational_mean_abs_difference(y[:, k], sample.weights)
            pairs.append((fast, float(exact / (2 * Fraction(abs(float(m_star[k])))))))
        for fast, exact in pairs:
            worst_exact = max(worst_exact, abs(fast - exact) / exact)
    ok = worst_p <= 1e-12 and worst_1d <= 1e-10 and worst_exact <= 1e-14
    return ok, (
        f"multivariate: worst gap {worst_p:.3e} over 50 instances (tolerance 1e-12); "
        f"1d fast path: worst relative gap {worst_1d:.3e} over 100 (tolerance 1e-10); "
        f"p=1 kernel at n=1e5 against exact rationals: worst relative gap "
        f"{worst_exact:.3e} over 6 indices (tolerance 1e-14)"
    )


def check_norm_independence(seed: int, tamper: bool) -> tuple[bool, str]:
    """The 2-norm of the whitened mean is the same under all four transforms."""
    rng = np.random.default_rng(seed + 12)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        cov = _random_spd(rng, dim, ridge=0.3)
        mean = rng.uniform(-3.0, 3.0, dim)
        m = MomentSummary.from_mean_cov(mean, cov)
        norms = [
            _whitened_mean_norm(fit_whitening(method, m).matrix @ mean, 2.0)
            for method in METHODS
        ]
        spread = (max(norms) - min(norms)) / max(1.0, max(norms))
        worst = max(worst, spread)
    return worst <= 1e-9, f"worst relative spread of the 2-norm {worst:.3e} over 50 sets (tolerance 1e-9)"


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "multigini", *args],
        capture_output=True,
        text=True,
    )


def check_cli_end_to_end(seed: int, tamper: bool) -> tuple[bool, str]:
    """Exported spike fixture through the CLI gives 0.8; thread count changes nothing."""
    sample = gen_spike_cube(0.2, 3)
    threads = str(max(len(usable_cpus()), 2))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        # 1000 rows span several chunks of the p=2 double sum, so threads share it
        for p, rows in (("1", 125), ("2", 1000)):
            path = os.path.join(tmp, f"spike{rows}.csv")
            write_sample_csv(sample, path, ["m1", "m2", "m3"], rows=rows)
            args = ["gini", "--input", path, "--columns", "m1,m2,m3", "--p", p, "--format", "json"]
            runs[p] = (_run_cli([*args, "--threads", "1"]), _run_cli([*args, "--threads", threads]))
    for one, many in runs.values():
        if one.returncode != 0 or many.returncode != 0:
            tail = (one.stderr or many.stderr).strip().splitlines()
            return False, f"cli failed (exit {one.returncode}/{many.returncode}): {tail[-1] if tail else ''}"
    value = json.loads(runs["1"][0].stdout)["value"]
    gap = abs(value - 0.8)
    identical = {p: one.stdout == many.stdout for p, (one, many) in runs.items()}
    ok = gap <= 1e-10 and all(identical.values())
    return ok, (
        f"pipeline value {value!r}, |value - 0.8| {gap:.3e} (tolerance 1e-10); "
        f"thread-count output identical: p=1 {identical['1']}, p=2 {identical['2']}"
    )


CHECKS = (
    ("reference-eigenvalues", check_reference_eigenvalues),
    ("pca-instability-witness", check_pca_instability_witness),
    ("scale-stability-suite", check_scale_stability_suite),
    ("decomposition-identity", check_decomposition_identity),
    ("spike-cube-exactness", check_spike_cube_exactness),
    ("coinflip-cube-shift", check_coinflip_cube_shift),
    ("gaussian-closed-form-mc", check_gaussian_closed_form_mc),
    ("rising-tide", check_rising_tide),
    ("oracle-equivalence", check_oracle_equivalence),
    ("norm-independence", check_norm_independence),
    ("cli-end-to-end", check_cli_end_to_end),
)


def run_checks(
    seed: int = DEFAULT_SEED, tamper: bool = False, names: list[str] | None = None
) -> list[CheckResult]:
    """Run the named checks (all by default); deterministic for a fixed seed."""
    _check_integers(seed=seed)
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if names is not None:
        if not names:
            raise DataError("no check names given")
        known = {name for name, _ in CHECKS}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise DataError(f"unknown check(s): {', '.join(unknown)}")
    results = []
    for name, func in CHECKS:
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        passed, detail = func(seed, tamper)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
