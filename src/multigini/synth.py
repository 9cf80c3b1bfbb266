"""Synthetic distributions, reference fixtures, and brute-force oracles.

The generators here are used by the test and verification suites.  The
two-point product constructions enumerate their support exactly (no
sampling), so the identities they witness hold to machine precision; the
brute-force evaluators are deliberately naive (index-order accumulation,
no sorting, no prefix sums) so they are independent of every fast path
they check.  The rational evaluators sort, but round nothing, so they
reach sizes the double sums cannot and measure a fast path's rounding.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError, NumericalError
from .sample import WeightedSample, _equal_weights, cholesky_lower
from .whitening import WhiteningTransform

MAX_PRODUCT_DIM = 12       # exact product measures enumerate 2^dim points
BRUTE_FORCE_CAP = 2_000


@dataclass(frozen=True)
class Fixture:
    """A named sample/moment set with expected values and provenance notes.

    ``notes`` documents, per expected-value key, where the number comes from
    and at what precision it is meaningful.
    """

    name: str
    sample: WeightedSample | None = None
    expected: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def gen_gaussian(mean, cov, n: int, seed: int) -> WeightedSample:
    """n uniform-weight Gaussian draws, deterministic for a fixed seed.

    Points are mean + C z with C the lower Cholesky factor of the
    covariance and z standard normal.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    if n < 2:
        raise DataError(f"need at least 2 draws, got {n}")
    c = cholesky_lower(cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n), mean.shape[0]))
    return WeightedSample(mean + z @ c.T)


def _two_point_product(lo: float, hi: float, p_hi: float, dim: int) -> WeightedSample:
    """Exact product measure of iid two-point marginals {lo, hi} w.p. (1-p_hi, p_hi)."""
    if not 1 <= dim <= MAX_PRODUCT_DIM:
        raise DataError(f"dimension must be in [1, {MAX_PRODUCT_DIM}], got {dim}")
    masks = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1
    points = np.where(masks == 1, hi, lo).astype(float)
    weights = np.prod(np.where(masks == 1, p_hi, 1.0 - p_hi), axis=1)
    return WeightedSample(points, weights)


def gen_coinflip_cube(shift: float = 0.0, dim: int = 1) -> WeightedSample:
    """iid fair-coin components on {shift, shift + 2}, enumerated exactly.

    Per component: mean 1 + shift, variance 1, zero cross-correlation.  The
    multivariate index of the cube is 1 / (2 (1 + shift)), shrinking to zero
    as the shift grows.
    """
    return _two_point_product(shift, shift + 2.0, 0.5, dim)


def gen_spike_cube(p: float, dim: int = 1) -> WeightedSample:
    """iid rare-spike components: 0 w.p. 1-p, 1/(sqrt(p)(1-p)) w.p. p.

    Per component: mean sqrt(p)/(1-p), variance 1/(1-p).  The Gini index of
    each component (and of the cube) is exactly 1 - p, approaching full
    concentration as p -> 0.
    """
    if not 0.0 < p < 1.0:
        raise DataError(f"spike probability must be in (0, 1), got {p}")
    return _two_point_product(0.0, 1.0 / (math.sqrt(p) * (1.0 - p)), p, dim)


def brute_force_gini_1d(values, weights=None) -> float:
    """O(n^2) double-sum reference for the one-dimensional index."""
    v = [float(x) for x in np.asarray(values, dtype=float).reshape(-1)]
    n = len(v)
    if n > BRUTE_FORCE_CAP:
        raise DataError(f"brute-force oracle capped at n={BRUTE_FORCE_CAP}")
    if weights is None:
        w = [1.0 / n] * n
    else:
        w = [float(x) for x in np.asarray(weights, dtype=float).reshape(-1)]
        total = sum(w)
        w = [x / total for x in w]
    mean = 0.0
    for a in range(n):
        mean += w[a] * v[a]
    acc = 0.0
    for a in range(n):
        va, wa = v[a], w[a]
        for b in range(n):
            acc += wa * w[b] * abs(va - v[b])
    return acc / (2.0 * abs(mean))


def _integers(values) -> tuple[list[int], int]:
    """The doubles as integers over one power of two 2^s, with that 2^s."""
    ratios = [x.as_integer_ratio() for x in np.asarray(values, dtype=float).reshape(-1).tolist()]
    scale = max(den for _, den in ratios)
    return [num << (scale.bit_length() - den.bit_length()) for num, den in ratios], scale


def _rational_sums(values, weights) -> tuple[int, int, int, int]:
    """Integer sums behind the exact one-dimensional index.

    With the values V_i / S and the weights Q_i / R as integers over powers
    of two (Q_i = 1 for no weights), sorted by value, and T = sum Q: returns
    (sum_i V_i Q_i (2 Q_(<i) + Q_i - T), T, sum_i V_i Q_i, S).  The first sum
    is sum_{a<b} Q_a Q_b (V_b - V_a) (the pairs below each point minus those
    above it), so tied values may come in any order.
    """
    v, scale = _integers(values)
    q = [1] * len(v) if weights is None else _integers(weights)[0]
    total = sum(q)
    acc = 0
    below = 0
    for vi, qi in sorted(zip(v, q)):
        acc += vi * qi * (2 * below + qi - total)
        below += qi
    return acc, total, sum(vi * qi for vi, qi in zip(v, q)), scale


def rational_mean_abs_difference(values, weights=None) -> Fraction:
    """sum_{a,b} w_a w_b |v_a - v_b| exactly, the weights normalized to sum to one.

    Every value and weight is read as the rational its double denotes, and
    the weights are divided by their exact total; nothing is rounded.  One
    sort and integer sums, O(n log n): the reference for the p = 1 kernel
    at sizes the double sums cannot reach.
    """
    acc, total, _, scale = _rational_sums(values, weights)
    return Fraction(2 * acc, total * total * scale)


def rational_gini_1d(values, weights=None) -> float:
    """The one-dimensional index in exact rational arithmetic, rounded once.

    :func:`rational_mean_abs_difference` over twice the exact absolute
    mean, correctly rounded to a double.  Raises :class:`NumericalError`
    for a zero mean.
    """
    acc, total, moment, _ = _rational_sums(values, weights)
    if moment == 0:
        raise NumericalError("undefined inequality for zero-mean values")
    return float(Fraction(acc, total * abs(moment)))


def brute_force_gini_p(sample: WeightedSample, p, transform: WhiteningTransform) -> float:
    """Naive triple-loop reference for the multivariate index.

    Whitens with the supplied transform, then accumulates the pairwise
    p-norm sum point by point and component by component, in index order.
    This is the reference every fast path must match.
    """
    if sample.n > BRUTE_FORCE_CAP:
        raise DataError(f"brute-force oracle capped at n={BRUTE_FORCE_CAP}")
    p = float(p)
    y = (sample.points @ transform.matrix.T).tolist()
    w = sample.weights.tolist()
    m_star = (transform.matrix @ transform.fitted_moments.mean).tolist()
    dim = len(m_star)

    if math.isinf(p):
        normalizer = max(abs(m) for m in m_star)
    else:
        normalizer = sum(abs(m) ** p for m in m_star) ** (1.0 / p)

    acc = 0.0
    n = len(w)
    for a in range(n):
        ya, wa = y[a], w[a]
        for b in range(n):
            yb = y[b]
            if p == 1.0:
                dist = 0.0
                for k in range(dim):
                    dist += abs(ya[k] - yb[k])
            elif math.isinf(p):
                dist = max(abs(ya[k] - yb[k]) for k in range(dim))
            else:
                dist = sum(abs(ya[k] - yb[k]) ** p for k in range(dim)) ** (1.0 / p)
            acc += wa * w[b] * dist
    return acc / (2.0 * normalizer)


def pca_instability_fixture() -> Fixture:
    """Two-component fixture witnessing that pca whitening is not scale stable.

    The sample is an exact 4-point design with mean (1, 1) and covariance
    [[4, -2], [-2, 3]]; rescaling the first component by 2 yields mean
    (2, 1) and covariance [[16, -4], [-4, 3]].  Expected values carry
    2-decimal reference arithmetic: the rounded pca matrices applied to the
    means reproduce the stored whitened means exactly.
    """
    mean = np.array([1.0, 1.0])
    cov = np.array([[4.0, -2.0], [-2.0, 3.0]])
    scale = np.array([2.0, 1.0])
    design = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    sample = WeightedSample(mean + design @ cholesky_lower(cov).T)
    expected = {
        "scale": scale,
        "scaled_mean": np.array([2.0, 1.0]),
        "scaled_cov": np.array([[16.0, -4.0], [-4.0, 3.0]]),
        "eigenvalues_2dp": np.array([5.56, 1.44]),
        "scaled_eigenvalues_2dp": np.array([17.13, 1.87]),
        "pca_matrix_2dp": np.array([[0.33, -0.26], [0.51, 0.66]]),
        "scaled_pca_matrix_2dp": np.array([[0.23, -0.06], [0.20, 0.71]]),
        "pca_whitened_mean_2dp": np.array([0.07, 1.17]),
        "scaled_pca_whitened_mean_2dp": np.array([0.40, 1.11]),
        "min_sup_deviation": 0.1,
    }
    notes = {
        "scale": "derived: the componentwise rescaling that produces the scaled moments",
        "scaled_mean": "derived: scale * mean",
        "scaled_cov": "derived: diag(scale) cov diag(scale)",
        "eigenvalues_2dp": "reference values at 2-decimal precision",
        "scaled_eigenvalues_2dp": "reference values at 2-decimal precision",
        "pca_matrix_2dp": "reference values at 2-decimal precision",
        "scaled_pca_matrix_2dp": "reference values at 2-decimal precision",
        "pca_whitened_mean_2dp": (
            "2-decimal reference arithmetic: equals pca_matrix_2dp @ mean exactly"
        ),
        "scaled_pca_whitened_mean_2dp": (
            "2-decimal reference arithmetic: equals scaled_pca_matrix_2dp @ scaled_mean exactly"
        ),
        "min_sup_deviation": (
            "derived: lower bound on the sup-norm gap between the two pca-whitened samples"
        ),
    }
    return Fixture(name="pca_scale_instability", sample=sample, expected=expected, notes=notes)


def expand_to_rows(sample: WeightedSample, rows: int) -> np.ndarray:
    """Realize a weighted sample as `rows` uniform rows by exact replication.

    Requires every weights[a] * rows to be an integer (within 1e-9); the
    replicated uniform sample then represents the same measure, which is
    what makes CSV round trips of exact product fixtures lossless.
    """
    counts = sample.weights * rows
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max() > 1e-9 or int(rounded.sum()) != rows:
        raise DataError(
            f"weights are not integer multiples of 1/{rows}; cannot expand losslessly"
        )
    return np.repeat(sample.points, rounded.astype(int), axis=0)


def write_sample_csv(
    sample: WeightedSample,
    path,
    metric_names: list[str],
    *,
    group: str = "all",
    rows: int | None = None,
) -> int:
    """Export a sample in the ingestion CSV shape (name, group, metrics...).

    With ``rows`` set, the weighted support is expanded to that many uniform
    rows via :func:`expand_to_rows`; otherwise weights must already be
    uniform.  Returns the number of data rows written.
    """
    if len(metric_names) != sample.dim:
        raise DataError(f"expected {sample.dim} metric names, got {len(metric_names)}")
    if rows is None:
        if not _equal_weights(sample.weights):
            raise DataError("weights are not uniform; pass rows= to expand the support")
        points = sample.points
    else:
        points = expand_to_rows(sample, int(rows))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "group", *metric_names])
        for i, point in enumerate(points):
            writer.writerow([f"unit{i:05d}", group, *[repr(float(x)) for x in point]])
    return len(points)
