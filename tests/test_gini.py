import json
import math
import os
import re
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multigini.gini as gini_module
import multigini.sample
from multigini import (
    DataError,
    GiniResult,
    MomentSummary,
    NumericalError,
    WeightedSample,
    fit_whitening,
    gaussian_g1_closed_form,
    gini_1d,
    gini_1_decomposed,
    gini_p,
    moments,
)
from multigini.gini import (
    _PAIR_CHUNK,
    _equal_weight_indices,
    _exact_chunks,
    _exact_mean_distance,
    _mean_abs_differences,
    _pair_sample_mean_distance,
    _whitened,
    _whitened_mean_norm,
)
from multigini.sample import _exact_column_sums
from multigini.synth import (
    brute_force_gini_1d,
    brute_force_gini_p,
    gen_coinflip_cube,
    gen_gaussian,
    gen_spike_cube,
    rational_gini_1d,
    rational_mean_abs_difference,
)
from multigini.whitening import METHODS, SCALE_STABLE_METHODS


def random_nonneg_sample(rng, d, n, weighted=False):
    points = rng.lognormal(mean=rng.normal(0.0, 0.5, d), sigma=0.6, size=(n, d))
    weights = rng.random(n) + 0.05 if weighted else None
    return WeightedSample(points, weights)


def white_product_sample(shifts):
    """Exact product of unit-variance coin flips with per-component shifts.

    Covariance is exactly the identity while the component means differ,
    so the fitted whitening is the identity matrix.
    """
    d = len(shifts)
    masks = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    points = np.where(masks == 1, 2.0, 0.0) + np.asarray(shifts, dtype=float)
    return WeightedSample(points)


class TestGini1d:
    def test_point_mass_is_zero(self):
        assert gini_1d([3.0, 3.0, 3.0], [0.2, 0.5, 0.3]) == 0.0

    def test_rare_spike(self):
        p = 0.25
        high = 1.0 / (math.sqrt(p) * (1.0 - p))
        assert gini_1d([0.0, high], [1.0 - p, p]) == pytest.approx(0.75, abs=1e-15)

    def test_fair_coin(self):
        # E|X-Y| = 1 and mean = 1, so the index is 1/2
        assert gini_1d([0.0, 2.0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_weights_default(self):
        values = [1.0, 2.0, 7.0]
        assert gini_1d(values) == gini_1d(values, [1.0, 1.0, 1.0])

    def test_matches_double_sum_reference(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            n = int(rng.integers(2, 300))
            values = rng.lognormal(0.0, 1.0, n)
            weights = rng.random(n) + 0.01 if trial % 2 else None
            fast = gini_1d(values, weights)
            slow = brute_force_gini_1d(values, weights)
            assert abs(fast - slow) <= 1e-10 * max(1.0, slow)

    def test_ties_any_order(self):
        values = [1.0, 1.0, 1.0, 4.0, 4.0]
        weights = [0.1, 0.3, 0.1, 0.25, 0.25]
        assert gini_1d(values, weights) == pytest.approx(
            brute_force_gini_1d(values, weights), abs=1e-14
        )

    def test_zero_mean_rejected(self):
        with pytest.raises(NumericalError, match="zero-mean"):
            gini_1d([-1.0, 1.0], [0.5, 0.5])

    def test_negative_values_allowed_when_mean_nonzero(self):
        value = gini_1d([-1.0, 3.0], [0.5, 0.5])
        assert value == pytest.approx(4.0 / (2.0 * 2.0 * 1.0), abs=1e-15)

    def test_bad_weights(self):
        with pytest.raises(DataError):
            gini_1d([1.0, 2.0], [0.5, -0.1])
        with pytest.raises(DataError):
            gini_1d([1.0, 2.0], [0.0, 0.0])

    def test_mean_near_the_largest_float(self):
        # 2 |mean| is out of range here; the value is that at any smaller scale
        huge = gini_1d([1e308, 1.7e308, 1.7e308])
        assert abs(huge - gini_1d([1.0, 1.7, 1.7])) <= 1e-12
        assert huge > 0.1

    @pytest.mark.parametrize("values", [[-1.7e308, 1.7e308, 1.7e308], [-1e308, 1.7e308, 1.7e308]])
    def test_span_beyond_the_largest_float(self, values):
        # max - min overflows; the index is that of the values scaled down
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = gini_1d(values)
            scaled = gini_1d(np.array(values) / 1e308)
        assert abs(huge - scaled) <= 1e-12
        assert huge > 0.1

    def test_overflowing_weight_total_is_data_error(self):
        with pytest.raises(DataError, match="weights sum to more than the largest float"):
            gini_1d([1.0, 2.0, 3.0], [1e308, 1e308, 1e308])

    def test_equal_weights_take_no_exact_total(self, monkeypatch):
        sizes = []

        def spy(x):
            sizes.append(x.shape)
            return _exact_column_sums(x)

        monkeypatch.setattr(multigini.sample, "_exact_column_sums", spy)
        monkeypatch.setattr(gini_module, "_exact_column_sums", spy)
        rng = np.random.default_rng(8)
        sample = WeightedSample(rng.lognormal(0.0, 1.0, (50, 2)))
        gini_1d(sample.points[:, 0], sample.weights)
        assert sizes == [(50, 1), (50, 1)]  # the mean and the p = 1 sum
        sizes.clear()
        gini_1d(sample.points[:, 0], rng.random(50))
        assert len(sizes) == 3  # unequal weights also take the exact total

    @pytest.mark.parametrize("values, weights", [
        pytest.param([], None, id="empty"),
        pytest.param([1.0, math.nan], None, id="non-finite-value"),
        pytest.param([1.0, 2.0], [1.0, math.inf], id="non-finite-weight"),
        pytest.param([1.0, 2.0], [0.5, -0.1], id="negative-weight"),
        pytest.param([1.0, 2.0], [1.0, 1.0, 1.0], id="wrong-length"),
        pytest.param([1.0, 2.0], [0.0, 0.0], id="all-zero-weights"),
        pytest.param([1.0, 2.0, 3.0], [1e308, 1e308, 1e308], id="overflowing-total"),
        pytest.param([1.0, 2.0], ["x", "y"], id="non-numeric-weight"),
        pytest.param([["a"], ["b"]], None, id="non-numeric-value"),
    ])
    def test_input_rules_are_those_of_weighted_sample(self, values, weights):
        with pytest.raises(DataError) as from_sample:
            WeightedSample(values, weights)
        with pytest.raises(DataError) as from_gini:
            gini_1d(values, weights)
        assert str(from_gini.value) == str(from_sample.value)


def mad(values, weights=None):
    """The kernel on one column, with weights normalized as a sample's are."""
    v = np.asarray(values, dtype=float)
    w = WeightedSample(v, weights).weights
    return float(_mean_abs_differences(v[:, None], w)[0])


def sort_by_argsort(a, axis=-1):
    """``np.sort`` as a stable argsort and gather, another route to the same order."""
    return np.take_along_axis(a, np.argsort(a, axis=axis, kind="stable"), axis=axis)


@pytest.fixture
def sort_dtypes(monkeypatch):
    """Dtypes of the arrays np.sort is called on while the test runs."""
    dtypes = []
    real = np.sort

    def spy(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(gini_module.np, "sort", spy)
    return dtypes


# heavy ties, both signed zeros, and a large offset with ties near it
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e6, 1e6 + 0.5, 1e6 - 0.25])


class TestSortRoutes:
    """Equal weights sort plain values, others (value, weight) pairs; the value must not change by a bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(TIED_VALUES, min_size=1, max_size=40)
        | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        weight=st.sampled_from([None, 2.0, 0.1, 3.0]),
    )
    @example(values=[5.0], weight=None)
    @example(values=[0.0, -0.0], weight=None)
    @example(values=[-0.0, 0.0], weight=2.0)
    @example(values=[-0.0, 0.0, 0.0, -0.0, 1.0], weight=None)
    def test_uniform_route_bit_identical_to_argsort_route(self, values, weight):
        v = np.array(values)
        weights = None if weight is None else [weight] * v.size
        sorted_bits = mad(v, weights).hex()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gini_module.np, "sort", sort_by_argsort)
            assert mad(v, weights).hex() == sorted_bits

    def test_equal_unnormalized_weights_take_sort_route(self, sort_dtypes):
        x = np.array([4.0, 1.0, 4.0])
        sample = WeightedSample(x[:, None], [2.0, 2.0, 2.0])
        mad(x, [2.0, 2.0, 2.0])
        assert gini_1d(x, sample.weights) == gini_1d(x, [2.0, 2.0, 2.0]) == gini_1d(x)
        gini_p(sample, 1.0)
        assert set(sort_dtypes) == {np.dtype(float)}
        sort_dtypes.clear()
        gini_1d(x, [2.0, 2.0, 2.5])
        assert sort_dtypes == [np.dtype(complex)]

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_one_ulp_off_takes_pair_sort_route_and_matches_oracle(self, sort_dtypes, offset):
        rng = np.random.default_rng(37)
        for n in (2, 3, 17, 60):
            values = offset + rng.integers(0, 5, n) * 0.5 + rng.random(n) * (n % 2)
            weights = np.full(n, 1.0 / n)
            k = int(rng.integers(0, n))
            weights[k] = np.nextafter(weights[k], 1.0)
            sort_dtypes.clear()
            fast = mad(values, weights) / (2.0 * abs(weights @ values))
            assert sort_dtypes == [np.dtype(complex)]
            slow = brute_force_gini_1d(values, weights)
            # relative: at the 1e6 offset the index is ~1e-7
            assert abs(fast - slow) <= 1e-12 * slow


class TestKernel:
    """The p = 1 kernel at the edges of the float range, on constant columns and under permutation."""

    def test_finite_span_whose_products_would_overflow(self):
        # the span 1.6e308 is finite, but times the coefficients (up to n - 1) it is not
        rng = np.random.default_rng(52)
        values = np.where(rng.random(1000) < 0.4, -8e307, 8e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mad(values)
            index = gini_1d(values)
        exact = float(rational_mean_abs_difference(values))
        assert abs(got - exact) <= 1e-15 * exact
        assert abs(index - rational_gini_1d(values)) <= 1e-15 * index

    @pytest.mark.parametrize("weights", [None, "random"])
    @pytest.mark.parametrize("value", [0.0, -0.0, 3.7, -1e300])
    def test_equal_values_give_exactly_zero(self, value, weights):
        rng = np.random.default_rng(53)
        n = 500
        w = None if weights is None else rng.random(n) + 0.05
        values = np.full(n, value)
        assert mad(values, w).hex() == (0.0).hex()
        if value != 0.0:
            assert gini_1d(values, w).hex() == (0.0).hex()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_row_permutation_keeps_the_bits(self, weighted):
        rng = np.random.default_rng(54)
        n = 5000
        # ties and signed zeros in the first column, distinct values elsewhere
        y = np.column_stack((
            rng.choice([-0.0, 0.0, 1.5, -2.0, 7.0], n),
            rng.lognormal(0.0, 1.8, n) - 2.0,
            rng.standard_normal(n),
        ))
        w = WeightedSample(y, rng.random(n) + 0.05 if weighted else None).weights
        order = rng.permutation(n)
        sums = _mean_abs_differences(y, w)
        assert sums.tolist() == _mean_abs_differences(y[order], w[order]).tolist()
        # each column's sum is that of the column alone
        columns = [float(_mean_abs_differences(y[:, [j]], w)[0]) for j in range(y.shape[1])]
        assert sums.tolist() == columns


def correlated_lognormal_sample(rng, n, weighted):
    """Three correlated lognormal(5.5, 1.8) metrics, whose whitened columns have mixed signs."""
    points = rng.lognormal(5.5, 1.8, (n, 3)) @ np.array([[1.0, 0.6, 0.2], [0.0, 1.0, 0.5],
                                                        [0.0, 0.0, 1.0]])
    return WeightedSample(points, rng.random(n) + 0.05 if weighted else None)


class TestReportScaleAccuracy:
    """The p = 1 kernel within 1e-14 relative of exact rational arithmetic at report sizes.

    A report's pooled row has about 2e5 rows.  The tolerance is the few-ulp
    rounding of one exactly rounded sum, far below the ~5e-11 a kernel built
    on running sums of the weights drifts by at this size.
    """

    @pytest.mark.parametrize("case", [
        "equal-lognormal", "equal-whitened", "equal-low-outlier",
        "unequal-mixed-sign", "unequal-lognormal", "unequal-low-outlier",
    ])
    def test_gini_1d(self, case):
        rng = np.random.default_rng(60)
        weighted = case.startswith("unequal")
        n = 100_000 if weighted else 200_000
        if case == "equal-whitened":
            values = _whitened(correlated_lognormal_sample(rng, n, False), "zca_cor")[1][:, 0]
            assert 0.05 < np.mean(values < 0) < 0.95
        elif case == "unequal-mixed-sign":
            values = rng.lognormal(0.0, 1.8, n) - 2.0
        else:
            values = rng.lognormal(5.5, 1.8, n)
        if case.endswith("low-outlier"):
            # every other value is far above the minimum, so products taken
            # from the minimum would be large beside their sum
            values[rng.integers(n)] = -1e9
        weights = rng.random(n) + 0.05 if weighted else None
        exact = rational_gini_1d(values, weights)
        assert abs(gini_1d(values, weights) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("weighted", [False, True])
    def test_component_ginis_of_exact_p1(self, weighted):
        rng = np.random.default_rng(61)
        sample = correlated_lognormal_sample(rng, 100_000 if weighted else 200_000, weighted)
        result = gini_p(sample, 1.0)
        _, y, m_star = _whitened(sample, "zca_cor")
        assert np.any(y < 0)
        for k, got in enumerate(result.component_ginis):
            exact = float(rational_mean_abs_difference(y[:, k], sample.weights)
                          / (2 * Fraction(abs(float(m_star[k])))))
            assert abs(got - exact) <= 1e-14 * exact


def gini_1d_outcome(values, weights):
    """The index as ``float.hex``, or the message of the error it raises."""
    try:
        return gini_1d(values, weights).hex()
    except (DataError, NumericalError) as exc:
        return str(exc)


class TestGini1dPermutation:
    """Permuting the (value, weight) pairs must not change a bit of the index."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(TIED_VALUES, min_size=1, max_size=40),
        weight=st.sampled_from([None, 2.0, 0.1, 3.0]),
        data=st.data(),
    )
    def test_equal_weights_tied_values(self, values, weight, data):
        weights = None if weight is None else [weight] * len(values)
        permuted = data.draw(st.permutations(values))
        assert gini_1d_outcome(permuted, weights) == gini_1d_outcome(values, weights)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(TIED_VALUES | st.floats(-1e6, 1e6), st.floats(0.0, 1e3)),
                       min_size=1, max_size=40),
        data=st.data(),
    )
    def test_random_weights(self, pairs, data):
        permuted = data.draw(st.permutations(pairs))
        assert gini_1d_outcome(*zip(*permuted)) == gini_1d_outcome(*zip(*pairs))


def row_pnorm_distance(ya, yb, p):
    """numpy's row p-norm of ya - yb, as the pair sampler once computed it."""
    a = np.abs(ya - yb)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    if math.isinf(p):
        return a.max(axis=-1)
    return (a**p).sum(axis=-1) ** (1.0 / p)


def searchsorted_indices(w, u):
    """Pair indices at uniform draws u by binary search, the sampler's reference.

    Unequal weights search their cumulative sum.  Equal weights search the
    integer grid 1, ..., n - 1 at u n, which counts the k <= u n:
    min(floor(u n), n - 1), the sampler's direct rule by another route.
    """
    n = w.size
    if np.all(w == w[0]):
        return np.searchsorted(np.arange(1, n), u * n, side="right")
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


def searchsorted_pair_sampler(y, w, p, pairs, seed, distance=row_pnorm_distance):
    """A pair sampler by binary search (:func:`searchsorted_indices`), the sampler's reference.

    ``distance(y[ia], y[ib], p)`` gives the chunk's pair distances; by
    default numpy's row p-norm, as the sampler once computed them.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < pairs:
        count = min(gini_module._PAIR_CHUNK, pairs - done)
        u = rng.random((2, count))
        ia = searchsorted_indices(w, u[0])
        ib = searchsorted_indices(w, u[1])
        dist = distance(y[ia], y[ib], p)
        total += float(dist.sum())
        total_sq += float((dist * dist).sum())
        done += count
    mean = total / pairs
    variance = max(total_sq / pairs - mean * mean, 0.0)
    return mean, math.sqrt(variance / pairs)


class TestIndexRoutes:
    """Equal weights invert the uniform CDF directly; other weights binary search."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3000) | st.sampled_from([4096, 99_991, 199_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=199_000, seed=1)
    @example(n=10**6, seed=2)
    @example(n=10**6 - 1, seed=3)
    def test_equal_weight_indices_are_floor_un(self, n, seed):
        grid = np.arange(n) / n
        below_one = np.nextafter(1.0, 0.0)
        u = np.concatenate((
            [0.0, below_one],
            grid,
            np.nextafter(grid, -np.inf)[1:],
            np.nextafter(grid, np.inf),
            np.random.default_rng(seed).random(1000),
        ))
        expected = np.minimum(np.floor(u * n), n - 1).astype(np.intp)
        got = _equal_weight_indices(u, n)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, searchsorted_indices(np.full(n, 1.0 / n), u))
        # the largest draw below 1 gives the last index, never n
        assert got[1] == n - 1
        pairs = u[: 2 * (u.size // 2)].reshape(2, -1)
        np.testing.assert_array_equal(
            _equal_weight_indices(pairs, n), expected[: pairs.size].reshape(2, -1)
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    @pytest.mark.parametrize("pairs", [1, 777, _PAIR_CHUNK + 12_345])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_sampler_bit_identical_to_searchsorted_loop(self, p, pairs, weighted):
        rng = np.random.default_rng(53)
        sample = random_nonneg_sample(rng, 3, 5003, weighted=weighted)
        y = sample.points - sample.points.mean(axis=0)
        got = _pair_sample_mean_distance(y, sample.weights, p, pairs, 11)
        expected = searchsorted_pair_sampler(y, sample.weights, p, pairs, 11)
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_only_unequal_weights_binary_search(self, monkeypatch, weighted):
        calls = []

        def spy(name, function):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np, "searchsorted", spy("searchsorted", np.searchsorted))
        monkeypatch.setattr(
            gini_module, "_equal_weight_indices",
            spy("equal", gini_module._equal_weight_indices),
        )
        sample = random_nonneg_sample(np.random.default_rng(59), 2, 300, weighted=weighted)
        gini_p(sample, 2.0, estimator="pairs", pairs=_PAIR_CHUNK + 1, seed=3)
        # one call per chunk, both index rows at once
        assert calls == ["searchsorted" if weighted else "equal"] * 2


def component_order_distance(ya, yb, p):
    """Row p-norms of ya - yb, adding the |diff_k|^p terms in component order.

    Only elementwise operations, so no numpy row reduction decides the order.
    """
    dist = None
    for k in range(ya.shape[1]):
        diff = ya[:, k] - yb[:, k]
        if p == 2.0:
            term = diff * diff
        elif p == 1.0 or math.isinf(p):
            term = np.abs(diff)
        else:
            term = np.abs(diff) ** p
        if dist is None:
            dist = term
        elif math.isinf(p):
            dist = np.maximum(dist, term)
        else:
            dist = dist + term
    if p == 2.0:
        return np.sqrt(dist)
    if p == 1.0 or math.isinf(p):
        return dist
    return dist ** (1.0 / p)


def fsum_pair_oracle(y, w, p, pairs, seed):
    """Mean and SE of the sampled pair distances, each distance and sum by math.fsum."""
    u = np.random.default_rng(seed).random((2, pairs))
    ia, ib = searchsorted_indices(w, u)
    dists = []
    for a, b in zip(y[ia].tolist(), y[ib].tolist()):
        diffs = [abs(x - z) for x, z in zip(a, b)]
        dists.append(max(diffs) if math.isinf(p) else math.fsum(v**p for v in diffs) ** (1.0 / p))
    mean = math.fsum(dists) / pairs
    variance = max(math.fsum(v * v for v in dists) / pairs - mean * mean, 0.0)
    return mean, math.sqrt(variance / pairs)


class TestPairDistanceKernel:
    """The sampler computes each pair's distance like the exact sum: component by component."""

    # d >= 8 included: numpy sums a row of 8 or more pairwise, the kernel never does
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_component_order_sum(self, d, p, weighted, monkeypatch):
        monkeypatch.setattr(gini_module, "_PAIR_CHUNK", 1 << 12)
        rng = np.random.default_rng(61 + d)
        sample = random_nonneg_sample(rng, d, 4001, weighted=weighted)
        y = sample.points - sample.points.mean(axis=0)
        # chunk sums hide a pair's last bit, so single pairs are compared too
        runs = [(3 * (1 << 12) + 77, 13)] + [(1, seed) for seed in range(64)]
        for pairs, seed in runs:
            got = _pair_sample_mean_distance(y, sample.weights, p, pairs, seed)
            expected = searchsorted_pair_sampler(
                y, sample.weights, p, pairs, seed, component_order_distance
            )
            assert [v.hex() for v in got] == [v.hex() for v in expected], (pairs, seed)

    @pytest.mark.parametrize("d", [8, 12])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_wide_samples_match_fsum_oracle(self, d, p):
        rng = np.random.default_rng(67 + d)
        sample = random_nonneg_sample(rng, d, 3001)
        y = sample.points - sample.points.mean(axis=0)
        mean, se = _pair_sample_mean_distance(y, sample.weights, p, 20_000, 17)
        oracle_mean, oracle_se = fsum_pair_oracle(y, sample.weights, p, 20_000, 17)
        assert abs(mean - oracle_mean) <= 1e-14 * oracle_mean
        assert abs(se - oracle_se) <= 1e-14 * oracle_se


class TestMahalanobisNorm:
    """The index's normalizer ||W mean||_p, by ``_whitened_mean_norm``."""

    def test_euclidean(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        m_star = fit_whitening("zca", m).matrix @ [3.0, 4.0]
        assert _whitened_mean_norm(m_star, 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_l1(self):
        m = MomentSummary.from_mean_cov([0.0] * 3, np.eye(3))
        m_star = fit_whitening("zca", m).matrix @ [1.0, -2.0, 3.0]
        assert _whitened_mean_norm(m_star, 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_max_norm(self):
        m = MomentSummary.from_mean_cov([0.0] * 3, np.eye(3))
        m_star = fit_whitening("zca", m).matrix @ [1.0, -2.0, 0.5]
        assert _whitened_mean_norm(m_star, math.inf) == pytest.approx(2.0, abs=1e-12)

    def test_p2_agrees_across_methods(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((3, 3))
        m = MomentSummary.from_mean_cov(rng.uniform(-2, 2, 3), a @ a.T + 0.3 * np.eye(3))
        values = [
            _whitened_mean_norm(fit_whitening(method, m).matrix @ m.mean, 2.0)
            for method in ("zca", "pca", "cholesky", "zca_cor")
        ]
        assert max(values) - min(values) <= 1e-9 * max(values)


class TestGiniP:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_one_dimensional_reduces_to_gini_1d(self, p):
        prob = 0.3
        sample = gen_spike_cube(prob, 1)
        result = gini_p(sample, p)
        assert result.value == pytest.approx(1.0 - prob, abs=1e-12)

    def test_white_sample_is_mean_weighted_combination(self):
        sample = white_product_sample([0.0, 3.0, 1.0])
        means = moments(sample).mean
        per_component = np.array(
            [gini_1d(sample.points[:, j], sample.weights) for j in range(3)]
        )
        expected = float((means / means.sum()) @ per_component)
        assert gini_p(sample, 1.0).value == pytest.approx(expected, abs=1e-12)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for p in (1.0, 1.5, 2.0, math.inf):
            sample = random_nonneg_sample(rng, 3, 80, weighted=True)
            transform = fit_whitening("zca_cor", moments(sample))
            assert gini_p(sample, p).value == pytest.approx(
                brute_force_gini_p(sample, p, transform), abs=1e-12
            )

    def test_decomposition_identity(self):
        rng = np.random.default_rng(34)
        for trial in range(10):
            d = int(rng.integers(1, 6))
            sample = random_nonneg_sample(rng, d, int(rng.integers(d + 2, 150)), trial % 2 == 0)
            transform = fit_whitening("zca_cor", moments(sample))
            direct = brute_force_gini_p(sample, 1.0, transform)
            decomposed = gini_1_decomposed(sample).value
            assert abs(direct - decomposed) <= 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_scale_invariance(self, p):
        rng = np.random.default_rng(35)
        sample = random_nonneg_sample(rng, 4, 60)
        q = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 4))
        base = gini_p(sample, p).value
        scaled = gini_p(sample.scaled(q), p).value
        assert abs(scaled - base) <= 1e-9 * max(1.0, base)

    def test_scale_invariance_cholesky_method(self):
        rng = np.random.default_rng(36)
        sample = random_nonneg_sample(rng, 3, 50)
        q = [3.0, 0.25, 1.5]
        base = gini_p(sample, 1.0, method="cholesky").value
        scaled = gini_p(sample.scaled(q), 1.0, method="cholesky").value
        assert abs(scaled - base) <= 1e-9

    def test_rising_tide(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            sample = random_nonneg_sample(rng, 3, 60)
            shift = rng.uniform(0.1, 2.0, 3)
            assert gini_p(sample.shifted(shift), 1.0).value <= gini_p(sample, 1.0).value + 1e-12

    def test_range_with_nonneg_whitened_support(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            sample = random_nonneg_sample(rng, int(rng.integers(1, 5)), 50)
            result = gini_p(sample, 1.0)
            if not result.negativity_warning:
                assert 0.0 <= result.value <= 1.0

    def test_normalizer_shift_covariance(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            sample = random_nonneg_sample(rng, 3, 50)
            result = gini_p(sample, 1.0)
            if result.negativity_warning:
                continue
            shift = rng.uniform(0.05, 2.0, 3)
            shifted = gini_p(sample.shifted(shift), 1.0)
            assert shifted.normalizer >= result.normalizer - 1e-12

    def test_dominant_component_limit_formula(self):
        rng = np.random.default_rng(40)
        sample = random_nonneg_sample(rng, 4, 80)
        result = gini_1_decomposed(sample)
        m_star = np.abs(result.weights) * result.normalizer  # |m*| vector
        ginis = result.component_ginis
        g_cap = float(ginis.max())
        previous_gap = math.inf
        for t in (1.0, 10.0, 100.0, 1e4, 1e6):
            scaled = m_star.copy()
            scaled[0] *= t
            weights = scaled / scaled.sum()
            combination = float(weights @ ginis)
            tail = scaled[1:].sum() / scaled.sum()
            gap = abs(combination - ginis[0])
            assert gap <= tail * g_cap + 1e-15
            assert gap <= previous_gap + 1e-15
            previous_gap = gap
        assert previous_gap <= 1e-5

    def test_negativity_flag_set(self):
        pts = np.array(
            [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], [8, 8], [0, 4]],
            dtype=float,
        )
        result = gini_p(WeightedSample(pts), 1.0)
        assert result.negativity_warning
        assert result.worst_negative < 0
        decomposed = gini_1_decomposed(WeightedSample(pts))
        assert decomposed.worst_negative == result.worst_negative
        assert gini_p(WeightedSample(pts), 2.0).worst_negative == result.worst_negative

    def test_negativity_flag_on_signed_input(self):
        # the rule reads the whitened support, whatever the sign of the input
        rng = np.random.default_rng(41)
        sample = WeightedSample(rng.standard_normal((200, 3)) + [3.0, 1.0, 2.0])
        assert sample.points.min() < 0
        whitened = fit_whitening("zca_cor", moments(sample)).apply(sample)
        assert whitened.min() < -1e-9 * np.abs(whitened).max()
        for result in (
            gini_p(sample, 1.0),
            gini_p(sample, 2.0),
            gini_p(sample, 2.0, estimator="pairs", pairs=1000, seed=3),
        ):
            assert result.negativity_warning
            assert result.worst_negative == float(whitened.min())
            assert result.to_dict()["negativity_warning"] is True

    def test_negativity_flag_is_derived(self):
        # the flag is read from worst_negative, so the two cannot disagree
        fields = {"p": 1.0, "value": 0.5, "normalizer": 1.0, "method": "zca_cor",
                  "estimator": "exact"}
        assert not GiniResult(**fields).negativity_warning
        assert GiniResult(**fields, worst_negative=-0.1).negativity_warning
        with pytest.raises(TypeError):
            GiniResult(**fields, negativity_warning=True)

    def test_weights_populated_only_for_p1(self):
        sample = gen_spike_cube(0.3, 2)
        assert gini_p(sample, 1.0).weights is not None
        assert gini_p(sample, 2.0).weights is None

    def test_zero_whitened_mean_rejected(self):
        sample = WeightedSample([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(NumericalError, match="zero p-norm"):
            gini_p(sample, 1.0)

    def test_exact_cap(self):
        rng = np.random.default_rng(41)
        sample = WeightedSample(rng.lognormal(0, 0.5, (30, 2)))
        with pytest.raises(DataError, match="capped"):
            gini_p(sample, 2.0, exact_cap=10)

    def test_exact_cap_comes_before_any_moment(self, monkeypatch):
        rng = np.random.default_rng(41)
        sample = WeightedSample(rng.lognormal(0, 0.5, (30, 2)))

        def refuse(sample):
            raise AssertionError("moments computed for a sample above the exact cap")

        monkeypatch.setattr(gini_module, "moments", refuse)
        message = "exact estimator capped at n=29 (sample has 30); use the pair-sampling estimator"
        with pytest.raises(DataError, match=re.escape(message)):
            gini_p(sample, 2.0, exact_cap=sample.n - 1)

    def test_exact_cap_comes_before_a_singular_fit(self):
        column = np.arange(1.0, 51.0)
        singular = WeightedSample(np.column_stack([column, 3.0 * column]))
        with pytest.raises(NumericalError, match="singular"):
            gini_p(singular, 2.0)
        with pytest.raises(DataError, match=re.escape("capped at n=10 (sample has 50)")):
            gini_p(singular, 2.0, exact_cap=10)

    def test_exact_cap_does_not_apply_to_p1(self):
        rng = np.random.default_rng(41)
        sample = WeightedSample(rng.lognormal(0, 0.5, (30, 2)))
        value = gini_p(sample, 1.0, exact_cap=10).value
        transform = fit_whitening("zca_cor", moments(sample))
        assert abs(value - brute_force_gini_p(sample, 1.0, transform)) <= 1e-12

    @pytest.mark.parametrize("method", SCALE_STABLE_METHODS)
    @pytest.mark.parametrize("p, estimator", [(1.0, "exact"), (2.0, "exact"), (2.0, "pairs")])
    def test_result_carries_its_fit(self, p, estimator, method):
        rng = np.random.default_rng(44)
        sample = WeightedSample(rng.lognormal(0, 0.5, (40, 3)), rng.random(40) + 0.05)
        result = gini_p(sample, p, method=method, estimator=estimator, pairs=2000)
        m = moments(sample)
        fitted = result.transform.fitted_moments
        assert fitted.mean.tobytes() == m.mean.tobytes()
        assert fitted.covariance.tobytes() == m.covariance.tobytes()
        assert result.transform.matrix.tobytes() == fit_whitening(method, m).matrix.tobytes()
        # the transform stays out of the printed result
        assert list(result.to_dict()) == [
            "p", "value", "normalizer", "method", "estimator", "weights", "component_ginis",
            "pair_count", "seed", "std_error", "negativity_warning", "worst_negative",
        ]
        assert "transform" not in repr(result)

    def test_unknown_estimator(self):
        sample = gen_spike_cube(0.3, 1)
        with pytest.raises(DataError, match="estimator"):
            gini_p(sample, 1.0, estimator="bootstrap")

    @pytest.mark.parametrize("method", ["zca", "pca"])
    def test_whitening_that_is_not_scale_stable_is_rejected(self, method):
        sample = WeightedSample(np.random.default_rng(3).lognormal(0.0, 0.7, (300, 3)))
        m = moments(sample)
        assert all(fit_whitening(name, m).whiteness_residual < 1e-12 for name in METHODS)
        assert set(METHODS) - set(SCALE_STABLE_METHODS) == {"zca", "pca"}
        message = (f"{method} whitening is not scale stable; "
                   "the index takes 'zca_cor' or 'cholesky'")
        for p in (1.0, 2.0, math.inf):
            for estimator in ("exact", "pairs"):
                with pytest.raises(DataError, match=re.escape(message)):
                    gini_p(sample, p, method=method, estimator=estimator, pairs=100)
        with pytest.raises(DataError, match=re.escape(message)):
            gini_1_decomposed(sample, method=method)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_threads_do_not_change_value(self, p):
        rng = np.random.default_rng(42)
        sample = WeightedSample(rng.lognormal(0, 0.5, (3000, 2)))
        assert len(_exact_chunks(sample.n)) > 4
        assert gini_p(sample, p, threads=1).value == gini_p(sample, p, threads=4).value
        y, w = sample.points, sample.weights
        assert _exact_mean_distance(y, w, p, 1) == _exact_mean_distance(y, w, p, 4)

    def test_threads_default_to_the_usable_cpus(self, monkeypatch):
        sample = WeightedSample(np.random.default_rng(45).lognormal(0.0, 0.5, (1000, 2)))
        assert len(_exact_chunks(sample.n)) > 2
        threads = []
        exact = gini_module._exact_mean_distance

        def recording(y, w, p, count):
            threads.append(count)
            return exact(y, w, p, count)

        monkeypatch.setattr(gini_module, "_exact_mean_distance", recording)
        expected = gini_p(sample, 2.0, threads=1).value
        threads.clear()
        if hasattr(os, "sched_getaffinity"):
            # a restricted cpuset, not the machine's core count
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5, 9})
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            assert gini_p(sample, 2.0).value == expected
            assert threads.pop() == 3
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert gini_p(sample, 2.0).value == expected
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert gini_p(sample, 2.0).value == expected
        assert threads == [6, 1]

    def test_threads_none_is_the_default(self):
        sample = WeightedSample(np.random.default_rng(46).lognormal(0.0, 0.5, (1000, 3)))
        value = gini_p(sample, 2.0, threads=None).value
        assert value == gini_p(sample, 2.0).value == gini_p(sample, 2.0, threads=1).value

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(DataError, match="threads must be >= 1"):
            gini_p(gen_spike_cube(0.3, 2), 2.0, threads=threads)

    @pytest.mark.parametrize("name, value, estimator", [
        ("threads", "2", "exact"),
        ("threads", True, "exact"),
        ("exact_cap", "10", "exact"),
        ("exact_cap", math.nan, "exact"),
        ("pairs", "100", "pairs"),
        ("pairs", 2.5, "pairs"),
        ("seed", "3", "pairs"),
    ])
    def test_counts_must_be_integers(self, name, value, estimator):
        with pytest.raises(DataError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            gini_p(gen_spike_cube(0.3, 2), 2.0, estimator=estimator, **{name: value})

    def test_counts_of_any_integer_type(self):
        sample = gen_spike_cube(0.3, 2)
        counts = {"pairs": np.int64(1000), "seed": np.uint8(3), "threads": np.int32(2),
                  "exact_cap": np.int16(100)}
        result = gini_p(sample, 2.0, estimator="pairs", **counts)
        assert (result.pair_count, result.seed) == (1000, 3)
        assert json.dumps(result.to_dict())
        assert result.value == gini_p(sample, 2.0, estimator="pairs", pairs=1000, seed=3).value

    def test_pairs_seed_must_be_non_negative(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            gini_p(gen_spike_cube(0.3, 2), 2.0, estimator="pairs", pairs=100, seed=-1)


    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"estimator": "pairs", "pairs": 0}, "pair count must be positive"),
            ({"estimator": "pairs", "seed": -3}, "seed must be >= 0, got -3"),
            ({"estimator": "bootstrap"}, "unknown estimator 'bootstrap'"),
            ({"exact_cap": -3}, "exact cap must be >= 0, got -3"),
            ({"estimator": "pairs", "exact_cap": -1}, "exact cap must be >= 0, got -1"),
            ({"method": "bogus"}, "unknown whitening method 'bogus'"),
            # the pair count and seed ranges hold for the exact estimator too
            ({"pairs": 0}, "pair count must be positive"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"method": "pca"}, "pca whitening is not scale stable"),
        ],
    )
    def test_argument_errors_come_before_numerical_ones(self, arguments, message):
        singular = WeightedSample([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(NumericalError, match="singular"):
            gini_p(singular, 2.0)
        with pytest.raises(DataError, match=message):
            gini_p(singular, 2.0, **arguments)
        # the covariance of this sample overflows, so its moments fail too
        overflowing = WeightedSample([[1e308, 1.0], [-1e308, 2.0], [0.0, 3.0]])
        with pytest.raises(NumericalError, match=r"covariance overflows in component\(s\) \[0\]"):
            gini_p(overflowing, 2.0)
        with pytest.raises(DataError, match=message):
            gini_p(overflowing, 2.0, **arguments)

    def test_p_that_is_not_a_number_is_a_data_error(self):
        sample = gen_spike_cube(0.3, 2)
        for p in (None, "abc", [1.0, 2.0], True, False, np.True_):
            with pytest.raises(DataError, match=re.escape(f"p must be a number, got {p!r}")):
                gini_p(sample, p)
        # an int too large for a float overflows float(p)
        with pytest.raises(DataError, match="p must be a number, got 1000"):
            gini_p(sample, 10**400)
        assert gini_p(sample, "2").value == gini_p(sample, 2.0).value


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")
class TestWorkerPinning:
    """The caller is one of the double sum's threads, there are no more of them
    than CPUs in the mask, no thread's CPU mask is set, and a chunk that raises
    stops them all."""

    @pytest.fixture
    def sample(self):
        sample = WeightedSample(np.random.default_rng(43).lognormal(0.0, 0.5, (2000, 3)))
        assert len(_exact_chunks(sample.n)) > 8
        return sample.points, sample.weights

    @staticmethod
    def chunk_threads(monkeypatch, fail_in_helper=False) -> list:
        """On a two-CPU mask, the id of the thread that computes each chunk.

        Each thread's first chunk waits until two threads have one, so that
        neither thread can take every chunk before the other starts.
        """
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        caller = threading.get_ident()
        idents = []
        both = threading.Barrier(2, timeout=30)
        kernel = gini_module._pnorm_of_differences

        def recording(*args):
            ident = threading.get_ident()
            if ident not in idents:
                both.wait()
            idents.append(ident)
            if fail_in_helper and ident != caller:
                raise RuntimeError("chunk failed in a helper")
            return kernel(*args)

        monkeypatch.setattr(gini_module, "_pnorm_of_differences", recording)
        return idents

    @staticmethod
    def pins(monkeypatch, mask) -> list:
        """Pretend the process mask is ``mask`` and record each pin instead of making it."""
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
        monkeypatch.setattr(
            os, "sched_setaffinity",
            lambda pid, cpus: calls.append((threading.get_ident(), pid, frozenset(cpus))),
        )
        return calls

    @pytest.fixture
    def mask(self):
        return os.sched_getaffinity(0)

    def test_caller_keeps_its_mask(self, sample, mask):
        value = _exact_mean_distance(*sample, 2.0, len(mask))
        assert os.sched_getaffinity(0) == mask
        assert value == _exact_mean_distance(*sample, 2.0, 1)

    @pytest.mark.parametrize(
        "cpus, threads",
        [((0, 2, 4, 6), 2), ((0, 2, 4, 6), 3), ((0, 2, 4, 6), 4), ((0, 2, 4, 6), 9), ((5,), 4)],
    )
    def test_no_pin_unless_the_mask_has_two_cpus(self, sample, cpus, threads, monkeypatch):
        calls = self.pins(monkeypatch, cpus)
        _exact_mean_distance(*sample, 2.0, threads)
        assert calls == []

    @pytest.mark.parametrize("cpus", [(0, 1), (3, 6), (5,), (0, 2, 4, 6)])
    def test_at_most_one_unpinned_thread_per_cpu(self, sample, cpus, monkeypatch):
        calls = self.pins(monkeypatch, cpus)
        counts = []
        kernel = gini_module._pnorm_of_differences

        def counting(*args):
            counts.append(threading.active_count())
            return kernel(*args)

        monkeypatch.setattr(gini_module, "_pnorm_of_differences", counting)
        before = threading.active_count()
        value = _exact_mean_distance(*sample, 2.0, 64)
        assert calls == []
        assert len(counts) == len(_exact_chunks(sample[0].shape[0]))
        # the caller is one of the len(cpus) threads
        assert max(counts) <= before + len(cpus) - 1
        assert value == _exact_mean_distance(*sample, 2.0, 1)

    def test_caller_and_a_helper_each_compute_chunks(self, sample, monkeypatch):
        expected = _exact_mean_distance(*sample, 2.0, 1)
        idents = self.chunk_threads(monkeypatch)
        assert _exact_mean_distance(*sample, 2.0, 2) == expected
        caller = threading.get_ident()
        assert len(idents) == len(_exact_chunks(sample[0].shape[0]))
        assert caller in idents
        assert {ident for ident in idents if ident != caller}

    def test_helper_error_reaches_the_caller(self, sample, monkeypatch):
        idents = self.chunk_threads(monkeypatch, fail_in_helper=True)
        with pytest.raises(RuntimeError, match="chunk failed in a helper"):
            _exact_mean_distance(*sample, 2.0, 2)
        assert {ident for ident in idents if ident != threading.get_ident()}

    @pytest.mark.parametrize("fails_in", ["caller", "helper"])
    def test_failed_chunk_stops_every_thread(self, sample, fails_in, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        caller = threading.get_ident()
        both = threading.Barrier(2, timeout=30)
        failed = threading.Event()
        idents = []
        kernel = gini_module._pnorm_of_differences

        def failing(*args):
            ident = threading.get_ident()
            if ident not in idents:
                both.wait()  # both threads hold a chunk
            idents.append(ident)
            if (ident == caller) == (fails_in == "caller"):
                failed.set()
                raise RuntimeError(f"chunk failed in the {fails_in}")
            # the other thread finishes its chunk only after the failure
            failed.wait(30)
            time.sleep(0.05)
            return kernel(*args)

        monkeypatch.setattr(gini_module, "_pnorm_of_differences", failing)
        with pytest.raises(RuntimeError, match=f"chunk failed in the {fails_in}"):
            _exact_mean_distance(*sample, 2.0, 2)
        # one chunk per thread, of the sample's more than 8
        assert len(idents) == 2
        assert len(set(idents)) == 2


def outlier_sample():
    """Lognormal rows plus one far outlier: some whitened differences exceed 11."""
    rng = np.random.default_rng(73)
    points = rng.lognormal(0.0, 0.5, (200, 3))
    points[0] *= 40.0
    return WeightedSample(points)


class TestLargeP:
    """|x|^p over- or underflows at large finite p: an error, never inf, nan or a warning."""

    @pytest.mark.parametrize("p", [300.0, 1000.0, 1e6])
    @pytest.mark.parametrize("estimator", ["exact", "pairs"])
    def test_large_p_is_numerical_error(self, p, estimator):
        sample = outlier_sample()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"p = {p:g} is too large") + ".*--p inf"):
                gini_p(sample, p, estimator=estimator, pairs=20_000, threads=2)

    @pytest.mark.parametrize("sigma, small", [(1.2, True), (0.3, False)])
    def test_normalizer_underflow_or_overflow_is_not_a_zero_mean(self, sigma, small):
        sample = WeightedSample(np.random.default_rng(79).lognormal(0.0, sigma, (300, 2)))
        m = moments(sample)
        transform = fit_whitening("zca_cor", m)
        m_star = transform.matrix @ m.mean
        # |m*_i|^p underflows to 0 when every |m*_i| < 1, and overflows otherwise
        assert np.all(np.abs(m_star) < 1.0) == small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="too large"):
                gini_p(sample, 1e6)
            with pytest.raises(NumericalError, match=re.escape("p = 1e+06 is too large")):
                _whitened_mean_norm(m_star, 1e6)
            # below the range limits the normalizer is the plain formula
            expected = float(np.sum(np.abs(m_star) ** 200.0) ** (1.0 / 200.0))
            assert _whitened_mean_norm(m_star, 200.0) == expected

    def test_p_50_matches_brute_force(self):
        sample = outlier_sample()
        transform = fit_whitening("zca_cor", moments(sample))
        assert abs(gini_p(sample, 50.0).value - brute_force_gini_p(sample, 50.0, transform)) <= 1e-12


class TestScaleFreeDegeneracy:
    """Degeneracy is judged per component, so no rescaling can trigger it."""

    @pytest.mark.parametrize("method", SCALE_STABLE_METHODS)
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_tiny_or_huge_component_scale_keeps_value(self, method, p):
        rng = np.random.default_rng(45)
        sample = WeightedSample(rng.lognormal(0.0, 1.0, (400, 3)))
        base = gini_p(sample, p, method=method).value
        for q in ([1.0, 1e-6, 1.0], [1e-6, 1.0, 1e6], [1e-9, 1e9, 1.0]):
            value = gini_p(sample.scaled(q), p, method=method).value
            assert value == pytest.approx(base, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("method", SCALE_STABLE_METHODS)
    def test_constant_component_still_rejected(self, method):
        rng = np.random.default_rng(44)
        points = rng.lognormal(size=(7, 3))
        points[:, 1] = 0.1
        sample = WeightedSample(points)
        # 0.1 is not a binary fraction: the computed variance is rounding noise, not 0
        assert moments(sample).covariance[1, 1] > 0.0
        for q in ([1.0, 1.0, 1.0], [1e-6, 1e6, 1.0]):
            with pytest.raises(NumericalError, match=r"zero variance in component\(s\) \[1\]"):
                gini_p(sample.scaled(q), 1.0, method=method)


def index_and_components(sample, p, method):
    result = gini_p(sample, p, method=method)
    components = [] if result.component_ginis is None else list(result.component_ginis)
    return np.array([result.value, *components])


class TestInvarianceProperties:
    """Invariances the index promises, on random samples (exact, p = 1 and 2).

    Each case compares the value, and at p = 1 every component index, within
    1e-12 relative; the worst seen over 600 random cases was 1.6e-14.  The
    thread count is the exception: it must not change a single bit.
    """

    cases = dict(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        n=st.integers(8, 200),
        weighted=st.booleans(),
        p=st.sampled_from([1.0, 2.0]),
        method=st.sampled_from(SCALE_STABLE_METHODS),
    )

    @staticmethod
    def assert_same_index(sample, other, p, method):
        base = index_and_components(sample, p, method)
        np.testing.assert_allclose(index_and_components(other, p, method), base,
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(**cases)
    def test_permutation(self, seed, d, n, weighted, p, method):
        rng = np.random.default_rng(seed)
        sample = random_nonneg_sample(rng, d, n, weighted)
        order = rng.permutation(n)
        permuted = WeightedSample(sample.points[order], sample.weights[order])
        self.assert_same_index(sample, permuted, p, method)

    @settings(max_examples=40, deadline=None)
    @given(**cases, fraction=st.floats(0.01, 0.99))
    def test_weight_split_across_duplicates(self, seed, d, n, weighted, p, method, fraction):
        rng = np.random.default_rng(seed)
        sample = random_nonneg_sample(rng, d, n, weighted)
        k = int(rng.integers(n))
        weights = np.append(sample.weights, fraction * sample.weights[k])
        weights[k] *= 1.0 - fraction
        split = WeightedSample(np.vstack([sample.points, sample.points[k]]), weights)
        self.assert_same_index(sample, split, p, method)

    @settings(max_examples=40, deadline=None)
    @given(**cases)
    def test_positive_rescaling(self, seed, d, n, weighted, p, method):
        rng = np.random.default_rng(seed)
        sample = random_nonneg_sample(rng, d, n, weighted)
        q = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), d))
        self.assert_same_index(sample, sample.scaled(q), p, method)

    @settings(max_examples=15, deadline=None)
    @given(**{**cases, "n": st.integers(513, 1200), "p": st.sampled_from([1.5, 2.0, math.inf])})
    def test_thread_count(self, seed, d, n, weighted, p, method):
        # above 512 points the double sum has at least two chunks to share
        rng = np.random.default_rng(seed)
        sample = random_nonneg_sample(rng, d, n, weighted)
        assert len(_exact_chunks(n)) > 1
        values = {gini_p(sample, p, method=method, threads=t).value for t in (1, 2, 3)}
        assert len(values) == 1


class TestExactDoubleSum:
    """The chunked upper-triangle double sum against a full-matrix sum."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    @pytest.mark.parametrize("chunks", ["below-one-chunk", "exact-multiple", "ragged"])
    def test_matches_full_matrix(self, p, chunks, monkeypatch):
        rows = 64
        n = {"below-one-chunk": 40, "exact-multiple": 3 * rows, "ragged": 3 * rows + 5}[chunks]
        rng = np.random.default_rng(47)
        y = rng.standard_normal((n, 3))
        w = rng.random(n) + 0.05
        w /= w.sum()
        diff = np.abs(y[:, None, :] - y[None, :, :])
        if math.isinf(p):
            dist = diff.max(axis=-1)
        else:
            dist = (diff**p).sum(axis=-1) ** (1.0 / p)
        reference = float(w @ dist @ w)
        monkeypatch.setattr(gini_module, "_EXACT_CHUNK_ELEMENTS", rows * n)
        assert len(_exact_chunks(n)) == -(-n // rows)
        assert abs(_exact_mean_distance(y, w, p, 2) - reference) <= 1e-12


class TestPairEstimator:
    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(43)
        sample = WeightedSample(rng.lognormal(0, 0.5, (500, 3)), rng.random(500) + 0.01)
        a = gini_p(sample, 1.0, estimator="pairs", pairs=300_000, seed=7)
        b = gini_p(sample, 1.0, estimator="pairs", pairs=300_000, seed=7)
        assert a.value == b.value
        assert a.std_error == b.std_error
        c = gini_p(sample, 1.0, estimator="pairs", pairs=300_000, seed=8)
        assert c.value != a.value

    def test_consistent_with_exact(self):
        rng = np.random.default_rng(44)
        sample = random_nonneg_sample(rng, 3, 400, weighted=True)
        exact = gini_p(sample, 1.0).value
        estimate = gini_p(sample, 1.0, estimator="pairs", pairs=400_000, seed=5)
        assert abs(estimate.value - exact) <= 4.0 * estimate.std_error
        assert estimate.pair_count == 400_000
        assert estimate.seed == 5

    def test_positive_pair_count_required(self):
        with pytest.raises(DataError, match="pair count"):
            gini_p(gen_spike_cube(0.3, 1), 1.0, estimator="pairs", pairs=0)


class TestDecomposed:
    def test_weights_and_components(self):
        sample = white_product_sample([0.0, 3.0])
        result = gini_1_decomposed(sample)
        means = moments(sample).mean
        np.testing.assert_allclose(result.weights, means / means.sum(), atol=1e-12)
        np.testing.assert_allclose(
            result.component_ginis,
            [1.0 / (2.0 * means[0]), 1.0 / (2.0 * means[1])],
            atol=1e-12,
        )
        assert abs(result.weights.sum() - 1.0) <= 1e-12

    def test_zero_mean_component_rejected(self):
        sample = WeightedSample([[0.0, -1.0], [0.0, 1.0], [2.0, -1.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match=r"component\(s\) \[1\] have zero mean"):
            gini_1_decomposed(sample)
        # gini_p still has a value: whitened, the components are fair coins on
        # {0, 2} and {-1, 1}, each with mean absolute difference 1
        result = gini_p(sample, 1.0)
        assert result.value == pytest.approx((1.0 + 1.0) / (2.0 * (1.0 + 0.0)), abs=1e-15)
        assert result.weights.tolist() == [1.0, 0.0]
        assert result.component_ginis is None

    @pytest.mark.parametrize("method", SCALE_STABLE_METHODS)
    def test_component_ginis_are_gini_1d_of_whitened_columns(self, method):
        rng = np.random.default_rng(48)
        sample = random_nonneg_sample(rng, 4, 150, weighted=True)
        result = gini_p(sample, 1.0, method=method)
        white = fit_whitening(method, moments(sample)).apply(sample)
        expected = [gini_1d(column, sample.weights) for column in white.T]
        np.testing.assert_allclose(result.component_ginis, expected, rtol=0.0, atol=1e-12)
        assert abs(result.weights @ result.component_ginis - result.value) <= 1e-12
        assert gini_1_decomposed(sample, method=method).to_dict() == result.to_dict()

    def test_no_component_ginis_from_pair_sampling(self):
        result = gini_p(gen_spike_cube(0.3, 2), 1.0, estimator="pairs", pairs=1000)
        assert result.weights is not None
        assert result.component_ginis is None


class TestGaussianClosedForm:
    def test_one_dimensional(self):
        m = 2.0
        assert gaussian_g1_closed_form([m], [[1.0]]) == pytest.approx(
            1.0 / (m * math.sqrt(math.pi)), abs=1e-14
        )

    def test_identity_covariance(self):
        expected = 1.0 / math.sqrt(math.pi)
        assert gaussian_g1_closed_form([1.0, 1.0, 1.0], np.eye(3)) == pytest.approx(
            expected, abs=1e-14
        )

    def test_monte_carlo_cross_check(self):
        # 1e6 draws, pair-sampled: combined sampling errors are well below 1%
        sample = gen_gaussian([1.0, 1.0, 1.0], np.eye(3), 1_000_000, seed=45)
        estimate = gini_p(sample, 1.0, estimator="pairs", pairs=2_000_000, seed=46)
        closed = gaussian_g1_closed_form([1.0, 1.0, 1.0], np.eye(3))
        assert abs(estimate.value - closed) / closed <= 0.01

    def test_zero_mean_rejected(self):
        with pytest.raises(NumericalError, match="non-null mean"):
            gaussian_g1_closed_form([0.0, 0.0], np.eye(2))

    def test_scale_invariance_of_closed_form(self):
        cov = np.array([[4.0, -2.0], [-2.0, 3.0]])
        mean = np.array([1.0, 2.0])
        q = np.array([3.0, 0.5])
        base = gaussian_g1_closed_form(mean, cov)
        scaled = gaussian_g1_closed_form(q * mean, cov * np.outer(q, q))
        assert scaled == pytest.approx(base, rel=1e-12)
