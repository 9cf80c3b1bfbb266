import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigini.sample
from multigini import (
    DataError,
    MomentSummary,
    NumericalError,
    WeightedSample,
    cholesky_lower,
    moments,
    sym_eigen,
)
from multigini.sample import _exact_column_sums


class TestWeightedSample:
    def test_uniform_default(self):
        s = WeightedSample([[1.0], [1.0]])
        np.testing.assert_array_equal(s.weights, [0.5, 0.5])

    def test_weights_normalized(self):
        s = WeightedSample([[0.0], [2.0]], weights=[1.0, 1.0])
        np.testing.assert_array_equal(s.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = WeightedSample(rng.standard_normal((50, 3)), rng.random(50))
        assert abs(s.weights.sum() - 1.0) <= 1e-12

    def test_all_zero_weights(self):
        with pytest.raises(DataError, match="all-zero weights"):
            WeightedSample([[1.0, 2.0]], weights=[0.0])

    def test_negative_weight(self):
        with pytest.raises(DataError, match="negative weight"):
            WeightedSample([[1.0], [2.0]], weights=[1.0, -0.5])

    def test_non_finite_points(self):
        with pytest.raises(DataError, match="non-finite"):
            WeightedSample([[1.0], [np.nan]])

    def test_non_finite_weights(self):
        with pytest.raises(DataError, match="non-finite"):
            WeightedSample([[1.0], [2.0]], weights=[1.0, np.inf])

    def test_overflowing_weight_total_is_data_error(self):
        with pytest.raises(DataError, match="weights sum to more than the largest float"):
            WeightedSample([[1.0], [2.0]], weights=[1e308, 1e308])
        # a total just below the limit is normalized as before
        w = np.array([1e308, 7.9e307])
        np.testing.assert_array_equal(WeightedSample([[1.0], [2.0]], w).weights, w / math.fsum(w))

    @pytest.mark.parametrize("points, weights, message", [
        pytest.param([[1.0], [2.0]], ["a", "b"], "weights must be numbers, got ['a', 'b']",
                     id="weights"),
        pytest.param([["a"], ["b"]], None, "points must be numbers, got [['a'], ['b']]",
                     id="points"),
    ])
    def test_non_numeric_input_is_data_error(self, points, weights, message):
        with pytest.raises(DataError, match=re.escape(message)):
            WeightedSample(points, weights)

    def test_points_are_a_copy(self):
        points = np.array([[1.0], [2.0]])
        s = WeightedSample(points)
        points[0, 0] = 5.0
        assert s.points[0, 0] == 1.0

    def test_1d_points_become_single_column(self):
        s = WeightedSample([1.0, 2.0, 3.0])
        assert s.points.shape == (3, 1)

    def test_empty_points_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            WeightedSample(np.empty((0, 2)))

    def test_weight_length_mismatch(self):
        with pytest.raises(DataError, match="weights"):
            WeightedSample([[1.0], [2.0]], weights=[1.0])

    def test_points_copied(self):
        pts = np.array([[1.0, 2.0]])
        s = WeightedSample(pts)
        pts[0, 0] = 99.0
        assert s.points[0, 0] == 1.0

    def test_scaled_requires_positive(self):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match="positive"):
            s.scaled([1.0, 0.0])

    def test_scaled_by_a_non_number_is_data_error(self):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match=r"scale factors must be numbers, got \['2', 'x'\]"):
            s.scaled(["2", "x"])

    @pytest.mark.parametrize("c", [["a", "b"], [[1.0], ["x"]], {"a": 1.0}])
    def test_shifted_by_a_non_number_is_data_error(self, c):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match=r"shift entries must be numbers, got "):
            s.shifted(c)

    def test_shifted_by_the_wrong_length_is_data_error(self):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match="expected 2 shift entries, got 3"):
            s.shifted([1.0, 2.0, 3.0])

    def test_scaled_and_shifted(self):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]], weights=[1.0, 3.0])
        t = s.scaled([2.0, 1.0]).shifted([0.0, -1.0])
        np.testing.assert_allclose(t.points, [[2.0, 1.0], [6.0, 3.0]])
        np.testing.assert_array_equal(t.weights, s.weights)

    # sizes where n * fl(1/n) does not round to 1, so 1/n divided by its total moves
    @pytest.mark.parametrize("n", [49, 98, 103, 107, 161])
    def test_one_weight_vector_per_uniform_distribution(self, n):
        x = np.random.default_rng(n).lognormal(0.0, 1.0, (n, 2))
        s = WeightedSample(x)
        uniform = np.full(n, 1.0 / n).tobytes()
        assert s.weights.tobytes() == uniform
        assert WeightedSample(x, s.weights).weights.tobytes() == uniform
        assert s.scaled([2.0, 3.0]).weights.tobytes() == uniform
        assert s.shifted([1.5, -0.25]).weights.tobytes() == uniform
        assert WeightedSample(x, [0.1] * n).weights.tobytes() == uniform


class TestMoments:
    def test_sign_design_gives_identity(self):
        pts = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        m = moments(WeightedSample(pts))
        np.testing.assert_allclose(m.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(m.covariance, np.eye(2), atol=1e-15)

    def test_two_point_coin(self):
        m = moments(WeightedSample([0.0, 2.0], weights=[0.5, 0.5]))
        assert m.mean[0] == 1.0
        assert m.variances[0] == 1.0

    def test_cholesky_design_matches_direct_summation(self):
        # 4-point design with mean (1,1) and covariance [[4,-2],[-2,3]];
        # expected moments recomputed here by plain loops
        target = np.array([[4.0, -2.0], [-2.0, 3.0]])
        design = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        pts = np.array([1.0, 1.0]) + design @ cholesky_lower(target).T
        w = [0.25] * 4
        mean = [sum(w[a] * pts[a, j] for a in range(4)) for j in range(2)]
        cov = [
            [sum(w[a] * (pts[a, i] - mean[i]) * (pts[a, j] - mean[j]) for a in range(4)) for j in range(2)]
            for i in range(2)
        ]
        np.testing.assert_allclose(mean, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(cov, target, atol=1e-12)
        m = moments(WeightedSample(pts))
        np.testing.assert_allclose(m.mean, mean, atol=1e-14)
        np.testing.assert_allclose(m.covariance, cov, atol=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d = int(rng.integers(3, 120)), int(rng.integers(1, 5))
            pts = rng.standard_normal((n, d)) * 5
            w = rng.random(n) + 0.01
            perm = rng.permutation(n)
            a = moments(WeightedSample(pts, w))
            b = moments(WeightedSample(pts[perm], w[perm]))
            np.testing.assert_array_equal(a.mean, b.mean)
            scale = max(1.0, np.abs(a.covariance).max())
            assert np.abs(a.covariance - b.covariance).max() <= 1e-12 * scale

    def test_scaling_conjugates_covariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, d = int(rng.integers(4, 80)), int(rng.integers(1, 6))
            s = WeightedSample(rng.standard_normal((n, d)), rng.random(n) + 0.1)
            q = np.exp(rng.uniform(-2, 2, d))
            cov = moments(s).covariance
            cov_scaled = moments(s.scaled(q)).covariance
            expected = cov * np.outer(q, q)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(cov_scaled - expected).max() <= 1e-10 * scale

    def test_correlation_scale_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, d = int(rng.integers(4, 80)), int(rng.integers(2, 6))
            s = WeightedSample(rng.standard_normal((n, d)))
            q = np.exp(rng.uniform(-2, 2, d))
            p0 = moments(s).correlation
            p1 = moments(s.scaled(q)).correlation
            assert np.abs(p1 - p0).max() <= 1e-10

    def test_correlation_unit_diagonal_and_range(self):
        rng = np.random.default_rng(14)
        m = moments(WeightedSample(rng.standard_normal((30, 4))))
        np.testing.assert_array_equal(np.diag(m.correlation), np.ones(4))
        assert np.all(m.correlation <= 1.0) and np.all(m.correlation >= -1.0)

    def test_variance_correlation_reconstruct_covariance(self):
        rng = np.random.default_rng(15)
        m = moments(WeightedSample(rng.standard_normal((40, 3)) * [1.0, 5.0, 0.2]))
        v_half = np.diag(np.sqrt(m.variances))
        recon = v_half @ m.correlation @ v_half
        scale = max(1.0, np.abs(m.covariance).max())
        assert np.abs(recon - m.covariance).max() <= 1e-10 * scale

    @pytest.mark.parametrize("mean, cov", [
        ([0.0, 0.0], np.eye(3)),
        ([0.0, 0.0], np.ones((2, 3))),
        ([0.0], np.ones(1)),
    ])
    def test_from_mean_cov_rejects_a_mismatched_shape(self, mean, cov):
        shape = np.shape(cov)
        with pytest.raises(DataError, match=re.escape(
            f"covariance shape {shape} does not match mean of length {len(mean)}"
        )):
            MomentSummary.from_mean_cov(mean, cov)

    @pytest.mark.parametrize("mean, cov, message", [
        pytest.param(["a"], [[1.0]], "mean entries must be numbers, got ['a']", id="mean"),
        pytest.param([1.0], [["x"]], "covariance entries must be numbers, got [['x']]",
                     id="covariance"),
    ])
    def test_from_mean_cov_rejects_non_numbers(self, mean, cov, message):
        with pytest.raises(DataError, match=re.escape(message)):
            MomentSummary.from_mean_cov(mean, cov)

    def test_zero_variance_flagged_not_fatal(self):
        m = moments(WeightedSample([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]))
        assert m.zero_variance == (0,)
        assert np.isnan(m.correlation[0, 1])

    @pytest.mark.parametrize("points, overflowed", [
        ([[1e308, 1.0], [1.7e308, 2.0], [1.7e308, 3.0]], [0]),
        ([[1.0, 1e308], [2.0, 1.7e308], [3.0, 1.7e308]], [1]),
        ([[-1.7e308, 1e308], [1.7e308, 1.7e308], [0.0, 1.7e308]], [0, 1]),
    ])
    def test_covariance_overflow_is_numerical_error(self, points, overflowed):
        sample = WeightedSample(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"component(s) {overflowed};")):
                moments(sample)

    def test_finite_covariance_near_the_limit_is_the_plain_product(self):
        rng = np.random.default_rng(5)
        sample = WeightedSample(rng.lognormal(0.0, 1.0, (40, 3)) * 1e150, rng.random(40))
        x, w = sample.points, sample.weights
        diff = x - np.array([math.fsum(col) for col in (x * w[:, None]).T])
        cov = (diff * w[:, None]).T @ diff
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = moments(sample)
        np.testing.assert_array_equal(m.covariance, 0.5 * (cov + cov.T))
        assert m.zero_variance == ()

    def test_mean_near_the_float_limit_is_not_zero_variance(self):
        # mean * mean is out of range for component 0; its variance is not small
        sample = WeightedSample([[2e154, 1.0], [2.0001e154, 2.0], [2.0002e154, 4.0]])
        assert moments(sample).zero_variance == ()


def fsum_hex(column) -> str:
    """``math.fsum`` of the column as hex, or "overflow" when its exact sum is out of range.

    fsum also raises on an intermediate overflow whose exact sum is finite
    ([1e308, 1e308, -1e308]); that sum is then rounded once from a Fraction.
    """
    try:
        return math.fsum(column).hex()
    except OverflowError:
        pass
    try:
        return float(sum(map(Fraction, column), Fraction(0))).hex()
    except OverflowError:
        return "overflow"


def exact_sums_hex(x) -> list:
    try:
        return [value.hex() for value in _exact_column_sums(x).tolist()]
    except OverflowError:
        return ["overflow"]


# hard cases: zeros of both signs, subnormals, the normal range edge and huge values
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 1.0, -1.0, 0.1]
# values in the first and last exponent bins, and zeros; they sum to zero
_RANGE_EDGES = [5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]


def range_edge_columns(d: int) -> np.ndarray:
    """d columns, each the range edges in its own order plus two values of its own."""
    rng = np.random.default_rng(d)
    return np.column_stack([
        rng.permutation(_RANGE_EDGES + [(j + 1) * 5e-324, (-1) ** j * 1.7976931348623157e308])
        for j in range(d)
    ])


class TestExactColumnSums:
    """``_exact_column_sums`` is ``math.fsum`` per column, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        # a small block size makes most runs cross block boundaries
        block=st.sampled_from([1 << 14, 1, 2, 3, 5, 7, 64]),
    )
    def test_equals_fsum(self, d, n, seed, block):
        rng = np.random.default_rng(seed)
        # entry kinds, mixed in proportions that differ per run: edge values,
        # any finite double, subnormals, moderate values, negated copies
        kind = rng.choice(5, size=(n, d), p=rng.dirichlet(np.ones(5)))
        exponent = np.where(kind == 2, 0, rng.integers(0, 2047, (n, d), dtype=np.uint64))
        bits = (
            (rng.integers(0, 2, (n, d), dtype=np.uint64) << np.uint64(63))
            | (exponent.astype(np.uint64) << np.uint64(52))
            | rng.integers(0, 1 << 52, (n, d), dtype=np.uint64)
        )
        x = bits.view(np.float64)
        x = np.where(kind == 0, rng.choice(_EDGE_FLOATS, (n, d)), x)
        x = np.where(kind == 3, rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, (n, d)), x)
        x = np.where(kind == 4, -x[rng.integers(0, n, (n, d)), np.arange(d)], x)
        expected = [fsum_hex(column.tolist()) for column in x.T]
        if "overflow" in expected:
            expected = ["overflow"]
        with mock.patch.object(multigini.sample, "_SUM_BLOCK_ENTRIES", block):
            assert exact_sums_hex(x) == expected

    @pytest.mark.parametrize("column", [
        [1e16, 1.0, -1e16],
        [1.0, 1e100, 1.0, -1e100],
        [0.1] * 10 + [-1.0],
        [-0.0],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0],
        [1.0, -1.0, -0.0],
        [5e-324, 5e-324, -5e-324],
        [2.225073858507201e-308, 5e-324],
        [1e308, 1e308, -1e308],
        [1.7976931348623157e308, 1e292],
        [1.7976931348623157e308, 1.7976931348623157e308],
        # several columns at once, each using its first and last bins
        pytest.param(range_edge_columns(2), id="range-edges-d2"),
        pytest.param(range_edge_columns(3), id="range-edges-d3"),
        pytest.param(range_edge_columns(8), id="range-edges-d8"),
        pytest.param(np.asfortranarray(range_edge_columns(8)), id="range-edges-d8-fortran"),
    ])
    def test_cancellation_zeros_and_range_edges(self, column):
        x = np.array(column).reshape(len(column), -1)
        expected = [fsum_hex(values) for values in x.T.tolist()]
        assert exact_sums_hex(x) == expected
        assert exact_sums_hex(x[::-1]) == expected

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_many_blocks_of_the_default_size(self, d):
        n = 50_000
        # every column spans at least three blocks
        assert n > 2 * multigini.sample._SUM_BLOCK_ENTRIES
        rng = np.random.default_rng(d)
        x = rng.lognormal(0.0, 2.0, (n, d)) * rng.choice([-1.0, 1.0], (n, d))
        for j in range(d):
            x[rng.choice(n, len(_RANGE_EDGES), replace=False), j] = _RANGE_EDGES
        assert exact_sums_hex(x) == [fsum_hex(values) for values in x.T.tolist()]

    def test_one_exponent_accumulator_per_column(self, monkeypatch):
        bin_counts, bincount = [], np.bincount

        def spy(index, weights, minlength):
            bin_counts.append(minlength)
            return bincount(index, weights, minlength)

        monkeypatch.setattr(multigini.sample.np, "bincount", spy)
        x = np.random.default_rng(8).lognormal(0.0, 2.0, (5_000, 8))
        sums = _exact_column_sums(x)
        monkeypatch.undo()
        assert [value.hex() for value in sums.tolist()] == [fsum_hex(values) for values in x.T.tolist()]
        # one block a column, binned twice (high and low parts)
        assert bin_counts == [multigini.sample._EXPONENT_BINS] * 16

    def test_weights_normalized_by_the_exact_sum(self):
        w = np.array([1e16, 1.0, 3.0, 1e-3])
        np.testing.assert_array_equal(WeightedSample(np.ones((4, 1)), w).weights, w / math.fsum(w))


class TestSymEigen:
    def test_reference_two_by_two(self):
        e = sym_eigen([[4.0, -2.0], [-2.0, 3.0]])
        np.testing.assert_allclose(e.eigenvalues, [5.56, 1.44], atol=0.005)

    def test_reference_scaled_two_by_two(self):
        e = sym_eigen([[16.0, -4.0], [-4.0, 3.0]])
        np.testing.assert_allclose(e.eigenvalues, [17.13, 1.87], atol=0.005)

    def test_identity(self):
        e = sym_eigen(np.eye(4))
        np.testing.assert_array_equal(e.eigenvalues, np.ones(4))
        np.testing.assert_array_equal(e.eigenvectors, np.eye(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DataError, match=re.escape(f"expected a square matrix, got shape {shape}")):
            sym_eigen(np.ones(shape))

    def test_random_matrices_properties(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d))
            a = a + a.T
            e = sym_eigen(a)
            # descending order
            assert np.all(np.diff(e.eigenvalues) <= 1e-12)
            # orthonormal columns
            gram = e.eigenvectors.T @ e.eigenvectors
            assert np.abs(gram - np.eye(d)).max() <= 1e-10
            # reconstruction
            scale = max(1.0, np.abs(a).max())
            z = e.eigenvectors
            assert np.abs((z * e.eigenvalues) @ z.T - a).max() <= 1e-9 * scale
            # sign convention
            for j in range(d):
                col = e.eigenvectors[:, j]
                assert col[np.argmax(np.abs(col))] > 0


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky_lower([[4.0, 0.0], [0.0, 9.0]]), [[2.0, 0.0], [0.0, 3.0]])

    def test_two_by_two_reconstruction(self):
        a = np.array([[4.0, -2.0], [-2.0, 3.0]])
        c = cholesky_lower(a)
        assert c[0, 0] == 2.0
        assert np.abs(c @ c.T - a).max() <= 1e-12

    def test_random_spd(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            a = rng.standard_normal((d, d))
            spd = a.T @ a + 1e-3 * np.eye(d)
            c = cholesky_lower(spd)
            assert np.all(np.diag(c) > 0)
            assert np.abs(np.triu(c, 1)).max() == 0.0
            scale = max(1.0, np.abs(spd).max())
            assert np.abs(c @ c.T - spd).max() <= 1e-10 * scale

    def test_not_positive_definite_names_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite, fails at pivot 1
        with pytest.raises(NumericalError, match="index 1"):
            cholesky_lower(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            cholesky_lower([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DataError, match=re.escape(f"expected a square matrix, got shape {shape}")):
            cholesky_lower(np.ones(shape))
