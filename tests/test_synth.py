import math
import re
from fractions import Fraction

import numpy as np
import pytest

from multigini import (
    DataError,
    MomentSummary,
    NumericalError,
    WeightedSample,
    WhiteningTransform,
    fit_whitening,
    gini_1d,
    gini_1_decomposed,
    gini_p,
    load_csv,
    moments,
    sym_eigen,
)
from multigini.synth import (
    BRUTE_FORCE_CAP,
    brute_force_gini_1d,
    brute_force_gini_p,
    expand_to_rows,
    gen_coinflip_cube,
    gen_gaussian,
    gen_spike_cube,
    pca_instability_fixture,
    rational_gini_1d,
    rational_mean_abs_difference,
    write_sample_csv,
)


class TestGenGaussian:
    def test_deterministic(self):
        a = gen_gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]], 100, seed=3)
        b = gen_gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]], 100, seed=3)
        np.testing.assert_array_equal(a.points, b.points)

    def test_large_sample_mean(self):
        s = gen_gaussian([1.0, 1.0, 1.0], np.eye(3), 1_000_000, seed=4)
        assert np.abs(moments(s).mean - 1.0).max() <= 0.005

    def test_covariance_convergence(self):
        cov = np.array([[4.0, -2.0], [-2.0, 3.0]])
        s = gen_gaussian([0.0, 0.0], cov, 100_000, seed=5)
        assert np.abs(moments(s).covariance - cov).max() <= 0.05

    def test_rejects_non_spd(self):
        with pytest.raises(NumericalError):
            gen_gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 10, seed=0)

    def test_rejects_tiny_n(self):
        with pytest.raises(DataError):
            gen_gaussian([0.0], [[1.0]], 1, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
         (True, "seed must be an integer, got True")],
    )
    def test_seed_is_a_non_negative_integer(self, seed, message):
        with pytest.raises(DataError, match=re.escape(message)):
            gen_gaussian([1.0], [[1.0]], 10, seed=seed)


class TestCoinflipCube:
    def test_support_one_dim(self):
        s = gen_coinflip_cube(0.0, 1)
        np.testing.assert_array_equal(np.sort(s.points[:, 0]), [0.0, 2.0])
        np.testing.assert_array_equal(s.weights, [0.5, 0.5])

    def test_two_dim_identity_covariance(self):
        m = moments(gen_coinflip_cube(0.0, 2))
        np.testing.assert_allclose(m.mean, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.covariance, np.eye(2), atol=1e-15)

    def test_closed_form_moments(self):
        for shift in (0.0, 1.5, 9.0):
            for dim in (1, 3):
                m = moments(gen_coinflip_cube(shift, dim))
                assert np.abs(m.mean - (1.0 + shift)).max() <= 1e-12
                assert np.abs(np.diag(m.covariance) - 1.0).max() <= 1e-12

    def test_exchangeable_components_share_weight(self):
        result = gini_1_decomposed(gen_coinflip_cube(2.0, 4))
        np.testing.assert_allclose(result.weights, 0.25, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(DataError, match=r"\[1, 12\]"):
            gen_coinflip_cube(0.0, 13)

    @pytest.mark.parametrize(
        "dim, message",
        [(0, "dim must be >= 1, got 0"), (2.5, "dim must be an integer, got 2.5"),
         (True, "dim must be an integer, got True")],
    )
    def test_dimension_is_a_positive_integer(self, dim, message):
        with pytest.raises(DataError, match=re.escape(message)):
            gen_coinflip_cube(0.0, dim)
        with pytest.raises(DataError, match=re.escape(message)):
            gen_spike_cube(0.2, dim)


class TestSpikeCube:
    def test_closed_form_moments(self):
        # mean sqrt(p)/(1-p) and variance 1/(1-p) per component
        for p in (0.1, 0.25, 0.5, 0.9):
            for dim in (1, 2):
                m = moments(gen_spike_cube(p, dim))
                assert np.abs(m.mean - math.sqrt(p) / (1.0 - p)).max() <= 1e-12
                assert np.abs(np.diag(m.covariance) - 1.0 / (1.0 - p)).max() <= 1e-12

    def test_half_probability_mean_is_sqrt_two(self):
        m = moments(gen_spike_cube(0.5, 1))
        assert m.mean[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_component_gini_is_one_minus_p(self):
        for p in (0.05, 0.3, 0.8):
            s = gen_spike_cube(p, 1)
            assert gini_1d(s.points[:, 0], s.weights) == pytest.approx(1.0 - p, abs=1e-14)

    def test_multivariate_value(self):
        assert gini_p(gen_spike_cube(0.01, 3), 1.0).value == pytest.approx(0.99, abs=1e-12)

    def test_probability_range(self):
        with pytest.raises(DataError):
            gen_spike_cube(0.0, 1)
        with pytest.raises(DataError):
            gen_spike_cube(1.0, 1)


class TestBruteForce:
    def test_point_mass_is_zero(self):
        sample = WeightedSample([[1.0, 2.0]] * 4)
        transform = WhiteningTransform(
            method="zca",
            matrix=np.eye(2),
            fitted_moments=MomentSummary.from_mean_cov([1.0, 2.0], np.eye(2)),
            whiteness_residual=0.0,
        )
        assert brute_force_gini_p(sample, 1.0, transform) == 0.0

    def test_spike_cube_value(self):
        for p_hi in (0.2, 0.6):
            sample = gen_spike_cube(p_hi, 2)
            transform = fit_whitening("zca_cor", moments(sample))
            assert brute_force_gini_p(sample, 1.0, transform) == pytest.approx(
                1.0 - p_hi, abs=1e-12
            )

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_agrees_with_fast_path(self, p):
        rng = np.random.default_rng(51)
        sample = WeightedSample(
            rng.lognormal(0.0, 0.6, (60, 3)), rng.random(60) + 0.05
        )
        transform = fit_whitening("zca_cor", moments(sample))
        assert brute_force_gini_p(sample, p, transform) == pytest.approx(
            gini_p(sample, p).value, abs=1e-12
        )

    def test_size_cap(self):
        sample = WeightedSample(np.ones((2001, 1)))
        transform = WhiteningTransform(
            method="zca",
            matrix=np.eye(1),
            fitted_moments=MomentSummary.from_mean_cov([1.0], np.eye(1)),
            whiteness_residual=0.0,
        )
        with pytest.raises(DataError, match="capped"):
            brute_force_gini_p(sample, 1.0, transform)

    def test_gini_1d_size_cap(self):
        with pytest.raises(DataError, match=f"capped at n={BRUTE_FORCE_CAP}"):
            brute_force_gini_1d(np.ones(BRUTE_FORCE_CAP + 1))


def pairwise_fractions(values, weights):
    """sum_{a,b} w_a w_b |v_a - v_b| and the mean, over all pairs, in Fractions."""
    v = [Fraction(x) for x in values]
    w = [Fraction(1)] * len(v) if weights is None else [Fraction(x) for x in weights]
    total = sum(w)
    w = [x / total for x in w]
    pairs = sum(wa * wb * abs(va - vb) for va, wa in zip(v, w) for vb, wb in zip(v, w))
    return pairs, sum(wa * va for va, wa in zip(v, w))


class TestRationalOracle:
    """The sorted rational evaluators equal a Fraction double sum over all pairs, exactly."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 300])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_equals_the_pairwise_double_sum(self, n, weighted):
        rng = np.random.default_rng(70 + n)
        # ties, both signed zeros, mixed signs and a wide range of magnitudes
        values = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300, 3e8], n)
        values[: n // 2] = rng.lognormal(0.0, 3.0, n // 2) * rng.choice([-1.0, 1.0], n // 2)
        rng.shuffle(values)
        weights = rng.random(n) * rng.choice([1e-3, 1.0, 7.0], n) if weighted else None
        pairs, mean = pairwise_fractions(values, weights)
        assert rational_mean_abs_difference(values, weights) == pairs
        if mean != 0:
            assert rational_gini_1d(values, weights) == float(pairs / (2 * abs(mean)))

    def test_equal_weights_are_no_weights(self):
        values = [3.0, 1.0, 1.0, -0.5, 8.0]
        assert rational_mean_abs_difference(values, [0.3] * 5) == rational_mean_abs_difference(values)

    def test_zero_mean_rejected(self):
        with pytest.raises(NumericalError, match="zero-mean"):
            rational_gini_1d([-1.0, 1.0])


class TestInstabilityFixture:
    def test_design_sample_moments_exact(self):
        fx = pca_instability_fixture()
        m = moments(fx.sample)
        np.testing.assert_allclose(m.mean, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(m.covariance, [[4.0, -2.0], [-2.0, 3.0]], atol=1e-13)

    def test_scaled_moments_match_expected(self):
        fx = pca_instability_fixture()
        scaled = fx.sample.scaled(fx.expected["scale"])
        m = moments(scaled)
        np.testing.assert_allclose(m.mean, fx.expected["scaled_mean"], atol=1e-13)
        np.testing.assert_allclose(m.covariance, fx.expected["scaled_cov"], atol=1e-12)

    def test_eigenvalues_match_2dp_references(self):
        fx = pca_instability_fixture()
        base = sym_eigen(moments(fx.sample).covariance).eigenvalues
        scaled = sym_eigen(np.asarray(fx.expected["scaled_cov"])).eigenvalues
        np.testing.assert_allclose(base, fx.expected["eigenvalues_2dp"], atol=0.005)
        np.testing.assert_allclose(scaled, fx.expected["scaled_eigenvalues_2dp"], atol=0.005)

    def test_every_expected_value_has_a_note(self):
        fx = pca_instability_fixture()
        assert set(fx.notes) == set(fx.expected)
        assert all(isinstance(v, str) and v for v in fx.notes.values())


class TestCsvExport:
    def test_expand_to_rows_preserves_measure(self):
        sample = gen_spike_cube(0.2, 3)
        rows = expand_to_rows(sample, 125)
        assert rows.shape == (125, 3)
        expanded = WeightedSample(rows)
        np.testing.assert_allclose(moments(expanded).mean, moments(sample).mean, atol=1e-12)
        np.testing.assert_allclose(
            moments(expanded).covariance, moments(sample).covariance, atol=1e-12
        )

    @pytest.mark.parametrize(
        "rows, message",
        [(125.9, "rows must be an integer, got 125.9"), (125.0, "rows must be an integer, got 125.0"),
         (-125, "rows must be >= 1, got -125"), (0, "rows must be >= 1, got 0"),
         (True, "rows must be an integer, got True")],
    )
    def test_row_count_is_a_positive_integer(self, tmp_path, rows, message):
        sample = gen_spike_cube(0.2, 3)
        with pytest.raises(DataError, match=re.escape(message)):
            expand_to_rows(sample, rows)
        with pytest.raises(DataError, match=re.escape(message)):
            write_sample_csv(sample, tmp_path / "x.csv", ["a", "b", "c"], rows=rows)
        assert not (tmp_path / "x.csv").exists()

    def test_expand_rejects_non_representable(self):
        sample = gen_spike_cube(0.2, 3)
        with pytest.raises(DataError, match="expand"):
            expand_to_rows(sample, 100)

    def test_round_trip_through_metric_loader(self, tmp_path):
        from multigini.report import load_metric_columns

        sample = gen_spike_cube(0.2, 2)
        path = tmp_path / "fixture.csv"
        written = write_sample_csv(sample, path, ["a", "b"], rows=25)
        assert written == 25
        matrix, dropped = load_metric_columns(path, ["a", "b"])
        assert dropped == 0
        back = WeightedSample(matrix)
        np.testing.assert_allclose(moments(back).mean, moments(sample).mean, atol=1e-12)
        np.testing.assert_allclose(
            moments(back).covariance, moments(sample).covariance, atol=1e-12
        )

    def test_report_path_drops_non_positive_rows(self, tmp_path):
        # the company-report ingestion treats zero metrics as data errors
        sample = gen_spike_cube(0.2, 2)
        path = tmp_path / "fixture.csv"
        write_sample_csv(sample, path, ["a", "b"], rows=25)
        panel, dropped = load_csv(path, ["a", "b"])
        assert dropped == 24  # every row touching the zero support point
        assert len(panel) == 1

    def test_round_trip_positive_sample(self, tmp_path):
        sample = gen_coinflip_cube(1.0, 2)  # support {1, 3}^2, strictly positive
        path = tmp_path / "coin.csv"
        write_sample_csv(sample, path, ["x", "y"])
        panel, dropped = load_csv(path, ["x", "y"])
        assert dropped == 0
        back = WeightedSample(panel.values)
        np.testing.assert_allclose(moments(back).mean, moments(sample).mean, atol=1e-14)

    def test_requires_uniform_weights_without_rows(self, tmp_path):
        sample = gen_spike_cube(0.2, 2)
        with pytest.raises(DataError, match="uniform"):
            write_sample_csv(sample, tmp_path / "x.csv", ["a", "b"])

    def test_nearly_equal_weights_are_not_uniform(self, tmp_path):
        # within 1e-12 of 1/n, but one weight is an ulp above the others
        points = np.arange(1.0, 7.0).reshape(3, 2)
        sample = WeightedSample(points, [1.0, 1.0, np.nextafter(1.0, 2.0)])
        assert np.abs(sample.weights - 1.0 / 3.0).max() < 1e-12
        with pytest.raises(DataError, match="uniform"):
            write_sample_csv(sample, tmp_path / "x.csv", ["a", "b"])
        assert not (tmp_path / "x.csv").exists()
        assert write_sample_csv(WeightedSample(points, [2.0] * 3), tmp_path / "y.csv", ["a", "b"]) == 3

    def test_metric_name_count_checked(self, tmp_path):
        sample = gen_coinflip_cube(1.0, 2)
        with pytest.raises(DataError, match="metric names"):
            write_sample_csv(sample, tmp_path / "x.csv", ["only_one"])
