import warnings

import numpy as np
import pytest

from multigini import (
    DataError,
    MomentSummary,
    NumericalError,
    WeightedSample,
    cholesky_lower,
    fit_whitening,
    moments,
    scale_stability_check,
)
from multigini.synth import pca_instability_fixture
from multigini.gini import worst_negative

ALL_METHODS = ("zca", "pca", "cholesky", "zca_cor")


def random_spd_moments(rng, d, mean_scale=3.0):
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.3 * np.eye(d)
    mean = rng.uniform(-mean_scale, mean_scale, d)
    return MomentSummary.from_mean_cov(mean, cov)


def gaussian_design_sample(mean, cov):
    """Exact finite sample realizing the given first two moments."""
    d = len(mean)
    masks = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    design = np.where(masks == 1, 1.0, -1.0) * np.sqrt(1.0)
    return WeightedSample(np.asarray(mean) + design @ cholesky_lower(cov).T)


class TestFitTrivialCases:
    def test_zca_identity(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(fit_whitening("zca", m).matrix, np.eye(2), atol=1e-12)

    def test_pca_identity(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(fit_whitening("pca", m).matrix, np.eye(2), atol=1e-12)

    def test_cholesky_identity(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(fit_whitening("cholesky", m).matrix, np.eye(2), atol=1e-12)

    def test_zca_cor_identity(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(fit_whitening("zca_cor", m).matrix, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("method", ["zca", "cholesky", "zca_cor"], ids="fit_{}".format)
    def test_diagonal_covariance(self, method):
        m = MomentSummary.from_mean_cov([0.0, 0.0], [[4.0, 0.0], [0.0, 9.0]])
        np.testing.assert_allclose(fit_whitening(method, m).matrix, [[0.5, 0.0], [0.0, 1.0 / 3.0]], atol=1e-12)


class TestWhiteness:
    def test_zca_symmetric_and_white(self):
        m = MomentSummary.from_mean_cov([1.0, 1.0], [[4.0, -2.0], [-2.0, 3.0]])
        t = fit_whitening("zca", m)
        assert np.abs(t.matrix - t.matrix.T).max() <= 1e-10
        assert np.abs(t.matrix @ m.covariance @ t.matrix.T - np.eye(2)).max() <= 1e-10

    def test_all_methods_white_on_random_spd(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            m = random_spd_moments(rng, d)
            scale = np.abs(m.covariance).max()
            for method in ALL_METHODS:
                t = fit_whitening(method, m)
                residual = np.abs(t.matrix @ m.covariance @ t.matrix.T - np.eye(d)).max()
                assert residual <= 1e-8 * max(1.0, scale), (method, residual)
                assert t.whiteness_residual <= 1e-8 * max(1.0, scale)

    def test_gram_identity_inverse_covariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_spd_moments(rng, d)
            inv = np.linalg.inv(m.covariance)
            for method in ALL_METHODS:
                t = fit_whitening(method, m)
                scale = max(1.0, np.abs(inv).max())
                assert np.abs(t.matrix.T @ t.matrix - inv).max() <= 1e-8 * scale

    def test_rotational_freedom(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_spd_moments(rng, d)
            r, _ = np.linalg.qr(rng.standard_normal((d, d)))
            w = r @ fit_whitening("zca", m).matrix
            inv = np.linalg.inv(m.covariance)
            scale = max(1.0, np.abs(inv).max())
            assert np.abs(w.T @ w - inv).max() <= 1e-9 * scale

    def test_cholesky_matrix_lower_triangular_positive_diag(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            d = int(rng.integers(2, 11))
            base = random_spd_moments(rng, d)
            q = 10.0 ** rng.uniform(-9.0, 9.0, d)
            m = MomentSummary.from_mean_cov(base.mean * q, base.covariance * np.outer(q, q))
            w = fit_whitening("cholesky", m).matrix
            assert np.all(np.triu(w, 1) == 0.0)
            assert np.all(np.diag(w) > 0)
            assert np.abs(w @ cholesky_lower(m.covariance) - np.eye(d)).max() <= 1e-13

    def test_zca_cor_conjugated_factor_symmetric(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_spd_moments(rng, d)
            t = fit_whitening("zca_cor", m)
            conj = t.matrix @ np.diag(np.sqrt(m.variances))
            assert np.abs(conj - conj.T).max() <= 1e-10


class TestFitErrors:
    def test_singular_covariance_reports_smallest_eigenvalue(self):
        m = MomentSummary.from_mean_cov([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="smallest eigenvalue"):
            fit_whitening("zca", m)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_collinear_sample_reports_smallest_eigenvalue(self, method):
        rng = np.random.default_rng(26)
        base = rng.lognormal(size=(50, 2))
        sample = WeightedSample(np.column_stack([base, base @ [2.0, 3.0]]))
        with pytest.raises(NumericalError, match="smallest eigenvalue"):
            fit_whitening(method, moments(sample))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_singularity_test_is_scale_free(self, method, seed):
        # a well-conditioned sample with one column in units a million times
        # larger: the covariance is ill-conditioned, the correlation is not
        points = np.random.default_rng(seed).lognormal(0.0, 0.6, (400, 3))
        m = moments(WeightedSample(points).scaled([1.0, 1e-6, 1.0]))
        assert fit_whitening(method, m).dim == 3

    @pytest.mark.parametrize("method", ["zca", "pca"], ids="fit_{}".format)
    def test_non_white_fit_rejected(self, method):
        # at a 1e-8 scale the covariance is still positive definite, but
        # roundoff leaves max|W S W^T - I| at 0.51
        points = np.random.default_rng(1).lognormal(0.0, 0.6, (400, 3))
        m = moments(WeightedSample(points).scaled([1.0, 1e-8, 1.0]))
        with pytest.raises(NumericalError, match="not white"):
            fit_whitening(method, m)
        for stable in ("cholesky", "zca_cor"):
            assert fit_whitening(stable, m).whiteness_residual <= 1e-14

    @pytest.mark.parametrize("method", ["zca", "pca"], ids="fit_{}".format)
    def test_indefinite_covariance_rejected(self, method):
        # at a 1e-10 scale the correlation is still well conditioned, but
        # roundoff leaves the covariance's smallest eigenvalue at -2.7e-17
        points = np.random.default_rng(1).lognormal(0.0, 0.6, (400, 3))
        m = moments(WeightedSample(points).scaled([1.0, 1e-10, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="covariance is not positive definite"):
                fit_whitening(method, m)
        for stable in ("cholesky", "zca_cor"):
            assert fit_whitening(stable, m).whiteness_residual <= 1e-14

    def test_zero_variance_names_component(self):
        m = moments(WeightedSample([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]))
        with pytest.raises(NumericalError, match=r"component\(s\) \[0\]"):
            fit_whitening("zca_cor", m)

    def test_unknown_method(self):
        m = MomentSummary.from_mean_cov([0.0], [[1.0]])
        with pytest.raises(DataError, match="unknown whitening method"):
            fit_whitening("ica", m)


class TestApply:
    def test_identity_transform_keeps_sample(self):
        s = WeightedSample([[1.0, 2.0], [3.0, 4.0]], weights=[1.0, 2.0])
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        out = fit_whitening("zca", m).apply(s)
        np.testing.assert_array_equal(out, s.points)

    def test_whitened_sample_has_identity_covariance(self):
        cov = [[4.0, -2.0], [-2.0, 3.0]]
        s = gaussian_design_sample([1.0, 1.0], cov)
        t = fit_whitening("zca_cor", moments(s))
        white = moments(WeightedSample(t.apply(s), s.weights)).covariance
        assert np.abs(white - np.eye(2)).max() <= 1e-8

    def test_dimension_mismatch(self):
        s = WeightedSample([[1.0, 2.0, 3.0]])
        m = MomentSummary.from_mean_cov([0.0, 0.0], np.eye(2))
        with pytest.raises(DataError, match="dimension"):
            fit_whitening("zca", m).apply(s)

    def test_negativity_warning_on_positive_correlation(self):
        # diagonal cloud plus a boundary point: correlation whitening maps it
        # outside the non-negative orthant
        pts = np.array(
            [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], [8, 8], [0, 4]],
            dtype=float,
        )
        s = WeightedSample(pts)
        t = fit_whitening("zca_cor", moments(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = t.apply(s)
        assert out.min() < 0

    def test_worst_negative_threshold(self):
        # the tolerance is NEGATIVITY_RTOL (1e-9) times max(1, largest magnitude)
        assert worst_negative(np.array([[-0.5e-9, 1.0]])) is None
        assert worst_negative(np.array([[-2e-9, 1.0]])) == -2e-9
        assert worst_negative(np.array([[-2e-9, 10.0]])) is None
        assert worst_negative(np.array([[-2e-8, 10.0]])) == -2e-8

    @pytest.mark.parametrize("kind", ["mixed", "negative", "positive", "zeros", "huge", "tiny"])
    def test_worst_negative_reads_the_largest_magnitude_from_both_ends(self, kind):
        # max |x| = max(max x, -min x): the same threshold as the |x| array gives
        def by_magnitude(whitened):
            worst = float(whitened.min())
            if worst < -1e-9 * max(1.0, float(np.abs(whitened).max())):
                return worst
            return None

        rng = np.random.default_rng(83)
        for _ in range(200):
            x = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 5))))
            x *= 10.0 ** rng.uniform(-12, 3)
            if kind == "negative":
                x = -np.abs(x)
            elif kind == "positive":
                x = np.abs(x)
            elif kind == "zeros":
                x = np.where(x < 0, -0.0, 0.0)
                x.flat[0] = -1e-300 * rng.random()
            elif kind == "huge":
                x = x / np.abs(x).max() * 1e300
            elif kind == "tiny":
                # a negative entry just past or short of its threshold
                x = np.abs(x) + 1.0
                x.flat[0] = -1e-9 * x.max() * rng.choice([0.999999, 1.000001])
            assert worst_negative(x) == by_magnitude(x)
            assert worst_negative(-x) == by_magnitude(-x)

    def test_bundled_generators_whiten_non_negative(self):
        from multigini.synth import gen_coinflip_cube, gen_spike_cube

        samples = [
            gen_spike_cube(0.2, 3),
            gen_spike_cube(0.7, 2),
            gen_coinflip_cube(0.0, 4),
            gen_coinflip_cube(5.0, 2),
        ]
        for sample in samples:
            t = fit_whitening("zca_cor", moments(sample))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = t.apply(sample)
            assert out.min() >= -1e-9

    def test_no_warning_for_signed_input(self):
        rng = np.random.default_rng(26)
        s = WeightedSample(rng.standard_normal((30, 2)))
        t = fit_whitening("zca_cor", moments(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t.apply(s)


class TestScaleStability:
    def test_stable_methods_on_random_samples(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 2, 60))
            s = WeightedSample(rng.standard_normal((n, d)) + rng.uniform(1, 3, d))
            q = np.exp(rng.uniform(np.log(0.1), np.log(10.0), d))
            assert scale_stability_check("cholesky", s, q) <= 1e-9
            assert scale_stability_check("zca_cor", s, q) <= 1e-9

    def test_pca_witness_exceeds_floor(self):
        fx = pca_instability_fixture()
        assert scale_stability_check("pca", fx.sample, fx.expected["scale"]) > 0.1

    def test_reference_arithmetic_reproduces_printed_means(self):
        fx = pca_instability_fixture()
        got = np.asarray(fx.expected["pca_matrix_2dp"]) @ moments(fx.sample).mean
        np.testing.assert_allclose(got, fx.expected["pca_whitened_mean_2dp"], atol=1e-12)
        got_scaled = np.asarray(fx.expected["scaled_pca_matrix_2dp"]) @ fx.expected["scaled_mean"]
        np.testing.assert_allclose(got_scaled, fx.expected["scaled_pca_whitened_mean_2dp"], atol=1e-12)

    def test_eigenvector_magnitudes_match_references(self):
        # reference eigenvector components, truncated to 2 decimals, up to sign
        from multigini import sym_eigen

        eig = sym_eigen([[4.0, -2.0], [-2.0, 3.0]])
        np.testing.assert_allclose(
            np.abs(eig.eigenvectors), [[0.78, 0.61], [0.61, 0.78]], atol=0.01
        )
        eig = sym_eigen([[16.0, -4.0], [-4.0, 3.0]])
        np.testing.assert_allclose(
            np.abs(eig.eigenvectors), [[0.96, 0.27], [0.27, 0.96]], atol=0.01
        )

    def test_exact_pca_close_to_reference_matrices(self):
        fx = pca_instability_fixture()
        base = fit_whitening("pca", moments(fx.sample))
        scaled = fit_whitening("pca", moments(fx.sample.scaled(fx.expected["scale"])))
        assert np.abs(base.matrix - fx.expected["pca_matrix_2dp"]).max() <= 0.01
        assert np.abs(scaled.matrix - fx.expected["scaled_pca_matrix_2dp"]).max() <= 0.01
        base_mean = base.matrix @ moments(fx.sample).mean
        scaled_mean = scaled.matrix @ fx.expected["scaled_mean"]
        assert np.abs(base_mean - fx.expected["pca_whitened_mean_2dp"]).max() <= 0.01
        assert np.abs(scaled_mean - fx.expected["scaled_pca_whitened_mean_2dp"]).max() <= 0.01
        # the whitened means genuinely differ: the transform is not scale stable
        assert np.abs(base_mean - scaled_mean).max() > 0.1

    def test_rejects_non_positive_scale(self):
        s = WeightedSample([[1.0, 2.0], [2.0, 1.0], [0.5, 0.7]])
        with pytest.raises(DataError, match="positive"):
            scale_stability_check("cholesky", s, [1.0, -1.0])


class TestNormIndependence:
    def test_euclidean_norm_of_whitened_mean_is_method_free(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_spd_moments(rng, d)
            norms = []
            for method in ALL_METHODS:
                w = fit_whitening(method, m).matrix
                norms.append(float(np.linalg.norm(w @ m.mean)))
            assert max(norms) - min(norms) <= 1e-9 * max(1.0, max(norms))
