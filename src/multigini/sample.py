"""Weighted empirical distributions and their moment/spectral machinery.

A :class:`WeightedSample` is the finite stand-in for a probability measure
on R^d: n support points with non-negative weights summing to one.  All
moment computations use the population (uncorrected) convention, which is
what makes the exact pairwise identities downstream hold at finite n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError

# Scale-free degeneracy threshold: a variance, pivot or eigenvalue is treated
# as zero when it does not exceed this fraction of the magnitude it is tested against.
DEGENERACY_RTOL = 1e-12


class WeightedSample:
    """Finite weighted empirical distribution on R^d.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Support points, one row per point.  A 1-D array is treated as a
        single-component sample of shape (n, 1).
    weights : array_like, shape (n,), optional
        Non-negative weights with positive sum; normalized to sum to 1 on
        construction.  Uniform 1/n if omitted.

    Duplicate support points are allowed and not merged.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        pts = np.array(points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"points must be a non-empty n x d matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain non-finite values")

        n = pts.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.array(weights, dtype=float, copy=True).reshape(-1)
            if w.shape[0] != n:
                raise DataError(f"expected {n} weights, got {w.shape[0]}")
            if not np.all(np.isfinite(w)):
                raise DataError("weights contain non-finite values")
            if np.any(w < 0):
                raise DataError("negative weight")
            # exactly rounded total, so normalization is independent of
            # support-point order
            total = math.fsum(w)
            if total <= 0.0:
                raise DataError("all-zero weights")
            w = w / total

        self.points = pts
        self.weights = w

    @property
    def n(self) -> int:
        """Number of support points."""
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Number of components d."""
        return self.points.shape[1]

    def scaled(self, q) -> WeightedSample:
        """Return the sample of Q·X for a positive diagonal scaling q."""
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape[0] != self.dim:
            raise DataError(f"expected {self.dim} scale factors, got {q.shape[0]}")
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise DataError("scale factors must be strictly positive and finite")
        return WeightedSample(self.points * q, self.weights)

    def shifted(self, c) -> WeightedSample:
        """Return the sample of X + c for a constant vector c."""
        c = np.asarray(c, dtype=float).reshape(-1)
        if c.shape[0] != self.dim:
            raise DataError(f"expected {self.dim} shift entries, got {c.shape[0]}")
        return WeightedSample(self.points + c, self.weights)

    def __repr__(self) -> str:
        return f"WeightedSample(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class MomentSummary:
    """First and second moments of a sample or a given distribution.

    Attributes
    ----------
    mean : ndarray, shape (d,)
    covariance : ndarray, shape (d, d)
        Population covariance; symmetric.
    variances : ndarray, shape (d,)
        Diagonal of the covariance (the matrix V is ``np.diag(variances)``).
    correlation : ndarray, shape (d, d)
        P with P_ij = cov_ij / sqrt(cov_ii cov_jj); rows/columns of
        zero-variance components are NaN.
    zero_variance : tuple of int
        Indices of components with (numerically) zero variance.
    """

    mean: np.ndarray
    covariance: np.ndarray
    variances: np.ndarray
    correlation: np.ndarray
    zero_variance: tuple = field(default=())

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_mean_cov(cls, mean, cov) -> MomentSummary:
        """Build a summary from an explicit mean vector and covariance matrix."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DataError(f"covariance shape {cov.shape} does not match mean of length {mean.shape[0]}")
        _check_symmetric(cov)
        cov = 0.5 * (cov + cov.T)
        return cls(mean=mean, covariance=cov, **_derive_scale_structure(cov, mean))


def _derive_scale_structure(cov: np.ndarray, mean: np.ndarray) -> dict:
    """Variances, correlation, and zero-variance flags for a covariance matrix."""
    var = np.diag(cov).copy()
    # each variance against its own component's second moment about zero, so
    # rescaling one component cannot flag it
    degenerate = var <= (var + mean * mean) * DEGENERACY_RTOL
    sd = np.sqrt(np.where(degenerate, 1.0, var))
    with np.errstate(invalid="ignore"):
        corr = cov / np.outer(sd, sd)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    if degenerate.any():
        idx = np.flatnonzero(degenerate)
        corr[idx, :] = np.nan
        corr[:, idx] = np.nan
        return {"variances": var, "correlation": corr, "zero_variance": tuple(int(i) for i in idx)}
    return {"variances": var, "correlation": corr, "zero_variance": ()}


def moments(sample: WeightedSample) -> MomentSummary:
    """Weighted population mean, covariance, variances and correlation.

    mean = sum_a w_a x_a and covariance = sum_a w_a (x_a - m)(x_a - m)^T,
    with no bias correction.  The mean is accumulated with exact summation,
    so it is bit-identical under any permutation of the support points.
    Zero-variance components are flagged in ``zero_variance`` rather than
    raising; their correlation entries are NaN.
    """
    x, w = sample.points, sample.weights
    mean = np.array([math.fsum(col) for col in (x * w[:, None]).T])
    diff = x - mean
    cov = (diff * w[:, None]).T @ diff
    cov = 0.5 * (cov + cov.T)
    return MomentSummary(mean=mean, covariance=cov, **_derive_scale_structure(cov, mean))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = Z diag(eigenvalues) Z^T of a symmetric matrix.

    Eigenvalues are in descending order; eigenvectors are the columns of an
    orthogonal matrix.  Deterministic sign convention: in each eigenvector
    the entry of largest absolute value is positive (ties broken by the
    lowest index).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        z = self.eigenvectors
        return (z * self.eigenvalues) @ z.T


def _check_symmetric(a: np.ndarray, rtol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > rtol * scale:
        raise DataError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


def sym_eigen(matrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with a deterministic convention.

    Wraps ``numpy.linalg.eigh``, then reorders eigenvalues descending and
    fixes eigenvector signs so the largest-magnitude entry of each column is
    positive.  Raises :class:`DataError` for non-symmetric input and
    :class:`NumericalError` if the iteration fails.
    """
    a = np.asarray(matrix, dtype=float)
    _check_symmetric(a)
    asym = float(np.abs(a - a.T).max())
    a = 0.5 * (a + a.T)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed: {exc} (input asymmetry residual {asym:.3e})"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # argmax returns the lowest index on ties, which is the tie-break we want
    for j in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def cholesky_lower(matrix) -> np.ndarray:
    """Lower-triangular C with positive diagonal and C C^T = matrix.

    Implemented directly (column at a time) so that near-degeneracy is
    detected with the scale-free threshold ``DEGENERACY_RTOL * a[j, j]`` on
    pivot j (rescaling a component cannot fail it) and the error names the
    failing pivot index.
    """
    a = np.asarray(matrix, dtype=float)
    _check_symmetric(a)
    d = a.shape[0]
    c = np.zeros((d, d))
    for j in range(d):
        pivot = a[j, j] - c[j, :j] @ c[j, :j]
        tol = DEGENERACY_RTOL * max(float(a[j, j]), 0.0)
        if pivot <= tol:
            raise NumericalError(
                f"matrix is not positive definite: pivot {pivot:.3e} at index {j} "
                f"(threshold {tol:.3e})"
            )
        c[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            c[j + 1:, j] = (a[j + 1:, j] - c[j + 1:, :j] @ c[j, :j]) / c[j, j]
    return c
