"""Weighted empirical distributions and their moment/spectral machinery.

A :class:`WeightedSample` is the finite stand-in for a probability measure
on R^d: n support points with non-negative weights summing to one.  All
moment computations use the population (uncorrected) convention, which is
what makes the exact pairwise identities downstream hold at finite n.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError

# Scale-free degeneracy threshold: a variance, pivot or eigenvalue is treated
# as zero when it does not exceed this fraction of the magnitude it is tested against.
DEGENERACY_RTOL = 1e-12

# _exact_column_sums works through each column in blocks of this many
# entries, which keeps its temporaries in cache.  A block must hold fewer than
# 2^26 entries for its float64 bin sums to stay exact.
_SUM_BLOCK_ENTRIES = 1 << 14
_EXPONENT_BINS = 2098  # np.frexp exponents of finite doubles: -1073 to 1024


class WeightedSample:
    """Finite weighted empirical distribution on R^d.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Support points, one row per point.  A 1-D array is treated as a
        single-component sample of shape (n, 1).
    weights : array_like, shape (n,), optional
        Non-negative weights with positive sum; normalized to sum to 1 on
        construction.  Exactly 1/n if omitted or all equal.

    Duplicate support points are allowed and not merged.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        self.points, self.weights = _checked_points_and_weights(points, weights, copy=True)

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
        q = _floats(q, "scale factors").reshape(-1)
        if q.shape[0] != self.dim:
            raise DataError(f"expected {self.dim} scale factors, got {q.shape[0]}")
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise DataError("scale factors must be strictly positive and finite")
        return WeightedSample(self.points * q, self.weights)

    def shifted(self, c) -> WeightedSample:
        """Return the sample of X + c for a constant vector c."""
        c = _floats(c, "shift entries").reshape(-1)
        if c.shape[0] != self.dim:
            raise DataError(f"expected {self.dim} shift entries, got {c.shape[0]}")
        return WeightedSample(self.points + c, self.weights)

    def __repr__(self) -> str:
        return f"WeightedSample(n={self.n}, dim={self.dim})"


def _floats(values, what: str, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, or a :class:`DataError` naming ``what``."""
    try:
        return (np.array if copy else np.asarray)(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{what} must be numbers, got {reprlib.repr(values)}") from None


def _checked_points_and_weights(points, weights, copy: bool = False):
    """Points as a float (n, d) matrix, and weights that sum to one.

    The input rules of :class:`WeightedSample` (a 1-D array becomes a
    column), copied only on ``copy``; each broken rule is a :class:`DataError`.
    Weights are exactly 1/n when None or all equal (so normalizing again
    keeps them), else divided by their exactly rounded total, so the
    normalization does not depend on the order of the points.
    """
    pts = _floats(points, "points", copy)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise DataError(f"points must be a non-empty n x d matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DataError("points contain non-finite values")
    n = pts.shape[0]
    if weights is None:
        return pts, np.full(n, 1.0 / n)
    w = _floats(weights, "weights").reshape(-1)
    if w.shape[0] != n:
        raise DataError(f"expected {n} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise DataError("weights contain non-finite values")
    if np.any(w < 0):
        raise DataError("negative weight")
    equal = _equal_weights(w)
    try:
        # n * w_0 is a Python float product: it overflows to inf with no warning
        total = n * float(w[0]) if equal else float(_exact_column_sums(w[:, None])[0])
    except OverflowError:
        total = np.inf
    if total == np.inf:
        raise DataError("weights sum to more than the largest float")
    if total <= 0.0:
        raise DataError("all-zero weights")
    return pts, np.full(n, 1.0 / n) if equal else w / total


def _equal_weights(w: np.ndarray) -> bool:
    """Whether every weight equals the first, an O(n) test."""
    return bool(w[0] == w[-1] and np.all(w == w[0]))


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
        mean = _floats(mean, "mean entries").reshape(-1)
        cov = _floats(cov, "covariance entries")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DataError(f"covariance shape {cov.shape} does not match mean of length {mean.shape[0]}")
        _check_symmetric(cov)
        cov = 0.5 * (cov + cov.T)
        return cls(mean=mean, covariance=cov, **_derive_scale_structure(cov, mean))


def _derive_scale_structure(cov: np.ndarray, mean: np.ndarray) -> dict:
    """Variances, correlation, and zero-variance flags for a covariance matrix."""
    var = np.diag(cov).copy()
    # each variance against its own component's second moment about zero, so
    # rescaling one component cannot flag it.  A component whose |mean| is 1
    # or more is first scaled by the power of two 2^-k that brings |mean|
    # into [0.5, 1), so mean * mean cannot overflow; the scaling is exact, so
    # the verdict is that of the unscaled test wherever that one is finite.
    k = np.maximum(np.frexp(mean)[1], 0)
    mean_k, var_k = np.ldexp(mean, -k), np.ldexp(var, -2 * k)
    degenerate = var_k <= (var_k + mean_k * mean_k) * DEGENERACY_RTOL
    sd = np.sqrt(np.where(degenerate, 1.0, var))
    with np.errstate(invalid="ignore"):
        corr = cov / np.outer(sd, sd)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    idx = np.flatnonzero(degenerate)
    corr[idx, :] = np.nan
    corr[:, idx] = np.nan
    return {"variances": var, "correlation": corr, "zero_variance": tuple(int(i) for i in idx)}


def _exact_column_sums(x: np.ndarray) -> np.ndarray:
    """The exactly rounded sum of each column of a finite (n, d) matrix.

    Equal to ``math.fsum`` of each column, bit for bit, zeros included (on
    Python 3.10-3.13 a sum that is exactly zero is +0.0), so a sum does not
    depend on the order of the rows.  ``np.frexp`` writes each double,
    subnormals included, as m 2^e with -1073 <= e <= 1024 and |m| < 1.  The
    high part trunc(m 2^27) is a signed integer of 27 bits and the rest,
    m 2^27 - high, a multiple of 2^-26 below 1 in magnitude; one column at
    a time, ``np.bincount`` sums each per e bin in float64, exactly (53 bits)
    while a block holds fewer than 2^26 entries.  Python ints then add the
    column's bins, the rest's sums times 2^26, without rounding, and one
    int / int division, which Python rounds correctly, gives its sum.
    """
    sums = []
    for column in x.T:
        high, low = np.zeros((2, _EXPONENT_BINS), dtype=np.int64)
        for start in range(0, len(column), _SUM_BLOCK_ENTRIES):
            mantissa, exponent = np.frexp(column[start:start + _SUM_BLOCK_ENTRIES])
            mantissa *= 2.0**27
            high_part = np.trunc(mantissa)
            mantissa -= high_part
            exponent += 1073
            high += np.bincount(exponent, high_part, _EXPONENT_BINS).astype(np.int64)
            low += np.ldexp(np.bincount(exponent, mantissa, _EXPONENT_BINS), 26).astype(np.int64)
        used = np.flatnonzero(high | low)
        bins = zip(used.tolist(), high[used].tolist(), low[used].tolist())
        sums.append(sum(((h << 26) + lo) << shift for shift, h, lo in bins) / (1 << 1126))
    return np.array(sums)


def moments(sample: WeightedSample) -> MomentSummary:
    """Weighted population mean, covariance, variances and correlation.

    mean = sum_a w_a x_a and covariance = sum_a w_a (x_a - m)(x_a - m)^T,
    with no bias correction.  The mean is the exactly rounded sum of the
    products w_a x_a (:func:`_exact_column_sums`, equal to ``math.fsum``),
    so it is bit-identical under any permutation of the support points.
    Zero-variance components are flagged in ``zero_variance`` rather than
    raising; their correlation entries are NaN.  Raises
    :class:`NumericalError` when the covariance overflows, as it can for
    values near the largest float.
    """
    x, w = sample.points, sample.weights
    mean = _exact_column_sums(x * w[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x - mean
        cov = (diff * w[:, None]).T @ diff
        cov = 0.5 * (cov + cov.T)
    overflowed = np.flatnonzero(~np.isfinite(cov).all(axis=0))
    if overflowed.size:
        raise NumericalError(
            f"covariance overflows in component(s) {overflowed.tolist()}; "
            "rescale the data"
        )
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


def _check_symmetric(a: np.ndarray, rtol: float = 1e-10) -> float:
    """max|a - a^T| of a square matrix, a DataError above rtol * max(1, max|a|)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > rtol * scale:
        raise DataError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return asym


def sym_eigen(matrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with a deterministic convention.

    Wraps ``numpy.linalg.eigh``, then reorders eigenvalues descending and
    fixes eigenvector signs so the largest-magnitude entry of each column is
    positive.  Raises :class:`DataError` for non-symmetric input and
    :class:`NumericalError` if the iteration fails.
    """
    a = np.asarray(matrix, dtype=float)
    asym = _check_symmetric(a)
    a = 0.5 * (a + a.T)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed: {exc} (input asymmetry residual {asym:.3e})"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
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
