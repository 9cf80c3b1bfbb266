"""The four linear whitening transforms and their stability diagnostics.

A whitening matrix W for a distribution with covariance S satisfies
W S W^T = I (equivalently W^T W = S^{-1}).  The four constructions:

    zca       W = Z T^{-1/2} Z^T        symmetric inverse square root of S
    pca       W = T^{-1/2} Z^T          rotate to principal axes, then rescale
    cholesky  W = C^{-1}                S = C C^T, W lower triangular
    zca_cor   W = O L^{-1/2} O^T V^{-1/2}   symmetric root of P^{-1}, after
                                            rescaling by the variances

where S = Z T Z^T and P = O L O^T are the eigendecompositions of the
covariance and correlation matrices.  cholesky and zca_cor are scale
stable: rescaling the input components by any positive diagonal matrix
leaves the whitened output unchanged.  pca is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .sample import (
    DEGENERACY_RTOL,
    MomentSummary,
    WeightedSample,
    cholesky_lower,
    moments,
    sym_eigen,
)

METHODS = ("zca", "pca", "cholesky", "zca_cor")

# A fit whose whiteness residual max|W S W^T - I| exceeds this is rejected.
# zca and pca lose whiteness to roundoff on components of widely different
# scales (a 400x3 lognormal sample with one column scaled by 1e-8 gives 0.51);
# cholesky and zca_cor stay near 1e-15 at any scale.
WHITENESS_TOL = 1e-4

@dataclass(frozen=True)
class WhiteningTransform:
    """A fitted whitening matrix with its method tag and diagnostics.

    ``whiteness_residual`` is max|W S W^T - I| for the covariance S the
    transform was fitted on; a fit is rejected above ``WHITENESS_TOL``.
    """

    method: str
    matrix: np.ndarray
    fitted_moments: MomentSummary
    whiteness_residual: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, sample: WeightedSample) -> np.ndarray:
        """The whitened support points y_a = W x_a, an (n, d) array.

        The sample's weights carry over to the whitened points unchanged.
        The whitened points may have negative entries even for a
        non-negative sample; ``gini_p`` reports that.
        """
        if sample.dim != self.dim:
            raise DataError(f"sample has dimension {sample.dim}, transform expects {self.dim}")
        return sample.points @ self.matrix.T


def _nonsingular_correlation(m: MomentSummary, kind: str):
    """Eigendecomposition of the correlation: the singularity test of every method.

    Rejects zero variance and a smallest correlation eigenvalue at most
    DEGENERACY_RTOL, neither of which changes when a component is rescaled.
    """
    if m.zero_variance:
        raise NumericalError(
            f"zero variance in component(s) {list(m.zero_variance)}; "
            f"{kind} whitening is undefined"
        )
    eig = sym_eigen(m.correlation)
    smallest = float(eig.eigenvalues[-1])
    if smallest <= DEGENERACY_RTOL:
        raise NumericalError(
            f"correlation matrix is singular or indefinite: smallest eigenvalue {smallest:.3e}"
        )
    return eig


def _make_transform(method: str, matrix: np.ndarray, m: MomentSummary) -> WhiteningTransform:
    wsw = matrix @ m.covariance @ matrix.T
    residual = float(np.abs(wsw - np.eye(matrix.shape[0])).max())
    if residual > WHITENESS_TOL:
        raise NumericalError(
            f"{method} whitening is not white: residual {residual:.3e} exceeds {WHITENESS_TOL:g}"
        )
    return WhiteningTransform(method=method, matrix=matrix, fitted_moments=m,
                              whiteness_residual=residual)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise DataError(f"unknown whitening method {method!r}; choose from {METHODS}")


def fit_whitening(method: str, m: MomentSummary) -> WhiteningTransform:
    """Fit one of the four whitening transforms, named in ``METHODS``, to ``m``.

    Every method first rejects a singular correlation; the formula of each
    W is in the module docstring.
    """
    _check_method(method)
    kind = {"cholesky": "triangular", "zca_cor": "correlation"}.get(method, "covariance")
    corr_eig = _nonsingular_correlation(m, kind)
    if method == "cholesky":
        # W = C^{-1} is lower triangular with positive diagonal, and the
        # triangular structure is what makes this transform scale stable.
        c = cholesky_lower(m.covariance)
        w = np.zeros_like(c)
        for j in range(c.shape[0]):  # forward substitution, C W = I row by row
            w[j, j] = 1.0 / c[j, j]
            w[j, :j] = -(c[j, :j] @ w[:j, :j]) / c[j, j]
    elif method == "zca_cor":
        # The symmetric-root selection is the canonical one for inequality
        # measurement; the correlation matrix is scale invariant, so the
        # transform is scale stable.
        o = corr_eig.eigenvectors
        p_inv_root = (o * corr_eig.eigenvalues**-0.5) @ o.T
        w = p_inv_root / np.sqrt(m.variances)[None, :]
    else:
        eig = sym_eigen(m.covariance)
        smallest = float(eig.eigenvalues[-1])
        if smallest <= 0.0:  # roundoff, on components of widely different scales
            raise NumericalError(
                f"covariance is not positive definite: smallest eigenvalue {smallest:.3e}"
            )
        z = eig.eigenvectors
        if method == "zca":
            w = (z * eig.eigenvalues**-0.5) @ z.T
        else:  # pca: deterministic under the sign convention of sym_eigen, but not scale stable
            w = z.T * eig.eigenvalues[:, None]**-0.5
    return _make_transform(method, w, m)


def scale_stability_check(method: str, sample: WeightedSample, q) -> float:
    """Max-abs deviation between whitening a sample and whitening its rescaling.

    Fits the method on the sample and on the componentwise-rescaled sample
    Q·X (q strictly positive), whitens each with its own fit, and returns
    the largest entrywise difference between the two whitened point sets.
    Zero (up to roundoff) exactly when the whitening process is scale
    stable; generically large for pca.
    """
    scaled_sample = sample.scaled(q)
    base = fit_whitening(method, moments(sample))
    scaled = fit_whitening(method, moments(scaled_sample))
    return float(np.abs(scaled.apply(scaled_sample) - base.apply(sample)).max())
