"""Scale-invariant multivariate Gini inequality indices.

The index of order p whitens a random vector with a scale stable whitening
transform (correlation whitening by default) and evaluates the expected
p-norm of the whitened difference of two independent draws, normalized by
twice the p-norm of the whitened mean.  For p = 1 it decomposes exactly
into a convex combination of one-dimensional Gini indices of the whitened
components.

Quick start::

    from multigini import WeightedSample, gini_1_decomposed

    sample = WeightedSample(points)          # n x d matrix, optional weights
    result = gini_1_decomposed(sample)
    result.value, result.weights, result.component_ginis

The ``multigini`` CLI exposes the same machinery on CSV panels, including a
``verify`` subcommand running the bundled fixture and property checks.
"""

from .errors import DataError, NumericalError
from .gini import (
    GiniResult,
    gaussian_g1_closed_form,
    gini_1d,
    gini_1_decomposed,
    gini_p,
)
from .report import (
    InequalityReport,
    PanelSet,
    PanelTable,
    build_report,
    load_csv,
    panelize,
    serialize_report,
)
from .sample import (
    EigenDecomposition,
    MomentSummary,
    WeightedSample,
    cholesky_lower,
    moments,
    sym_eigen,
)
from .whitening import (
    WhiteningTransform,
    fit_whitening,
    scale_stability_check,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "EigenDecomposition",
    "GiniResult",
    "InequalityReport",
    "MomentSummary",
    "NumericalError",
    "PanelSet",
    "PanelTable",
    "WeightedSample",
    "WhiteningTransform",
    "build_report",
    "cholesky_lower",
    "fit_whitening",
    "gaussian_g1_closed_form",
    "gini_1d",
    "gini_1_decomposed",
    "gini_p",
    "load_csv",
    "moments",
    "panelize",
    "scale_stability_check",
    "serialize_report",
    "sym_eigen",
]
