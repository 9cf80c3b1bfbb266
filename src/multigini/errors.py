"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed or unusable input data (bad weights, bad CSV, size caps)."""


class NumericalError(ArithmeticError):
    """A computation is numerically undefined for this input.

    Raised for singular or indefinite covariance matrices, zero-mean
    components, and zero whitened-mean norms.
    """
