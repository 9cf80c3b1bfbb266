"""Exception types shared across the package, and the argument rules that raise them."""

import numpy as np


class DataError(ValueError):
    """Malformed or unusable input data (bad weights, bad CSV, size caps)."""


class NumericalError(ArithmeticError):
    """A computation is numerically undefined for this input.

    Raised for singular or indefinite covariance matrices, zero-mean
    components, zero whitened-mean norms, and orders p so large that
    |x|^p over- or underflows.
    """


def _choice_list(items) -> str:
    """The items as "a, b or c"."""
    *head, last = items
    return f"{', '.join(head)} or {last}" if head else last


def _check_names(names, what: str, count: int | None = None) -> tuple[str, ...]:
    """The names, each a ``what``, as a tuple of str; a :class:`DataError` for a str (it would
    read as one-letter names), no name, other than ``count`` names, or a name given twice."""
    if isinstance(names, str):
        raise DataError(f"{what}s must be a list, got the string {names!r}")
    names = tuple(map(str, names))
    if not names:
        raise DataError(f"no {what}s given")
    if count is not None and len(names) != count:
        raise DataError(f"expected {count} {what}s, got {len(names)}")
    for j, name in enumerate(names):
        if name in names[:j]:
            raise DataError(f"{what} {name!r} listed twice")
    return names


def _check_integers(**counts) -> None:
    """A :class:`DataError` for the first ``name=(value, minimum)`` whose value is a bool,
    no integer, or below the minimum."""
    for name, (value, minimum) in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DataError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise DataError(f"{name} must be >= {minimum}, got {value}")


def _check_choice(value, choices, what: str) -> None:
    """A :class:`DataError` naming the choices when ``value`` is not one of them."""
    if value not in choices:
        raise DataError(f"unknown {what} {value!r}; choose {_choice_list(map(repr, choices))}")
