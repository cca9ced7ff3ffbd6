"""Shared argument-validation helpers.

These helpers centralize the defensive checks used across the library so
that error messages are uniform and informative.  They raise standard
Python exceptions (``TypeError`` / ``ValueError``), never custom ones, so
callers can handle failures with familiar idioms.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "as_float_array",
    "check_fraction",
    "check_positive",
    "check_non_negative",
    "check_probability_vector",
    "check_timeseries",
    "ensure_rng",
    "trapezoid",
]

#: Trapezoidal integration, portable across numpy versions:
#: ``np.trapezoid`` only exists on numpy >= 2.0 while the project pins
#: ``numpy>=1.24`` (where the same routine is ``np.trapz``).  This is
#: the one place allowed to touch the numpy spelling directly; the
#: contract linter (rule RC020) bans it everywhere else.
trapezoid = getattr(np, "trapezoid", None) or np.trapz  # noqa: RC020


def as_float_array(values, name, *, ndim=None, allow_empty=False):
    """Convert ``values`` to a float ndarray and validate its shape.

    Parameters
    ----------
    values:
        Anything :func:`numpy.asarray` accepts.
    name:
        Argument name used in error messages.
    ndim:
        If given, the required number of dimensions.
    allow_empty:
        Whether a zero-size array is acceptable.

    Returns
    -------
    numpy.ndarray
        A float64 array (a copy only if conversion required one).
    """
    array = np.asarray(values, dtype=float)
    if ndim is not None and array.ndim != ndim:
        raise ValueError(
            f"{name} must be {ndim}-dimensional, got shape {array.shape}"
        )
    if not allow_empty and array.size == 0:
        raise ValueError(f"{name} must not be empty")
    return array


def check_fraction(value, name, *, inclusive_low=True, inclusive_high=True):
    """Validate that ``value`` lies in [0, 1] (bounds configurable)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[" if inclusive_low else "("
        high = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {low}0, 1{high}, got {value!r}")
    return float(value)


def check_positive(value, name):
    """Validate that ``value`` is a strictly positive real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value, name):
    """Validate that ``value`` is a non-negative real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability_vector(weights, name):
    """Validate and normalize a vector of non-negative weights.

    Returns the weights normalized to sum to one.
    """
    array = as_float_array(weights, name, ndim=1)
    if np.any(array < 0):
        raise ValueError(f"{name} must be non-negative")
    total = array.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"{name} must have a positive finite sum, got {total!r}")
    return array / total


def ensure_rng(seed_or_rng):
    """Return a :class:`numpy.random.Generator` for ``seed_or_rng``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed,
    or an existing generator (returned unchanged so that callers can share
    a stream).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def check_timeseries(series):
    """Return ``series`` if it is a :class:`~repro.datatypes.TimeSeries`.

    Raises ``TypeError`` naming the type actually given, so every
    consumer rejects a bare ndarray or list the same way.
    """
    from .datatypes import TimeSeries  # datatypes imports this module

    if not isinstance(series, TimeSeries):
        raise TypeError(
            f"expected a TimeSeries, got {type(series).__name__}")
    return series
