"""Exception hierarchy shared across the package, and its integer-size check."""

from __future__ import annotations

import numpy as np


class PaicError(Exception):
    """Base class for all package errors."""


class ValidationError(PaicError):
    """Bad input: malformed files, dimension mismatches, out-of-range values."""


class NumericalError(PaicError):
    """A numeric computation produced a non-finite or unusable result."""


class SingularHessianError(NumericalError):
    """Hessian factorization failed even after ridge regularization."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite is not.

    Carries the offending eigenvalues in ``eigenvalues``.
    """

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class IllConditionedError(NumericalError):
    """Condition number above the trust threshold; result refused."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class GridBorderError(NumericalError):
    """Posterior mass on a quadrature grid's border too large; result refused."""

    def __init__(self, message, border_mass=None):
        super().__init__(message)
        self.border_mass = border_mass


class NonConvergenceError(NumericalError):
    """Sampler diagnostics failed the convergence gate.

    Carries the full ``Diagnostics`` so the caller can decide to retry
    with a larger budget.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ImproperPriorError(PaicError):
    """Criterion undefined under a degenerate (improper) prior."""


class UnsupportedModelError(PaicError):
    """Operation only implemented for specific built-in models."""


class ExperimentError(PaicError):
    """Replication study failed (e.g. too many excluded replications)."""


def require_int(name: str, value, low: int) -> None:
    """Refuse, with ValidationError, a ``value`` that is not an integer (a
    bool or a float is not) in the int64 range and at least ``low``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not -2 ** 63 <= value < 2 ** 63):
        raise ValidationError(f"{name} must be an integer in the int64 range, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
