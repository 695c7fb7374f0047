"""Exception hierarchy shared across the package, and the one check of a
cdf argument and of a target matrix."""
from __future__ import annotations

import numpy as np

__all__ = [
    "PmsdistError",
    "ValidationError",
    "DegenerateSampleError",
    "DensityUndefinedError",
    "ExperimentRefusal",
]


class PmsdistError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PmsdistError, ValueError):
    """Raised when inputs violate a documented precondition or invariant."""


class DegenerateSampleError(PmsdistError):
    """Raised when sigma_hat == 0 (exact fit), a probability-zero event.

    Operations that require a positive residual scale signal this instead of
    silently dividing by zero.
    """


class DensityUndefinedError(PmsdistError):
    """Raised when the limit density does not exist for the requested target.

    The density of the limiting law exists only when the effective order is
    positive and the leading block of the target matrix has full row rank.
    """


class ExperimentRefusal(PmsdistError):
    """Raised when an experiment's hypothesis fails on the supplied fixture.

    Experiments refuse to run (rather than emit vacuous passes) when the
    structural assumption they are designed to exhibit does not hold.
    """


def cdf_argument(t, k: int, *, rows: bool = False) -> np.ndarray:
    """A k-variate cdf argument t as a float array of shape (k,), or with
    ``rows`` a non-empty stack of such rows, shape (m, k).

    NaN raises ValidationError, as no cdf is defined there; +/-inf is a
    valid coordinate (the cdf is 0, or a margin's).
    """
    arr = (np.atleast_2d if rows else np.atleast_1d)(np.asarray(t, dtype=float))
    if arr.size == 0:
        raise ValidationError("t must be non-empty")
    if arr.ndim != 1 + rows or arr.shape[-1] != k:
        raise ValidationError(f"t must have length k={k}" + (" in every row" if rows else ""))
    if np.isnan(arr).any():
        raise ValidationError("t must not be NaN")
    return arr


def target_matrix(A, P: int | None = None) -> np.ndarray:
    """A target matrix as a float array of shape (k, P): finite (checked before
    the rank test's SVD meets a NaN), with P columns (any number when P is
    None) and of full row rank k, else ValidationError."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if P is not None and A.shape[1] != P:
        raise ValidationError(f"target matrix has {A.shape[1]} columns, expected {P}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("target matrix A must be finite")
    if np.linalg.matrix_rank(A) < A.shape[0]:
        raise ValidationError("target matrix A must have full row rank")
    return A
