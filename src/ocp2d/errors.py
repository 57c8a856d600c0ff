"""Exception types shared across the package.

Every error raised on purpose derives from :class:`Ocp2dError`, so callers
(including the command line driver) can distinguish domain problems from
genuine bugs.  ``DomainError`` and its subclasses double as ``ValueError``
and ``NumericalError`` as ``RuntimeError`` so that idiomatic ``except``
clauses keep working.  The shared argument validators are
``check_positive`` (a finite real > 0) and ``check_size`` (a whole number
>= a minimum); the ``DomainError`` of each names the argument and its value.
"""

from __future__ import annotations

import math

__all__ = [
    "Ocp2dError",
    "DomainError",
    "StabilityError",
    "SingularityError",
    "NumericalError",
    "check_positive",
    "check_size",
]


class Ocp2dError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DomainError(Ocp2dError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StabilityError(DomainError):
    """A tilt parameter lies outside the stability domain of the moment
    generating function, so the requested quantity does not exist."""


class SingularityError(Ocp2dError, ValueError):
    """The requested quantity hits a genuine singularity (coincident
    particles, or a cumulant order at or above a phase transition)."""


class NumericalError(Ocp2dError, RuntimeError):
    """An iterative scheme failed to converge within its budget, or a
    redundant evaluation path disagreed beyond tolerance."""


def check_positive(value: float, name: str) -> float:
    """value as a float; DomainError naming it unless finite and > 0."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value}")
    return value


def check_size(value: int, name: str, minimum: int = 1) -> int:
    """value as an int; DomainError naming it unless it is a whole number
    >= minimum (an int, an integral float, or the text of an int) in the doubles."""
    try:
        size = int(value) if float(value).is_integer() else None
    except OverflowError:
        raise DomainError(f"{name} is too large for a double") from None
    except (TypeError, ValueError):
        size = None
    if size is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if size < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {size}")
    return size
