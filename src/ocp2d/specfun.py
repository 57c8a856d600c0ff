"""Log-space special functions.

Scalar routines for the regularized incomplete gamma function, in linear
and log form, and a stable log-sum-exp.  The log forms stay accurate where
the values themselves underflow: ln P(a, y) below -1e5 is routine in the
far left tail of the edge distribution.  The exact edge law at coupling 2
(``ocp2d.exact``) evaluates its integer-shape factors as arrays instead.
Nothing in ``ocp2d`` imports or exports this module.  It stays until the
benchmark's traced mode (``perfbench/spans.py``) stops wrapping it.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import DomainError, NumericalError, check_positive

__all__ = [
    "log_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "log_reg_lower_gamma",
    "log_lower_gamma",
    "log_sum_exp",
]

_MAX_ITER = 10_000
_EPS = 2.220446049250313e-16


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for positive real ``a``."""
    return math.lgamma(check_positive(a, "a"))


def _log_lower_series(a: float, y: float) -> float:
    # ln P(a, y) by the ascending series
    #   P(a, y) = y^a e^{-y} / Gamma(a+1) * sum_{n>=0} y^n / prod_{m<=n} (a+m),
    # every term positive, so the sum carries no cancellation.
    term = 1.0
    total = 1.0
    for n in range(1, _MAX_ITER + 1):
        term *= y / (a + n)
        total += term
        if term <= total * _EPS:
            return a * math.log(y) - y - math.lgamma(a + 1.0) + math.log(total)
    raise NumericalError(
        f"lower incomplete gamma series stalled: a={a}, y={y}, "
        f"iterations={_MAX_ITER}, last relative term={term / total:.3e}"
    )


def _log_upper_cf(a: float, y: float) -> float:
    # ln Q(a, y) by the Lentz continued fraction, valid for y >= a + 1.
    tiny = 1e-300
    b = y + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return a * math.log(y) - y - math.lgamma(a) + math.log(f)
    raise NumericalError(
        f"upper incomplete gamma continued fraction stalled: a={a}, y={y}, "
        f"iterations={_MAX_ITER}"
    )


def _log_p_or_q(a: float, y: float) -> tuple[bool, float]:
    """(True, ln P(a, y)) below y = a + 1, else (False, ln Q(a, y)): each
    branch where it converges fast and carries no cancellation.  y = 0
    gives (True, -inf).  DomainError unless a > 0 and y >= 0 are finite."""
    a = check_positive(a, "a")
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    if y < 0.0:
        raise DomainError(f"incomplete gamma requires y >= 0, got y={y}")
    if y == 0.0:
        return True, -math.inf
    if y < a + 1.0:
        return True, _log_lower_series(a, y)
    return False, _log_upper_cf(a, y)


def log_reg_lower_gamma(a: float, y: float) -> float:
    """ln P(a, y), the log of the regularized lower incomplete gamma.

    Stays accurate when P underflows: values below -1e5 are routine for
    the far left tail of the edge distribution.  Returns ``-inf`` at y=0.
    """
    lower, v = _log_p_or_q(a, y)
    # P = 1 - Q; Q <= ~0.5 on the upper branch so log1p is safe.
    return v if lower else math.log1p(-math.exp(v))


def reg_lower_gamma(a: float, y: float) -> float:
    """P(a, y) = gamma(a, y) / Gamma(a), in [0, 1]."""
    lower, v = _log_p_or_q(a, y)
    return math.exp(v) if lower else -math.expm1(v)


def reg_upper_gamma(a: float, y: float) -> float:
    """Q(a, y) = 1 - P(a, y), evaluated on its own branch when that is the
    accurate one (large ``y``)."""
    lower, v = _log_p_or_q(a, y)
    return -math.expm1(v) if lower else math.exp(v)


def log_lower_gamma(a: float, y: float) -> float:
    """ln gamma(a, y), the log of the unregularized lower incomplete gamma."""
    return log_reg_lower_gamma(a, y) + math.lgamma(a)


def log_sum_exp(terms: Iterable[float]) -> float:
    """ln sum_i exp(terms_i), shifted by the running maximum.

    Accepts log-magnitudes of any size (including ``-inf`` for exact zero
    contributions); an empty input is a domain error since the log of an
    empty sum does not exist.
    """
    values = [float(t) for t in terms]
    if not values:
        raise DomainError("log_sum_exp of an empty sequence")
    m = max(values)
    if math.isinf(m) and m < 0:
        return -math.inf
    if math.isnan(m) or (math.isinf(m) and m > 0):
        raise DomainError(f"log_sum_exp term out of range: {m!r}")
    return m + math.log(math.fsum(math.exp(v - m) for v in values))
