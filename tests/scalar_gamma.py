"""A scalar route to the edge factors ln P(k, y) of the coupling-2 edge law.

One shape at a time, sharing no code with the Poisson band of
``ocp2d.exact._edge_factors``: the ascending series below y = a + 1, else
the Lentz continued fraction for Q = 1 - P.  The tests use it as an
independent oracle; ``tests/test_specfun.py`` pins it against mpmath.
"""

import math


def _log_lower_series(a, y):
    # P(a, y) = y^a e^{-y} / Gamma(a+1) * sum_{n>=0} y^n / prod_{m<=n} (a+m),
    # every term positive, so the sum carries no cancellation
    term = total = 1.0
    for n in range(1, 10_001):
        term *= y / (a + n)
        total += term
        if term <= total * 2.220446049250313e-16:
            return a * math.log(y) - y - math.lgamma(a + 1.0) + math.log(total)
    raise AssertionError(f"series stalled at a={a}, y={y}")


def _log_upper_cf(a, y):
    # ln Q(a, y) by the Lentz continued fraction, valid for y >= a + 1
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    f = d
    for i in range(1, 10_001):
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
        if abs(delta - 1.0) <= 2.220446049250313e-16:
            return a * math.log(y) - y - math.lgamma(a) + math.log(f)
    raise AssertionError(f"continued fraction stalled at a={a}, y={y}")


def scalar_log_p(a, y):
    """ln P(a, y) for a > 0, y > 0; Q <= ~0.5 on the upper branch."""
    if y < a + 1.0:
        return _log_lower_series(a, y)
    return math.log1p(-math.exp(_log_upper_cf(a, y)))
