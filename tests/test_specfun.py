"""The test-local scalar incomplete gamma (``scalar_gamma``) against mpmath.

These are the points the package's own scalar routines were checked at
before they were deleted; the routines now serve only as the tests'
independent oracle for the edge law.
"""

import math

import mpmath
import pytest

from scalar_gamma import scalar_log_p

mpmath.mp.dps = 40


def mp_log_p(a, y):
    """ln P(a, y); above y = a from Q, which 1 - Q at 40 digits would lose."""
    if y < a:
        return mpmath.log(mpmath.gammainc(a, 0, y, regularized=True))
    return mpmath.log1p(-mpmath.gammainc(a, y, mpmath.inf, regularized=True))


# an error below 1e-12 min(1, |ln P|) holds P to 1e-12 relative and, where
# P is near 1, Q = 1 - P too
@pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 17.0, 120.0])
@pytest.mark.parametrize("y", [1e-8, 0.3, 1.0, 8.0, 90.0, 400.0])
def test_reg_lower_gamma_against_mpmath(a, y):
    want = mp_log_p(a, y)
    got = scalar_log_p(a, y)
    assert math.exp(got) == pytest.approx(float(mpmath.exp(want)), rel=1e-12, abs=1e-300)
    assert abs(got - float(want)) <= 1e-12 * min(1.0, abs(float(want)))


@pytest.mark.parametrize(
    "a,y",
    [
        (1.0, 1.0),
        (10.0, 3.0),
        (250.0, 62.5),      # deep left tail: the plain ratio underflows
        (400.0, 100.0),
        (2000.0, 1800.0),
    ],
)
def test_log_reg_lower_gamma_deep_tail(a, y):
    got = scalar_log_p(a, y)
    assert got == pytest.approx(float(mp_log_p(a, y)), rel=1e-12, abs=0.0)
    assert got <= 0.0


def test_log_reg_lower_gamma_survives_underflow_regime():
    # P(500, 50) ~ 1e-319 as a plain float; the log form must stay finite
    got = scalar_log_p(500.0, 50.0)
    assert math.isfinite(got)
    assert got == pytest.approx(float(mp_log_p(500, 50)), rel=1e-12, abs=0.0)
