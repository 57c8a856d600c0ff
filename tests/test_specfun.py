"""Log-space special functions against high-precision oracles."""

import math

import mpmath
import pytest

from ocp2d import DomainError
from ocp2d.specfun import (
    log_gamma,
    log_lower_gamma,
    log_reg_lower_gamma,
    log_sum_exp,
    reg_lower_gamma,
    reg_upper_gamma,
)

mpmath.mp.dps = 40


def mp_reg_lower(a, y):
    return mpmath.gammainc(a, 0, y, regularized=True)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.5, 40.0, 250.0])
def test_log_gamma_matches_lgamma(a):
    assert log_gamma(a) == pytest.approx(math.lgamma(a), rel=1e-15)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.2)
    with pytest.raises(DomainError):
        log_gamma(math.nan)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 17.0, 120.0])
@pytest.mark.parametrize("y", [1e-8, 0.3, 1.0, 8.0, 90.0, 400.0])
def test_reg_lower_gamma_against_mpmath(a, y):
    want = float(mp_reg_lower(a, y))
    assert reg_lower_gamma(a, y) == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("a", [1.0, 5.0, 60.0])
@pytest.mark.parametrize("y", [0.1, 2.0, 30.0, 200.0])
def test_lower_plus_upper_is_one(a, y):
    assert reg_lower_gamma(a, y) + reg_upper_gamma(a, y) == pytest.approx(1.0, abs=1e-13)


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
    want = float(mpmath.log(mp_reg_lower(a, y)))
    got = log_reg_lower_gamma(a, y)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    assert got <= 0.0


def test_log_reg_lower_gamma_survives_underflow_regime():
    # P(500, 50) ~ 1e-319 as a plain float; the log form must stay finite.
    got = log_reg_lower_gamma(500.0, 50.0)
    want = float(mpmath.log(mp_reg_lower(500, 50)))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-10)


def test_log_lower_gamma_is_shifted_regularized():
    a, y = 12.0, 4.0
    assert log_lower_gamma(a, y) == pytest.approx(
        log_reg_lower_gamma(a, y) + math.lgamma(a), rel=1e-14
    )


def test_gamma_args_validated():
    with pytest.raises(DomainError):
        reg_lower_gamma(-1.0, 2.0)
    with pytest.raises(DomainError):
        reg_lower_gamma(2.0, -1.0)
    assert reg_lower_gamma(2.0, 0.0) == 0.0
    assert log_reg_lower_gamma(2.0, 0.0) == -math.inf


def test_log_sum_exp_basic():
    terms = [0.0, math.log(2.0), math.log(3.0)]
    assert log_sum_exp(terms) == pytest.approx(math.log(6.0), rel=1e-15)


def test_log_sum_exp_extreme_spread():
    # naive exponentiation would overflow / underflow both ends
    assert log_sum_exp([1000.0, 0.0]) == pytest.approx(1000.0, abs=1e-12)
    assert log_sum_exp([-1500.0, -1500.0]) == pytest.approx(
        -1500.0 + math.log(2.0), rel=1e-15
    )


def test_log_sum_exp_with_neg_inf_terms():
    assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


def test_log_sum_exp_rejects_empty_input():
    with pytest.raises(DomainError):
        log_sum_exp([])
