"""Exact determinantal formulas: edge law, moments, and the tilted partition ratio."""

import math

import mpmath
import pytest

from ocp2d import (
    DomainError,
    NumericalError,
    StabilityError,
    edge_cdf_log,
    edge_pdf_log,
    exact_moment,
    log_truncated_gamma_integral,
    mgf_log,
)

mpmath.mp.dps = 40


def mp_edge_cdf_log(n, x):
    y = mpmath.mpf(n) * mpmath.mpf(x) ** 2
    total = mpmath.mpf(0)
    for k in range(1, n + 1):
        total += mpmath.log(mpmath.gammainc(k, 0, y, regularized=True))
    return total


# --- edge CDF ---------------------------------------------------------------

@pytest.mark.parametrize("n,x", [(5, 0.6), (30, 0.8), (30, 1.1), (100, 0.95),
                                 (2000, 0.3), (2000, 0.9), (250, 1.05)])
def test_edge_cdf_log_against_mpmath(n, x):
    want = float(mp_edge_cdf_log(n, x))
    assert edge_cdf_log(n, x) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_edge_cdf_log_deep_tail_stays_finite():
    # at n=250, x=0.5 the probability is ~ e^{-11000}: far below underflow
    got = edge_cdf_log(250, 0.5)
    assert math.isfinite(got)
    assert got == pytest.approx(float(mp_edge_cdf_log(250, 0.5)), rel=1e-10)


def test_edge_cdf_log_monotone_in_x():
    vals = [edge_cdf_log(40, x) for x in (0.5, 0.7, 0.9, 1.1, 1.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # far beyond the edge the distribution saturates
    assert edge_cdf_log(40, 8.0) == pytest.approx(0.0, abs=1e-12)


def test_edge_cdf_log_validation():
    with pytest.raises(DomainError):
        edge_cdf_log(0, 0.5)
    with pytest.raises(DomainError):
        edge_cdf_log(10, 0.0)
    with pytest.raises(DomainError):
        edge_cdf_log(10, -2.0)
    with pytest.raises(DomainError):
        edge_cdf_log(250, 1e200)  # n x^2 overflows


def test_edge_cdf_log_far_right_is_zero():
    # y = n x^2 = 2.5e14: the factor arrays are sized by n, not by y
    assert edge_cdf_log(250, 1e6) == 0.0


def test_edge_law_where_n_x2_underflows():
    assert edge_cdf_log(10, 1e-200) == -math.inf
    assert edge_pdf_log(10, 1e-200) == -math.inf


# --- edge pdf ----------------------------------------------------------------

@pytest.mark.parametrize("n,x", [(20, 0.7), (30, 0.95), (30, 1.2), (60, 1.5)])
def test_edge_pdf_log_is_cdf_derivative(n, x):
    h = 1e-6
    want = float(
        mpmath.log(
            (mpmath.e ** mp_edge_cdf_log(n, x + h) - mpmath.e ** mp_edge_cdf_log(n, x - h))
            / (2 * h)
        )
    )
    assert edge_pdf_log(n, x) == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_edge_pdf_log_integrates_to_one():
    # crude trapezoid over the bulk of the n=25 law
    n = 25
    xs = [0.7 + i * 0.005 for i in range(161)]  # up to 1.5
    pdf = [math.exp(edge_pdf_log(n, x)) for x in xs]
    mass = sum(0.5 * (pdf[i] + pdf[i + 1]) * 0.005 for i in range(len(pdf) - 1))
    assert mass == pytest.approx(1.0, abs=5e-3)


def test_edge_pdf_log_validation():
    with pytest.raises(DomainError):
        edge_pdf_log(10, 0.0)
    with pytest.raises(DomainError):
        edge_pdf_log(-3, 1.0)


# --- exact radial moments -----------------------------------------------------

def test_exact_moment_quadratic_closed_form():
    for n in (1, 10, 100, 2000):
        assert exact_moment(n, 2.0) == pytest.approx((n + 1) / (2.0 * n), rel=1e-13)


@pytest.mark.parametrize("n,p", [(5, 1.0), (40, 0.5), (40, 3.7), (200, 1.0)])
def test_exact_moment_against_mpmath(n, p):
    total = mpmath.mpf(0)
    for k in range(1, n + 1):
        total += mpmath.gamma(k + p / 2) / mpmath.gamma(k)
    want = float(mpmath.mpf(n) ** (-1 - p / 2) * total)
    assert exact_moment(n, p) == pytest.approx(want, rel=1e-12)


def test_exact_moment_tends_to_flat_disk_average():
    # ensemble average tends to 2/(2+p) as n grows
    for p in (1.0, 3.0):
        assert exact_moment(4000, p) == pytest.approx(2.0 / (2.0 + p), rel=2e-3)


def test_exact_moment_validation():
    with pytest.raises(DomainError):
        exact_moment(0, 1.0)
    with pytest.raises(DomainError):
        exact_moment(10, 0.0)
    with pytest.raises(DomainError):
        exact_moment(10, math.inf)


# --- tilted partition-function ratio -------------------------------------------

def test_mgf_log_zero_tilt_is_exactly_zero():
    res = mgf_log(37, 1.3, 0.0)
    assert res.log_value == 0.0
    assert res.estimated_relative_error == 0.0


@pytest.mark.parametrize("s", [-0.4, 0.1, 1.0, 5.0])
def test_mgf_log_quadratic_tilt_closed_form(s):
    n = 50
    want = -(n * (n + 1) / 2.0) * math.log1p(2.0 * s)
    res = mgf_log(n, 2.0, s)
    assert res.log_value == pytest.approx(want, rel=1e-9)


def test_mgf_log_single_particle_closed_form():
    # one particle, linear tilt: reduces to a Gaussian-tail integral,
    # 1 - e^{1/4} (sqrt(pi)/2) erfc(1/2) at s = 1/2
    want = math.log(
        1.0 - math.exp(0.25) * (math.sqrt(math.pi) / 2.0) * math.erfc(0.5)
    )
    res = mgf_log(1, 1.0, 0.5)
    assert res.log_value == pytest.approx(want, rel=1e-10)
    assert res.log_value == pytest.approx(-0.788868438528426, abs=1e-10)


@pytest.mark.parametrize("n,p,s", [(5, 1.0, 0.7), (8, 0.5, -0.3), (6, 3.0, 0.2),
                                   (30, 0.5, 0.4), (12, 1.0, -1.5)])
def test_mgf_log_against_mpmath_quadrature(n, p, s):
    q = mpmath.mpf(p) / 2
    c = 2 * mpmath.mpf(s) * mpmath.mpf(n) ** (1 - q)
    total = mpmath.mpf(0)
    for ell in range(1, n + 1):
        integrand = lambda t: t ** (ell - 1) * mpmath.e ** (-t - c * t ** q)
        val = mpmath.quad(integrand, [0, mpmath.inf])
        total += mpmath.log(val) - mpmath.loggamma(ell)
    res = mgf_log(n, p, s)
    assert res.log_value == pytest.approx(float(total), rel=1e-9)


def test_mgf_log_derivative_recovers_moment():
    # d/ds log<e^{-2 n^2 s r_p}> at 0 is -2 n^2 <r_p>
    n, p, h = 8, 1.0, 1e-5
    diff = (mgf_log(n, p, h).log_value - mgf_log(n, p, -h).log_value) / (2 * h)
    assert diff == pytest.approx(-2.0 * n * n * exact_moment(n, p), rel=1e-5)


def test_mgf_log_respects_stability_domain():
    with pytest.raises(StabilityError):
        mgf_log(10, 2.0, -0.5)
    with pytest.raises(StabilityError):
        mgf_log(10, 3.0, -0.1)
    # linear tilt is two-sided
    assert math.isfinite(mgf_log(10, 1.0, -2.0).log_value)


def test_mgf_log_near_stability_boundary():
    res = mgf_log(12, 2.0, -0.45)
    want = -(12 * 13 / 2.0) * math.log1p(-0.9)
    assert res.log_value == pytest.approx(want, rel=1e-8)


def test_mgf_log_error_estimate_is_small():
    res = mgf_log(30, 1.0, 1.0)
    assert 0.0 <= res.estimated_relative_error < 1e-10


def test_mgf_log_validation():
    with pytest.raises(DomainError):
        mgf_log(0, 1.0, 0.5)
    with pytest.raises(DomainError):
        mgf_log(10, -1.0, 0.5)


# --- truncated gamma integral ---------------------------------------------------

@pytest.mark.parametrize("n,x,xi", [(40, 0.8, 0.5), (25, 0.6, 0.3), (100, 1.0, 1.0),
                                    (2000, 0.1, 0.8), (10000, 0.1, 0.5)])
def test_truncated_gamma_integral_against_mpmath(n, x, xi):
    # the integral is n^{-a} gamma_lower(a, n x^2); evaluate that route in
    # 40-digit arithmetic (independent of the double-precision pipeline)
    a = mpmath.mpf(n) * mpmath.mpf(xi)
    want = float(
        mpmath.log(mpmath.gammainc(a, 0, n * mpmath.mpf(x) ** 2))
        - a * mpmath.log(n)
    )
    assert log_truncated_gamma_integral(n, x, xi) == pytest.approx(want, rel=1e-11)


def test_truncated_gamma_integral_validation():
    with pytest.raises(DomainError):
        log_truncated_gamma_integral(10, 1.2, 0.5)
    with pytest.raises(DomainError):
        log_truncated_gamma_integral(10, 0.5, 0.0)
    with pytest.raises(DomainError):
        log_truncated_gamma_integral(10, 0.0, 0.5)
    with pytest.raises(DomainError):
        log_truncated_gamma_integral(10, 0.5, 1.5)
