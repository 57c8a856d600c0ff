"""Exact determinantal formulas: edge law, moments, and the tilted partition ratio."""

import math
import random
import re

import mpmath
import numpy as np
import pytest

from ocp2d import (
    DomainError,
    NumericalError,
    StabilityError,
    edge_cdf_log,
    edge_pdf_log,
    exact,
    exact_moment,
    mgf_log,
)

from scalar_gamma import scalar_log_p

mpmath.mp.dps = 40


def mp_edge_cdf_log(n, x):
    y = mpmath.mpf(n) * mpmath.mpf(x) ** 2
    total = mpmath.mpf(0)
    for k in range(1, n + 1):
        total += mpmath.log(mpmath.gammainc(k, 0, y, regularized=True))
    return total


def mp_edge_pdf_log(n, x):
    """ln(2 n x) + ln F + ln sum_k pmf_{k-1}(y) / P(k, y), y = n x^2."""
    y = mpmath.mpf(n) * mpmath.mpf(x) ** 2
    factors = [mpmath.gammainc(k, 0, y, regularized=True) for k in range(1, n + 1)]
    hazard = mpmath.fsum(mpmath.exp((k - 1) * mpmath.log(y) - y - mpmath.loggamma(k)) / f
                         for k, f in enumerate(factors, start=1))
    return (mpmath.log(2 * n * mpmath.mpf(x)) + mpmath.fsum(mpmath.log(f) for f in factors)
            + mpmath.log(hazard))


# --- edge CDF ---------------------------------------------------------------

# (2000, 0.99) and (2000, 1.01) lie within 1/sqrt(n) of the edge, where the
# band of factors reaches furthest on both sides of k = n; at n = 1, 2, 3
# near the edge its upper tail is many times n terms long
@pytest.mark.parametrize("n,x", [(5, 0.6), (30, 0.8), (30, 1.1), (100, 0.95),
                                 (2000, 0.3), (2000, 0.9), (250, 1.05),
                                 (2000, 0.99), (2000, 1.01),
                                 (1, 0.9), (2, 0.95), (3, 0.99)])
def test_edge_cdf_log_against_mpmath(n, x):
    want = float(mp_edge_cdf_log(n, x))
    assert edge_cdf_log(n, x) == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("x", [0.9, 0.97, 1.03])
def test_edge_cdf_log_at_n5000_equals_the_sum_of_scalar_factors(x):
    # an independent route at a size the 40-digit oracle is too slow for:
    # one scalar factor per shape, summed exactly; at x = 1.03 both routes
    # agree with mpmath only to about 1e-12 relative
    n = 5000
    y = n * x * x
    want = math.fsum(scalar_log_p(k, y) for k in range(1, n + 1))
    assert edge_cdf_log(n, x) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_edge_band_stays_narrow_away_from_the_edge():
    # at y = 45000 > n only the factors within a few dozen of k = n carry
    # digits, so the band does not grow with n
    n = 20000
    k0, log_pmf, log_p = exact._edge_factors(n, 1.5, n * 1.5 ** 2)
    assert len(log_pmf) == len(log_p) == n - k0 < 200


def test_edge_band_near_the_edge_is_a_few_sqrt_n_wide(monkeypatch):
    # the band is [k0, top): the pmf table is read up to top, one ln k! per term
    tops = []
    table = exact._log_factorials
    monkeypatch.setattr(exact, "_log_factorials", lambda m: tops.append(m) or table(m))
    for n, most in ((250, 430), (2000, 1180)):
        k0, _, _ = exact._edge_factors(n, 0.99, n * 0.99 ** 2)
        assert tops[-1] - k0 <= most


def _full_edge_law(n, x, log_factorials):
    """ln F and the log-density of the edge law from the whole Poisson
    log-pmf over [0, n + 60 sqrt(n) + 200), with no band."""
    y = n * x * x
    top = int(n + 60.0 * math.sqrt(n) + 200.0)
    log_pmf = np.arange(top) * math.log(y) - y - log_factorials[:top]
    lower = min(n, math.floor(y))
    log_p = np.empty(n)
    log_p[:lower] = np.log1p(-np.exp(np.logaddexp.accumulate(log_pmf[:lower])))
    log_p[lower:] = np.logaddexp.accumulate(log_pmf[::-1])[::-1][lower + 1:n + 1]
    terms = log_pmf[:n] - log_p
    peak = terms.max()
    hazard = peak + math.log(np.exp(terms - peak).sum())
    return log_p.sum(), math.log(2.0 * n * x) + log_p.sum() + hazard


def test_edge_band_carries_every_digit_of_the_full_arrays():
    rng = random.Random(2256)
    size = lambda: min(3000, round(math.exp(rng.uniform(0.0, math.log(3000.0)))))
    points = [(size(), rng.uniform(0.05, 3.0)) for _ in range(150)]
    for _ in range(126):
        n = size()
        points.append((n, 1.0 + rng.uniform(-1.0, 1.0) / math.sqrt(n)))
    points += [(n, x) for n in (1, 2, 3, 4) for x in (0.9, 0.95, 0.99, 1.0, 1.01, 1.05)]
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(10_000)])
    for n, x in points:
        cdf, pdf = _full_edge_law(n, x, log_factorials)
        assert abs(edge_cdf_log(n, x) - cdf) <= 1e-15 * abs(cdf), (n, x)
        assert abs(edge_pdf_log(n, x) - pdf) <= 1e-14 * max(1.0, abs(pdf)), (n, x)


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


def test_edge_cdf_log_far_right_is_zero():
    # y = n x^2 = 2.5e14: the band holds the top two factors, not O(y) terms
    assert edge_cdf_log(250, 1e6) == 0.0


def test_edge_law_where_n_x2_underflows():
    # n x^2 underflows to 0 at 1e-200 and 1e-170, and is subnormal, with
    # only a few digits left, at 3.2e-162 and 1e-160: ln y comes from x
    for n, x in ((10, 1e-200), (10, 3.2e-162), (3, 1e-170), (10, 1e-160)):
        cdf, pdf = float(mp_edge_cdf_log(n, x)), float(mp_edge_pdf_log(n, x))
        assert edge_cdf_log(n, x) == pytest.approx(cdf, rel=1e-12), (n, x)
        assert edge_pdf_log(n, x) == pytest.approx(pdf, rel=1e-12), (n, x)


def test_edge_law_where_n_x2_overflows():
    # every factor P(k, inf) is 1; the log density, about -n x^2, is not a double
    assert edge_cdf_log(250, 1e200) == 0.0
    assert edge_pdf_log(250, 1e152) == pytest.approx(-2.5e306, rel=1e-12)
    with pytest.raises(NumericalError, match=r"n = 250, x = 1e\+200"):
        edge_pdf_log(250, 1e200)


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


@pytest.mark.parametrize("n,x", [(250, 1.05), (250, 2.5), (2000, 1.2)])
def test_edge_pdf_log_against_mpmath(n, x):
    assert edge_pdf_log(n, x) == pytest.approx(float(mp_edge_pdf_log(n, x)), rel=1e-10)


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


@pytest.mark.parametrize("n,p", [(2000, 200.0), (2000, 190.0),
                                 (10, 400.0), (5000, 170.0)])
def test_exact_moment_whose_terms_overflow_against_mpmath(n, p):
    # the last term, e^{lgamma(n + p/2) - lgamma(n)}, times n leaves the
    # doubles, though the mean does not
    with mpmath.workdps(30):
        half = mpmath.mpf(p) / 2
        total = mpmath.fsum(mpmath.exp(mpmath.loggamma(k + half)
                                       - mpmath.loggamma(k)) for k in range(1, n + 1))
        want = float(total * mpmath.mpf(n) ** (-1 - half))
    assert exact_moment(n, p) == pytest.approx(want, rel=1e-12)


def test_exact_moment_keeps_the_plain_sum_where_it_fits():
    assert exact_moment(50, 2.0) == 0.51000000000000034


def test_exact_moment_beyond_the_doubles_is_a_numerical_error():
    # a result that leaves the doubles, not an argument outside the domain
    for n, p in ((3, 500.0), (10, 3000.0)):
        with pytest.raises(NumericalError,
                           match=re.escape(f"overflows a double at n={n}, p={p}")):
            exact_moment(n, p)


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


@pytest.mark.parametrize("n,s", [pytest.param(50, s, id=str(s))
                                 for s in (-0.4, 0.1, 1.0, 5.0)]
                         + [(400, -0.4999)])
def test_mgf_log_quadratic_tilt_closed_form(n, s):
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
                                   (30, 0.5, 0.4), (12, 1.0, -1.5),
                                   (12, 1.0, -3.0), (12, 1.0, 5.0)])
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
    # the error estimate is honest at ordinary points too
    measured = abs(res.log_value - float(total)) / abs(float(total))
    assert res.estimated_relative_error >= measured


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


@pytest.mark.parametrize("n,p,s,want", [
    (252, 1.903, -6.734, "223642662052568207745600033.706"),
    (101, 1.849, -25.57, "12638953536274540932500381.9878"),
])
def test_mgf_log_error_estimate_covers_far_right_modes(n, p, s, want):
    # every mode near v = 56..58: the peak terms reach 1e25 and cancel, so
    # rounding, not the rule, sets the error.  want is 60-digit mpmath
    # quadrature of each factor on v = ln t, over +-40 widths of its peak.
    res = mgf_log(n, p, s)
    measured = abs(res.log_value - float(want)) / abs(float(want))
    assert measured > 1e-15
    assert res.estimated_relative_error >= measured


def test_mgf_log_small_p_wall_is_refined():
    # p = 0.05: the mode of the one factor sits near v = -15, with a long
    # left tail and the e^v wall at v = 0; the h rule alone is off by 2e-11
    q = mpmath.mpf("0.025")
    c = 2 * mpmath.mpf(32.65)
    want = mpmath.log(mpmath.quad(lambda t: mpmath.e ** (-t - c * t ** q),
                                  [0, mpmath.mpf(10) ** -12, 1e-6, 1, 10, mpmath.inf]))
    res = mgf_log(1, 0.05, 32.65)
    assert res.log_value == pytest.approx(float(want), rel=1e-14)
    assert res.estimated_relative_error < 1e-10


@pytest.mark.parametrize("s", [1e200, 1e300])
def test_mgf_log_quadratic_tilt_far_out_matches_the_closed_form(s):
    # every mode lies within ln n + 1 below the Newton start ln n + ln R^2 + 1,
    # R^2 = 1/(1 + 2s); a start at ln l took one step per unit of ln(1 + 2s)
    res = mgf_log(10, 2.0, s)
    assert res.log_value == pytest.approx(-55.0 * math.log1p(2.0 * s), rel=1e-13)
    assert res.estimated_relative_error < 1e-15


def test_mgf_log_modes_start_clear_of_the_top_mode():
    # at the top mode itself, rounding of peak terms near 1e30 leaves g <= 0
    # for some factors, which then stop there; the estimate read 5.8e16
    res = mgf_log(40, 0.5, -1e22)
    assert res.log_value == pytest.approx(4.103942272024073e32, rel=1e-14)
    assert res.estimated_relative_error < 1e-14


def test_mgf_log_mode_far_out_is_a_numerical_error():
    # mode near v = 333, ln M about 1e144: the peak is e^-166 wide, far
    # below what the rounding of h resolves there, and the integrand is noise
    with pytest.raises(NumericalError, match="collapsed to zero"):
        mgf_log(40, 1.99, -2.6)
    # mode near v = 3300: the outer radius, where every Newton starts, has
    # no double R^2
    with pytest.raises(NumericalError, match="outer radius leaves the doubles"):
        mgf_log(40, 1.999, -2.6)
    # the tilt term c = 2 s n^{1-p/2} itself overflows (at s = 1e300 it does
    # not: see the closed-form test above), where Newton divided inf by inf
    with pytest.raises(NumericalError, match="tilt term .* leaves the doubles "
                                             + re.escape("at n = 10, p = 2.0, s = 1e+308")):
        mgf_log(10, 2.0, 1e308)
    # results whose own estimate read 4.1e121 and 1.7e30: no digit is correct
    for n, p, s in [(40, 1.0, -1e15), (300, 0.5, -1e22)]:
        with pytest.raises(NumericalError, match=re.escape(
                f"(no correct digit) at n = {n}, p = {p}, s = {s!r}")):
            mgf_log(n, p, s)


def test_mgf_grid_beyond_a_thousand_rows_equals_single_tilts():
    # 2200 (tilt, factor) rows share one Newton solve and one block walk
    ss = [0.5, -0.3]
    assert exact._mgf_grid(1100, 1.0, ss) == [mgf_log(1100, 1.0, s) for s in ss]


def test_mgf_grid_checks_every_tilt_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "_modes", lambda *a: calls.append("_modes"))
    monkeypatch.setattr(exact, "integrate", lambda *a: calls.append("integrate"))
    with pytest.raises(StabilityError, match="s=-0.6"):
        exact._mgf_grid(10, 2.0, [0.5, 1.0, -0.6, 0.0])
    assert calls == []


def test_mgf_grid_errors_name_the_failing_tilts(monkeypatch):
    # a tilt whose outer radius leaves the doubles; for a collapsed
    # quadrature see test_mgf_table_error_names_the_tilt
    with pytest.raises(NumericalError,
                       match=r"outer radius leaves the doubles at p=1.999, s=-2.6$"):
        exact._mgf_grid(40, 1.999, [1.0, -2.6, 0.5])
    monkeypatch.setattr(exact, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericalError,
                       match=r"did not converge at n = 12, p = 1.0, s = 0.5, 2.0$"):
        exact._mgf_grid(12, 1.0, [0.5, 0.0, 2.0])


def test_mgf_log_validation():
    with pytest.raises(DomainError):
        mgf_log(0, 1.0, 0.5)
    with pytest.raises(DomainError):
        mgf_log(10, -1.0, 0.5)


# --- ln k! table --------------------------------------------------------------

def test_log_factorial_table_is_exact_as_it_grows(monkeypatch):
    import numpy as np

    from ocp2d import exact

    monkeypatch.setattr(exact, "_LOG_FACTORIALS", np.zeros(1))
    for m in (2000, 50, 4000):
        table = exact._log_factorials(m)
        assert len(table) == m
        assert all(table[k] == math.lgamma(k + 1.0) for k in range(m))
