"""Tilted equilibrium measures, their thermodynamics, and the transition ladder."""

import math
import random
import re
import sys

import mpmath
import numpy as np
import pytest

from ocp2d import (
    DomainError,
    NumericalError,
    Piece,
    RadialMeasure,
    RingMass,
    SingularityError,
    StabilityError,
    TiltedPotential,
    closed_form_energy,
    closed_form_entropy,
    energy_excess,
    entropy_excess,
    entropy_functional,
    equilibrium_measure,
    leading_cumulant,
    mean_field_energy,
    stability_domain,
    support_radii,
    transition_order,
    typical_value,
)
from ocp2d.exact import _modes


# --- stability domains -------------------------------------------------------

def test_stability_domain_shapes():
    assert stability_domain(1.0).contains(-50.0)
    assert stability_domain(1.5).contains(1e6)
    assert stability_domain(2.0).contains(-0.49)
    assert not stability_domain(2.0).contains(-0.5)
    assert stability_domain(3.0).contains(0.0)
    assert not stability_domain(3.0).contains(-1e-12)
    for s in (math.inf, -math.inf, math.nan):
        assert not stability_domain(1.0).contains(s)


def test_stability_domain_require_raises():
    with pytest.raises(StabilityError):
        stability_domain(2.0).require(-0.6)
    with pytest.raises(StabilityError):
        stability_domain(2.5).require(-0.1)
    for p, s in ((3.0, math.inf), (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(StabilityError, match=f"the tilt must be finite, got s={s}$"):
            stability_domain(p).require(s)
    assert stability_domain(1.0).require(-3.0) == -3.0


def test_bad_exponent_rejected():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            stability_domain(bad)


# --- support radii and the measure itself -----------------------------------

def test_support_radii_untilted_is_unit_disk():
    for p in (0.5, 1.0, 2.0, 3.0):
        r_in, r_out = support_radii(p, 0.0)
        assert r_in == 0.0
        assert r_out == pytest.approx(1.0, abs=1e-13)


def test_support_radii_quadratic_tilt_closed_form():
    # outer radius solves R^2 (1 + 2s) = 1 when the tilt is quadratic
    for s in (-0.3, 0.2, 1.0, 4.0, 1e300):
        r_in, r_out = support_radii(2.0, s)
        assert r_in == 0.0
        assert r_out == pytest.approx(1.0 / math.sqrt(1.0 + 2.0 * s), rel=1e-12)


def test_support_becomes_annular_for_weak_negative_tilt():
    # sub-quadratic tilt with s < 0 opens a hole of radius (-s p)^{1/(2-p)}
    p, s = 1.0, -0.4
    r_in, r_out = support_radii(p, s)
    assert r_in == pytest.approx((-s * p) ** (1.0 / (2.0 - p)), rel=1e-12)
    assert r_in > 0.0
    measure = equilibrium_measure(p, s)
    assert measure.is_annular
    # density stays nonnegative across the support, vanishing nowhere inside
    rs = np.linspace(r_in, r_out, 50)
    dens = [measure.density(float(r)) for r in rs]
    assert min(dens) > 0.0


def _reference_outer_radius(p, s):
    """R from the 40-digit root in v = ln R^2 of e^v + s p e^{pv/2} - 1,
    bisected between a point at or below it (ln r_in^2 on an annulus, where
    the left side is -1) and the first point above it found by doubling."""
    with mpmath.workdps(40):
        P, S = mpmath.mpf(p), mpmath.mpf(s)
        g = lambda v: mpmath.exp(v) + S * P * mpmath.exp(P * v / 2) - 1
        if p < 2 and s < 0:
            lo = 2 * mpmath.log(-S * P) / (2 - P)
        else:
            lo = mpmath.mpf(-1)
            while g(lo) > 0:
                lo *= 2
        width = mpmath.mpf(1)
        while g(lo + width) <= 0:
            width *= 2
        hi = lo + width
        while hi - lo > mpmath.mpf(10) ** -36 * max(1, abs(lo)):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) <= 0 else (lo, mid)
        return mpmath.exp(lo / 2)


def _sweep_cases(count, seed):
    """(p, s) drawn as in the support-radius sweep: p from the listed
    exponents and U(0.01, 8), s from U(-3, 5), U(-100, 100) and
    +-10^U(-8, 6); s is clipped to s >= -0.4999 at p = 2 and replaced by
    |s| at p > 2."""
    rng = random.Random(seed)
    fixed = [0.01, 0.1, 0.5, 1, 1.5, 1.9, 1.99, 1.999, 2, 3, 4, 8]
    cases = []
    for _ in range(count):
        p = float(rng.choice(fixed + [rng.uniform(0.01, 8)]))
        s = rng.choice([rng.uniform(-3, 5), rng.uniform(-100, 100),
                        10 ** rng.uniform(-8, 6) * rng.choice([-1, 1])])
        s = max(s, -0.4999) if p == 2 else abs(s) if p > 2 else s
        cases.append((p, s))
    return cases


@pytest.mark.parametrize("seed", [3, 4])
def test_support_radii_sweep_against_mpmath(seed):
    # added cases: a disk of radius 2.04e-12, one of radius 2.5e-18, an
    # annulus less than one ulp wide at r_in = 3.6e74, radii beyond the
    # doubles (R^2 near 1e400, R near 1e-400 and 4e-616), two near their
    # edges, a subnormal R of 5.6e-309, a disk of radius 1e-300 whose e^v
    # underflows at the Newton start, and six disks whose s p overflows a
    # double, three of them where the Newton moves off its start
    huge = {(8.0, 1e308): 2.438449420228684e-39, (3.0, 1e308): 1.4938015821857216e-103,
            (2.0, 1e308): 7.0710678118654752e-155, (1000.0, 1e306): 0.49077261721259197,
            (50.0, 1e307): 6.699163848424567e-07, (1.5, 1.5e308): 2.703200886921511e-206}
    cases = _sweep_cases(80, seed) + [
        (0.3701637125820248, 57386.003410941725), (0.01, 150.0), (1.99, -2.797),
        (1.99, -50.0), (1.99, -3.0), (0.01, 1e6), (8.0, 1e300), (1.0, 1e300),
        (0.5, 1e308), (1.0000001, 1.7976931e308), *huge]
    for (p, s), want in huge.items():
        assert support_radii(p, s)[1] == pytest.approx(want, rel=1e-15)
    for p, s in cases:
        ref = _reference_outer_radius(p, s)
        if not (ref ** 2 < sys.float_info.max and ref >= sys.float_info.min):
            with pytest.raises(NumericalError, match=re.escape(f"p={p}, s={s}")):
                support_radii(p, s)
            continue
        r_in, r_out = support_radii(p, s)
        assert abs(r_out - ref) <= 1e-12 * ref, (p, s)
        assert r_out >= r_in


def test_support_radii_solve_the_mode_equation_of_the_exact_mgf():
    # in v = ln R^2 the outer radius is the mode of exact._modes at l = 1,
    # c = 2s, q = p/2: disks, annuli, the quadratic tilt and p > 2.  The
    # Newton of _modes starts at ln R^2 + 1, where g > 0, not on the root.
    grid = [(p, s) for p in (0.3, 1.0, 1.5, 1.9) for s in (-1.0, -0.4, 0.5, 4.0, 60.0)] \
        + [(2.0, s) for s in (-0.45, -0.2, 0.5, 4.0)] \
        + [(p, s) for p in (3.0, 8.0) for s in (0.01, 1.0, 200.0)]
    for p, s in grid:
        r_out = support_radii(p, s)[1]
        start = np.array([2.0 * math.log(r_out) + 1.0])
        mode = _modes(np.ones(1), np.array([2.0 * s]), p / 2.0, start, lambda mask: "")
        assert r_out ** 2 == pytest.approx(math.exp(mode[0]), rel=1e-14), (p, s)


def test_support_radii_at_huge_exponents_return_or_raise_typed_errors():
    # where s p < eps/2, g(0) rounds to 0 and that start is the root; a
    # search beyond it overflowed e^{pv/2} once p/2 > 709
    r_in, r_out = support_radii(1e4, 1e-24)
    assert r_in == 0.0 and abs(r_out - 1.0) <= 1e-15
    for p in (2.5, 3.0, 10.0, 100.0, 1e3, 1420.0, 1e4, 1e5, 1e6):
        for e in range(-300, 301, 4):
            r_in, r_out = support_radii(p, 10.0 ** e)
            assert r_in == 0.0 and 0.0 < r_out <= 1.0, (p, e)
            with pytest.raises(StabilityError):
                support_radii(p, -10.0 ** e)


def test_annuli_that_pass_the_width_check_keep_every_power_a_double():
    # R^p (R^{2-p} - r_in^{2-p}) = 1 bounds R (R - r_in), and the width
    # check bounds (R - r_in) / R from below, so a passing annulus has
    # R < 1e4 and the closed forms' powers of R (at most R^4) never overflow
    widest = 0.0
    for p in (0.01, 0.3, 1.0, 1.5, 1.9, 1.99, 1.999):
        for e in range(-6, 309):
            s = -10.0 ** (e / 2.0)
            for f in (typical_value, energy_excess):
                try:
                    assert math.isfinite(f(p, s))
                except NumericalError:
                    continue
                widest = max(widest, support_radii(p, s)[1])
    assert 10.0 < widest < 1e4


def test_entropy_excess_whose_s_p2_underflows_is_a_numerical_error():
    # at p = 1e-300, s p^2 is 0 and the integrand is log(0) times 0
    for s in (0.5, 1.0, 1e100):
        with pytest.raises(NumericalError, match=re.escape(f"p=1e-300, s={s}")):
            entropy_excess(1e-300, s)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p,s", [(1e300, 0.5), (1e154, 1e10)])
def test_entropy_excess_whose_s_p2_overflows_is_a_numerical_error(p, s):
    # s p^2 overflowed with a numpy warning before the quadrature refused
    # its nan estimate
    with pytest.raises(NumericalError, match=re.escape(
            f"s p^2 leaves the doubles in the entropy excess at p={p}, s={s}")):
        entropy_excess(p, s)


@pytest.mark.parametrize("f,p,s,radius", [
    # annuli whose R^4 or a product would overflow: refused as too thin first
    (typical_value, 1.99, -3.0, 3.96e77),
    (energy_excess, 1.99, -3.0, 3.96e77),
    (energy_excess, 0.01, -1.0893039390979322e155, 8e76),
    (energy_excess, 4.0, 1e155, 1.257e-39),     # a disk whose s s p overflows
    (typical_value, 3.0, 1.5e308, 1.305e-103),  # a disk whose s p overflows
])
def test_closed_forms_beyond_the_doubles_are_numerical_errors(f, p, s, radius):
    assert support_radii(p, s)[1] == pytest.approx(radius, rel=1e-2)
    with pytest.raises(NumericalError, match=re.escape(f"p={p}, s={s}")):
        f(p, s)


_EXCESSES = (typical_value, energy_excess, entropy_excess)


@pytest.mark.parametrize("f", _EXCESSES)
@pytest.mark.parametrize("p,s", [(1.9, -3.0), (1.99, -1.5)])
def test_unresolved_thin_annuli_are_numerical_errors(f, p, s):
    # R - r_in is 8e-15 R at (1.9, -3) and rounds to 0 at (1.99, -1.5),
    # where the closed forms gave an 8% wrong typical value and 0.0
    with pytest.raises(NumericalError, match=re.escape(f"p={p}, s={s}")):
        f(p, s)


def test_resolved_annuli_keep_their_values():
    assert [f(1.5, -3.0) for f in _EXCESSES] == [
        91.45725863369631, -70.22363683821135, -1.3826686940473376]
    assert [f(1.9, -1.0) for f in _EXCESSES] == [
        197846.9654770787, -9895.682547667191, -2.995707002237757]


def _mp_annulus(p, s):
    """60-digit typical value, energy excess and entropy excess of the
    annulus at (p, s): the closed forms and a quadrature of rho ln(rho/r)."""
    with mpmath.workdps(60):
        p, s = mpmath.mpf(p), mpmath.mpf(s)
        r_in = (-s * p) ** (1 / (2 - p))
        radius = mpmath.findroot(lambda r: r * r + s * p * r ** p - 1,
                                 mpmath.mpf(support_radii(float(p), float(s))[1]))

        def diff(k):
            return radius ** k - r_in ** k

        def rho(r):
            return 2 * r + s * p * p * r ** (p - 1)

        typical = 2 / (2 + p) * diff(p + 2) + s * p / 2 * diff(2 * p)
        energy = (diff(4) / 8 + (4 * s + s * p * p) / (4 * (p + 2)) * diff(p + 2)
                  + s * s * p / 4 * diff(2 * p)
                  + (radius ** 2 / 2 + s * radius ** p - mpmath.log(radius) - 0.75) / 2)
        entropy = mpmath.quad(lambda r: rho(r) * mpmath.log(rho(r) / r),
                              [r_in, radius]) - mpmath.log(2)
        return [float(typical), float(energy), float(entropy)]


@pytest.mark.parametrize("p,s,returned", [
    (0.05, -488123.8, "111"), (0.05, -4608186.0, "110"),
    (0.05, -14158915.7, "010"), (0.5, -26670.4, "111"), (0.5, -63245.6, "010"),
    (1.5, -21.1, "111"), (1.5, -28.1, "000"), (1.9, -1.0, "111"),
    (1.9, -1.1, "101"), (1.99, -0.529, "111"), (1.99, -0.542, "101"),
    (1.99, -0.545, "001"),
])
def test_thinnest_returned_annuli_against_mpmath(p, s, returned):
    # the thinnest annuli on either side of the width check: what typical
    # value, energy and entropy excess return is within 1e-8 of 60 digits
    for f, flag, want in zip(_EXCESSES, returned, _mp_annulus(p, s)):
        if flag == "1":
            assert f(p, s) == pytest.approx(want, rel=1e-8), f
        else:
            with pytest.raises(NumericalError, match="wider annulus"):
                f(p, s)


def test_equilibrium_measure_normalized():
    for p, s in [(0.5, -0.25), (1.0, 2.0), (2.0, -0.4), (2.0, 5.0), (3.0, 1.0)]:
        m = equilibrium_measure(p, s)
        assert m.cumulative(m.outer_radius) == pytest.approx(1.0, abs=1e-12)
        assert m.as_radial_measure().total_mass() == pytest.approx(1.0, abs=1e-12)


def test_density_zero_outside_support():
    m = equilibrium_measure(1.0, -0.4)
    assert m.density(m.inner_radius * 0.5) == 0.0
    assert m.density(m.outer_radius * 1.1) == 0.0


# --- energy / entropy excess -------------------------------------------------

def test_excess_vanishes_at_zero_tilt():
    for p in (0.5, 1.0, 2.0, 3.0):
        assert energy_excess(p, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert entropy_excess(p, 0.0) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("s", [-0.3, 0.25, 1.0, 4.0])
def test_quadratic_tilt_closed_forms(s):
    assert energy_excess(2.0, s) == pytest.approx(0.25 * math.log1p(2 * s), rel=1e-12)
    assert entropy_excess(2.0, s) == pytest.approx(math.log1p(2 * s), rel=1e-12)
    assert closed_form_energy(2.0, s) == pytest.approx(0.25 * math.log1p(2 * s), rel=1e-14)
    assert closed_form_entropy(2.0, s) == pytest.approx(math.log1p(2 * s), rel=1e-14)


@pytest.mark.parametrize("s", [-0.35, 0.5, 1.0, 3.0])
def test_linear_tilt_closed_forms_match_quadrature(s):
    assert closed_form_energy(1.0, s) == pytest.approx(energy_excess(1.0, s), rel=1e-10)
    assert closed_form_entropy(1.0, s) == pytest.approx(entropy_excess(1.0, s), rel=1e-9)


def test_linear_tilt_entropy_reference_value():
    assert closed_form_entropy(1.0, 1.0) == pytest.approx(1.10298033415, abs=1e-10)


def _expanded_linear_tilt_forms(s):
    """E and S at p = 1 in the expanded form, which loses about 4 log10|s|
    digits to cancellation, evaluated with that many digits to spare."""
    with mpmath.workdps(int(40 + 4 * math.log10(abs(s) + 1))):
        s = mpmath.mpf(s)
        root = mpmath.sqrt(s * s + 4)
        energy = mpmath.asinh(s / 2) / 2 - s * s / 4 \
            + (s / 48) * ((s * s + 10) * root - abs(s) ** 3)
        entropy = mpmath.asinh(s / 2) + (s * s + 4) / 8 * mpmath.log(s * s + 4) \
            + (s / 4) * (root - s * mpmath.log(abs(s)) - abs(s)) - mpmath.log(2)
        return float(energy), float(entropy)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_linear_tilt_closed_forms_keep_their_digits(sign):
    # |s| from 1e-15 to 1e8 on the disk and the annulus; the expanded form
    # was off by 1.3e-3 (energy) at s = 1e4 and 16% (entropy) at 1e8
    for k in range(-30, 17):
        s = sign * 10.0 ** (k / 2)
        energy, entropy = _expanded_linear_tilt_forms(s)
        assert closed_form_energy(1.0, s) == pytest.approx(energy, rel=1e-14), s
        assert closed_form_entropy(1.0, s) == pytest.approx(entropy, rel=1e-14), s


@pytest.mark.parametrize("s", [1e10, -1e10, 1e50, -1e50, 1e150, -1e150, 1e300])
def test_linear_tilt_energy_at_huge_tilts(s):
    # at 1e10 the expanded form gave -2.5e19, at -1e50 -3.8e182
    energy = _expanded_linear_tilt_forms(s)[0]
    assert closed_form_energy(1.0, s) == pytest.approx(energy, rel=1e-14)


@pytest.mark.parametrize("f,s", [
    (closed_form_energy, -1e155), (closed_form_energy, -1e300),
    (closed_form_entropy, 3e154), (closed_form_entropy, -3e154),
    (closed_form_entropy, -1e300), (closed_form_entropy, 5e-324),
    (closed_form_energy, -1.7976931348623157e308),
])
def test_linear_tilt_closed_forms_beyond_the_doubles_are_numerical_errors(f, s):
    # the expanded form raised OverflowError from |s|^3 or returned nan
    with pytest.raises(NumericalError, match=re.escape(f"p=1.0, s={s}")):
        f(1.0, s)


def test_closed_forms_limited_to_known_exponents():
    with pytest.raises(DomainError):
        closed_form_energy(1.5, 0.3)
    with pytest.raises(DomainError):
        closed_form_entropy(3.0, 0.3)


@pytest.mark.parametrize("p,s", [(1.0, 0.4), (2.0, 0.8), (0.5, -0.2), (3.0, 1.5)])
def test_tilt_derivative_is_typical_value(p, s):
    # envelope identity: d/ds of the excess equals the tilted moment
    h = 1e-6
    diff = (energy_excess(p, s + h) - energy_excess(p, s - h)) / (2 * h)
    assert diff == pytest.approx(typical_value(p, s), rel=1e-7)


def test_typical_value_at_zero_tilt():
    for p in (0.5, 1.0, 2.0, 4.0):
        assert typical_value(p, 0.0) == pytest.approx(2.0 / (2.0 + p), rel=1e-12)


@pytest.mark.parametrize("p,s", [(1.0, 0.4), (2.0, 0.8), (1.0, -0.3)])
def test_energy_excess_against_functional_oracle(p, s):
    # independent route: Coulomb energy of the tilted minimizer plus the
    # tilt work, referenced to the untilted disk value 3/8
    mu = equilibrium_measure(p, s).as_radial_measure()
    combo = mean_field_energy(mu) + s * typical_value(p, s) - 0.375
    assert combo == pytest.approx(energy_excess(p, s), abs=1e-9)
    # the same, with the tilt work inside the confinement energy
    tilted = mean_field_energy(mu, TiltedPotential(p, s)) - 0.375
    assert tilted == pytest.approx(energy_excess(p, s), abs=1e-9)


@pytest.mark.parametrize("p,s", [(1.0, 0.4), (2.0, 0.8)])
def test_entropy_excess_is_functional_deficit(p, s):
    mu = equilibrium_measure(p, s).as_radial_measure()
    deficit = math.log(math.pi) - entropy_functional(mu)
    assert deficit == pytest.approx(entropy_excess(p, s), abs=1e-9)


def test_unstable_tilt_raises():
    with pytest.raises(StabilityError):
        energy_excess(2.0, -0.5)
    with pytest.raises(StabilityError):
        entropy_excess(3.0, -0.01)
    # inside the domain, but below the p = 2 guard
    with pytest.raises(StabilityError, match="values below -0.499999 are rejected"):
        energy_excess(2.0, -0.4999999)


# --- mean-field functionals on the flat disk ---------------------------------

def test_disk_energy_and_entropy():
    disk = RadialMeasure.circular_law()
    assert mean_field_energy(disk) == pytest.approx(0.375, abs=1e-10)
    assert entropy_functional(disk) == pytest.approx(math.log(math.pi), abs=1e-10)


# --- transition classification ------------------------------------------------

@pytest.mark.parametrize(
    "p,order",
    [(0.5, 3), (1.0, 4), (4.0 / 3.0, 6), (1.5, 8), (1.9, 40)],
)
def test_transition_order_below_quadratic(p, order):
    t = transition_order(p)
    assert t.order == order
    assert not t.analytic
    assert not t.one_sided_domain


def test_transition_order_at_and_above_quadratic():
    t2 = transition_order(2.0)
    assert t2.analytic and t2.order is None and not t2.one_sided_domain
    t3 = transition_order(3.0)
    assert t3.analytic and t3.one_sided_domain


# --- cumulant formulas ---------------------------------------------------------

def test_leading_cumulant_values():
    assert leading_cumulant(1.0, 2.0, 100, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert leading_cumulant(2.0, 2.0, 10, 2) == pytest.approx(
        2.0 / (2.0 * 2.0 * 100), rel=1e-15
    )
    assert leading_cumulant(2.0, 4.0, 32, 2) == pytest.approx(
        1.0 / (4.0 * 32 ** 2), rel=1e-15
    )
    assert leading_cumulant(1.0, 2.0, 10, 3) == pytest.approx(
        1.0 / (2.0 * 4.0 * 10 ** 4), rel=1e-15
    )


@pytest.mark.parametrize("beta,n,order", [
    (1e-160, 10, 3), (1e-300, 10, 3), (2.0, 10 ** 100, 3), (2.0, 10 ** 200, 2),
    (1e300, 10 ** 10, 2)], ids=["1e-160", "1e-300", "n1e100", "n1e200", "1e300"])
def test_leading_cumulant_beyond_the_doubles_is_a_numerical_error(beta, n, order):
    # (1e-160, 10, 3) returned inf; beta^2 underflowed to a ZeroDivisionError
    # at 1e-300, and a 101-digit n would not convert to a float
    with pytest.raises(NumericalError, match="leaves the doubles"):
        leading_cumulant(1.0, beta, n, order)


def test_leading_cumulant_scales_cubically_in_exponent():
    k3a = leading_cumulant(1.0, 1.0, 1, 3)
    k3b = leading_cumulant(1.5, 1.0, 1, 3)
    assert k3b / k3a == pytest.approx(1.5 ** 3, rel=1e-12)


def test_cumulants_beyond_transition_raise():
    with pytest.raises(SingularityError):
        leading_cumulant(0.5, 2.0, 10, 3)   # transition order 3
    # order 2 still exists there
    assert leading_cumulant(0.5, 2.0, 10, 2) > 0.0


def test_leading_cumulant_argument_validation():
    with pytest.raises(DomainError):
        leading_cumulant(1.0, 2.0, 10, 4)
    with pytest.raises(DomainError):
        leading_cumulant(1.0, -2.0, 10, 1)
    with pytest.raises(DomainError):
        leading_cumulant(1.0, 2.0, 0, 1)


# --- double-exponential quadrature --------------------------------------------

def _mp_entropy_excess(p, s):
    # 30-digit reference in v = r^p, where the disk integrand's only
    # singularity is ln v at 0.
    with mpmath.workdps(30):
        p, s = mpmath.mpf(p), mpmath.mpf(s)
        radius = mpmath.findroot(lambda r: r * r + s * p * r ** p - 1, 1)
        k = (2 - p) / p

        def f(v):
            a = 2 * v ** k + s * p * p
            return a / p * (mpmath.log(a) - k * mpmath.log(v))

        return mpmath.quad(f, [0, radius ** p]) - mpmath.log(2)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("s", [1.0, 5.0])
def test_entropy_excess_against_mpmath_at_singular_exponents(p, s):
    assert entropy_excess(p, s) == pytest.approx(float(_mp_entropy_excess(p, s)),
                                                 abs=1e-10)


def test_entropy_excess_converges_across_exponents_and_tilts():
    # every point converges, except the annuli at p = 1.9, s <= -2, whose
    # widths (1e-7 R and less) rounding does not resolve: those are refused
    tilts = [-5, -3, -2, -1, -0.75, -0.49, -0.45, -0.3, -0.2, -0.1, -0.01,
             -1e-3, 1e-3, 0.01, 0.1, 0.2, 0.5, 1, 2, 3, 5, 10, 20]
    for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1, 1.25, 1.5, 1.9, 2, 2.5, 3, 4,
              6, 8, 10):
        domain = stability_domain(p)
        for s in tilts:
            if not domain.contains(s):
                continue
            if p == 1.9 and s <= -2:
                with pytest.raises(NumericalError, match="wider annulus"):
                    entropy_excess(p, s)
            else:
                assert math.isfinite(entropy_excess(p, s)), (p, s)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("grid", [[-0.4, -0.1, 0.0, 0.3, 0.6],
                                  np.linspace(-3.0, 5.0, 65).tolist()],
                         ids=["short", "over-a-block"])
def test_entropy_grid_is_the_single_tilts_bit_for_bit(p, grid):
    # both grids hold s = 0; at p < 2 they span the annulus and the disk
    # branch, and the long one (fig 3's) puts 40 or more rows in one branch
    import ocp2d.equilibrium as eq
    ss = [s for s in grid if stability_domain(p).contains(s)]
    assert 0.0 in ss
    assert eq._entropy_grid(p, ss) == [entropy_excess(p, s) for s in ss]


def test_entropy_grid_rows_stop_on_their_own():
    # at p = 200 the tilt 1e300 walks on to h = 1/64, while the others
    # stop at h = 1/32 in the same batch and keep their single-tilt bits
    import ocp2d.equilibrium as eq
    ss = [1.0, 1e300, 10.0]
    assert eq._entropy_grid(200.0, ss) == [entropy_excess(200.0, s) for s in ss]


def test_entropy_grid_refuses_what_its_tilts_refuse():
    # a thin annulus is refused before any quadrature, in the words of the
    # single tilt; a row the rule does not resolve is named by its own tilt
    import ocp2d.equilibrium as eq
    for p, grid, s, match in [(1.9, [1.0, -1.0, -3.0, 0.0], -3.0, "needs a wider annulus"),
                              (1.99, [-0.5, 1.0, 1e300, 2.0], 1e300, "did not converge")]:
        with pytest.raises(NumericalError, match=match) as alone:
            entropy_excess(p, s)
        with pytest.raises(NumericalError) as batch:
            eq._entropy_grid(p, grid)
        assert str(batch.value) == str(alone.value)
        assert f"p={p}, s={s}" in str(alone.value)


def test_half_infinite_piece_matches_closed_forms():
    # density e^{-r} on [0, inf): energy 1 + (gamma - ln 2)/2 and entropy
    # 1 + ln 2 pi - gamma, through the exp-sinh form of the rule
    mu = RadialMeasure(pieces=(Piece(0.0, math.inf, lambda r: math.exp(-r)),))
    gamma = 0.57721566490153286
    assert mean_field_energy(mu) == pytest.approx(
        1.0 + (gamma - math.log(2.0)) / 2.0, abs=1e-10)
    assert entropy_functional(mu) == pytest.approx(
        1.0 + math.log(2.0 * math.pi) - gamma, abs=1e-10)


def test_half_infinite_piece_mass_is_integrated_once(monkeypatch):
    # the nested energy asks for the cumulative mass at every outer node;
    # the total exp-sinh mass of the piece must not be redone each time
    import ocp2d.equilibrium as eq

    def density(r):
        return math.exp(-r)

    quad, lower_limits = eq._quad_checked, []

    def spy(f, lo, hi, what, tol=1e-10):
        if f is density and hi == math.inf:
            lower_limits.append(lo)
        return quad(f, lo, hi, what, tol)

    monkeypatch.setattr(eq, "_quad_checked", spy)
    mean_field_energy(RadialMeasure(pieces=(Piece(0.0, math.inf, density),)))
    assert lower_limits.count(0.0) == 1


@pytest.mark.parametrize("r", [0.5, 1.0, 10.0, 1e6, 1e12, math.inf])
def test_half_infinite_mass_below_without_cumulative(r):
    # beyond r = 1 the mass below is the total less the exp-sinh tail above
    # r: a finite rule on [0, 1e12] misses the Gaussian's mass
    exponential = RadialMeasure(pieces=(Piece(0.0, math.inf, lambda t: math.exp(-t)),))
    gaussian = RadialMeasure(pieces=(
        Piece(0.0, math.inf, lambda t: 2.0 * t * math.exp(-t * t)),))
    assert exponential.continuous_mass_below(r) == pytest.approx(
        -math.expm1(-r), abs=1e-12)
    assert gaussian.continuous_mass_below(r) == pytest.approx(
        -math.expm1(-r * r), abs=1e-12)


@pytest.mark.parametrize("with_cumulative", [True, False])
def test_two_rings_inside_and_outside_the_unit_circle(with_cumulative):
    # disk of mass m0 on [0, a] plus rings (b, m1) inside and (c, m2)
    # outside the unit circle: every bulk-ring and ring-ring pair in closed form
    m0, a = 0.5, 0.6
    (b, m1), (c, m2) = (0.8, 0.3), (1.5, 0.2)
    cumulative = (lambda r: m0 * r * r / (a * a)) if with_cumulative else None
    mu = RadialMeasure(
        pieces=(Piece(0.0, a, lambda r: 2.0 * m0 * r / (a * a), cumulative),),
        rings=(RingMass(b, m1), RingMass(c, m2)))
    closed = -0.5 * m0 ** 2 * (math.log(a) - 0.25) - m0 * m1 * math.log(b) \
        - m0 * m2 * math.log(c) - m1 * m2 * math.log(c) \
        - 0.5 * m1 ** 2 * math.log(b) - 0.5 * m2 ** 2 * math.log(c) \
        + m0 * a * a / 4.0 + m1 * b * b / 2.0 + m2 * c * c / 2.0
    assert closed == pytest.approx(0.43163247601755017, abs=1e-15)
    assert mean_field_energy(mu) == pytest.approx(closed, abs=1e-12)


def test_kinked_density_needs_a_split_at_the_kink():
    def tent(r):
        return 4.0 * r if r < 0.5 else 4.0 * (1.0 - r)

    whole = RadialMeasure(pieces=(Piece(0.0, 1.0, tent),))
    with pytest.raises(NumericalError):
        whole.total_mass()
    split = RadialMeasure(pieces=(Piece(0.0, 0.5, tent), Piece(0.5, 1.0, tent)))
    assert split.total_mass() == pytest.approx(1.0, abs=1e-12)
    # -int f ln(r) M(r) dr + int r^2/2 f dr in closed form: ln(2)/2 + 1/16
    assert mean_field_energy(split) == pytest.approx(
        0.5 * math.log(2.0) + 1.0 / 16.0, abs=1e-10)


def test_nan_density_raises_instead_of_returning_nan():
    mu = RadialMeasure(pieces=(
        Piece(0.0, 1.0, lambda r: 2.0 * r if r < 0.5 else math.nan),))
    with pytest.raises(NumericalError):
        mu.total_mass()
    with pytest.raises(NumericalError):
        mean_field_energy(mu)
    with pytest.raises(NumericalError):
        entropy_functional(mu)


@pytest.mark.parametrize("pieces,rings,match", [
    ((Piece(1.0, 0.5, lambda r: 2.0 * r),), (), "invalid piece bounds"),
    ((Piece(-0.5, 1.0, lambda r: 2.0 * r),), (), "invalid piece bounds"),
    ((Piece(0.0, 1.0, lambda r: 2.0 * r, lambda r: r * r),), (RingMass(0.0, 0.0),),
     "ring radius must be positive"),
])
def test_invalid_radial_measures_are_domain_errors(pieces, rings, match):
    with pytest.raises(DomainError, match=match):
        mean_field_energy(RadialMeasure(pieces=pieces, rings=rings))


def test_nan_mass_is_a_domain_error():
    nan_cumulative = RadialMeasure(pieces=(
        Piece(0.0, 1.0, lambda r: 2.0 * r, lambda r: math.nan),))
    nan_ring = RadialMeasure(
        pieces=(Piece(0.0, 1.0, lambda r: 2.0 * r, lambda r: r * r),),
        rings=(RingMass(0.5, math.nan),))
    for mu in (nan_cumulative, nan_ring):
        with pytest.raises(DomainError):
            mean_field_energy(mu)
