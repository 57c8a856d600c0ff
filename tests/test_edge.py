"""Edge rate functions, sub-leading corrections, and typical-fluctuation scales."""

import math

import numpy as np
import pytest

from ocp2d import (
    MIN_GUMBEL_N,
    DomainError,
    NumericalError,
    constrained_measure,
    entropy_functional,
    gumbel_log_factor,
    gumbel_scaling,
    invn_correction,
    left_rate,
    left_tail_prediction,
    lognn_correction,
    mean_field_energy,
    right_rate,
)


# --- pulled-edge (left) rate --------------------------------------------------

def test_left_rate_vanishes_at_edge():
    assert left_rate(1.0) == 0.0


def test_left_rate_closed_form_value():
    # -(4 ln x + x^4 - 4 x^2 + 3)/8 at x = 0.5
    want = -(4.0 * math.log(0.5) + 0.5 ** 4 - 4.0 * 0.25 + 3.0) / 8.0
    assert left_rate(0.5) == pytest.approx(want, rel=1e-15)
    assert left_rate(0.5) == pytest.approx(0.0887610894, abs=1e-9)


def test_left_rate_flat_beyond_edge():
    for x in (1.0, 1.3, 2.0, 10.0):
        assert left_rate(x) == 0.0


def test_left_rate_monotone_decreasing_inside():
    xs = np.linspace(0.05, 1.0, 120)
    vals = [left_rate(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert min(vals) == 0.0


def test_left_rate_cubic_vanishing():
    # left_rate(1 - eps) = (2/3) eps^3 + O(eps^4)
    for eps in (1e-2, 1e-3):
        assert left_rate(1.0 - eps) == pytest.approx(
            (2.0 / 3.0) * eps ** 3, rel=2e-2
        )


def test_left_rate_rejects_nonpositive():
    with pytest.raises(DomainError):
        left_rate(0.0)
    with pytest.raises(DomainError):
        left_rate(-0.5)


def test_left_rate_third_derivative_jumps_at_edge():
    # third one-sided difference: -4 from inside, 0 from outside
    h = 1e-3
    inner = (left_rate(1.0) - 3 * left_rate(1 - h)
             + 3 * left_rate(1 - 2 * h) - left_rate(1 - 3 * h)) / h ** 3
    outer = (left_rate(1 + 3 * h) - 3 * left_rate(1 + 2 * h)
             + 3 * left_rate(1 + h) - left_rate(1.0)) / h ** 3
    assert inner == pytest.approx(-4.0, abs=0.05)
    assert outer == pytest.approx(0.0, abs=1e-9)


def test_left_rate_matches_energy_functional():
    # independent oracle: excess mean-field energy of the compressed measure
    for x in (0.3, 0.5, 0.7, 0.9):
        measure = constrained_measure(x).as_radial_measure()
        excess = mean_field_energy(measure) - 3.0 / 8.0
        assert left_rate(x) == pytest.approx(excess, abs=1e-10)


@pytest.mark.parametrize("x", [1e-20, 1e-300])
def test_energy_of_a_measure_too_narrow_to_integrate_is_a_numerical_error(x):
    # at 1e-300 a tanh-sinh node underflows to t = 0 in the pair term m^2/t
    with pytest.raises(NumericalError, match="pair energy"):
        mean_field_energy(constrained_measure(x).as_radial_measure())


# --- pushed-edge (right) rate ---------------------------------------------

def test_right_rate_values():
    assert right_rate(1.0) == 0.0
    assert right_rate(2.0) == pytest.approx(-math.log(2.0) + 2.0 - 0.5, rel=1e-15)
    assert right_rate(2.0) == pytest.approx(0.8068528, abs=1e-7)


def test_right_rate_increasing_and_convex():
    xs = np.linspace(1.0, 6.0, 200)
    vals = np.array([right_rate(float(x)) for x in xs])
    d1 = np.diff(vals)
    assert (d1 > 0).all()
    assert (np.diff(d1) > 0).all()


def test_right_rate_quadratic_growth():
    # the log term becomes negligible: x^2/2 is within 1% by x = 30
    x = 30.0
    assert right_rate(x) == pytest.approx(x * x / 2.0, rel=1e-2)
    assert right_rate(10.0) == pytest.approx(50.0, rel=6e-2)


def test_right_rate_domain():
    with pytest.raises(DomainError):
        right_rate(0.999)


def test_right_rate_where_x2_over_2_overflows():
    assert right_rate(1.8e154) == pytest.approx(0.5 * 1.8e154 * 1.8e154, rel=1e-15)
    with pytest.raises(NumericalError, match=r"x = 1e\+200"):
        right_rate(1e200)


# --- finite-size corrections ----------------------------------------------

def test_corrections_closed_forms():
    assert lognn_correction(1.0) == 0.0
    assert lognn_correction(0.5) == pytest.approx(0.1875, rel=1e-15)
    want = ((1 - 0.25) / 2.0) * (
        math.log(0.75) - math.log(0.5) + 0.5 * math.log(2 * math.pi) - 1.0
    )
    assert invn_correction(0.5) == pytest.approx(want, rel=1e-14)
    assert invn_correction(0.5) == pytest.approx(0.1216514, abs=1e-7)


def test_invn_correction_vanishes_at_edge():
    assert invn_correction(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-7)


def test_invn_correction_domain():
    with pytest.raises(DomainError):
        invn_correction(1.0)
    with pytest.raises(DomainError):
        invn_correction(0.0)


def test_left_tail_prediction_composition():
    n, x = 250, 0.5
    want = left_rate(x) + (math.log(n) / n) * lognn_correction(x) \
        + invn_correction(x) / n
    assert left_tail_prediction(x, n) == pytest.approx(want, rel=1e-15)


def test_left_tail_prediction_tends_to_rate():
    # corrections die off as n grows
    x = 0.5
    gaps = [abs(left_tail_prediction(x, n) - left_rate(x))
            for n in (10 ** 2, 10 ** 4, 10 ** 6)]
    assert gaps[0] > gaps[1] > gaps[2]


# --- compressed equilibrium measure ----------------------------------------

def test_constrained_measure_boundary_mass():
    assert constrained_measure(1.0).boundary_mass == 0.0
    assert constrained_measure(0.5).boundary_mass == pytest.approx(0.75, rel=1e-15)
    assert constrained_measure(2.0).boundary_mass == 0.0
    assert constrained_measure(2.0).bulk_radius == 1.0


@pytest.mark.parametrize("x", [0.1, 0.35, 0.7, 1.0, 1.5, 3.0])
def test_constrained_measure_total_mass_one(x):
    assert constrained_measure(x).total_mass == pytest.approx(1.0, abs=1e-15)


def test_constrained_measure_far_outside_is_the_circular_law():
    # x ** 2 overflowed here; a wall at x >= 1 is inactive
    measure = constrained_measure(1.4e154)
    assert (measure.boundary_mass, measure.total_mass) == (0.0, 1.0)
    radial = measure.as_radial_measure()
    assert [(piece.lo, piece.hi) for piece in radial.pieces] == [(0.0, 1.0)]
    assert radial.rings == ()


def test_constrained_measure_domain():
    with pytest.raises(DomainError):
        constrained_measure(0.0)
    with pytest.raises(DomainError):
        constrained_measure(-1.0)


def test_constrained_measure_entropy_diverges_with_wall_mass():
    # a ring of positive mass carries -inf differential entropy
    squeezed = constrained_measure(0.5).as_radial_measure()
    assert entropy_functional(squeezed) == -math.inf
    free = constrained_measure(1.0).as_radial_measure()
    assert entropy_functional(free) == pytest.approx(math.log(math.pi), abs=1e-10)


# --- typical-fluctuation scaling -------------------------------------------

def test_gumbel_scaling_reference_values():
    sc = gumbel_scaling(250)
    assert sc.log_factor == pytest.approx(0.266298, abs=1e-6)
    assert sc.scale == pytest.approx(16.3187, abs=1e-4)
    assert sc.center == pytest.approx(1.0163186, abs=1e-7)


def test_gumbel_log_factor_formula():
    n = 1000
    want = math.log(n) - 2.0 * math.log(math.log(n)) - math.log(2 * math.pi)
    assert gumbel_log_factor(n) == pytest.approx(want, rel=1e-15)


def test_gumbel_scaling_minimum_size():
    # the log factor is negative below the documented threshold
    with pytest.raises(DomainError):
        gumbel_scaling(MIN_GUMBEL_N - 1)
    sc = gumbel_scaling(MIN_GUMBEL_N)
    assert sc.log_factor > 0.0


def test_gumbel_center_tends_to_edge():
    centers = [gumbel_scaling(n).center for n in (10 ** 3, 10 ** 6, 10 ** 9)]
    assert centers[0] > centers[1] > centers[2] > 1.0


def test_gumbel_standardize_is_affine():
    sc = gumbel_scaling(2000)
    vals = np.array([sc.center, sc.center + 1.0 / sc.scale])
    z = sc.standardize(vals)
    assert z[0] == pytest.approx(0.0, abs=1e-12)
    assert z[1] == pytest.approx(1.0, rel=1e-12)
