"""The fixed-node double-exponential rule shared by the exact and equilibrium layers."""

import math

import numpy as np
import pytest

from ocp2d.quadrature import estimate, nodes


def test_sinh_sinh_gaussian():
    x, weights = nodes(-math.inf, math.inf)
    value, err = estimate(np.exp(-x * x) * weights)
    assert abs(value - math.sqrt(math.pi)) <= 1e-15
    assert err < 1e-14


@pytest.mark.parametrize("midpoints", [False, True])
def test_midpoints_are_the_rule_shifted_by_half_a_step(midpoints):
    # each node set is a trapezoid rule in t on its own, so their mean is
    # the rule at h/2
    x, weights = nodes(-math.inf, math.inf, midpoints)
    gauss = float((np.exp(-50.0 * x * x) * weights).sum())
    assert gauss == pytest.approx(math.sqrt(math.pi / 50.0), rel=1e-15)
    x, weights = nodes(0.0, 1.0, midpoints)
    assert float((np.sqrt(x) * weights).sum()) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_row_wise_estimate_matches_each_row():
    rng = np.random.default_rng(3)
    decay = np.exp(-np.abs(np.arange(461) - 230) / 30.0)
    rows = rng.standard_normal((5, 461)) * decay
    values, errs = estimate(rows)
    for row, value, err in zip(rows, values, errs):
        assert estimate(row) == (value, err)
    # the 2h rule on the even nodes: t = 0 sits at an odd index of 231
    values, errs = estimate(rows[:, ::2])
    for row, value, err in zip(rows[:, ::2], values, errs):
        assert estimate(row) == (value, err)

