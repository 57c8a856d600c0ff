"""The shared argument validators and the messages of their callers."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ocp2d import (
    DomainError,
    MetropolisChain,
    PlasmaConfig,
    edge_cdf_log,
    extract_subleading,
    gumbel_check,
    gumbel_scaling,
    leading_cumulant,
    left_tail_prediction,
    mgf_log,
    mgf_table,
    radial_statistic,
    sample_kostlan,
    sample_mcmc,
    subleading_coefficient,
    transition_scan,
)
from ocp2d.errors import __all__ as errors_all
from ocp2d.errors import check_positive, check_size


def test_validators_are_exported_by_errors_only():
    import ocp2d

    for name in ("check_positive", "check_size"):
        assert name in errors_all
        assert name not in ocp2d.__all__


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), "3"])
def test_check_size_returns_an_int(value):
    got = check_size(value, "k")
    assert got == 3
    assert type(got) is int


@pytest.mark.parametrize("minimum", [0, 1, 2])
def test_check_size_names_the_argument(minimum):
    assert check_size(minimum, "widgets", minimum) == minimum
    with pytest.raises(DomainError,
                       match=f"widgets must be >= {minimum}, got {minimum - 1}"):
        check_size(minimum - 1, "widgets", minimum)


@pytest.mark.parametrize("value", [12.5, math.inf, -math.inf, math.nan, "3.5",
                                   "x", None])
def test_check_size_refuses_what_is_not_a_whole_number(value):
    with pytest.raises(DomainError, match="widgets must be an integer, got "):
        check_size(value, "widgets")


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), Fraction(10 ** 400, 3)])
def test_check_size_refuses_a_number_too_large_for_a_double(value):
    with pytest.raises(DomainError, match="^widgets is too large for a double$"):
        check_size(value, "widgets")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_check_positive_rejects(value):
    with pytest.raises(DomainError, match="radius x must be finite and > 0"):
        check_positive(value, "radius x")


# One case per module whose checks go through the validators: the message
# names the argument that is out of its domain.
@pytest.mark.parametrize("call,word", [
    (lambda: edge_cdf_log(0, 0.5), "particle number n must be >= 1, got 0"),
    (lambda: leading_cumulant(1.0, 0.0, 5, 1), "coupling beta"),
    (lambda: left_tail_prediction(0.5, 1), "left_tail_prediction: n must be >= 2"),
    (lambda: sample_kostlan(5, 0, 2, 1), "count must be >= 1, got 0"),
    (lambda: sample_mcmc(5, 2.0, 10, 2, 0, 2.0, 1), "thinning must be >= 1"),
    (lambda: MetropolisChain(5, 2.0, np.random.default_rng(0), 0.0), "step"),
    (lambda: radial_statistic(PlasmaConfig(np.ones((2, 2))), -1.0),
     "statistic exponent p"),
    (lambda: PlasmaConfig(np.ones((2, 2)), beta=math.nan), "coupling beta"),
    (lambda: gumbel_check(200, 1, 0), "draws must be >= 2, got 1"),
    (lambda: subleading_coefficient(1.0, 0.1, 0.0), "coupling beta"),
    (lambda: transition_scan(1.0, step=-0.01), "step must be finite and > 0"),
    (lambda: mgf_log(12.5, 1.0, 0.1),
     "particle number n must be an integer, got 12.5"),
    (lambda: mgf_table(math.inf, 1.0, [0.1]),
     "particle number n must be an integer, got inf"),
    (lambda: extract_subleading(1.0, 0.1, [10, 20, math.nan]),
     "size n must be an integer, got nan"),
    (lambda: gumbel_scaling(200.5), "gumbel_scaling: n must be an integer"),
])
def test_callers_name_the_argument(call, word):
    with pytest.raises(DomainError, match=re.escape(word)):
        call()
