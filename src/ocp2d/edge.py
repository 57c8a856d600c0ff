"""Large-deviation asymptotics for the farthest particle of the trapped gas.

The spectral radius concentrates at 1 (the edge of the unit disk).  Pulling
it inward costs energy of order N^2 because the whole gas must compress
behind a hard wall; pushing it outward costs order N because a single
particle escapes the bulk.  This module provides the two rate functions,
the sub-leading corrections to the pulled (left) branch, the compressed
equilibrium measure behind the wall, and the scaling constants of the
typical Gumbel fluctuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import Piece, RadialMeasure, RingMass
from .errors import DomainError, check_positive, check_size

__all__ = [
    "left_rate",
    "right_rate",
    "lognn_correction",
    "invn_correction",
    "left_tail_prediction",
    "ConstrainedEdgeMeasure",
    "constrained_measure",
    "GumbelScaling",
    "gumbel_scaling",
    "gumbel_log_factor",
    "MIN_GUMBEL_N",
]


def left_rate(x: float) -> float:
    """Rate (at speed N^2) of pulling the farthest particle to x < 1.

    left_rate(x) = -(ln x^4 + x^4 - 4 x^2 + 3)/8; identically zero for
    x >= 1.  Vanishes cubically at the edge: (2/3)(1-x)^3 as x -> 1^-.
    """
    x = check_positive(x, "left_rate: x")
    if x >= 1.0:
        return 0.0
    return -(4.0 * math.log(x) + x ** 4 - 4.0 * x * x + 3.0) / 8.0


def right_rate(x: float) -> float:
    """Rate (at speed N) of pushing the farthest particle to x > 1.

    right_rate(x) = -ln x + x^2/2 - 1/2, the single-particle energy cost
    of sitting at radius x against the mean field of the unit disk.
    """
    x = check_positive(x, "right_rate: x")
    if x < 1.0:
        raise DomainError(f"right_rate requires x >= 1, got {x}")
    return -math.log(x) + 0.5 * x * x - 0.5


def lognn_correction(x: float) -> float:
    """Coefficient of (ln n)/n in the pulled-branch expansion: (1-x^2)/4."""
    x = check_positive(x, "lognn_correction: x")
    if x > 1.0:
        raise DomainError(f"lognn_correction requires 0 < x <= 1, got {x}")
    return (1.0 - x * x) / 4.0


def invn_correction(x: float) -> float:
    """Coefficient of 1/n in the pulled-branch expansion.

    ((1-x^2)/2) (ln(1-x^2) - ln x + ln sqrt(2 pi) - 1), for 0 < x < 1.
    """
    x = check_positive(x, "invn_correction: x")
    if x >= 1.0:
        raise DomainError(f"invn_correction requires 0 < x < 1, got {x}")
    w = 1.0 - x * x
    return 0.5 * w * (math.log(w) - math.log(x) + 0.5 * math.log(2.0 * math.pi) - 1.0)


def left_tail_prediction(x: float, n: int) -> float:
    """Pulled-branch prediction for -(1/(2 n^2)) ln Pr[farthest <= x]:
    rate plus the (ln n)/n and 1/n corrections."""
    n = check_size(n, "left_tail_prediction: n", 2)
    x = check_positive(x, "left_tail_prediction: x")
    if x >= 1.0:
        raise DomainError(f"left_tail_prediction requires 0 < x < 1, got {x}")
    return left_rate(x) + math.log(n) / n * lognn_correction(x) \
        + invn_correction(x) / n


@dataclass(frozen=True)
class ConstrainedEdgeMeasure:
    """Equilibrium measure of the gas compressed behind a hard wall at
    ``wall_radius``: the uniform bulk (planar density 1/pi) on the disk of
    radius min(wall, 1) plus the excess mass condensed on the wall circle."""

    wall_radius: float

    @property
    def bulk_radius(self) -> float:
        return min(self.wall_radius, 1.0)

    @property
    def bulk_density(self) -> float:
        return 1.0 / math.pi

    @property
    def boundary_mass(self) -> float:
        return max(0.0, 1.0 - self.wall_radius ** 2)

    @property
    def total_mass(self) -> float:
        return self.bulk_radius ** 2 + self.boundary_mass

    def as_radial_measure(self) -> RadialMeasure:
        bulk = Piece(0.0, self.bulk_radius, lambda r: 2.0 * r, lambda r: r * r)
        rings: tuple[RingMass, ...] = ()
        if self.boundary_mass > 0.0:
            rings = (RingMass(self.wall_radius, self.boundary_mass),)
        return RadialMeasure(pieces=(bulk,), rings=rings)


def constrained_measure(x: float) -> ConstrainedEdgeMeasure:
    """Measure of the gas conditioned on all particles having radius <= x.
    For x >= 1 the constraint is inactive and the circular law returns."""
    x = check_positive(x, "constrained_measure: x")
    return ConstrainedEdgeMeasure(x)


# Smallest n for which the log factor below is positive (checked directly:
# it is -1.56e-4 at n = 163 and +3.56e-3 at n = 164).
MIN_GUMBEL_N = 164


def gumbel_log_factor(n: int) -> float:
    """Auxiliary log factor ln n - 2 ln ln n - ln 2 pi of the fluctuation
    scaling.  Defined for n >= 2; positive only from n = 164 on."""
    n = check_size(n, "gumbel_log_factor: n", 2)
    return math.log(n) - 2.0 * math.log(math.log(n)) - math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GumbelScaling:
    """Affine standardization of the farthest-particle fluctuations:
    scale * (value - center) converges in law to the standard Gumbel."""

    n: int
    log_factor: float
    scale: float
    center: float

    def standardize(self, values: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(values, dtype=float) - self.center)


def gumbel_scaling(n: int) -> GumbelScaling:
    """Scaling constants scale = sqrt(4 n g), center = 1 + sqrt(g/(4n)) with
    g the log factor; requires g > 0, i.e. n >= 164."""
    n = check_size(n, "gumbel_scaling: n", 2)
    g = gumbel_log_factor(n)
    if g <= 0.0:
        raise DomainError(
            f"gumbel scaling undefined at n={n}: log factor {g:.6f} <= 0; "
            f"need n >= {MIN_GUMBEL_N}"
        )
    return GumbelScaling(
        n=n,
        log_factor=g,
        scale=math.sqrt(4.0 * n * g),
        center=1.0 + math.sqrt(g / (4.0 * n)),
    )
