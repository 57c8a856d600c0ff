"""Tilted equilibrium measures for radial moments of the trapped 2D Coulomb gas.

Exponentially tilting the gas by ``exp(-beta N^2 s <r^p>)`` deforms the
uniform disk into a rotationally invariant measure supported on an annulus
or a disk, depending on the sign of the tilt and the moment exponent.  This
module solves for that measure, evaluates its energy and entropy excess over
the untilted disk, classifies the phase transition in the tilt parameter,
and provides generic mean-field energy / entropy functionals for arbitrary
radial measures (used elsewhere as an independent check on closed forms).

Conventions: a radial measure has total mass one and is described by the
density of its radial marginal, so the uniform unit disk has density 2r on
[0, 1].  The confining potential is V(r) = r^2/2 plus an optional tilt
s * r^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    SingularityError,
    StabilityError,
    check_positive,
    check_size,
)
from .quadrature import integrate

__all__ = [
    "StabilityDomain",
    "stability_domain",
    "EquilibriumMeasure",
    "support_radii",
    "equilibrium_measure",
    "typical_value",
    "energy_excess",
    "entropy_excess",
    "closed_form_energy",
    "closed_form_entropy",
    "TransitionClass",
    "transition_order",
    "leading_cumulant",
    "Piece",
    "RingMass",
    "RadialMeasure",
    "TiltedPotential",
    "mean_field_energy",
    "entropy_functional",
]

# Numerical guard at the p = 2 stability edge.  It guards the general closed
# forms, not R = (1 + 2s)^{-1/2}, which is exact for a tilt within about an
# ulp of s: at p = 2 they cancel terms of size R^4 = (1 + 2s)^{-2}, so against
# 1/4 log1p(2s) energy_excess is off by 2.3e-12 at s = -0.499, 2.2e-10 at
# -0.4999 and 1.2e-6 at -0.499999, which the guard lets through; typical_value
# by 6.3e-13 at -0.4999 and 2.7e-11 at -0.499999.
_P2_GUARD = -0.5 + 1e-6
_LOG_MAX = float(np.log(np.finfo(float).max))  # v = ln R^2 below it: R^2 is a double
_TINY = float(np.finfo(float).tiny)  # R at or above it is normal: 2 ln tiny <= v
# Largest estimated relative error that the rounding of an annulus's width
# may put into typical_value, energy_excess or entropy_excess (see
# _resolved_support).  Over a sweep of annuli at p from 0.05 to 1.9999 against
# 60-digit mpmath, each returned value is within 5.3 times its estimate.
_WIDTH_TOLERANCE = 1e-9
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class StabilityDomain:
    """Admissible tilt range for a given moment exponent.

    The upper end is always +inf (open).  ``lower_open`` says whether the
    lower endpoint itself is excluded.
    """

    p: float
    lower: float
    lower_open: bool

    def contains(self, s: float) -> bool:
        s = float(s)
        if not math.isfinite(s):
            return False
        if self.lower_open:
            return s > self.lower
        return s >= self.lower

    def require(self, s: float) -> float:
        """Validate ``s``, applying the numerical guard at the p = 2 edge."""
        s = float(s)
        if not self.contains(s):
            raise StabilityError(
                f"tilt s={s} outside the stability domain for p={self.p}: "
                f"{'(' if self.lower_open else '['}{self.lower}, inf)"
            )
        if self.p == 2.0 and s < _P2_GUARD:
            raise StabilityError(
                f"tilt s={s} too close to the p=2 stability edge -1/2; "
                f"values below {_P2_GUARD} are rejected"
            )
        return s


def stability_domain(p: float) -> StabilityDomain:
    """Tilt values for which the tilted partition function exists."""
    p = check_positive(p, "moment exponent p")
    if p < 2.0:
        return StabilityDomain(p, -math.inf, True)
    if p == 2.0:
        return StabilityDomain(p, -0.5, True)
    return StabilityDomain(p, 0.0, False)


def _log_outer_square(p: float, s: float) -> float:
    """v = ln R^2 at a validated tilt, R the outer radius: the root beyond
    ln r_in^2 of g(v) = e^v + s p e^{pv/2} - 1, from R^2 + s p R^p = 1.

    Where g > 0, g is increasing and convex (on an annulus e^v > |s p|
    e^{pv/2} there, and p/2 < 1), so Newton from the first v = start + 0, 1,
    2, 4, ... with g >= 0 descends onto the root without overshooting, until
    v stops moving.  s p is carried as coef e^shift, (s p, 0) or, where s p
    overflows, (s, ln p).  The start is max(0, ln r_in^2) on an annulus; on
    a disk -(2/p) ln(s p) where s p > 1, at which g = e^v > 0, so a huge tilt
    takes a few steps; else 0, where g >= 0.  A v at or above ln max (R^2
    overflows) is a NumericalError."""
    coef, shift, q = s * p, 0.0, 0.5 * p
    if coef == math.inf:
        coef, shift = s, math.log(p)
    if p < 2.0 and coef < 0.0:
        start = max(0.0, 2.0 * math.log(-coef) / (2.0 - p))
    else:
        start = -2.0 * (math.log(coef) + shift) / p if coef > 1.0 else 0.0

    def newton(v: float) -> tuple[float, float]:
        e, t = math.exp(v), coef * math.exp(q * v + shift)
        return e + t - 1.0, (e + t - 1.0) / (e + q * t)

    v, offset = min(start, _LOG_MAX), 1.0
    g, step = newton(v)
    while not g >= 0.0 and v < _LOG_MAX:   # beyond _LOG_MAX, e^v overflows
        v, offset = min(start + offset, _LOG_MAX), 2.0 * offset
        g, step = newton(v)
    while g > 0.0 and v - step != v:
        v -= step
        g, step = newton(v)
    if not v < _LOG_MAX:
        raise NumericalError(f"outer radius leaves the doubles at p={p}, s={s}")
    return v


def support_radii(p: float, s: float) -> tuple[float, float]:
    """Inner and outer support radii of the tilted equilibrium measure.

    An annulus (p < 2, s < 0) has r_in = (-s p)^{1/(2-p)}, a disk 0.  R is
    e^{v/2}, v from `_log_outer_square`, after one Newton step in r that
    removes the rounding of e^{v/2}; an R below the normal doubles is a
    NumericalError too."""
    p = check_positive(p, "moment exponent p")
    s = stability_domain(p).require(s)
    v = _log_outer_square(p, s)
    if v < 2.0 * math.log(_TINY):
        raise NumericalError(f"outer radius leaves the doubles at p={p}, s={s}")
    r, coef = math.exp(0.5 * v), s * p
    t = coef * r ** p if coef != math.inf else s * r ** p * p
    r -= (r * r + t - 1.0) / (2.0 * r + p * t / r)
    r_in = (-coef) ** (1.0 / (2.0 - p)) if p < 2.0 and coef < 0.0 else 0.0
    return r_in, max(r, r_in)


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Minimizer of the tilted mean-field functional: radial density
    2r + s p^2 r^{p-1} on [inner_radius, outer_radius], zero outside."""

    p: float
    s: float
    inner_radius: float
    outer_radius: float

    def density(self, r: float) -> float:
        r = float(r)
        if r < self.inner_radius or r > self.outer_radius:
            return 0.0
        return 2.0 * r + self.s * self.p * self.p * r ** (self.p - 1.0)

    def cumulative(self, r: float) -> float:
        """Mass on [inner_radius, min(r, outer_radius)]."""
        r = min(max(float(r), self.inner_radius), self.outer_radius)
        ant = lambda t: t * t + self.s * self.p * t ** self.p
        return ant(r) - ant(self.inner_radius)

    @property
    def is_annular(self) -> bool:
        return self.inner_radius > 0.0

    def as_radial_measure(self) -> "RadialMeasure":
        return RadialMeasure(
            pieces=(Piece(self.inner_radius, self.outer_radius,
                          self.density, self.cumulative),),
        )


def equilibrium_measure(p: float, s: float) -> EquilibriumMeasure:
    """The tilted equilibrium measure at exponent p and tilt s, supported
    on [inner_radius, outer_radius] = support_radii(p, s)."""
    r_in, r_out = support_radii(p, s)
    return EquilibriumMeasure(float(p), float(s), r_in, r_out)


def _resolved_support(what: str, p: float, s: float) -> tuple[float, float, float, float]:
    """Validated (p, s, r_in, R), or a NumericalError naming p and s where
    rounding leaves the width of the annulus [r_in, R] unresolved for `what`.

    The Newton residual of R, about eps R / (2 - p), and the rounded
    exponent 1/(2 - p) of r_in, about eps r_in |ln r_in|, move R - r_in by
    a relative eps R (1/(2 - p) + |ln r_in|) / (R - r_in).  A value's
    relative error exceeds that by a gain: 1 for the typical value,
    1/(2 - p) for the energy excess, whose closed form cancels more near
    p = 2, and 1/p for the entropy excess, which is about ln(1 - p/2) on a
    thin annulus.  A disk passes.  A passed annulus has R < 1e4, as R^p
    (R^{2-p} - r_in^{2-p}) = 1 bounds R (R - r_in): no power R^k, k <= 4, overflows.
    """
    p = check_positive(p, "moment exponent p")
    r_in, radius = support_radii(p, s)
    s = float(s)
    if r_in > 0.0:
        gain = {"typical value": 1.0, "energy excess": 1.0 / (2.0 - p),
                "entropy excess": 1.0 / p}[what]
        if not (_UNIT_ROUNDOFF * radius * (1.0 / (2.0 - p) + abs(math.log(r_in))) * gain
                <= _WIDTH_TOLERANCE * (radius - r_in)):
            raise NumericalError(f"{what} needs a wider annulus than rounding "
                                 f"resolves at p={p}, s={s}")
    return p, s, r_in, radius


def typical_value(p: float, s: float) -> float:
    """Value of the radial p-moment under the tilted equilibrium measure."""
    p, s, r, radius = _resolved_support("typical value", p, s)
    value = (2.0 / (2.0 + p)) * (radius ** (p + 2.0) - r ** (p + 2.0)) \
        + (s * p / 2.0) * (radius ** (2.0 * p) - r ** (2.0 * p))
    if not math.isfinite(value):
        raise NumericalError(f"typical value leaves the doubles at p={p}, s={s}")
    return value


def energy_excess(p: float, s: float) -> float:
    """Tilted minus untilted mean-field energy, E_p(s).

    Evaluated from the support radii in closed form; vanishes at s = 0 and
    grows linearly with slope ``typical_value`` (it is the Legendre-type
    integral of the typical value in the tilt).  Where s s p overflows
    (from s of about 1e154) it leaves the doubles: a NumericalError.
    """
    p, s, r, radius = _resolved_support("energy excess", p, s)
    value = (radius ** 4 - r ** 4) / 8.0 \
        + (4.0 * s + s * p * p) / (4.0 * (p + 2.0)) * (radius ** (p + 2.0) - r ** (p + 2.0)) \
        + (s * s * p / 4.0) * (radius ** (2.0 * p) - r ** (2.0 * p)) \
        + 0.5 * (radius ** 2 / 2.0 + s * radius ** p - math.log(radius) - 0.75)
    if not math.isfinite(value):
        raise NumericalError(f"energy excess leaves the doubles at p={p}, s={s}")
    return value


def _checked(value: float, err: float, what: str, tol: float = 1e-10) -> float:
    """value, once its estimate err is within tol; else a NumericalError."""
    if not (math.isfinite(value) and err <= tol):
        raise NumericalError(f"quadrature for {what} did not converge: "
                             f"estimated error {err:.3e}")
    return float(value)


def _quad_checked(f: Callable[[float], float], lo: float, hi: float,
                  what: str, tol: float = 1e-10) -> float:
    """int_lo^hi f for a scalar callable, node by node, checked against its estimate."""
    value, err = integrate(lambda x: np.fromiter(map(f, x.tolist()), float, x.size),
                           lo, hi, tol)
    return _checked(value, err, what, tol)


_ENTROPY_BLOCK = 32   # rows per quadrature batch, as exact._MGF_BLOCK


def _entropy_grid(p: float, s_grid: Sequence[float]) -> list[float]:
    """entropy_excess at every tilt of s_grid, in grid order.

    Every tilt is checked first (`_resolved_support`, and s p^2 must be a
    double).  The nonzero tilts of each branch, the disk at p < 2 in v and
    the rest in r, are then the rows of quadrature batches of
    _ENTROPY_BLOCK rows, each row on its own bounds.  Each row stops on its own, so a value is the same bits
    whatever tilts share its batch.
    """
    supports = [_resolved_support("entropy excess", p, s) for s in s_grid]
    found = [0.0] * len(supports)
    branches: dict[bool, list[int]] = {True: [], False: []}   # keyed by "in v"
    for i, (p, s, r_in, _) in enumerate(supports):
        if not math.isfinite(s * p * p):
            raise NumericalError(f"s p^2 leaves the doubles in the entropy excess "
                                 f"at p={p}, s={s}")
        if s != 0.0:
            branches[p < 2.0 and r_in == 0.0].append(i)
    for in_v, rows in branches.items():
        for b in range(0, len(rows), _ENTROPY_BLOCK):
            block = rows[b:b + _ENTROPY_BLOCK]
            tilts, r_in, radius = zip(*(supports[i][1:] for i in block))
            sp2 = np.array(tilts)[:, None] * p * p
            if in_v:
                lo, hi = [0.0] * len(block), [r ** p for r in radius]
                k = (2.0 - p) / p

                def values(v: np.ndarray) -> np.ndarray:
                    a = 2.0 * v ** k + sp2
                    return a / p * (np.log(a) - k * np.log(v))
            else:
                lo, hi = r_in, radius

                def values(r: np.ndarray) -> np.ndarray:
                    rho = 2.0 * r + sp2 * r ** (p - 1.0)
                    return rho * np.log(rho / r)
            with np.errstate(all="ignore"):   # _checked refuses what went wrong
                value, err = integrate(values, np.array(lo)[:, None],
                                       np.array(hi)[:, None], 1e-10)
            for i, s, v, e in zip(block, tilts, value.tolist(), err.tolist()):
                found[i] = _checked(v, e, f"entropy excess at p={p}, s={s}") - math.log(2.0)
    return found


def entropy_excess(p: float, s: float) -> float:
    """Tilted entropy integral S_p(s) = int rho ln(rho/r) dr - ln 2.

    Computed by the double-exponential rule on whole node arrays.  On a
    disk with p < 2 the integral is taken in v = r^p, where
    rho dr = (2 v^k + s p^2)/p dv with k = (2 - p)/p and the only singularity
    left is ln v at 0 (in r it is r^{p-1} ln r).  For p >= 2 the r-integrand
    is bounded at 0 while v^k with k < 0 is not, and an annulus has no
    singular endpoint, so both stay in r.
    Vanishes at s = 0, equals ln(1+2s) at p = 2.  An annulus too thin for
    rounding to resolve its width is a NumericalError (`_resolved_support`),
    and so is an integral the rule does not resolve, with no numpy warning
    (s p^2 underflows at p below about 1e-200), and so is an s p^2 that
    overflows (`entropy_excess(1e154, 1e10)`).  This is _entropy_grid at
    one tilt; the entropy columns of mgf_table and `verify mgf` take a
    whole grid in one batch per branch.
    """
    return _entropy_grid(p, [s])[0]


def _elementary(what: str, p: float, s: float, quadratic: Callable[[float], float],
                linear: Callable[[float, float], float]) -> float:
    """quadratic(s) at p = 2; at p = 1 linear(s, R), R the root of R^2 + s R = 1
    free of cancellation and overflow.  A value off the doubles is a NumericalError."""
    p = check_positive(p, "moment exponent p")
    s = stability_domain(p).require(s)
    if p == 2.0:
        return quadratic(s)
    if p != 1.0:
        raise DomainError(f"no elementary {what} form at p={p}; use {what}_excess")
    h = math.hypot(0.5 * s, 1.0)
    r = 1.0 / (h + 0.5 * s) if s > 0.0 else h - 0.5 * s
    value = linear(s, r) if s != 0.0 else 0.0   # both excesses vanish at s = 0
    if not math.isfinite(value):
        raise NumericalError(f"closed-form {what} leaves the doubles at p={p}, s={s}")
    return value


def closed_form_energy(p: float, s: float) -> float:
    """Elementary closed forms of the energy excess at p = 1 and p = 2.

    At p = 1 no terms cancel; E leaves the doubles from s of about -2e154."""
    return _elementary("energy", p, s, lambda s: 0.25 * math.log1p(2.0 * s),
                       lambda s, r: 0.5 * math.asinh(0.5 * s) + (s / 24.0) * r
                       * (9.0 + r * r if s >= 0.0 else 12.0 - 3.0 / r / r + r ** -4))


def closed_form_entropy(p: float, s: float) -> float:
    """Elementary closed forms of the entropy excess at p = 1 and p = 2.

    At p = 1 no terms cancel; s^2/4 and 2/s leave the doubles at |s| above
    about 2.7e154 and below the smallest normal double."""
    def linear(s: float, r: float) -> float:
        if s > 0.0:
            return math.log1p(-0.5 * s * r) + 2.0 * math.asinh(0.5 * s) + 0.5 * s * r \
                + (0.25 * s) * s * math.log1p(2.0 * r / s)
        x = -2.0 / (s * r)
        return math.log1p(0.5 * s / r) + (0.25 * s) * s * (math.log1p(x) - x)
    return _elementary("entropy", p, s, lambda s: math.log1p(2.0 * s), linear)


@dataclass(frozen=True)
class TransitionClass:
    """Order of the phase transition of the energy excess at s = 0.

    ``order`` is the lowest derivative order that jumps across zero tilt,
    or None when the excess is analytic there.  ``one_sided_domain`` marks
    exponents whose stability domain touches zero only from above, where
    analyticity is meaningful on one side only.
    """

    p: float
    order: int | None
    one_sided_domain: bool = False

    @property
    def analytic(self) -> bool:
        return self.order is None


def transition_order(p: float) -> TransitionClass:
    """Classify the zero-tilt phase transition for exponent ``p``.

    For p < 2 the disk-to-annulus change of support topology makes the
    derivative of order ceil(4/(2-p)) jump (exact integer ratios included);
    at p >= 2 the support stays a disk and the excess is analytic.
    """
    p = check_positive(p, "moment exponent p")
    if p >= 2.0:
        return TransitionClass(p, None, one_sided_domain=p > 2.0)
    ratio = 4.0 / (2.0 - p)
    nearest = round(ratio)
    order = nearest if abs(ratio - nearest) < 1e-9 else math.ceil(ratio)
    return TransitionClass(p, int(order))


def leading_cumulant(p: float, beta: float, n: int, order: int) -> float:
    """First three cumulants of the radial p-moment at coupling ``beta``.

    kappa_1 = 2/(2+p), kappa_2 = p/(2 beta n^2), kappa_3 = p^3/(2 beta^2 n^4);
    the latter two follow from the derivatives of the energy excess at zero
    tilt, E''(0) = -p/2 and E'''(0) = p^3/2.  Orders at or above the phase
    transition do not exist for p < 2 and raise, and so does a kappa_2 or
    kappa_3 whose value or denominator is not a normal double.
    """
    p = check_positive(p, "moment exponent p")
    beta = check_positive(beta, "coupling beta")
    n = check_size(n, "particle number n")
    if order not in (1, 2, 3):
        raise DomainError(f"cumulant order must be 1, 2 or 3, got {order}")
    trans = transition_order(p)
    if not trans.analytic and order >= trans.order:
        raise SingularityError(
            f"cumulant of order {order} does not exist for p={p}: the energy "
            f"excess has a transition of order {trans.order}"
        )
    if order == 1:
        return 2.0 / (2.0 + p)
    try:
        top = p if order == 2 else p ** 3
        bottom = 2.0 * beta * n * n if order == 2 else 2.0 * beta * beta * n ** 4
    except OverflowError:   # p^3, or an n beyond the doubles
        top = bottom = math.inf
    if not (_TINY <= bottom < math.inf and _TINY <= top / bottom < math.inf):
        raise NumericalError(f"cumulant of order {order} leaves the doubles at "
                             f"p={p}, beta={beta}, n={n}")
    return top / bottom


# --- generic radial measures and mean-field functionals ---------------------


@dataclass(frozen=True)
class Piece:
    """One absolutely continuous piece of a radial measure: density f on
    [lo, hi], with an optional analytic cumulative (mass of this piece on
    [lo, r]).  Without it, masses are integrals of f; hi may be inf.

    The density must be smooth inside (lo, hi): across a kink or jump the
    double-exponential rule still fails its estimate at its finest step,
    h = 1/128, and raises NumericalError, so split such a density there.
    Algebraic or log singularities at lo and hi are fine."""

    lo: float
    hi: float
    density: Callable[[float], float]
    cumulative: Callable[[float], float] | None = None


@dataclass(frozen=True)
class RingMass:
    """A singular ring: point mass (in radius) at ``radius``."""

    radius: float
    mass: float


@dataclass(frozen=True)
class TiltedPotential:
    """Confinement V(r) = r^2/2 + s r^p; s = 0 is the plain harmonic trap."""

    p: float = 2.0
    s: float = 0.0

    def __call__(self, r: float) -> float:
        if self.s == 0.0:
            return 0.5 * r * r
        return 0.5 * r * r + self.s * r ** self.p


HARMONIC = TiltedPotential()


def _piece_mass(piece: Piece, a: float, b: float) -> float:
    """Mass of the piece on [a, b]."""
    a, b = max(a, piece.lo), min(b, piece.hi)
    if a >= b:
        return 0.0
    if piece.cumulative is None:
        return _quad_checked(piece.density, a, b, "piece mass", tol=1e-9)
    return piece.cumulative(b) - (piece.cumulative(a) if a > piece.lo else 0.0)


@dataclass(frozen=True)
class RadialMeasure:
    """A rotationally invariant probability measure given by its radial
    marginal: continuous pieces plus optional singular rings."""

    pieces: tuple[Piece, ...]
    rings: tuple[RingMass, ...] = ()

    @classmethod
    def circular_law(cls) -> "RadialMeasure":
        return cls(pieces=(Piece(0.0, 1.0, lambda r: 2.0 * r, lambda r: r * r),))

    def _continuous_mass(self, a: float, b: float) -> float:
        return math.fsum([_piece_mass(piece, a, b) for piece in self.pieces])

    def continuous_mass_below(self, r: float) -> float:
        """Mass of the pieces on [0, r]: beyond r = 1 the total less the
        mass above r, as a finite rule on [lo, r] far out in a tail fails."""
        if r <= 1.0:
            return self._continuous_mass(0.0, r)
        return self._continuous_mass(0.0, math.inf) \
            - self._continuous_mass(r, math.inf)

    def total_mass(self) -> float:
        return self.continuous_mass_below(math.inf) \
            + math.fsum(ring.mass for ring in self.rings)

    def _validate(self) -> None:
        for piece in self.pieces:
            if not (0.0 <= piece.lo < piece.hi):
                raise DomainError(f"invalid piece bounds [{piece.lo}, {piece.hi}]")
        for ring in self.rings:
            if not ring.radius > 0.0:
                raise DomainError(f"ring radius must be positive, got {ring.radius}")
            if not ring.mass >= 0.0:
                raise DomainError(f"ring mass must be nonnegative, got {ring.mass}")
        mass = self.total_mass()
        if not abs(mass - 1.0) <= 1e-10:
            raise DomainError(f"radial measure mass is {mass!r}, expected 1")


def mean_field_energy(measure: RadialMeasure,
                      potential: TiltedPotential = HARMONIC) -> float:
    """Mean-field energy -1/2 iint ln max(r, r') dmu dmu' + int V dmu.

    The angular average of the planar log kernel between circles of radii
    r and r' is ln max(r, r') (Newton's theorem; Saff & Totik 1997).  With
    M(t) = mu([0, t]), rings included, and U = 1 - M the mass above t,
    ln m = int_1^inf 1[m > t] dt/t - int_0^1 1[m <= t] dt/t for m = max(r, r')
    and Pr[max <= t] = M(t)^2 turn the pair term into one integral of the
    mass profile:

        1/2 int_0^1 M(t)^2/t dt - 1/2 int_1^inf U(t) (2 - U(t))/t dt.

    The integral splits at 1, at every piece end and at every ring radius,
    so a ring is a jump of M between two intervals and adds a constant to
    each: M counts the rings at or below an interval's left end, U those
    at or above its right end.  Above 1 only the mass beyond t enters, an
    exp-sinh tail on a half-infinite piece.
    Absolute accuracy ~1e-10.  The uniform unit disk gives 3/8.
    """
    measure._validate()
    pieces, rings = measure.pieces, measure.rings
    cuts = sorted({0.0, 1.0, *(ring.radius for ring in rings),
                   *(end for piece in pieces for end in (piece.lo, piece.hi))})
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        if b <= 1.0:
            held = math.fsum([ring.mass for ring in rings if ring.radius <= a])

            def pair(t: float) -> float:
                # a node that underflows to t = 0 takes the limit 0: no ring
                # lies at the origin, so M(t) vanishes there
                m = held + measure._continuous_mass(0.0, t)
                return m * m / t if t > 0.0 else 0.0
        else:
            held = math.fsum([ring.mass for ring in rings if ring.radius >= b])

            def pair(t: float) -> float:
                u = held + measure._continuous_mass(t, math.inf)
                return -u * (2.0 - u) / t
        parts.append(0.5 * _quad_checked(pair, a, b, "pair energy"))
    parts.extend(_quad_checked(lambda r: potential(r) * piece.density(r),
                               piece.lo, piece.hi, "confinement energy")
                 for piece in pieces)
    parts.extend(ring.mass * potential(ring.radius) for ring in rings)
    return math.fsum(parts)


def entropy_functional(measure: RadialMeasure) -> float:
    """Differential entropy -int dmu ln(dmu/dA) of the planar measure.

    The planar density along radius r is f(r)/(2 pi r).  Any singular ring
    with positive mass makes the entropy diverge; that is reported as -inf
    rather than an error so callers can flag it.  The uniform unit disk
    gives ln pi.
    """
    measure._validate()
    if any(ring.mass > 0.0 for ring in measure.rings):
        return -math.inf

    def piece_term(piece: Piece) -> float:
        def integrand(r: float) -> float:
            f = piece.density(r)
            if f <= 0.0:
                return 0.0
            return f * math.log(f / (2.0 * math.pi * r))
        return _quad_checked(integrand, piece.lo, piece.hi, "entropy functional")

    return -math.fsum(piece_term(p) for p in measure.pieces)
