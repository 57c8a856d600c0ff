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

from scipy.integrate import quad

from .errors import (
    DomainError,
    NumericalError,
    SingularityError,
    StabilityError,
    check_positive,
)

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

# Hard numerical guard at the p = 2 stability boundary: the support radius
# grows like (1 + 2s)^{-1/2} and overflows any tolerance just above -1/2.
_P2_GUARD = -0.5 + 1e-6

_DISK_ENERGY = 0.375          # mean-field energy of the uniform unit disk
_DISK_ENTROPY = math.log(math.pi)


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


def _inner_radius(p: float, s: float) -> float:
    if p < 2.0 and s < 0.0:
        return (-s * p) ** (1.0 / (2.0 - p))
    return 0.0


def support_radii(p: float, s: float) -> tuple[float, float]:
    """Inner and outer support radii of the tilted equilibrium measure.

    The outer radius solves R^2 + s p R^p = 1 on the branch beyond the
    inner radius; it is found by bracketed bisection with a Newton polish.
    """
    p = check_positive(p, "moment exponent p")
    s = stability_domain(p).require(s)
    if s == 0.0:
        return 0.0, 1.0
    r_in = _inner_radius(p, s)

    def g(r: float) -> float:
        return r * r + s * p * r ** p - 1.0

    def dg(r: float) -> float:
        return 2.0 * r + s * p * p * r ** (p - 1.0)

    lo = max(r_in, 1e-12)
    hi = 1.0 if s > 0.0 else max(1.0, lo)
    if s < 0.0:
        grown = 0
        while g(hi) <= 0.0:
            hi *= 2.0
            grown += 1
            if grown > 200:
                raise NumericalError(
                    f"outer radius bracket failed to expand: p={p}, s={s}"
                )
    if g(lo) > 0.0:
        raise NumericalError(f"outer radius bracket invalid at p={p}, s={s}")

    while hi - lo > 1e-8 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(50):
        step = g(r) / dg(r)
        nxt = r - step
        if not (lo <= nxt <= hi):
            nxt = 0.5 * (lo + hi)
        if g(nxt) <= 0.0:
            lo = nxt
        else:
            hi = nxt
        r = nxt
        if abs(step) <= 1e-14 * max(1.0, r):
            break
    else:
        raise NumericalError(f"outer radius Newton polish stalled: p={p}, s={s}")
    return r_in, r


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
    r_in, r_out = support_radii(p, s)
    return EquilibriumMeasure(float(p), float(s), r_in, r_out)


def typical_value(p: float, s: float) -> float:
    """Value of the radial p-moment under the tilted equilibrium measure."""
    p = check_positive(p, "moment exponent p")
    r, radius = support_radii(p, s)
    s = float(s)
    return (2.0 / (2.0 + p)) * (radius ** (p + 2.0) - r ** (p + 2.0)) \
        + (s * p / 2.0) * (radius ** (2.0 * p) - r ** (2.0 * p))


def energy_excess(p: float, s: float) -> float:
    """Tilted minus untilted mean-field energy, E_p(s).

    Evaluated from the support radii in closed form; vanishes at s = 0 and
    grows linearly with slope ``typical_value`` (it is the Legendre-type
    integral of the typical value in the tilt).
    """
    p = check_positive(p, "moment exponent p")
    r, radius = support_radii(p, s)
    s = float(s)
    return (radius ** 4 - r ** 4) / 8.0 \
        + (4.0 * s + s * p * p) / (4.0 * (p + 2.0)) * (radius ** (p + 2.0) - r ** (p + 2.0)) \
        + (s * s * p / 4.0) * (radius ** (2.0 * p) - r ** (2.0 * p)) \
        + 0.5 * (radius ** 2 / 2.0 + s * radius ** p - math.log(radius) - 0.75)


def _quad_checked(f: Callable[[float], float], lo: float, hi: float,
                  what: str, tol: float = 1e-10) -> float:
    value, err = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > tol:
        raise NumericalError(
            f"quadrature for {what} did not converge: estimated error {err:.3e}"
        )
    return value


def entropy_excess(p: float, s: float) -> float:
    """Tilted entropy integral S_p(s) = int rho ln(rho/r) dr - ln 2.

    Computed by adaptive quadrature over the support; the integrand has at
    worst an integrable algebraic-log endpoint singularity.  Vanishes at
    s = 0, equals ln(1+2s) at p = 2.
    """
    measure = equilibrium_measure(p, s)
    if s == 0.0:
        return 0.0

    def integrand(r: float) -> float:
        rho = measure.density(r)
        return rho * math.log(rho / r)

    value = _quad_checked(integrand, measure.inner_radius, measure.outer_radius,
                          f"entropy excess at p={p}, s={s}")
    return value - math.log(2.0)


def closed_form_energy(p: float, s: float) -> float:
    """Elementary closed forms of the energy excess at p = 1 and p = 2."""
    p = check_positive(p, "moment exponent p")
    s = stability_domain(p).require(s)
    if p == 2.0:
        return 0.25 * math.log1p(2.0 * s)
    if p == 1.0:
        return 0.5 * math.asinh(s / 2.0) - s * s / 4.0 \
            + (s / 48.0) * ((s * s + 10.0) * math.sqrt(s * s + 4.0) - abs(s) ** 3)
    raise DomainError(f"no elementary energy form at p={p}; use energy_excess")


def closed_form_entropy(p: float, s: float) -> float:
    """Elementary closed forms of the entropy excess at p = 1 and p = 2.

    At p = 1 the coefficient of log(s^2 + 4) is +(s^2 + 4)/8; the quadrature
    route (`entropy_excess`) pins this sign, and the two routes are held to
    1e-10 agreement in the test suite.
    """
    p = check_positive(p, "moment exponent p")
    s = stability_domain(p).require(s)
    if p == 2.0:
        return math.log1p(2.0 * s)
    if p == 1.0:
        if s == 0.0:
            return 0.0
        return math.asinh(s / 2.0) \
            + (s * s + 4.0) / 8.0 * math.log(s * s + 4.0) \
            + (s / 4.0) * (math.sqrt(s * s + 4.0) - s * math.log(abs(s)) - abs(s)) \
            - math.log(2.0)
    raise DomainError(f"no elementary entropy form at p={p}; use entropy_excess")


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
    transition do not exist for p < 2 and raise.
    """
    p = check_positive(p, "moment exponent p")
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"coupling must satisfy beta > 0, got {beta}")
    n = int(n)
    if n < 1:
        raise DomainError(f"particle number must satisfy n >= 1, got {n}")
    if order not in (1, 2, 3):
        raise DomainError(f"cumulant order must be 1, 2 or 3, got {order}")
    if p < 2.0 and order >= 4.0 / (2.0 - p):
        raise SingularityError(
            f"cumulant of order {order} does not exist for p={p}: the energy "
            f"excess has a transition of order {transition_order(p).order}"
        )
    if order == 1:
        return 2.0 / (2.0 + p)
    if order == 2:
        return p / (2.0 * beta * n * n)
    return p ** 3 / (2.0 * beta * beta * n ** 4)


# --- generic radial measures and mean-field functionals ---------------------


@dataclass(frozen=True)
class Piece:
    """One absolutely continuous piece of a radial measure: density f on
    [lo, hi], with an optional analytic cumulative (mass of this piece on
    [lo, r]).  Without it, cumulative mass is obtained by quadrature."""

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


@dataclass(frozen=True)
class RadialMeasure:
    """A rotationally invariant probability measure given by its radial
    marginal: continuous pieces plus optional singular rings."""

    pieces: tuple[Piece, ...]
    rings: tuple[RingMass, ...] = ()

    @classmethod
    def circular_law(cls) -> "RadialMeasure":
        return cls(pieces=(Piece(0.0, 1.0, lambda r: 2.0 * r, lambda r: r * r),))

    def _piece_mass_below(self, piece: Piece, r: float) -> float:
        if r <= piece.lo:
            return 0.0
        top = min(r, piece.hi)
        if piece.cumulative is not None:
            return piece.cumulative(top)
        return _quad_checked(piece.density, piece.lo, top,
                             "piecewise cumulative mass", tol=1e-9)

    def continuous_mass_below(self, r: float) -> float:
        return math.fsum(self._piece_mass_below(p, r) for p in self.pieces)

    def total_mass(self) -> float:
        return self.continuous_mass_below(math.inf) \
            + math.fsum(ring.mass for ring in self.rings)

    def _validate(self) -> None:
        for piece in self.pieces:
            if not (0.0 <= piece.lo < piece.hi):
                raise DomainError(f"invalid piece bounds [{piece.lo}, {piece.hi}]")
        for ring in self.rings:
            if ring.radius <= 0.0:
                raise DomainError(f"ring radius must be positive, got {ring.radius}")
            if ring.mass < 0.0:
                raise DomainError(f"ring mass must be nonnegative, got {ring.mass}")
        mass = self.total_mass()
        if abs(mass - 1.0) > 1e-10:
            raise DomainError(f"radial measure mass is {mass!r}, expected 1")


def mean_field_energy(measure: RadialMeasure,
                      potential: TiltedPotential = HARMONIC) -> float:
    """Mean-field energy -1/2 iint ln max(r, r') dmu dmu' + int V dmu.

    The angular average of the planar log kernel between circles of radii
    r and r' is ln max(r, r'), which reduces the double integral to nested
    one-dimensional adaptive quadratures; singular rings interact through
    the same kernel and carry finite self-energy -(m^2/2) ln a.
    Absolute accuracy ~1e-10.  The uniform unit disk gives 3/8.
    """
    measure._validate()

    def pair_cc() -> float:
        # -1/2 iint f(r) f(r') ln max = -int f(r) ln(r) M(r) dr with M the
        # cumulative continuous mass, by symmetry of the kernel.
        parts = []
        for piece in measure.pieces:
            parts.append(_quad_checked(
                lambda r: piece.density(r) * math.log(r)
                * measure.continuous_mass_below(r),
                piece.lo, piece.hi, "bulk-bulk energy"))
        return -math.fsum(parts)

    def pair_cr() -> float:
        parts = []
        for ring in measure.rings:
            a, m = ring.radius, ring.mass
            inner = measure.continuous_mass_below(a) * math.log(a)
            outer = 0.0
            for piece in measure.pieces:
                if piece.hi > a:
                    outer += _quad_checked(
                        lambda r: piece.density(r) * math.log(r),
                        max(piece.lo, a), piece.hi, "bulk-ring energy")
            parts.append(m * (inner + outer))
        return -math.fsum(parts)

    def pair_rr() -> float:
        parts = []
        rings = measure.rings
        for i, ring in enumerate(rings):
            parts.append(0.5 * ring.mass ** 2 * math.log(ring.radius))
            for other in rings[i + 1:]:
                parts.append(ring.mass * other.mass
                             * math.log(max(ring.radius, other.radius)))
        return -math.fsum(parts)

    def confinement() -> float:
        parts = [
            _quad_checked(lambda r: potential(r) * piece.density(r),
                          piece.lo, piece.hi, "confinement energy")
            for piece in measure.pieces
        ]
        parts.extend(ring.mass * potential(ring.radius) for ring in measure.rings)
        return math.fsum(parts)

    return pair_cc() + pair_cr() + pair_rr() + confinement()


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
