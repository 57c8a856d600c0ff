"""Finite-N formulas for radial statistics at coupling beta = 2.

At beta = 2 the squared radii of the gas are distributed like independent
gamma variables of shapes 1..N (after scaling by N), which turns the edge
distribution into a product of regularized incomplete gamma factors and the
moment generating function of the radial p-moment into a product of N
one-dimensional integrals.  Everything here is evaluated in log space; the
left tail of the edge distribution drives exponents near -1e5 at N = 250.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .equilibrium import _log_outer_square, stability_domain
from .errors import NumericalError, check_positive, check_size
from .quadrature import integrate

__all__ = [
    "edge_cdf_log",
    "edge_pdf_log",
    "exact_moment",
    "MgfResult",
    "mgf_log",
]


# ln k! for k = 0, 1, ...; grown on demand and kept between calls.  Every
# entry is math.lgamma(k + 1), whatever order the sizes are requested in.
_LOG_FACTORIALS = np.zeros(1)
_MIN_NORMAL = float(np.finfo(float).tiny)


def _log_factorials(m: int) -> np.ndarray:
    """ln k! for k = 0..m-1."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) < m:
        grown = [math.lgamma(k + 1.0) for k in range(len(table), m)]
        table = _LOG_FACTORIALS = np.concatenate([table, grown])
    return table[:m]


def _tail_steps(nats: float, rate: float, m: int, grow: float) -> int:
    """Fewest steps d from an anchor over which the Poisson log-pmf falls by
    nats, its first step falling by rate.  The log-pmf is concave: each later
    step falls at least 1/M more, M = m + grow d (grow 1 up, 0 down), so d
    steps fall at least d rate + d (d - 1)/(2 M).  Times 2 M that is a
    quadratic in d; its positive root is taken in the form that does not cancel."""
    a, b = 2.0 * grow * rate + 1.0, 2.0 * m * rate - 2.0 * grow * nats - 1.0
    c = 2.0 * m * nats
    return math.ceil(2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c)))


def _edge_factors(n: int, x: float, y: float) -> tuple[int, np.ndarray, np.ndarray]:
    """ln pmf_j(y) for j = k0..n-1 and ln P(k, y) for k = k0+1..n at the
    finite y = n x^2, with the offset k0: the band of edge factors that
    carries digits.

    At integer shape P(k, y) = Pr[Poisson(y) >= k], so every factor comes
    from one Poisson log-pmf array, here over [k0, top).  Factors with
    k <= y take log1p(-Q), Q = Pr[Poisson(y) < k] summed from j = k0; the
    rest take the upper tail, summed from top down.

    Each end is _tail_steps from an anchor.  Beyond a cut the pmf ratio is
    under 1 - 1/(1 + y), so the mass dropped is at most (1 + y) times the
    first term dropped: at most 2^-60/n times the anchor term, with nats =
    60 ln 2 + ln n + ln(1 + y).  top (only if y < n): anchor n, first ratio
    y/(n + 1); pmf_n is below every upper-tail factor and -ln F > 0.45, so
    ln F moves by under 2^-58 of itself.  k0: anchor a = min(n - 1,
    floor(y)), first ratio a/y (k0 = 0 at a = 0); |ln F| and the density's
    hazard sum are at least pmf_a, and P(k, y) >= 1/2 for k <= y, so each
    moves by under 2^-59 of itself.

    Below the smallest normal double y has lost digits, or is 0, so ln y
    is taken from x as ln n + 2 ln x; e^-y is then 1 to every digit.
    """
    log_y = math.log(y) if y >= _MIN_NORMAL else math.log(n) + 2.0 * math.log(x)
    lower = min(n, math.floor(y))
    nats = 60.0 * math.log(2.0) + math.log(n) + math.log1p(y)
    top = n
    if lower < n:   # ln((n + 1)/y), which a subnormal y would overflow
        top += _tail_steps(nats, math.log(n + 1.0) - log_y, n, 1.0)
    anchor = min(n - 1, lower)
    k0 = 0 if anchor == 0 else max(0, anchor + 1 - _tail_steps(
        nats, math.log(y / anchor), anchor, 0.0))
    j = np.arange(k0, top, dtype=float)
    log_pmf = j * log_y - y - _log_factorials(top)[k0:]
    log_p = np.empty(n - k0)
    log_q = np.logaddexp.accumulate(log_pmf[:lower - k0])
    log_p[:lower - k0] = np.log1p(-np.exp(log_q))
    log_p[lower - k0:] = np.logaddexp.accumulate(
        log_pmf[:lower - k0:-1])[::-1][:n - lower]
    return k0, log_pmf[:n - k0], log_p


def edge_cdf_log(n: int, x: float) -> float:
    """ln Pr[farthest particle radius <= x] for the n-particle gas.

    The probability is a product of n regularized lower gamma factors with
    common argument n x^2; each factor and the product are carried in log
    space (the product underflows catastrophically long before any factor
    does).  Where n x^2 overflows every factor is 1 and this is 0.0.
    """
    n = check_size(n, "particle number n")
    x = check_positive(x, "radius x")
    y = n * x * x
    if y == math.inf:
        return 0.0
    return float(_edge_factors(n, x, y)[2].sum())


def edge_pdf_log(n: int, x: float) -> float:
    """ln of the probability density of the farthest particle radius.

    d/dy P(k, y) = pmf_{k-1}(y), so the density is 2 n x F(x) times
    sum_k pmf_{k-1} / P(k, y), on the same band of factors as the CDF.
    Where n x^2 overflows the log is about -n x^2, below -max double: a
    NumericalError.
    """
    n = check_size(n, "particle number n")
    x = check_positive(x, "radius x")
    y = n * x * x
    if y == math.inf:
        raise NumericalError(f"the log edge density at n = {n}, x = {x!r} is "
                             "about -n x^2, below the doubles")
    _, log_pmf, log_p = _edge_factors(n, x, y)
    terms = log_pmf - log_p
    peak = float(terms.max())
    log_sum = peak + math.log(float(np.exp(terms - peak).sum()))
    return math.log(2.0 * n * x) + float(log_p.sum()) + log_sum


def exact_moment(n: int, p: float) -> float:
    """Mean of the radial p-moment: n^{-1-p/2} sum_k Gamma(k+p/2)/Gamma(k).

    Tends to 2/(2+p) as n grows.  The terms grow with k; where n times the
    last one leaves the normal doubles, they are summed relative to it and
    n^{-1-p/2} joins the log.  A mean beyond the doubles is a NumericalError.
    """
    n = check_size(n, "particle number n")
    p = check_positive(p, "moment exponent p")
    logs = (math.lgamma(k + 0.5 * p) - math.lgamma(k) for k in range(1, n + 1))
    try:   # lgamma itself overflows from p of about 5.1e305
        top = math.lgamma(n + 0.5 * p) - math.lgamma(n)
        if top + math.log(n) < 700.0:  # then n^{-1-p/2} > e^{-701} is normal too
            return n ** (-1.0 - 0.5 * p) * math.fsum(math.exp(v) for v in logs)
        shifted = math.fsum(math.exp(v - top) for v in logs)
        return math.exp(top + math.log(shifted) - (1.0 + 0.5 * p) * math.log(n))
    except OverflowError:
        raise NumericalError(f"the mean overflows a double at n={n}, p={p}") from None


# --- log-axis integrals on the double-exponential rule -----------------------
#
# On the log axis v = ln t each factor integrand of mgf_log is smooth and
# unimodal (the cusp of t^{p/2} at t = 0, p < 2, becomes a tail e^{l v}).
# Written relative to its peak, h(mode + u) - h(mode), free of the
# cancellation between l v and e^v, it is summed on the sinh-sinh rule.

_MGF_BLOCK = 32
_TOL = 1e-12      # absolute, on integrands of peak 1 and unit width
_NEWTON_STEPS = 300
_EPS = float(np.finfo(float).eps)


def _modes(ell: np.ndarray, c: np.ndarray, q: float, start: np.ndarray,
           locate: Callable[[np.ndarray], str]) -> np.ndarray:
    """Per element, the root of g(v) = e^v + c q e^{qv} - ell: the mode of
    h(v) = ell v - e^v - c e^{qv}.  Right of it g is increasing and convex
    for every admissible (p, s) (for c < 0, g > 0 gives e^v > |c| q e^{qv},
    and q <= 1), so Newton from a start where g > 0 descends onto it without
    overshooting; far out, a step moves v by about 1.  Every element walks
    on its own, so its mode does not depend on the others.  locate(mask)
    says where the masked elements failed.
    """
    def newton(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e, cq = np.exp(v), c * q * np.exp(q * v)
        g = e + cq - ell
        return g, g / (e + q * cq)

    v = start
    g, step = newton(v)
    for _ in range(_NEWTON_STEPS):
        step = np.where(g > 0.0, step, 0.0)   # g <= 0 only by rounding at the root
        moving = v - step != v
        if not moving.any():
            return v
        v = v - step
        g, step = newton(v)
    raise NumericalError("Newton iteration for the mode did not converge "
                         + locate(moving))


@dataclass(frozen=True)
class MgfResult:
    """Log of the tilted partition ratio <exp(-2 n^2 s moment_p)> at
    coupling 2, with the quadrature's own error estimate.

    estimated_relative_error is the sum over factors of the rule's estimate
    (from the last three steps of its walk) relative to the factor, plus
    eps times the summed magnitudes of each factor's peak terms l mode,
    e^mode and c e^{q mode} (the last weighted by 1 + |q mode| for the
    rounding of its exponent), over max(1, |log_value|).  The second
    part is the rounding floor: it dominates where a mode lies far right,
    where the peak terms reach 1e25 and cancel.  A result whose estimate
    exceeds 1 has no correct digit and is a NumericalError instead (at
    n = 40, p = 1, s = -1e15 it read 4e121).  Every factor is solved and
    integrated on its own, so a result is the same bits whether it comes
    from mgf_log or from a grid of tilts evaluated in one pass.
    """

    n: int
    p: float
    s: float
    log_value: float
    estimated_relative_error: float


def _mgf_grid(n: int, p: float, s_grid: Sequence[float]) -> list[MgfResult]:
    """mgf_log at every tilt of s_grid, in grid order, in one pass.

    Every tilt is checked against the stability domain first.  The factors
    (tilt, l) of all nonzero tilts become the rows of one Newton solve and
    are integrated _MGF_BLOCK rows at a time, across tilt boundaries.  A
    tilt of 0 gives exactly MgfResult(n, p, 0.0, 0.0, 0.0).
    """
    n = check_size(n, "particle number n")
    p = check_positive(p, "moment exponent p")
    ss = [float(s) for s in s_grid]
    domain = stability_domain(p)
    found = iter(_mgf_rows(n, p, [domain.require(s) for s in ss if s != 0.0]))
    return [MgfResult(n, p, s, *next(found)) if s != 0.0
            else MgfResult(n, p, 0.0, 0.0, 0.0) for s in ss]


def _mgf_rows(n: int, p: float, tilts: list[float]) -> list[tuple[float, float]]:
    """(log_value, estimated_relative_error) at each nonzero tilt."""
    q = 0.5 * p
    c = np.repeat([2.0 * s * n ** (1.0 - q) for s in tilts], n)
    ell = np.tile(np.arange(1.0, n + 1.0), len(tilts))
    # g at ell = n is n times the outer radius's equation at v - ln n, and g
    # at ell is that plus n - ell: g > 0 at ln n + ln R^2 + 1 for every
    # factor, the + 1 clear of the rounding of peak terms near 1e30.
    start = np.repeat([math.log(n) + _log_outer_square(p, s) + 1.0 for s in tilts], n)
    main, err = np.empty(len(ell)), np.empty(len(ell))

    def locate(failed: np.ndarray) -> str:
        bad = dict.fromkeys(np.repeat(tilts, n)[failed].tolist())
        return f"at n = {n}, p = {p!r}, s = {', '.join(map(repr, bad))}"

    if not np.isfinite(c).all():
        raise NumericalError("the tilt term 2 s n^(1 - p/2) leaves the doubles "
                             + locate(~np.isfinite(c)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mode = _modes(ell, c, q, start, locate)
        e_mode = np.exp(mode)
        c_mode = c * np.exp(q * mode)
        peak = ell * mode - e_mode - c_mode
        width = 1.0 / np.sqrt(e_mode + q * q * c_mode)      # 1/sqrt(-h''(mode))
        for b in range(0, len(ell), _MGF_BLOCK):
            blk = slice(b, b + _MGF_BLOCK)
            el, e, cm, wd = (a[blk, None] for a in (ell, e_mode, c_mode, width))

            def factor(x: np.ndarray) -> np.ndarray:
                # e^{h(mode + u) - h(mode)} on u = width x; far out in x,
                # inf - inf stands for a vanishing tail, while an overflow
                # stays inf and fails the check below
                u = wd * x
                grow = np.expm1(u)
                tilt = grow if q == 1.0 else np.expm1(q * u)
                g = np.exp(el * u - e * grow - cm * tilt)
                return np.fmax(g, 0.0, out=g)     # nan to 0; g >= 0 and inf stay

            value, error = integrate(factor, -math.inf, math.inf, _TOL)
            main[blk], err[blk] = width[blk] * value, width[blk] * error
    good = np.isfinite(peak) & np.isfinite(main) & (main > 0.0)
    if not good.all():
        raise NumericalError("log-axis quadrature collapsed to zero or overflowed "
                             + locate(~good))
    log_values = [math.fsum(row) for row in
                  (peak + np.log(main)).reshape(-1, n) - _log_factorials(n)]
    # Each peak term l v, e^v and c e^{qv} is rounded to eps; c e^{qv} also
    # carries the rounding of its exponent qv, which exp magnifies by |qv|.
    rounding = _EPS * (np.abs(ell * mode) + e_mode + np.abs(c_mode)
                       * (1.0 + np.abs(q * mode))).reshape(-1, n).sum(axis=1)
    rel = ((err / main).reshape(-1, n).sum(axis=1) + rounding) \
        / np.maximum(1.0, np.abs(log_values))
    hopeless = ~(rel <= 1.0)
    if hopeless.any():
        raise NumericalError("the estimated relative error exceeds 1 (no correct "
                             "digit) " + locate(np.repeat(hopeless, n)))
    return list(zip(log_values, rel.tolist()))


def mgf_log(n: int, p: float, s: float) -> MgfResult:
    """ln <exp(-2 n^2 s moment_p)> at coupling 2 via n log-axis integrals.

    Each factor is int_0^inf t^{l-1} exp(-t - 2 s n (t/n)^{p/2}) dt / Gamma(l);
    the integrals are evaluated after the substitution t = e^v, where the
    integrand e^{h(v)} is smooth and unimodal for every admissible (p, s).
    Newton finds all n modes at once, from ln n + ln R^2 + 1, R the outer
    radius of the tilted equilibrium measure; one sinh-sinh walk in
    x = (v - mode) / width takes the factors _MGF_BLOCK at a time, so memory
    stays O(_MGF_BLOCK x nodes).  A tilt whose R^2 or tilt term 2 s n^{1-p/2}
    leaves the doubles (at n = 40, p = 1.999, s = -2.6, or s = 1e308), or a
    mode too far out for h to resolve its peak (v near 333 at p = 1.99), is
    a NumericalError.  This is _mgf_grid at one tilt.  Whole grids take
    _mgf_grid itself: `exact mgf`, and mgf_table, on which fig 3, fig 4,
    extract_subleading and `verify mgf` build.
    """
    return _mgf_grid(n, p, [s])[0]
