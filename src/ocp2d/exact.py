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
from typing import Callable

import numpy as np

from .equilibrium import stability_domain
from .errors import DomainError, NumericalError, check_positive, check_size
from .specfun import log_reg_lower_gamma

__all__ = [
    "edge_cdf_log",
    "edge_pdf_log",
    "exact_moment",
    "MgfResult",
    "mgf_log",
    "log_truncated_gamma_integral",
]


# ln k! for k = 0, 1, ...; grown on demand and kept between calls.  Every
# entry is math.lgamma(k + 1), whatever order the sizes are requested in.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(m: int) -> np.ndarray:
    """ln k! for k = 0..m-1."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) < m:
        grown = [math.lgamma(k + 1.0) for k in range(len(table), m)]
        table = _LOG_FACTORIALS = np.concatenate([table, grown])
    return table[:m]


def _edge_factors(n: int, y: float) -> tuple[np.ndarray, np.ndarray]:
    """ln pmf_j(y) for j = 0..n-1 and ln P(k, y) for k = 1..n, at y > 0.

    At integer shape P(k, y) = Pr[Poisson(y) >= k], so every factor comes
    from one Poisson log-pmf array.  Factors with k <= y take log1p(-Q) with
    Q the lower cumulative sum; the rest take the upper tail, summed from
    the far end.  The upper tail is needed only when y < n, and its terms
    past n + 40 sqrt(n) + 60 fall below e^{-800} pmf_k for every k <= n, so
    the arrays stay O(n) whatever x is.
    """
    if not math.isfinite(y):
        raise DomainError(f"n x^2 must be finite, got {y}")
    lower = min(n, math.floor(y))
    top = n if lower == n else n + int(40.0 * math.sqrt(n)) + 60
    j = np.arange(top, dtype=float)
    log_pmf = j * math.log(y) - y - _log_factorials(top)
    log_p = np.empty(n)
    log_q = np.logaddexp.accumulate(log_pmf[:lower])
    log_p[:lower] = np.log1p(-np.exp(log_q))
    log_p[lower:] = np.logaddexp.accumulate(log_pmf[:lower:-1])[::-1][:n - lower]
    return log_pmf[:n], log_p


def edge_cdf_log(n: int, x: float) -> float:
    """ln Pr[farthest particle radius <= x] for the n-particle gas.

    The probability is a product of n regularized lower gamma factors with
    common argument n x^2; each factor and the product are carried in log
    space (the product underflows catastrophically long before any factor
    does).  Returns -inf where n x^2 underflows to 0.
    """
    n = check_size(n, "particle number n")
    x = check_positive(x, "radius x")
    y = n * x * x
    if y == 0.0:
        return -math.inf
    return float(_edge_factors(n, y)[1].sum())


def edge_pdf_log(n: int, x: float) -> float:
    """ln of the probability density of the farthest particle radius.

    d/dy P(k, y) = pmf_{k-1}(y), so the density is 2 n x F(x) times
    sum_k pmf_{k-1} / P(k, y), on the same factor arrays as the CDF.
    Returns -inf where n x^2 underflows to 0.
    """
    n = check_size(n, "particle number n")
    x = check_positive(x, "radius x")
    y = n * x * x
    if y == 0.0:
        return -math.inf
    log_pmf, log_p = _edge_factors(n, y)
    terms = log_pmf - log_p
    peak = float(terms.max())
    log_sum = peak + math.log(float(np.exp(terms - peak).sum()))
    return math.log(2.0 * n * x) + float(log_p.sum()) + log_sum


def exact_moment(n: int, p: float) -> float:
    """Mean of the radial p-moment: n^{-1-p/2} sum_k Gamma(k+p/2)/Gamma(k).

    Tends to 2/(2+p) as n grows.
    """
    n = check_size(n, "particle number n")
    p = check_positive(p, "moment exponent p")
    total = math.fsum(
        math.exp(math.lgamma(k + 0.5 * p) - math.lgamma(k)) for k in range(1, n + 1)
    )
    return n ** (-1.0 - 0.5 * p) * total


# --- log-space Laplace quadrature over v = ln t ------------------------------
#
# Working on the log axis makes every integrand here smooth and unimodal:
# the t-space cusp of t^{p/2} at the origin (p < 2) becomes a clean
# exponential tail e^{l v} at v -> -inf.  One engine serves both mgf_log
# and log_truncated_gamma_integral: _crossing brackets and bisects the
# window where the integrand stays within e^-60 of its peak, and _gl_block
# integrates it, written relative to the peak, on 32 equal panels of
# 32-node Gauss-Legendre per row (a 20-node rule on the same panels gives
# mgf_log's error estimate).  mgf_log takes one row per factor, 32 factors
# at a time; log_truncated_gamma_integral one row per side of the peak.

_GL_MAIN = np.polynomial.legendre.leggauss(32)
_GL_CHECK = np.polynomial.legendre.leggauss(20)
_WINDOW_DROP = 60.0
_PANELS = 32
_MGF_BLOCK = 32
_MAX_DOUBLINGS = 20
_MAX_BISECTIONS = 100
_BRACKET_TOL = 1e-6
_TAIL_CUT = 40.0


def _crossing(inside: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
              direction: np.ndarray) -> np.ndarray:
    """Per element, where inside(v) first turns false on the ray from start
    in the given direction (+1 or -1); inside(start) must hold.

    Doubling steps bracket the crossing and bisection on the distance
    narrows the bracket to _BRACKET_TOL; the outside end is returned.
    """
    near = np.zeros_like(start)
    far = np.ones_like(start)
    for _ in range(_MAX_DOUBLINGS):
        grow = inside(start + direction * far)
        if not grow.any():
            break
        near = np.where(grow, far, near)
        far = np.where(grow, 2.0 * far, far)
    else:
        raise NumericalError("log-axis integrand bracket failed")
    for _ in range(_MAX_BISECTIONS):
        if (far - near).max() <= _BRACKET_TOL:
            break
        mid = 0.5 * (near + far)
        ok = inside(start + direction * mid)
        near = np.where(ok, mid, near)
        far = np.where(ok, far, mid)
    return start + direction * far


def _gl_block(log_g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
              hi: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """int_lo^hi e^{log_g(u)} du per row, on _PANELS equal panels.

    log_g maps node arrays of shape (rows, panels, nodes) to the same shape.
    """
    nodes, weights = rule
    half = 0.5 * (hi - lo) / _PANELS
    centers = lo[:, None] + (2.0 * np.arange(_PANELS) + 1.0) * half[:, None]
    u = centers[:, :, None] + half[:, None, None] * nodes
    g = np.nan_to_num(np.exp(log_g(u)), nan=0.0, posinf=0.0)
    return half * (g @ weights).sum(axis=1)


@dataclass(frozen=True)
class MgfResult:
    """Log of the tilted partition ratio <exp(-2 n^2 s moment_p)> at
    coupling 2, with the quadrature's own error estimate."""

    n: int
    p: float
    s: float
    log_value: float
    estimated_relative_error: float


def mgf_log(n: int, p: float, s: float) -> MgfResult:
    """ln <exp(-2 n^2 s moment_p)> at coupling 2 via n log-axis integrals.

    Each factor is int_0^inf t^{l-1} exp(-t - 2 s n (t/n)^{p/2}) dt / Gamma(l);
    the integrals are evaluated after the substitution t = e^v, where the
    integrand is smooth and unimodal for every admissible (p, s).
    """
    n = check_size(n, "particle number n")
    p = check_positive(p, "moment exponent p")
    s = float(s)
    if s == 0.0:
        return MgfResult(n, p, 0.0, 0.0, 0.0)
    stability_domain(p).require(s)

    q = 0.5 * p
    c = 2.0 * s * n ** (1.0 - q)
    ell = np.arange(1.0, n + 1.0)

    def h(v: np.ndarray, ell: np.ndarray = ell) -> np.ndarray:
        return ell * v - np.exp(v) - c * np.exp(q * v)

    with np.errstate(over="ignore", invalid="ignore"):
        # h' = ell - e^v - c q e^{qv} changes sign once, from + to -, and
        # h'(ln ell) = -c q ell^q: the mode lies right of ln ell iff c < 0.
        up = c < 0.0
        mode = _crossing(
            lambda v: (ell - np.exp(v) - c * q * np.exp(q * v) > 0.0) == up,
            np.log(ell), np.full(n, 1.0 if up else -1.0))
        peak = h(mode)
        if not np.isfinite(peak).all():
            raise NumericalError("integrand is not finite at its mode")
        # Window: where h stays within _WINDOW_DROP of its peak.
        both = np.concatenate([ell, ell])
        floor = np.concatenate([peak, peak]) - _WINDOW_DROP
        ends = _crossing(lambda v: h(v, both) > floor,
                         np.concatenate([mode, mode]),
                         np.repeat([-1.0, 1.0], n))
        lo, hi = ends[:n] - mode, ends[n:] - mode
        # On the window, h(mode + u) - h(mode) in a form free of the
        # cancellation between ell v and e^v.
        e_mode = np.exp(mode)
        c_mode = c * np.exp(q * mode)
        main = np.empty(n)
        check = np.empty(n)
        for b in range(0, n, _MGF_BLOCK):
            blk = slice(b, b + _MGF_BLOCK)
            el, e, cm = (a[blk, None, None] for a in (ell, e_mode, c_mode))

            def log_g(u: np.ndarray) -> np.ndarray:
                return el * u - e * np.expm1(u) - cm * np.expm1(q * u)

            main[blk] = _gl_block(log_g, lo[blk], hi[blk], _GL_MAIN)
            check[blk] = _gl_block(log_g, lo[blk], hi[blk], _GL_CHECK)
    if not (main > 0.0).all():
        raise NumericalError("log-axis quadrature collapsed to zero")
    log_terms = peak + np.log(main) - _log_factorials(n)
    err_abs = float((np.abs(main - check) / main).sum())
    log_value = math.fsum(log_terms)
    return MgfResult(n, p, s, log_value, err_abs / max(1.0, abs(log_value)))


def log_truncated_gamma_integral(n: int, x: float, xi: float) -> float:
    """ln int_0^{x^2} t^{-1} exp(-n (t - xi ln t)) dt, two routes reconciled.

    The integral equals n^{-n xi} gamma(n xi, n x^2) exactly; that identity
    value is returned after checking it against a direct log-axis quadrature
    to 1e-8, on the engine mgf_log uses: the e^-60 window around the peak at
    v = min(ln xi, 2 ln x), clipped at the upper limit 2 ln x, with each side
    of the peak on its own 32 panels.  The window stops _TAIL_CUT = 40 left
    of the peak: beyond it e^u < 5e-18, so the integrand is e^{n e^mode + a u}
    (a = n xi) to within a factor 1 + 5e-18 n e^mode, and that tail is added
    in closed form.  Per-mode integrals of this shape assemble the left tail
    of the edge distribution, with an interior saddle for xi < x^2 and a
    boundary-dominated regime for xi > x^2.
    """
    n = check_size(n, "particle number n")
    x = check_positive(x, "radius x")
    if x > 1.0:
        raise DomainError(f"truncation radius must satisfy 0 < x <= 1, got {x}")
    xi = check_positive(xi, "shape parameter xi")
    if xi > 1.0:
        raise DomainError(f"shape parameter must satisfy 0 < xi <= 1, got {xi}")

    a = n * xi
    identity = -a * math.log(n) + math.lgamma(a) + log_reg_lower_gamma(a, n * x * x)

    upper = 2.0 * math.log(x)
    mode = min(math.log(xi), upper)
    e_mode = n * math.exp(mode)
    peak = a * mode - e_mode
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _crossing(lambda v: (a * v - n * np.exp(v) > peak - _WINDOW_DROP)
                           & (v > mode - _TAIL_CUT),
                           np.full(2, mode), np.array([-1.0, 1.0])) - mode
        body = _gl_block(lambda u: a * u - e_mode * np.expm1(u),
                         np.array([lo, 0.0]), np.array([0.0, min(hi, upper - mode)]),
                         _GL_MAIN).sum()
    if lo <= -_TAIL_CUT:
        body += math.exp(e_mode + a * lo) / a
    quadrature = peak + math.log(body)
    if abs(quadrature - identity) > 1e-8 * max(1.0, abs(identity)):
        raise NumericalError(
            f"truncated gamma integral routes disagree at n={n}, x={x}, xi={xi}: "
            f"identity {identity!r} vs quadrature {quadrature!r}"
        )
    return identity
