"""Level-walking double-exponential quadrature (Takahasi & Mori 1974).

One node table on t = k/128, |k| <= 460, u = pi/2 sinh t, in the form the
limits call for: tanh-sinh on [lo, hi] (nodes lo + d for t <= 0, hi - d for
t > 0, d = (hi - lo)/2 e^{-|u|}/cosh u, so offsets down to ~1e-25 keep their
digits), exp-sinh on [lo, inf), sinh-sinh on (-inf, inf).
`integrate` walks the steps h = 1/32, 1/64 and 1/128; the integrand sees
only the nodes each step adds (231, 230, 460).  Each row stops on its own,
at the first step whose error estimate for that row is <= tol, and the walk
ends once every row has stopped, so a row's result does not depend on the
rows that share its call.  With e1 = |S_h - S_2h| and e2 = |S_h - S_4h|
(at h = 1/32, all three sums on its 231 nodes), the estimate is Bailey,
Jeyabalan & Li's (2005) e1^(ln e1 / ln e2), as the error about squares when
h halves.  Its floors are e1^2, the rounding eps sum |terms| and the two
outermost weighted terms, for what truncation at |t| = 3.6 drops.
Finite bounds may differ by row, as (rows, 1) arrays: then a batch of
integrals over different intervals is one call."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["integrate"]

_EPS = float(np.finfo(float).eps)
# The table in walk order: k = 0 mod 16, 8 mod 16, 4 mod 8 (steps 1/8, 1/16,
# 1/32), then 2 mod 4 (1/64) and odd k (1/128).  _STEPS bounds the classes
# each step adds; t = -+460/128 are the ends of the 4 mod 8 class.
_T = np.concatenate([np.arange(-end, end + 1, step) for end, step in
                     ((448, 16), (456, 16), (460, 8), (458, 4), (459, 2))]) / 128.0
_U, _DU = 0.5 * math.pi * np.sinh(_T), 0.5 * math.pi * np.cosh(_T)
# the sinh-sinh nodes and weights, handed to integrands as read-only views
_X, _DX = np.sinh(_U), np.cosh(_U) * _DU
_X.flags.writeable = _DX.flags.writeable = False
_STEPS = ((0, 57, 115, 231), (231, 461), (461, 921))


def _rule(lo: float | np.ndarray, hi: float | np.ndarray,
          part: slice) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights dx/dt of the table's part on [lo, hi]; finite
    bounds may be (rows, 1) arrays, one pair per row."""
    u, du = _U[part], _DU[part]
    if np.ndim(hi) == 0 and hi == math.inf:
        if lo == -math.inf:
            return _X[part], _DX[part]
        grow = np.exp(u)
        return lo + grow, grow * du
    half, cosh = 0.5 * (hi - lo), np.cosh(u)
    offset = half * np.exp(-np.abs(u)) / cosh
    return np.where(_T[part] <= 0.0, lo + offset, hi - offset), half * du / cosh ** 2


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float | np.ndarray,
              hi: float | np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """int_lo^hi f along the last axis of f(nodes), and each row's error
    estimate, on [lo, hi], [lo, inf) or (-inf, inf).  Finite lo and hi may
    be (rows, 1) arrays: f then sees nodes of shape (rows, nodes), row i on
    [lo[i, 0], hi[i, 0]], and row i gets the same bits as a call with those
    scalar bounds.  A row keeps the
    value and estimate of the first step at which its estimate is <= tol;
    a row that never gets there returns its h = 1/128 value, whatever its
    estimate: err > tol is the caller's to judge."""
    cum, mag = [0.0], 0.0      # running sums over the classes, and of |terms|
    done, value, err = False, 0.0, 0.0
    for ends in _STEPS:
        x, weights = _rule(lo, hi, slice(ends[0], ends[-1]))
        terms = f(x) * weights
        if ends[0] == 0:
            outer = abs(terms[..., 115]) + abs(terms[..., 230])
        for a, b in zip(ends, ends[1:]):
            cum.append(cum[-1] + terms[..., a - ends[0]:b - ends[0]].sum(axis=-1))
        mag = mag + abs(terms).sum(axis=-1)
        h = 2.0 ** -(len(cum) + 1)
        step = h * cum[-1]
        e1, e2 = abs(step - 2.0 * h * cum[-2]), abs(step - 4.0 * h * cum[-3])
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = np.where((e1 < e2) & (e2 < 1.0),
                             e1 ** (np.log(e1) / np.log(e2)), e1)
        estimate = np.maximum.reduce([guess, e1 * e1, _EPS * h * mag, h * outer])
        # stopped rows keep what they had; [()] turns a 0-d result back
        # into a scalar
        value = np.where(done, value, step)[()]
        err = np.where(done, err, estimate)[()]
        done = err <= tol
        if done.all():
            break
    return value, err
