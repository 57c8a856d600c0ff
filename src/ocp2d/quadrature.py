"""Fixed-node double-exponential quadrature (Takahasi & Mori 1974).

One rule on t = k h, |k| <= 230, h = 1/64, with u = pi/2 sinh t, in the
form the limits call for: tanh-sinh on [lo, hi], exp-sinh on [lo, inf) or
mirrored on (-inf, hi], sinh-sinh on (-inf, inf).  Tanh-sinh puts a node at
lo + d for t <= 0 and at hi - d for t > 0, d = (hi - lo)/2 e^{-|u|}/cosh u
(that is 1 -+ tanh u), so offsets down to ~1e-25 keep the digits that
lo + (hi - lo)(1 + x)/2 loses near x = -1.  The error estimate is the gap
between the h sum and the 2h sum on the even nodes, plus the two outermost
weighted terms, which bound what truncation at |t| = 3.6 drops; the
midpoints between the nodes refine the rule to h/2.  Sums run along the
last axis, so one call integrates many rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = ["nodes", "estimate", "checked_sum"]

_H = 1.0 / 64.0


def _form(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """t, u, h du/dt, the tanh-sinh offset and h dx/dt of tanh-sinh."""
    u = 0.5 * math.pi * np.sinh(t)
    du = 0.5 * math.pi * np.cosh(t) * _H
    return t, u, du, np.exp(-np.abs(u)) / np.cosh(u), du / np.cosh(u) ** 2


_NODES = _form(np.arange(-230, 231) * _H)
_MIDPOINTS = _form((np.arange(-230, 230) + 0.5) * _H)


def nodes(lo: float, hi: float,
          midpoints: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule on [lo, hi]; either end may be infinite.
    With midpoints, the 460 points halfway between the nodes in t: the mean
    of the two sums is the rule at step h/2."""
    t, u, du, ts_offset, ts_weight = _MIDPOINTS if midpoints else _NODES
    if lo == -math.inf and hi == math.inf:
        return np.sinh(u), np.cosh(u) * du
    if hi == math.inf or lo == -math.inf:
        grow = np.exp(u)
        return (lo + grow if hi == math.inf else hi - grow), grow * du
    half = 0.5 * (hi - lo)
    offset = half * ts_offset
    return np.where(t <= 0.0, lo + offset, hi - offset), half * ts_weight


def estimate(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the weighted terms of one step size, and their error
    estimates."""
    value = terms.sum(axis=-1)
    half = terms[..., (terms.shape[-1] // 2) % 2::2]   # every other node, t = 0 among them
    err = abs(value - 2.0 * half.sum(axis=-1)) \
        + abs(terms[..., 0]) + abs(terms[..., -1])
    return value, err


def checked_sum(terms: np.ndarray, what: str, tol: float = 1e-10) -> float:
    """Sum of one row of weighted terms, checked against its error estimate."""
    value, err = (float(a) for a in estimate(terms))
    if not (math.isfinite(value) and err <= tol):
        raise NumericalError(
            f"quadrature for {what} did not converge: estimated error {err:.3e}"
        )
    return value
