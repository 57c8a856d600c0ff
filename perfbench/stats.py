"""Effective sample size of a Markov chain (Geyer 1992)."""

from __future__ import annotations

import numpy as np


def ess(x) -> float:
    """n / tau with tau from Geyer's initial monotone sequence: sums of
    adjacent autocorrelation pairs, cut at the first non-positive pair and
    forced non-increasing.  Capped at n, which keeps the standard errors
    built on it conservative."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    tau, prev = -1.0, np.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        prev = min(pair, prev)
        tau += 2.0 * prev
    return float(n / max(tau, 1.0))
