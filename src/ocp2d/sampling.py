"""Samplers for the planar log-gas and its radial statistics.

Two routes to draws of the radial statistics:

* an exact sampler at coupling beta = 2, using the fact that the squared
  moduli are distributed as independent gamma variables of shapes 1..n
  (scaled by n) — fast, embarrassingly parallel, no autocorrelation.  A
  p-moment draw takes all n variates; a maximum-modulus draw takes only
  the top shapes that can hold the maximum (about 5 sqrt(n) of them)
  and couples in the rest exactly through the product formula of
  ``exact.edge_cdf_log``;
* a Metropolis chain valid at any beta > 0, whose sweeps move every
  particle once, in random order.

Randomness comes from counter-based Philox generators keyed by
``SeedSequence(seed, spawn_key=(stream,))`` so that independent chains get
independent, reproducible streams.  Identical (seed, parameters) give
bit-identical batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (DomainError, NumericalError, SingularityError,
                     check_positive, check_size)
from .exact import edge_cdf_log

__all__ = [
    "PlasmaConfig",
    "SampleBatch",
    "radial_statistic",
    "hamiltonian",
    "sample_kostlan",
    "MetropolisChain",
    "sample_mcmc",
]

_GAMMA_CHUNK = 1024
_MAX_DOUBLINGS = 64
_ADAPT_INTERVAL = 25  # sweeps between step-size adjustments during burn-in
_TARGET_ACCEPTANCE = (0.3, 0.5)
# Largest |accumulated dH - (H_end - H_start)| allowed, relative to
# max(1, |H_start|, |H_end|), at the end of a Metropolis run.
_ENERGY_TOLERANCE = 1e-8


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=check_size(seed, "seed", 0),
                                 spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class PlasmaConfig:
    """Positions of n planar charges plus the inverse temperature."""

    positions: np.ndarray  # shape (n, 2)
    beta: float = 2.0
    n: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise DomainError(f"positions must have shape (n, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise DomainError("positions must be finite")
        check_positive(self.beta, "coupling beta")
        object.__setattr__(self, "positions", pos)
        if self.n == 0:
            object.__setattr__(self, "n", pos.shape[0])
        elif self.n != pos.shape[0]:
            raise DomainError(f"n={self.n} but {pos.shape[0]} positions given")

    def radii(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


def _check_exponent(p: float) -> float:
    """p itself when it is inf, else p as a float that is finite and > 0."""
    return p if p == math.inf else check_positive(p, "statistic exponent p")


def radial_statistic(config: PlasmaConfig, p: float) -> float:
    """(1/n) sum r_k^p for finite p; the maximum modulus for p = inf."""
    return _statistic(config.positions, _check_exponent(p))


def _statistic(positions: np.ndarray, p: float) -> float:
    r = np.hypot(positions[:, 0], positions[:, 1])
    return float(r.max()) if p == math.inf else math.fsum(r**p) / r.size


def hamiltonian(config: PlasmaConfig) -> float:
    """-sum_{i<j} log|z_i - z_j| + n sum_k |z_k|^2 / 2 (O(n^2) pair sum)."""
    pos = config.positions
    n = config.n
    i, j = np.triu_indices(n, 1)
    d = np.hypot(pos[j, 0] - pos[i, 0], pos[j, 1] - pos[i, 1])
    coincident = np.flatnonzero(d == 0.0)
    if coincident.size:
        raise SingularityError(f"coincident particles at index {i[coincident[0]]}")
    confinement = 0.5 * n * math.fsum(pos[:, 0] ** 2 + pos[:, 1] ** 2)
    return confinement - math.fsum(np.log(d))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Draws of the radial statistic with their provenance."""

    values: np.ndarray
    p: float
    n: int
    beta: float
    seed: int
    sampler_id: str
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("a sample batch must hold at least one value")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise DomainError("radial statistics must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return math.fsum(self.values) / self.count

    def variance(self) -> float:
        if self.count < 2:
            raise DomainError("variance needs at least two draws")
        m = self.mean()
        return math.fsum((self.values - m) ** 2) / (self.count - 1)

    def std_error(self) -> float:
        return math.sqrt(self.variance() / self.count)


def _tail_log_bound(a, y):
    """ln(a e^{a-y} (y/a)^a), at least ln Pr[max(G_1..G_a) > y] for y > a.

    A union of Chernoff bounds: Pr[G_k > y] <= Pr[G_a > y] <= e^{a-y}
    (y/a)^a for every shape k <= a < y.
    """
    return np.log(a) + a - y + a * np.log(y / a)


def _skipped_shapes(n: int) -> int:
    """The cut a(n) = max(0, n - ceil(5 sqrt(n))).  `_maxima` is exact for
    any cut; with this one its exact tail path, of chance at most
    Pr[M <= y] + e^{bound(a, y)} for any y > a, takes under 1e-3 of draws."""
    return max(0, n - math.ceil(5.0 * math.sqrt(n)))


def _maxima(rng: np.random.Generator, n: int, cut: int,
            m: int) -> tuple[np.ndarray, int, int]:
    """m draws of max(G_1..G_n), G_k ~ Gamma(k) independent, from the shapes
    cut+1..n only, and the counts of draws that computed S(M) and bisected.

    Per draw, M is the maximum of the drawn shapes and V = 1 - U is one
    uniform in (0, 1].  The skipped maximum L is defined by
    Pr[max(G_1..G_cut) > L] = V, so it has its exact law and is independent
    of M, and L > M exactly when V < S(M) = 1 - F_cut(M), with
    F_cut(y) = exp(edge_cdf_log(cut, sqrt(y/cut))).  Where ln V is at or
    above the tail bound at M > cut, M is the answer.  Elsewhere S(M) is
    computed exactly, and where V is below it, L is found by bisection to
    adjacent doubles.
    """
    top = rng.standard_gamma(np.arange(cut + 1.0, n + 1.0),
                             size=(m, n - cut)).max(axis=1)
    if cut == 0:
        return top, 0, 0
    v = 1.0 - rng.random(m)

    def survival(y: float) -> float:
        return -math.expm1(edge_cdf_log(cut, math.sqrt(y / cut)))

    unsettled = np.flatnonzero((top <= cut)
                               | (np.log(v) < _tail_log_bound(cut, top)))
    bisected = 0
    for i in unsettled.tolist():
        lo, target = float(top[i]), float(v[i])
        if not target < survival(lo):
            continue
        bisected += 1
        hi = 2.0 * max(lo, cut)
        for _ in range(_MAX_DOUBLINGS):
            if not survival(hi) > target:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NumericalError(f"no bracket for the skipped maximum of {cut} "
                                 f"shapes at V = {target!r}")
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if survival(mid) > target:
                lo = mid
            else:
                hi = mid
        top[i] = hi
    return top, unsettled.size, bisected


def sample_kostlan(n: int, count: int, p: float, seed: int) -> SampleBatch:
    """Exact draws of the radial statistic at coupling 2.

    The squared moduli of the gas, multiplied by n, are distributed like
    independent gamma variables of shapes 1..n, and the statistic is
    rotation-invariant, so no angular coordinates are drawn.  At finite p
    a draw takes all n gamma variates.  At p = inf a draw takes only the
    top n - a(n) shapes (about 5 sqrt(n)) plus one uniform, which couples
    in the maximum of the skipped shapes 1..a(n) exactly (see `_maxima`).
    The metadata adds ``top_shapes``, ``tail_inversions`` (draws where the
    chance S(M) that the skipped maximum wins was evaluated) and
    ``tail_bisections`` (draws where it won and bisection ran).  Chunked to
    bound memory at large count.
    """
    n = check_size(n, "particle number n")
    count = check_size(count, "count")
    p = _check_exponent(p)
    rng = _rng(seed)
    shapes = np.arange(1, n + 1, dtype=float)
    cut = _skipped_shapes(n) if p == math.inf else 0
    tally = np.zeros(2, dtype=int)  # draws on the exact tail path, bisections
    out = np.empty(count, dtype=float)
    for start in range(0, count, _GAMMA_CHUNK):
        m = min(_GAMMA_CHUNK, count - start)
        if p == math.inf:
            top, *counts = _maxima(rng, n, cut, m)
            out[start:start + m] = np.sqrt(top / n)
            tally += counts
        else:
            g = rng.standard_gamma(shapes, size=(m, n))
            out[start:start + m] = n ** (-1.0 - 0.5 * p) * (g ** (0.5 * p)).sum(axis=1)
    metadata: dict[str, Any] = {"chunk": _GAMMA_CHUNK}
    if p == math.inf:
        metadata.update(top_shapes=n - cut, tail_inversions=int(tally[0]),
                        tail_bisections=int(tally[1]))
    return SampleBatch(out, p, n, 2.0, int(seed), "kostlan", metadata)


class MetropolisChain:
    """Metropolis chain targeting exp(-beta H).

    A sweep moves every particle once, in random order: each move displaces
    its particle by an isotropic Gaussian step and accepts with probability
    min(1, e^{-beta dH}).  The chain's state is its positions alone: a
    sweep takes the logs it needs, O(n^2), from the positions at its start
    and its n proposals (see `sweep`).  ``z`` holds the positions as
    complex numbers and ``positions`` is its (n, 2) float view.  ``adapt``
    nudges the step size toward an acceptance rate in [0.3, 0.5]; call it
    only during burn-in — the recorded chain must run at a frozen step
    size.  Proposals landing exactly on another particle are rejected
    outright.
    """

    def __init__(self, n: int, beta: float, rng: np.random.Generator,
                 initial_step: float = 0.25):
        self.n = n = check_size(n, "particle number n")
        self.beta = check_positive(beta, "coupling beta")
        self.rng = rng
        self.step = check_positive(initial_step, "step")
        # i.i.d. uniform on the unit disk: inside the limiting support.
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        self.z = np.empty(n, dtype=complex)
        self.z.real = radius * np.cos(theta)
        self.z.imag = radius * np.sin(theta)
        self.positions = self.z.view(float).reshape(n, 2)
        self.accepted = 0
        self.proposed = 0
        self._window_accepted = 0
        self._window_proposed = 0
        self.accumulated_delta = 0.0

    def sweep(self) -> None:
        """Move every particle once, in random order.

        The randomness comes in three calls: ``permutation(n)`` for the
        order, ``standard_normal((n, 2))`` for the steps and ``random(n)``
        for the acceptance tests.  Move t proposes new[t] = old[t] + step[t]
        for particle order[t], with old = z[order].  From L = log|old - old|,
        A = log|new - old| and B = log|new - new| (zero on their diagonals),
        move t's dH is its value against the state at the start of the
        sweep, the confinement change minus sum_u (A - L)[t, u], plus, over
        the moves s < t accepted before it, cross[s, t] = (A - L)[s, t] +
        A[t, s] - B[s, t].  A dH that is not finite (a proposal on an
        occupied or a vacated site) is recomputed from the current
        positions.  The accepted proposals are written once, at the end.
        """
        n, z = self.n, self.z
        order = self.rng.permutation(n)
        steps = (self.step * self.rng.standard_normal((n, 2))).view(complex)
        old = z[order]
        new = old + steps.ravel()
        # [old; new] - old stacked over new - new; the three diagonals,
        # each a particle against itself, get log 1 = 0.
        diff = np.empty((3 * n, n), dtype=complex)
        np.subtract(np.concatenate((old, new))[:, None], old, out=diff[:2 * n])
        np.subtract(new[:, None], new, out=diff[2 * n:])
        diff.reshape(3, n * n)[:, ::n + 1] = 1.0
        confinement = 0.5 * n * (new.real ** 2 + new.imag ** 2
                                 - old.real ** 2 - old.imag ** 2)
        running = np.zeros(n)
        accept = np.zeros(n, dtype=bool)
        beta, total = self.beta, 0.0
        # Coincident points give infinite logs and inf - inf increments;
        # random() can return 0.0.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_u = np.log(self.rng.random(n)).tolist()
            logs = np.log(np.abs(diff))
            a = logs[n:2 * n]
            shift = a - logs[:n]
            start = (confinement - shift.sum(axis=1)).tolist()
            cross = shift + a.T - logs[2 * n:]
            for t, (delta, lu) in enumerate(zip(start, log_u)):
                delta += running.item(t)
                if not math.isfinite(delta):
                    now = z.copy()
                    now[order[accept]] = new[accept]
                    i = order[t]
                    before = np.log(np.abs(now - now[i]))
                    after = np.log(np.abs(now - new[t]))
                    before[i] = after[i] = 0.0
                    delta = (float(before.sum() - after.sum())
                             + confinement.item(t))
                if lu < -beta * delta:
                    running += cross[t]
                    accept[t] = True
                    total += delta
        z[order[accept]] = new[accept]
        accepted = int(np.count_nonzero(accept))
        self.accumulated_delta += total
        self.proposed += n
        self._window_proposed += n
        self.accepted += accepted
        self._window_accepted += accepted

    def adapt(self) -> None:
        if self._window_proposed == 0:
            return
        rate = self._window_accepted / self._window_proposed
        lo, hi = _TARGET_ACCEPTANCE
        if rate < lo:
            self.step *= 0.8
        elif rate > hi:
            self.step *= 1.25
        self._window_accepted = 0
        self._window_proposed = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def config(self) -> PlasmaConfig:
        return PlasmaConfig(self.positions.copy(), self.beta)


def sample_mcmc(n: int, beta: float, sweeps: int, burn_in: int, thinning: int,
                p: float, seed: int, initial_step: float = 0.25) -> SampleBatch:
    """Metropolis draws of the radial statistic at general coupling.

    Runs one chain: ``burn_in`` sweeps with periodic step adaptation, then
    ``sweeps - burn_in`` recording sweeps at frozen step size, keeping the
    statistic every ``thinning`` sweeps.  At the end the accumulated
    energy increments must equal H(end) - H(start) to a relative 1e-8, or
    ``NumericalError`` is raised; the difference is kept in the metadata
    as ``energy_drift_error``.
    """
    sweeps, burn_in, thinning = int(sweeps), int(burn_in), int(thinning)
    if burn_in < 0 or sweeps <= burn_in:
        raise DomainError(f"need sweeps > burn_in >= 0, got {sweeps}, {burn_in}")
    check_size(thinning, "thinning")
    if sweeps - burn_in < thinning:
        raise DomainError("no sweeps left to record after burn-in and thinning")
    p = _check_exponent(p)

    chain = MetropolisChain(n, beta, _rng(seed), initial_step)
    h_start = hamiltonian(chain.config())
    values = []
    for k in range(1, sweeps + 1):
        chain.sweep()
        if k <= burn_in:
            if k % _ADAPT_INTERVAL == 0:
                chain.adapt()
        elif (k - burn_in) % thinning == 0:
            values.append(_statistic(chain.positions, p))
    h_end = hamiltonian(chain.config())
    drift_error = chain.accumulated_delta - (h_end - h_start)
    if abs(drift_error) > _ENERGY_TOLERANCE * max(1.0, abs(h_start), abs(h_end)):
        raise NumericalError(
            f"Metropolis energy bookkeeping drifted: accumulated dH "
            f"{chain.accumulated_delta!r} but H(end) - H(start) = "
            f"{h_end - h_start!r}")
    return SampleBatch(
        np.asarray(values), p, chain.n, float(beta), int(seed), "mcmc",
        {
            "sweeps": sweeps,
            "burn_in": burn_in,
            "thinning": thinning,
            "initial_step": float(initial_step),
            "final_step": chain.step,
            "acceptance_rate": chain.acceptance_rate,
            "accumulated_delta": chain.accumulated_delta,
            "energy_drift_error": drift_error,
            "ess": _ess(np.asarray(values)),
        },
    )


def _ess(x: np.ndarray) -> float:
    """Effective sample size n / tau of a chain's values, at most n.

    tau = -1 + 2 sum_k P_k, where P_k = rho(2k) + rho(2k+1) are sums of
    adjacent autocorrelations, cut before the first non-positive pair and
    made non-increasing: Geyer's initial monotone sequence (1992).  The
    lags are summed one at a time up to the cut, which is short for a
    mixing chain.
    """
    n = x.size
    d = x - x.mean()
    scale = float(d @ d)
    if not scale > 0.0:
        return float(n)
    tau, prev = -1.0, math.inf
    for k in range(0, n - 1, 2):
        pair = float(d[:n - k] @ d[k:] + d[:n - k - 1] @ d[k + 1:]) / scale
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    return float(n / max(tau, 1.0))
