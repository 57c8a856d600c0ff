"""Samplers for the planar log-gas and its radial statistics.

Two routes to draws of the radial moment statistic:

* an exact sampler at coupling beta = 2, using the fact that the squared
  moduli are distributed as independent gamma variables of shapes 1..n
  (scaled by n) — fast, embarrassingly parallel, no autocorrelation;
* a single-particle Metropolis chain valid at any beta > 0.

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

from .errors import DomainError, NumericalError, SingularityError

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
_ADAPT_INTERVAL = 25  # sweeps between step-size adjustments during burn-in
_TARGET_ACCEPTANCE = (0.3, 0.5)
# Largest |accumulated dH - (H_end - H_start)| allowed, relative to
# max(1, |H_start|, |H_end|), at the end of a Metropolis run.
_ENERGY_TOLERANCE = 1e-8


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream),))
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
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "positions", pos)
        if self.n == 0:
            object.__setattr__(self, "n", pos.shape[0])
        elif self.n != pos.shape[0]:
            raise DomainError(f"n={self.n} but {pos.shape[0]} positions given")

    def radii(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


def radial_statistic(config: PlasmaConfig, p: float) -> float:
    """(1/n) sum r_k^p for finite p; the maximum modulus for p = inf."""
    r = config.radii()
    if p == math.inf:
        return float(r.max())
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise DomainError(f"statistic exponent must be positive, got {p}")
    return math.fsum(r**p) / config.n


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


def sample_kostlan(n: int, count: int, p: float, seed: int) -> SampleBatch:
    """Exact draws of the radial statistic at coupling 2.

    The squared moduli of the gas, multiplied by n, are distributed like
    independent gamma variables of shapes 1..n, so a draw of the statistic
    needs n gamma variates and no angular coordinates (the statistic is
    rotation-invariant).  Chunked to bound memory at large count.
    """
    n = int(n)
    count = int(count)
    if n < 1 or count < 1:
        raise DomainError(f"need n >= 1 and count >= 1, got n={n}, count={count}")
    if p != math.inf and (not math.isfinite(p) or p <= 0.0):
        raise DomainError(f"statistic exponent must be positive or inf, got {p}")
    rng = _rng(seed)
    shapes = np.arange(1, n + 1, dtype=float)
    out = np.empty(count, dtype=float)
    for start in range(0, count, _GAMMA_CHUNK):
        m = min(_GAMMA_CHUNK, count - start)
        g = rng.standard_gamma(shapes, size=(m, n))
        if p == math.inf:
            out[start:start + m] = np.sqrt(g.max(axis=1) / n)
        else:
            out[start:start + m] = n ** (-1.0 - 0.5 * p) * (g ** (0.5 * p)).sum(axis=1)
    return SampleBatch(out, p, n, 2.0, int(seed), "kostlan",
                       {"chunk": _GAMMA_CHUNK})


class MetropolisChain:
    """Single-particle Metropolis chain targeting exp(-beta H).

    Each move displaces one uniformly chosen particle by an isotropic
    Gaussian step and accepts with probability min(1, e^{-beta dH}).  The
    chain keeps the pair logs ``pair_logs[i, j] = log|z_i - z_j|`` (zero on
    the diagonal) and their row sums ``pair_log_sums``, so a move computes
    only the proposed row, O(n), and an accepted move rewrites that row and
    column.  ``z`` holds the positions as complex numbers and ``positions``
    is its (n, 2) float view.  ``adapt`` nudges the step size toward an
    acceptance rate in [0.3, 0.5]; call it only during burn-in — the
    recorded chain must run at a frozen step size.  Proposals landing
    exactly on another particle are rejected outright.
    """

    def __init__(self, n: int, beta: float, rng: np.random.Generator,
                 initial_step: float = 0.25):
        n = int(n)
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        if not (math.isfinite(beta) and beta > 0.0):
            raise DomainError(f"beta must be positive, got {beta}")
        if not (math.isfinite(initial_step) and initial_step > 0.0):
            raise DomainError(f"step size must be positive, got {initial_step}")
        self.n = n
        self.beta = float(beta)
        self.rng = rng
        self.step = float(initial_step)
        # i.i.d. uniform on the unit disk: inside the limiting support.
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        self.z = np.empty(n, dtype=complex)
        self.z.real = radius * np.cos(theta)
        self.z.imag = radius * np.sin(theta)
        self.positions = self.z.view(float).reshape(n, 2)
        dist = np.abs(self.z[:, None] - self.z)
        np.fill_diagonal(dist, 1.0)
        self.pair_logs = np.log(dist)
        self.pair_log_sums = self.pair_logs.sum(axis=1)
        self.accepted = 0
        self.proposed = 0
        self._window_accepted = 0
        self._window_proposed = 0
        self.accumulated_delta = 0.0

    def sweep(self) -> None:
        """n moves, with the sweep's randomness drawn in three calls:
        particle indices, Gaussian steps, then acceptance uniforms."""
        n, z, logs, sums = self.n, self.z, self.pair_logs, self.pair_log_sums
        index = self.rng.integers(n, size=n).tolist()
        steps = (self.step * self.rng.standard_normal((n, 2))).view(complex)
        uniforms = self.rng.random(n)
        half_n, beta = 0.5 * n, self.beta
        accepted = 0
        with np.errstate(divide="ignore"):
            for i, dz, lu in zip(index, steps.ravel().tolist(),
                                 np.log(uniforms).tolist()):
                old = complex(z[i])
                new = old + dz
                row = np.log(np.abs(z - new))
                row[i] = 0.0
                total = float(row.sum())
                # A proposal on another particle has total = -inf, dH = +inf.
                delta = float(sums[i]) - total + half_n * (
                    new.real * new.real + new.imag * new.imag
                    - old.real * old.real - old.imag * old.imag)
                if lu < -beta * delta:
                    z[i] = new
                    sums -= logs[i]
                    sums += row
                    sums[i] = total
                    logs[i] = row
                    logs[:, i] = row
                    self.accumulated_delta += delta
                    accepted += 1
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
    if thinning < 1:
        raise DomainError(f"thinning must be >= 1, got {thinning}")
    if sweeps - burn_in < thinning:
        raise DomainError("no sweeps left to record after burn-in and thinning")
    if p != math.inf and (not math.isfinite(p) or p <= 0.0):
        raise DomainError(f"statistic exponent must be positive or inf, got {p}")

    chain = MetropolisChain(n, beta, _rng(seed), initial_step)
    h_start = hamiltonian(chain.config())
    values = []
    for k in range(1, sweeps + 1):
        chain.sweep()
        if k <= burn_in:
            if k % _ADAPT_INTERVAL == 0:
                chain.adapt()
        elif (k - burn_in) % thinning == 0:
            values.append(radial_statistic(chain.config(), p))
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
        },
    )
