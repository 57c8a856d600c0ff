"""Samplers: exact determinantal draws and the general-coupling Metropolis chain."""

import math

import numpy as np
import pytest

from ocp2d import (
    DomainError,
    MetropolisChain,
    PlasmaConfig,
    SampleBatch,
    SingularityError,
    exact_moment,
    hamiltonian,
    radial_statistic,
    sample_kostlan,
    sample_mcmc,
)


# --- configurations and observables -------------------------------------------

def test_config_shape_and_radii():
    pos = np.array([[1.0, 0.0], [0.0, 2.0], [-0.5, 0.5]])
    cfg = PlasmaConfig(pos)
    assert cfg.n == 3
    assert cfg.radii() == pytest.approx([1.0, 2.0, math.hypot(0.5, 0.5)])


def test_config_validation():
    with pytest.raises(DomainError):
        PlasmaConfig(np.zeros((3,)))
    with pytest.raises(DomainError):
        PlasmaConfig(np.zeros((0, 2)))
    with pytest.raises(DomainError):
        PlasmaConfig(np.zeros((2, 2)), beta=-1.0)
    with pytest.raises(DomainError):
        PlasmaConfig(np.array([[np.inf, 0.0]]))


def test_radial_statistic_mean_and_max():
    pos = np.array([[0.6, 0.0], [0.0, 0.8], [1.0, 0.0]])
    cfg = PlasmaConfig(pos)
    assert radial_statistic(cfg, 2.0) == pytest.approx((0.36 + 0.64 + 1.0) / 3.0)
    assert radial_statistic(cfg, 1.0) == pytest.approx((0.6 + 0.8 + 1.0) / 3.0)
    assert radial_statistic(cfg, math.inf) == 1.0


def test_hamiltonian_rotation_invariance():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(12, 2)) * 0.4
    theta = 0.63
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    h0 = hamiltonian(PlasmaConfig(pos))
    h1 = hamiltonian(PlasmaConfig(pos @ rot.T))
    assert h1 == pytest.approx(h0, rel=1e-12)


def test_hamiltonian_not_translation_invariant():
    pos = np.array([[0.1, 0.0], [-0.1, 0.0]])
    h0 = hamiltonian(PlasmaConfig(pos))
    h1 = hamiltonian(PlasmaConfig(pos + 1.0))
    assert h1 > h0  # confinement grows away from the origin


def test_hamiltonian_coincident_points_raise():
    pos = np.array([[0.3, 0.3], [0.3, 0.3], [0.0, 0.1]])
    with pytest.raises(SingularityError):
        hamiltonian(PlasmaConfig(pos))


def test_sample_batch_statistics():
    vals = np.array([0.2, 0.4, 0.9, 0.5])
    batch = SampleBatch(vals, 1.0, 4, 2.0, 0, "test", {})
    assert batch.count == 4
    assert batch.mean() == pytest.approx(vals.mean())
    assert batch.variance() == pytest.approx(vals.var(ddof=1))
    assert batch.std_error() == pytest.approx(
        math.sqrt(vals.var(ddof=1) / 4.0)
    )


def test_sample_batch_validation():
    with pytest.raises(DomainError):
        SampleBatch(np.array([]), 1.0, 4, 2.0, 0, "test", {})
    with pytest.raises(DomainError):
        SampleBatch(np.array([0.1, np.nan]), 1.0, 4, 2.0, 0, "test", {})
    with pytest.raises(DomainError):
        SampleBatch(np.array([0.1, -0.2]), 1.0, 4, 2.0, 0, "test", {})


# --- exact determinantal sampler ------------------------------------------------

def test_kostlan_deterministic_and_seed_sensitive():
    a = sample_kostlan(30, 50, 1.0, 123)
    b = sample_kostlan(30, 50, 1.0, 123)
    c = sample_kostlan(30, 50, 1.0, 124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_kostlan_mean_matches_exact_moment():
    # n=10, quadratic statistic: exact ensemble mean is (n+1)/(2n) = 0.55
    batch = sample_kostlan(10, 100_000, 2.0, 42)
    assert batch.mean() == pytest.approx(0.55, abs=4 * batch.std_error())


def test_kostlan_single_particle_extreme_law():
    # n=1: the only radius has density 2 x e^{-x^2}; CDF 1 - e^{-x^2}
    batch = sample_kostlan(1, 10_000, math.inf, 7)
    z = np.sort(batch.values)
    cdf = 1.0 - np.exp(-z * z)
    grid = np.arange(1, z.size + 1) / z.size
    ks = np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / z.size - cdf)).max()
    assert ks < 0.02


def test_kostlan_chunking_boundary_consistent():
    # counts straddling the internal chunk size must join seamlessly
    big = sample_kostlan(5, 1030, 1.0, 99)
    assert big.count == 1030
    assert np.isfinite(big.values).all()
    assert (big.values > 0).all()


def test_kostlan_metadata_and_ids():
    batch = sample_kostlan(12, 8, 2.5, 3)
    assert batch.sampler_id == "kostlan"
    assert batch.n == 12 and batch.seed == 3 and batch.beta == 2.0


def test_kostlan_validation():
    with pytest.raises(DomainError):
        sample_kostlan(0, 10, 1.0, 0)
    with pytest.raises(DomainError):
        sample_kostlan(5, 0, 1.0, 0)
    with pytest.raises(DomainError):
        sample_kostlan(5, 10, -1.0, 0)
    with pytest.raises(DomainError, match="seed"):
        sample_kostlan(5, 3, 2.0, -1)


# --- Metropolis chain -------------------------------------------------------------

def test_mcmc_deterministic_given_seed():
    a = sample_mcmc(6, 2.0, sweeps=40, burn_in=10, thinning=2, p=2.0, seed=11)
    b = sample_mcmc(6, 2.0, sweeps=40, burn_in=10, thinning=2, p=2.0, seed=11)
    assert np.array_equal(a.values, b.values)
    assert a.metadata == b.metadata


def test_mcmc_energy_bookkeeping_is_exact():
    # the running sum of accepted increments must track the true energy
    chain = MetropolisChain(10, 2.0, np.random.default_rng(4), 0.25)
    h0 = hamiltonian(chain.config())
    for _ in range(300):
        chain.sweep()
    drift = hamiltonian(chain.config()) - h0
    assert chain.accumulated_delta == pytest.approx(drift, abs=1e-8)


def test_mcmc_adaptation_lands_in_target_window():
    batch = sample_mcmc(16, 2.0, sweeps=1200, burn_in=400, thinning=4,
                        p=2.0, seed=8)
    assert 0.2 <= batch.metadata["acceptance_rate"] <= 0.6
    assert batch.metadata["final_step"] > 0.0


def test_mcmc_record_count():
    batch = sample_mcmc(5, 2.0, sweeps=110, burn_in=10, thinning=4, p=1.0, seed=2)
    assert batch.count == (110 - 10) // 4
    assert batch.sampler_id == "mcmc"


def test_mcmc_matches_exact_sampler_at_unit_coupling_ratio():
    # beta = 2 chain against the determinantal sampler, coarse KS gate
    mc = sample_mcmc(8, 2.0, sweeps=4200, burn_in=200, thinning=2, p=2.0, seed=31)
    ko = sample_kostlan(8, 4000, 2.0, 77)
    a, b = np.sort(mc.values), np.sort(ko.values)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    ks = np.abs(fa - fb).max()
    assert ks < 0.05


def test_mcmc_validation():
    with pytest.raises(DomainError):
        sample_mcmc(5, 2.0, sweeps=10, burn_in=10, thinning=1, p=1.0, seed=0)
    with pytest.raises(DomainError):
        sample_mcmc(5, 2.0, sweeps=20, burn_in=10, thinning=0, p=1.0, seed=0)
    with pytest.raises(DomainError):
        sample_mcmc(5, 2.0, sweeps=12, burn_in=10, thinning=5, p=1.0, seed=0)
    with pytest.raises(DomainError):
        sample_mcmc(5, -2.0, sweeps=20, burn_in=5, thinning=1, p=1.0, seed=0)
    with pytest.raises(DomainError, match="seed"):
        sample_mcmc(5, 2.0, sweeps=20, burn_in=5, thinning=1, p=1.0, seed=-1)
