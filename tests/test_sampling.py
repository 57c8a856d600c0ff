"""Samplers: exact determinantal draws and the general-coupling Metropolis chain."""

import hashlib
import math

import numpy as np
import pytest

from ocp2d import (
    DomainError,
    MetropolisChain,
    NumericalError,
    PlasmaConfig,
    SampleBatch,
    SingularityError,
    exact_moment,
    hamiltonian,
    radial_statistic,
    sample_kostlan,
    sample_mcmc,
)
from ocp2d import edge_cdf_log, sampling
from ocp2d.exact import _edge_factors


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


# r^p overflows at the first two; at the third each r^p is finite and only
# the sum overflows.  The suite turns a RuntimeWarning into a failure.
@pytest.mark.parametrize("pos,p", [([[2.0, 0.0]], 1e5), ([[0.5, 0.0], [3.0, 0.0]], 1e3),
                                   ([[1e154, 0.0], [1e154, 0.0]], 2.0)])
def test_radial_statistic_that_overflows_is_a_numerical_error(pos, p):
    n = len(pos)
    with pytest.raises(NumericalError, match=f"n = {n}, p = {p!r}"):
        radial_statistic(PlasmaConfig(np.array(pos)), p)


def test_samplers_whose_statistic_overflows_raise_a_numerical_error():
    with pytest.raises(NumericalError, match=r"n = 5, p = 100000\.0"):
        sample_kostlan(5, 5, 1e5, 1)
    with pytest.raises(NumericalError, match=r"n = 10, p = 700\.0"):
        sample_kostlan(10, 5, 700.0, 1)   # n^{-1-p/2} underflows
    with pytest.raises(NumericalError, match=r"n = 4, p = 100000\.0"):
        sample_mcmc(4, 2.0, 20, 10, 1, 1e5, 1)
    # n^{-1-p/2} = 1 passes; then every draw g^{p/2} overflows
    with pytest.raises(NumericalError, match=r"n = 1, p = 100000\.0"):
        sample_kostlan(1, 5, 1e5, 1)


def test_sample_batch_variance_needs_two_draws():
    batch = SampleBatch(np.array([0.2]), 1.0, 4, 2.0, 0, "test", {})
    assert batch.mean() == 0.2
    with pytest.raises(DomainError, match="at least two draws"):
        batch.variance()


def test_mcmc_adapt_before_any_sweep_keeps_the_step():
    chain = MetropolisChain(5, 2.0, sampling._rng(3), 0.25)
    chain.adapt()
    assert chain.step == 0.25


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pos", [
    [[1e200, 0.0], [0.0, 0.0]],           # |z|^2 overflows
    [[1.3e154, 0.0], [0.0, 1.3e154]],     # each |z|^2 fits, their sum does not
    [[1e308, 0.0], [-1e308, 0.0]],        # so does z_i - z_j
], ids=["square", "sum", "pair"])
def test_hamiltonian_beyond_the_doubles_is_a_numerical_error(pos):
    # the first read inf with a numpy overflow warning, where
    # radial_statistic of the same configuration already refused
    with pytest.raises(NumericalError, match="the energy at n = 2 leaves the doubles"):
        hamiltonian(PlasmaConfig(np.array(pos)))


@pytest.mark.parametrize("n", [2, 7, 64])
def test_hamiltonian_matches_pair_loop(n):
    pos = np.random.default_rng(n).normal(size=(n, 2)) * 0.6
    pair = math.fsum(-math.log(math.hypot(*(pos[i] - pos[j])))
                     for i in range(n) for j in range(i + 1, n))
    direct = pair + 0.5 * n * math.fsum((pos ** 2).sum(axis=1))
    assert hamiltonian(PlasmaConfig(pos)) == pytest.approx(direct, rel=1e-12)


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

def test_rng_is_keyed_by_seed_and_stream():
    # chains keyed by stream get reproducible and distinct streams
    for stream in range(4):
        assert np.array_equal(sampling._rng(5, stream).bit_generator.random_raw(8),
                              sampling._rng(5, stream).bit_generator.random_raw(8))
    assert len({sampling._rng(5, stream).random() for stream in range(4)}) == 4


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
    assert batch.metadata["variates_per_draw"] == 12


def test_kostlan_finite_p_draws_are_pinned():
    # p != 2 draws all n shapes per draw: no change to the p = inf shape cut
    # or the p = 2 route may move these values, only one to the stream
    values = sample_kostlan(25, 120, 1.0, 5).values
    assert values[:3].tolist() == [0.7087319632470491, 0.6481015079254768,
                                   0.6734799892804546]
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == (
        "bfa5e07181d44ca6ac895c254024f2372fd27fa9bef590c0c1512ae48fa3c5c1")


def test_kostlan_quadratic_draws_are_pinned():
    # p = 2 draws one Gamma(n(n+1)/2) variate per draw
    values = sample_kostlan(25, 120, 2.0, 5).values
    assert values[:3].tolist() == [0.5096878202855675, 0.5403224168149724,
                                   0.5326824403445739]
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == (
        "f997e0f4c1847a37f761200733fc556dd14b01b1dafe00d167000c66abe6632b")


@pytest.mark.parametrize("n", [1, 3, 100])
def test_kostlan_quadratic_route_matches_the_sum_of_n_shapes(n):
    # the one-variate route against the sum of Gamma(1..n), drawn here as
    # the reference, and against the moments of Gamma(n(n+1)/2) / n^2
    count = 20_000
    batch = sample_kostlan(n, count, 2.0, 31)
    assert batch.metadata["variates_per_draw"] == 1
    rng = np.random.default_rng(32)
    reference = rng.standard_gamma(np.arange(1.0, n + 1.0),
                                   size=(count, n)).sum(axis=1) / n**2
    a, b = np.sort(batch.values), np.sort(reference)
    grid = np.concatenate([a, b])
    ks = np.abs(np.searchsorted(a, grid, side="right")
                - np.searchsorted(b, grid, side="right")).max() / count
    assert ks < 2.23 * math.sqrt(2.0 / count)   # false alarm 1e-4
    shape = n * (n + 1) / 2.0
    mean, var = shape / n**2, shape / n**4
    assert abs(batch.mean() - mean) < 5.0 * math.sqrt(var / count)
    # Var(sample variance) = var^2 (2 + 6 / shape) / count for a gamma law
    assert abs(batch.variance() / var - 1.0) < 5.0 * math.sqrt(
        (2.0 + 6.0 / shape) / count)


def test_kostlan_maximum_skips_the_bottom_shapes():
    assert [sampling._skipped_shapes(n) for n in (1, 26, 27, 200, 2000)] == [
        0, 13, 14, 164, 1888]
    batch = sample_kostlan(200, 50, math.inf, 3)
    assert batch.metadata["top_shapes"] == batch.metadata["variates_per_draw"] == 36
    assert 0 <= batch.metadata["tail_inversions"] <= 50
    assert "top_shapes" not in sample_kostlan(200, 50, 2.0, 3).metadata


@pytest.mark.parametrize("n", [30, 42, 200, 2000, 20000])
def test_kostlan_cut_keeps_the_exact_path_rare(n):
    # for y > a the exact tail path needs M <= y or ln V below the bound at
    # y, so its chance is at most Pr[M <= y] + e^{bound(a, y)}; minimised
    # over y near n this stays below 3.5e-2 at the production cut (at most
    # 3.1e-2, at n = 36, over n <= 3000)
    a = sampling._skipped_shapes(n)
    ys = [y for y in n + math.sqrt(n) * np.linspace(-6.0, 4.0, 41) if y > a]

    def log_top_factors(y):   # the factors k > a of the edge band at y
        k0, _, log_p = _edge_factors(n, math.sqrt(y / n), y)
        return float(log_p[max(a - k0, 0):].sum())

    rate = min(math.exp(log_top_factors(y))
               + math.exp(sampling._tail_log_bound(a, y)) for y in ys)
    assert rate <= 3.5e-2


def test_kostlan_maximum_rarely_takes_the_exact_path():
    batch = sample_kostlan(2000, 10_000, math.inf, 20231)
    assert batch.metadata["tail_inversions"] <= 20   # about 5 expected
    assert batch.metadata["tail_solves"] <= batch.metadata["tail_inversions"]


@pytest.mark.parametrize("a", [1, 5, 40, 400, 1832, 18650])
def test_kostlan_tail_bound_covers_the_skipped_maximum(a):
    for y in a + math.sqrt(a) * np.array([0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]):
        survival = -math.expm1(edge_cdf_log(a, math.sqrt(y / a)))
        assert sampling._tail_log_bound(a, y) >= math.log(survival)


def _edge_law_ks(n, maxima):
    """KS distance of sqrt(maxima / n) from the n-particle edge law."""
    x = np.sort(np.sqrt(maxima / n))
    cdf = np.exp([edge_cdf_log(n, v) for v in x])
    grid = np.arange(1, x.size + 1) / x.size
    return np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / x.size - cdf)).max()


def test_kostlan_forced_cut_keeps_the_exact_law():
    # 40 of 60 shapes skipped: about one draw in a thousand takes the exact
    # tail path, and the maxima must still follow the n = 60 edge law
    n, count = 60, 20_000
    top, tail, *_ = sampling._maxima(sampling._rng(11), n, 40, count)
    assert tail > 0
    assert _edge_law_ks(n, top) < 2.23 / math.sqrt(count)   # false alarm 1e-4


def test_kostlan_forced_cut_at_n200_solves_and_keeps_the_law(monkeypatch):
    # the top ceil(2 sqrt(200)) = 29 shapes only: about 60 draws evaluate
    # S(M) and about 50 solve for the skipped maximum, each in at most 20
    # evaluations of S (bisection to adjacent doubles takes about 54), and
    # the maxima must still follow the n = 200 edge law
    monkeypatch.setattr(sampling, "_skipped_shapes",
                        lambda n: n - math.ceil(2 * math.sqrt(n)))
    n, count = 200, 10_000
    batch = sample_kostlan(n, count, math.inf, 12)
    meta = batch.metadata
    assert meta["top_shapes"] == 29
    assert meta["tail_inversions"] > 0
    assert meta["tail_solves"] > 0
    assert (meta["tail_evaluations"] - meta["tail_inversions"]
            <= 20 * meta["tail_solves"])
    assert _edge_law_ks(n, n * batch.values**2) < 2.23 / math.sqrt(count)


def test_kostlan_pinned_gumbel_batch_solves_for_the_skipped_maximum():
    # the batch behind the pinned `verify gumbel --n 200 --draws 500
    # --seed 7` digest, which so covers the secant solve
    assert sample_kostlan(200, 500, math.inf, 7).metadata["tail_solves"] >= 1


def test_kostlan_production_cut_keeps_the_law_at_n200():
    n, count = 200, 20_000
    batch = sample_kostlan(n, count, math.inf, 13)
    assert batch.metadata["top_shapes"] == 36
    assert _edge_law_ks(n, n * batch.values**2) < 2.23 / math.sqrt(count)


def test_kostlan_missing_bracket_is_a_numerical_error(monkeypatch):
    # a survival function stuck at 1 leaves no point where it falls below
    # V; of 2000 draws at a cut of 40 of 60 shapes a few take the exact path
    calls = []
    monkeypatch.setattr(sampling, "edge_cdf_log",
                        lambda n, x: calls.append(x) or -math.inf)
    with pytest.raises(NumericalError, match="no bracket"):
        sampling._maxima(sampling._rng(1), 60, 40, 2000)
    assert calls


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


_MCMC_DIGESTS = {
    (1, 2.0, 2.0):
        "4094e86fd2c901231099097caa2715ee863820f8d4c13e338731ae97c12f0aff",
    (1, 2.0, math.inf):
        "5cb592847b5a6ac7d6dca68fc779c85612015c8b6831f8b004f2bdbc8ae606bd",
    (1, 4.0, 2.0):
        "3b3bd9419de04b949836af7c2e0ddea9afa1ec6cea597f64fe53c4ed70be1eb7",
    (1, 4.0, math.inf):
        "657d7fe8ab7dd70663829db8183724c128b4d5560b9880fdc841f9febb5159a0",
    (3, 2.0, 2.0):
        "70d17faf5533fcf5ee71105b7a743e42f769a4a4064ca26658ed208d656e61c2",
    (3, 2.0, math.inf):
        "2017ab4c810c51fb6d4bcfacb7487192e3ec1241c2394d00a9e2179490f9ff10",
    (3, 4.0, 2.0):
        "3e86be5dede9e89fc7a19dec35896332a0ca2820fb93481647f4cfb5adaa9e9b",
    (3, 4.0, math.inf):
        "e899aec5eb21a94cfef6065a35a8f9d43bf4722850f66d4db6eb84a337a542f5",
    (12, 2.0, 2.0):
        "f4b9b47a1c1a1db9e19d5447b5071ab8770e08782e1dbafa74501110aceab3ce",
    (12, 2.0, math.inf):
        "c03a4b977f821975e455b31d08fe12810c183239058179f42bd4bc7dfde5a8f2",
    (12, 4.0, 2.0):
        "d1f3de17662a908d9fa7da52f94d8f136833e7fbbec3127781cbcced7e9950fc",
    (12, 4.0, math.inf):
        "285b84d454760147c8656c009f73adad58324877f741a047bc3f86721884a805",
    (32, 2.0, 2.0):
        "6fa03c9dcdf369afc5e367652f568472faba9eb2244d16ec154a4f5a025c81bb",
    (32, 2.0, math.inf):
        "6edaf9f51fb4ebc3a594dc106cd1c8778ed456a590efb2d14f0ead6cb87917ec",
    (32, 4.0, 2.0):
        "735f9d2064f3eab28496ff0352091ff8c846200d1ac4444d451662597a40e977",
    (32, 4.0, math.inf):
        "bfdeb65d650b1697f9fb5e0d10409139c8093cc4607e6fb0b21e8b7d98626a9c",
}


@pytest.mark.parametrize("n, beta, p", list(_MCMC_DIGESTS))
def test_mcmc_draws_are_pinned(n, beta, p):
    # SHA-256 of the recorded values.  They see dH only through the accept
    # decisions, which rounding in dH almost never flips; a change to the
    # law or to the random calls moves them
    values = sample_mcmc(n, beta, sweeps=120, burn_in=50, thinning=2, p=p,
                         seed=7).values
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == (
        _MCMC_DIGESTS[n, beta, p])


def test_mcmc_energy_bookkeeping_is_exact():
    # the running sum of accepted increments must track the true energy
    chain = MetropolisChain(10, 2.0, np.random.default_rng(4), 0.25)
    h0 = hamiltonian(chain.config())
    for _ in range(300):
        chain.sweep()
    drift = hamiltonian(chain.config()) - h0
    assert chain.accumulated_delta == pytest.approx(drift, abs=1e-8)


def test_mcmc_energy_check_catches_a_wrong_increment(monkeypatch):
    class MiscountingChain(MetropolisChain):
        def sweep(self):
            super().sweep()
            self.accumulated_delta += 1e-6

    monkeypatch.setattr(sampling, "MetropolisChain", MiscountingChain)
    with pytest.raises(NumericalError, match="bookkeeping"):
        sample_mcmc(6, 2.0, sweeps=40, burn_in=10, thinning=2, p=2.0, seed=11)


def test_mcmc_reports_energy_drift_error():
    batch = sample_mcmc(6, 2.0, sweeps=40, burn_in=10, thinning=2, p=2.0, seed=11)
    assert abs(batch.metadata["energy_drift_error"]) <= 1e-10


class _ScriptedRng:
    """Draws for a chain on the real axis whose proposals are set in advance."""

    def __init__(self, radii_squared, order, normals):
        self.uniforms = [np.zeros(len(radii_squared)), np.array(radii_squared)]
        self.order, self.normals = np.array(order), np.array(normals)

    def uniform(self, low, high, size):
        return self.uniforms.pop(0)

    def permutation(self, n):
        return self.order

    def standard_normal(self, shape):
        return self.normals

    def random(self, size):
        return np.full(size, 1e-300)


def _scripted_chain(order, normals):
    # particles at 0.5, 0.25 and 0.75; the step is 0.25, and the tiny
    # uniform accepts any finite increase
    chain = MetropolisChain(3, 2.0, _ScriptedRng([0.25, 0.0625, 0.5625],
                                                 order, normals), 0.25)
    assert chain.positions[:, 0].tolist() == [0.5, 0.25, 0.75]
    return chain


def test_mcmc_proposal_onto_another_particle_is_rejected():
    # each proposal lands exactly on another particle
    chain = _scripted_chain([0, 1, 2], [[-1.0, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    chain.sweep()
    assert chain.accepted == 0 and chain.proposed == 3
    assert chain.positions[:, 0].tolist() == [0.5, 0.25, 0.75]
    assert chain.accumulated_delta == 0.0


def test_mcmc_proposal_onto_a_vacated_site_is_accepted():
    # 0.5 -> 1.0, then 0.25 -> 0.5, the site the first move vacated: its
    # increment is finite although the start-of-sweep logs hold log 0
    chain = _scripted_chain([0, 1, 2], [[2.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    h0 = hamiltonian(chain.config())
    chain.sweep()
    assert chain.accepted == 3
    assert chain.positions[:, 0].tolist() == [1.0, 0.5, 1.25]
    assert chain.accumulated_delta == pytest.approx(
        hamiltonian(chain.config()) - h0, abs=1e-12)


def test_mcmc_proposal_onto_an_accepted_proposal_is_rejected():
    # 0.5 -> 1.0 is accepted, then 0.25 -> 1.0 lands on it
    chain = _scripted_chain([0, 1, 2], [[2.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
    h0 = hamiltonian(chain.config())
    chain.sweep()
    assert chain.accepted == 2
    assert chain.positions[:, 0].tolist() == [1.0, 0.25, 1.25]
    assert chain.accumulated_delta == pytest.approx(
        hamiltonian(chain.config()) - h0, abs=1e-12)


def test_mcmc_proposals_that_overflow_are_rejected_without_a_warning():
    # at a step of 1e308 every proposal's confinement energy overflows and
    # some proposals are inf, so new - new holds inf - inf: each move is
    # rejected, and no RuntimeWarning escapes
    batch = sample_mcmc(3, 2.0, 30, 0, 1, math.inf, 1, 1e308)
    assert batch.metadata["acceptance_rate"] == 0.0
    assert len(set(batch.values.tolist())) == 1
    chain = MetropolisChain(3, 2.0, np.random.default_rng(1), 1e200)
    start = chain.positions.copy()
    chain.sweep()
    assert chain.accepted == 0 and (chain.positions == start).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mcmc_degenerate_sizes_keep_their_bookkeeping(n):
    # the (3n, n) log array is (3, 1), (6, 2) and (9, 3) here
    chain = MetropolisChain(n, 2.0, np.random.default_rng(n), 0.5)
    h0 = hamiltonian(chain.config())
    for _ in range(200):
        chain.sweep()
    assert 0 < chain.accepted < chain.proposed == 200 * n
    assert chain.accumulated_delta == pytest.approx(
        hamiltonian(chain.config()) - h0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mcmc_degenerate_sizes_match_the_exact_mean(n):
    # at beta = 2 the quadratic statistic has mean (n + 1) / (2n)
    batch = sample_mcmc(n, 2.0, sweeps=10_200, burn_in=200, thinning=1,
                        p=2.0, seed=40 + n)
    se = math.sqrt(batch.variance() / batch.metadata["ess"])
    assert batch.mean() == pytest.approx((n + 1) / (2 * n), abs=4 * se)


def _energy_and_spacing(z):
    """H and the mean nearest-neighbour distance of each row of z."""
    n = z.shape[-1]
    d = np.abs(z[..., :, None] - z[..., None, :])
    i = np.arange(n)
    d[..., i, i] = np.inf
    spacing = d.min(axis=-1).mean(axis=-1)
    d[..., i, i] = 1.0
    confinement = 0.5 * n * (np.abs(z) ** 2).sum(axis=-1)
    return confinement - 0.5 * np.log(d).sum(axis=(-2, -1)), spacing


def _ginibre_eigenvalues(n, count, seed):
    # complex Ginibre matrices with entry variance 1/n: at beta = 2 their
    # eigenvalues have the law of the whole configuration (Ginibre 1965)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return np.linalg.eigvals(g / math.sqrt(2 * n))


def _batch_mean(x, batches=40):
    means = x[:x.size // batches * batches].reshape(batches, -1).mean(axis=1)
    return means.mean(), means.std(ddof=1) / math.sqrt(batches)


def test_mcmc_pair_statistics_match_ginibre():
    # the energy and the nearest-neighbour distance depend on the angles,
    # which no radial statistic sees: they pin the chain's cross terms
    n, sweeps = 12, 16_000
    chain = MetropolisChain(n, 2.0, sampling._rng(12), 0.25)
    for k in range(1, 501):
        chain.sweep()
        if k % sampling._ADAPT_INTERVAL == 0:
            chain.adapt()
    states = np.empty((sweeps, n), dtype=complex)
    for k in range(sweeps):
        chain.sweep()
        states[k] = chain.z
    exact = _energy_and_spacing(_ginibre_eigenvalues(n, 6000, 1965))
    for got, want in zip(_energy_and_spacing(states), exact):
        mean, se = _batch_mean(got)
        se_want = want.std(ddof=1) / math.sqrt(want.size)
        assert abs(mean - want.mean()) <= 4.0 * math.hypot(se, se_want)


def test_mcmc_records_the_radial_statistic_of_the_chain():
    for p in (0.5, 2.0, math.inf):
        batch = sample_mcmc(7, 3.0, sweeps=30, burn_in=10, thinning=4, p=p, seed=5)
        # the burn-in is shorter than the adaptation interval: no adapt call
        chain = MetropolisChain(7, 3.0, sampling._rng(5), 0.25)
        want = []
        for k in range(1, 31):
            chain.sweep()
            if k > 10 and (k - 10) % 4 == 0:
                want.append(radial_statistic(chain.config(), p))
        assert batch.values.tolist() == want


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8])
def test_ess_of_an_ar1_series(phi):
    # an AR(1) series has integrated autocorrelation time (1 + phi) / (1 - phi)
    n = 100_000
    noise = np.random.default_rng(17).standard_normal(n).tolist()
    x = [noise[0] / math.sqrt(1.0 - phi * phi)]
    for e in noise[1:]:
        x.append(phi * x[-1] + e)
    want = n * (1.0 - phi) / (1.0 + phi)
    assert sampling._ess(np.array(x)) == pytest.approx(want, rel=0.1)


def test_ess_of_constant_or_short_series():
    assert sampling._ess(np.full(50, 0.5)) == 50.0
    assert sampling._ess(np.array([0.2])) == 1.0


def test_mcmc_reports_its_ess():
    batch = sample_mcmc(8, 2.0, sweeps=600, burn_in=100, thinning=1, p=2.0, seed=3)
    assert 1.0 < batch.metadata["ess"] <= batch.count
    assert batch.metadata["ess"] == sampling._ess(batch.values)


def test_mcmc_positions_view_the_chain_state():
    chain = MetropolisChain(9, 2.0, np.random.default_rng(3), 0.25)
    for _ in range(5):
        chain.sweep()
        assert chain.positions.shape == (9, 2)
        assert np.shares_memory(chain.positions, chain.z)
        assert np.array_equal(chain.positions[:, 0] + 1j * chain.positions[:, 1],
                              chain.z)
        cfg = chain.config()
        assert np.array_equal(cfg.positions, chain.positions)
        assert not np.shares_memory(cfg.positions, chain.positions)


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


@pytest.mark.parametrize("sweeps,burn_in,thinning,name", [
    (100.7, 10, 1, "sweeps"),
    (math.inf, 10, 1, "sweeps"),
    (math.nan, 10, 1, "sweeps"),
    (100, 10.5, 1, "burn_in"),
    (100, 10, 1.5, "thinning"),
    (100, -1, 1, "burn_in"),
])
def test_mcmc_counts_must_be_whole_numbers(sweeps, burn_in, thinning, name):
    with pytest.raises(DomainError, match=name):
        sample_mcmc(8, 2.0, sweeps, burn_in, thinning, p=2, seed=1)
