"""The cached partition lattice, the block-product kernel and the lattice's
sparse Mobius matrix against the dict-of-rates, loop and pairwise-scan
oracles."""

import itertools
import math
import time

import numpy as np
import pytest

import oracles
from moranrec import partitions
from moranrec import (
    BackwardModel,
    DiffusionRates,
    Measure,
    PopulationState,
    RecombinationDistribution,
    SampleTooLargeError,
    SiteSpace,
    SizeCapError,
    coarsest,
    enumerate_partitions,
    expected_sampling,
    finest,
    generator_theta,
    lde_conjugation_3site,
    lde_operator,
    lde_trajectory,
    lde_transform,
    lde_transform_diffusion,
    marginalize,
    measure_from_counts,
    recombinator_bar,
    sampling,
    sampling_bar,
    sampling_table,
)
from moranrec.expectations import sampling_stack
from moranrec.markov import count_population_states
from moranrec.partitions import _lattices, lattice

from util import binary_space, random_population, random_recomb

CASES = [(n, N) for n in range(1, 6) for N in (n, n + 3, 40)]


def table_space(n: int, N: int, limit: int = 60) -> SiteSpace:
    """Binary on as many leading sites as keeps the population states few."""
    for k in range(n, 0, -1):
        space = SiteSpace((2,) * k + (1,) * (n - k))
        if count_population_states(space.total_states, N) <= limit:
            return space
    raise AssertionError("no small space")


@pytest.mark.parametrize("n", range(0, 7))
def test_mobius_matrix_equals_oracle_and_zeta_inverts_it(n):
    parts = enumerate_partitions(range(1, n + 1))
    M = lattice(n).mobius
    assert np.array_equal(M.toarray(), oracles.mobius_matrix(parts))
    Z = (M.toarray() != 0).astype(float)  # the zeta matrix is M's nonzero pattern
    assert np.array_equal(Z, [[oracles.refines(a, b) for b in parts] for a in parts])
    assert np.array_equal(Z @ M.toarray(), np.eye(len(parts)))
    for i, a in enumerate(parts):  # each row holds the coarsenings of its partition
        row = M.toarray()[i]
        assert {(parts[j], row[j]) for j in np.flatnonzero(row)} == set(
            oracles.coarsenings_with_mobius(a))


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("N", (1, 2, 3, 9, 20))
def test_theta_of_every_variant_matches_dict_oracle(n, N):
    recomb = random_recomb(n, 7 * n + N)
    rho = DiffusionRates(n, tuple(np.random.default_rng(n + N).uniform(0, 3, n - 1)))
    for variant in ("finite", "deterministic", "diffusion"):
        model = BackwardModel(n, N, recomb, variant, rho)
        states, old = oracles.generator_from_rates(model)
        assert tuple(enumerate_partitions(model.sites)) == states
        assert np.abs(generator_theta(model).matrix.toarray() - old).max() <= 1e-14


def test_theta_with_a_zero_and_a_full_crossover_matches_dict_oracle():
    for crossover in ((0.0, 1.0, 0.0), (0.3, 0.0, 0.7), (0.0, 0.0, 0.0)):
        for variant in ("finite", "deterministic"):
            model = BackwardModel(4, 5, RecombinationDistribution(4, crossover), variant)
            old = oracles.generator_from_rates(model)[1]
            assert np.abs(generator_theta(model).matrix.toarray() - old).max() <= 1e-14


@pytest.mark.parametrize("n", range(0, 9))
def test_enumeration_order_and_labels_unchanged(n):
    assert enumerate_partitions(range(1, n + 1)) == oracles.rgs_partitions(range(1, n + 1))
    sites = tuple(3 * s + 1 for s in range(n))
    assert enumerate_partitions(sites) == oracles.rgs_partitions(sites)


@pytest.mark.parametrize("k", range(0, 9))
def test_incidence_equals_loop_oracle(k):
    inc = lattice(k).incidence
    got = np.stack([inc[c].astype(np.intp) for c in ("a", "b", "split", "lo", "hi")], axis=1)
    ref = oracles.incidence(k)
    assert got.shape == ref.shape
    # the same moves as a multiset of rows, in any order
    assert np.array_equal(got[np.lexsort(got.T)], ref[np.lexsort(ref.T)])
    sizes = lattice(k).sizes
    assert np.array_equal(inc["m"], sizes[inc["a"]]) and np.array_equal(inc["nb"], sizes[inc["b"]])
    # ordered by row, each row's moves a slice between its offsets
    assert np.all(np.diff(inc["a"]) >= 0)
    counts = np.bincount(inc["a"], minlength=len(sizes))
    assert np.array_equal(inc["offsets"], np.concatenate(([0], np.cumsum(counts))))


def test_lattice_cache_is_bounded():
    maxsize = _lattices.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 100


def test_lde_transform_cache_is_bounded_and_read_only():
    maxsize = lde_transform.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 100
    T = lde_transform(3, 7)
    assert not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0] = 1.0
    assert lde_transform(3, 7) is T
    lde_transform.cache_clear()
    assert np.array_equal(lde_transform(3, 7), T)  # rebuilt, same values


def test_one_row_sampling_builds_only_the_lattice_it_reads():
    _lattices.cache_clear()
    z = measure_from_counts(SiteSpace((2,) * 8), np.arange(256) % 3)
    sampling(coarsest(range(1, 9)), z)
    info = _lattices.cache_info()
    assert (info.misses, info.currsize) == (1, 1)  # lattice(1), not lattice(8)


def test_one_row_sampling_refuses_blocks_over_the_site_cap():
    z = measure_from_counts(SiteSpace((2,) * 9), np.arange(512) % 3)
    start = time.perf_counter()
    with pytest.raises(SizeCapError):
        sampling(finest(range(1, 10)), z)
    assert time.perf_counter() - start < 1.0


def test_site_cap_is_read_at_call_time(monkeypatch):
    lattice(3)  # cached below the cap; the cap still applies to it
    monkeypatch.setattr(partitions, "DEFAULT_SITE_CAP", 2)
    with pytest.raises(SizeCapError):
        enumerate_partitions([1, 2, 3])


@pytest.mark.parametrize("n,N", CASES)
def test_sampling_stack_matches_per_partition_sampling(n, N):
    parts = enumerate_partitions(range(1, n + 1))
    z = random_population(binary_space(n), N, seed=10 * n + N)
    old = np.array([sampling(p, z.measure).weights for p in parts])
    assert np.abs(sampling_stack(z.measure.as_grid(), z.N) - old).max() <= 1e-12


@pytest.mark.parametrize("n,N", CASES)
def test_sampling_table_matches_oracle_contraction(n, N):
    space = table_space(n, N)
    table = sampling_table(space, N)
    parts = oracles.rgs_partitions(space.sites)
    M = oracles.mobius_matrix(parts)
    norm = np.array([math.factorial(N - len(p)) / math.factorial(N) for p in parts])
    states = oracles.population_states(space.total_states, N)
    assert table.shape[:2] == (len(states), len(parts))
    for zi, s in enumerate(states):
        z = PopulationState.from_counts(space, s).measure
        rbar = np.array([oracles.recombinator_bar(p, z).weights for p in parts])
        assert np.abs(table[zi] - (M @ rbar) * norm[:, None]).max() <= 1e-12


# non-contiguous site labels, so that a block is never a range of axes
LABELS = [(1,), (3,), (2, 4), (2, 4, 7), (1, 3, 4, 6), (2, 3, 5, 7, 9)]


def small_measure(sites, seed: int, counts: bool) -> Measure:
    """Random measure with alphabet sizes 1..3 on ``sites``: integer counts
    (some zero) or positive reals."""
    rng = np.random.default_rng(seed)
    cards = tuple(rng.integers(1, 4, len(sites)).tolist())
    K = math.prod(cards)
    weights = rng.integers(0, 6, K) if counts else rng.uniform(0.25, 2.0, K)
    return Measure(sites, cards, weights.astype(float))


@pytest.mark.parametrize("sites", LABELS)
@pytest.mark.parametrize("seed", [1, 2])
def test_recombinator_and_sampling_bar_equal_loop_oracles_bitwise(sites, seed):
    z = small_measure(sites, seed, counts=True)
    for a in enumerate_partitions(sites):
        assert np.array_equal(recombinator_bar(a, z).weights,
                              oracles.recombinator_bar(a, z).weights)
        assert np.array_equal(sampling_bar(a, z).weights, oracles.sampling_bar(a, z).weights)


@pytest.mark.parametrize("sites", LABELS)
@pytest.mark.parametrize("counts", [True, False])
def test_lde_operator_matches_loop_oracle(sites, counts):
    m = small_measure(sites, 7, counts)
    for a in enumerate_partitions(sites):
        got = lde_operator(a, m)
        assert np.abs(got.weights - oracles.lde_operator(a, m).weights).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 6))
def test_marginal_laws_match_restriction_sums(n):
    recomb = random_recomb(n, 60 + n)
    rates = DiffusionRates(n, tuple(np.random.default_rng(n).uniform(0, 3, n - 1)))
    for k in range(1, n + 1):
        for u in itertools.combinations(range(1, n + 1), k):
            sub, sub_rates = recomb.marginal(u), rates.marginal(u)
            splits = oracles.ordered_partitions_le2(u)
            probs = (sub.r_whole, *sub.crossover)
            for b, p in zip(splits, probs):
                assert abs(p - oracles.marginal_recomb_prob(recomb, u, b)) <= 1e-15
            for b, rho in zip(splits[1:], sub_rates.rho, strict=True):
                assert rho == oracles.marginal_split_rate(rates, u, b)


@pytest.mark.parametrize("n,N", CASES)
def test_lde_transform_matches_oracle(n, N):
    parts = enumerate_partitions(range(1, n + 1))
    old = oracles.lde_transform(parts, N)
    assert np.abs(lde_transform(n, N) - old).max() <= 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("k,N", [(k, N) for k in range(1, 8) for N in sorted({k, k + 3, 20})])
def test_lde_transform_equals_scipy_formula_bitwise(k, N):
    L = lattice(k)
    M = L.mobius.matrix
    Z = (M != 0).astype(float).toarray()
    power = np.power(float(N), L.sizes)
    falling = np.array([math.perm(N, m) for m in L.sizes], dtype=float)
    assert np.array_equal(lde_transform(k, N), (M.T @ (Z / power[:, None])) * falling[None, :])


@pytest.mark.parametrize("n", range(1, 6))
def test_lde_transform_diffusion_matches_oracle(n):
    parts = enumerate_partitions(range(1, n + 1))
    M = oracles.mobius_matrix(parts)
    T, Tinv = lde_transform_diffusion(n)
    assert np.abs(T - M.T).max() <= 1e-12
    assert np.abs(Tinv - (M != 0).T).max() <= 1e-12


@pytest.mark.parametrize("N", (3, 6, 40))
def test_finite_3site_inverse_is_exact(N):
    tr = lde_conjugation_3site(BackwardModel(3, N, random_recomb(3, N)))
    assert np.abs(tr.T @ tr.Tinv - np.eye(5)).max() <= 1e-12


def test_finite_3site_transform_needs_three_individuals():
    with pytest.raises(SampleTooLargeError):
        lde_conjugation_3site(BackwardModel(3, 2, random_recomb(3, 2)))


class TestFewerIndividualsThanSites:
    """N < n: only partitions with at most N blocks carry sampling measures."""

    n, N = 4, 3

    def setup_method(self):
        self.bwd = BackwardModel(self.n, self.N, random_recomb(self.n, 3))
        self.z0 = random_population(binary_space(self.n), self.N, seed=3)

    def test_expected_sampling_at_time_zero(self):
        traj = expected_sampling(self.bwd, self.z0, [0.0, 0.5])
        kept = [p for p in enumerate_partitions(range(1, self.n + 1)) if len(p) <= self.N]
        assert list(traj.partitions) == kept
        for pi, a in enumerate(traj.partitions):
            direct = sampling(a, self.z0.measure).weights
            assert np.abs(traj.values[0, pi] - direct).max() <= 1e-14
        assert np.allclose(traj.values[1].sum(axis=1), 1.0, atol=1e-12)

    def test_lde_trajectory_at_time_zero(self):
        for u in [(1, 2), (2, 4), (1, 2, 3), (1, 2, 3, 4)]:
            traj = lde_trajectory(self.bwd, self.z0, u, [0.0])
            for pi, a in enumerate(traj.partitions):
                direct = lde_operator(a, marginalize(self.z0.measure, u)).weights
                assert np.abs(traj.values[0, pi] - direct).max() <= 1e-12
