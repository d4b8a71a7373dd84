"""LDE queries on the lattice of the subset, against the full-lattice oracle.

The sites of a subset ``u`` evolve as a Moran model of their own, with the
crossover probabilities of the gaps between consecutive sites of ``u``
summed.  ``lde_trajectory`` solves on that Bell(|u|) lattice; the oracle
solves the Bell(n) system and marginalizes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from moranrec import (
    BackwardModel,
    DiffusionRates,
    NotSubsetError,
    Partition,
    PopulationState,
    RecombinationDistribution,
    SizeCapError,
    SiteSpace,
    lde_trajectory,
    marginalize,
)

import oracles
from oracles import ordered_partitions_le2
from util import binary_space, random_population, random_recomb

GRID = [0.0, 0.3, 0.3, 0.8, 2.5]
PARITY_TOL = 1e-12


def relabel(b: Partition, u: tuple[int, ...]) -> Partition:
    rank = {s: i for i, s in enumerate(u, start=1)}
    return Partition(tuple(tuple(rank[s] for s in blk) for blk in b.blocks))


def assert_parity(bwd, z0, u) -> None:
    got = lde_trajectory(bwd, z0, u, GRID)
    ref = oracles.lde_trajectory(bwd, z0, u, GRID)
    assert got.sites == ref.sites and got.cards == ref.cards
    assert got.partitions == ref.partitions
    assert np.array_equal(got.times, ref.times)
    assert np.abs(got.values - ref.values).max() <= PARITY_TOL


def test_marginal_recombination_matches_restriction_sum():
    rng = np.random.default_rng(2024)
    for n in range(1, 8):
        recomb = random_recomb(n, 100 + n)
        for _ in range(6):
            k = int(rng.integers(1, min(n, 4) + 1))
            u = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            marginal = recomb.marginal(u)
            assert marginal.n == k
            prob = dict(marginal.support())
            for b in ordered_partitions_le2(u):
                assert abs(prob[relabel(b, u).blocks]
                           - oracles.marginal_recomb_prob(recomb, u, b)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parity_every_small_subset(n):
    bwd = BackwardModel(n, 7, random_recomb(n, 40 + n))
    z0 = random_population(binary_space(n), 7, seed=n)
    for k in range(1, min(n, 4) + 1):
        for u in itertools.combinations(range(1, n + 1), k):
            assert_parity(bwd, z0, u)


@pytest.mark.parametrize("n", [4, 5])
def test_parity_fewer_individuals_than_subset_sites(n):
    bwd = BackwardModel(n, 3, random_recomb(n, 60 + n))
    z0 = random_population(binary_space(n), 3, seed=60 + n)
    # (1, 2, 3, 4): rows with four blocks, columns above three blocks drop out
    for u in [(1, 2, 3, 4), (2, 3, n), (1, n)]:
        assert_parity(bwd, z0, u)


@pytest.mark.parametrize("u", [(1, 6), (2, 4, 5), (1, 3, 4, 6)])
def test_parity_six_sites(u):
    bwd = BackwardModel(6, 8, random_recomb(6, 66))
    z0 = random_population(SiteSpace((2, 3, 2, 2, 2, 2)), 8, seed=66)
    assert_parity(bwd, z0, u)


class TestBadSubsets:
    bwd = BackwardModel(3, 5, RecombinationDistribution(3, (0.1, 0.2)))
    z0 = PopulationState.from_counts(binary_space(3), [1, 0, 2, 0, 0, 1, 0, 1])

    def test_sites_outside_the_model(self):
        with pytest.raises(NotSubsetError):
            lde_trajectory(self.bwd, self.z0, (1, 4), [0.0])
        with pytest.raises(NotSubsetError):
            self.bwd.recomb.marginal((1, 4))

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            lde_trajectory(self.bwd, self.z0, (), [0.0])
        with pytest.raises(ValueError):
            self.bwd.recomb.marginal(())

    @pytest.mark.parametrize("variant", ["deterministic", "diffusion"])
    def test_non_finite_model(self, variant):
        bwd = BackwardModel(3, 5, self.bwd.recomb, variant, DiffusionRates(3, (1.0, 2.0)))
        with pytest.raises(ValueError):
            lde_trajectory(bwd, self.z0, (1, 2), [0.0])

    def test_population_on_other_sites(self):
        z0 = PopulationState.from_counts(binary_space(2), [2, 1, 1, 1])
        with pytest.raises(ValueError):
            lde_trajectory(self.bwd, z0, (1, 2), [0.0])


class TestOnlySubsetIsCapped:
    n, N = 10, 6

    def setup_method(self):
        self.recomb = RecombinationDistribution(self.n, tuple(0.01 * i for i in range(1, self.n)))
        self.bwd = BackwardModel(self.n, self.N, self.recomb)
        self.z0 = random_population(binary_space(self.n), self.N, seed=10)

    def test_pair_far_apart_equals_two_site_model(self):
        times = [0.0, 0.5, 2.0]
        traj = lde_trajectory(self.bwd, self.z0, (2, 9), times)
        gap = sum(self.recomb.crossover[1:8])
        pair = BackwardModel(2, self.N, RecombinationDistribution(2, (gap,)))
        m = marginalize(self.z0.measure, (2, 9))
        z2 = PopulationState.from_counts(SiteSpace(m.cards), m.weights.astype(int).tolist())
        direct = lde_trajectory(pair, z2, (1, 2), times)
        assert traj.partitions == (Partition(((2, 9),)), Partition(((2,), (9,))))
        assert np.abs(traj.values - direct.values).max() <= 1e-15

    def test_nine_subset_sites_exceed_the_cap(self):
        with pytest.raises(SizeCapError):
            lde_trajectory(self.bwd, self.z0, range(1, 10), [0.0])
