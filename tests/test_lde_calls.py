"""``lde_trajectory`` checks its inputs once and solves on the marginal grid.

Its results equal, bit for bit, the composition of whole objects it
replaced (``oracles.marginal_lde_trajectory``: the marginal model, the
marginal measure, the sliced ``lde_transform`` and a fresh enumeration);
its input errors and ``expected_sampling``'s keep their types, messages and
precedence; a warm pair call builds no model, measure or partition; and
the cache of the results' partitions is bounded.
"""

import itertools

import numpy as np
import pytest

import oracles
from moranrec import (
    BackwardModel,
    Measure,
    NotSubsetError,
    Partition,
    RecombinationDistribution,
    SiteSpace,
    enumerate_partitions,
    expected_sampling,
    lde_trajectory,
)
from moranrec import expectations
from moranrec.markov import assert_sorted_times

from util import random_population

# a zero gap, and equal gaps whose pairs and triples share marginal laws
SIX_SITE_RECOMB = RecombinationDistribution(6, (0.1, 0.0, 0.1, 0.25, 0.05))
MIXED_CARDS = (2, 3, 2, 1, 2, 3)
PARITY_GRIDS = {
    "zero": [0.0],
    "repeated": [0.0, 0.0, 0.4, 0.4, 0.4, 1.5],
    "linspace": np.linspace(0.0, 2.5, 6),
    "irregular": [0.2, 0.3, 1.7, 40.0],
}


@pytest.mark.parametrize("N", [1, 2, 3, 12])
def test_every_pair_and_triple_matches_the_composed_oracle(N):
    bwd = BackwardModel(6, N, SIX_SITE_RECOMB)
    z0 = random_population(SiteSpace(MIXED_CARDS), N, seed=40 + N)
    subsets = [u for k in (2, 3) for u in itertools.combinations(range(1, 7), k)]
    marginals = {bwd.recomb.marginal(u).crossover for u in subsets}
    assert (0.0,) in marginals and (0.1,) in marginals and (0.1, 0.1) in marginals
    assert len(marginals) < len(subsets)
    for name, grid in PARITY_GRIDS.items():
        for u in subsets:
            got = lde_trajectory(bwd, z0, u, grid)
            ref = oracles.marginal_lde_trajectory(bwd, z0, u, grid)
            assert got.sites == ref.sites == u
            assert got.partitions == ref.partitions and got.cards == ref.cards
            assert np.array_equal(got.times, ref.times)
            assert got.values.shape == ref.values.shape
            assert np.array_equal(got.values, ref.values), (name, u)


def test_all_sites_and_single_sites_match_the_composed_oracle():
    bwd = BackwardModel(4, 3, RecombinationDistribution(4, (0.2, 0.0, 0.2)))
    z0 = random_population(SiteSpace((2, 3, 1, 2)), 3, seed=5)
    for u in [(1,), (3,), (1, 2, 3, 4), (1, 2, 4)]:
        got = lde_trajectory(bwd, z0, u, PARITY_GRIDS["repeated"])
        ref = oracles.marginal_lde_trajectory(bwd, z0, u, PARITY_GRIDS["repeated"])
        assert got.partitions == ref.partitions and got.cards == ref.cards
        assert np.array_equal(got.values, ref.values), u


def _counting_constructions(monkeypatch, classes):
    built = []
    for cls in classes:
        init = cls.__post_init__

        def counting(self, init=init, name=cls.__name__):
            built.append(name)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def test_warm_pair_call_builds_no_model_measure_or_partition(monkeypatch):
    bwd = BackwardModel(5, 12, RecombinationDistribution(5, (0.1,) * 4))
    z0 = random_population(SiteSpace((2,) * 5), 12, seed=3)
    times = np.linspace(0.0, 2.5, 6)
    first = lde_trajectory(bwd, z0, (2, 4), times)
    lde_trajectory(bwd, z0, (1, 2, 4), times)
    built = _counting_constructions(
        monkeypatch, (Measure, BackwardModel, RecombinationDistribution, Partition))
    again = lde_trajectory(bwd, z0, (2, 4), times)
    assert built == []
    assert again.partitions is first.partitions
    assert np.array_equal(again.values, first.values)
    # a triple builds its marginal model, whose generator it exponentiates, and nothing else
    lde_trajectory(bwd, z0, (1, 2, 4), times)
    assert built == ["RecombinationDistribution", "BackwardModel"]


def test_partition_cache_holds_sets_of_at_most_three_sites():
    cached = expectations._small_partitions
    cached.cache_clear()
    assert cached.cache_info().maxsize == 4096
    bwd = BackwardModel(5, 12, RecombinationDistribution(5, (0.1,) * 4))
    z0 = random_population(SiteSpace((2,) * 5), 12, seed=3)
    for u in [(1, 2), (1, 2, 3), (1, 2, 3, 4), tuple(range(1, 6))]:
        first, again = (lde_trajectory(bwd, z0, u, [0.0, 1.0]) for _ in range(2))
        assert first.partitions == again.partitions == tuple(enumerate_partitions(u))
        assert (first.partitions is again.partitions) == (len(u) <= 3)
    assert cached.cache_info().currsize == 2
    # at most 4096 sets of at most Bell(3) = 5 partitions: 20,480 partitions
    for u in itertools.islice(itertools.combinations(range(1, 100), 3), 5000):
        cached(u)
    assert cached.cache_info().currsize == 4096
    cached.cache_clear()


# ---------------------------------------------------------------- input errors

SHAPE = "time grid must be a nonempty 1-D sequence"
FINITE = "time grid must be finite"
ORDER = "time grid must be nondecreasing and nonnegative"
BAD_GRIDS = {
    "empty": ([], SHAPE),
    "2-D": ([[0.0, 1.0]], SHAPE),
    "scalar": (1.0, SHAPE),
    "nan": ([0.0, np.nan, 1.0], FINITE),
    "nan alone": ([np.nan], FINITE),
    "inf": ([0.0, np.inf], FINITE),
    "-inf": ([-np.inf, 0.0], FINITE),
    "inf then decreasing": ([0.0, np.inf, 1.0], FINITE),
    "negative start": ([-0.5, 0.0, 1.0], ORDER),
    "decreasing": ([0.0, 2.0, 1.0], ORDER),
    "reversed view": (np.linspace(0.0, 1.0, 4)[::-1], ORDER),
}
BAD_SUBSETS = [
    ((), ValueError, "a marginal needs at least one site"),
    ((0, 1), ValueError, "site labels must be positive integers, got (0, 1)"),
    ((2, 9), NotSubsetError, "sites (2, 9) outside 1..5"),
    ((2, 2, 9), NotSubsetError, "sites (2, 9) outside 1..5"),
]


def _raises(exc_type, message, fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is exc_type and str(info.value) == message


@pytest.fixture
def five_sites():
    bwd = BackwardModel(5, 12, RecombinationDistribution(5, (0.1, 0.0, 0.35, 0.45)))
    return bwd, random_population(SiteSpace((2, 3, 2, 2, 2)), 12, seed=11)


@pytest.mark.parametrize("u, exc_type, message", BAD_SUBSETS)
@pytest.mark.parametrize("grid", ["valid"] + list(BAD_GRIDS))
def test_subset_errors_come_before_grid_errors(five_sites, u, exc_type, message, grid):
    bwd, z0 = five_sites
    times = [0.0, 1.0] if grid == "valid" else BAD_GRIDS[grid][0]
    _raises(exc_type, message, lde_trajectory, bwd, z0, u, times)


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
def test_grid_errors_keep_their_type_and_message(five_sites, grid):
    bwd, z0 = five_sites
    times, message = BAD_GRIDS[grid]
    for u in [(2, 4), (4, 2, 2), (1, 3, 5), (1,), tuple(range(1, 6))]:
        _raises(ValueError, message, lde_trajectory, bwd, z0, u, times)
    _raises(ValueError, message, expected_sampling, bwd, z0, times)
    _raises(ValueError, message, assert_sorted_times, times)


def test_model_errors_come_first_and_the_population_size_after_the_grid(five_sites):
    bwd, z0 = five_sites
    deterministic = BackwardModel(5, 12, bwd.recomb, "deterministic")
    _raises(ValueError, "lde_trajectory needs the finite variant",
            lde_trajectory, deterministic, z0, (), [])
    other = random_population(SiteSpace((2, 2, 2)), 12, seed=1)
    _raises(ValueError, "population covers sites (1, 2, 3), model 1..5",
            lde_trajectory, bwd, other, (), [])
    smaller = BackwardModel(5, 10, bwd.recomb)
    for u in [(2, 4), (1, 3, 5)]:
        _raises(ValueError, SHAPE, lde_trajectory, smaller, z0, u, [])
        _raises(ValueError, "population holds 12 individuals, model expects 10",
                lde_trajectory, smaller, z0, u, [0.0])
    _raises(ValueError, SHAPE, expected_sampling, smaller, z0, [])
    _raises(ValueError, "population holds 12 individuals, model expects 10",
            expected_sampling, smaller, z0, [0.0])
    _raises(ValueError, "expected_sampling needs the finite variant",
            expected_sampling, deterministic, z0, [0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_expected_sampling_rejects_a_population_on_other_sites(n):
    # the solve dispatches on the population's axes, so a mismatch must not reach it
    bwd = BackwardModel(n, 6, RecombinationDistribution(n, (0.2,) * (n - 1)))
    for cards in [(2,) * (5 - n), (2, 2, 2, 2)]:
        z0 = random_population(SiteSpace(cards), 6, seed=n)
        _raises(ValueError, f"population covers sites {z0.measure.sites}, model 1..{n}",
                expected_sampling, bwd, z0, [0.0, 1.0])


def test_duplicate_sites_and_strided_grids_are_accepted(five_sites):
    bwd, z0 = five_sites
    grid = np.linspace(0.0, 1.0, 4)
    ref = lde_trajectory(bwd, z0, (2, 4), grid)
    for u, times in [((4, 2, 2), grid), ((2, 4), grid[::-1].copy()[::-1]),
                     ((2, 4), grid.tolist()), ((2, 4), np.repeat(grid, 2)[::2])]:
        got = lde_trajectory(bwd, z0, u, times)
        assert got.sites == (2, 4) and got.partitions == ref.partitions
        assert np.array_equal(got.times, ref.times) and np.array_equal(got.values, ref.values)


def test_grid_check_agrees_with_the_three_pass_check():
    rng = np.random.default_rng(24)
    pool = np.array([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, np.nan, np.inf, -np.inf, 1e300, 5e-324])
    grids = [pool[rng.integers(pool.size, size=size)] for size in range(7) for _ in range(300)]
    grids += [np.sort(g) for g in grids] + [g.reshape(1, -1) for g in grids[:50]]
    grids += [g[::-1] for g in grids[:200]] + [np.float64(1.0), [[]], np.zeros((2, 0))]
    for times in grids:
        try:
            ref = oracles.checked_times(times)
        except ValueError as exc:
            _raises(ValueError, str(exc), assert_sorted_times, times)
        else:
            assert np.array_equal(assert_sorted_times(times), ref)
