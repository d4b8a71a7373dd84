"""``Partition`` objects are built only where a result is returned.

The operators, the backward simulator's jump tables and the LDE solve read
lattice rows as canonical block tuples.  Each is checked here against the
``Partition``-list path it replaced (``tests/oracles.py``), bit for bit,
and a counter on ``Partition.__post_init__`` holds the number of
partitions each entry point builds.
"""

from itertools import accumulate

import numpy as np
import pytest

import oracles
from moranrec import (
    BackwardModel,
    DiffusionRates,
    Partition,
    RecombinationDistribution,
    SiteSpace,
    coarsest,
    enumerate_partitions,
    finest,
    lde_operator,
    lde_trajectory,
    sampling_bar,
    simulate_backward,
)
from moranrec import backward

from util import binary_space, random_measure, random_population, random_recomb

VARIANTS = ("finite", "deterministic", "diffusion")


@pytest.fixture
def built(monkeypatch):
    """The block tuples of every ``Partition`` constructed from here on."""
    out = []
    init = Partition.__post_init__

    def counting(self):
        out.append(self.blocks)
        init(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_operators_match_partition_list_oracles_bitwise(n):
    space = SiteSpace((2, 3, 1, 2, 3, 2)[:n])
    m = random_measure(space, seed=70 + n)
    assert not np.array_equal(m.weights, np.round(m.weights))
    for a in enumerate_partitions(space.sites):
        for got, ref in ((sampling_bar(a, m), oracles.partition_list_sampling_bar(a, m)),
                         (lde_operator(a, m), oracles.partition_list_lde_operator(a, m))):
            assert (got.sites, got.cards) == (ref.sites, ref.cards)
            assert np.array_equal(got.weights, ref.weights), a


def _models(n: int) -> list[BackwardModel]:
    """Each variant with a zero crossover probability and a zero rate (n >= 3)."""
    probs = list(random_recomb(n, 90 + n).crossover)
    rho = list(np.random.default_rng(n).uniform(0.3, 2.0, n - 1))
    if n >= 3:
        probs[1], rho[1] = 0.0, 0.0
    r, rates = RecombinationDistribution(n, tuple(probs)), DiffusionRates(n, tuple(rho))
    return [BackwardModel(n, n + 2, r, v, rates) for v in VARIANTS]


@pytest.mark.parametrize("n", range(1, 9))
def test_jump_tables_match_partition_oracles(n):
    # every state of n <= 8 sites: 5,295 in all
    for model in _models(n):
        for a in oracles.rgs_partitions(model.sites):
            state = backward._state(model, a.blocks)
            assert state.partition == a
            if model.variant == "diffusion":
                rates = oracles._transition_rates_diff(model, a)
                targets = tuple(b.blocks for b in rates) + (a.blocks,)
                assert state.jumps == (tuple(accumulate(rates.values())), targets)
                assert state.rate == sum(rates.values())
                continue
            for block, (cum, fragments) in zip(a.blocks, state.splits, strict=True):
                ref = oracles._split_choices(model, block)
                assert backward._split_choices(model, block) == tuple(
                    (jj.blocks, p) for jj, p in ref)
                assert cum == tuple(accumulate(p for _, p in ref))
                assert fragments == tuple(jj.blocks for jj, _ in ref) + (ref[-1][0].blocks,)
            assert state.rate == oracles._exit_rate(model, a)


def test_operators_build_no_partition_beyond_the_argument(built):
    m = random_measure(binary_space(6), seed=6)
    finest6, coarsest6 = finest(range(1, 7)), coarsest(range(1, 7))
    built.clear()
    sampling_bar(finest6, m)
    lde_operator(coarsest6, m)
    assert built == []


def test_lde_trajectory_labels_its_result_once(built):
    bwd = BackwardModel(6, 8, random_recomb(6, 8))
    z0 = random_population(binary_space(6), 8, seed=8)
    built.clear()
    traj = lde_trajectory(bwd, z0, range(1, 7), [0.0, 0.5])
    assert len(built) == len(traj.partitions) == 203


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulator_builds_one_partition_per_cached_state(built, variant):
    model = _models(6)[VARIANTS.index(variant)]
    start = coarsest(range(1, 7))
    backward._state.cache_clear()
    backward._split_choices.cache_clear()
    built.clear()
    events = sum(len(simulate_backward(model, start, 40.0, seed=3, replicate=rep).events)
                 for rep in range(4))
    states = backward._state.cache_info().currsize
    assert events > states > 10
    assert len(built) == states
