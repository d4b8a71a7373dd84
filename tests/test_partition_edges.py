"""``Partition`` objects are built only where a result is returned.

The operators, the backward simulator's jump tables and the LDE solve read
lattice rows as canonical block tuples.  The operators are checked here
against the ``Partition``-list path they replaced (``tests/oracles.py``),
bit for bit; the jump tables' move classes, spread over their targets,
against the oracle transition rates and the generator's exit rates.  A
counter on both constructors, ``Partition.__post_init__`` and the
unchecked ``Partition._canonical``, holds the number of partitions each
entry point builds.
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
    generator_theta,
    lde_operator,
    lde_trajectory,
    sampling_bar,
    simulate_backward,
)
from moranrec import backward, expectations
from moranrec.partitions import lattice

from util import binary_space, random_measure, random_population, random_recomb

VARIANTS = ("finite", "deterministic", "diffusion")


@pytest.fixture
def built(monkeypatch):
    """The block tuples of every ``Partition`` constructed from here on, by
    either constructor."""
    out = []
    init, canonical = Partition.__post_init__, Partition._canonical.__func__

    def counting(self):
        out.append(self.blocks)
        init(self)

    def counting_canonical(cls, blocks):
        out.append(blocks)
        return canonical(cls, blocks)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    monkeypatch.setattr(Partition, "_canonical", classmethod(counting_canonical))
    return out


@pytest.mark.parametrize("n", range(7))
def test_canonical_constructor_matches_the_validated_one(n):
    sites = range(3, 3 + 2 * n, 2)  # gaps between the labels
    rows = lattice(n).relabel((s,) for s in sites)
    for blocks, listed in zip(rows, enumerate_partitions(sites), strict=True):
        fast, checked = Partition._canonical(blocks), Partition(blocks[::-1])
        assert fast.blocks is blocks and listed.blocks == blocks
        assert fast == checked == listed and hash(fast) == hash(checked) == hash(listed)
        assert fast.blocks == checked.blocks and fast.label == checked.label


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


def _models(n: int, N: int) -> list[BackwardModel]:
    """Each variant with a zero crossover probability and a zero rate (n >= 3)."""
    probs = list(random_recomb(n, 90 + n).crossover)
    rho = list(np.random.default_rng(n).uniform(0.3, 2.0, n - 1))
    if n >= 3:
        probs[1], rho[1] = 0.0, 0.0
    r, rates = RecombinationDistribution(n, tuple(probs)), DiffusionRates(n, tuple(rho))
    return [BackwardModel(n, N, r, v, rates) for v in VARIANTS]


def _class_rates(model: BackwardModel, blocks) -> list[tuple[int, tuple, float]]:
    """``(j, fragments, rate)`` of every move class of positive rate, in table
    order, at the rate stated in ``backward._new_state``'s docstring."""
    m, N = len(blocks), model.N
    out = []
    for j, block in enumerate(blocks):
        for fragments, w in backward._split_choices(model, block):
            whole = len(fragments) == 1
            if model.variant == "finite":
                rate = 0.0 if m > N else w * ((m - 1) / N if whole
                                              else (N * N - (N - m + 1)) / N**2)
            elif model.variant == "deterministic":
                rate = 0.0 if whole else w
            else:
                rate = w * (m - 1) if whole else w
            if rate > 0.0:
                out.append((j, fragments, rate))
    return out


def _spread(model: BackwardModel, blocks, classes) -> dict[tuple, float]:
    """The target law of the move classes: a whole block merges with each of
    the ``m-1`` other blocks alike; a finite cut's two fragments land on
    every parent pair that changes the state, an empty parent counted once
    per individual that carries no block (deterministic and diffusion: both
    fresh)."""
    m = len(blocks)
    empty = model.N - m + 1  # individuals that carry no block (finite)
    if model.variant == "finite":
        parents = [(None, empty)] + [(k, 1) for k in range(m - 1)]  # (block, count)
        pairs = [((p, q), a * (b if (p, q) != (None, None) else empty - 1))
                 for p, a in parents for q, b in parents]
    else:
        pairs = [((None, None), 1)]
    pairs = [(pq, c) for pq, c in pairs if c > 0]
    out: dict[tuple, float] = {}
    for j, fragments, rate in classes:
        rest = blocks[:j] + blocks[j + 1:]
        if len(fragments) == 1:
            moves = [((k,), 1) for k in range(m - 1)]
        else:
            moves = pairs
        total = sum(c for _, c in moves)
        for parents, c in moves:
            new = list(rest)
            for fragment, parent in zip(fragments, parents):
                if parent is None:
                    new.append(fragment)
                else:
                    new[parent] = tuple(sorted(new[parent] + fragment))
            b = tuple(sorted(new))
            out[b] = out.get(b, 0.0) + rate * c / total
    return out


def _relative_error(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.where(ref == 0.0, 1.0, ref), initial=0.0))


@pytest.mark.parametrize("n", range(1, 9))
def test_jump_tables_match_partition_oracles(n):
    # every state of n <= 8 sites (5,295 in all), N below, at and above n
    for N in sorted({max(n - 1, 1), n, n + 2}):
        for model in _models(n, N):
            got, ref, cum, cum_ref, exits = [], [], [], [], []
            exit_rates = -generator_theta(model).matrix.diagonal()
            for a in enumerate_partitions(model.sites):
                state = backward._state(model, a.blocks)
                assert state.partition == a
                exits.append(state.rate)
                classes = _class_rates(model, a.blocks)
                assert state.moves == tuple((j, f) for j, f, _ in classes)
                cum += state.cum
                cum_ref += accumulate(r for _, _, r in classes)
                law = _spread(model, a.blocks, classes)
                rates = oracles.transition_rates(model, a)
                assert law.keys() == {b.blocks for b in rates}, (N, model.variant, a)
                got += (law[b.blocks] for b in rates)
                ref += rates.values()
            table = backward._tables[model]  # every state of the model, read from here on
            assert len(table.states) == len(exits)
            blocks = {block for a in enumerate_partitions(model.sites) for block in a.blocks}
            assert table.splits.keys() == blocks
            for block in blocks:
                weights = ((1.0, *model.rho.marginal(block).rho) if model.variant == "diffusion"
                           else (p for _, p in oracles._split_choices(model, block)))
                splits = (jj.blocks for jj in oracles.ordered_partitions_le2(block))
                assert table.splits[block] == tuple(zip(splits, weights))
            assert _relative_error(got, ref) <= 1e-12, (N, model.variant)
            assert _relative_error(cum, cum_ref) <= 1e-12, (N, model.variant)
            assert _relative_error(exits, exit_rates) <= 1e-12, (N, model.variant)


def test_operators_build_no_partition_beyond_the_argument(built):
    m = random_measure(binary_space(6), seed=6)
    finest6, coarsest6 = finest(range(1, 7)), coarsest(range(1, 7))
    built.clear()
    sampling_bar(finest6, m)
    lde_operator(coarsest6, m)
    assert built == []


def test_lde_trajectory_labels_its_result_once(built):
    expectations._small_partitions.cache_clear()  # no partitions held from earlier calls
    bwd = BackwardModel(6, 8, random_recomb(6, 8))
    z0 = random_population(binary_space(6), 8, seed=8)
    built.clear()
    traj = lde_trajectory(bwd, z0, range(1, 7), [0.0, 0.5])
    assert len(built) == len(traj.partitions) == 203
    # a pair's partitions are built on its first call and kept for the next
    built.clear()
    for _ in range(3):
        lde_trajectory(bwd, z0, (2, 5), [0.0, 0.5])
    assert len(built) == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_simulator_builds_one_partition_per_cached_state(built, variant):
    model = _models(6, 8)[VARIANTS.index(variant)]
    start = coarsest(range(1, 7))
    backward._tables.clear()
    built.clear()
    events = sum(len(simulate_backward(model, start, 40.0, seed=3, replicate=rep).events)
                 for rep in range(12))
    states = backward._tables[model].states
    assert list(backward._tables) == [model]
    assert events > len(states) > 10
    assert sorted(built) == sorted(states)
