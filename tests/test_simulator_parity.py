"""The backward simulator against the law of its generator.

Each jump is drawn from the state's move classes at their rates (no
silent redraw), so its random stream differs from the narrative loop of
``oracles.simulate_backward``; the two agree in law, not in bytes.  The
state reached at a fixed time must follow the row of ``expm(t Θ)``, the
event budget must stop both simulators alike, an event must cost a small
fraction of one call of the random generator (uniforms come in blocks),
a path must depend only on its ``(seed, replicate)``, and the state
tables must stay bounded.
"""

import sys
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

import oracles
from moranrec import (
    BackwardModel,
    DiffusionRates,
    RecombinationDistribution,
    SizeCapError,
    backward,
    coarsest,
    enumerate_partitions,
    generator_theta,
    simulate_backward,
)

from util import random_recomb

# horizons with more than two events on the seed-7 paths of the event-budget
# test; diffusion blocks coalesce at rate 2
HORIZON = {"finite": 40.0, "deterministic": 40.0, "diffusion": 2.0}


def _model(n: int, N: int, variant: str) -> BackwardModel:
    rho = DiffusionRates(n, tuple(np.random.default_rng(n + 5).uniform(0.3, 2.0, n - 1)))
    return BackwardModel(n, N, random_recomb(n, 17 * n + N), variant, rho)


# times at which the state reached from the coarsest partition of 4 sites
# has spread over its reachable states (about 2-3 events on average)
LAW_TIME = {"finite": 4.0, "deterministic": 2.0, "diffusion": 1.0}


@pytest.mark.parametrize("variant", ("finite", "deterministic", "diffusion"))
def test_state_at_fixed_time_follows_expm(variant):
    # chi-square of the state at time t over 4000 replicates of seed 16
    # against the start's row of expm(t Θ); cells expected below 5 pooled
    model = _model(4, 6, variant)
    start, t = coarsest(range(1, 5)), LAW_TIME[variant]
    parts = enumerate_partitions(model.sites)
    law = expm(t * generator_theta(model).matrix.toarray())[parts.index(start)]
    reps = 4000
    counts = np.zeros(len(parts))
    for rep in range(reps):
        rec = simulate_backward(model, start, t, seed=16, replicate=rep)
        counts[parts.index(rec.state_at(t))] += 1
    expected = reps * law
    assert counts[expected < 1e-12 * reps].sum() == 0  # unreachable states
    small = expected < 5
    observed, expected = counts[~small], expected[~small]
    if small.any():
        observed = np.append(observed, counts[small].sum())
        expected = np.append(expected, reps - expected.sum())
    assert observed.size >= 6
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("variant", ("finite", "diffusion"))
def test_event_budget_matches_the_oracle(monkeypatch, variant):
    model = _model(3, 4, variant)
    start = coarsest([1, 2, 3])
    t_end = HORIZON[variant]
    for simulate in (simulate_backward, oracles.simulate_backward):
        monkeypatch.undo()
        k = len(simulate(model, start, t_end, 7).events)  # the path's own length
        assert k > 2
        monkeypatch.setattr(backward, "MAX_EVENTS", k)  # exactly enough
        assert len(simulate(model, start, t_end, 7).events) == k
        monkeypatch.setattr(backward, "MAX_EVENTS", k - 1)
        with pytest.raises(SizeCapError, match=f"more than {k - 1} events"):
            simulate(model, start, t_end, 7)
        with pytest.raises(SizeCapError):
            simulate(model, start, 1e300, 7)  # the chain never absorbs


class _CountingGenerator:
    """A numpy ``Generator`` that counts the calls made to it."""

    def __init__(self, rng: np.random.Generator, calls: list[int]):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[0] += 1
            return method(*args, **kwargs)

        return counted


def _count_generator_calls(monkeypatch) -> list[int]:
    calls = [0]
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingGenerator(make(seed), calls))
    return calls


def test_an_event_costs_a_tenth_of_a_generator_call(monkeypatch):
    # three or four uniforms an event (a holding time, a move class and where
    # it lands; the finite cut redraws its parent pair only when both
    # fragments pick one empty parent, with probability (N-m+1)/N**2 <= 1/N),
    # taken from blocks of backward._UNIFORM_BLOCK
    calls = _count_generator_calls(monkeypatch)
    model = BackwardModel(8, 20, RecombinationDistribution(8, (0.1,) * 7))
    events = sum(len(simulate_backward(model, coarsest(range(1, 9)), 100.0, seed=5,
                                       replicate=rep).events) for rep in range(3))
    assert events > 100
    assert calls[0] / events <= 0.1


@pytest.mark.parametrize("variant", ("finite", "deterministic", "diffusion"))
def test_replicate_alone_equals_replicate_after_others(variant):
    model, start = _model(6, 8, variant), coarsest(range(1, 7))
    backward._tables.clear()
    after = [simulate_backward(model, start, 20.0, seed=11, replicate=rep) for rep in range(6)]
    backward._tables.clear()
    alone = simulate_backward(model, start, 20.0, seed=11, replicate=5)
    assert alone.events == after[5].events and len(alone.events) > 3
    assert after[5].events != after[4].events


def test_path_over_several_uniform_blocks_reproduces_bytes(monkeypatch):
    calls = _count_generator_calls(monkeypatch)
    model = BackwardModel(8, 20, RecombinationDistribution(8, (0.1,) * 7))
    start = coarsest(range(1, 9))
    texts = []
    for clear in (True, False, True):  # cold tables, warm tables, cold again
        if clear:
            backward._tables.clear()
        calls[0] = 0
        rec = simulate_backward(model, start, 400.0, seed=9, replicate=3)
        assert calls[0] >= 4  # the path reads several blocks of uniforms
        texts.append(backward.partition_trajectory_to_csv(rec, "stamp"))
    assert texts[0] == texts[1] == texts[2]
    assert len(rec.events) > 300


def test_state_cache_is_bounded():
    # every state of one 8-site model and most of a second's fit at once; the
    # state that would pass the bound drops the other model's table
    bound = backward.STATE_CACHE_SIZE
    assert 4140 < bound <= 10_000
    parts = enumerate_partitions(range(1, 9))
    first, second = (BackwardModel(8, N, RecombinationDistribution(8, (0.1,) * 7))
                     for N in (20, 30))
    backward._tables.clear()
    for a in parts:
        backward._state(first, a.blocks)
    room = bound - len(parts)
    for a in parts[:room]:
        backward._state(second, a.blocks)
    assert [len(backward._tables[m].states) for m in (first, second)] == [len(parts), room]
    backward._state(second, parts[room].blocks)
    assert list(backward._tables) == [second]
    assert len(backward._tables[second].states) == room + 1


def test_state_tables_never_hold_more_than_the_bound(monkeypatch):
    # three 8-site models, then a 16-site path (N = 1000) that visits more
    # distinct states than the bound on its own
    held, built = [], [0]
    new_state = backward._new_state

    def counted(model, table, blocks):
        state = new_state(model, table, blocks)
        built[0] += 1
        held.append(sum(len(t.states) for t in backward._tables.values()))
        return state

    monkeypatch.setattr(backward, "_new_state", counted)
    backward._tables.clear()
    for seed in range(3):
        model = BackwardModel(8, 20, random_recomb(8, seed))
        for a in enumerate_partitions(model.sites):
            backward._state(model, a.blocks)
    assert built[0] == 3 * 4140 and len(backward._tables) < 3
    built[0] = 0
    model = BackwardModel(16, 1000, RecombinationDistribution(16, (0.02,) * 15))
    simulate_backward(model, coarsest(range(1, 17)), 60_000.0, seed=4)
    assert built[0] > backward.STATE_CACHE_SIZE  # the 16-site table was cleared
    assert list(backward._tables) == [model]
    assert max(held) == backward.STATE_CACHE_SIZE


def test_a_path_counts_its_table_again_after_a_drop(monkeypatch):
    # each new state first loses the table from the registry, as a new state
    # of another model in another thread may drop it
    new_state = backward._new_state

    def dropped(model, table, blocks):
        with backward._tables_lock:
            backward._tables.pop(model, None)
        return new_state(model, table, blocks)

    monkeypatch.setattr(backward, "_new_state", dropped)
    model = _model(6, 8, "finite")
    backward._tables.clear()
    rec = simulate_backward(model, coarsest(range(1, 7)), 30.0, seed=23)
    assert {p.blocks for _, p in rec.events} <= backward._tables[model].states.keys()


def test_state_tables_stay_bounded_under_threads(monkeypatch):
    # more threads than cores, each on its own model, against a bound so small
    # that new states keep dropping and clearing tables; switches forced often
    monkeypatch.setattr(backward, "STATE_CACHE_SIZE", 40)
    new_state, over = backward._new_state, []

    def checked(model, table, blocks):
        state = new_state(model, table, blocks)
        with backward._tables_lock:
            held = sum(len(t.states) for t in backward._tables.values())
        if held > backward.STATE_CACHE_SIZE:
            over.append(held)
        return state

    monkeypatch.setattr(backward, "_new_state", checked)
    models, start = [_model(6, N, "finite") for N in range(8, 14)], coarsest(range(1, 7))

    def paths(model):
        return [simulate_backward(model, start, 30.0, seed=23, replicate=rep).events
                for rep in range(4)]

    expected = [paths(model) for model in models]
    results = [None] * len(models)

    def work(k):
        results[k] = paths(models[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(models))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert over == []
    assert results == expected
