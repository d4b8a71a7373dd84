"""The backward simulator against the law of its generator.

Each jump is drawn from the state's move classes at their rates (no
silent redraw), so its random stream differs from the narrative loop of
``oracles.simulate_backward``; the two agree in law, not in bytes.  The
state reached at a fixed time must follow the row of ``expm(t Θ)``, the
event budget must stop both simulators alike, and an event must cost a
few calls of the random generator.
"""

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

# horizons with tens of events per path; diffusion blocks coalesce at rate 2
HORIZON = {"finite": 40.0, "deterministic": 40.0, "diffusion": 1.5}


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


def test_an_event_costs_about_three_random_draws(monkeypatch):
    # a holding time, a move class and where it lands; the finite cut
    # redraws its parent pair only when both fragments pick one empty parent
    # (probability (N-m+1)/N**2 <= 1/N)
    calls = [0]
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingGenerator(make(seed), calls))
    model = BackwardModel(8, 20, RecombinationDistribution(8, (0.1,) * 7))
    events = sum(len(simulate_backward(model, coarsest(range(1, 9)), 100.0, seed=5,
                                       replicate=rep).events) for rep in range(3))
    assert events > 100
    assert calls[0] / events <= 3.5


def test_state_cache_is_bounded():
    maxsize = backward._state.cache_info().maxsize
    assert maxsize == backward.STATE_CACHE_SIZE and 0 < maxsize <= 10_000
