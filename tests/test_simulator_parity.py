"""The backward simulator on cached block-tuple states against the
``Partition``-stepping narrative loop it replaced (``oracles.simulate_backward``).

Every ``(seed, replicate)`` path must serialize to the same bytes: both
make the same random draws in the same order, so any drift in the cached
exit rates, split sums or jump targets shows up as a different path.
"""

import numpy as np
import pytest

import oracles
from moranrec import (
    BackwardModel,
    DiffusionRates,
    InvalidInitialError,
    SizeCapError,
    backward,
    coarsest,
    finest,
    simulate_backward,
)
from moranrec.backward import partition_trajectory_to_csv

from util import random_recomb

SEEDS = (11, 2024)
REPLICATES = 10
# horizons with tens of events per path; diffusion blocks coalesce at rate 2
HORIZON = {"finite": 40.0, "deterministic": 40.0, "diffusion": 1.5}


def _model(n: int, N: int, variant: str) -> BackwardModel:
    rho = DiffusionRates(n, tuple(np.random.default_rng(n + 5).uniform(0.3, 2.0, n - 1)))
    return BackwardModel(n, N, random_recomb(n, 17 * n + N), variant, rho)


def _paths(simulate, model, start, t_end):
    out = []
    for seed in SEEDS:
        for rep in range(REPLICATES):
            try:
                rec = simulate(model, start, t_end, seed, replicate=rep)
            except InvalidInitialError as exc:
                out.append(f"InvalidInitialError: {exc}")
            else:
                out.append(partition_trajectory_to_csv(rec, f"seed={seed} replicate={rep}"))
    return out


@pytest.mark.parametrize("variant", ("finite", "deterministic", "diffusion"))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 8))
def test_paths_match_narrative_oracle_byte_for_byte(n, variant):
    rows = 0
    for N in sorted({max(n - 1, 1), n, n + 3}):  # N < n (where n > 1), N = n, N > n
        model = _model(n, N, variant)
        for start in (coarsest(range(1, n + 1)), finest(range(1, n + 1))):
            got = _paths(simulate_backward, model, start, HORIZON[variant])
            ref = _paths(oracles.simulate_backward, model, start, HORIZON[variant])
            assert got == ref, (N, start)
            if variant == "finite" and len(start) > N:
                assert all(p.startswith("InvalidInitialError") for p in got)
            rows += sum(p.count("\n") - 2 for p in got if not p.startswith("Invalid"))
    assert rows >= 20 or n == 1  # one site never moves


@pytest.mark.parametrize("variant", ("finite", "diffusion"))
def test_event_budget_matches_the_oracle(monkeypatch, variant):
    model = _model(3, 4, variant)
    start = coarsest([1, 2, 3])
    t_end = HORIZON[variant]
    k = len(oracles.simulate_backward(model, start, t_end, 7).events)
    assert k > 2
    for simulate in (simulate_backward, oracles.simulate_backward):
        monkeypatch.setattr(backward, "MAX_EVENTS", k)  # exactly enough
        assert len(simulate(model, start, t_end, 7).events) == k
        monkeypatch.setattr(backward, "MAX_EVENTS", k - 1)
        with pytest.raises(SizeCapError, match=f"more than {k - 1} events"):
            simulate(model, start, t_end, 7)
        with pytest.raises(SizeCapError):
            simulate(model, start, 1e300, 7)  # the chain never absorbs


def test_state_cache_is_bounded():
    maxsize = backward._state.cache_info().maxsize
    assert maxsize == backward.STATE_CACHE_SIZE and 0 < maxsize <= 10_000
