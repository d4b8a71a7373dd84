"""The Moran population process with single-crossover recombination.

Individuals die at rate one and are replaced by an offspring spliced from
uniformly drawn parents (with replacement) according to the recombination
distribution.  The module provides the exact transition rates, the full
generator matrix over all populations of size ``N``, an event-driven
simulator, and the infinite-population replacement ODE.

The simulator tells the same story one individual at a time: it keeps the
type codes of the ``N`` individuals, and at each event (rate ``N``) one of
them dies and is replaced by a splice of two uniformly drawn parents, cut
where the recombination distribution says.  Its cost per event does not
depend on the number of types.  Silent events (the newborn has the type of
the individual it replaces) are not recorded.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import backward
from .errors import InvalidInitialError, SizeCapError
from .markov import (
    GeneratorMatrix,
    count_population_states,
    enumerate_population_states,
    rank_population_moves,
)
from .measures import Measure, PopulationState, SiteSpace, type_token
from .operators import RecombinationDistribution, block_products

DEFAULT_POPULATION_CAP = 20000

# Individuals the simulator holds as a list of type codes (8 bytes each).
DEFAULT_INDIVIDUAL_CAP = 2**24


@dataclass(frozen=True)
class ForwardModel:
    """Population size, site space and recombination distribution."""

    space: SiteSpace
    N: int
    recomb: RecombinationDistribution

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("population size must be at least 1")
        if self.recomb.n != self.space.n:
            raise ValueError("recombination distribution and site space disagree on n")


def replacement_distribution(model: ForwardModel, counts: np.ndarray) -> np.ndarray:
    """Type distribution of a newborn given the current counts.

    Mixture over the recombination distribution of the normalized
    block-marginal products; a probability vector.  ``counts`` may stack
    count vectors along leading axes; each gets its own distribution.
    """
    support = [(blocks, r) for blocks, r in model.recomb.support() if r != 0.0]
    lead = counts.shape[:-1]
    N = counts.sum(axis=-1, keepdims=True)
    products = block_products(counts.reshape(lead + model.space.cards), model.space.sites,
                              [blocks for blocks, _ in support])
    return sum((r / N**len(blocks)) * rbar for (blocks, r), rbar in zip(support, products))


def _population_states(K: int, N: int) -> list[tuple[int, ...]]:
    """``enumerate_population_states(K, N)``, or :class:`SizeCapError` if they
    number more than ``DEFAULT_POPULATION_CAP`` (read at call time)."""
    n_states = count_population_states(K, N)
    if n_states > DEFAULT_POPULATION_CAP:
        raise SizeCapError(f"{n_states} population states exceeds the cap of "
                           f"{DEFAULT_POPULATION_CAP}; reduce sites, alphabet or N")
    return enumerate_population_states(K, N)


def _lambda_entries(model: ForwardModel) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(states, rows, cols, vals)``: the positive rates of
    :func:`generator_lambda`, one per move, then the diagonal."""
    states = np.array(_population_states(model.space.total_states, model.N), dtype=np.int64)
    n_states = len(states)
    # one row of rates[(z, y), x] = q_z(x) * z(y) per type y present in z;
    # distinct (y, x) reach distinct states
    src, y = np.nonzero(states)
    rates = replacement_distribution(model, states)[src] * states[src, y, None]
    rates[np.arange(src.size), y] = 0.0
    diagonal = -np.bincount(src, weights=rates.sum(axis=1), minlength=n_states)
    hit, x = np.nonzero(rates)
    rows, y = src[hit], y[hit]
    cols = rank_population_moves(states, model.N, rows, y, x)
    every = np.arange(n_states)
    return (n_states, np.concatenate([rows, every]), np.concatenate([cols, every]),
            np.concatenate([rates[hit, x], diagonal]))


def generator_lambda(model: ForwardModel) -> GeneratorMatrix:
    """Exact generator over every population of size ``N``.

    Row and column ``i`` are count vector ``i`` of
    ``enumerate_population_states(K, N)``, with ``K`` the number of types;
    monomorphic rows are zero (absorbing).
    The rate of replacing a ``y`` by an ``x`` goes to the state with one
    ``y`` fewer and one ``x`` more, ranked by
    :func:`rank_population_moves`.  Only types present in a state can die,
    so a row holds at most ``min(N, K) * (K - 1) + 1`` entries, and the
    working arrays hold ``O(states * K)`` numbers plus the nonzeros (at
    most the order of a dense matrix, as ``states >= K``).
    """
    return GeneratorMatrix(*_lambda_entries(model))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated path: initial counts plus (time, dying, newborn) events."""

    initial: tuple[int, ...]
    events: tuple[tuple[float, int, int], ...]
    seed: int
    replicate: int
    t_end: float

    def state_at(self, t: float) -> np.ndarray:
        """Counts right after the last event at or before ``t``."""
        z = np.array(self.initial, dtype=np.int64)
        for when, y, x in self.events:
            if when > t:
                break
            z[y] -= 1
            z[x] += 1
        return z

    def states_at(self, times: Sequence[float]) -> Iterator[np.ndarray]:
        """:meth:`state_at` of each of the nondecreasing ``times``, in one
        pass over the events."""
        z = np.array(self.initial, dtype=np.int64)
        events = iter(self.events)
        pending = next(events, None)
        for t in times:
            while pending is not None and pending[0] <= t:
                _, y, x = pending
                z[y] -= 1
                z[x] += 1
                pending = next(events, None)
            yield z.copy()


def simulate_forward(model: ForwardModel, z0: PopulationState, t_end: float,
                     seed: int, *, replicate: int = 0) -> TrajectoryRecord:
    """Event-driven path of the population process up to ``t_end``.

    The stream is seeded by ``(seed, replicate)``, so replicates are
    independent and each run is bit-reproducible.  ``t_end`` may be
    ``inf``; the loop then runs until absorption (monomorphic state).  A
    path that would record more than ``backward.MAX_EVENTS`` events before
    ``t_end``, or a population of more than ``DEFAULT_INDIVIDUAL_CAP``
    individuals, raises :class:`SizeCapError`.
    """
    space = model.space
    if z0.N != model.N or (z0.measure.sites, z0.measure.cards) != (space.sites, space.cards):
        raise InvalidInitialError(
            f"initial population must hold {model.N} individuals on sites {space.sites} "
            f"with alphabet sizes {space.cards}")
    if model.N > DEFAULT_INDIVIDUAL_CAP:
        raise SizeCapError(f"{model.N} individuals exceeds the cap of {DEFAULT_INDIVIDUAL_CAP} "
                           "held by the forward simulator; reduce N")
    budget = backward.MAX_EVENTS
    rng = np.random.default_rng([seed, replicate])
    N = model.N
    counts = [int(c) for c in z0.counts]
    pop = [x for x, c in enumerate(counts) for _ in range(c)]
    # A cut after site i keeps the first parent's letters on sites 1..i and
    # takes the rest from the second parent: the second parent's type code
    # modulo the number of types on sites i+1..n.  No cut is a tail of 1.
    tails = [1] + [math.prod(space.cards[i:]) for i in range(1, space.n)]
    cum = np.minimum(np.cumsum((model.recomb.r_whole, *model.recomb.crossover)), 1.0).tolist()
    last = len(cum) - 1
    t = 0.0
    events: list[tuple[float, int, int]] = []
    absorbed = max(counts) == N
    while not absorbed:
        t += rng.exponential(1.0 / N)
        if t >= t_end:
            break
        dying, first, second = rng.integers(N, size=3).tolist()
        tail = tails[min(bisect_right(cum, rng.random()), last)]
        a, b, y = pop[first], pop[second], pop[dying]
        x = a - a % tail + b % tail
        if x == y:
            continue
        if len(events) == budget:
            raise SizeCapError(f"more than {budget} events before t_end={t_end:g}; lower t_end")
        pop[dying] = x
        counts[y] -= 1
        counts[x] += 1
        events.append((t, y, x))
        absorbed = counts[x] == N
    return TrajectoryRecord(tuple(int(c) for c in z0.counts), tuple(events),
                            seed, replicate, t_end)


def deterministic_step(recomb: RecombinationDistribution, omega: Measure,
                       dt: float) -> Measure:
    """One classical RK4 step of the infinite-population replacement ODE.

    The field is the crossover-weighted sum of (normalized block-marginal
    product minus current state); it preserves total mass, so probability
    measures stay probability measures to machine precision.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    cards = omega.cards
    cuts = [(blocks, r) for blocks, r in recomb.support()[1:] if r > 0.0]
    parts = [blocks for blocks, _ in cuts]

    def field(w: np.ndarray) -> np.ndarray:
        norm = w.sum()
        products = block_products(w.reshape(cards), recomb.sites, parts)
        return sum((ri * (rbar / norm**2 - w) for (_, ri), rbar in zip(cuts, products)),
                   np.zeros_like(w))

    w = omega.weights
    k1 = field(w)
    k2 = field(w + 0.5 * dt * k1)
    k3 = field(w + 0.5 * dt * k2)
    k4 = field(w + dt * k3)
    return omega.with_weights(w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def integrate_deterministic(recomb: RecombinationDistribution, omega: Measure,
                            t_end: float, dt: float = 1e-3) -> Measure:
    """Fixed-step RK4 integration of the replacement ODE up to ``t_end``."""
    steps = int(np.ceil(t_end / dt)) if t_end > 0 else 0
    if steps:
        dt = t_end / steps
    for _ in range(steps):
        omega = deterministic_step(recomb, omega, dt)
    return omega


def trajectory_to_csv(rec: TrajectoryRecord, cards: Sequence[int],
                      header_comment: str | None = None) -> str:
    """Serialize events as ``time,dying_type,new_type`` with digit-token types."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    buf.write("time,dying_type,new_type\n")
    codes = {code for _, y, x in rec.events for code in (y, x)}
    tokens = {code: type_token(cards, code) for code in codes}  # each formatted once
    for t, y, x in rec.events:
        buf.write(f"{t:.17g},{tokens[y]},{tokens[x]}\n")
    return buf.getvalue()
