"""The partitioning process: ancestry of site blocks backward in time.

States are partitions of the site set; blocks split when a crossover hits
the material that separates their sites, and blocks coalesce when two
fragments pick the same parent among the ``N`` individuals of the
population.  Three variants share one interface:

* ``finite``: the exact finite-population chain.
* ``deterministic``: the infinite-population limit at fixed crossover
  probabilities, a pure splitting (progressive refinement) process.
* ``diffusion``: crossover probabilities scaled like rates over ``N`` and
  time sped up by ``N``; splits at marginal rates, every unordered pair of
  blocks coalesces at rate 2, and nothing else.

The generator matrices weight the split/merge incidence of the partition
lattice.  The simulator draws from the same moves, grouped in classes: a
block kept whole, or a block cut after one of its sites, each at the rate
at which it changes the state; where the fragments land is drawn after.
It visits each state as its canonical tuple of blocks and reads the
class table from a bounded cache of states, so an event costs three
random draws and a few tuple operations.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInitialError, SizeCapError
from .markov import GeneratorMatrix
from .operators import DiffusionRates, RecombinationDistribution
from .partitions import Block, Partition, format_partition, lattice

VARIANTS = ("finite", "deterministic", "diffusion")

# Events one simulated path may hold (about 0.5 kB each), read at call time
# by both simulators.  The finite and diffusion partitioning chains never
# absorb, and a large population takes long to, so a huge ``t_end`` would
# otherwise run until memory is exhausted.
MAX_EVENTS = 100_000

# Simulation states held by the state cache: twice the 4140 partitions of
# the largest lattice, so two models of 8 sites fit at once.
STATE_CACHE_SIZE = 8192


@dataclass(frozen=True)
class BackwardModel:
    """Sites, population size, recombination input and limit variant."""

    n: int
    N: int
    recomb: RecombinationDistribution | None = None
    variant: str = "finite"
    rho: DiffusionRates | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "diffusion":
            if self.rho is None:
                raise ValueError("diffusion variant needs DiffusionRates")
            if self.rho.n != self.n:
                raise ValueError("rates and model disagree on n")
        else:
            if self.recomb is None:
                raise ValueError(f"{self.variant} variant needs a RecombinationDistribution")
            if self.recomb.n != self.n:
                raise ValueError("recombination distribution and model disagree on n")
        if self.N < 1:
            raise ValueError("population size must be at least 1")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))


@lru_cache(maxsize=4096)
def _split_choices(model: BackwardModel,
                   block: Block) -> tuple[tuple[tuple[Block, ...], float], ...]:
    """(fragments, weight) pairs: ``block`` whole, then cut after each of its
    sites but the last.  The weights are the probabilities of
    ``recomb.marginal(block)``; in the diffusion variant, whose model may
    carry no ``recomb``, they are 1 for the whole block and the rates of
    ``rho.marginal(block)`` for the cuts."""
    if model.variant == "diffusion":
        whole, cuts = 1.0, model.rho.marginal(block).rho
    else:
        sub = model.recomb.marginal(block)
        whole, cuts = sub.r_whole, sub.crossover
    return (((block,), whole),
            *(((block[:k], block[k:]), r) for k, r in enumerate(cuts, start=1)))


def _merge_into(blocks: list[tuple[int, ...]], target: int,
                fragment: tuple[int, ...]) -> None:
    blocks[target] = tuple(sorted(blocks[target] + fragment))


def _theta_entries(model: BackwardModel) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(B, rows, cols, vals)``: the entries of the generator of
    ``model.variant``, one per move of the lattice incidence (moves the
    variant excludes at rate 0), then the diagonal.  See
    :func:`generator_theta`."""
    L = lattice(model.n)
    inc = L.incidence
    split, m, nb = inc["split"], inc["m"], inc["nb"]
    per_gap = model.rho.rho if model.variant == "diffusion" else model.recomb.crossover
    cum = np.concatenate(([0.0], np.cumsum(per_gap)))
    gap = cum[inc["hi"]] - cum[inc["lo"]]
    fresh = split & (nb == m + 1)
    if model.variant == "finite":
        N = model.N
        falling = np.where(nb == m + 1, (N - m + 1.0) * (N - m), np.where(nb == m, N - m + 1.0, 1.0))
        rate = np.where(split, gap / N**2, np.maximum(1.0 - gap, 0.0) / N) * falling
        keep = m <= N  # states with more blocks than individuals are not reachable
    elif model.variant == "deterministic":
        rate, keep = gap, fresh
    else:
        rate, keep = np.where(split, gap, 1.0), fresh | ~split
    rate = np.where(keep, rate, 0.0)
    by_row, ends = rate.tolist(), inc["offsets"].tolist()
    exit_rates = [math.fsum(by_row[i:j]) for i, j in zip(ends, ends[1:])]
    B = len(L.sizes)
    diag = np.arange(B)
    return (B, np.concatenate((inc["a"], diag)), np.concatenate((inc["b"], diag)),
            np.concatenate((rate, np.negative(exit_rates))))


def generator_theta(model: BackwardModel) -> GeneratorMatrix:
    """Generator of ``model.variant`` over all partitions of the sites.

    Row and column ``i`` are partition ``i`` of
    ``enumerate_partitions(model.sites)``, the row order of
    ``lattice(model.n)``; no partition is built.  One weighting of the
    lattice's split/merge incidence per variant.  A block stays whole with
    probability one minus the crossover mass between its outer sites, and
    is cut between consecutive sites with the mass of the gaps between
    them.  Finite: every move, times the
    ``(N-(m-1))!/(N-|b|)!`` parent choices that give ``b``, over ``N``
    (whole) or ``N**2`` (cut) parents drawn; rows with more blocks than
    individuals are zero, as no admissible start reaches them.
    Deterministic: only cuts whose fragments both land on fresh parents.
    Diffusion: those cuts at the summed rates, and every whole block
    landing on another at 1, so each unordered pair of blocks merges at 2.
    The diagonal is minus the ``math.fsum`` over each row's slice of the
    row-sorted incidence, so it does not depend on the order of the moves.
    :func:`generator_theta_dense` assembles the same entries densely, and
    sums them in the same order, so ``toarray()`` equals it bit for bit.
    """
    return GeneratorMatrix(*_theta_entries(model))


def generator_theta_dense(model: BackwardModel) -> np.ndarray:
    """:func:`generator_theta` as a dense array, summed straight from its
    entries without scipy."""
    B, rows, cols, vals = _theta_entries(model)
    return np.bincount(rows * B + cols, vals, B * B).reshape(B, B)


@dataclass(frozen=True)
class PartitionTrajectory:
    """One simulated ancestry path: (time, partition) jumps from ``initial``."""

    initial: Partition
    events: tuple[tuple[float, Partition], ...]
    seed: int
    replicate: int
    t_end: float

    def state_at(self, t: float) -> Partition:
        cur = self.initial
        for when, p in self.events:
            if when > t:
                break
            cur = p
        return cur


class _State(NamedTuple):
    """What the simulator needs of one state, built once per (model, blocks).

    ``moves`` lists the move classes of positive rate as ``(j, fragments)``:
    block ``j`` kept whole (one fragment) or cut in two.  ``cum`` holds
    their cumulative rates, summed left to right, and ``rate``, the last
    of them, is the exit rate.  ``rest[j]`` holds the blocks other than
    ``j``, in order.
    """

    rate: float
    partition: Partition
    rest: tuple[tuple[Block, ...], ...]
    cum: tuple[float, ...]
    moves: tuple[tuple[int, tuple[Block, ...]], ...]


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _state(model: BackwardModel, blocks: tuple[Block, ...]) -> _State:
    """The cached :class:`_State` of the canonical block tuple ``blocks``.

    A class's rate is its :func:`_split_choices` weight times the chance
    that it changes the state.  Finite: a whole block must land on one of
    the ``m-1`` parents of the other blocks among the ``N`` individuals,
    and a cut changes the state unless both fragments land on the same of
    the ``N-m+1`` empty parents.  Deterministic: every fragment gets a
    fresh parent, so only cuts move.  Diffusion: a whole block lands on
    each other block at rate 1, and a cut sends both fragments to fresh
    parents.  States with more blocks than individuals have no moves, as
    their generator rows.
    """
    m = len(blocks)
    if model.variant == "finite":
        N = model.N
        whole, cut = ((m - 1) / N, (N * N - (N - m + 1)) / N**2) if m <= N else (0.0, 0.0)
    elif model.variant == "deterministic":
        whole, cut = 0.0, 1.0
    else:
        whole, cut = m - 1.0, 1.0
    moves, rates = [], []
    for j, block in enumerate(blocks):
        for fragments, weight in _split_choices(model, block):
            rate = weight * (whole if len(fragments) == 1 else cut)
            if rate > 0.0:
                moves.append((j, fragments))
                rates.append(rate)
    cum = tuple(accumulate(rates))
    rest = tuple(blocks[:j] + blocks[j + 1:] for j in range(m))
    return _State(cum[-1] if cum else 0.0, Partition(blocks), rest, cum, tuple(moves))


def _jump(state: _State, N: int | None, rng: np.random.Generator) -> tuple[Block, ...]:
    """The target of one state-changing event: a move class drawn at its
    rate, then the parent of each of its fragments.

    Parents ``0..m-2`` carry the other blocks, the rest are empty.  A whole
    block lands on a uniform other block's parent.  With a population size
    ``N`` (the finite variant) the two fragments of a cut draw their
    parents among the ``N`` individuals, redrawn only when both drew the
    same empty one; without one both get fresh parents.
    """
    m = len(state.rest)
    j, fragments = state.moves[bisect_right(state.cum, rng.random() * state.rate,
                                            0, len(state.cum) - 1)]
    if len(fragments) == 1:
        parents = [int(rng.integers(m - 1))]
    elif N is None:
        parents = [m - 1, m]
    else:
        parents = rng.integers(N, size=2).tolist()
        while parents[0] == parents[1] >= m - 1:  # silent: the block stays whole
            parents = rng.integers(N, size=2).tolist()
    blocks = list(state.rest[j])
    for fragment, parent in zip(fragments, parents):
        if parent < m - 1:
            _merge_into(blocks, parent, fragment)
        else:
            blocks.append(fragment)
    return tuple(sorted(blocks))  # blocks are disjoint: sorted by their first site


def simulate_backward(model: BackwardModel, sigma0: Partition, t_end: float,
                      seed: int, *, replicate: int = 0) -> PartitionTrajectory:
    """Event-driven path of the partitioning process up to ``t_end``.

    Holding times use the exact rate of leaving the current state, and
    each jump is drawn by :func:`_jump` from the state's move classes, so
    no draw is silent and the path law is the generator's in every
    variant.  The stream is seeded by ``(seed, replicate)``.  The finite
    and diffusion chains have in general no absorbing state, so a path
    that would need more than ``MAX_EVENTS`` events before ``t_end`` raises
    :class:`SizeCapError`.
    """
    if sigma0.ground != model.sites:
        raise InvalidInitialError(f"initial partition must cover sites {model.sites}")
    if model.variant == "finite" and len(sigma0) > model.N:
        raise InvalidInitialError("more blocks than individuals in the population")
    rng = np.random.default_rng([seed, replicate])
    N = model.N if model.variant == "finite" else None
    cur = sigma0.blocks
    state = _state(model, cur)
    t = 0.0
    events: list[tuple[float, Partition]] = []
    while True:
        if state.rate <= len(cur) * 1e-13:
            break  # absorbing: no state-changing event has positive rate
        t += rng.exponential(1.0 / state.rate)
        if t >= t_end:
            break
        if len(events) == MAX_EVENTS:
            raise SizeCapError(f"more than {MAX_EVENTS} events before t_end={t_end:g}; "
                               "lower t_end")
        cur = _jump(state, N, rng)
        state = _state(model, cur)
        events.append((t, state.partition))
    return PartitionTrajectory(sigma0, tuple(events), seed, replicate, t_end)


def partition_trajectory_to_csv(rec: PartitionTrajectory,
                                header_comment: str | None = None) -> str:
    """Serialize as ``time,partition`` rows; the partition field is quoted."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    buf.write("time,partition\n")
    labels: dict[Partition, str] = {}  # each distinct state is formatted once
    for t, p in rec.events:
        label = labels.get(p)
        if label is None:
            label = labels[p] = format_partition(p)
        buf.write(f'{t:.17g},"{label}"\n')
    return buf.getvalue()


def generator_to_csv(gen: GeneratorMatrix, partitions: Sequence[Partition],
                     header_comment: str | None = None) -> str:
    """Dense CSV with ``partitions``, the states of the rows in order, as header row."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    labels = [format_partition(p) for p in partitions]
    buf.write("state," + ",".join(f'"{lab}"' for lab in labels) + "\n")
    dense = gen.toarray()
    for lab, values in zip(labels, dense, strict=True):
        row = ",".join(f"{v:.17g}" for v in values)
        buf.write(f'"{lab}",{row}\n')
    return buf.getvalue()
