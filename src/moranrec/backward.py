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

Simulation follows the generative narrative (pick a block, split it, let
each fragment pick a parent); the generator matrices weight the
split/merge incidence of the partition lattice with the same rates and
serve as the exact reference.  The simulator visits each state as its
canonical tuple of blocks and reads everything a jump needs (exit rate,
cumulative split probabilities, the other blocks) from a bounded cache
of states, so an event costs its random draws and a few tuple
operations.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
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
    """(fragments, probability) pairs: ``block`` whole, then cut after each of
    its sites but the last, with the probabilities of ``recomb.marginal(block)``."""
    sub = model.recomb.marginal(block)
    return (((block,), sub.r_whole),
            *(((block[:k], block[k:]), r) for k, r in enumerate(sub.crossover, start=1)))


def _merge_into(blocks: list[tuple[int, ...]], target: int,
                fragment: tuple[int, ...]) -> None:
    blocks[target] = tuple(sorted(blocks[target] + fragment))


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
    The diagonal is minus the ``math.fsum`` of each row's moves, so it does
    not depend on their order.
    """
    from scipy import sparse

    L = lattice(model.n)
    inc = L.incidence
    split, m, nb = inc["split"], inc["m"], inc["nb"]
    per_gap = model.rho.rho if model.variant == "diffusion" else model.recomb.crossover
    cum = np.concatenate(([0.0], np.cumsum(per_gap)))
    gap = cum[inc["hi"]] - cum[inc["lo"]]
    fresh = split & (nb == m + 1)
    if model.variant == "finite":
        N = model.N
        falling = np.select([nb == m + 1, nb == m], [(N - m + 1.0) * (N - m), N - m + 1.0], 1.0)
        rate = np.where(split, gap / N**2, np.maximum(1.0 - gap, 0.0) / N) * falling
        keep = m <= N  # states with more blocks than individuals are not reachable
    elif model.variant == "deterministic":
        rate, keep = gap, fresh
    else:
        rate, keep = np.where(split, gap, 1.0), fresh | ~split
    a, b, rate = inc["a"][keep], inc["b"][keep], rate[keep]
    B = len(L.sizes)
    by_row = rate[np.argsort(a, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(a, minlength=B)).tolist()
    exit_rates = [math.fsum(by_row[i:j]) for i, j in zip([0] + ends, ends)]
    diag = np.arange(B)
    rows, cols = np.concatenate((a, diag)), np.concatenate((b, diag))
    vals = np.concatenate((rate, np.negative(exit_rates)))
    return GeneratorMatrix(sparse.coo_array((vals, (rows, cols)), shape=(B, B)))


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

    ``splits[j]`` holds the cumulative split probabilities of block ``j``
    and the fragments of each split (the last repeated once, for a draw
    past the final sum); ``rest[j]`` holds the other blocks, in order.  The
    diffusion variant jumps by its transition rates instead: ``jumps``
    holds their cumulative sums and the target states (the state itself
    last).  Sums run left to right, as a running ``acc += p`` would.
    """

    rate: float
    partition: Partition
    rest: tuple[tuple[Block, ...], ...]
    splits: tuple[tuple[tuple[float, ...], tuple[tuple[Block, ...], ...]], ...]
    jumps: tuple[tuple[float, ...], tuple[tuple[Block, ...], ...]] | None


@lru_cache(maxsize=STATE_CACHE_SIZE)
def _state(model: BackwardModel, blocks: tuple[Block, ...]) -> _State:
    """The cached :class:`_State` of the canonical block tuple ``blocks``.

    In the narrative variants every block meets an event at rate one.  The
    event is silent when the block stays whole and lands on an empty
    parent, or splits and both fragments land on the same empty parent; in
    the deterministic limit every parent is fresh, so only the first case
    is silent.  The exit rate is ``m`` minus the silent rates.
    """
    a = Partition(blocks)
    m = len(blocks)
    if model.variant == "diffusion":
        # each block cut at the nonzero rates of its splits, then each
        # unordered pair of blocks merged at 2; no two moves share a target
        moves = []
        for j, block in enumerate(blocks):
            rest = blocks[:j] + blocks[j + 1:]
            for k, rho in enumerate(model.rho.marginal(block).rho, start=1):
                if rho != 0.0:
                    moves.append((tuple(sorted(rest + (block[:k], block[k:]))), rho))
        for j, k in combinations(range(m), 2):
            rest = blocks[:j] + blocks[j + 1:k] + blocks[k + 1:]
            merged = tuple(sorted(blocks[j] + blocks[k]))
            moves.append((tuple(sorted(rest + (merged,))), 2.0))
        rates = [rate for _, rate in moves]
        targets = tuple(b for b, _ in moves) + (blocks,)
        return _State(sum(rates), a, (), (), (tuple(accumulate(rates)), targets))
    N = model.N
    stay = (N - (m - 1)) / N  # finite: the chance that a parent is empty
    silent = 0.0
    splits = []
    for block in blocks:
        choices = _split_choices(model, block)
        r_one = choices[0][1]
        if model.variant == "finite":
            silent += r_one * stay + (1.0 - r_one) * stay / N
        else:
            silent += r_one
        fragments = tuple(f for f, _ in choices)
        splits.append((tuple(accumulate(p for _, p in choices)), fragments + fragments[-1:]))
    rest = tuple(blocks[:j] + blocks[j + 1:] for j in range(m))
    return _State(m - silent, a, rest, tuple(splits), None)


def _narrative_jump(cur: tuple[Block, ...], state: _State, N: int | None,
                    rng: np.random.Generator) -> tuple[Block, ...]:
    """One block-level event: split a uniform block, then a parent per fragment.

    Parents ``0..m-2`` carry the other blocks, the rest are empty.  With a
    population size ``N`` (the finite variant) each parent is drawn among
    the ``N`` individuals; without one (the deterministic variant) every
    fragment gets a fresh one.  Returns ``cur`` itself when the event is
    silent.
    """
    m = len(cur)
    j = int(rng.integers(m))
    cum, fragments = state.splits[j]
    split = fragments[bisect_right(cum, rng.random())]
    if N is None:
        parents = list(range(m - 1, m - 1 + len(split)))
    else:
        parents = [int(rng.integers(N)) for _ in split]
    if parents[0] >= m - 1 and parents[-1] == parents[0]:  # at most two fragments
        return cur  # the whole block lands on one empty parent
    blocks = list(state.rest[j])
    for fragment, parent in zip(split, parents):
        if parent < m - 1:
            _merge_into(blocks, parent, fragment)
        else:
            blocks.append(fragment)
    return tuple(sorted(blocks))  # blocks are disjoint: sorted by their first site


def simulate_backward(model: BackwardModel, sigma0: Partition, t_end: float,
                      seed: int, *, replicate: int = 0) -> PartitionTrajectory:
    """Event-driven path of the partitioning process up to ``t_end``.

    Holding times use the exact rate of leaving the current state.  For the
    finite and deterministic variants the jump is the narrative step,
    redrawn until it changes the state, which leaves the path law
    unchanged; the diffusion variant picks its jump from the transition
    rates.  The finite and diffusion chains have in general no absorbing
    state, so a path that would need more than ``MAX_EVENTS`` events before
    ``t_end`` raises :class:`SizeCapError`.
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
        if state.jumps is not None:
            cum, targets = state.jumps
            nxt = targets[bisect_right(cum, rng.random() * state.rate)]
        else:
            nxt = cur
            while nxt == cur:
                nxt = _narrative_jump(cur, state, N, rng)
        cur = nxt
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
    dense = gen.matrix.toarray()
    for lab, values in zip(labels, dense, strict=True):
        row = ",".join(f"{v:.17g}" for v in values)
        buf.write(f'"{lab}",{row}\n')
    return buf.getvalue()
