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
class table from its model's bounded table of states, keyed by the block
tuple alone, and it reads each replicate's random stream as blocks of
uniforms, so an event costs three or four uniforms from a list, a
``log1p`` and a few tuple operations.
"""

from __future__ import annotations

import io
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInitialError, SizeCapError
from .markov import GeneratorMatrix
from .measures import FORMAT_CHUNK, format_g17
from .operators import DiffusionRates, RecombinationDistribution
from .partitions import Block, Partition, format_partition, lattice

VARIANTS = ("finite", "deterministic", "diffusion")

# Events one simulated path may hold (about 0.5 kB each), read at call time
# by both simulators.  The finite and diffusion partitioning chains never
# absorb, and a large population takes long to, so a huge ``t_end`` would
# otherwise run until memory is exhausted.
MAX_EVENTS = 100_000

# Simulation states held by the state tables of all models together: every
# state of one 8-site model (4140 partitions) and most of a second's.
STATE_CACHE_SIZE = 8192

# Uniforms the simulator draws from a replicate's stream in one call.
_UNIFORM_BLOCK = 256


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
    """What the simulator needs of one state, built once per model and
    block tuple and kept in the model's :class:`_Table`.

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


class _Table(NamedTuple):
    """The simulator's tables of one model: its states by canonical block
    tuple, and the :func:`_split_choices` of their blocks by block."""

    states: dict[tuple[Block, ...], _State]
    splits: dict[Block, tuple[tuple[tuple[Block, ...], float], ...]]


# One table per model.  Their states number at most STATE_CACHE_SIZE in all,
# and a table's split choices at most one per block of its states, so the
# tables stay bounded for any number of sites.  The lock guards every change
# to the set of tables and every insertion of a state; lookups take no lock.
_tables: dict[BackwardModel, _Table] = {}
_tables_lock = threading.Lock()


def _table(model: BackwardModel) -> _Table:
    table = _tables.get(model)
    if table is None:
        with _tables_lock:
            table = _tables.setdefault(model, _Table({}, {}))
    return table


def _state(model: BackwardModel, blocks: tuple[Block, ...]) -> _State:
    """The :class:`_State` of the canonical block tuple ``blocks``, from
    ``model``'s table, built on its first visit."""
    table = _table(model)
    return table.states.get(blocks) or _new_state(model, table, blocks)


def _new_state(model: BackwardModel, table: _Table, blocks: tuple[Block, ...]) -> _State:
    """Build the :class:`_State` of ``blocks`` into ``model``'s ``table``.

    When the tables hold ``STATE_CACHE_SIZE`` states in all, the other
    models' tables are dropped first, and then ``table`` is cleared if it
    alone is full.  A path in another thread keeps the table it holds, and
    counts it again from its next new state on, so each thread holds at
    most one table beyond the bound, and only while its path runs.

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
        choices = table.splits.get(block)
        if choices is None:
            choices = table.splits[block] = _split_choices(model, block)
        for fragments, weight in choices:
            rate = weight * (whole if len(fragments) == 1 else cut)
            if rate > 0.0:
                moves.append((j, fragments))
                rates.append(rate)
    cum = tuple(accumulate(rates))
    rest = tuple(blocks[:j] + blocks[j + 1:] for j in range(m))
    state = _State(cum[-1] if cum else 0.0, Partition._canonical(blocks), rest, cum,
                   tuple(moves))
    with _tables_lock:
        _tables[model] = table  # counted again if another thread dropped it
        if sum(len(t.states) for t in _tables.values()) >= STATE_CACHE_SIZE:
            for other in [key for key, t in _tables.items() if t is not table]:
                del _tables[other]
            if len(table.states) >= STATE_CACHE_SIZE:
                table.states.clear()
                table.splits.clear()
        table.states[blocks] = state
    return state


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The uniforms of ``rng`` on [0, 1), multiples of 2**-53, drawn
    ``_UNIFORM_BLOCK`` at a time."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _jump(state: _State, N: int | None, u: Callable[[], float]) -> tuple[Block, ...]:
    """The target of one state-changing event: a move class drawn at its
    rate, then the parent of each of its fragments, each from the next
    uniform ``u()``.

    Parents ``0..m-2`` carry the other blocks, the rest are empty.  A whole
    block lands on the other block ``int(u*(m-1))``.  With a population
    size ``N`` (the finite variant) the two fragments of a cut land on the
    individuals ``int(u*N)``, redrawn only when both drew the same empty
    one; without one both get fresh parents.  A class is picked by bisecting
    ``u*rate`` in the cumulative rates, and a multiple of 2**-53 scaled to
    ``m-1`` or ``N`` choices lands on each with a probability within 2**-53
    of its share, so every jump probability is the generator's to within a
    few units of 2**-53.
    """
    m = len(state.rest)
    cum = state.cum
    j, fragments = state.moves[bisect_right(cum, u() * state.rate, 0, len(cum) - 1)]
    if len(fragments) == 1:
        parents = (int(u() * (m - 1)),)
    elif N is None:
        parents = (m - 1, m)
    else:
        parents = (int(u() * N), int(u() * N))
        while parents[0] == parents[1] >= m - 1:  # silent: the block stays whole
            parents = (int(u() * N), int(u() * N))
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

    Holding times use the exact rate of leaving the current state, as
    ``-log1p(-u)/rate``, and each jump is drawn by :func:`_jump` from the
    state's move classes, so no draw is silent and the path law is the
    generator's in every variant, to the resolution of 2**-53 of the
    uniforms ``u``.  The uniforms are read in order from the stream
    ``default_rng([seed, replicate])``, ``_UNIFORM_BLOCK`` per call, so a
    path depends only on ``(seed, replicate)``.  The finite and diffusion
    chains have in general no absorbing state, so a path that would need
    more than ``MAX_EVENTS`` events before ``t_end`` raises
    :class:`SizeCapError`.
    """
    if sigma0.ground != model.sites:
        raise InvalidInitialError(f"initial partition must cover sites {model.sites}")
    if model.variant == "finite" and len(sigma0) > model.N:
        raise InvalidInitialError("more blocks than individuals in the population")
    u = _uniforms(np.random.default_rng([seed, replicate])).__next__
    N = model.N if model.variant == "finite" else None
    table = _table(model)
    states = table.states
    cur = sigma0.blocks
    state = _state(model, cur)
    t = 0.0
    events: list[tuple[float, Partition]] = []
    while True:
        if state.rate <= len(cur) * 1e-13:
            break  # absorbing: no state-changing event has positive rate
        t -= math.log1p(-u()) / state.rate
        if t >= t_end:
            break
        if len(events) == MAX_EVENTS:
            raise SizeCapError(f"more than {MAX_EVENTS} events before t_end={t_end:g}; "
                               "lower t_end")
        cur = _jump(state, N, u)
        state = states.get(cur) or _new_state(model, table, cur)
        events.append((t, state.partition))
    return PartitionTrajectory(sigma0, tuple(events), seed, replicate, t_end)


def partition_trajectory_to_csv(rec: PartitionTrajectory,
                                header_comment: str | None = None) -> str:
    """Serialize as ``time,partition`` rows; the partition field is quoted.  Each
    state the simulator caches is formatted once, as its :attr:`Partition.label`."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    buf.write("time,partition\n")
    for t, p in rec.events:
        buf.write(f'{t:.17g},"{p.label}"\n')
    return buf.getvalue()


def generator_to_csv(gen: GeneratorMatrix, partitions: Sequence[Partition],
                     header_comment: str | None = None) -> str:
    """Dense CSV with ``partitions``, the states of the rows in order, as header row."""
    buf = io.BytesIO()
    if header_comment:
        buf.write(f"# {header_comment}\n".encode())
    labels = [format_partition(p) for p in partitions]
    buf.write(("state," + ",".join(f'"{lab}"' for lab in labels) + "\n").encode())
    dense = gen.toarray()
    B = dense.shape[1]
    per = max(1, FORMAT_CHUNK // B)  # rows per call of the formatter

    def rows():
        for lo in range(0, len(dense), per):
            text = format_g17(dense[lo:lo + per].ravel())
            for j in range(0, len(text), B):
                yield b",".join(text[j:j + B])

    for lab, row in zip(labels, rows(), strict=True):
        buf.write(f'"{lab}",'.encode() + row + b"\n")
    return buf.getvalue().decode()
