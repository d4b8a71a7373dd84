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
each fragment pick a parent); the generator matrices are built from the
same transition rates and serve as the exact reference.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import InvalidInitialError, SizeCapError
from .markov import GeneratorMatrix
from .measures import csv_table
from .operators import DiffusionRates, RecombinationDistribution
from .partitions import (
    DEFAULT_SITE_CAP,
    Partition,
    enumerate_partitions,
    format_partition,
    ordered_partitions_le2,
    parse_partition,
)

VARIANTS = ("finite", "deterministic", "diffusion")

# Events one simulated path may hold (about 0.5 kB each).  The finite and
# diffusion chains never absorb, so a huge ``t_end`` would otherwise run
# until memory is exhausted.
MAX_EVENTS = 100_000


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


def _falling_weight(N: int, m: int, b_size: int) -> float:
    """(N-(m-1))! / (N-b_size)! as a product; zero once ``b_size`` exceeds ``N``."""
    w = 1.0
    for i in range(N - b_size + 1, N - m + 2):
        if i <= 0:
            return 0.0
        w *= i
    return w


@lru_cache(maxsize=4096)
def _split_choices(model: BackwardModel, block: tuple[int, ...]) -> tuple[tuple[Partition, float], ...]:
    """(split, probability) over the at-most-two-part partitions of ``block``."""
    sub = model.recomb.marginal(block)
    return tuple(zip(ordered_partitions_le2(block), (sub.r_whole, *sub.crossover)))


def _merge_into(blocks: list[tuple[int, ...]], target: int,
                fragment: tuple[int, ...]) -> None:
    blocks[target] = tuple(sorted(blocks[target] + fragment))


def transition_rates(model: BackwardModel, a: Partition) -> dict[Partition, float]:
    """All nonzero off-diagonal rates out of ``a`` for the model variant.

    Built constructively from the event narrative: every way the fragments
    of a split can stay alone or land on another block contributes the
    rate of the resulting partition.
    """
    if model.variant == "finite":
        return _transition_rates_finite(model, a)
    if model.variant == "deterministic":
        return _transition_rates_det(model, a)
    return _transition_rates_diff(model, a)


def _transition_rates_finite(model: BackwardModel, a: Partition) -> dict[Partition, float]:
    N = model.N
    m = len(a)
    out: dict[Partition, float] = {}
    if m > N:
        return out  # states with more blocks than individuals are not reachable
    for j in range(m):
        block = a.blocks[j]
        others = [blk for k, blk in enumerate(a.blocks) if k != j]
        for jj, r in _split_choices(model, block):
            if r == 0.0:
                continue
            if len(jj) == 1:
                # unchanged block: it may still land on another block
                for k in range(m - 1):
                    blocks = list(others)
                    _merge_into(blocks, k, block)
                    b = Partition(tuple(blocks))
                    w = r / N * _falling_weight(N, m, len(b))
                    if w:
                        out[b] = out.get(b, 0.0) + w
                continue
            f1, f2 = jj.blocks
            targets = [None] + list(range(m - 1))
            for t1 in targets:
                for t2 in targets:
                    blocks = list(others)
                    if t1 is None:
                        blocks.append(f1)
                    else:
                        _merge_into(blocks, t1, f1)
                    if t2 is None:
                        blocks.append(f2)
                    else:
                        _merge_into(blocks, t2, f2)
                    b = Partition(tuple(blocks))
                    if b == a:
                        continue
                    w = r / N**2 * _falling_weight(N, m, len(b))
                    if w:
                        out[b] = out.get(b, 0.0) + w
    return out


def _transition_rates_det(model: BackwardModel, a: Partition) -> dict[Partition, float]:
    out: dict[Partition, float] = {}
    for j in range(len(a)):
        block = a.blocks[j]
        others = tuple(blk for k, blk in enumerate(a.blocks) if k != j)
        for jj, r in _split_choices(model, block):
            if len(jj) == 1 or r == 0.0:
                continue
            b = Partition(others + jj.blocks)
            out[b] = out.get(b, 0.0) + r
    return out


def _transition_rates_diff(model: BackwardModel, a: Partition) -> dict[Partition, float]:
    out: dict[Partition, float] = {}
    m = len(a)
    for j in range(m):
        block = a.blocks[j]
        others = tuple(blk for k, blk in enumerate(a.blocks) if k != j)
        for jj, rho in zip(ordered_partitions_le2(block)[1:], model.rho.marginal(block).rho):
            if rho == 0.0:
                continue
            b = Partition(others + jj.blocks)
            out[b] = out.get(b, 0.0) + rho
    for j in range(m):
        for k in range(j + 1, m):
            blocks = [blk for i, blk in enumerate(a.blocks) if i not in (j, k)]
            blocks.append(tuple(sorted(a.blocks[j] + a.blocks[k])))
            b = Partition(tuple(blocks))
            out[b] = out.get(b, 0.0) + 2.0
    return out


def _generator_from_rates(model: BackwardModel, cap: int) -> GeneratorMatrix:
    states = enumerate_partitions(model.sites, cap=cap)
    index = {p: i for i, p in enumerate(states)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for ai, a in enumerate(states):
        rates = transition_rates(model, a)
        rows += [ai] * (len(rates) + 1)
        cols += [index[b] for b in rates] + [ai]
        vals += [*rates.values(), -math.fsum(rates.values())]
    B = len(states)
    return GeneratorMatrix(tuple(states), sparse.coo_array((vals, (rows, cols)), shape=(B, B)))


def generator_theta(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Exact finite-population generator over all partitions of the sites.

    Rows with more blocks than individuals are zero; they are unreachable
    from any admissible initial partition.
    """
    if model.variant != "finite":
        raise ValueError("generator_theta needs the finite variant")
    return _generator_from_rates(model, cap)


def generator_theta_det(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Infinite-population (fixed crossover probabilities) generator: pure splitting."""
    if model.variant == "diffusion":
        raise ValueError("deterministic generator needs crossover probabilities")
    return _generator_from_rates(
        BackwardModel(model.n, model.N, model.recomb, "deterministic"), cap)


def generator_theta_diff(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Diffusion-limit generator: marginal split rates plus pairwise coalescence at 2."""
    if model.rho is None:
        raise ValueError("diffusion generator needs DiffusionRates")
    return _generator_from_rates(
        BackwardModel(model.n, model.N, model.recomb, "diffusion", model.rho), cap)


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

    def final_state(self) -> Partition:
        return self.state_at(np.inf)


def _exit_rate(model: BackwardModel, a: Partition) -> float:
    """Total rate of the narrative events that change ``a``.

    Every block meets an event at rate one.  The event is silent when the
    block stays whole and lands on an empty parent, or splits and both
    fragments land on the same empty parent.  In the deterministic limit
    every parent is fresh, so only the first case is silent.
    """
    N = model.N
    m = len(a)
    s = 0.0
    for block in a.blocks:
        r_one = _split_choices(model, block)[0][1]
        if model.variant == "finite":
            stay = (N - (m - 1)) / N
            s += r_one * stay + (1.0 - r_one) * stay / N
        else:
            s += r_one
    return m - s


def _narrative_step(model: BackwardModel, a: Partition,
                    rng: np.random.Generator) -> Partition:
    """One block-level event: split a uniform block, then a parent per fragment.

    Parents ``0..m-2`` carry the other blocks, the rest are empty.  The
    finite variant draws each parent among the ``N`` individuals; the
    deterministic variant gives every fragment a fresh one.
    """
    m = len(a)
    j = int(rng.integers(m))
    choices = _split_choices(model, a.blocks[j])
    u = rng.random()
    acc = 0.0
    jj = choices[-1][0]
    for cand, p in choices:
        acc += p
        if u < acc:
            jj = cand
            break
    if model.variant == "finite":
        parents = [int(rng.integers(model.N)) for _ in jj.blocks]
    else:
        parents = list(range(m - 1, m - 1 + len(jj)))
    if parents[0] >= m - 1 and len(set(parents)) == 1:
        return a  # the whole block lands on one empty parent
    blocks = [blk for k, blk in enumerate(a.blocks) if k != j]
    for fragment, parent in zip(jj.blocks, parents):
        if parent < m - 1:
            _merge_into(blocks, parent, fragment)
        else:
            blocks.append(fragment)
    return Partition(tuple(blocks))


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
    cur = sigma0
    t = 0.0
    events: list[tuple[float, Partition]] = []
    while True:
        if model.variant == "diffusion":
            rates = transition_rates(model, cur)
            total = sum(rates.values())
        else:
            total = _exit_rate(model, cur)
        if total <= len(cur) * 1e-13:
            break  # absorbing: no state-changing event has positive rate
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        if len(events) == MAX_EVENTS:
            raise SizeCapError(f"more than {MAX_EVENTS} events before t_end={t_end:g}; "
                               "lower t_end")
        nxt = cur
        if model.variant == "diffusion":
            u = rng.random() * total
            acc = 0.0
            for b, rate in rates.items():
                acc += rate
                if u < acc:
                    nxt = b
                    break
        else:
            while nxt == cur:
                nxt = _narrative_step(model, cur, rng)
        cur = nxt
        events.append((t, cur))
    return PartitionTrajectory(sigma0, tuple(events), seed, replicate, t_end)


def partition_trajectory_to_csv(rec: PartitionTrajectory,
                                header_comment: str | None = None) -> str:
    """Serialize as ``time,partition`` rows; the partition field is quoted."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    buf.write("time,partition\n")
    for t, p in rec.events:
        buf.write(f'{t:.17g},"{format_partition(p)}"\n')
    return buf.getvalue()


def partition_events_from_csv(text: str) -> list[tuple[float, Partition]]:
    """Parse the output of :func:`partition_trajectory_to_csv`."""
    return [(float(t), parse_partition(p))
            for t, p in csv_table(text, ("time", "partition"))[1]]


def generator_to_csv(gen: GeneratorMatrix, header_comment: str | None = None) -> str:
    """Dense CSV with the partition order as header row."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    labels = [format_partition(p) if isinstance(p, Partition) else str(p)
              for p in gen.labels]
    buf.write("state," + ",".join(f'"{lab}"' for lab in labels) + "\n")
    dense = gen.matrix.toarray()
    for lab, values in zip(labels, dense):
        row = ",".join(f"{v:.17g}" for v in values)
        buf.write(f'"{lab}",{row}\n')
    return buf.getvalue()


def generator_from_csv(text: str) -> GeneratorMatrix:
    """Parse the output of :func:`generator_to_csv` (partition labels)."""
    rows = []
    labels: list[Partition] = []
    header, data = csv_table(text, ("state",))
    for fields in data:
        labels.append(parse_partition(fields[0]))
        rows.append([float(v) for v in fields[1:]])
    if [format_partition(p) for p in labels] != header[1:]:
        raise ValueError("row labels do not match the header order")
    return GeneratorMatrix(tuple(labels), np.array(rows))
