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
serve as the exact reference.
"""

from __future__ import annotations

import io
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
    lattice,
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


@lru_cache(maxsize=4096)
def _split_choices(model: BackwardModel, block: tuple[int, ...]) -> tuple[tuple[Partition, float], ...]:
    """(split, probability) over the at-most-two-part partitions of ``block``."""
    sub = model.recomb.marginal(block)
    return tuple(zip(ordered_partitions_le2(block), (sub.r_whole, *sub.crossover)))


def _merge_into(blocks: list[tuple[int, ...]], target: int,
                fragment: tuple[int, ...]) -> None:
    blocks[target] = tuple(sorted(blocks[target] + fragment))


def _transition_rates_diff(model: BackwardModel, a: Partition) -> dict[Partition, float]:
    """Nonzero diffusion rates out of ``a``: each block splits at the rates of
    its cuts, and each unordered pair of blocks merges at 2."""
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


def _theta(model: BackwardModel, cap: int) -> GeneratorMatrix:
    """Generator of the model's variant over all partitions of the sites.

    One weighting of the lattice's split/merge incidence per variant.  A
    block stays whole with probability one minus the crossover mass
    between its outer sites, and is cut between consecutive sites with
    the mass of the gaps between them.  Finite: every move, times the
    ``(N-(m-1))!/(N-|b|)!`` parent choices that give ``b``, over ``N``
    (whole) or ``N**2`` (cut) parents drawn.  Deterministic: only cuts
    whose fragments both land on fresh parents.  Diffusion: those cuts at
    the summed rates, and every whole block landing on another at 1, so
    each unordered pair of blocks merges at 2.
    """
    labels = tuple(enumerate_partitions(model.sites, cap))
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
    B = len(L.keys)
    diag = np.arange(B)
    rows, cols = np.concatenate((a, diag)), np.concatenate((b, diag))
    vals = np.concatenate((rate, -np.bincount(a, rate, minlength=B)))
    return GeneratorMatrix(labels, sparse.coo_array((vals, (rows, cols)), shape=(B, B)))


def generator_theta(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Exact finite-population generator over all partitions of the sites.

    Rows with more blocks than individuals are zero; they are unreachable
    from any admissible initial partition.
    """
    if model.variant != "finite":
        raise ValueError("generator_theta needs the finite variant")
    return _theta(model, cap)


def generator_theta_det(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Infinite-population (fixed crossover probabilities) generator: pure splitting."""
    if model.variant == "diffusion":
        raise ValueError("deterministic generator needs crossover probabilities")
    return _theta(BackwardModel(model.n, model.N, model.recomb, "deterministic"), cap)


def generator_theta_diff(model: BackwardModel, cap: int = DEFAULT_SITE_CAP) -> GeneratorMatrix:
    """Diffusion-limit generator: marginal split rates plus pairwise coalescence at 2."""
    if model.rho is None:
        raise ValueError("diffusion generator needs DiffusionRates")
    return _theta(BackwardModel(model.n, model.N, model.recomb, "diffusion", model.rho), cap)


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
            rates = _transition_rates_diff(model, cur)
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
