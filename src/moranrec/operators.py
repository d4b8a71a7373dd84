"""Recombination, sampling and correlation operators on measures.

Three families of operators act on a measure over a site set ``u``, all
indexed by a partition ``a`` of ``u``:

* ``recombinator_bar(a, m)``: the product of the block marginals of ``m``
  (site-ordered tensor).  Its normalization ``recombinator`` is the type
  distribution obtained by drawing one individual per block *with*
  replacement and splicing the blocks together.
* ``sampling_bar(a, z)``: the Mobius inversion of the recombinator over
  coarsenings of ``a``.  On a counting measure it counts the outcomes of
  the same splicing experiment with individuals drawn *without*
  replacement; ``sampling`` normalizes it to a probability measure.
* ``lde_operator(a, m)``: Mobius inversion from below of the normalized
  recombinators; the all-in-one-block case is the multilocus linkage
  disequilibrium of the sites in ``u``.

``sampling_bar`` is the Mobius sum (cheap, a Bell number of tensor
products); the test suite checks it against a brute-force enumeration of
label tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (
    NotOrderedPartitionError,
    NotSubsetError,
    SampleTooLargeError,
    ZeroMeasureError,
)
from .measures import (
    Measure,
    marginalize,
    tensor_site_ordered,
)
from .partitions import (
    Partition,
    coarsenings_with_mobius,
    coarsest,
    mobius,
    ordered_partitions_le2,
    refinements,
    restrict,
    site_set,
)


@dataclass(frozen=True)
class RecombinationDistribution:
    """Single-crossover probabilities on sites ``1..n``.

    ``crossover[i-1]`` is the probability of a cut between sites ``i`` and
    ``i+1``; the remaining mass is the no-recombination probability.
    """

    n: int
    crossover: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossover", tuple(float(c) for c in self.crossover))
        if self.n < 1:
            raise ValueError("need at least one site")
        if len(self.crossover) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} crossover probabilities")
        if any(c < 0 or not math.isfinite(c) for c in self.crossover):
            raise ValueError("crossover probabilities must be finite and nonnegative")
        if sum(self.crossover) > 1.0 + 1e-12:
            raise ValueError("crossover probabilities must sum to at most 1")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def r_whole(self) -> float:
        """Probability that no crossover happens during a reproduction."""
        return max(0.0, 1.0 - sum(self.crossover))

    def support(self) -> list[tuple[Partition, float]]:
        """Pairs (partition, probability) over the whole set and every cut."""
        out = [(coarsest(self.sites), self.r_whole)]
        for p, r in zip(ordered_partitions_le2(self.sites)[1:], self.crossover):
            out.append((p, r))
        return out

    def prob(self, a: Partition) -> float:
        """Probability of an ordered partition of the full site set."""
        opts = ordered_partitions_le2(self.sites)
        if a == opts[0]:
            return self.r_whole
        for p, r in zip(opts[1:], self.crossover):
            if a == p:
                return r
        raise NotOrderedPartitionError(f"{a} is not an ordered partition of 1..{self.n}")

    def marginal(self, u) -> "RecombinationDistribution":
        """The law of the cuts among the sites of ``u``, relabelled ``1..|u|``.

        A crossover in any gap between consecutive sites ``u[j]`` and
        ``u[j+1]`` separates them, so the cut after relabelled site ``j+1``
        has the summed probability of those gaps; a crossover outside the
        span of ``u`` leaves it whole.
        """
        u = site_set(u)
        if not u:
            raise ValueError("a marginal needs at least one site")
        if u[-1] > self.n:
            raise NotSubsetError(f"sites {u} outside 1..{self.n}")
        return RecombinationDistribution(
            len(u), tuple(sum(self.crossover[a - 1:b - 1]) for a, b in zip(u, u[1:])))

    def rescaled_without_replacement(self, N: int) -> "RecombinationDistribution":
        """Equivalent distribution when parents are drawn without replacement.

        Drawing the same parent twice collapses to a plain copy, so the
        with-replacement process matches the without-replacement one after
        scaling every crossover probability by ``(N-1)/N``.
        """
        f = (N - 1) / N
        return RecombinationDistribution(self.n, tuple(f * c for c in self.crossover))


@dataclass(frozen=True)
class DiffusionRates:
    """Crossover *rates* for the diffusion-limit partitioning process."""

    n: int
    rho: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(float(c) for c in self.rho))
        if len(self.rho) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} rates")
        if any(c < 0 or not math.isfinite(c) for c in self.rho):
            raise ValueError("rates must be finite and nonnegative")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def support(self) -> list[tuple[Partition, float]]:
        return list(zip(ordered_partitions_le2(self.sites)[1:], self.rho))


def dump_recombination_file(recomb: RecombinationDistribution,
                            rho: DiffusionRates | None = None) -> str:
    """Serialize crossover probabilities (and optional rates) as JSON text."""
    payload: dict = {"crossover_probs": list(recomb.crossover)}
    if rho is not None:
        payload["rho"] = list(rho.rho)
    return json.dumps(payload, indent=2) + "\n"


def load_recombination_file(text: str) -> tuple[RecombinationDistribution,
                                                DiffusionRates | None]:
    """Parse the JSON produced by :func:`dump_recombination_file`.

    ``crossover_probs[i]`` is the probability of a cut after site ``i+1``;
    the simplex constraint is enforced on load.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "crossover_probs" not in payload:
        raise ValueError("expected an object with a 'crossover_probs' key")
    probs = payload["crossover_probs"]
    n = len(probs) + 1
    recomb = RecombinationDistribution(n, tuple(float(p) for p in probs))
    rho = None
    if payload.get("rho") is not None:
        if len(payload["rho"]) != n - 1:
            raise ValueError(f"'rho' must list {n - 1} rates")
        rho = DiffusionRates(n, tuple(float(p) for p in payload["rho"]))
    return recomb, rho


def _marginal_sum(support: list[tuple[Partition, float]], u: tuple[int, ...],
                  b: Partition) -> float:
    """Sum of weights over full-set partitions restricting to ``b`` on ``u``."""
    total = 0.0
    for a, w in support:
        if restrict(a, u) == b:
            total += w
    return total


def marginal_recomb_prob(recomb: RecombinationDistribution, u, b: Partition) -> float:
    """Probability that a reproduction partitions the sites of ``u`` as ``b``.

    Crossovers inside material trapped between the sites of ``u`` still
    separate the flanking blocks, which the restriction sum picks up
    automatically.
    """
    u = site_set(u)
    if b not in ordered_partitions_le2(u):
        raise NotOrderedPartitionError(f"{b} is not in the ordered partitions of {u}")
    return _marginal_sum(recomb.support(), u, b)


def marginal_split_rate(rates: DiffusionRates, u, b: Partition) -> float:
    """Diffusion-limit analogue of :func:`marginal_recomb_prob` for true splits."""
    u = site_set(u)
    opts = ordered_partitions_le2(u)
    if b not in opts[1:]:
        raise NotOrderedPartitionError(f"{b} is not a two-part ordered partition of {u}")
    return _marginal_sum(rates.support(), u, b)


def recombinator_bar(a: Partition, m: Measure) -> Measure:
    """Site-ordered tensor product of the block marginals of ``m``.

    For the empty partition acting on a 0-site measure this is the measure
    itself (a scalar).  The norm of the result is ``norm(m) ** len(a)``.
    """
    if not a.blocks:
        if m.sites:
            raise ValueError("empty partition needs a 0-site measure")
        return m
    if a.ground != m.sites:
        raise ValueError(f"partition ground {a.ground} does not match sites {m.sites}")
    if len(a) == 1:
        return m
    return tensor_site_ordered([marginalize(m, blk) for blk in a.blocks])


def recombinator(a: Partition, m: Measure) -> Measure:
    """Normalized recombinator: a probability measure for nonzero ``m``."""
    norm = m.norm
    if norm <= 0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    bar = recombinator_bar(a, m)
    k = len(a) if a.blocks else 0
    return bar.with_weights(bar.weights / norm ** k)


def sampling_bar(a: Partition, z: Measure) -> Measure:
    """Mobius-inverted recombinator: counts site-spliced samples drawn
    without replacement when ``z`` is a counting measure.

    Computed as the signed sum of ``recombinator_bar`` over all coarsenings
    of ``a``; exact on integer input.
    """
    if not a.blocks:
        return recombinator_bar(a, z)
    total = None
    for b, mu in coarsenings_with_mobius(a):
        w = mu * recombinator_bar(b, z).weights
        total = w if total is None else total + w
    return Measure(z.sites, z.cards, total)


def sampling(a: Partition, z: Measure) -> Measure:
    """Probability measure of a without-replacement spliced sample.

    ``z`` must be a counting measure with norm at least ``len(a)``.
    """
    N = z.norm
    if abs(N - round(N)) > 1e-9:
        raise ValueError("sampling requires a counting measure with integer norm")
    N = int(round(N))
    m = len(a)
    if m > N:
        raise SampleTooLargeError(f"cannot draw {m} distinct individuals from {N}")
    bar = sampling_bar(a, z)
    return bar.with_weights(bar.weights * (1 / math.perm(N, m)))


def lde_operator(a: Partition, m: Measure) -> Measure:
    """Correlation operator: Mobius inversion of normalized recombinators
    from below.  Returns a signed measure.

    For ``a`` the one-block partition of ``u`` this is the multilocus
    linkage disequilibrium of the sites in ``u``.
    """
    if m.norm <= 0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    total = None
    for b in refinements(a):
        w = mobius(b, a) * recombinator(b, m).weights
        total = w if total is None else total + w
    return Measure(m.sites, m.cards, total, signed=True)
