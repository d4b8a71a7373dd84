"""Recombination, sampling and correlation operators on measures.

Three families of operators act on a measure over a site set ``u``, all
indexed by a partition ``a`` of ``u``:

* ``recombinator_bar(a, m)``: the product of the block marginals of ``m``
  (site-ordered tensor).  Divided by ``norm(m) ** |a|`` it is the type
  distribution obtained by drawing one individual per block *with*
  replacement and splicing the blocks together.
* ``sampling_bar(a, z)``: the Mobius inversion of the recombinator over
  coarsenings of ``a``.  On a counting measure it counts the outcomes of
  the same splicing experiment with individuals drawn *without*
  replacement; ``sampling`` normalizes it to a probability measure.
* ``lde_operator(a, m)``: Mobius inversion from below of the normalized
  recombinators; the all-in-one-block case is the multilocus linkage
  disequilibrium of the sites in ``u``.

Each is one row of the lattice algebra on measures: the kernel
:func:`block_products` forms the block-marginal products of a stack of
weight grids for a list of partitions, and every Mobius value is read
from the cached lattice of :func:`moranrec.partitions.lattice` (the
whole Mobius and zeta matrices of the exact pipeline live there too).
That lattice refuses more than 8 positions, so ``sampling_bar`` takes at
most 8 blocks and ``lde_operator`` blocks of at most 8 sites.  The
marginal crossover law on a subset of sites is
:meth:`RecombinationDistribution.marginal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import NotSubsetError, SampleTooLargeError, ZeroMeasureError
from .measures import Measure
from .partitions import Block, Partition, lattice, site_set

# Block-marginal products one stacked sampling call forms at once (1 MiB of
# float64): the coarsenings of a partition times the types, per grid.
STACK_CHUNK = 2**17


def _gap_sums(per_gap: tuple[float, ...], u: tuple[int, ...]) -> tuple[float, ...]:
    """Sum of ``per_gap`` (one value per gap of ``1..n``) over the gaps between
    each pair of consecutive sites of ``u``."""
    n = len(per_gap) + 1
    if not u:
        raise ValueError("a marginal needs at least one site")
    if u[-1] > n:
        raise NotSubsetError(f"sites {u} outside 1..{n}")
    return tuple(sum(per_gap[a - 1:b - 1]) for a, b in zip(u, u[1:]))


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

    def support(self) -> list[tuple[tuple[Block, ...], float]]:
        """Pairs (blocks, probability) over the whole set and every cut, each
        partition as its canonical block tuple (``Partition.blocks``)."""
        s = self.sites
        return [((s,), self.r_whole)] + [((s[:k], s[k:]), r)
                                          for k, r in enumerate(self.crossover, start=1)]

    def marginal(self, u) -> "RecombinationDistribution":
        """The law of the cuts among the sites of ``u``, relabelled ``1..|u|``.

        A crossover in any gap between consecutive sites ``u[j]`` and
        ``u[j+1]`` separates them, so the cut after relabelled site ``j+1``
        has the summed probability of those gaps; a crossover outside the
        span of ``u`` leaves it whole.
        """
        u = site_set(u)
        return RecombinationDistribution(len(u), _gap_sums(self.crossover, u))


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

    def marginal(self, u) -> "DiffusionRates":
        """The rates of the splits among the sites of ``u``, relabelled ``1..|u|``;
        see :meth:`RecombinationDistribution.marginal`."""
        u = site_set(u)
        return DiffusionRates(len(u), _gap_sums(self.rho, u))


def block_products(grid: np.ndarray, sites: tuple[int, ...],
                   partitions: Sequence[Iterable[Block]]) -> np.ndarray:
    """Block-marginal products ``Rbar_a`` of a stack of weight grids.

    ``grid`` holds weights on ``sites``, one trailing axis per site, after
    any number of leading axes; each partition is an iterable of blocks of
    those sites (a :class:`Partition`, or the position tuples of
    ``Lattice.blocks`` with ``sites = range(k)``).  ``Rbar_a`` is the
    broadcast product over the blocks of ``a`` of the grid summed over the
    sites outside the block.  Each block marginal is summed once and shared
    by every partition that has the block.  The result is indexed
    (partition, leading axes..., type).  On integer counts the sums and
    products are exact.
    """
    grid = np.asarray(grid, dtype=float)
    lead = grid.shape[:grid.ndim - len(sites)]
    axis = {s: i for i, s in enumerate(sites, start=len(lead))}
    marginals: dict[tuple[int, ...], np.ndarray] = {}
    out = np.empty((len(partitions),) + lead + (math.prod(grid.shape[len(lead):]),))
    for i, p in enumerate(partitions):
        product = grid  # the empty partition of a 0-site grid
        for k, blk in enumerate(p):
            if blk not in marginals:
                outside = tuple(axis[s] for s in sites if s not in blk)
                marginals[blk] = grid.sum(axis=outside, keepdims=True)
            product = marginals[blk] if k == 0 else product * marginals[blk]
        out[i] = product.reshape(out.shape[1:])
    return out


def _block_products(a: Partition, m: Measure,
                    partitions: list[tuple[Block, ...]]) -> np.ndarray:
    """:func:`block_products` of one measure over partitions of the ground of ``a``
    (canonical block tuples), one weight vector per partition."""
    if a.ground != m.sites:
        raise ValueError(f"partition ground {a.ground} does not match sites {m.sites}")
    return block_products(m.as_grid(), m.sites, partitions).reshape(len(partitions), -1)


def recombinator_bar(a: Partition, m: Measure) -> Measure:
    """Site-ordered tensor product of the block marginals of ``m``.

    For the empty partition acting on a 0-site measure this is the measure
    itself (a scalar).  The norm of the result is ``norm(m) ** len(a)``.
    """
    if len(a) == 1 and a.ground == m.sites:
        return m
    return m.with_weights(_block_products(a, m, [a.blocks])[0])


def _sampling_bars(a: Partition, sites: tuple[int, ...], grids: np.ndarray) -> np.ndarray:
    """:func:`sampling_bar` weights of a stack of weight grids on ``sites``,
    the ground of ``a``: one row per entry of the leading axis of ``grids``.

    The Mobius values ``mobius(a, b)`` over the coarsenings ``b`` of ``a``
    (the lattice of the blocks of ``a``, relabelled to block tuples) are
    applied to their block-marginal products, one matrix-vector product
    per grid, so a stack of one gives the weights of one measure.  The
    grids go in chunks of at most ``STACK_CHUNK`` products (at least one
    grid).
    """
    if a.ground != sites:
        raise ValueError(f"partition ground {a.ground} does not match sites {sites}")
    L = lattice(len(a))
    parts = L.relabel(a.blocks)
    step = max(STACK_CHUNK // (len(parts) * math.prod(grids.shape[1:])), 1)
    rows = []
    for start in range(0, len(grids), step):
        chunk = grids[start:start + step]
        # unbound, so one chunk's products are freed before the next is formed
        rows += [L.mu_finest @ p for p in np.ascontiguousarray(
            block_products(chunk, sites, parts).reshape(len(parts), len(chunk), -1).swapaxes(0, 1))]
    return np.array(rows)


def sampling_bar(a: Partition, z: Measure) -> Measure:
    """Mobius-inverted recombinator: counts site-spliced samples drawn
    without replacement when ``z`` is a counting measure; exact on integer
    input.  See :func:`_sampling_bars`.
    """
    return z.with_weights(_sampling_bars(a, z.sites, z.as_grid()[None])[0])


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


def sampling_weights(a: Partition, grids: np.ndarray, N: int) -> np.ndarray:
    """Weights of :func:`sampling` for a stack of counting measures of ``N``
    individuals each, given as count grids on the ground of ``a`` after
    one leading axis; one row per grid, each equal bit for bit to the
    weights of the single call."""
    m = len(a)
    if m > N:
        raise SampleTooLargeError(f"cannot draw {m} distinct individuals from {N}")
    return _sampling_bars(a, a.ground, grids) * (1 / math.perm(N, m))


def lde_operator(a: Partition, m: Measure) -> Measure:
    """Correlation operator: Mobius inversion of normalized recombinators
    from below.  The weights may be negative.

    The Mobius values ``mobius(b, a)`` over the refinements ``b`` of ``a``
    (the product of the lattices of its blocks, the last block varying
    fastest, each product's blocks ordered by their least site) applied to
    their normalized block-marginal products.  For ``a`` the one-block
    partition of ``u`` this is the multilocus linkage disequilibrium of the
    sites in ``u``.
    """
    norm = m.norm
    if norm <= 0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    per_block = [lattice(len(blk)).relabel((s,) for s in blk) for blk in a.blocks]
    down = [tuple(sorted(b for p in combo for b in p)) for combo in product(*per_block)]
    mu = np.ones(())
    for blk in a.blocks:
        mu = np.multiply.outer(mu, lattice(len(blk)).mu_coarsest)
    power = np.array([norm ** len(b) for b in down])
    rows = _block_products(a, m, down) / power[:, None]
    return Measure(m.sites, m.cards, mu.ravel() @ rows)
