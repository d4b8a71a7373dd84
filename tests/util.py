"""Shared helpers and independent oracles for the test suite.

Everything here is deliberately implemented from first principles, not by
calling the production code paths it is meant to check.
"""

from __future__ import annotations

import numpy as np

from moranrec import (
    Measure,
    Partition,
    PopulationState,
    RecombinationDistribution,
    SiteSpace,
    parse_partition,
    refines,
)


def brute_partitions(elems: tuple[int, ...]) -> set[Partition]:
    """All set partitions by recursive insertion (independent of RGS)."""
    if not elems:
        return {Partition(())}
    first, rest = elems[0], elems[1:]
    out: set[Partition] = set()
    for sub in brute_partitions(rest):
        out.add(Partition(((first,),) + sub.blocks))
        for i in range(len(sub.blocks)):
            blocks = list(sub.blocks)
            blocks[i] = blocks[i] + (first,)
            out.add(Partition(tuple(blocks)))
    return out


def mobius_recursive(a: Partition, b: Partition, cache: dict | None = None) -> int:
    """Inductive Mobius definition: mu(a,a) = 1, sums over intermediates."""
    if cache is None:
        cache = {}
    key = (a, b)
    if key in cache:
        return cache[key]
    if a == b:
        return 1
    total = 0
    for c in brute_partitions(a.ground):
        if c != b and refines(a, c) and refines(c, b):
            total += mobius_recursive(a, c, cache)
    cache[key] = -total
    return -total


def random_recomb(n: int, seed: int) -> RecombinationDistribution:
    """Deterministic pseudo-random crossover probabilities with sum < 1."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 0.95, n - 1)
    scale = rng.uniform(0.2, 0.95)
    return RecombinationDistribution(n, tuple(raw / raw.sum() * scale))


def random_population(space: SiteSpace, N: int, seed: int) -> PopulationState:
    """Deterministic random counting measure of total mass N."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(N, np.full(space.total_states, 1.0 / space.total_states))
    return PopulationState.from_counts(space, counts)


def random_measure(space: SiteSpace, seed: int, sites=None) -> Measure:
    """Strictly positive random measure (not a counting measure)."""
    rng = np.random.default_rng(seed)
    u = tuple(sites) if sites is not None else space.sites
    cards = space.cards_for(u)
    size = int(np.prod(cards)) if cards else 1
    return Measure(u, cards, rng.uniform(0.25, 2.0, size))


def binary_space(n: int) -> SiteSpace:
    return SiteSpace((2,) * n)


THREE_SITE_ORDER = tuple(parse_partition(s) for s in
                         ("1,2,3", "1|2,3", "1,2|3", "1,3|2", "1|2|3"))


def theta_closed_form_3site(N: float, r1: float, r2: float) -> np.ndarray:
    """Closed-form 5x5 partitioning generator in the THREE_SITE_ORDER basis,
    derived entry by entry from the split/coalescence event rates.

    The merge-into-one-block column carries the pure-coalescence rate
    2/N^2 + (N-1)/N^2 * (sum of the two blocks' stay-whole marginals),
    which the zero-row-sum property of a generator pins down.
    """
    return np.array([
        [-(N - 1) / N * (r1 + r2), (N - 1) / N * r1, (N - 1) / N * r2, 0, 0],
        [2 / N - (N - 1) / N**2 * r2, -2 / N - (N - 1) ** 2 / N**2 * r2,
         (N - 1) / N**2 * r2, (N - 1) / N**2 * r2, (N - 1) * (N - 2) / N**2 * r2],
        [2 / N - (N - 1) / N**2 * r1, (N - 1) / N**2 * r1,
         -2 / N - (N - 1) ** 2 / N**2 * r1, (N - 1) / N**2 * r1,
         (N - 1) * (N - 2) / N**2 * r1],
        [2 / N - (N - 1) / N**2 * (r1 + r2), (N - 1) / N**2 * (r1 + r2),
         (N - 1) / N**2 * (r1 + r2), -2 / N - (N - 1) ** 2 / N**2 * (r1 + r2),
         (N - 1) * (N - 2) / N**2 * (r1 + r2)],
        [0, 2 / N, 2 / N, 2 / N, -6 / N],
    ])


def conjugated_closed_form_3site(N: float, r1: float, r2: float) -> np.ndarray:
    """Closed-form lower-triangular shape of the 3-site generator in LDE coordinates."""
    col = 2 / N - (N - 1) / N**2 * (r1 + r2)
    return np.array([
        [-6 / N - (N - 1) * (N - 2) / N**2 * (r1 + r2), 0, 0, 0, 0],
        [col, -2 / N - (N - 1) / N * r2, 0, 0, 0],
        [col, 0, -2 / N - (N - 1) / N * r1, 0, 0],
        [col, 0, 0, -2 / N - (N - 1) / N * (r1 + r2), 0],
        [-(r1 + r2) / N**2, 2 / N - r2 / N, 2 / N - r1 / N,
         2 / N - (r1 + r2) / N, 0],
    ])


def conjugated_closed_form_diffusion(rho1: float, rho2: float) -> np.ndarray:
    """Closed-form diffusion-limit shape of the conjugated 3-site generator."""
    s = rho1 + rho2
    return np.array([
        [-(6 + s), 0, 0, 0, 0],
        [2, -(2 + rho2), 0, 0, 0],
        [2, 0, -(2 + rho1), 0, 0],
        [2, 0, 0, -(2 + s), 0],
        [0, 2, 2, 2, 0],
    ])


def permuted_generator(gen, order) -> np.ndarray:
    perm = [gen.index(p) for p in order]
    return gen.matrix.toarray()[np.ix_(perm, perm)]
