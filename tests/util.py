"""Shared helpers and independent oracles for the test suite.

Everything here is deliberately implemented from first principles, not by
calling the production code paths it is meant to check.  The readers of
the generator, partition-trajectory and forward-trajectory CSV files
exist for the tests alone; they parse the package's output formats with
its one table reader, ``csv_table``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from moranrec import (
    GeneratorMatrix,
    Measure,
    Partition,
    PopulationState,
    RecombinationDistribution,
    SiteSpace,
    format_partition,
    parse_partition,
)
from moranrec.measures import csv_table, parse_type_token
from moranrec.partitions import site_set
from oracles import refines


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


def is_ordered(a: Partition, within=None) -> bool:
    """True iff every block of ``a`` is a contiguous run of ``within``.

    ``within`` defaults to the ground set of ``a``.
    """
    w = site_set(within) if within is not None else a.ground
    pos = {x: i for i, x in enumerate(w)}
    for b in a.blocks:
        idx = sorted(pos[x] for x in b)
        if idx[-1] - idx[0] != len(idx) - 1:
            return False
    return True


def generator_from_csv(text: str) -> GeneratorMatrix:
    """Parse the output of ``backward.generator_to_csv`` (partition labels)."""
    rows = []
    labels: list[Partition] = []
    header, data = csv_table(text, ("state",))
    for fields in data:
        labels.append(parse_partition(fields[0]))
        rows.append([float(v) for v in fields[1:]])
    if [format_partition(p) for p in labels] != header[1:]:
        raise ValueError("row labels do not match the header order")
    return GeneratorMatrix(tuple(labels), np.array(rows))


def partition_events_from_csv(text: str) -> list[tuple[float, Partition]]:
    """Parse the output of ``backward.partition_trajectory_to_csv``."""
    return [(float(t), parse_partition(p))
            for t, p in csv_table(text, ("time", "partition"))[1]]


def trajectory_events_from_csv(text: str, cards: Sequence[int]) -> list[tuple[float, int, int]]:
    """Parse the output of ``forward.trajectory_to_csv`` back to index events."""
    return [(float(t), parse_type_token(cards, y), parse_type_token(cards, x))
            for t, y, x in csv_table(text, ("time", "dying_type", "new_type"))[1]]
