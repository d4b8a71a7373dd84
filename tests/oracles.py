"""Reference implementations kept for parity tests.

These are the pairwise-scan versions of the lattice computations that the
package now reads from one cached partition lattice (the Mobius matrix,
the dict-of-rates generators of the partitioning process,
``transition_rates`` with its finite and deterministic rate functions and
``generator_from_rates``, the split/merge incidence one move at a time over
block bitmasks, and the coarsenings with their Mobius values from
restricted-growth strings of the blocks), the per-time matrix
exponential and the one-string CSV writer that the package replaced with
grid stepping and a block-by-block writer, the per-state loops over
population states (the dense population generator and the duality table
from one ``recombinator_bar`` call per state and partition) that the
package replaced with whole-array products, the recursive enumeration of
population states that the package replaced with a successor loop, the
full-lattice LDE trajectory that the package replaced with a solve on the
lattice of the subset, the per-measure loops that the package replaced
with one block-marginal product kernel and one-row Mobius products
(``recombinator_bar`` from marginals and ``tensor_site_ordered``, the
``sampling_bar`` and ``lde_operator`` sums, the head/tail replacement
law), the restriction sums that the package replaced with the gap sums of
``RecombinationDistribution.marginal`` (``marginal_recomb_prob``,
``marginal_split_rate``), the partition-level narrative simulator that
the package replaced with one run on cached block-tuple states, and the
brute-force paths (transition rates, sampling, RK4, LDE via sampling)
that only tests call.  The pairwise partition algebra (``refines``,
``meet``, ``join``, ``restrict``, ``drop_block`` and the pairwise
``mobius``) is the reference for the lattice's Mobius and zeta matrices,
and ``diffusion_left_eigenvectors`` the closed form of the diffusion
3-site eigenvectors.
Tests compare the package against them.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from moranrec import (
    BackwardModel,
    EMPTY,
    DiffusionRates,
    InvalidInitialError,
    ExpectationTrajectory,
    Measure,
    OverlapError,
    Partition,
    PartitionTrajectory,
    PopulationState,
    RecombinationDistribution,
    SampleTooLargeError,
    SiteSpace,
    SizeCapError,
    ZeroMeasureError,
    coarsest,
    decode_type,
    encode_type,
    enumerate_partitions,
    format_partition,
    generator_theta,
    marginalize,
    ordered_partitions_le2,
    refinements,
    sampling,
)
from moranrec import backward as backward_module
from moranrec.backward import _merge_into, _split_choices, _transition_rates_diff
from moranrec.expectations import expected_sampling as stepped_expected_sampling
from moranrec.expectations import lde_transform as lattice_lde_transform
from moranrec.expectations import sampling_stack
from moranrec.forward import DEFAULT_POPULATION_CAP, ForwardModel
from moranrec.markov import (
    GeneratorMatrix,
    assert_sorted_times,
    count_population_states,
    enumerate_population_states,
)
from moranrec.measures import csv_table, parse_type_token, type_token
from moranrec.partitions import _positions, lattice, site_set

# Brute-force tuple enumeration is N!/(N-m)! work; keep it for tests only.
DEFAULT_ORACLE_CAP = 12


def tensor_site_ordered(factors: Sequence[Measure]) -> Measure:
    """Product measure of factors on pairwise disjoint site sets.

    Coordinates of the result are interleaved back into global site order,
    regardless of the order the factors are given in.  Factors on the empty
    site set act as scalar multipliers; an empty factor list gives mass 1.
    """
    scale = 1.0
    proper: list[Measure] = []
    seen: set[int] = set()
    for f in factors:
        if not f.sites:
            scale *= float(f.weights[0])
            continue
        if seen & set(f.sites):
            raise OverlapError("tensor factors must live on disjoint site sets")
        seen |= set(f.sites)
        proper.append(f)
    if not proper:
        return Measure((), (), np.array([scale]))
    grid = proper[0].as_grid()
    for f in proper[1:]:
        grid = np.multiply.outer(grid, f.as_grid())
    concat_sites = [s for f in proper for s in f.sites]
    concat_cards = [c for f in proper for c in f.cards]
    order = np.argsort(concat_sites, kind="stable")
    grid = np.transpose(grid, axes=order)
    sites = tuple(concat_sites[i] for i in order)
    cards = tuple(concat_cards[i] for i in order)
    return Measure(sites, cards, scale * grid.ravel())


def _check_same_ground(a: Partition, b: Partition) -> None:
    if a.ground != b.ground:
        raise ValueError(f"ground sets differ: {a.ground} vs {b.ground}")


def refines(a: Partition, b: Partition) -> bool:
    """True iff every block of ``a`` is contained in some block of ``b``."""
    _check_same_ground(a, b)
    owner = {}
    for j, bb in enumerate(b.blocks):
        for x in bb:
            owner[x] = j
    return all(len({owner[x] for x in ab}) == 1 for ab in a.blocks)


def meet(a: Partition, b: Partition) -> Partition:
    """Greatest lower bound: nonempty pairwise block intersections."""
    _check_same_ground(a, b)
    out = []
    for ab in a.blocks:
        sa = set(ab)
        for bb in b.blocks:
            inter = sa & set(bb)
            if inter:
                out.append(tuple(sorted(inter)))
    return Partition(tuple(out))


def join(a: Partition, b: Partition) -> Partition:
    """Least upper bound: transitive closure of block overlap."""
    _check_same_ground(a, b)
    parent: dict[int, int] = {x: x for x in a.ground}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for blk in a.blocks + b.blocks:
        for x in blk[1:]:
            union(blk[0], x)
    groups: dict[int, list[int]] = {}
    for x in a.ground:
        groups.setdefault(find(x), []).append(x)
    return Partition(tuple(tuple(g) for g in groups.values()))


def restrict(a: Partition, sites) -> Partition:
    """Partition of ``sites`` induced by intersecting the blocks of ``a``.

    Restriction to the empty set yields ``EMPTY``.
    """
    u = site_set(sites)
    if not set(u) <= set(a.ground):
        raise ValueError(f"{u} is not a subset of the ground set {a.ground}")
    out = []
    for b in a.blocks:
        nb = tuple(x for x in b if x in u)
        if nb:
            out.append(nb)
    return Partition(tuple(out))


def drop_block(a: Partition, j: int) -> Partition:
    """Partition of the remaining ground after removing block ``j`` of ``a``."""
    return Partition(a.blocks[:j] + a.blocks[j + 1:])


def mobius(a: Partition, b: Partition) -> int:
    """Mobius value of the comparable pair ``a`` refines ``b`` (exact integer).

    Product over the blocks of ``b`` of ``(-1)**(k-1) * (k-1)!`` where ``k``
    counts the blocks of ``a`` inside that block.
    """
    if not a.blocks and not b.blocks:
        return 1
    if not refines(a, b):
        raise ValueError("first partition does not refine the second")
    owner = {x: j for j, bb in enumerate(b.blocks) for x in bb}
    counts = [0] * len(b.blocks)
    for ab in a.blocks:
        counts[owner[ab[0]]] += 1
    return math.prod((-1) ** (k - 1) * math.factorial(k - 1) for k in counts)


def _rgs_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length ``k`` in lexicographic order."""
    if k == 0:
        yield ()
        return
    acc = [0]

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(acc)
            return
        for v in range(mx + 2):
            acc.append(v)
            yield from rec(i + 1, max(mx, v))
            acc.pop()

    yield from rec(1, 0)


def _partition_from_rgs(elems: tuple[int, ...], rgs: tuple[int, ...]) -> Partition:
    nblocks = max(rgs) + 1 if rgs else 0
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for x, g in zip(elems, rgs):
        blocks[g].append(x)
    return Partition(tuple(tuple(b) for b in blocks))


def rgs_partitions(sites) -> list[Partition]:
    """All partitions of ``sites``, one per restricted-growth string, in
    lexicographic order."""
    w = site_set(sites)
    return [_partition_from_rgs(w, rgs) for rgs in _rgs_strings(len(w))]


def coarsenings_with_mobius(a: Partition) -> list[tuple[Partition, int]]:
    """Pairs ``(b, mobius(a, b))`` over all coarsenings ``b`` of ``a``.

    Enumerated by grouping the blocks of ``a``; the Mobius value falls out
    of the group sizes, so no containment tests are needed.
    """
    if not a.blocks:
        return [(EMPTY, 1)]
    m = len(a.blocks)
    out = []
    for rgs in _rgs_strings(m):
        ngroups = max(rgs) + 1
        merged: list[list[int]] = [[] for _ in range(ngroups)]
        sizes = [0] * ngroups
        for blk_idx, g in enumerate(rgs):
            merged[g].extend(a.blocks[blk_idx])
            sizes[g] += 1
        mu = 1
        for k in sizes:
            mu *= (-1) ** (k - 1) * math.factorial(k - 1)
        out.append((Partition(tuple(tuple(b) for b in merged)), mu))
    return out


def _falling_weight(N: int, m: int, b_size: int) -> float:
    """(N-(m-1))! / (N-b_size)! as a product; zero once ``b_size`` exceeds ``N``."""
    w = 1.0
    for i in range(N - b_size + 1, N - m + 2):
        if i <= 0:
            return 0.0
        w *= i
    return w


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


def generator_from_rates(model: BackwardModel) -> GeneratorMatrix:
    """Generator from one ``transition_rates`` dict per partition; the
    diagonal is minus the ``fsum`` of the row's rates."""
    states = rgs_partitions(model.sites)
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


def _marginal_sum(support: Iterable[tuple[Partition, float]], u: tuple[int, ...],
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
        raise ValueError(f"{b} is not in the ordered partitions of {u}")
    return _marginal_sum(recomb.support(), u, b)


def marginal_split_rate(rates: DiffusionRates, u, b: Partition) -> float:
    """Diffusion-limit analogue of :func:`marginal_recomb_prob` for true splits."""
    u = site_set(u)
    opts = ordered_partitions_le2(u)
    if b not in opts[1:]:
        raise ValueError(f"{b} is not a two-part ordered partition of {u}")
    support = zip(ordered_partitions_le2(rates.sites)[1:], rates.rho)
    return _marginal_sum(support, u, b)


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


def lde_operator(a: Partition, m: Measure) -> Measure:
    """Correlation operator: Mobius inversion of normalized recombinators
    from below.  The weights may be negative.

    For ``a`` the one-block partition of ``u`` this is the multilocus
    linkage disequilibrium of the sites in ``u``.
    """
    if m.norm <= 0:
        raise ZeroMeasureError("cannot normalize the zero measure")
    total = None
    for b in refinements(a):
        w = mobius(b, a) * recombinator(b, m).weights
        total = w if total is None else total + w
    return Measure(m.sites, m.cards, total)


def replacement_distribution(model: ForwardModel, counts: np.ndarray) -> np.ndarray:
    """Type distribution of a newborn given the current counts.

    Mixture over the recombination distribution of the normalized
    block-marginal products; a probability vector.  ``counts`` may stack
    count vectors along leading axes; each gets its own distribution.
    """
    cards = model.space.cards
    lead = counts.shape[:-1]
    N = counts.sum(axis=-1, keepdims=True)
    q = (model.recomb.r_whole / N) * counts.astype(float)
    grid = counts.reshape(lead + cards)
    first, ndim = len(lead), len(lead) + len(cards)
    for i, ri in enumerate(model.recomb.crossover, start=first + 1):
        if ri == 0.0:
            continue
        head = grid.sum(axis=tuple(range(i, ndim))).reshape(lead + (-1, 1))
        tail = grid.sum(axis=tuple(range(first, i))).reshape(lead + (1, -1))
        q += (ri / N**2) * (head * tail).reshape(q.shape)
    return q


def mobius_matrix(partitions: list[Partition]) -> np.ndarray:
    """M[a, b] = mobius(a, b) when ``a`` refines ``b``, else 0."""
    B = len(partitions)
    M = np.zeros((B, B))
    for i, a in enumerate(partitions):
        for j, b in enumerate(partitions):
            if refines(a, b):
                M[i, j] = mobius(a, b)
    return M


def incidence(k: int) -> np.ndarray:
    """Rows ``(a, b, split, lo, hi)`` of ``lattice(k).incidence``, one move at a
    time over the block bitmasks of every partition."""
    keys = [tuple(sorted(sum(1 << p for p in b) for b in blocks))
            for blocks in lattice(k).blocks]
    index = {key: i for i, key in enumerate(keys)}
    moves = []
    for i, key in enumerate(keys):
        m = len(key)
        for j, blk in enumerate(key):
            rest = [*key[:j], *key[j + 1:], 0, 0]  # slots m - 1, m: fresh parents
            pos = _positions(blk)
            for t in range(m - 1):
                b = rest.copy()
                b[t] |= blk
                moves.append((i, index[tuple(sorted(b)[2:])], 0, pos[0], pos[-1]))
            for p, q in zip(pos, pos[1:]):
                head = blk & ((2 << p) - 1)
                for t1 in range(m):
                    for t2 in (*range(m - 1), m):
                        b = rest.copy()
                        b[t1] |= head
                        b[t2] |= blk ^ head
                        empty = (t1 < m - 1) + (t2 < m - 1)
                        moves.append((i, index[tuple(sorted(b)[empty:])], 1, p, q))
    return np.array(moves, dtype=np.intp).reshape(-1, 5)


def lde_transform(partitions: list[Partition], N: int) -> np.ndarray:
    """Matrix turning a stack of sampling expectations into LDE expectations.

    ``T[a, c] = sum over common refinements b of a and c of
    N! / ((N - |c|)! N**|b|) * mobius(b, a)``.
    """
    B = len(partitions)
    T = np.zeros((B, B))
    for ai, a in enumerate(partitions):
        for ci, c in enumerate(partitions):
            s = 0.0
            for b in partitions:
                if refines(b, a) and refines(b, c):
                    s += (math.factorial(N) / math.factorial(N - len(c))
                          / N ** len(b) * mobius(b, a))
            T[ai, ci] = s
    return T


def theta_rate(model: BackwardModel, j: int, jj: Partition, a: Partition,
               b: Partition) -> float:
    """Rate of the transition ``a -> b`` through block ``j`` splitting as ``jj``.

    ``jj`` is an ordered partition of block ``j`` into at most two parts.
    Nonzero exactly when ``b`` restricted to block ``j`` coarsens ``jj``
    while the other blocks of ``a`` stay intact in ``b``; includes the
    silent case ``b == a``.  Transitions to partitions with more than ``N``
    blocks get weight zero.
    """
    m = len(a)
    block = a.blocks[j]
    rest = drop_block(a, j)
    if restrict(b, rest.ground) != rest:
        return 0.0
    if not refines(jj, restrict(b, block)):
        return 0.0
    r = marginal_recomb_prob(model.recomb, block, jj)
    return r * model.N ** (-len(jj)) * _falling_weight(model.N, m, len(b))


def sampling_oracle(a: Partition, z: Measure, cap: int = DEFAULT_ORACLE_CAP) -> Measure:
    """Brute-force spliced-sample count over ordered tuples of distinct individuals.

    Expands ``z`` into labelled individuals and enumerates every injective
    assignment of blocks to labels; equals :func:`sampling_bar` exactly.
    Exponential in the number of blocks, so capped.
    """
    N = int(round(z.norm))
    if N > cap:
        raise SizeCapError(f"oracle capped at {cap} individuals, got {N}")
    if not a.blocks:
        return recombinator_bar(a, z)
    counts = np.rint(z.weights).astype(int)
    individuals = [decode_type(z.cards, idx)
                   for idx in range(z.n_states) for _ in range(counts[idx])]
    pos = {s: i for i, s in enumerate(z.sites)}
    block_slots = [[pos[s] for s in blk] for blk in a.blocks]
    out = np.zeros(z.n_states)
    m = len(a.blocks)
    letters = [0] * len(z.sites)
    for labels in permutations(range(N), m):
        for slots, lab in zip(block_slots, labels):
            t = individuals[lab]
            for s in slots:
                letters[s] = t[s]
        out[encode_type(z.cards, letters)] += 1
    return Measure(z.sites, z.cards, out)


def lde_from_sampling(u, z) -> Measure:
    """Top-order LDE on up to three sites via sampling functions.

    Evaluates ``N!/(N**k (N-k)!)`` times the Mobius-weighted sum of the
    normalized sampling measures over all partitions of ``u``; agrees with
    ``lde_operator`` applied to the marginal of ``z`` on ``u``.
    """
    u = site_set(u)
    k = len(u)
    if k > 3:
        raise SizeCapError("closed form only implemented for up to 3 sites; "
                           "use lde_operator instead")
    if isinstance(z, PopulationState):
        zm = z.measure
        N = z.N
    else:
        zm = z
        N = int(round(zm.norm))
    if k > N:
        raise SampleTooLargeError(f"need at least {k} individuals, have {N}")
    marg = marginalize(zm, u)
    one = coarsest(u)
    total = None
    for a in enumerate_partitions(u):
        w = mobius(a, one) * sampling(a, marg).weights
        total = w if total is None else total + w
    scale = math.perm(N, k) / N ** k
    return Measure(marg.sites, marg.cards, scale * total)


def diffusion_left_eigenvectors(rho1: float, rho2: float) -> np.ndarray:
    """Closed-form left eigenvector matrix of the diffusion 3-site conjugation.

    Rows are left eigenvectors of ``conjugated`` for the eigenvalues on
    its diagonal, normalized to unit diagonal.
    """
    s = rho1 + rho2
    c = 4 * (rho1 * rho2 + (2 + s) * (6 + s)) / (
        (2 + rho1) * (2 + rho2) * (2 + s) * (6 + s))
    return np.array([
        [1.0, 0, 0, 0, 0],
        [2 / ((2 + rho2) * (4 + rho1)), 1 / (2 + rho2), 0, 0, 0],
        [2 / ((2 + rho1) * (4 + rho2)), 0, 1 / (2 + rho1), 0, 0],
        [1 / (2 * (2 + s)), 0, 0, 1 / (2 + s), 0],
        [c, 2 / (2 + rho2), 2 / (2 + rho1), 2 / (2 + s), 1.0],
    ])


def expected_sampling(backward: BackwardModel, z0: PopulationState,
                      times) -> ExpectationTrajectory:
    """Expected sampling measures via a dense ``expm(G * t)`` from 0 per time."""
    t = assert_sorted_times(times)
    if z0.N != backward.N:
        raise ValueError(f"population holds {z0.N} individuals, model expects {backward.N}")
    theta = generator_theta(backward)
    keep = [i for i, p in enumerate(theta.labels) if len(p) <= backward.N]
    partitions = [theta.labels[i] for i in keep]
    G = theta.matrix.toarray()[np.ix_(keep, keep)]
    H0 = sampling_stack(z0)
    values = np.empty((t.size, len(partitions), H0.shape[1]))
    for i, ti in enumerate(t):
        values[i] = expm(G * ti) @ H0
    return ExpectationTrajectory(t, backward.sites, tuple(partitions), z0.measure.cards, values)


def expectation_rk4(theta: np.ndarray, H0: np.ndarray, times,
                    dt: float = 1e-3) -> np.ndarray:
    """Fixed-step RK4 integration of ``dY/dt = theta @ Y``.

    Independent of the matrix-exponential path; used to cross-check it.
    """
    t = assert_sorted_times(times)
    out = np.empty((t.size,) + H0.shape)
    y = H0.astype(float).copy()
    now = 0.0
    for i, ti in enumerate(t):
        span = ti - now
        steps = max(1, int(np.ceil(span / dt))) if span > 0 else 0
        h = span / steps if steps else 0.0
        for _ in range(steps):
            k1 = theta @ y
            k2 = theta @ (y + 0.5 * h * k1)
            k3 = theta @ (y + 0.5 * h * k2)
            k4 = theta @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        now = ti
        out[i] = y
    return out


def expectations_to_csv(times, partitions, cards, values, comment: str) -> str:
    """Rows ``time,partition,type,value`` over a (times, partitions, types) block."""
    lines = [f"# {comment}", "time,partition,type,value"]
    for ti, t in enumerate(times):
        for pi, p in enumerate(partitions):
            ptxt = format_partition(p)
            for xi in range(values.shape[2]):
                lines.append(f'{t:.17g},"{ptxt}",{type_token(cards, xi)},'
                             f"{values[ti, pi, xi]:.17g}")
    return "\n".join(lines) + "\n"


def expectations_from_csv(text: str, cards, partitions, times) -> np.ndarray:
    """Parse :func:`expectations_to_csv` back into a dense block."""
    pindex = {format_partition(p): i for i, p in enumerate(partitions)}
    tindex = {f"{t:.17g}": i for i, t in enumerate(times)}
    K = int(np.prod(cards)) if len(cards) else 1
    out = np.zeros((len(times), len(partitions), K))
    for t, ptxt, token, value in csv_table(text, ("time", "partition", "type", "value"))[1]:
        out[tindex[t], pindex[ptxt], parse_type_token(cards, token)] = float(value)
    return out


def population_states(n_types: int, N: int) -> list[tuple[int, ...]]:
    """Count vectors in the order of ``enumerate_population_states``, by recursion."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for c in range(remaining, -1, -1):
            for rest in rec(remaining - c, slots - 1):
                yield (c,) + rest

    return list(rec(N, n_types))


def generator_lambda(model: ForwardModel,
                     cap: int = DEFAULT_POPULATION_CAP) -> tuple[tuple, np.ndarray]:
    """Dense population generator, one state and one (y, x) pair at a time.

    Returns the states in the order of ``enumerate_population_states`` and
    the dense matrix; each rate goes to its target through a tuple index.
    """
    K = model.space.total_states
    n_states = count_population_states(K, model.N)
    if n_states > cap:
        raise SizeCapError(f"{n_states} population states exceeds the cap of {cap}")
    states = population_states(K, model.N)
    index = {s: i for i, s in enumerate(states)}
    G = np.zeros((n_states, n_states))
    for si, s in enumerate(states):
        counts = np.array(s)
        q = replacement_distribution(model, counts)
        for y in range(K):
            if counts[y] == 0:
                continue
            for x in range(K):
                if x == y or q[x] == 0.0:
                    continue
                t = list(s)
                t[y] -= 1
                t[x] += 1
                G[si, index[tuple(t)]] += q[x] * counts[y]
        G[si, si] = -G[si].sum()
    return tuple(states), G


def sampling_table_values(space, N: int) -> np.ndarray:
    """Duality table ``(z, partition, type)`` from one ``recombinator_bar`` per entry."""
    partitions = enumerate_partitions(space.sites)
    M = mobius_matrix(partitions)
    zs = [Measure(space.sites, space.cards, np.array(s, dtype=float))
          for s in enumerate_population_states(space.total_states, N)]
    rbar = np.array([[recombinator_bar(p, z).weights for z in zs] for p in partitions])
    scale = np.array([1 / math.perm(N, len(p)) for p in partitions])
    B = len(partitions)
    rows = (M @ rbar.reshape(B, -1)).reshape(rbar.shape) * scale[:, None, None]
    return np.ascontiguousarray(rows.transpose(1, 0, 2))


def lde_trajectory(backward: BackwardModel, z0: PopulationState, u,
                   times) -> ExpectationTrajectory:
    """Expected linkage disequilibria on the sites ``u``, on the full lattice.

    Solves the Bell(n) system of all sites of the model: pads each
    partition of ``u`` with singletons, applies the linear map from
    sampling expectations to correlation expectations on the full site
    set, and marginalizes the resulting signed measures onto ``u``.
    """
    u = site_set(u)
    traj = stepped_expected_sampling(backward, z0, times)
    partitions_S = enumerate_partitions(backward.sites)
    index_S = {p: i for i, p in enumerate(partitions_S)}
    T = lattice_lde_transform(backward.n, backward.N)
    sub_partitions = enumerate_partitions(u)
    rest = tuple((s,) for s in backward.sites if s not in u)
    space = SiteSpace(z0.measure.cards)
    cards_u = space.cards_for(u)
    values = np.empty((traj.times.size, len(sub_partitions),
                       int(np.prod(cards_u)) if cards_u else 1))
    # padded partitions may have more than N blocks; the columns of T
    # dropped from the trajectory (|c| > N) are zero
    rows = [index_S[Partition(p.blocks + rest)] for p in sub_partitions]
    cols = [index_S[c] for c in traj.partitions]
    pad_rows = T[np.ix_(rows, cols)]
    sites_S = tuple(range(1, backward.n + 1))
    for ti in range(traj.times.size):
        L_full = pad_rows @ traj.values[ti]  # signed measures on the full space
        for pi in range(len(sub_partitions)):
            m = Measure(sites_S, space.cards, L_full[pi])
            values[ti, pi] = marginalize(m, u).weights
    return ExpectationTrajectory(traj.times, u, tuple(sub_partitions), cards_u, values)


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
    """The partitioning process stepped on ``Partition`` objects: the exit
    rate and (diffusion) the transition rates recomputed at every event."""
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
        if len(events) == backward_module.MAX_EVENTS:
            raise SizeCapError(f"more than {backward_module.MAX_EVENTS} events before "
                               f"t_end={t_end:g}; lower t_end")
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
