"""Set partitions of a finite, totally ordered site set.

A partition is stored canonically: every block is an ascending tuple of
sites and the blocks are ordered by their minimum element.  Canonical
storage makes partitions hashable and gives every enumeration a fixed,
reproducible order; generator matrices over the partition lattice index
their rows and columns by the order of :func:`enumerate_partitions`
(restricted-growth strings, lexicographic).

The lattice of partitions of ``k`` sites is enumerated once, in
:class:`Lattice` (cached per ``k`` by :func:`lattice`, which refuses more
than ``DEFAULT_SITE_CAP`` positions), and every enumeration here
relabels it: the partitions of a site set, the coarsenings of a
partition (the partitions of its blocks) and its refinements (one
partition per block).  Its Mobius and zeta matrices carry every Mobius
sum of the exact pipeline.

Mobius values are exact integers so that inversion round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import (
    EmptyBlockError,
    GroundMismatchError,
    NotComparableError,
    NotSubsetError,
    OverlapError,
    SizeCapError,
)

Block = tuple[int, ...]

# Bell(8) = 4140; exact engines refuse larger ground sets instead of
# exhausting memory.
DEFAULT_SITE_CAP = 8


def site_set(sites: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of site labels to a sorted tuple of distinct ints."""
    out = tuple(sorted({int(s) for s in sites}))
    if any(s < 1 for s in out):
        raise ValueError(f"site labels must be positive integers, got {out}")
    return out


@dataclass(frozen=True)
class Partition:
    """A set partition with canonical block order.

    ``blocks`` may be passed in any order; they are sorted on construction.
    The empty partition (no blocks, empty ground) is the constant ``EMPTY``.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in self.blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise EmptyBlockError("partition blocks must be nonempty")
            for x in b:
                if x in seen:
                    raise OverlapError(f"site {x} appears in more than one block")
                seen.add(x)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __str__(self) -> str:
        return format_partition(self)

    def drop_block(self, j: int) -> "Partition":
        """Partition of the remaining ground after removing block ``j``."""
        return Partition(self.blocks[:j] + self.blocks[j + 1:])


EMPTY = Partition(())


def canonicalize(blocks: Iterable[Iterable[int]]) -> Partition:
    """Build a canonical partition from unordered blocks."""
    return Partition(tuple(tuple(b) for b in blocks))


def finest(sites: Iterable[int]) -> Partition:
    """All-singletons partition of ``sites``."""
    return Partition(tuple((s,) for s in site_set(sites)))


def coarsest(sites: Iterable[int]) -> Partition:
    """Single-block partition of ``sites``."""
    s = site_set(sites)
    return Partition((s,)) if s else EMPTY


def _check_same_ground(a: Partition, b: Partition) -> None:
    if a.ground != b.ground:
        raise GroundMismatchError(f"ground sets differ: {a.ground} vs {b.ground}")


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


def restrict(a: Partition, sites: Iterable[int]) -> Partition:
    """Partition of ``sites`` induced by intersecting the blocks of ``a``.

    Restriction to the empty set yields ``EMPTY``.
    """
    u = site_set(sites)
    if not set(u) <= set(a.ground):
        raise NotSubsetError(f"{u} is not a subset of the ground set {a.ground}")
    out = []
    for b in a.blocks:
        nb = tuple(x for x in b if x in u)
        if nb:
            out.append(nb)
    return Partition(tuple(out))


# the Mobius value of ``c`` blocks merged into one: (-1)**(c-1) (c-1)!
_MU = [1] + [(-1) ** (c - 1) * math.factorial(c - 1) for c in range(1, 32)]


def mobius(a: Partition, b: Partition) -> int:
    """Mobius value of the comparable pair ``a`` refines ``b`` (exact integer).

    Product over the blocks of ``b`` of ``(-1)**(k-1) * (k-1)!`` where ``k``
    counts the blocks of ``a`` inside that block.
    """
    if a is EMPTY and b is EMPTY or (not a.blocks and not b.blocks):
        return 1
    if not refines(a, b):
        raise NotComparableError("first partition does not refine the second")
    owner = {x: j for j, bb in enumerate(b.blocks) for x in bb}
    counts = [0] * len(b.blocks)
    for ab in a.blocks:
        counts[owner[ab[0]]] += 1
    return math.prod(_MU[k] for k in counts)


def _rgs_masks(k: int) -> Iterator[tuple[list[int], list[int]]]:
    """Partitions of positions ``0..k-1`` in lexicographic restricted-growth
    order: each as its restricted-growth string and as block bitmasks
    ordered by their lowest position (the lists are reused)."""
    labels = [0] * k
    blocks = [1] if k else []

    def rec(i: int) -> Iterator[tuple[list[int], list[int]]]:
        if i >= k:
            yield labels, blocks
            return
        bit = 1 << i
        for g in range(len(blocks)):
            labels[i] = g
            blocks[g] |= bit
            yield from rec(i + 1)
            blocks[g] ^= bit
        labels[i] = len(blocks)
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def _positions(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


class Lattice:
    """The partitions of positions ``0..k-1``, enumerated and indexed once.

    ``keys[i]`` is partition ``i`` as the sorted tuple of its block
    bitmasks and ``blocks[i]`` as ascending position tuples ordered by
    their lowest position; ``i`` follows the restricted-growth order of
    :func:`enumerate_partitions`.  ``sizes`` holds the block counts, ``rgs``
    the restricted-growth strings, ``mu_finest[i]`` is ``mobius(finest, i)``
    and ``mu_coarsest[i]`` is ``mobius(i, coarsest)``.  The Mobius and
    zeta matrices and the split/merge incidence of the partitioning
    process are built on first use.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        rgs, masks = [], []
        for labels, blocks in _rgs_masks(k):
            rgs.append(list(labels))
            masks.append(list(blocks))
        self.keys = tuple(tuple(sorted(p)) for p in masks)
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.blocks = tuple(tuple(tuple(_positions(b)) for b in p) for p in masks)
        self.sizes = np.array([len(p) for p in masks])
        self.rgs = np.array(rgs, dtype=np.intp).reshape(len(rgs), k)
        self.mu_finest = np.array(
            [math.prod(_MU[len(b)] for b in p) for p in self.blocks], dtype=float)
        self.mu_coarsest = np.array([_MU[m] for m in self.sizes], dtype=float)

    def relabel(self, parts: Iterable[Iterable[int]]) -> list[Partition]:
        """Every partition, with position ``p`` read as the sites ``parts[p]``."""
        parts = [tuple(x) for x in parts]
        return [Partition(tuple(tuple(x for q in b for x in parts[q]) for b in p))
                for p in self.blocks]

    @cached_property
    def mobius(self) -> sparse.csr_array:
        """``M[a, b] = mobius(a, b)`` when ``a`` refines ``b``, else 0.

        The coarsenings of ``a`` are the partitions of its blocks: the
        restricted-growth string of each is that of a partition ``g`` of
        the ``|a|`` positions read at the block labels of ``a``, and
        ``mobius(a, b)`` is ``mobius(finest, g)`` in that lattice.
        """
        radix = self.k ** np.arange(self.k - 1, -1, -1)
        code = self.rgs @ radix  # ascending in lattice order
        rows, cols, vals = [], [], []
        for m in np.unique(self.sizes).tolist():
            up = self if m == self.k else lattice(m)
            a = np.flatnonzero(self.sizes == m)
            coarse = up.rgs[:, self.rgs[a]]  # (coarsening, a, position)
            rows.append(np.broadcast_to(a, coarse.shape[:2]).ravel())
            cols.append(np.searchsorted(code, coarse @ radix).ravel())
            vals.append(np.repeat(up.mu_finest, len(a)))
        B = len(self.keys)
        return sparse.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(B, B))

    @cached_property
    def zeta(self) -> sparse.csr_array:
        """Refinement indicator ``Z[a, b] = 1`` when ``a`` refines ``b``; ``Z = M^-1``."""
        return (self.mobius != 0).astype(float)

    @cached_property
    def incidence(self) -> dict[str, np.ndarray]:
        """Every block-level move of the partitioning process, one per entry.

        Entry ``e`` takes partition ``a[e]`` to ``b[e]``.  A block of ``a``
        either stays whole (``split[e]`` false) and lands on another block,
        or is cut between its consecutive positions ``lo[e]`` and ``hi[e]``
        (``split[e]`` true) and each part lands on another block or on a
        fresh parent.  A whole block spans ``lo[e]..hi[e]``.  ``m[e]`` and
        ``nb[e]`` are the block counts of ``a`` and ``b``.
        """
        moves = []
        for i, key in enumerate(self.keys):
            m = len(key)
            for j, blk in enumerate(key):
                rest = [*key[:j], *key[j + 1:], 0, 0]  # slots m - 1, m: fresh parents
                pos = _positions(blk)
                for t in range(m - 1):
                    b = rest.copy()
                    b[t] |= blk
                    moves.append((i, self.index[tuple(sorted(b)[2:])], 0, pos[0], pos[-1]))
                for p, q in zip(pos, pos[1:]):
                    head = blk & ((2 << p) - 1)
                    for t1 in range(m):
                        for t2 in (*range(m - 1), m):
                            b = rest.copy()
                            b[t1] |= head
                            b[t2] |= blk ^ head
                            empty = (t1 < m - 1) + (t2 < m - 1)
                            moves.append((i, self.index[tuple(sorted(b)[empty:])], 1, p, q))
        a, b, split, lo, hi = np.array(moves, dtype=np.intp).reshape(-1, 5).T
        split = split.astype(bool)
        return {"a": a, "b": b, "split": split, "lo": lo, "hi": hi,
                "m": self.sizes[a], "nb": self.sizes[b]}


_lattices = lru_cache(maxsize=16)(Lattice)  # far above the site cap


def lattice(k: int) -> Lattice:
    """The :class:`Lattice` of ``k`` positions, built once per ``k``.

    Refuses ``k`` above ``DEFAULT_SITE_CAP`` before anything is built.
    """
    if k > DEFAULT_SITE_CAP:
        raise SizeCapError(f"{k} sites exceeds the cap of {DEFAULT_SITE_CAP} "
                           "(Bell numbers explode); reduce the sites")
    return _lattices(k)


def enumerate_partitions(sites: Iterable[int]) -> list[Partition]:
    """All partitions of ``sites`` in restricted-growth-string order.

    The first entry is the coarsest partition, the last the finest.  This
    order fixes the row/column indexing of every generator matrix over the
    partition lattice.
    """
    w = site_set(sites)
    return lattice(len(w)).relabel((s,) for s in w)


def coarsenings(a: Partition) -> list[Partition]:
    """All partitions coarser than or equal to ``a``, ``a`` last: the lattice of
    its blocks, whose ``mu_finest`` holds ``mobius(a, b)``."""
    return lattice(len(a)).relabel(a.blocks)


def refinements(a: Partition) -> list[Partition]:
    """All partitions finer than or equal to ``a``, ``a`` first: the product of
    the lattices of its blocks (the last varying fastest), so ``mobius(b, a)``
    is the outer product of their ``mu_coarsest``."""
    per_block = [enumerate_partitions(b) for b in a.blocks]
    return [Partition(tuple(blk for p in combo for blk in p.blocks))
            for combo in _cartesian(*per_block)]


def ordered_partitions_le2(sites: Iterable[int]) -> list[Partition]:
    """The whole set plus every split of ``sites`` into a leading and trailing part.

    Splits are ordered within ``sites`` (between consecutive elements), not
    necessarily within the enclosing site universe.
    """
    u = site_set(sites)
    if not u:
        raise EmptyBlockError("ordered partitions need a nonempty site set")
    out = [Partition((u,))]
    for k in range(1, len(u)):
        out.append(Partition((u[:k], u[k:])))
    return out


def is_ordered(a: Partition, within: Iterable[int] | None = None) -> bool:
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


def format_partition(a: Partition) -> str:
    """Render as ``"1,3,4|2,5"``; inverse of :func:`parse_partition`."""
    return "|".join(",".join(str(x) for x in b) for b in a.blocks)


def parse_partition(text: str) -> Partition:
    """Parse the ``"1,3,4|2,5"`` format produced by :func:`format_partition`."""
    text = text.strip()
    if not text:
        return EMPTY
    blocks = []
    for part in text.split("|"):
        items = [p.strip() for p in part.split(",")]
        if any(not it for it in items):
            raise ValueError(f"malformed partition text: {text!r}")
        blocks.append(tuple(int(it) for it in items))
    return Partition(tuple(blocks))
