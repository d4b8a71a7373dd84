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
partition per block).  It is the package's only partition algebra: its
Mobius and zeta matrices carry every Mobius sum of the exact pipeline,
and their entries are exact integers so that inversion round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import EmptyBlockError, OverlapError, SizeCapError

if TYPE_CHECKING:
    from scipy import sparse

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


EMPTY = Partition(())


def finest(sites: Iterable[int]) -> Partition:
    """All-singletons partition of ``sites``."""
    return Partition(tuple((s,) for s in site_set(sites)))


def coarsest(sites: Iterable[int]) -> Partition:
    """Single-block partition of ``sites``."""
    s = site_set(sites)
    return Partition((s,)) if s else EMPTY


# the Mobius value of ``c`` blocks merged into one: (-1)**(c-1) (c-1)!
_MU = [1] + [(-1) ** (c - 1) * math.factorial(c - 1) for c in range(1, 32)]


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

    ``blocks[i]`` is partition ``i`` as ascending position tuples ordered
    by their lowest position; ``i`` follows the restricted-growth order of
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
        from scipy import sparse

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
        B = len(self.sizes)
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

        Each move relabels the restricted-growth string of ``a``, one block
        count at a time; ``b`` is found by the leader code of the result.
        """
        k, pos = self.k, np.arange(self.k)
        cols = [[np.zeros(0, np.intp)] for _ in range(5)]  # a, code of b, split, lo, hi

        def add(a, relabelled, split, lo, hi):
            code = _leader_code(relabelled.reshape(-1, k))
            for col, x in zip(cols, (a, code, np.full(a.size, split), lo, hi)):
                col.append(np.ravel(x))

        for m in range(1, k + 1):
            a = np.flatnonzero(self.sizes == m)
            R = self.rgs[a]
            member = R[:, :, None] == np.arange(m)  # (a, position, block)
            first = member.argmax(axis=1)
            last = k - 1 - member[:, ::-1].argmax(axis=1)
            # block j lands whole on block t
            j, t = np.nonzero(~np.eye(m, dtype=bool))
            add(np.repeat(a, len(j)), np.where(R[:, None] == j[:, None], t[:, None], R[:, None]),
                0, first[:, j], last[:, j])
            # block j is cut before its position q, after its position p: the
            # head goes to block h, the tail to block g, and label j to a fresh parent
            row, q = np.nonzero(first[np.arange(len(a))[:, None], R] != pos)
            Rq, jq = R[row], R[row, q]
            head = (Rq == jq[:, None]) & (pos < q[:, None])
            tail = (Rq == jq[:, None]) & (pos >= q[:, None])
            p = k - 1 - head[:, ::-1].argmax(axis=1)
            h, g = np.divmod(np.arange(m * m), m)
            g = np.where(g == jq[:, None], m, g)  # (cut, combination)
            relabelled = np.where(tail[:, None], g[:, :, None], Rq[:, None])
            add(np.repeat(a[row], m * m), np.where(head[:, None], h[:, None], relabelled),
                1, np.repeat(p, m * m), np.repeat(q, m * m))
        a, code, split, lo, hi = (np.concatenate(col) for col in cols)
        b = np.searchsorted(_leader_code(self.rgs), code)  # codes ascend in lattice order
        return {"a": a, "b": b, "split": split.astype(bool), "lo": lo, "hi": hi,
                "m": self.sizes[a], "nb": self.sizes[b]}


def _leader_code(labels: np.ndarray) -> np.ndarray:
    """Base-``k`` code of the leader vector of each row of ``labels``.

    ``labels`` holds one block label per position (any labels in
    ``0..k``); the leader of a position is the first position of its
    block, so the code depends only on the partition.  Codes of
    restricted-growth strings ascend in their lexicographic order.
    """
    E, k = labels.shape
    flat = labels + (k + 1) * np.arange(E)[:, None]  # into ``first`` as (row, label)
    first = np.empty(E * (k + 1), dtype=np.intp)
    for q in range(k - 1, -1, -1):
        first[flat[:, q]] = q
    return first[flat] @ (k ** np.arange(k - 1, -1, -1))


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
