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
relabels it to canonical block tuples: the partitions of a site set,
and, in :mod:`moranrec.operators`, the coarsenings of a partition (the
partitions of its blocks) and its refinements (one partition per
block).  It is the package's only partition algebra: its coarsening
groups carry every Mobius sum of the exact pipeline, through the one
sparse Mobius matrix :attr:`Lattice.mobius` built from them, and their
entries are exact integers so that inversion round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyBlockError, OverlapError, SizeCapError
from .markov import GeneratorMatrix

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

    @classmethod
    def _canonical(cls, blocks: tuple[Block, ...]) -> Partition:
        """The partition of ``blocks``, taken as they are: ascending tuples of
        distinct ints, ordered by their least site.  For blocks canonical by
        construction only; nothing is checked or copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        return p

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __str__(self) -> str:
        return format_partition(self)

    @cached_property
    def label(self) -> str:
        """:func:`format_partition` of this partition, formatted once and kept with it."""
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
    and ``mu_coarsest[i]`` is ``mobius(i, coarsest)``.  The coarsening
    groups, the sparse Mobius matrix and the split/merge incidence of the
    partitioning process are built on first use.
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

    def relabel(self, parts: Iterable[Iterable[int]]) -> list[tuple[Block, ...]]:
        """Every partition as canonical block tuples, with position ``p`` read
        as the sites ``parts[p]``.

        ``parts`` must be disjoint and ordered by their least site, as the
        blocks of a :class:`Partition` are; then the lowest position of each
        lattice block carries its least site, so only the sites within a
        block need sorting.
        """
        parts = [tuple(x) for x in parts]
        return [tuple(tuple(sorted(x for q in b for x in parts[q])) for b in p)
                for p in self.blocks]

    @cached_property
    def coarsenings(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The coarsenings of every partition, one group per block count.

        Group ``m`` is ``(a, up, mu)``: ``a`` lists the partitions with
        ``m`` blocks, and ``up[g, i]`` is the coarsening of ``a[i]`` that
        merges its blocks as partition ``g`` of ``lattice(m)`` merges its
        positions (the restricted-growth string of ``g`` read at the block
        labels of ``a[i]``).  ``mobius(a[i], up[g, i])`` is
        ``mu[g] = lattice(m).mu_finest[g]``.  ``up`` ascends along ``g``:
        block ``j`` of ``a[i]`` starts before block ``j + 1``, so two
        coarsenings first differ where ``g`` does.
        """
        radix = self.k ** np.arange(self.k - 1, -1, -1)
        code = self.rgs @ radix  # ascending in lattice order
        groups = []
        for m in sorted(set(self.sizes.tolist())):  # np.unique would import numpy.ma
            up = self if m == self.k else lattice(m)
            a = np.flatnonzero(self.sizes == m)
            coarse = up.rgs[:, self.rgs[a]]  # (coarsening, a, position)
            groups.append((a, np.searchsorted(code, coarse @ radix), up.mu_finest))
        return tuple(groups)

    @cached_property
    def mobius(self) -> GeneratorMatrix:
        """``M[a, b] = mobius(a, b)`` when ``a`` refines ``b``, else 0, as a
        :class:`GeneratorMatrix` made from :attr:`coarsenings`.  Its inverse, the
        zeta matrix, is its nonzero pattern: 1 where ``a`` refines ``b``."""
        entries = zip(*((np.broadcast_to(a, up.shape).ravel(), up.ravel(), np.repeat(mu, a.size))
                        for a, up, mu in self.coarsenings))
        return GeneratorMatrix(len(self.sizes), *map(np.concatenate, entries))

    @cached_property
    def incidence(self) -> dict[str, np.ndarray]:
        """Every block-level move of the partitioning process, one per entry.

        Entry ``e`` takes partition ``a[e]`` to ``b[e]``.  A block of ``a``
        either stays whole (``split[e]`` false) and lands on another block,
        or is cut between its consecutive positions ``lo[e]`` and ``hi[e]``
        (``split[e]`` true) and each part lands on another block or on a
        fresh parent.  A whole block spans ``lo[e]..hi[e]``.  ``m[e]`` and
        ``nb[e]`` are the block counts of ``a`` and ``b``.  Entries are
        ordered by ``a``, so the moves out of partition ``i`` are the slice
        ``offsets[i]:offsets[i + 1]``.

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
        order = np.argsort(np.concatenate(cols[0]), kind="stable")
        a, code, split, lo, hi = (np.concatenate(col)[order] for col in cols)
        b = np.searchsorted(_leader_code(self.rgs), code)  # codes ascend in lattice order
        offsets = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=len(self.sizes)))))
        return {"a": a, "b": b, "split": split.astype(bool), "lo": lo, "hi": hi,
                "m": self.sizes[a], "nb": self.sizes[b], "offsets": offsets}


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
    partition lattice.  It is the one place where lattice rows become
    :class:`Partition` objects; the rows are canonical, so they are not
    validated again.
    """
    w = site_set(sites)
    return [Partition._canonical(p) for p in lattice(len(w)).relabel((s,) for s in w)]


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
