"""Shared container for exact generator matrices over enumerated state spaces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Square rate matrix over an enumerated state space.

    Row and column ``i`` stand for state ``i`` of the enumeration that
    defines the states: :func:`moranrec.partitions.enumerate_partitions`
    for the partitioning generators, :func:`enumerate_population_states`
    for the population generator.  Rows sum to zero; the diagonal is minus
    the off-diagonal row sum.  ``matrix`` is a read-only CSR array without
    explicit zeros, whatever dense or sparse input it was built from.  The
    expectation solve does not go through it: it assembles the small
    partitioning generator densely, by
    :func:`moranrec.backward.generator_theta_dense`.
    """

    matrix: sparse.csr_array

    def __post_init__(self) -> None:
        from scipy import sparse

        m = sparse.csr_array(self.matrix, dtype=float, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"generator matrix must be square, got shape {m.shape}")
        # canonical (summed, sorted) before freezing: scipy sorts unsorted
        # indices in place, which read-only arrays would refuse
        m.sum_duplicates()
        m.eliminate_zeros()
        for part in (m.data, m.indices, m.indptr):
            part.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def enumerate_population_states(n_types: int, N: int) -> list[tuple[int, ...]]:
    """All count vectors of length ``n_types`` summing to ``N``.

    Lexicographic with the first coordinate descending, so monomorphic
    states in the first type come first; the order is the fixed row order
    of population-level generator matrices.  Each vector follows from the
    one before: move one unit from the rightmost nonzero count before the
    last slot to the slot after it, together with everything in the last
    slot.
    """
    last = n_types - 1
    c = [N] + [0] * last
    out = [tuple(c)]
    i = 0 if N and last else -1  # rightmost nonzero count before the last slot
    while i >= 0:
        tail, c[last] = c[last], 0
        c[i] -= 1
        c[i + 1] = tail + 1
        out.append(tuple(c))
        if i + 1 < last:
            i += 1
        else:
            while i >= 0 and c[i] == 0:
                i -= 1
    return out


def _rank_table(K: int, N: int) -> np.ndarray:
    """``table[k, m + 1] = C(m + d_k, d_k + 1)`` with ``d_k = K - k - 2``.

    ``m`` runs over ``-1..N + 1``; the padding columns (0 at ``m = -1``)
    let :func:`rank_population_moves` look one step past either end.
    """
    return np.array([[0] + [math.comb(m + d, d + 1) for m in range(N + 2)]
                     for d in range(K - 2, -1, -1)], dtype=np.int64).reshape(K - 1, N + 3)


def rank_population_states(counts: np.ndarray, N: int) -> np.ndarray:
    """Index of each count vector in the order of :func:`enumerate_population_states`.

    ``counts`` holds count vectors summing to ``N`` along its last axis;
    the result has the leading shape.  Combinatorial number system: with
    ``d_k = K - k - 2`` and ``m_k = N - c_0 - ... - c_k``, the states
    before ``c`` number ``sum_k C(m_k + d_k, d_k + 1)`` over ``k < K - 1``
    (those with the same first ``k`` counts and a larger ``k``-th one).
    """
    c = np.asarray(counts)
    K = c.shape[-1]
    rest = N - np.cumsum(c[..., :-1], axis=-1)
    return _rank_table(K, N)[np.arange(K - 1), rest + 1].sum(axis=-1)


def rank_population_moves(counts: np.ndarray, N: int, src: np.ndarray,
                          y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rank of ``counts[src]`` after one individual of type ``y`` becomes type ``x``.

    ``counts`` is a ``(Z, K)`` array of count vectors summing to ``N``;
    ``src``, ``y`` and ``x`` are equal-length index arrays with
    ``counts[src, y] >= 1`` and ``y != x``.  The move raises ``m_k`` by one
    for ``y <= k < x`` and lowers it by one for ``x <= k < y``, so the new
    rank is the old one plus a difference of two prefix sums of the
    change of ``C(m_k + d_k, d_k + 1)`` under ``m_k -> m_k + 1`` (or
    ``m_k - 1``): ``O(Z K)`` set-up, ``O(1)`` per move, and no target count
    vector is ever formed.
    """
    moving, src = np.unique(src, return_inverse=True)
    c = np.asarray(counts)[moving]
    K = c.shape[-1]
    table, k = _rank_table(K, N), np.arange(K - 1)
    at = N + 1 - np.cumsum(c[:, :-1], axis=1)
    rank = rank_population_states(c, N)[src]
    # m_k moves by `step` for lo <= k < hi: a difference of two prefix sums
    for step, lo, hi in ((1, y, x), (-1, x, y)):
        prefix = np.zeros(c.shape, dtype=np.int64)
        np.cumsum(table[k, at + step] - table[k, at], axis=1, out=prefix[:, 1:])
        rank += np.where(lo < hi, prefix[src, hi] - prefix[src, lo], 0)
    return rank


def count_population_states(n_types: int, N: int) -> int:
    """Number of count vectors: C(N + n_types - 1, n_types - 1)."""
    return math.comb(N + n_types - 1, n_types - 1)


def assert_sorted_times(times: Sequence[float]) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("time grid must be a nonempty 1-D sequence")
    if not np.isfinite(t).all():
        raise ValueError("time grid must be finite")
    if np.any(np.diff(t) < 0) or t[0] < 0:
        raise ValueError("time grid must be nondecreasing and nonnegative")
    return t
