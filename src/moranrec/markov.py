"""Shared container for exact generator matrices over enumerated state spaces."""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

# Values of one row chunk in :meth:`GeneratorMatrix.dot` (512 KiB of
# float64; the chunk's sum and two temporaries of at most that size, or
# of one row where a row of the product holds more).
DOT_CHUNK = 2**16


class GeneratorMatrix:
    """Square rate matrix over an enumerated state space, held as CSR arrays.

    Row and column ``i`` stand for state ``i`` of the enumeration that
    defines the states: :func:`moranrec.partitions.enumerate_partitions`
    for the partitioning generators, :func:`enumerate_population_states`
    for the population generator.  Rows sum to zero; the diagonal is minus
    the off-diagonal row sum.

    Built from the entries ``(n, rows, cols, vals)``: entries that share a
    position are summed in the order given (as ``np.bincount`` sums them),
    columns are sorted within each row and zero sums are dropped.
    ``indptr``, ``indices`` and ``data`` hold that canonical CSR as
    read-only numpy arrays; :meth:`dot` and :meth:`toarray` read them
    without scipy.  ``matrix`` wraps the same arrays as a read-only
    ``scipy.sparse.csr_array``, built on first access.  The expectation
    solve does not go through this class: it assembles the small
    partitioning generator densely, by
    :func:`moranrec.backward.generator_theta_dense`.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        key, slot = np.unique(np.asarray(rows, dtype=np.int64) * n + cols, return_inverse=True)
        data = np.bincount(slot, np.asarray(vals, dtype=float), key.size)
        nonzero = data != 0
        row, col = np.divmod(key[nonzero], n)
        index = np.int32 if max(n, nonzero.sum()) < 2**31 else np.int64
        self.n = n
        self.data = data[nonzero]
        self.indices = col.astype(index)
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n)))).astype(index)
        for part in (self.data, self.indices, self.indptr):
            part.flags.writeable = False

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``G @ x`` for ``x`` of leading length ``n`` and any trailing shape.

        Each output row starts at zero and adds its entries times the rows
        of ``x`` they point to in column order, as scipy's CSR product
        does, so the two agree bit for bit.  The rows go longest first, in
        chunks of about ``DOT_CHUNK`` values, so the ``k``-th entries of a
        chunk's rows belong to a prefix of them and the temporaries stay
        bounded.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(self.n, -1)
        out = np.empty_like(flat)
        length = np.diff(self.indptr)
        order = np.argsort(-length, kind="stable")
        step = max(DOT_CHUNK // max(flat.shape[1], 1), 1)
        for start in range(0, self.n, step):
            rows = order[start:start + step]
            first, size = self.indptr[rows], length[rows]
            acc = np.zeros((rows.size, flat.shape[1]))
            having = np.searchsorted(-size, -np.arange(size[0]), side="left")
            for k, m in enumerate(having.tolist()):  # rows with a k-th entry
                e = first[:m] + k
                acc[:m] += self.data[e, None] * flat[self.indices[e]]
            out[rows] = acc
        return out.reshape(x.shape)

    def toarray(self) -> np.ndarray:
        """The dense ``(n, n)`` array, zero off the stored entries."""
        out = np.zeros((self.n, self.n))
        out[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.data
        return out

    @cached_property
    def matrix(self) -> sparse.csr_array:
        """The same arrays as a read-only ``scipy.sparse.csr_array``."""
        from scipy import sparse

        m = sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        for part in (m.data, m.indices, m.indptr):
            part.flags.writeable = False
        return m


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
