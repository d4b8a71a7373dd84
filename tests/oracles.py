"""Reference implementations kept for parity tests.

These are the pairwise-scan versions of the lattice computations that the
package now does with one sparse Mobius/zeta pair; tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from moranrec import Partition, mobius, refines


def mobius_matrix(partitions: list[Partition]) -> np.ndarray:
    """M[a, b] = mobius(a, b) when ``a`` refines ``b``, else 0."""
    B = len(partitions)
    M = np.zeros((B, B))
    for i, a in enumerate(partitions):
        for j, b in enumerate(partitions):
            if refines(a, b):
                M[i, j] = mobius(a, b)
    return M


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
