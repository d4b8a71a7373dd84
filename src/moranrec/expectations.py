"""Exact expectations of sampling measures through the backward generator.

The population process and the partitioning process are intertwined: if
``H`` denotes the table of without-replacement sampling measures (one
probability vector per population state and partition), then the forward
generator applied to ``H`` equals ``H`` contracted against the transpose
of the partitioning generator.  That identity closes the moment hierarchy:
the expectations of all sampling measures solve a linear ODE driven by the
small partition-lattice generator, independently of the type coordinate.

This module verifies the identity exactly, integrates the ODE (the matrix
exponential of each grid step), translates sampling expectations into
expected linkage disequilibria, and evaluates the closed-form results
available for two and three sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backward import BackwardModel, generator_theta, generator_theta_dense
from .errors import SampleTooLargeError, ShapeError, SizeCapError
from .forward import DEFAULT_POPULATION_CAP, ForwardModel, generator_lambda
from .markov import (
    GeneratorMatrix,
    assert_sorted_times,
    count_population_states,
    enumerate_population_states,
)
from .measures import Measure, PopulationState, SiteSpace, marginalize
from .operators import block_products, sampling
from .partitions import (
    Lattice,
    Partition,
    enumerate_partitions,
    finest,
    lattice,
    parse_partition,
    site_set,
)


def _sampling_rows(grid: np.ndarray, N: int) -> np.ndarray:
    """Sampling measures ``(M @ Rbar) / (N)_|a|`` of a stack of counting measures.

    ``grid[z]`` holds the counts of measure ``z``, one axis per site,
    ``M`` is the Mobius matrix of the lattice of the sites and ``Rbar`` the
    :func:`block_products` of every partition (read at the positions of
    the sites).  ``M @ Rbar`` is the sparse product
    :meth:`GeneratorMatrix.dot` of :attr:`Lattice.mobius`, without scipy.
    Only the rows of the partitions with at most ``N`` blocks are kept (their
    coarsenings have no more blocks).  The result is indexed (partition,
    measure, type).
    """
    L = lattice(grid.ndim - 1)
    rbar = block_products(grid, tuple(range(L.k)), L.blocks)
    keep = L.sizes <= N
    scale = np.array([1 / math.perm(N, k) for k in L.sizes[keep]])
    return L.mobius.dot(rbar)[keep] * scale[:, None, None]


def sampling_stack(m: Measure, N: int) -> np.ndarray:
    """Matrix of normalized sampling measures of the counting measure ``m`` of
    ``N`` individuals, one row per partition of its sites with at most ``N``
    blocks, in lattice order."""
    return _sampling_rows(m.as_grid()[None], N)[:, 0]


def _need_sample(n: int, N: int) -> None:
    if n > N:
        raise SampleTooLargeError(f"sampling measures need N >= n, got N={N}, n={n}")


def sampling_table(space: SiteSpace, N: int) -> np.ndarray:
    """The full duality table over populations of size ``N``.

    ``table[z, a, x]`` is the probability that a without-replacement
    spliced sample along partition ``a`` of population ``z`` shows type
    ``x``.  ``z`` runs over ``enumerate_population_states(K, N)``, with
    ``K`` the number of types, ``a`` over
    ``enumerate_partitions(space.sites)`` (lattice order) and ``x`` over
    the types in mixed-radix order.  The block-marginal products of every
    state are contracted against the Mobius matrix of the lattice in one
    pass over its coarsening groups; the falling-factorial normalization
    needs ``N`` at least the number of sites.  At most
    ``DEFAULT_POPULATION_CAP`` population states and ``DEFAULT_SITE_CAP``
    sites.
    """
    _need_sample(space.n, N)
    K = space.total_states
    if count_population_states(K, N) > DEFAULT_POPULATION_CAP:
        raise SizeCapError("population state space exceeds the cap; "
                           "reduce sites, alphabet or N")
    states = enumerate_population_states(K, N)
    grid = np.array(states, dtype=float).reshape((len(states),) + space.cards)
    return np.ascontiguousarray(_sampling_rows(grid, N).transpose(1, 0, 2))


def check_generator_duality(forward: ForwardModel, backward: BackwardModel) -> float:
    """Maximum absolute defect of the generator intertwining identity.

    Checks ``N >= n`` first, then builds the population generator, the
    partitioning generator and the sampling table, and returns the largest
    entry of the difference between the forward generator acting on the
    table and the table contracted with the transposed backward generator.
    Both products are :meth:`GeneratorMatrix.dot`, without scipy.  Exact
    duality makes this pure floating-point roundoff.
    """
    if (forward.N != backward.N or forward.space.n != backward.n
            or forward.recomb != backward.recomb or backward.variant != "finite"):
        raise ValueError("forward and backward models must share N, n and r, "
                         "and the backward model must be finite")
    _need_sample(forward.space.n, forward.N)
    lam = generator_lambda(forward)
    theta = generator_theta(backward)
    table = sampling_table(forward.space, forward.N)
    lhs = lam.dot(table)
    rhs = theta.dot(table.transpose(1, 0, 2)).transpose(1, 0, 2)
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True, eq=False)
class ExpectationTrajectory:
    """Expected measures on the sites ``sites`` over a time grid, one block
    per partition of them: sampling measures from :func:`expected_sampling`,
    LDE measures from :func:`lde_trajectory`.

    ``values[i, j]`` belongs to ``times[i]`` and ``partitions[j]``; the
    partitions follow ``enumerate_partitions(sites)`` (lattice order),
    restricted to those with at most ``N`` blocks for sampling measures.
    """

    times: np.ndarray
    sites: tuple[int, ...]
    partitions: tuple[Partition, ...]
    cards: tuple[int, ...]
    values: np.ndarray  # (times, partitions, types on the sites)


_EPS = float(np.finfo(float).eps)


def _solve(backward: BackwardModel, m: Measure, N: int, times) -> tuple[np.ndarray, np.ndarray]:
    """The sorted grid and the values of :func:`expected_sampling` for the
    counting measure ``m`` of ``N`` individuals, whose ``k``-th site is site
    ``k`` of ``backward``: (time, partition with at most ``N`` blocks in
    lattice order, type).  No partition is built."""
    from scipy.linalg import expm

    t = assert_sorted_times(times)
    if N != backward.N:
        raise ValueError(f"population holds {N} individuals, model expects {backward.N}")
    if backward.variant != "finite":
        raise ValueError("expected_sampling needs the finite variant")
    keep = np.flatnonzero(lattice(backward.n).sizes <= backward.N)
    G = generator_theta_dense(backward)[np.ix_(keep, keep)]
    y = sampling_stack(m, N)
    values = np.empty((t.size, keep.size, y.shape[1]))
    step, E, prev = None, None, 0.0
    for i, ti in enumerate(t.tolist()):
        h = ti - prev
        if h != 0:
            if step is None or abs(h - step) > 4 * _EPS * ti:
                step, E = h, expm(G * h)
            y = E @ y
        values[i] = y
        prev = ti
    return t, values


def expected_sampling(backward: BackwardModel, z0: PopulationState,
                      times) -> ExpectationTrajectory:
    """Expected sampling measures of the evolving population, all partitions.

    Solves the closed linear ODE with the partitioning generator acting on
    the initial sampling stack, stepping along the sorted grid from time 0:
    ``y_i = expm(G h_i) @ y_{i-1}`` with ``h_i = t_i - t_{i-1}``.  The
    exponential ``E = expm(G h)`` of the last step ``h`` taken is reused
    while ``|h_i - h| <= 4 eps t_i`` (``eps`` the float64 machine epsilon)
    and recomputed otherwise.  Each grid time is known only to within half
    an ulp, and ``ulp(t) <= eps t``, so steps that agree within this bound
    cannot be told apart from the grid and reusing ``E`` adds no error
    beyond what the grid already carries: ``linspace(0, 2, 11)``, whose
    steps differ in the last bit, needs one exponential, while a grid of
    really different steps needs one per distinct step.  The model must be
    finite.  The trajectory is returned for every partition with at most
    ``N`` blocks.  Those partitions are closed under the partitioning
    process, so the generator restricted to them is exact.
    """
    t, values = _solve(backward, z0.measure, z0.N, times)
    partitions = [p for p in enumerate_partitions(backward.sites) if len(p) <= backward.N]
    return ExpectationTrajectory(t, backward.sites, tuple(partitions), z0.measure.cards, values)


def _lde_scales(L: Lattice, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``N**|b|`` and ``(N)_|b|`` over the partitions of ``L``."""
    return np.power(float(N), L.sizes), np.array([math.perm(N, k) for k in L.sizes], dtype=float)


def _mobius_zeta(L: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The Mobius matrix of ``L`` and its inverse, the zeta matrix (its nonzero pattern), dense."""
    M = L.mobius.toarray()
    return M, (M != 0).astype(float)


@lru_cache(maxsize=8)
def lde_transform(k: int, N: int) -> np.ndarray:
    """Matrix turning a stack of sampling expectations into LDE expectations.

    Over the partitions of ``k`` sites, rows and columns in lattice order:
    ``T[a, c] = sum over common refinements b of a and c of
    (N)_|c| / N**|b| * mobius(b, a)``, that is
    ``T = M^T diag(N**-|b|) Z diag((N)_|c|)`` with ``M`` the Mobius and
    ``Z`` the zeta matrix, ``M^T`` a :class:`GeneratorMatrix` of the transposed
    entries of :attr:`Lattice.mobius` and ``Z`` dense.  Columns with ``|c| > N``
    are zero.  The result is cached per ``(k, N)`` (the last 8) and read-only.
    """
    L = lattice(k)
    M = L.mobius
    power, falling = _lde_scales(L, N)
    Mt = GeneratorMatrix(M.n, M.indices, np.repeat(np.arange(M.n), np.diff(M.indptr)), M.data)
    T = Mt.dot(_mobius_zeta(L)[1] / power[:, None]) * falling[None, :]
    T.flags.writeable = False
    return T


def _lde_transform_inverse(k: int, N: int) -> np.ndarray:
    """Closed-form inverse of :func:`lde_transform` for ``N >= k``, each factor
    inverted (``Z^-1 = M``): ``diag(1 / (N)_|a|) M diag(N**|b|) Z^T``."""
    L = lattice(k)
    M, Z = _mobius_zeta(L)
    power, falling = _lde_scales(L, N)
    return (M / falling[:, None] * power[None, :]) @ Z.T


def lde_transform_diffusion(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Large-N limit of :func:`lde_transform` and its exact inverse.

    The limit is the Mobius matrix from below; its inverse is the
    refinement indicator (inversion from below).
    """
    M, Z = _mobius_zeta(lattice(k))
    # C order: BLAS may sum the products of a transposed view in another order
    return M.T.copy(), Z.T.copy()


def lde_trajectory(backward: BackwardModel, z0: PopulationState, u,
                   times) -> ExpectationTrajectory:
    """Expected linkage disequilibria on the sites ``u`` over a time grid.

    The sites of ``u`` evolve as a Moran model of their own, with the
    recombination law :meth:`RecombinationDistribution.marginal`: the
    expected sampling measures of the ``u``-marginal population are solved
    on the Bell(|u|) lattice of ``u``, mapped by :func:`lde_transform` and
    relabelled to the sites of ``u``.  Only ``|u|`` is capped, not ``n``.
    """
    if backward.variant != "finite":
        raise ValueError("lde_trajectory needs the finite variant")
    if z0.measure.sites != backward.sites:
        raise ValueError(f"population covers sites {z0.measure.sites}, model 1..{backward.n}")
    u = site_set(u)
    sub = BackwardModel(len(u), backward.N, backward.recomb.marginal(u))
    zu = marginalize(z0.measure, u)
    t, values = _solve(sub, zu, z0.N, times)
    # columns with more than N blocks are zero and absent from the solve
    T = lde_transform(sub.n, sub.N)[:, lattice(sub.n).sizes <= sub.N]
    return ExpectationTrajectory(t, u, tuple(enumerate_partitions(u)), zu.cards, T @ values)


@dataclass(frozen=True, eq=False)
class LdeTransform:
    """Conjugation of the 3-site partitioning generator into LDE coordinates.

    ``order`` fixes the partition indexing of every matrix here: whole set
    first, then the split after site 1, the split after site 2, the
    non-contiguous pair, and the all-singletons partition last.
    ``conjugated = T @ theta @ Tinv`` is lower triangular; ``Vinv`` holds
    left eigenvectors so that ``Vinv @ conjugated = D @ Vinv``.
    """

    order: tuple[Partition, ...]
    theta: np.ndarray
    T: np.ndarray
    Tinv: np.ndarray
    conjugated: np.ndarray
    D: np.ndarray
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None


def three_site_order() -> tuple[Partition, ...]:
    """Display order for 3-site reports (see :class:`LdeTransform`)."""
    return tuple(parse_partition(s) for s in
                 ("1,2,3", "1|2,3", "1,2|3", "1,3|2", "1|2|3"))


def lde_conjugation_3site(backward: BackwardModel) -> LdeTransform:
    """Triangularize the 3-site generator in LDE coordinates.

    For the finite variant the transform carries the population size; in
    the diffusion variant it degenerates to the Mobius matrix and the left
    eigenvector matrix has a closed form.  Eigen data is computed
    numerically in both cases; the deterministic variant is rejected.
    """
    from scipy.linalg import eig, inv

    if backward.n != 3:
        raise ShapeError("this conjugation is specific to 3 sites")
    if backward.variant == "deterministic":
        raise ValueError("lde_conjugation_3site needs the finite or diffusion variant")
    order = three_site_order()
    if backward.variant == "diffusion":
        T, Tinv = lde_transform_diffusion(3)
    else:
        if backward.N < 3:
            raise SampleTooLargeError("the finite 3-site transform needs N >= 3")
        T, Tinv = lde_transform(3, backward.N), _lde_transform_inverse(3, backward.N)
    # from lattice order to the display order
    lattice_order = enumerate_partitions((1, 2, 3))
    idx = [lattice_order.index(p) for p in order]
    perm = np.ix_(idx, idx)
    theta, T, Tinv = generator_theta_dense(backward)[perm], T[perm], Tinv[perm]
    A = T @ theta @ Tinv
    D = np.diag(np.diag(A))
    evals, V = eig(A)
    # order eigenvectors to match the diagonal of A
    cols = []
    used: set[int] = set()
    for d in np.diag(A):
        k = min((i for i in range(len(evals)) if i not in used),
                key=lambda i: abs(evals[i] - d))
        used.add(k)
        cols.append(k)
    V = np.real_if_close(V[:, cols])
    Vinv = inv(V)
    return LdeTransform(order, theta, T, Tinv, A, D, V, Vinv)


def fixation_2site(model: ForwardModel, z0: PopulationState) -> Measure:
    """Long-run absorption distribution for two sites.

    A convex mixture of the initial type frequencies and the distribution
    of a leading/trailing splice drawn without replacement, with weights
    set by the relative intensities of resampling and recombination.
    """
    if model.space.n != 2:
        raise ShapeError("fixation formula is specific to 2 sites")
    if z0.N != model.N:
        raise ValueError(f"population holds {z0.N} individuals, model expects {model.N}")
    r = model.recomb.crossover[0]
    N = model.N
    w_res = 2.0 / (2.0 + r * (N - 1))
    w_rec = r * (N - 1) / (2.0 + r * (N - 1))
    h0 = sampling(finest(model.space.sites), z0.measure)
    weights = w_res * z0.counts / N + w_rec * h0.weights
    return Measure(z0.measure.sites, z0.measure.cards, weights)
