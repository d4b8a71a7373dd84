"""Exact expectations of sampling measures through the backward generator.

The population process and the partitioning process are intertwined: if
``H`` denotes the table of without-replacement sampling measures (one
probability vector per population state and partition), then the forward
generator applied to ``H`` equals ``H`` contracted against the transpose
of the partitioning generator.  That identity closes the moment hierarchy:
the expectations of all sampling measures solve a linear ODE driven by the
small partition-lattice generator, independently of the type coordinate.

This module verifies the identity exactly, integrates the ODE (on two
sites in closed form; on three or more by the matrix exponential of each
grid step, by the scaling-and-squaring Pade method of :func:`_expm` on
numpy alone, kept only while the solve runs), translates
sampling expectations into expected linkage disequilibria, and evaluates
the closed-form results available for two and three sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .backward import BackwardModel, generator_theta, generator_theta_dense
from .errors import SampleTooLargeError, ShapeError
from .forward import ForwardModel, _population_states, generator_lambda
from .markov import GeneratorMatrix, assert_sorted_times
from .measures import Measure, PopulationState, SiteSpace
from .operators import RecombinationDistribution, _gap_sums, block_products, sampling
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


def sampling_stack(grid: np.ndarray, N: int) -> np.ndarray:
    """Matrix of normalized sampling measures of the counts ``grid`` of ``N``
    individuals (one axis per site, as :meth:`Measure.as_grid`), one row per
    partition of its sites with at most ``N`` blocks, in lattice order."""
    return _sampling_rows(grid[None], N)[:, 0]


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
    ``forward.DEFAULT_POPULATION_CAP`` population states (the check of
    :func:`generator_lambda`) and ``DEFAULT_SITE_CAP`` sites.
    """
    _need_sample(space.n, N)
    states = _population_states(space.total_states, N)
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

# Largest norm (of the scaled matrix, for order 13) that each Pade order
# serves at unit roundoff: Al-Mohy and Higham, "A new scaling and squaring
# algorithm for the matrix exponential" (2009), Algorithm 3.1.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 4.25}


@cache
def _pade_coefficients(m: int) -> list[float]:
    """Coefficients ``b_0..b_m`` of the order-``m`` Pade numerator of ``exp``, ``b_m = 1``."""
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]


def _onenorm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=0).max())


def _ell(absA: np.ndarray, norm: float, m: int, scale: float = 1.0) -> int:
    """Extra squarings that keep the order-``m`` Pade backward error of
    ``scale * A`` at the unit roundoff ``u = 2**-53`` (Al-Mohy and Higham
    2009, eq. (5.1)): ``ceil(log2(alpha / u) / 2m)``, at least 0, with
    ``alpha = |c_{2m+1}| ||absA^(2m+1)||_1 / norm``, ``absA = abs(A)`` and
    ``norm = ||A||_1`` (formed once per exponential).

    ``alpha <= |c_{2m+1}| ||A||_1^(2m)``, so a matrix whose norm keeps that
    bound at ``u / 2`` needs none, and no power is formed.  Otherwise the
    norm of the nonnegative power is exact: the column sums, by ``2m + 1``
    vector-matrix products, each multiplied by ``scale`` (a power of 2, so
    exactly as if ``A`` were) rather than copying ``A``."""
    norm *= scale
    f = math.factorial
    c = float(f(m) ** 2) / (f(2 * m) * f(2 * m + 1))
    if norm <= (2.0**-54 / c) ** (1 / (2 * m)):  # the bound, solved for the norm
        return 0
    sums = np.ones(len(absA))
    for _ in range(2 * m + 1):
        sums = sums @ absA
        if scale != 1.0:
            sums *= scale
    if not sums.max() > 0:
        return 0
    alpha = c * sums.max() / norm
    return max(math.ceil(math.log2(alpha / 2.0**-53) / (2 * m)), 0)


def _add(S: np.ndarray | None, c: float, P: np.ndarray) -> np.ndarray:
    """``S + c P``, summed into ``S`` (a new array if ``S`` is None)."""
    if S is None:
        return c * P
    S += c * P
    return S


@np.errstate(over="ignore", invalid="ignore")
def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of the square float array ``A``, numpy only.

    Scaling and squaring with a Pade approximant of order 3, 5, 7, 9 or 13,
    chosen as in Al-Mohy and Higham (2009, Algorithm 3.1).  The order and
    the scaling ``2**-s`` follow from ``d_k = ||A^k||_1^(1/k)``: exact for
    the powers the approximant forms anyway (``A^2``, ``A^4``, ``A^6``),
    bounded above by products of those for the others, so no power is
    formed only for its norm and no estimate is random.  An ``A`` whose
    powers overflow gives NaN.
    """
    absA = np.abs(A)  # for _ell, which every finite A reaches
    norm = float(absA.sum(axis=0).max())
    A2 = A @ A
    d2 = _onenorm(A2) ** (1 / 2)
    powers = [A2]  # A^2, A^4, ... up to A^(m-1)
    m = 3
    if not (d2 <= _PADE_THETA[3] and _ell(absA, norm, 3) == 0):
        powers.append(A2 @ A2)
        n4 = _onenorm(powers[1])
        m = 5
        if not (max(n4 ** (1 / 4), (n4 * d2**2) ** (1 / 6)) <= _PADE_THETA[5]
                and _ell(absA, norm, 5) == 0):
            powers.append(powers[1] @ A2)
            n6 = _onenorm(powers[2])
            d8 = min(n4 ** (1 / 4), (n6 * d2**2) ** (1 / 8))
            eta = max(n6 ** (1 / 6), d8)
            m = next((k for k in (7, 9) if eta <= _PADE_THETA[k] and _ell(absA, norm, k) == 0), 13)
    if m == 9:
        powers.append(powers[1] @ powers[1])
    s = 0
    if m == 13:
        eta = min(eta, max(d8, (n4 * n6) ** (1 / 10)))
        if not math.isfinite(eta):
            return np.full_like(A, np.nan)
        s = max(math.ceil(math.log2(eta / _PADE_THETA[13])), 0) if eta > 0 else 0
        s += _ell(absA, norm, 13, 2.0**-s)
        for k, P in enumerate(powers, 1):  # A^2k of the scaled A, in place
            P *= 2.0 ** (-2 * k * s)
    del absA  # no _ell call follows: one B x B array less at the peak below
    # U and V are summed one term at a time, the order-13 products first,
    # then the powers from the highest down, each freed once both hold it:
    # at most six B x B arrays live besides A.
    b = _pade_coefficients(m)
    U = V = None
    if m == 13:  # B6 (b13 B6 + b11 B4 + b9 B2), and the same for V
        B2, B4, B6 = powers
        U = B6 @ _add(_add(b[13] * B6, b[11], B4), b[9], B2)
        V = B6 @ _add(_add(b[12] * B6, b[10], B4), b[8], B2)
        del B2, B4, B6
    del A2
    while powers:
        k = 2 * len(powers)  # the last power is A^k
        P = powers.pop()
        U, V = _add(U, b[k + 1], P), _add(V, b[k], P)
        del P
    U.ravel()[:: len(U) + 1] += b[1]  # views: U and V are C-contiguous
    V.ravel()[:: len(V) + 1] += b[0]
    U = A @ U
    if s:
        U *= 2.0**-s  # the scaled A's product: scaling by 2**-s is exact
    Q = V - U
    V += U
    del U
    E = np.linalg.solve(Q, V)
    del Q, V
    for _ in range(s):
        E = E @ E
    return E


@lru_cache(maxsize=4096)
def _small_partitions(u: tuple[int, ...]) -> tuple[Partition, ...]:
    """``enumerate_partitions(u)`` for a set ``u`` of at most 3 sites, kept for the
    last 4096 sets: at most 20,480 partitions, about 5 MiB (250-260 bytes each).
    Larger sets are enumerated per call: their solve costs 3-4 times as much."""
    return tuple(enumerate_partitions(u))


def _pair_rates(r: float, N: int) -> tuple[float, float]:
    """``(a, b)`` of the 2-site generator ``[[-a, a], [b, -b]]`` on ({12}, {1|2}),
    ``a = r (N-1) / N`` and ``b = 2 / N``, rounded as :func:`generator_theta` rounds them."""
    return r / N**2 * (N * (N - 1)), 2 / N


def _solve_pair(r: float, n: np.ndarray, N: int, t: np.ndarray) -> np.ndarray:
    """:func:`_solve` on two sites, in closed form at each time of ``t``.

    With ``(a, b)`` from :func:`_pair_rates`, ``lam = a + b``, ``whole = n / N`` and
    ``split = (rowsums x colsums - n) / (N (N-1))`` for the counts ``n``,
    their common limit ``c = (b whole + a split) / lam`` and ``d = whole - split``:
    ``whole(t) = c + (a / lam) e^(-lam t) d``, ``split(t) = c - (b / lam) e^(-lam t) d``,
    evaluated through ``expm1`` from ``y0``, which they keep exactly at ``t = 0``.
    ``N = 1`` keeps {12} alone, where ``a = 0`` and ``y(t) = y0``.
    """
    whole = n.ravel() * (1 / N)
    # the split rows of one individual are 0 and dropped
    split = (n.sum(axis=1)[:, None] * n.sum(axis=0) - n).ravel() * (1 / max(N * (N - 1), 1))
    a, b = _pair_rates(r, N)
    d = np.expm1(-(a + b) * t)[:, None] * ((whole - split) / (a + b))
    out = np.empty((t.size, 2, whole.size))
    np.add(whole, a * d, out=out[:, 0])
    np.subtract(split, b * d, out=out[:, 1])
    return out[:, :N]


def _solve(backward: BackwardModel, grid: np.ndarray, N: int, times,
           gaps: tuple[float, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The checked grid and the values of :func:`expected_sampling` for the counts
    ``grid`` of ``N`` individuals, one axis per site of ``backward`` or, given
    ``gaps``, of its marginal model with these crossover probabilities: (time,
    partition with at most ``N`` blocks in lattice order, type).  A 2-site model
    takes :func:`_solve_pair`, with no model, lattice, generator or exponential;
    more sites step along the grid.  No partition is built, the generator at most
    once, on the first nonzero step, and one propagator lives at a time: none is
    kept after the solve returns."""
    t = assert_sorted_times(times)
    if N != backward.N:
        raise ValueError(f"population holds {N} individuals, model expects {backward.N}")
    if backward.variant != "finite":
        raise ValueError("expected_sampling needs the finite variant")
    k, gaps = grid.ndim, backward.recomb.crossover if gaps is None else gaps
    if k == 2:
        return t, _solve_pair(gaps[0], grid, N, t)
    if k != backward.n:  # the marginal model, whose generator the steps exponentiate
        backward = BackwardModel(k, N, RecombinationDistribution(k, gaps))
    keep = np.flatnonzero(lattice(backward.n).sizes <= backward.N)
    generator = cache(lambda: generator_theta_dense(backward)[np.ix_(keep, keep)])
    y = sampling_stack(grid, N)
    values = np.empty((t.size, keep.size, y.shape[1]))
    step, E, prev = None, None, 0.0
    for i, ti in enumerate(t.tolist()):
        h = ti - prev
        if h != 0:
            if step is None or abs(h - step) > 4 * _EPS * ti:
                del E  # the last step's propagator goes before the next is formed
                step, E = h, _expm(generator() * h)
            y = E @ y
        values[i] = y
        prev = ti
    return t, values


def expected_sampling(backward: BackwardModel, z0: PopulationState,
                      times) -> ExpectationTrajectory:
    """Expected sampling measures of the evolving population, all partitions.

    Solves the closed linear ODE with the partitioning generator acting on
    the initial sampling stack.  Two sites take its closed form at each time,
    with no stepping or exponential (:func:`_solve_pair`: the rows relax
    to their common limit as ``e^(-lam t)``, ``lam = (r (N-1) + 2) / N``).
    Three or more sites step along the sorted grid from time 0:
    ``y_i = expm(G h_i) @ y_{i-1}`` with ``h_i = t_i - t_{i-1}``.  The
    exponential ``E = expm(G h)`` of the last step ``h`` taken is reused
    while ``|h_i - h| <= 4 eps t_i`` (``eps`` the float64 machine epsilon)
    and recomputed otherwise.  Each grid time is known only to within half
    an ulp, and ``ulp(t) <= eps t``, so steps that agree within this bound
    cannot be told apart from the grid and reusing ``E`` adds no error
    beyond what the grid already carries: ``linspace(0, 2, 11)``, whose
    steps differ in the last bit, needs one exponential, and any other grid
    one per change of step (one per step if its steps alternate).  The
    exponential is :func:`_expm`, on numpy alone.  No exponential is kept
    between calls, so a repeated call, or one on another subset with the
    same marginal model, computes its exponentials again.  The
    model must be finite.  The trajectory is returned for every partition
    with at most ``N`` blocks.  Those partitions are closed under the
    partitioning process, so the generator restricted to them is exact.
    """
    if z0.measure.sites != backward.sites:
        raise ValueError(f"population covers sites {z0.measure.sites}, model 1..{backward.n}")
    t, values = _solve(backward, z0.measure.as_grid(), z0.N, times)
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
    A pair is solved in the closed form of :func:`_solve_pair`, ``r`` the
    marginal crossover probability (the sum over the gaps between its
    sites), so it builds no model, generator or exponential.  The inputs are checked
    once, ``u`` before the grid; up to 3 sites, the partitions come from :func:`_small_partitions`.
    """
    if backward.variant != "finite":
        raise ValueError("lde_trajectory needs the finite variant")
    if z0.measure.sites != backward.sites:
        raise ValueError(f"population covers sites {z0.measure.sites}, model 1..{backward.n}")
    u = site_set(u)
    gaps = _gap_sums(backward.recomb.crossover, u)  # the crossovers of recomb.marginal(u)
    grid = z0.measure.as_grid().sum(axis=tuple(s - 1 for s in backward.sites if s not in u))
    t, values = _solve(backward, grid, z0.N, times, gaps)
    k, N = len(u), backward.N
    # columns with more than N blocks are zero and absent from the solve
    T = lde_transform(k, N) if N >= k else lde_transform(k, N)[:, lattice(k).sizes <= N]
    parts = _small_partitions(u) if k <= 3 else tuple(enumerate_partitions(u))
    return ExpectationTrajectory(t, u, parts, grid.shape, T @ values)


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
    evals, V = np.linalg.eig(A)
    # order eigenvectors to match the diagonal of A
    cols = []
    used: set[int] = set()
    for d in np.diag(A):
        k = min((i for i in range(len(evals)) if i not in used),
                key=lambda i: abs(evals[i] - d))
        used.add(k)
        cols.append(k)
    V = np.real_if_close(V[:, cols])
    Vinv = np.linalg.inv(V)
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
