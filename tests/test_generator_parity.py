"""The vectorized population generator and duality table against the loop
oracles, and the numpy CSR arrays and products against scipy's."""

import tracemalloc

import numpy as np
import pytest

from moranrec import (
    BackwardModel,
    DiffusionRates,
    ForwardModel,
    Partition,
    RecombinationDistribution,
    SiteSpace,
    generator_theta,
)
from moranrec import markov
from moranrec.backward import VARIANTS, _theta_entries, generator_theta_dense
from moranrec.expectations import check_generator_duality, sampling_table
from moranrec.forward import _lambda_entries, generator_lambda, replacement_distribution
from moranrec.markov import (
    GeneratorMatrix,
    count_population_states,
    enumerate_population_states,
    rank_population_moves,
    rank_population_states,
)
from moranrec.partitions import lattice

import oracles
from util import random_recomb

CASES = [
    ((1,), ()),
    ((3,), ()),
    ((2, 2), (0.3,)),
    ((2, 2), (0.0,)),
    ((2, 3), (0.45,)),
    ((2, 2, 2), (0.1, 0.25)),
    ((2, 2, 2), (0.0, 0.4)),
    ((2, 2, 2), (0.0, 0.0)),
]


def model(cards, probs, N):
    return ForwardModel(SiteSpace(cards), N, RecombinationDistribution(len(cards), probs))


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("cards, probs", CASES)
def test_generator_lambda_matches_dict_loop(cards, probs, N):
    m = model(cards, probs, N)
    labels, dense = oracles.generator_lambda(m)
    gen = generator_lambda(m)
    assert tuple(enumerate_population_states(m.space.total_states, N)) == labels
    G = gen.matrix.toarray()
    off = ~np.eye(len(labels), dtype=bool)
    assert np.array_equal(G[off], dense[off])
    assert np.abs(np.diag(G) - np.diag(dense)).max() <= 1e-12
    assert gen.matrix.nnz == np.count_nonzero(dense)


@pytest.mark.parametrize("cards, probs, N", [
    ((4, 4), (0.3,), 2),
    ((3, 3, 3), (0.1, 0.2), 2),
    ((6,), (), 3),
    ((5, 2), (0.0,), 1),
])
def test_generator_lambda_matches_dict_loop_many_types(cards, probs, N):
    m = model(cards, probs, N)
    labels, dense = oracles.generator_lambda(m)
    G = generator_lambda(m).matrix.toarray()
    off = ~np.eye(len(labels), dtype=bool)
    assert np.array_equal(G[off], dense[off])
    assert np.abs(np.diag(G) - np.diag(dense)).max() <= 1e-12


@pytest.mark.parametrize("cards, N", [((10, 10, 10), 1), ((10, 10), 2)])
def test_generator_lambda_memory_many_types(cards, N):
    # a dense (states, K, K) rate block would be 8 GB and 404 MB here
    m = model(cards, (0.25,) * (len(cards) - 1), N)
    tracemalloc.start()
    try:
        gen = generator_lambda(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(gen.matrix.sum(axis=1)).max() <= 1e-12
    assert peak < 64 * 2**20


def test_generator_matrix_is_read_only_csr():
    gen = generator_lambda(model((2, 2), (0.3,), 3))
    assert gen.matrix.format == "csr"
    with pytest.raises(ValueError):
        gen.matrix.data[0] = 1.0


@pytest.mark.parametrize("K", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("N", [0, 1, 2, 5, 8])
def test_rank_reproduces_enumeration_order(K, N):
    states = np.array(enumerate_population_states(K, N)).reshape(-1, K)
    assert len(states) == count_population_states(K, N)
    assert np.array_equal(rank_population_states(states, N), np.arange(len(states)))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_enumeration_matches_recursion(K, N):
    assert enumerate_population_states(K, N) == oracles.population_states(K, N)


def test_enumeration_many_types():
    states = enumerate_population_states(1000, 1)
    assert np.array_equal(np.array(states), np.eye(1000, dtype=int))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("N", [1, 2, 5])
def test_rank_of_moves_matches_rank_of_targets(K, N):
    states = np.array(enumerate_population_states(K, N)).reshape(-1, K)
    src, y = (np.repeat(a, K) for a in np.nonzero(states))
    x = np.tile(np.arange(K), src.size // K)
    keep = x != y
    src, y, x = src[keep], y[keep], x[keep]
    targets = states[src]
    targets[np.arange(src.size), y] -= 1
    targets[np.arange(src.size), x] += 1
    assert np.array_equal(rank_population_moves(states, N, src, y, x),
                          rank_population_states(targets, N))


def test_rank_keeps_leading_shape():
    states = np.array(enumerate_population_states(4, 3))
    stacked = states[::-1].reshape(4, 5, 4)
    ranks = rank_population_states(stacked, 3)
    assert ranks.shape == (4, 5)
    assert np.array_equal(ranks.ravel(), np.arange(len(states))[::-1])


@pytest.mark.parametrize("cards, probs", CASES)
def test_batched_replacement_rows_equal_single_calls(cards, probs):
    m = model(cards, probs, 5)
    states = np.array(enumerate_population_states(m.space.total_states, 5))
    batched = replacement_distribution(m, states)
    single = np.array([replacement_distribution(m, s) for s in states])
    assert np.array_equal(batched, single)
    as_floats = states.astype(float)[None]
    assert np.array_equal(replacement_distribution(m, as_floats)[0], single)


@pytest.mark.parametrize("cards, probs", CASES)
def test_replacement_law_equals_head_tail_oracle_bitwise(cards, probs):
    m = model(cards, probs, 5)
    states = np.array(enumerate_population_states(m.space.total_states, 5))
    assert np.array_equal(replacement_distribution(m, states),
                          oracles.replacement_distribution(m, states))


@pytest.mark.parametrize("cards, N", [((2, 2), 2), ((2, 3), 4), ((3, 2), 5), ((2, 2, 2), 3)])
def test_sampling_table_matches_recombinator_bar_contraction(cards, N):
    space = SiteSpace(cards)
    table = sampling_table(space, N)
    assert np.abs(table - oracles.sampling_table_values(space, N)).max() <= 1e-12


def test_duality_check_memory_stays_sparse():
    # the dense 6435 x 6435 population generator alone is 331 MB
    cards, N = (2, 2, 2), 8
    recomb = RecombinationDistribution(3, (0.2, 0.3))
    fwd = ForwardModel(SiteSpace(cards), N, recomb)
    bwd = BackwardModel(3, N, recomb)
    tracemalloc.start()
    try:
        defect = check_generator_duality(fwd, bwd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect <= 1e-10
    assert peak < 64 * 2**20


def test_generators_and_duality_table_build_no_partition(monkeypatch):
    # rows and columns are enumeration indices: no Partition is built on the way
    recomb = RecombinationDistribution(6, (0.1, 0.05, 0.2, 0.1, 0.15))
    rho = DiffusionRates(6, (1.0, 0.5, 2.0, 1.5, 0.25))
    models = [BackwardModel(6, 8, recomb, v, rho)
              for v in ("finite", "deterministic", "diffusion")]
    r3 = RecombinationDistribution(3, (0.2, 0.3))
    space = SiteSpace((2, 2, 2))
    fwd, bwd = ForwardModel(space, 4, r3), BackwardModel(3, 4, r3)
    built = []
    init = Partition.__post_init__

    def counting(self):
        built.append(self.blocks)
        init(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    for m in models:
        generator_theta(m)
    sampling_table(space, 4)
    assert check_generator_duality(fwd, bwd) <= 1e-10
    assert built == []


def theta_models(n):
    """Every variant at several N, with random crossover and one zero gap."""
    probs = list(random_recomb(n, 90 + n).crossover)
    rho = list(np.random.default_rng(n).uniform(0.3, 2.0, n - 1))
    if n >= 3:
        probs[1], rho[1] = 0.0, 0.0
    recomb, rates = RecombinationDistribution(n, tuple(probs)), DiffusionRates(n, tuple(rho))
    return [BackwardModel(n, N, recomb, variant, rates)
            for N in sorted({1, max(n - 1, 1), n, n + 3, 20}) for variant in VARIANTS]


@pytest.mark.parametrize("n", range(1, 8))
def test_dense_theta_equals_csr_generator(n):
    # one weighting, two assemblies, both summing duplicate moves in entry order
    for m in theta_models(n):
        assert np.array_equal(generator_theta_dense(m), generator_theta(m).toarray()), m


def scipy_canonical(n, rows, cols, vals):
    from scipy import sparse

    ref = sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(n, n)))
    ref.sum_duplicates()
    ref.eliminate_zeros()
    return ref


def assert_canonical_csr(gen, entries):
    # scipy sums duplicates in its own order, so only the last bit of a sum may differ
    ref = scipy_canonical(*entries)
    assert np.array_equal(gen.indptr, ref.indptr)
    assert np.array_equal(gen.indices, ref.indices)
    assert np.all(np.abs(gen.data - ref.data) <= 4.3e-16 * np.abs(ref.data))
    assert all(not part.flags.writeable for part in (gen.indptr, gen.indices, gen.data))


@pytest.mark.parametrize("n", range(1, 8))
def test_theta_csr_equals_scipy_canonical(n):
    for m in theta_models(n):
        assert_canonical_csr(generator_theta(m), _theta_entries(m))


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("cards, probs", CASES)
def test_lambda_csr_equals_scipy_canonical(cards, probs, N):
    m = model(cards, probs, N)
    assert_canonical_csr(generator_lambda(m), _lambda_entries(m))


def test_generator_matrix_sums_duplicates_in_entry_order_and_drops_zeros():
    vals = np.array([0.1, 0.2, 0.3, -0.6, 1.0, -1.0, 2.0])
    gen = GeneratorMatrix(3, [0, 0, 0, 0, 2, 2, 1], [2, 2, 2, 0, 1, 1, 0], vals)
    assert gen.indptr.tolist() == [0, 2, 3, 3]  # row 2 sums to zero: empty
    assert gen.indices.tolist() == [0, 2, 0]
    assert gen.data.tolist() == [-0.6, (0.1 + 0.2) + 0.3, 2.0]
    assert np.array_equal(gen.toarray(), np.bincount(
        np.array([0, 0, 0, 0, 2, 2, 1]) * 3 + [2, 2, 2, 0, 1, 1, 0], vals, 9).reshape(3, 3))


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_theta_dot_equals_csr_product(n, monkeypatch):
    monkeypatch.setattr(markov, "DOT_CHUNK", 64)  # many row chunks
    rng = np.random.default_rng(n)
    for m in theta_models(n):
        gen = generator_theta(m)
        for shape in ((), (1,), (3, 5)):
            x = rng.normal(size=(gen.n,) + shape)
            ref = (gen.matrix @ x.reshape(gen.n, -1)).reshape(x.shape)
            assert np.abs(gen.dot(x) - ref).max(initial=0.0) <= 1e-14
            assert np.array_equal(gen.dot(x), ref)  # the same sums in the same order


@pytest.mark.parametrize("cards, probs", CASES)
def test_lambda_dot_equals_csr_product(cards, probs, monkeypatch):
    monkeypatch.setattr(markov, "DOT_CHUNK", 256)
    gen = generator_lambda(model(cards, probs, 5))
    x = sampling_table(SiteSpace(cards), 5)
    ref = (gen.matrix @ x.reshape(gen.n, -1)).reshape(x.shape)
    assert np.array_equal(gen.dot(x), ref)


@pytest.mark.parametrize("k", range(0, 9))
def test_mobius_dot_equals_csr_product_bitwise(k):
    L = lattice(k)
    B = len(L.sizes)
    rng = np.random.default_rng(k)
    for x in (rng.normal(size=(B, 3)), rng.integers(0, 50, size=(B, 2, 4)).astype(float)):
        ref = (L.mobius.matrix @ x.reshape(B, -1)).reshape(x.shape)
        assert np.array_equal(L.mobius.dot(x), ref)
