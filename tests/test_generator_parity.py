"""The vectorized population generator and duality table against the loop oracles."""

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
from moranrec.backward import VARIANTS, generator_theta_dense
from moranrec.expectations import check_generator_duality, sampling_table
from moranrec.forward import generator_lambda, replacement_distribution
from moranrec.markov import (
    count_population_states,
    enumerate_population_states,
    rank_population_moves,
    rank_population_states,
)

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


@pytest.mark.parametrize("n", range(1, 8))
def test_dense_theta_equals_csr_generator(n):
    # one weighting, two assemblies: bincount sums duplicate moves in row
    # order, scipy in its own sort order, so only the last bits may differ
    probs = list(random_recomb(n, 90 + n).crossover)
    rho = list(np.random.default_rng(n).uniform(0.3, 2.0, n - 1))
    if n >= 3:
        probs[1], rho[1] = 0.0, 0.0
    recomb, rates = RecombinationDistribution(n, tuple(probs)), DiffusionRates(n, tuple(rho))
    for N in sorted({1, max(n - 1, 1), n, n + 3, 20}):
        for variant in VARIANTS:
            m = BackwardModel(n, N, recomb, variant, rates)
            dense, ref = generator_theta_dense(m), generator_theta(m).matrix.toarray()
            assert dense.shape == ref.shape
            if n <= 4:
                assert np.array_equal(dense, ref), (N, variant)
            else:
                scale = np.where(ref == 0.0, 1.0, np.abs(ref))
                assert np.max(np.abs(dense - ref) / scale) <= 1e-15, (N, variant)
