import math
from itertools import combinations

import numpy as np
import pytest

from moranrec import (
    EMPTY,
    Measure,
    Partition,
    PopulationState,
    RecombinationDistribution,
    SampleTooLargeError,
    SiteSpace,
    SizeCapError,
    ZeroMeasureError,
    coarsest,
    encode_type,
    enumerate_partitions,
    finest,
    lde_operator,
    marginalize,
    parse_partition,
    recombinator_bar,
    sampling,
    sampling_bar,
)

from oracles import (
    lde_from_sampling,
    meet,
    recombinator,
    refines,
    restrict,
    sampling_oracle,
    tensor_site_ordered,
)
from util import binary_space, random_measure, random_population, random_recomb

P = parse_partition


class TestRecombinationDistribution:
    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            RecombinationDistribution(3, (0.7, 0.4))
        with pytest.raises(ValueError):
            RecombinationDistribution(3, (-0.1, 0.2))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                RecombinationDistribution(3, (bad, 0.2))
        with pytest.raises(ValueError):
            RecombinationDistribution(3, (0.1,))

    def test_prob(self):
        r = RecombinationDistribution(3, (0.1, 0.25))
        assert r.r_whole == pytest.approx(0.65)
        prob = {Partition(blocks): r for blocks, r in r.support()}
        assert prob[P("1,2,3")] == pytest.approx(0.65)
        assert prob[P("1|2,3")] == 0.1
        assert prob[P("1,2|3")] == 0.25
        assert P("1,3|2") not in prob


class TestMarginalRecombProb:
    """``RecombinationDistribution.marginal(u)``, relabelled to sites ``1..|u|``."""

    def test_single_site_is_one(self):
        r = random_recomb(4, seed=0)
        assert dict(r.marginal((2,)).support())[coarsest([1]).blocks] == pytest.approx(1.0)

    def test_trapped_material_sums_three_cuts(self):
        r = RecombinationDistribution(5, (0.1, 0.05, 0.2, 0.15))
        got = dict(r.marginal([1, 4, 5]).support())[P("1|2,3").blocks]
        assert got == pytest.approx(0.1 + 0.05 + 0.2)

    def test_full_set_is_identity(self):
        r = RecombinationDistribution(4, (0.1, 0.2, 0.3))
        assert dict(r.marginal([1, 2, 3, 4]).support())[P("1,2|3,4").blocks] == pytest.approx(0.2)

    def test_marginals_sum_to_one(self):
        from oracles import ordered_partitions_le2

        r = random_recomb(5, seed=3)
        for u in [(1, 3), (2, 4, 5), (1, 2, 3, 4, 5), (3,)]:
            sub = r.marginal(u)
            prob = dict(sub.support())
            total = sum(prob[b.blocks] for b in ordered_partitions_le2(sub.sites))
            assert total == pytest.approx(1.0)

    def test_rejects_unordered(self):
        r = random_recomb(3, seed=4)
        assert P("1,3|2").blocks not in dict(r.marginal([1, 2, 3]).support())


class TestRecombinator:
    def test_whole_set_fixed_point(self):
        m = random_measure(binary_space(3), seed=5)
        assert recombinator_bar(coarsest([1, 2, 3]), m) is m

    def test_example_counts(self):
        z = PopulationState.from_counts(binary_space(2), [2, 0, 0, 1])
        bar = recombinator_bar(finest([1, 2]), z.measure)
        assert np.array_equal(bar.weights, [4, 2, 2, 1])
        norm = recombinator(finest([1, 2]), z.measure)
        assert np.allclose(norm.weights, np.array([4, 2, 2, 1]) / 9)

    def test_norm_power_law(self):
        sp = SiteSpace((2, 3, 2, 2))
        m = random_measure(sp, seed=6)
        for a in enumerate_partitions(sp.sites):
            assert recombinator_bar(a, m).norm == pytest.approx(m.norm ** len(a))

    def test_normalized_whole(self):
        m = random_measure(binary_space(2), seed=7)
        got = recombinator(coarsest([1, 2]), m)
        assert np.allclose(got.weights, m.weights / m.norm)

    def test_zero_measure_rejected(self):
        m = Measure((1, 2), (2, 2), np.zeros(4))
        with pytest.raises(ZeroMeasureError):
            recombinator(finest([1, 2]), m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_composition_meets(self, n):
        sp = binary_space(n)
        m = random_measure(sp, seed=10 + n)
        parts = enumerate_partitions(sp.sites)
        for a in parts:
            for b in parts:
                lhs = recombinator(a, recombinator(b, m))
                rhs = recombinator(meet(a, b), m)
                assert np.allclose(lhs.weights, rhs.weights, atol=1e-12)

    def test_projection_compatibility(self):
        sp = SiteSpace((2, 2, 3))
        m = random_measure(sp, seed=20)
        for a in enumerate_partitions(sp.sites):
            for k in (1, 2):
                for u in combinations(sp.sites, k):
                    lhs = marginalize(recombinator(a, m), u)
                    rhs = recombinator(restrict(a, u), marginalize(m, u))
                    assert np.allclose(lhs.weights, rhs.weights, atol=1e-12)

    def test_product_over_split(self):
        sp = binary_space(4)
        m = random_measure(sp, seed=21)
        for k in (1, 2, 3):
            for u in combinations(sp.sites, k):
                v = tuple(s for s in sp.sites if s not in u)
                uv = Partition((u, v))
                for a in enumerate_partitions(sp.sites):
                    if not refines(a, uv):
                        continue
                    lhs = recombinator_bar(a, m)
                    rhs = tensor_site_ordered([
                        recombinator_bar(restrict(a, u), marginalize(m, u)),
                        recombinator_bar(restrict(a, v), marginalize(m, v)),
                    ])
                    assert np.allclose(lhs.weights, rhs.weights, atol=1e-9)


class TestSampling:
    def test_example_pair_counts(self):
        z = PopulationState.from_counts(binary_space(2), [2, 0, 0, 1])
        bar = sampling_bar(finest([1, 2]), z.measure)
        assert bar.weights[encode_type(bar.cards, (0, 1))] == 2
        assert bar.norm == 6  # 3 * 2 ordered distinct pairs

    def test_whole_set_returns_population(self):
        z = random_population(binary_space(3), N=5, seed=22)
        bar = sampling_bar(coarsest([1, 2, 3]), z.measure)
        assert np.array_equal(bar.weights, z.counts)

    def test_norm_falling_factorial(self):
        sp = binary_space(3)
        for N in (3, 5, 8):
            z = random_population(sp, N=N, seed=23 + N)
            for a in enumerate_partitions(sp.sites):
                m = len(a)
                expected = math.factorial(N) // math.factorial(N - m)
                assert sampling_bar(a, z.measure).norm == pytest.approx(expected)

    def test_normalized_example(self):
        z = PopulationState.from_counts(binary_space(2), [2, 0, 0, 1])
        h = sampling(finest([1, 2]), z.measure)
        assert h.weights[encode_type(h.cards, (0, 1))] == pytest.approx(1 / 3)
        assert h.norm == pytest.approx(1.0)

    def test_probability_measure_whenever_enough_individuals(self):
        sp = binary_space(3)
        z = random_population(sp, N=4, seed=30)
        for a in enumerate_partitions(sp.sites):
            h = sampling(a, z.measure)
            assert np.all(h.weights >= 0)
            assert h.norm == pytest.approx(1.0)

    def test_sample_too_large(self):
        lone = PopulationState.from_counts(binary_space(2), [1, 0, 0, 0])
        with pytest.raises(SampleTooLargeError):
            sampling(finest([1, 2]), lone.measure)

    def test_oracle_equivalence_spot(self):
        sp = binary_space(3)
        for N in (4, 5):
            for seed in (1, 2, 3):
                z = random_population(sp, N=N, seed=seed)
                for a in enumerate_partitions(sp.sites):
                    assert np.array_equal(sampling_bar(a, z.measure).weights,
                                          sampling_oracle(a, z.measure).weights)

    def test_oracle_is_the_example(self):
        z = PopulationState.from_counts(binary_space(2), [2, 0, 0, 1])
        got = sampling_oracle(finest([1, 2]), z.measure)
        assert np.array_equal(got.weights, [2, 2, 2, 0])

    def test_oracle_cap(self):
        z = random_population(binary_space(2), N=20, seed=31)
        with pytest.raises(SizeCapError):
            sampling_oracle(finest([1, 2]), z.measure)

    def test_more_blocks_than_individuals_gives_zero(self):
        z = PopulationState.from_counts(binary_space(2), [1, 0, 0, 0])
        bar = sampling_bar(finest([1, 2]), z.measure)
        assert np.array_equal(bar.weights, np.zeros(4))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mobius_round_trip(self, n):
        # with-replacement counts decompose exactly over coarser sampling counts
        sp = binary_space(n)
        for N in (4, 8):
            z = random_population(sp, N=N, seed=40 + n + N)
            parts = enumerate_partitions(sp.sites)
            for a in parts:
                rbar = recombinator_bar(a, z.measure).weights
                total = sum(sampling_bar(b, z.measure).weights
                            for b in parts if refines(a, b))
                assert np.array_equal(rbar, total)

    def test_empty_partition_conventions(self):
        z = random_population(binary_space(2), N=6, seed=50)
        scalar = marginalize(z.measure, [])
        assert recombinator_bar(EMPTY, scalar).weights[0] == 6
        assert sampling_bar(EMPTY, scalar).weights[0] == 6
        assert sampling(EMPTY, scalar).weights[0] == 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mixed_product_of_recombinator_and_sampling(n):
    # tensor of a with-replacement factor and a without-replacement factor
    # expands over partitions that restrict exactly to the second factor
    sp = binary_space(n)
    sites = sp.sites
    N = 6
    z = random_population(sp, N=N, seed=60 + n)
    parts = enumerate_partitions(sites)
    for k in range(1, n):
        for u in combinations(sites, k):
            v = tuple(s for s in sites if s not in u)
            zu, zv = marginalize(z.measure, u), marginalize(z.measure, v)
            for a in enumerate_partitions(u):
                for b in enumerate_partitions(v):
                    lhs = tensor_site_ordered([recombinator_bar(a, zu),
                                               sampling_bar(b, zv)])
                    ab = Partition(a.blocks + b.blocks)
                    total = np.zeros(sp.total_states)
                    for c in parts:
                        if refines(ab, c) and restrict(c, v) == b:
                            total += sampling_bar(c, z.measure).weights
                    assert np.array_equal(lhs.weights, total)


class TestLde:
    def test_explicit_two_site_formula(self):
        sp = binary_space(4)
        m = random_measure(sp, seed=70)
        marg = marginalize(m, [2, 4])
        got = lde_operator(coarsest([2, 4]), marg)
        grid = m.as_grid()
        for idx, (x2, x4) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            manual = (grid[:, x2, :, x4].sum() / m.norm
                      - grid[:, x2, :, :].sum() * grid[:, :, :, x4].sum() / m.norm ** 2)
            assert got.weights[idx] == pytest.approx(manual, abs=1e-12)

    def test_independent_product_has_zero_lde(self):
        m1 = Measure((1,), (2,), np.array([2.0, 3.0]))
        m2 = Measure((2,), (2,), np.array([1.0, 4.0]))
        prod = tensor_site_ordered([m1, m2])
        got = lde_operator(coarsest([1, 2]), prod)
        assert np.allclose(got.weights, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_structure_over_blocks(self, n):
        sp = binary_space(n)
        m = random_measure(sp, seed=71 + n)
        for a in enumerate_partitions(sp.sites):
            lhs = lde_operator(a, m)
            rhs = tensor_site_ordered([
                lde_operator(coarsest(blk), marginalize(m, blk)) for blk in a.blocks
            ])
            assert np.allclose(lhs.weights, rhs.weights, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inversion_from_below(self, n):
        sp = binary_space(n)
        m = random_measure(sp, seed=80 + n)
        parts = enumerate_partitions(sp.sites)
        for a in parts:
            total = sum(lde_operator(b, m).weights for b in parts if refines(b, a))
            assert np.allclose(total, recombinator(a, m).weights, atol=1e-9)

    def test_from_sampling_single_site(self):
        z = random_population(binary_space(2), N=5, seed=90)
        got = lde_from_sampling([1], z)
        assert np.allclose(got.weights, marginalize(z.measure, [1]).weights / 5)

    def test_from_sampling_two_site_identity(self):
        # equals (N-1)/N * (whole-sample law minus split-sample law)
        z = random_population(binary_space(2), N=5, seed=91)
        got = lde_from_sampling([1, 2], z)
        h1 = sampling(coarsest([1, 2]), z.measure).weights
        h0 = sampling(finest([1, 2]), z.measure).weights
        assert np.allclose(got.weights, (5 - 1) / 5 * (h1 - h0), atol=1e-12)
        direct = lde_operator(coarsest([1, 2]), z.measure)
        assert np.allclose(got.weights, direct.weights, atol=1e-12)

    def test_from_sampling_three_site_matches_operator(self):
        sp = binary_space(3)
        z = random_population(sp, N=6, seed=92)
        got = lde_from_sampling([1, 2, 3], z)
        direct = lde_operator(coarsest([1, 2, 3]), z.measure)
        assert np.allclose(got.weights, direct.weights, atol=1e-12)

    def test_from_sampling_subset_of_sites(self):
        sp = binary_space(3)
        z = random_population(sp, N=7, seed=93)
        got = lde_from_sampling([1, 3], z)
        direct = lde_operator(coarsest([1, 3]), marginalize(z.measure, [1, 3]))
        assert np.allclose(got.weights, direct.weights, atol=1e-12)

    def test_from_sampling_cap(self):
        z = random_population(binary_space(4), N=6, seed=94)
        with pytest.raises(SizeCapError):
            lde_from_sampling([1, 2, 3, 4], z)

    def test_zero_measure_rejected(self):
        m = Measure((1, 2), (2, 2), np.zeros(4))
        with pytest.raises(ZeroMeasureError):
            lde_operator(coarsest([1, 2]), m)
