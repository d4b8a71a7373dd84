import numpy as np
import pytest
from scipy import stats

from moranrec import (
    BackwardModel,
    DiffusionRates,
    InvalidInitialError,
    Partition,
    RecombinationDistribution,
    coarsest,
    enumerate_partitions,
    finest,
    generator_theta,
    parse_partition,
    simulate_backward,
)
from moranrec import backward
from moranrec.backward import generator_to_csv, partition_trajectory_to_csv

import oracles
from oracles import (
    _falling_weight,
    drop_block,
    marginal_recomb_prob,
    ordered_partitions_le2,
    refines,
    restrict,
    theta_rate,
    transition_rates,
)
from util import (
    THREE_SITE_ORDER,
    generator_from_csv,
    is_ordered,
    partition_events_from_csv,
    permuted_generator,
    random_recomb,
    theta_closed_form_3site,
    theta_entry,
)

P = parse_partition


class TestThetaRate:
    def test_silent_whole_block_rate(self):
        r = RecombinationDistribution(3, (0.1, 0.25))
        model = BackwardModel(3, 5, r)
        a = P("1|2,3")
        jj = coarsest([1])
        # block {1} stays whole and picks an empty parent: r_one * (N-m+1)/N
        assert theta_rate(model, 0, jj, a, a) == pytest.approx(1.0 * (5 - 1) / 5)
        jj2 = coarsest([2, 3])
        r_one = marginal_recomb_prob(r, (2, 3), jj2)
        assert theta_rate(model, 1, jj2, a, a) == pytest.approx(r_one * (5 - 1) / 5)

    def test_transition_above_population_size_impossible(self):
        r = RecombinationDistribution(3, (0.1, 0.25))
        model = BackwardModel(3, 2, r)
        a = P("1|2,3")
        jj = P("2|3")
        assert theta_rate(model, 1, jj, a, finest([1, 2, 3])) == 0.0
        gen = generator_theta(model)
        assert theta_entry(gen, a, finest([1, 2, 3])) == 0.0

    def test_condition_mismatch_is_zero(self):
        r = RecombinationDistribution(3, (0.1, 0.25))
        model = BackwardModel(3, 5, r)
        # splitting block {2,3} cannot move site 1 anywhere
        assert theta_rate(model, 1, P("2|3"), P("1|2,3"), P("1,2,3")) > 0
        assert theta_rate(model, 0, coarsest([1]), P("1|2,3"), P("1|2|3")) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_sum_identity(self, n):
        # over all admissible targets the falling-factorial weights add up
        # to N to the number of fragments
        sites = tuple(range(1, n + 1))
        parts = enumerate_partitions(sites)
        for N in (4, 7, 12):
            for a in parts:
                m = len(a)
                if m > N:
                    continue
                for j, block in enumerate(a.blocks):
                    rest = drop_block(a, j)
                    for jj in ordered_partitions_le2(block):
                        total = 0.0
                        for b in parts:
                            if restrict(b, rest.ground) != rest:
                                continue
                            if not refines(jj, restrict(b, block)):
                                continue
                            total += _falling_weight(N, m, len(b))
                        assert total == pytest.approx(float(N ** len(jj)))


class TestGeneratorTheta:
    def test_two_site_closed_form_matrix(self):
        for N, r in [(3, 0.25), (5, 0.2), (10, 0.8)]:
            gen = generator_theta(BackwardModel(2, N, RecombinationDistribution(2, (r,))))
            got = permuted_generator(gen, [P("1,2"), P("1|2")])
            expected = np.array([[-r * (N - 1) / N, r * (N - 1) / N],
                                 [2 / N, -2 / N]])
            assert np.allclose(got, expected, rtol=1e-14, atol=1e-16)

    def test_three_site_closed_form_matrix(self):
        for N in (3, 10, 100):
            for r1, r2 in [(0.1, 0.25), (0.3, 0.2), (0.05, 0.6)]:
                gen = generator_theta(
                    BackwardModel(3, N, RecombinationDistribution(3, (r1, r2))))
                got = permuted_generator(gen, THREE_SITE_ORDER)
                assert np.allclose(got, theta_closed_form_3site(N, r1, r2),
                                   rtol=1e-12, atol=1e-15)

    def test_singletons_row_three_site(self):
        N = 7
        gen = generator_theta(BackwardModel(3, N, RecombinationDistribution(3, (0.3, 0.1))))
        row = permuted_generator(gen, THREE_SITE_ORDER)[4]
        assert np.allclose(row, [0, 2 / N, 2 / N, 2 / N, -6 / N])

    @pytest.mark.parametrize("n,N", [(2, 3), (3, 5), (4, 10), (5, 3)])
    def test_rows_sum_to_zero(self, n, N):
        gen = generator_theta(BackwardModel(n, N, random_recomb(n, seed=n + N)))
        assert np.allclose(gen.matrix.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("N", [3, 5, 10])
    def test_all_variants_rows_sum_to_zero(self, n, N):
        r = random_recomb(n, seed=3 * n + N)
        rho = DiffusionRates(n, tuple(np.linspace(0.5, 2.0, n - 1)))
        for variant in ("finite", "deterministic", "diffusion"):
            gen = generator_theta(BackwardModel(n, N, r, variant, rho))
            assert np.allclose(gen.matrix.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constructive_matches_direct_rate_scan(self, n):
        # generator assembled from successor enumeration equals the row-by-row
        # double loop over the closed-form transition rate
        N = 5
        model = BackwardModel(n, N, random_recomb(n, seed=17 + n))
        gen = generator_theta(model)
        parts = enumerate_partitions(model.sites)
        for ai, a in enumerate(parts):
            if len(a) > N:
                continue
            for bi, b in enumerate(parts):
                if ai == bi:
                    continue
                total = 0.0
                for j, block in enumerate(a.blocks):
                    for jj in ordered_partitions_le2(block):
                        total += theta_rate(model, j, jj, a, b)
                assert gen.matrix[ai, bi] == pytest.approx(total, abs=1e-14)

    def test_pure_coalescence_rate_identity(self):
        # merging blocks j and k happens at 2/N^2 plus (N-1)/N^2 times the
        # two stay-whole marginals, however the merge is reached
        n, N = 4, 6
        r = random_recomb(n, seed=5)
        model = BackwardModel(n, N, r)
        gen = generator_theta(model)
        for a in enumerate_partitions(model.sites):
            m = len(a)
            if m < 2 or m > N:
                continue
            for j in range(m):
                for k in range(j + 1, m):
                    blocks = [blk for i, blk in enumerate(a.blocks) if i not in (j, k)]
                    blocks.append(tuple(sorted(a.blocks[j] + a.blocks[k])))
                    b = Partition(tuple(blocks))
                    r1j = marginal_recomb_prob(r, a.blocks[j], coarsest(a.blocks[j]))
                    r1k = marginal_recomb_prob(r, a.blocks[k], coarsest(a.blocks[k]))
                    expected = 2 / N**2 + (N - 1) / N**2 * (r1j + r1k)
                    assert theta_entry(gen, a, b) == pytest.approx(expected, abs=1e-14)

    def test_transitions_above_population_size_zero(self):
        model = BackwardModel(3, 2, RecombinationDistribution(3, (0.2, 0.3)))
        G = generator_theta(model).matrix.toarray()
        parts = enumerate_partitions(model.sites)
        for ai, a in enumerate(parts):
            for bi, b in enumerate(parts):
                if len(b) > 2 and a != b:
                    assert G[ai, bi] == 0.0


class TestGeneratorDet:
    def test_finest_row_is_zero(self):
        gen = generator_theta(BackwardModel(3, 10, RecombinationDistribution(3, (0.2, 0.3)),
                                          "deterministic"))
        finest_row = enumerate_partitions([1, 2, 3]).index(finest([1, 2, 3]))
        assert np.allclose(gen.matrix.toarray()[finest_row], 0.0)

    def test_two_site_split_rate(self):
        r = 0.35
        gen = generator_theta(BackwardModel(2, 50, RecombinationDistribution(2, (r,)),
                                          "deterministic"))
        assert theta_entry(gen, coarsest([1, 2]), finest([1, 2])) == pytest.approx(r)

    def test_pure_splitting_structure(self):
        G = generator_theta(BackwardModel(4, 10, random_recomb(4, seed=9),
                                          "deterministic")).matrix.toarray()
        parts = enumerate_partitions([1, 2, 3, 4])
        for ai, a in enumerate(parts):
            for bi, b in enumerate(parts):
                if a != b and G[ai, bi] != 0.0:
                    assert refines(b, a) and len(b) == len(a) + 1

    def test_large_population_convergence_order(self):
        r = RecombinationDistribution(3, (0.3, 0.2))
        det = generator_theta(BackwardModel(3, 10, r, "deterministic")).matrix
        dists = []
        for N in (10, 100, 1000):
            fin = generator_theta(BackwardModel(3, N, r)).matrix
            dists.append(np.abs(fin - det).max())
        ratios = [dists[i] / dists[i + 1] for i in range(2)]
        assert all(7 < q < 13 for q in ratios)  # distance shrinks like 1/N


class TestGeneratorDiff:
    def test_two_site_matrix(self):
        rho = 1.7
        gen = generator_theta(
            BackwardModel(2, 10, None, "diffusion", DiffusionRates(2, (rho,))))
        got = permuted_generator(gen, [P("1,2"), P("1|2")])
        assert np.allclose(got, [[-rho, rho], [2, -2]])

    def test_no_mixed_transitions(self):
        r = RecombinationDistribution(3, (0.2, 0.3))
        fin = generator_theta(BackwardModel(3, 8, r))
        dif = generator_theta(
            BackwardModel(3, 8, r, "diffusion", DiffusionRates(3, (1.0, 2.0))))
        a, b = P("1|2,3"), P("1,2|3")
        assert theta_entry(fin, a, b) > 0  # finite N moves a fragment across blocks
        assert theta_entry(dif, a, b) == 0.0
        D = dif.matrix.toarray()
        parts = enumerate_partitions([1, 2, 3])
        for xi, x in enumerate(parts):
            for yi, y in enumerate(parts):
                if x == y or D[xi, yi] == 0.0:
                    continue
                pure_split = refines(y, x) and len(y) == len(x) + 1
                pure_merge = refines(x, y) and len(y) == len(x) - 1
                assert pure_split or pure_merge

    def test_coalescence_rate_two(self):
        dif = generator_theta(
            BackwardModel(3, 8, None, "diffusion", DiffusionRates(3, (1.0, 2.0))))
        assert theta_entry(dif, P("1|2|3"), P("1,2|3")) == 2.0
        assert theta_entry(dif, P("1|2,3"), P("1,2,3")) == 2.0

    def test_rescaled_convergence(self):
        rho = DiffusionRates(3, (1.5, 2.5))
        dif = generator_theta(BackwardModel(3, 10, None, "diffusion", rho)).matrix
        dists = []
        for N in (10, 100, 1000):
            r = RecombinationDistribution(3, tuple(x / N for x in rho.rho))
            fin = generator_theta(BackwardModel(3, N, r)).matrix
            dists.append(np.abs(N * fin - dif).max())
        assert dists[2] < dists[1] < dists[0]


class TestSimulateBackward:
    def test_invalid_initial(self):
        model = BackwardModel(3, 2, RecombinationDistribution(3, (0.2, 0.3)))
        with pytest.raises(InvalidInitialError):
            simulate_backward(model, finest([1, 2, 3]), 1.0, seed=0)
        with pytest.raises(InvalidInitialError):
            simulate_backward(model, P("1,2"), 1.0, seed=0)

    def test_block_count_bounded_by_population(self):
        model = BackwardModel(3, 3, RecombinationDistribution(3, (0.4, 0.4)))
        for rep in range(20):
            rec = simulate_backward(model, coarsest([1, 2, 3]), 5.0, seed=13,
                                    replicate=rep)
            for _, p in rec.events:
                assert len(p) <= 3

    def test_bit_reproducible(self):
        model = BackwardModel(3, 6, RecombinationDistribution(3, (0.3, 0.2)))
        a = simulate_backward(model, coarsest([1, 2, 3]), 4.0, seed=21, replicate=2)
        b = simulate_backward(model, coarsest([1, 2, 3]), 4.0, seed=21, replicate=2)
        assert a.events == b.events

    def test_singletons_only_coalesce(self):
        model = BackwardModel(3, 9, RecombinationDistribution(3, (0.4, 0.4)))
        rec = simulate_backward(model, finest([1, 2, 3]), 2.0, seed=8)
        prev = finest([1, 2, 3])
        if rec.events:
            t0, first = rec.events[0]
            assert refines(prev, first) and len(first) < 3

    def test_deterministic_paths_refine_monotonically(self):
        model = BackwardModel(4, 10, RecombinationDistribution(4, (0.2, 0.2, 0.2)),
                              "deterministic")
        for rep in range(25):
            rec = simulate_backward(model, coarsest([1, 2, 3, 4]), 60.0, seed=5,
                                    replicate=rep)
            prev = rec.initial
            for _, p in rec.events:
                assert refines(p, prev) and p != prev
                prev = p
            assert prev == finest([1, 2, 3, 4])  # long horizon: fully refined
            for _, p in rec.events:
                assert is_ordered(p, within=(1, 2, 3, 4))

    def test_deterministic_from_singletons_constant(self):
        model = BackwardModel(3, 10, RecombinationDistribution(3, (0.3, 0.3)),
                              "deterministic")
        rec = simulate_backward(model, finest([1, 2, 3]), 100.0, seed=1)
        assert rec.events == ()

    def test_diffusion_never_mixes_split_and_merge(self):
        model = BackwardModel(3, 10, None, "diffusion", DiffusionRates(3, (1.5, 2.5)))
        for rep in range(25):
            rec = simulate_backward(model, coarsest([1, 2, 3]), 3.0, seed=3,
                                    replicate=rep)
            prev = rec.initial
            for _, p in rec.events:
                split = refines(p, prev) and len(p) == len(prev) + 1
                merge = refines(prev, p) and len(p) == len(prev) - 1
                assert split or merge
                prev = p

    @pytest.mark.parametrize("variant, start", [
        ("finite", "1|2,3"),
        ("deterministic", "1,2,3"),
        ("diffusion", "1|2,3"),
    ], ids=["finite", "deterministic", "diffusion"])
    def test_first_jump_law_matches_generator(self, variant, start):
        # chi-square of the embedded jump chain against the generator row,
        # plus the mean holding time
        model = BackwardModel(3, 5, RecombinationDistribution(3, (0.25, 0.15)), variant,
                              DiffusionRates(3, (0.8, 1.3)))
        start = P(start)
        parts = enumerate_partitions(model.sites)
        row = generator_theta(model).matrix.toarray()[parts.index(start)].copy()
        row[parts.index(start)] = 0.0
        total_rate = row.sum()
        reps = 4000
        # only the first event is read; at seed 314 the latest of the 4000
        # first jumps comes at 8.2 mean holding times in every variant
        horizon = 12.0 / total_rate
        counts = np.zeros(len(parts))
        holds = np.empty(reps)
        for rep in range(reps):
            rec = simulate_backward(model, start, horizon, seed=314, replicate=rep)
            t, p = rec.events[0]
            counts[parts.index(p)] += 1
            holds[rep] = t
        expected = reps * row / total_rate
        mask = expected > 0
        assert counts[~mask].sum() == 0
        chi = stats.chisquare(counts[mask], expected[mask])
        assert chi.pvalue > 1e-3
        # holding time is exponential with rate equal to the row sum
        se = holds.std(ddof=1) / np.sqrt(reps)
        assert abs(holds.mean() - 1.0 / total_rate) < 4 * se


class TestTransitionRatesHelper:
    def test_matches_generator_row(self):
        # the dict-of-rates oracle against the lattice generator, row by row
        r = RecombinationDistribution(3, (0.2, 0.25))
        rho = DiffusionRates(3, (0.8, 1.3))
        for variant in ("finite", "deterministic", "diffusion"):
            model = BackwardModel(3, 6, r, variant, rho)
            G = generator_theta(model).matrix.toarray()
            parts = enumerate_partitions(model.sites)
            for ai, a in enumerate(parts):
                rates = transition_rates(model, a)
                for bi, b in enumerate(parts):
                    if a == b:
                        continue
                    assert rates.get(b, 0.0) == pytest.approx(G[ai, bi], abs=1e-15)


class TestPartitionCsv:
    def test_round_trip(self):
        model = BackwardModel(3, 6, RecombinationDistribution(3, (0.3, 0.2)))
        rec = simulate_backward(model, coarsest([1, 2, 3]), 4.0, seed=2)
        text = partition_trajectory_to_csv(rec, "stamp")
        back = partition_events_from_csv(text)
        assert back == list(rec.events)

    def test_generator_round_trip(self):
        model = BackwardModel(3, 6, RecombinationDistribution(3, (0.3, 0.2)))
        gen = generator_theta(model)
        parts = enumerate_partitions(model.sites)
        labels, dense = generator_from_csv(generator_to_csv(gen, parts, "stamp"))
        assert labels == parts
        assert np.array_equal(dense, gen.matrix.toarray())

    @pytest.mark.parametrize("chunk", [2**13, 160])  # 160: rows of 52 in threes, then one
    @pytest.mark.parametrize("variant", ["finite", "deterministic", "diffusion"])
    @pytest.mark.parametrize("n,N", [(3, 7), (5, 13)])
    def test_generator_csv_matches_f_string_oracle(self, monkeypatch, n, N, variant, chunk):
        monkeypatch.setattr(backward, "FORMAT_CHUNK", chunk)
        rho = DiffusionRates(n, tuple(np.random.default_rng(n).uniform(0.01, 3.0, n - 1)))
        model = BackwardModel(n, N, random_recomb(n, seed=n), variant, rho)
        gen = generator_theta(model)
        parts = enumerate_partitions(model.sites)
        values = gen.toarray()
        assert (values == 0).any() and ((np.abs(values) >= 1e-4) & (np.abs(values) < 1)).any()
        assert generator_to_csv(gen, parts, "stamp") == oracles.generator_to_csv(gen, parts,
                                                                                   "stamp")
