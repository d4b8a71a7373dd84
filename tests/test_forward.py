import numpy as np
import pytest
from scipy import stats

from moranrec import forward
from moranrec import (
    ForwardModel,
    InvalidInitialError,
    PopulationState,
    RecombinationDistribution,
    SizeCapError,
    coarsest,
    deterministic_step,
    generator_lambda,
    integrate_deterministic,
    measure_from_counts,
    simulate_forward,
)
from moranrec.forward import replacement_distribution, trajectory_to_csv
from moranrec.markov import enumerate_population_states

from oracles import tensor_site_ordered
from util import binary_space, random_measure, trajectory_events_from_csv

SP2 = binary_space(2)


def model2(N: int, r: float) -> ForwardModel:
    return ForwardModel(SP2, N, RecombinationDistribution(2, (r,)))


def rate_lambda(m: ForwardModel, z: PopulationState, y: int, x: int) -> float:
    """Rate of replacing one individual of type ``y`` by one of type ``x``."""
    return replacement_distribution(m, z.counts)[x] * z.counts[y]


class TestRateLambda:
    def test_monomorphic_all_silent(self):
        m = model2(5, 0.7)
        z = PopulationState.from_counts(SP2, [0, 5, 0, 0])
        for y in range(4):
            for x in range(4):
                expected = 5.0 if (x == 1 and y == 1) else 0.0
                assert rate_lambda(m, z, y, x) == pytest.approx(expected)

    def test_recombinant_rate_example(self):
        m = model2(3, 0.5)
        z = PopulationState.from_counts(SP2, [2, 0, 0, 1])
        # replacing the (1,1) individual by the recombinant (0,1)
        assert rate_lambda(m, z, 3, 1) == pytest.approx(1 / 9)

    def test_death_rate_marginal(self):
        m = model2(6, 0.3)
        z = PopulationState.from_counts(SP2, [2, 1, 0, 3])
        for y in range(4):
            total = sum(rate_lambda(m, z, y, x) for x in range(4))
            assert total == pytest.approx(z.counts[y])


class TestGeneratorLambda:
    def test_row_sums_zero(self):
        g = generator_lambda(model2(3, 0.4))
        assert np.allclose(g.matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_monomorphic_rows_absorbing(self):
        g = generator_lambda(model2(3, 0.4))
        for x in range(4):
            state = tuple(3 if i == x else 0 for i in range(4))
            assert np.allclose(g.matrix.toarray()[g.index(state)], 0.0)

    def test_pure_resampling_matches_hand_construction(self):
        # with no crossover the off-diagonal rate is z(y) * z(x) / N
        N = 2
        g = generator_lambda(model2(N, 0.0))
        states = enumerate_population_states(4, N)
        for s in states:
            for t in states:
                if s == t:
                    continue
                diff = np.array(t) - np.array(s)
                if sorted(diff) == [-1, 0, 0, 1]:
                    y = int(np.where(diff == -1)[0][0])
                    x = int(np.where(diff == 1)[0][0])
                    expected = s[y] * s[x] / N
                else:
                    expected = 0.0
                assert g.rate(s, t) == pytest.approx(expected)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(forward, "DEFAULT_POPULATION_CAP", 10)
        with pytest.raises(SizeCapError):
            generator_lambda(model2(3, 0.1))


class TestSimulateForward:
    def test_monomorphic_start_never_changes(self):
        m = model2(6, 0.9)
        z0 = PopulationState.from_counts(SP2, [0, 0, 6, 0])
        rec = simulate_forward(m, z0, 50.0, seed=1)
        assert rec.events == ()
        assert np.array_equal(rec.state_at(np.inf), z0.counts)

    def test_no_recombination_monomorphic_type_survives(self):
        m = model2(4, 0.0)
        z0 = PopulationState.from_counts(SP2, [0, 4, 0, 0])
        rec = simulate_forward(m, z0, 100.0, seed=2)
        assert rec.events == ()

    def test_norm_preserved_at_every_event(self):
        m = model2(8, 0.25)
        z0 = PopulationState.from_counts(SP2, [3, 2, 1, 2])
        rec = simulate_forward(m, z0, 3.0, seed=3)
        z = np.array(rec.initial)
        last_t = 0.0
        for t, y, x in rec.events:
            assert t > last_t
            last_t = t
            z[y] -= 1
            z[x] += 1
            assert z.sum() == 8
            assert (z >= 0).all()

    def test_bit_reproducible(self):
        m = model2(10, 0.2)
        z0 = PopulationState.from_counts(SP2, [4, 2, 1, 3])
        a = simulate_forward(m, z0, 2.0, seed=11, replicate=5)
        b = simulate_forward(m, z0, 2.0, seed=11, replicate=5)
        assert a.events == b.events
        c = simulate_forward(m, z0, 2.0, seed=11, replicate=6)
        assert a.events != c.events

    def test_state_at_replays_events(self):
        m = model2(6, 0.3)
        z0 = PopulationState.from_counts(SP2, [2, 2, 1, 1])
        rec = simulate_forward(m, z0, 2.0, seed=4)
        if rec.events:
            mid = rec.events[len(rec.events) // 2][0]
            z = np.array(rec.initial)
            for t, y, x in rec.events:
                if t > mid:
                    break
                z[y] -= 1
                z[x] += 1
            assert np.array_equal(rec.state_at(mid), z)

    def test_population_must_match_model(self):
        m = model2(5, 0.3)
        with pytest.raises(InvalidInitialError):
            simulate_forward(m, PopulationState.from_counts(SP2, [1, 1, 1, 1]), 1.0, seed=0)
        three = binary_space(3)
        with pytest.raises(InvalidInitialError):
            simulate_forward(m, PopulationState.from_counts(three, [1, 1, 1, 1, 1, 0, 0, 0]),
                             1.0, seed=0)

    def test_first_jump_law_matches_generator(self):
        # chi-square of the first jump against the generator row, plus the
        # mean holding time
        m = model2(5, 0.35)
        z0 = PopulationState.from_counts(SP2, [2, 1, 0, 2])
        gen = generator_lambda(m)
        start = tuple(int(c) for c in z0.counts)
        row = gen.matrix.toarray()[gen.index(start)].copy()
        row[gen.index(start)] = 0.0
        total_rate = row.sum()
        reps = 4000
        horizon = 30.0 / total_rate  # a first event is then all but certain
        counts = np.zeros(gen.size)
        holds = np.empty(reps)
        for rep in range(reps):
            rec = simulate_forward(m, z0, horizon, seed=271, replicate=rep)
            t, y, x = rec.events[0]
            first = list(start)
            first[y] -= 1
            first[x] += 1
            counts[gen.index(tuple(first))] += 1
            holds[rep] = t
        expected = reps * row / total_rate
        mask = expected > 0
        assert counts[~mask].sum() == 0
        assert stats.chisquare(counts[mask], expected[mask]).pvalue > 1e-3
        se = holds.std(ddof=1) / np.sqrt(reps)
        assert abs(holds.mean() - 1.0 / total_rate) < 4 * se

    def test_absorption_with_infinite_horizon(self):
        m = model2(5, 0.3)
        z0 = PopulationState.from_counts(SP2, [2, 1, 1, 1])
        rec = simulate_forward(m, z0, np.inf, seed=5)
        assert rec.state_at(np.inf).max() == 5

    def test_neutral_fixation_frequencies(self):
        # no recombination: fixation probability equals initial frequency
        m = model2(6, 0.0)
        z0 = PopulationState.from_counts(SP2, [3, 2, 1, 0])
        reps = 2000
        wins = np.zeros(4)
        for rep in range(reps):
            rec = simulate_forward(m, z0, np.inf, seed=77, replicate=rep)
            wins[int(np.argmax(rec.state_at(np.inf)))] += 1
        freq = wins / reps
        expected = z0.counts / 6
        se = np.sqrt(expected * (1 - expected) / reps)
        assert np.all(np.abs(freq - expected) <= 3 * np.maximum(se, 1e-9))

    def test_mean_sample_law_matches_exact_expectation(self):
        # forward Monte Carlo against the closed linear ODE
        from moranrec import BackwardModel, expected_sampling

        m = model2(10, 0.2)
        z0 = PopulationState.from_counts(SP2, [4, 2, 1, 3])
        t = 1.0
        reps = 3000
        acc = np.zeros(4)
        acc2 = np.zeros(4)
        for rep in range(reps):
            rec = simulate_forward(m, z0, t, seed=2024, replicate=rep)
            h = rec.state_at(t) / 10
            acc += h
            acc2 += h * h
        mean = acc / reps
        se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0) / reps)
        bwd = BackwardModel(2, 10, m.recomb)
        exact = expected_sampling(bwd, z0, [t])
        target = exact.series(coarsest([1, 2]))[0]
        assert np.all(np.abs(mean - target) <= 3 * np.maximum(se, 1e-9))


class TestDeterministicOde:
    def test_product_measure_is_fixed_point(self):
        r = RecombinationDistribution(3, (0.2, 0.3))
        sp = binary_space(3)
        factors = [measure_from_counts(sp, [0.3, 0.7], sites=[1]),
                   measure_from_counts(sp, [0.5, 0.5], sites=[2]),
                   measure_from_counts(sp, [0.1, 0.9], sites=[3])]
        omega = tensor_site_ordered(factors)
        stepped = deterministic_step(r, omega, dt=0.05)
        assert np.allclose(stepped.weights, omega.weights, atol=1e-15)

    def test_zero_crossover_is_constant(self):
        r = RecombinationDistribution(2, (0.0,))
        omega = measure_from_counts(SP2, [0.4, 0.2, 0.1, 0.3])
        out = integrate_deterministic(r, omega, t_end=1.0, dt=0.01)
        assert np.array_equal(out.weights, omega.weights)

    def test_norm_and_positivity_preserved(self):
        r = RecombinationDistribution(3, (0.3, 0.4))
        sp = binary_space(3)
        w = random_measure(sp, seed=8).weights
        omega = measure_from_counts(sp, w / w.sum())
        out = integrate_deterministic(r, omega, t_end=1.0, dt=1e-3)
        assert abs(out.norm - 1.0) < 1e-12
        assert np.all(out.weights > 0)

    def test_law_of_large_numbers(self):
        # the exact mean path approaches the ODE path as N grows, and the
        # empirical mean path matches the exact one at each N
        from moranrec import BackwardModel, expected_sampling

        r = RecombinationDistribution(2, (0.4,))
        freq = np.array([0.4, 0.2, 0.1, 0.3])
        t = 1.0
        omega = integrate_deterministic(r, measure_from_counts(SP2, freq), t, dt=1e-3)
        dists, exact_dists = [], []
        for N in (20, 200):
            m = ForwardModel(SP2, N, r)
            z0 = PopulationState.from_counts(SP2, (freq * N).astype(int))
            # the sampling measure of the one-block partition is the type frequency
            exact = expected_sampling(BackwardModel(2, N, r), z0, [t])
            target = exact.series(coarsest([1, 2]))[0]
            exact_dists.append(np.abs(target - omega.weights).max())
            reps = 300
            h = np.empty((reps, 4))
            for rep in range(reps):
                rec = simulate_forward(m, z0, t, seed=99, replicate=rep)
                h[rep] = rec.state_at(t) / N
            mean = h.mean(axis=0)
            se = h.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(mean - target) <= 4 * se)
            dists.append(np.abs(mean - omega.weights).max())
        assert exact_dists[1] < exact_dists[0]
        assert dists[1] < 0.02


class TestTrajectoryCsv:
    def test_round_trip(self):
        m = model2(6, 0.3)
        z0 = PopulationState.from_counts(SP2, [2, 2, 1, 1])
        rec = simulate_forward(m, z0, 2.0, seed=6)
        text = trajectory_to_csv(rec, SP2.cards, "stamp")
        assert text.startswith("# stamp\n")
        back = trajectory_events_from_csv(text, SP2.cards)
        assert back == list(rec.events)
