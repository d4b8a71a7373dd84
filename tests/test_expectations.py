import numpy as np
import pytest

from moranrec import (
    BackwardModel,
    DiffusionRates,
    ForwardModel,
    PopulationState,
    RecombinationDistribution,
    SampleTooLargeError,
    ShapeError,
    check_generator_duality,
    coarsest,
    expected_sampling,
    finest,
    fixation_2site,
    generator_theta,
    lde_conjugation_3site,
    lde_operator,
    lde_trajectory,
    marginalize,
    parse_partition,
    sampling,
    sampling_table,
    simulate_backward,
    simulate_forward,
    three_site_order,
)
from moranrec.expectations import sampling_stack

from oracles import diffusion_left_eigenvectors, expectation_rk4
from util import binary_space, random_population, random_recomb

P = parse_partition
SP2 = binary_space(2)


def closed_form_h_whole_2site(N: int, r: float, z0: PopulationState,
                              t: float) -> np.ndarray:
    """Exact expected whole-sample law for two sites.

    Derived from the two-equation linear system: the difference of the two
    sampling expectations decays at rate (r(N-1)+2)/N, and integrating the
    first equation gives the solution below (the late-time limit agrees
    with the fixation mixture).
    """
    h1 = sampling(coarsest([1, 2]), z0.measure).weights
    h0 = sampling(finest([1, 2]), z0.measure).weights
    alpha = (r * (N - 1) + 2) / N
    c = r * (N - 1) / (r * (N - 1) + 2)
    return h1 - c * (1 - np.exp(-alpha * t)) * (h1 - h0)


class TestDuality:
    def test_small_cases_have_roundoff_defect(self):
        for n, N, seed in [(2, 3, 0), (2, 5, 1), (3, 4, 2)]:
            r = random_recomb(n, seed)
            fwd = ForwardModel(binary_space(n), N, r)
            bwd = BackwardModel(n, N, r)
            assert check_generator_duality(fwd, bwd) < 1e-10

    def test_pure_resampling_degenerate(self):
        r = RecombinationDistribution(3, (0.0, 0.0))
        fwd = ForwardModel(binary_space(3), 4, r)
        bwd = BackwardModel(3, 4, r)
        assert check_generator_duality(fwd, bwd) < 1e-10

    def test_sweep_all_small_models(self):
        for n in (2, 3):
            for N in range(n, 6):
                for seed in (0, 1):
                    r = random_recomb(n, 10 * n + N + seed)
                    fwd = ForwardModel(binary_space(n), N, r)
                    bwd = BackwardModel(n, N, r)
                    assert check_generator_duality(fwd, bwd) < 1e-10

    def test_single_site_degenerates_to_plain_resampling(self):
        # one site: no recombination channel at all, duality still exact
        from moranrec import SiteSpace

        r = RecombinationDistribution(1, ())
        sp = SiteSpace((3,))
        fwd = ForwardModel(sp, 4, r)
        bwd = BackwardModel(1, 4, r)
        assert check_generator_duality(fwd, bwd) < 1e-12
        z0 = PopulationState.from_counts(sp, [2, 1, 1])
        traj = expected_sampling(bwd, z0, [0.0, 1e6])
        # neutral fixation: the late-time sample law equals the initial frequencies
        assert np.allclose(traj.values[1, 0], z0.counts / 4, atol=1e-9)

    def test_model_mismatch_rejected(self):
        r = random_recomb(2, 3)
        fwd = ForwardModel(SP2, 4, r)
        bwd = BackwardModel(2, 5, r)
        with pytest.raises(ValueError):
            check_generator_duality(fwd, bwd)

    def test_sampling_table_matches_direct_evaluation(self):
        N = 4
        table = sampling_table(SP2, N)
        for zi, s in enumerate(table.pop_states[:6]):
            z = PopulationState.from_counts(SP2, s)
            for a in table.partitions:
                direct = sampling(a, z.measure).weights
                assert np.allclose(table.values[zi, table.partitions.index(a)],
                                   direct, atol=1e-12)

    def test_table_needs_enough_individuals(self):
        with pytest.raises(SampleTooLargeError):
            sampling_table(binary_space(3), 2)

    def test_monte_carlo_duality_light(self):
        # forward sample-law average equals backward ancestry average
        n, N, r, t, reps = 2, 5, 0.3, 0.8, 3000
        rec_dist = RecombinationDistribution(n, (r,))
        fwd = ForwardModel(SP2, N, rec_dist)
        bwd = BackwardModel(n, N, rec_dist)
        z0 = PopulationState.from_counts(SP2, [2, 1, 1, 1])
        one = coarsest([1, 2])
        acc_f = np.zeros(4)
        acc_f2 = np.zeros(4)
        for rep in range(reps):
            zt = simulate_forward(fwd, z0, t, seed=101, replicate=rep).state_at(t)
            h = sampling(one, PopulationState.from_counts(SP2, zt).measure).weights
            acc_f += h
            acc_f2 += h * h
        h_by_partition = {p: sampling(p, z0.measure).weights
                          for p in (one, finest([1, 2]))}
        acc_b = np.zeros(4)
        acc_b2 = np.zeros(4)
        for rep in range(reps):
            sig = simulate_backward(bwd, one, t, seed=202, replicate=rep).state_at(t)
            h = h_by_partition[sig]
            acc_b += h
            acc_b2 += h * h
        mean_f, mean_b = acc_f / reps, acc_b / reps
        var_f = np.maximum(acc_f2 / reps - mean_f**2, 0)
        var_b = np.maximum(acc_b2 / reps - mean_b**2, 0)
        se = np.sqrt((var_f + var_b) / reps)
        assert np.all(np.abs(mean_f - mean_b) <= 3 * np.maximum(se, 1e-12))


class TestExpectedSampling:
    def test_time_zero_identity(self):
        r = random_recomb(3, 7)
        bwd = BackwardModel(3, 5, r)
        z0 = random_population(binary_space(3), 5, seed=7)
        traj = expected_sampling(bwd, z0, [0.0])
        assert traj.sites == (1, 2, 3)
        direct = sampling_stack(z0)
        assert np.allclose(traj.values[0], direct, atol=1e-14)

    def test_values_stay_probability_measures(self):
        r = random_recomb(2, 8)
        bwd = BackwardModel(2, 6, r)
        z0 = random_population(SP2, 6, seed=8)
        traj = expected_sampling(bwd, z0, np.linspace(0, 20, 9))
        assert np.all(traj.values >= -1e-9)
        assert np.all(traj.values <= 1 + 1e-9)
        assert np.allclose(traj.values.sum(axis=2), 1.0, atol=1e-9)

    def test_two_site_closed_form(self):
        for N, r in [(3, 0.9), (10, 0.2), (100, 0.1)]:
            z0 = PopulationState.from_counts(SP2, [N - 2, 1, 0, 1])
            bwd = BackwardModel(2, N, RecombinationDistribution(2, (r,)))
            times = np.linspace(0.0, 10.0, 11)
            traj = expected_sampling(bwd, z0, times)
            got = traj.series(coarsest([1, 2]))
            for ti, t in enumerate(times):
                assert np.allclose(got[ti], closed_form_h_whole_2site(N, r, z0, t),
                                   atol=1e-10)

    def test_late_time_limit_matches_fixation(self):
        N, r = 6, 0.4
        z0 = PopulationState.from_counts(SP2, [2, 2, 1, 1])
        bwd = BackwardModel(2, N, RecombinationDistribution(2, (r,)))
        t_star = 50 * N / (2 + r * (N - 1))
        traj = expected_sampling(bwd, z0, [t_star])
        fix = fixation_2site(ForwardModel(SP2, N, bwd.recomb), z0)
        assert np.allclose(traj.series(coarsest([1, 2]))[0], fix.weights, atol=1e-8)

    def test_matrix_exponential_agrees_with_rk4(self):
        r = random_recomb(3, 10)
        bwd = BackwardModel(3, 5, r)
        z0 = random_population(binary_space(3), 5, seed=10)
        times = [0.0, 1.0, 4.0, 10.0]
        traj = expected_sampling(bwd, z0, times)
        theta = generator_theta(bwd).matrix
        h0 = sampling_stack(z0)
        rk4 = expectation_rk4(theta, h0, times, dt=1e-3)
        assert np.abs(rk4 - traj.values).max() < 1e-8


def test_exact_calls_reject_unsupported_variants():
    r = RecombinationDistribution(3, (0.2, 0.3))
    rho = DiffusionRates(3, (1.0, 2.0))
    z0 = random_population(binary_space(3), 5, seed=11)
    fwd = ForwardModel(binary_space(3), 5, r)
    for variant in ("deterministic", "diffusion"):
        bwd = BackwardModel(3, 5, r, variant, rho)
        with pytest.raises(ValueError, match="finite"):
            expected_sampling(bwd, z0, [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            check_generator_duality(fwd, bwd)
    with pytest.raises(ValueError, match="finite"):
        lde_conjugation_3site(BackwardModel(3, 5, r, "deterministic"))


class TestLdeTrajectory:
    def test_time_zero_matches_operator(self):
        r = random_recomb(3, 11)
        bwd = BackwardModel(3, 6, r)
        z0 = random_population(binary_space(3), 6, seed=11)
        for u in [(1, 2), (1, 3), (1, 2, 3)]:
            traj = lde_trajectory(bwd, z0, u, [0.0])
            for a in traj.partitions:
                direct = lde_operator(a, marginalize(z0.measure, u))
                assert np.allclose(traj.values[0, traj.partitions.index(a)],
                                   direct.weights, atol=1e-10)

    def test_two_site_decay_rate(self):
        N, r = 7, 0.35
        bwd = BackwardModel(2, N, RecombinationDistribution(2, (r,)))
        z0 = PopulationState.from_counts(SP2, [N - 2, 1, 0, 1])
        t1, t2 = 0.5, 1.5
        traj = lde_trajectory(bwd, z0, (1, 2), [t1, t2])
        top = traj.series(coarsest([1, 2]))
        k = int(np.argmax(np.abs(top[0])))
        rate = -(np.log(abs(top[1][k])) - np.log(abs(top[0][k]))) / (t2 - t1)
        assert rate == pytest.approx((2 + r * (N - 1)) / N, abs=1e-8)

    def test_three_site_top_decay_rate(self):
        N, r1, r2 = 6, 0.3, 0.15
        bwd = BackwardModel(3, N, RecombinationDistribution(3, (r1, r2)))
        z0 = PopulationState.from_counts(binary_space(3), [2, 1, 0, 0, 1, 0, 1, 1])
        t1, t2 = 0.4, 1.2
        traj = lde_trajectory(bwd, z0, (1, 2, 3), [t1, t2])
        top = traj.series(coarsest([1, 2, 3]))
        k = int(np.argmax(np.abs(top[0])))
        rate = -(np.log(abs(top[1][k])) - np.log(abs(top[0][k]))) / (t2 - t1)
        expected = (6 * N + (N - 1) * (N - 2) * (r1 + r2)) / N**2
        assert rate == pytest.approx(expected, abs=1e-8)

    def test_independent_initial_population_has_zero_pair_lde(self):
        # counts that factor over the two sites carry no pair correlation
        counts = np.outer([3, 1], [2, 2]).ravel()  # total 16
        z0 = PopulationState.from_counts(SP2, counts)
        bwd = BackwardModel(2, 16, RecombinationDistribution(2, (0.2,)))
        traj = lde_trajectory(bwd, z0, (1, 2), [0.0])
        assert np.allclose(traj.series(coarsest([1, 2]))[0], 0.0, atol=1e-12)

    def test_population_size_mismatch_rejected(self):
        z0 = PopulationState.from_counts(SP2, [2, 1, 1, 1])
        bwd = BackwardModel(2, 8, RecombinationDistribution(2, (0.2,)))
        with pytest.raises(ValueError):
            expected_sampling(bwd, z0, [0.0])

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_non_finite_times_rejected(self, grid):
        z0 = PopulationState.from_counts(SP2, [2, 1, 1, 1])
        bwd = BackwardModel(2, 5, RecombinationDistribution(2, (0.2,)))
        with pytest.raises(ValueError, match="time grid must be finite"):
            expected_sampling(bwd, z0, grid)
        with pytest.raises(ValueError, match="time grid must be finite"):
            lde_trajectory(bwd, z0, (1, 2), grid)


class TestConjugation3Site:
    def test_requires_three_sites(self):
        with pytest.raises(ShapeError):
            lde_conjugation_3site(BackwardModel(2, 5, random_recomb(2, 1)))

    def test_finite_matches_closed_forms(self):
        for N in (3, 10, 100):
            for r1, r2 in [(0.1, 0.25), (0.3, 0.2), (0.05, 0.6)]:
                bwd = BackwardModel(3, N, RecombinationDistribution(3, (r1, r2)))
                tr = lde_conjugation_3site(bwd)
                A = tr.conjugated
                assert np.abs(np.triu(A, 1)).max() < 1e-10
                diag_expected = [
                    -6 / N - (N - 1) * (N - 2) / N**2 * (r1 + r2),
                    -2 / N - (N - 1) / N * r2,
                    -2 / N - (N - 1) / N * r1,
                    -2 / N - (N - 1) / N * (r1 + r2),
                    0.0,
                ]
                assert np.allclose(np.diag(A), diag_expected, rtol=1e-12, atol=1e-12)
                col = 2 / N - (N - 1) / N**2 * (r1 + r2)
                expected = np.array([
                    [diag_expected[0], 0, 0, 0, 0],
                    [col, diag_expected[1], 0, 0, 0],
                    [col, 0, diag_expected[2], 0, 0],
                    [col, 0, 0, diag_expected[3], 0],
                    [-(r1 + r2) / N**2, 2 / N - r2 / N, 2 / N - r1 / N,
                     2 / N - (r1 + r2) / N, 0],
                ])
                assert np.allclose(A, expected, rtol=1e-12, atol=1e-12)
                assert np.abs(tr.T @ tr.Tinv - np.eye(5)).max() < 1e-10
                assert np.abs(tr.V @ tr.D @ tr.Vinv - A).max() < 1e-9

    def test_diffusion_matches_closed_forms(self):
        for rho1, rho2 in [(1.5, 2.5), (0.5, 3.0)]:
            bwd = BackwardModel(3, 10, None, "diffusion",
                                DiffusionRates(3, (rho1, rho2)))
            tr = lde_conjugation_3site(bwd)
            s = rho1 + rho2
            expected = np.array([
                [-(6 + s), 0, 0, 0, 0],
                [2, -(2 + rho2), 0, 0, 0],
                [2, 0, -(2 + rho1), 0, 0],
                [2, 0, 0, -(2 + s), 0],
                [0, 2, 2, 2, 0],
            ])
            assert np.allclose(tr.conjugated, expected, atol=1e-12)
            # the transform degenerates to Mobius / refinement-indicator pair
            assert np.abs(tr.T @ tr.Tinv - np.eye(5)).max() < 1e-12
            vinv = diffusion_left_eigenvectors(rho1, rho2)
            resid = np.abs(vinv @ tr.conjugated - tr.D @ vinv).max()
            assert resid < 1e-9

    def test_exponential_combinations_in_diffusion(self):
        # left eigenvectors pair each split partition with the opposite cut:
        # weights (2, 4 + rho1) on (whole, split-after-1) decay at 2 + rho2,
        # weights (2, 4 + rho2) on (whole, split-after-2) decay at 2 + rho1
        from scipy.linalg import expm

        rho1, rho2 = 1.5, 2.5
        bwd = BackwardModel(3, 10, None, "diffusion", DiffusionRates(3, (rho1, rho2)))
        tr = lde_conjugation_3site(bwd)
        A = tr.conjugated
        y0 = np.array([0.7, -0.3, 0.4, 0.2, 0.1])
        ts = np.array([0.3, 0.7, 1.1])
        ys = np.array([expm(A * t) @ y0 for t in ts])
        for weights, rate in [(np.array([2.0, 4 + rho1, 0, 0, 0]), 2 + rho2),
                              (np.array([2.0, 0, 4 + rho2, 0, 0]), 2 + rho1)]:
            c = ys @ weights
            slopes = -np.diff(np.log(np.abs(c))) / np.diff(ts)
            assert np.allclose(slopes, rate, atol=1e-6)

    def test_partition_display_order(self):
        order = three_site_order()
        assert [str(p) for p in order] == ["1,2,3", "1|2,3", "1,2|3", "1,3|2", "1|2|3"]


class TestFixation:
    def test_zero_crossover_returns_initial_frequencies(self):
        model = ForwardModel(SP2, 9, RecombinationDistribution(2, (0.0,)))
        z0 = PopulationState.from_counts(SP2, [4, 3, 1, 1])
        fix = fixation_2site(model, z0)
        assert np.allclose(fix.weights, z0.counts / 9)

    def test_mixture_weights(self):
        N, r = 8, 0.3
        model = ForwardModel(SP2, N, RecombinationDistribution(2, (r,)))
        z0 = PopulationState.from_counts(SP2, [3, 2, 1, 2])
        fix = fixation_2site(model, z0)
        w_rec = r * (N - 1) / (2 + r * (N - 1))
        h0 = sampling(finest([1, 2]), z0.measure).weights
        manual = (1 - w_rec) * z0.counts / N + w_rec * h0
        assert np.allclose(fix.weights, manual, atol=1e-14)
        assert fix.norm == pytest.approx(1.0)

    def test_requires_two_sites(self):
        model = ForwardModel(binary_space(3), 5, RecombinationDistribution(3, (0.1, 0.1)))
        z0 = random_population(binary_space(3), 5, seed=12)
        with pytest.raises(ShapeError):
            fixation_2site(model, z0)
