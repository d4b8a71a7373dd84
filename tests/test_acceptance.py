"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Monte Carlo criteria use fixed seeds, so the suite is deterministic.
"""

import math
import time
from itertools import combinations

import numpy as np

from moranrec import (
    BackwardModel,
    DiffusionRates,
    ForwardModel,
    Partition,
    PopulationState,
    RecombinationDistribution,
    check_generator_duality,
    coarsest,
    enumerate_partitions,
    expected_sampling,
    finest,
    fixation_2site,
    generator_theta,
    lde_conjugation_3site,
    lde_trajectory,
    marginalize,
    recombinator_bar,
    sampling,
    sampling_bar,
    simulate_backward,
    simulate_forward,
)
from moranrec.markov import enumerate_population_states

from oracles import (
    diffusion_left_eigenvectors,
    join,
    meet,
    mobius,
    recombinator,
    refines,
    restrict,
    sampling_oracle,
    tensor_site_ordered,
)
from util import (
    THREE_SITE_ORDER,
    binary_space,
    conjugated_closed_form_3site,
    conjugated_closed_form_diffusion,
    permuted_generator,
    random_measure,
    random_population,
    theta_closed_form_3site,
)

R_PAIRS = [(0.1, 0.25), (0.3, 0.2), (0.05, 0.6)]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def seeded_crossovers(n: int, seed: int) -> RecombinationDistribution:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 0.95, n - 1)
    scale = rng.uniform(0.2, 0.95)
    return RecombinationDistribution(n, tuple(raw / raw.sum() * scale))


def test_criterion_1_generator_duality():
    start = time.monotonic()
    worst = 0.0
    for n, N in [(2, 3), (2, 5), (3, 4)]:
        space = binary_space(n)
        for seed in range(5):
            r = seeded_crossovers(n, seed)
            defect = check_generator_duality(ForwardModel(space, N, r),
                                             BackwardModel(n, N, r))
            worst = max(worst, defect)
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report(1, "generator duality", ok,
           f"max defect {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_three_site_generator():
    worst = 0.0
    for N in (3, 10, 100):
        for r1, r2 in R_PAIRS:
            gen = generator_theta(
                BackwardModel(3, N, RecombinationDistribution(3, (r1, r2))))
            got = permuted_generator(gen, THREE_SITE_ORDER)
            expected = theta_closed_form_3site(N, r1, r2)
            scale = np.maximum(np.abs(expected), 1e-3)
            worst = max(worst, float((np.abs(got - expected) / scale).max()))
    ok = worst < 1e-12
    report(2, "3-site generator matches the closed form", ok,
           f"max relative error {worst:.2e}")


def test_criterion_3_lde_triangularization():
    worst_fin = 0.0
    worst_upper = 0.0
    for N in (3, 10, 100):
        for r1, r2 in R_PAIRS:
            tr = lde_conjugation_3site(
                BackwardModel(3, N, RecombinationDistribution(3, (r1, r2))))
            expected = conjugated_closed_form_3site(N, r1, r2)
            scale = np.maximum(np.abs(expected), 1e-3)
            worst_fin = max(worst_fin, float((np.abs(tr.conjugated - expected)
                                              / scale).max()))
            worst_upper = max(worst_upper,
                              float(np.abs(np.triu(tr.conjugated, 1)).max()))
    worst_diff = 0.0
    worst_resid = 0.0
    for rho1, rho2 in [(1.5, 2.5), (0.5, 3.0), (2.0, 2.0)]:
        bwd = BackwardModel(3, 10, None, "diffusion", DiffusionRates(3, (rho1, rho2)))
        tr = lde_conjugation_3site(bwd)
        expected = conjugated_closed_form_diffusion(rho1, rho2)
        worst_diff = max(worst_diff, float(np.abs(tr.conjugated - expected).max()))
        vinv = diffusion_left_eigenvectors(rho1, rho2)
        worst_resid = max(worst_resid,
                          float(np.abs(vinv @ expected - tr.D @ vinv).max()))
    ok = (worst_fin < 1e-12 and worst_upper < 1e-10
          and worst_diff < 1e-12 and worst_resid < 1e-9)
    report(3, "LDE triangularization", ok,
           f"finite err {worst_fin:.2e}, uppers {worst_upper:.2e}, "
           f"diffusion err {worst_diff:.2e}, eigen residual {worst_resid:.2e}")


def test_criterion_4_two_site_closed_form():
    one = coarsest([1, 2])
    space = binary_space(2)
    worst_sol = 0.0
    worst_rate = 0.0
    times = np.linspace(0.0, 10.0, 21)
    for N in (3, 10, 100):
        z0 = PopulationState.from_counts(space, [N - 2, 1, 0, 1])
        h1 = sampling(one, z0.measure).weights
        h0 = sampling(finest([1, 2]), z0.measure).weights
        for r in (0.0, 0.1, 0.9):
            bwd = BackwardModel(2, N, RecombinationDistribution(2, (r,)))
            traj = expected_sampling(bwd, z0, times)
            whole = traj.values[:, traj.partitions.index(one)]
            alpha = (r * (N - 1) + 2) / N
            c = r * (N - 1) / (r * (N - 1) + 2)
            for ti, t in enumerate(times):
                closed = h1 - c * (1 - math.exp(-alpha * t)) * (h1 - h0)
                worst_sol = max(worst_sol, float(np.abs(whole[ti] - closed).max()))
            t1, t2 = 0.5, 1.5
            lde = lde_trajectory(bwd, z0, (1, 2), [t1, t2])
            top = lde.values[:, lde.partitions.index(one)]
            k = int(np.argmax(np.abs(top[0])))
            fitted = -(np.log(abs(top[1][k])) - np.log(abs(top[0][k]))) / (t2 - t1)
            worst_rate = max(worst_rate, abs(fitted - (2 + r * (N - 1)) / N))
    ok = worst_sol < 1e-10 and worst_rate < 1e-8
    report(4, "2-site closed form and LDE decay rate", ok,
           f"solution err {worst_sol:.2e}, rate err {worst_rate:.2e}")


def test_criterion_5_sampling_oracle():
    checked = 0
    worst_norm = 0
    for n in (1, 2, 3):
        space = binary_space(n)
        sites = space.sites
        partitions = enumerate_partitions(sites)
        for N in range(1, 7):
            for counts in enumerate_population_states(space.total_states, N):
                z = PopulationState.from_counts(space, counts).measure
                for a in partitions:
                    got = sampling_bar(a, z)
                    oracle = sampling_oracle(a, z)
                    assert np.array_equal(got.weights, oracle.weights), (
                        f"mismatch at n={n} N={N} z={counts} a={a}")
                    m = len(a)
                    ff = math.perm(N, m) if m <= N else 0
                    worst_norm = max(worst_norm, abs(got.norm - ff))
                    checked += 1
    ok = worst_norm == 0
    report(5, "sampling oracle equivalence", ok,
           f"{checked} (z, partition) pairs, exact integer equality, "
           f"norm defect {worst_norm}")


def test_criterion_6_monte_carlo_duality():
    start = time.monotonic()
    n, N, r, t, reps = 2, 10, 0.2, 1.0, 10_000
    space = binary_space(n)
    rec_dist = RecombinationDistribution(n, (r,))
    fwd = ForwardModel(space, N, rec_dist)
    bwd = BackwardModel(n, N, rec_dist)
    z0 = PopulationState.from_counts(space, [4, 2, 1, 3])
    one = coarsest([1, 2])

    acc_f = np.zeros(4)
    acc_f2 = np.zeros(4)
    for rep in range(reps):
        zt = simulate_forward(fwd, z0, t, seed=611, replicate=rep).state_at(t)
        h = zt / N  # whole-set sample law is the empirical frequency
        acc_f += h
        acc_f2 += h * h

    h_lookup = {p: sampling(p, z0.measure).weights
                for p in enumerate_partitions(space.sites)}
    acc_b = np.zeros(4)
    acc_b2 = np.zeros(4)
    for rep in range(reps):
        sig = simulate_backward(bwd, one, t, seed=612, replicate=rep).state_at(t)
        h = h_lookup[sig]
        acc_b += h
        acc_b2 += h * h

    mean_f, mean_b = acc_f / reps, acc_b / reps
    var_f = np.maximum(acc_f2 / reps - mean_f**2, 0)
    var_b = np.maximum(acc_b2 / reps - mean_b**2, 0)
    se = np.sqrt((var_f + var_b) / reps)
    pulls = np.abs(mean_f - mean_b) / np.maximum(se, 1e-12)
    elapsed = time.monotonic() - start
    ok = bool(np.all(pulls <= 3.0)) and elapsed < 120.0
    report(6, "Monte Carlo duality", ok,
           f"max pull {pulls.max():.2f} sigma over {reps} replicates/side, "
           f"runtime {elapsed:.1f}s")


def test_criterion_7_limit_convergence():
    r_fixed = RecombinationDistribution(3, (0.3, 0.2))
    det = generator_theta(BackwardModel(3, 10, r_fixed, "deterministic")).matrix
    sizes = np.array([10, 100, 1000, 10_000], dtype=float)
    d_det = []
    for N in sizes.astype(int):
        fin = generator_theta(BackwardModel(3, int(N), r_fixed)).matrix
        d_det.append(np.abs(fin - det).max())
    slope_det = np.polyfit(np.log10(sizes), np.log10(d_det), 1)[0]

    rho = DiffusionRates(3, (1.5, 2.5))
    diff = generator_theta(BackwardModel(3, 10, None, "diffusion", rho)).matrix
    d_diff = []
    for N in sizes.astype(int):
        r_scaled = RecombinationDistribution(3, tuple(x / N for x in rho.rho))
        fin = generator_theta(BackwardModel(3, int(N), r_scaled)).matrix
        d_diff.append(np.abs(N * fin - diff).max())
    slope_diff = np.polyfit(np.log10(sizes), np.log10(d_diff), 1)[0]

    ok = abs(slope_det + 1) <= 0.05 and abs(slope_diff + 1) <= 0.05 and d_diff[-1] < d_diff[0]
    report(7, "limit convergence order", ok,
           f"fixed-r slope {slope_det:.3f}, rescaled slope {slope_diff:.3f}")


def test_criterion_8_fixation_frequencies():
    start = time.monotonic()
    N, r, reps = 8, 0.3, 10_000
    space = binary_space(2)
    model = ForwardModel(space, N, RecombinationDistribution(2, (r,)))
    z0 = PopulationState.from_counts(space, [3, 2, 1, 2])
    wins = np.zeros(4)
    for rep in range(reps):
        final = simulate_forward(model, z0, np.inf, seed=808, replicate=rep).state_at(np.inf)
        wins[int(np.argmax(final))] += 1
    freq = wins / reps
    expected = fixation_2site(model, z0).weights
    se = np.sqrt(np.maximum(freq * (1 - freq), 1e-12) / reps)
    pulls = np.abs(freq - expected) / se
    elapsed = time.monotonic() - start
    ok = bool(np.all(pulls <= 3.0)) and elapsed < 300.0
    report(8, "fixation probabilities", ok,
           f"max pull {pulls.max():.2f} sigma over {reps} absorptions, "
           f"runtime {elapsed:.1f}s")


def test_criterion_9_property_suites():
    failures = []

    # Mobius sum identity and inversion round-trips, exhaustive for n <= 5
    for n in range(2, 6):
        parts = enumerate_partitions(range(1, n + 1))
        rel = np.array([[refines(a, b) for b in parts] for a in parts])
        mu = np.array([[mobius(a, b) if rel[i, j] else 0
                        for j, b in enumerate(parts)] for i, a in enumerate(parts)])
        for i in range(len(parts)):
            for k in range(len(parts)):
                if rel[i, k]:
                    s = int(mu[i, rel[i] & rel[:, k]].sum())
                    if s != (1 if i == k else 0):
                        failures.append(f"mobius sum identity n={n}")
        rng = np.random.default_rng(n)
        f = rng.integers(-40, 40, len(parts))
        g = np.array([f[rel[i]].sum() for i in range(len(parts))])
        rec = np.array([int((mu[i] * np.where(rel[i], g, 0)).sum())
                        for i in range(len(parts))])
        if not np.array_equal(rec, f):
            failures.append(f"mobius inversion n={n}")

    # lattice absorption laws
    parts4 = enumerate_partitions([1, 2, 3, 4])
    for a in parts4:
        for b in parts4:
            if join(a, meet(a, b)) != a or meet(a, join(a, b)) != a:
                failures.append("lattice absorption")

    # recombinator composition, projection compatibility, mixing identity
    for n in (2, 3, 4):
        space = binary_space(n)
        m = random_measure(space, seed=900 + n)
        parts = enumerate_partitions(space.sites)
        for a in parts:
            for b in parts:
                lhs = recombinator(a, recombinator(b, m)).weights
                rhs = recombinator(meet(a, b), m).weights
                if np.abs(lhs - rhs).max() > 1e-9:
                    failures.append(f"composition n={n}")
        for a in parts:
            for k in range(1, n):
                for u in combinations(space.sites, k):
                    lhs = marginalize(recombinator(a, m), u).weights
                    rhs = recombinator(restrict(a, u), marginalize(m, u)).weights
                    if np.abs(lhs - rhs).max() > 1e-9:
                        failures.append(f"projection n={n}")
        z = random_population(space, 6, seed=900 + n)
        for k in range(1, n):
            for u in combinations(space.sites, k):
                v = tuple(s for s in space.sites if s not in u)
                zu, zv = marginalize(z.measure, u), marginalize(z.measure, v)
                for a in enumerate_partitions(u):
                    for b in enumerate_partitions(v):
                        lhs = tensor_site_ordered(
                            [recombinator_bar(a, zu), sampling_bar(b, zv)]).weights
                        total = np.zeros(space.total_states)
                        for c in parts:
                            if refines(Partition(a.blocks + b.blocks), c) \
                                    and restrict(c, v) == b:
                                total += sampling_bar(c, z.measure).weights
                        if np.abs(lhs - total).max() > 1e-9:
                            failures.append(f"mixing identity n={n}")

    ok = not failures
    report(9, "property suites", ok,
           "all identities hold" if ok else "; ".join(sorted(set(failures))))
