"""Grid stepping, the in-package matrix exponential, the 2-site closed form,
and the block-by-block CSV writer against their oracles."""

import errno
import gc
import json
import os
import signal
import sys
import tempfile
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg

import oracles
from moranrec import (
    BackwardModel,
    DiffusionRates,
    PopulationState,
    RecombinationDistribution,
    SiteSpace,
    cli,
    expected_sampling,
    expectations,
    lde_trajectory,
)
from moranrec.backward import generator_theta_dense
from moranrec.cli import expectations_to_csv

from util import binary_space, random_population, random_recomb

GRIDS = {
    "uniform": np.linspace(0, 2.5, 6),
    "uniform-11": np.linspace(0, 2, 11),  # steps differ in the last bit
    "uniform-101": np.linspace(0, 2.5, 101),  # steps differ by up to 1.4e-14 relative
    "near-uniform": [0, 0.2, 0.4 + 1e-9],
    "irregular": [0, 0.1, 0.1, 0.35, 2, 10],
    "alternating": [0, 0.125, 0.375, 0.5, 0.75, 0.875],  # steps exact in binary
    "zero": [0.0],
    "single": [3.0],
}


@pytest.mark.parametrize("n,N", [(n, N) for n in range(1, 6) for N in (n, 40)])
def test_stepping_matches_per_time_expm(n, N):
    bwd = BackwardModel(n, N, random_recomb(n, 30 + n))
    z0 = random_population(binary_space(n), N, seed=40 + 7 * n + N)
    for name, grid in GRIDS.items():
        got = expected_sampling(bwd, z0, grid)
        ref = oracles.expected_sampling(bwd, z0, grid)
        assert got.partitions == ref.partitions
        assert np.array_equal(got.times, ref.times)
        assert np.abs(got.values - ref.values).max() <= 1e-12, name


@pytest.fixture
def expm_calls(monkeypatch):
    """Shapes of the matrices the package exponentiates."""
    calls = []
    real = expectations._expm

    def counting(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(expectations, "_expm", counting)
    return calls


@pytest.mark.parametrize("name,expected", [("uniform", 1), ("uniform-11", 1), ("uniform-101", 1),
                                           ("near-uniform", 2), ("irregular", 4),
                                           ("alternating", 5)])
def test_uniform_grid_needs_one_expm(expm_calls, name, expected):
    bwd = BackwardModel(4, 6, random_recomb(4, 3))
    z0 = random_population(binary_space(4), 6, seed=3)
    expected_sampling(bwd, z0, GRIDS[name])
    assert len(expm_calls) == expected


def assert_expm_matches_scipy(A) -> None:
    ref = scipy.linalg.expm(A)
    assert np.abs(expectations._expm(A) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("variant", ["finite", "deterministic", "diffusion"])
@pytest.mark.parametrize("n,N", [(n, N) for n in range(1, 6) for N in (n, 40)])
def test_expm_matches_scipy_on_generators(n, N, variant):
    rho = DiffusionRates(n, tuple(np.linspace(0.5, 3.0, n - 1)))
    theta = generator_theta_dense(BackwardModel(n, N, random_recomb(n, 50 + n), variant, rho))
    for h in (1e-3, 0.2, 2.5, 10, 100):  # 10 and 100 scale and square
        assert_expm_matches_scipy(theta * h)


def test_expm_matches_scipy_on_special_matrices():
    rng = np.random.default_rng(11)
    for A in (np.zeros((1, 1)), np.array([[-2.5]]), np.array([[40.0]]), np.zeros((5, 5)),
              np.diag([-100.0, -1.0, 0.0, 1e-3, 3.0]),
              rng.standard_normal((12, 12)) * 4,  # non-normal
              np.triu(rng.standard_normal((8, 8))) * 20,
              np.array([[0.0, 1e200], [0.0, 0.0]])):  # nilpotent, ||A||^6 overflows
        assert_expm_matches_scipy(A)
    assert np.array_equal(expectations._expm(np.zeros((3, 3))), np.eye(3))


def test_expm_of_overflowing_matrix_is_nan():
    assert np.isnan(expectations._expm(np.array([[1e300, 1e300], [0.0, 1.0]]))).all()


def test_repeated_lde_call_is_bit_identical(expm_calls):
    bwd = BackwardModel(5, 12, random_recomb(5, 8))
    z0 = random_population(binary_space(5), 12, seed=8)
    first = lde_trajectory(bwd, z0, (1, 3, 4), [0, 0.5, 1.0, 1.2, 3.0])
    assert len(expm_calls) == 3
    again = lde_trajectory(bwd, z0, (1, 3, 4), [0, 0.5, 1.0, 1.2, 3.0])
    assert len(expm_calls) == 6  # no exponential is kept between calls
    assert np.array_equal(first.values, again.values)


def test_no_propagator_outlives_its_solve(monkeypatch):
    refs, alive = [], []
    real = expectations._expm

    def tracked(A):
        alive.append(sum(ref() is not None for ref in refs))  # while the next is formed
        E = real(A)
        refs.append(weakref.ref(E))
        return E

    monkeypatch.setattr(expectations, "_expm", tracked)
    bwd = BackwardModel(3, 5, random_recomb(3, 9))
    z0 = random_population(binary_space(3), 5, seed=9)
    expected_sampling(bwd, z0, [0.0, 0.1, 0.3, 0.6, 1.0])
    gc.collect()
    assert len(refs) == 4 and alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in refs)


def test_solve_builds_one_generator_and_one_expm_per_distinct_step(expm_calls, monkeypatch):
    built = []
    real = expectations.generator_theta_dense
    monkeypatch.setattr(expectations, "generator_theta_dense",
                        lambda model: built.append(model) or real(model))
    bwd = BackwardModel(3, 5, random_recomb(3, 9))
    z0 = random_population(binary_space(3), 5, seed=9)
    grid = np.cumsum([0] + [0.1 * k for k in range(1, 12)])  # 11 distinct steps
    expected_sampling(bwd, z0, grid)
    assert len(built) == 1 and len(expm_calls) == 11
    expected_sampling(bwd, z0, grid[:2])
    assert len(built) == 2 and len(expm_calls) == 12
    expected_sampling(bwd, z0, [0.0, 0.0])  # no step: no generator
    assert len(built) == 2 and len(expm_calls) == 12


def test_solves_in_threads_equal_serial_values():
    bwd = BackwardModel(3, 5, random_recomb(3, 9))
    z0 = random_population(binary_space(3), 5, seed=9)
    grids = [[0.0, 0.1 * k, 0.25 * k] for k in range(1, 7)]
    want = [expected_sampling(bwd, z0, grid).values for grid in grids]
    errors = []

    def work(i):
        try:
            for r in range(100):
                k = (i + r) % len(grids)
                if not np.array_equal(expected_sampling(bwd, z0, grids[k]).values, want[k]):
                    errors.append(f"thread {i}, grid {k}: values differ")
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


PAIR_NS = (1, 2, 3, 12, 100)
# unequal crossovers whose pairs cover the marginal probabilities 0, 0.1 and 0.9
FIVE_SITE_RECOMB = RecombinationDistribution(5, (0.1, 0.0, 0.35, 0.45))


@pytest.mark.parametrize("N", PAIR_NS)
@pytest.mark.parametrize("r", [0.0, 0.1, 0.9])
@pytest.mark.parametrize("cards", [(2, 2), (3, 2)])
def test_two_site_closed_form_matches_per_time_expm(N, r, cards):
    bwd = BackwardModel(2, N, RecombinationDistribution(2, (r,)))
    z0 = random_population(SiteSpace(cards), N, seed=N + cards[0])
    for name, grid in GRIDS.items():
        got = expected_sampling(bwd, z0, grid)
        ref = oracles.expected_sampling(bwd, z0, grid)
        assert got.partitions == ref.partitions
        assert np.array_equal(got.times, ref.times)
        assert np.abs(got.values - ref.values).max() <= 1e-12, name


@pytest.mark.parametrize("N", PAIR_NS)
def test_pair_lde_matches_the_full_lattice(N):
    bwd = BackwardModel(5, N, FIVE_SITE_RECOMB)
    z0 = random_population(SiteSpace((3, 2, 2, 3, 2)), N, seed=N)
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    assert {round(bwd.recomb.marginal(u).crossover[0], 12) for u in pairs} >= {0.0, 0.1, 0.9}
    for name, grid in GRIDS.items():
        for u in pairs:
            got = lde_trajectory(bwd, z0, u, grid)
            ref = oracles.lde_trajectory(bwd, z0, u, grid)
            assert got.partitions == ref.partitions and got.cards == ref.cards
            assert np.array_equal(got.times, ref.times)
            assert np.abs(got.values - ref.values).max() <= 1e-12, (name, u)


@pytest.mark.parametrize("N", PAIR_NS)
@pytest.mark.parametrize("r", [0.0, 0.1, 0.9])
def test_pair_rates_are_the_generator_off_diagonals(N, r):
    theta = generator_theta_dense(BackwardModel(2, N, RecombinationDistribution(2, (r,))))
    # with one individual {1|2} is unreachable, and its row of the generator is 0
    assert expectations._pair_rates(r, N)[:N] == (theta[0, 1], theta[1, 0])[:N]


def test_pairs_make_no_exponential_and_fill_no_cache(expm_calls, monkeypatch):
    built = []
    monkeypatch.setattr(expectations, "generator_theta_dense", built.append)
    monkeypatch.setattr(expectations, "sampling_stack", built.append)
    bwd = BackwardModel(5, 12, FIVE_SITE_RECOMB)
    lde_trajectory(bwd, random_population(binary_space(5), 12, seed=2), (2, 4), GRIDS["irregular"])
    expected_sampling(BackwardModel(2, 12, RecombinationDistribution(2, (0.3,))),
                      random_population(binary_space(2), 12, seed=2), GRIDS["irregular"])
    assert expm_calls == [] and built == []


def test_two_site_expectations_at_an_enormous_time_are_probabilities(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sites": 2, "alphabet_sizes": 2, "population_size": 5, "crossover_probs": [0.2],
        "initial_counts": [2, 1, 0, 2], "initial_partition": "1,2", "t_end": 1.0,
        "grid": [0.0, 1e10], "replicates": 1, "seed": 1, "out": str(tmp_path / "out")}))
    assert cli.main(["expectations", "--config", str(config)]) == 0
    traj = expected_sampling(BackwardModel(2, 5, RecombinationDistribution(2, (0.2,))),
                             PopulationState.from_counts(binary_space(2), [2, 1, 0, 2]),
                             [0.0, 1e10])
    values = oracles.expectations_from_csv(
        (tmp_path / "out" / "expected_sampling.csv").read_text(), (2, 2), traj.partitions,
        traj.times)
    assert np.array_equal(values, traj.values)
    assert np.abs(values.sum(axis=-1) - 1).max() <= 1e-12


def assert_writer_matches_oracle(tmp_path, traj) -> None:
    path = tmp_path / "out.csv"
    expectations_to_csv(path, traj.times, traj.partitions, traj.cards, traj.values, "stamp")
    ref = oracles.expectations_to_csv(traj.times, traj.partitions, traj.cards,
                                      traj.values, "stamp")
    assert path.read_bytes() == ref.encode()
    assert_no_trace(tmp_path)


def assert_no_trace(directory) -> None:
    """No child of this process is left, and ``directory`` holds only the output."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(directory) == ["out.csv"]


def test_writer_matches_oracle_mixed_alphabets(tmp_path):
    space = SiteSpace((2, 3))
    bwd = BackwardModel(2, 5, random_recomb(2, 5))
    z0 = random_population(space, 5, seed=5)
    traj = expected_sampling(bwd, z0, [0.0, 0.3, 1.7])
    assert_writer_matches_oracle(tmp_path, traj)


def test_writer_matches_oracle_fewer_individuals_than_sites(tmp_path):
    bwd = BackwardModel(3, 2, random_recomb(3, 6))
    z0 = PopulationState.from_counts(binary_space(3), [1, 0, 0, 0, 0, 0, 0, 1])
    traj = expected_sampling(bwd, z0, [0.0, 0.5, 1.0])
    assert all(len(p) <= 2 for p in traj.partitions)
    assert_writer_matches_oracle(tmp_path, traj)


def test_writer_matches_oracle_on_signed_lde_values(tmp_path):
    bwd = BackwardModel(3, 6, random_recomb(3, 7))
    z0 = random_population(binary_space(3), 6, seed=7)
    traj = lde_trajectory(bwd, z0, (1, 2, 3), [0.0, 0.4, 2.0])
    assert (traj.values < 0).any()
    assert_writer_matches_oracle(tmp_path, traj)


def writer_cases():
    """Trajectories by name, of 4 to 15 (time, partition) blocks."""
    bwd = BackwardModel(3, 6, random_recomb(3, 7))
    z0 = random_population(binary_space(3), 6, seed=7)
    mixed = SiteSpace((2, 3))
    return {
        "one-time": expected_sampling(bwd, z0, [0.7]),  # 5 blocks
        "one-partition": expected_sampling(BackwardModel(1, 4, random_recomb(1, 1)),
                                           random_population(SiteSpace((3,)), 4, seed=1),
                                           [0.0, 0.5, 1.0, 2.0]),  # 4 blocks
        "mixed-alphabets": expected_sampling(BackwardModel(2, 5, random_recomb(2, 5)),
                                             random_population(mixed, 5, seed=5),
                                             [0.0, 0.3, 1.7]),  # 6 blocks
        "uneven": expected_sampling(bwd, z0, [0.0, 0.4, 2.0]),  # 15 blocks
    }


@pytest.fixture
def cpus(monkeypatch):
    """Let every value start a share, and set the CPUs the writer may use."""
    monkeypatch.setattr(cli, "_SHARE_MIN", 1)
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity",
                                             lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork``, one entry each."""
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    return calls


@pytest.mark.parametrize("name", ["one-time", "one-partition", "mixed-alphabets", "uneven"])
def test_forked_writers_match_oracle(tmp_path, cpus, forks, name):
    traj = writer_cases()[name]
    blocks = traj.values.shape[0] * traj.values.shape[1]
    for count in (2, 3, blocks + 2):
        forks.clear()
        cpus(count)
        assert_writer_matches_oracle(tmp_path, traj)
        assert len(forks) == min(count, blocks) - 1


@pytest.mark.parametrize("share_min,cpu_count,expected", [
    (40, 8, 3),  # 120 values: one writer per 40
    (121, 8, 1),  # fewer values than one share
    (1, 2, 2),  # the CPUs bound it
])
def test_writer_count_follows_share_rule(tmp_path, cpus, forks, monkeypatch, share_min,
                                         cpu_count, expected):
    traj = writer_cases()["uneven"]
    assert traj.values.size == 120
    monkeypatch.setattr(cli, "_SHARE_MIN", share_min)
    cpus(cpu_count)
    assert_writer_matches_oracle(tmp_path, traj)
    assert len(forks) == expected - 1


@pytest.mark.parametrize("chunk", [1, 5, 8, 20])
def test_writer_chunks_match_oracle(tmp_path, monkeypatch, chunk):
    # 8 types a block: pieces of 1 and of 5 + 3 types, whole blocks one and two at a time
    traj = writer_cases()["uneven"]
    monkeypatch.setattr(cli, "FORMAT_CHUNK", chunk)
    assert_writer_matches_oracle(tmp_path, traj)


def test_writer_count_without_affinity_or_fork(tmp_path, cpus, forks, monkeypatch):
    traj = writer_cases()["uneven"]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert_writer_matches_oracle(tmp_path, traj)
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")  # no process may be forked now
    assert_writer_matches_oracle(tmp_path, traj)


def _fail_in_children(monkeypatch, how):
    """Make each forked writer fail by ``how`` before it finishes its share."""
    parent, real = os.getpid(), tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        file = real(*args, **kwargs)
        write = file.write

        def failing(text):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError(errno.ENOSPC, "no space left on device")
            return write(text)

        file.write = failing
        return file

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)


@pytest.mark.parametrize("failure", ["fork", "temporary-file", "child-raises", "child-killed"])
def test_writer_does_failed_shares_itself(tmp_path, cpus, monkeypatch, failure):
    traj = writer_cases()["uneven"]
    cpus(4)
    if failure == "fork":
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    elif failure == "temporary-file":
        def no_file(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")
        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    else:
        _fail_in_children(monkeypatch, failure.split("-")[1])
    assert_writer_matches_oracle(tmp_path, traj)


class _InterruptedInParent(np.ndarray):
    """Values whose rows the forking process cannot read: an interrupt there."""

    parent = os.getpid()

    def tolist(self):
        if os.getpid() == self.parent:
            raise KeyboardInterrupt
        return super().tolist()


def test_interrupted_writer_leaves_no_child_and_no_file(tmp_path, cpus):
    traj = writer_cases()["uneven"]
    cpus(4)
    values = traj.values.view(_InterruptedInParent)
    with pytest.raises(KeyboardInterrupt):
        expectations_to_csv(tmp_path / "out.csv", traj.times, traj.partitions, traj.cards,
                            values, "stamp")
    assert_no_trace(tmp_path)
