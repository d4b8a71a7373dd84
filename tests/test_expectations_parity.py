"""Grid stepping and the block-by-block CSV writer against their oracles."""

import numpy as np
import pytest

import oracles
from moranrec import (
    BackwardModel,
    PopulationState,
    SiteSpace,
    expected_sampling,
    lde_trajectory,
)
from moranrec import expectations as expectations_module
from moranrec.cli import expectations_to_csv

from util import binary_space, random_population, random_recomb

GRIDS = {
    "uniform": np.linspace(0, 2.5, 6),
    "uniform-11": np.linspace(0, 2, 11),  # steps differ in the last bit
    "uniform-101": np.linspace(0, 2.5, 101),  # steps differ by up to 1.4e-14 relative
    "near-uniform": [0, 0.2, 0.4 + 1e-9],
    "irregular": [0, 0.1, 0.1, 0.35, 2, 10],
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


@pytest.mark.parametrize("name,expected", [("uniform", 1), ("uniform-11", 1), ("uniform-101", 1),
                                           ("near-uniform", 2), ("irregular", 4)])
def test_uniform_grid_needs_one_expm(monkeypatch, name, expected):
    calls = []
    real = expectations_module.expm

    def counting(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(expectations_module, "expm", counting)
    bwd = BackwardModel(4, 6, random_recomb(4, 3))
    z0 = random_population(binary_space(4), 6, seed=3)
    expected_sampling(bwd, z0, GRIDS[name])
    assert len(calls) == expected


def assert_writer_matches_oracle(tmp_path, traj) -> None:
    path = tmp_path / "out.csv"
    expectations_to_csv(path, traj.times, traj.partitions, traj.cards, traj.values, "stamp")
    ref = oracles.expectations_to_csv(traj.times, traj.partitions, traj.cards,
                                      traj.values, "stamp")
    assert path.read_bytes() == ref.encode()


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
