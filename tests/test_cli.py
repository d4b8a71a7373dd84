import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import moranrec
from moranrec import (
    BackwardModel,
    DiffusionRates,
    RecombinationDistribution,
    backward,
    enumerate_partitions,
    generator_theta,
    measure_from_csv,
    parse_partition,
)
from moranrec import cli, expectations, forward
from moranrec.cli import main

from oracles import expectations_from_csv, refines
from util import generator_from_csv, partition_events_from_csv, trajectory_events_from_csv


def write_config(tmp_path, **overrides):
    cfg = {
        "sites": 2,
        "alphabet_sizes": 2,
        "population_size": 10,
        "crossover_probs": [0.2],
        "initial_counts": [4, 2, 1, 3],
        "initial_partition": "1,2",
        "t_end": 1.0,
        "grid": [0.0, 0.5, 1.0],
        "replicates": 3,
        "seed": 42,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["duality-check", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"sites": 2, "out": "\xff\xfe"}')
        assert main(["fixation", "--config", str(path)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["mystery"] = 1
        path.write_text(json.dumps(raw))
        assert main(["duality-check", "--config", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_bad_crossover_sum(self, tmp_path, capsys):
        path = write_config(tmp_path, sites=3, crossover_probs=[0.7, 0.6],
                            initial_counts=None, alphabet_sizes=2)
        assert main(["duality-check", "--config", str(path)]) == 2
        assert "crossover" in capsys.readouterr().err

    @pytest.mark.parametrize("key,rejected", [
        ("crossover_probs", "crossover probabilities must be finite and nonnegative"),
        ("rho", "rates must be finite and nonnegative"),
    ], ids=["crossover_probs", "rho"])
    @pytest.mark.parametrize("values,message", [
        pytest.param([0.1], "'{key}' must list 2 values", id="length"),
        pytest.param([0.1, "x"], "'{key}' entries must be a number", id="entry"),
        pytest.param([0.1, -0.2], "'{key}': {rejected}", id="rejected"),
    ])
    def test_per_gap_list_faults_name_their_key(self, tmp_path, capsys, key, rejected, values,
                                                message):
        path = write_config(tmp_path, sites=3, initial_counts=None,
                            **{"crossover_probs": [0.1, 0.1], key: values})
        assert main(["duality-check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: " + message.format(key=key, rejected=rejected)]

    def test_wrong_counts_total(self, tmp_path):
        path = write_config(tmp_path, initial_counts=[4, 2, 1, 2])
        assert main(["simulate-forward", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["simulate-backward", "simulate-forward", "expectations"])
    def test_partition_with_too_many_blocks(self, tmp_path, command):
        # the config check is the only guard: expected_sampling takes no partition
        path = write_config(tmp_path, population_size=1, initial_counts=[1, 0, 0, 0],
                            initial_partition="1|2")
        assert main([command, "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("N", [2**53 + 1, 2**63])
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_population_float64_cannot_count_exits_2(self, tmp_path, capsys, command, N):
        path = write_config(tmp_path, population_size=N, initial_counts=[N, 0, 0, 0], rho=[1.0])
        assert main([command, "--config", str(path)]) == 2
        assert "'population_size' must be at most 2**53" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", [["9007199254740992", "1", "0", "0"],
                                      ["9007199254740993", "0", "0", "0"],
                                      ["4503599627370496", "4503599627370496.5", "0", "0"]])
    @pytest.mark.parametrize("command", ["expectations", "lde", "fixation", "simulate-backward"])
    def test_population_file_counted_exactly(self, tmp_path, capsys, command, rows):
        # a float64 sum reads each of these files as 2**53 individuals
        text = "type,weight\n" + "".join(f"{t},{w}\n" for t, w in zip(["00", "01", "10", "11"], rows))
        (tmp_path / "pop.csv").write_text(text)
        path = write_config(tmp_path, population_size=2**53, initial_counts=None,
                            initial_population_file="pop.csv")
        assert main([command, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight,code", [("0e-999999999", 0), ("0e99999999999", 0),
                                             ("-0.000e5", 0), ("1e-999999999", 2),
                                             ("1e300", 2), ("0e99999999999999999999", 2)])
    def test_population_file_weight_exponent_never_expanded(self, tmp_path, weight, code):
        # float() reads each as 0 or a finite number; an exact parse that
        # expands the exponent would need 10**99999999999, and the last
        # exponent is beyond what decimal.Decimal can hold
        (tmp_path / "pop.csv").write_text(f"type,weight\n00,{weight}\n01,10\n")
        path = write_config(tmp_path, initial_counts=None, initial_population_file="pop.csv")
        assert main(["fixation", "--config", str(path)]) == code

    def test_population_file_of_2_to_the_53_runs(self, tmp_path):
        (tmp_path / "pop.csv").write_text("type,weight\n00,4503599627370496\n01,4.503599627370496e15\n")
        path = write_config(tmp_path, population_size=2**53, initial_counts=None,
                            initial_population_file="pop.csv")
        assert main(["fixation", "--config", str(path)]) == 0

    def test_population_of_2_to_the_53_runs(self, tmp_path):
        path = write_config(tmp_path, population_size=2**53, initial_counts=[2**53, 0, 0, 0])
        assert main(["fixation", "--config", str(path)]) == 0

    def test_size_cap_exit_code(self, tmp_path):
        path = write_config(
            tmp_path, sites=9, alphabet_sizes=2, population_size=10,
            crossover_probs=[0.05] * 8, initial_counts=None,
            initial_partition=None)
        raw = json.loads(path.read_text())
        raw = {k: v for k, v in raw.items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main(["duality-check", "--config", str(path)]) == 3

    def test_forward_partition_over_site_cap_exits_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path, sites=9, population_size=10, crossover_probs=[0.05] * 8,
            initial_counts=[10] + [0] * 511,
            initial_partition="|".join(str(s) for s in range(1, 10)))
        start = time.perf_counter()
        assert main(["simulate-forward", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "size cap exceeded" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize("command", ["simulate-backward", "expectations"])
    def test_grid_over_output_cap_exits_3(self, tmp_path, capsys, command):
        path = write_config(tmp_path, grid={"stop": 1, "num": 10**13})
        start = time.perf_counter()
        assert main([command, "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "'grid' would hold 10000000000000 values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,values", [
        ("expectations", 3 * 2 * 4),  # times x partitions x types
        ("lde", 3 * 2 * 4),
        ("simulate-forward", 3 * 4),  # times x types of the summary
    ])
    def test_outputs_over_output_cap_exit_3_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, command, values):
        def not_built(*args, **kwargs):
            raise AssertionError("work started above the output cap")

        for module in (expectations, cli):
            for name in ("generator_theta", "simulate_forward"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, not_built)
        monkeypatch.setattr(cli, "DEFAULT_OUTPUT_CAP", values - 1)
        path = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == 3
        assert f"would hold {values} values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        monkeypatch.undo()
        monkeypatch.setattr(cli, "DEFAULT_OUTPUT_CAP", values)
        assert main([command, "--config", str(path)]) == 0

    def test_generators_over_site_cap_exits_3_and_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, sites=9, population_size=10,
                            crossover_probs=[0.05] * 8, initial_counts=[10] + [0] * 511,
                            initial_partition=",".join(str(s) for s in range(1, 10)))
        assert main(["generators", "--config", str(path)]) == 3
        assert "size cap exceeded" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_numbers_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        text = path.read_text()
        for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
            path.write_text(text.replace('"crossover_probs": [0.2]',
                                         f'"crossover_probs": [{bad}]'))
            assert main(["expectations", "--config", str(path)]) == 2
            assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exact_commands_reject_other_variants(self, tmp_path, capsys):
        path = write_config(tmp_path, rho=[1.0], variant="deterministic")
        for command in ("simulate-forward", "expectations", "lde", "duality-check", "fixation"):
            for extra in ([], ["--variant", "diffusion"]):
                assert main([command, "--config", str(path), *extra]) == 2
                assert "finite variant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("simulate-forward", ["--t-end", "inf"]),
        ("simulate-forward", ["--t-end", "x"]),
        ("expectations", ["--grid", "0,inf"]),
        ("expectations", ["--grid", "0,1e999"]),
        ("expectations", ["--grid", "0,nan"]),
    ])
    def test_non_finite_overrides_rejected(self, tmp_path, command, flags):
        path = write_config(tmp_path)
        assert main([command, "--config", str(path), *flags]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, field", [
        ("simulate-forward", {"replicates": 2.5}),
        ("simulate-forward", {"replicates": "x"}),
        ("simulate-forward", {"replicates": -1}),
        ("simulate-forward", {"seed": 2.5}),
        ("simulate-forward", {"seed": "x"}),
        ("simulate-forward", {"seed": -1}),
        ("simulate-forward", {"seed": True}),
        ("expectations", {"grid": {"num": 3}}),
        ("expectations", {"grid": {"stop": -1.0, "num": 3}}),
        ("expectations", {"grid": {"stop": "x", "num": 3}}),
        ("expectations", {"grid": {"stop": 1.0, "num": 0}}),
        ("expectations", {"grid": {"stop": 1.0, "num": 2.5}}),
        ("expectations", {"grid": [0.0, "x"]}),
        ("simulate-forward", {"t_end": "x"}),
        ("simulate-forward", {"sites": 1, "alphabet_sizes": 11, "crossover_probs": [],
                              "population_size": 11, "initial_counts": [1] * 11,
                              "initial_partition": "1"}),
        ("simulate-forward", {"alphabet_sizes": [2, 11],
                              "initial_counts": [1] * 10 + [0] * 12}),
        ("simulate-forward", {"alphabet_sizes": [2, "x"]}),
        ("simulate-forward", {"initial_counts": [4, 2, True, 3]}),
        ("lde", {"lde_sites": [True, 2]}),
        ("lde", {"lde_sites": 5}),
        ("lde", {"lde_sites": None}),
        ("simulate-forward", {"crossover_probs": [[0.1]]}),
        ("simulate-forward", {"crossover_probs": [None]}),
        ("simulate-forward", {"crossover_probs": [True]}),
        ("simulate-forward", {"rho": [[0.1]]}),
        ("simulate-forward", {"rho": [None]}),
        ("simulate-forward", {"rho": [True]}),
        ("simulate-forward", {"out": 5}),
        ("simulate-forward", {"out": None}),
        ("simulate-forward", {"initial_counts": None, "initial_population_file": 5}),
        ("simulate-forward", {"initial_counts": None, "initial_population_file": "."}),
        ("simulate-forward", {"initial_counts": None,
                              "initial_population_file": "config.json"}),
    ])
    def test_typed_fields(self, tmp_path, capsys, command, field):
        path = write_config(tmp_path, **field)
        assert main([command, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_population_weight(self, tmp_path, capsys, weight):
        (tmp_path / "pop.csv").write_text(f"type,weight\n00,{weight}\n01,2\n10,1\n11,3\n")
        path = write_config(tmp_path, initial_counts=None, initial_population_file="pop.csv")
        assert main(["expectations", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_counts_and_population_file_together_rejected(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("type,weight\n00,1\n01,2\n10,3\n11,4\n")
        path = write_config(tmp_path, initial_population_file="pop.csv")
        assert main(["simulate-forward", "--config", str(path)]) == 2
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_population_row(self, tmp_path, capsys):
        # the rows hold 10 individuals; keeping the last "00" row would sum to 7
        (tmp_path / "pop.csv").write_text("type,weight\n00,3\n00,1\n01,2\n10,2\n11,2\n")
        path = write_config(tmp_path, population_size=7, initial_counts=None,
                            initial_population_file="pop.csv")
        assert main(["fixation", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'00'" in err
        assert not (tmp_path / "out").exists()


class TestDualityCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["duality-check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "defect" in out
        report = (tmp_path / "out" / "duality_report.txt").read_text()
        assert "status: ok" in report

    def test_tiny_tolerance_fails_with_code_4(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["duality-check", "--config", str(path), "--tol", "1e-30"]) == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1e999", "x"])
    def test_bad_tolerance_rejected_before_compute(self, tmp_path, capsys, monkeypatch, tol):
        def no_compute(*args, **kwargs):
            raise AssertionError("duality computed despite a bad --tol")

        monkeypatch.setattr(cli, "check_generator_duality", no_compute)
        path = write_config(tmp_path)
        assert main(["duality-check", "--config", str(path), "--tol", tol]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_tolerance_accepted(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["duality-check", "--config", str(path), "--tol", "0"]) != 2
        assert (tmp_path / "out" / "duality_report.txt").exists()

    @pytest.mark.parametrize("sites, N", [(5, 4), (3, 2)])
    def test_fewer_individuals_than_sites_exits_2_before_any_generator(
            self, tmp_path, capsys, monkeypatch, sites, N):
        # 5 binary sites and N = 4 would otherwise hit the population cap first
        def no_build(*args, **kwargs):
            raise AssertionError("a generator was built before the N >= n check")

        monkeypatch.setattr(expectations, "generator_lambda", no_build)
        monkeypatch.setattr(expectations, "generator_theta", no_build)
        path = write_config(tmp_path, sites=sites, population_size=N,
                            crossover_probs=[0.1] * (sites - 1), initial_counts=None,
                            initial_partition=None)
        assert main(["duality-check", "--config", str(path)]) == 2
        assert f"sampling measures need N >= n, got N={N}, n={sites}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSimulateForwardCommand:
    def test_outputs_and_determinism(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["simulate-forward", "--config", str(path)]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert "forward_rep0000.csv" in first
        assert "forward_summary.csv" in first
        assert main(["simulate-forward", "--config", str(path)]) == 0
        second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert first == second
        assert main(["simulate-forward", "--config", str(path), "--seed", "43",
                     "--out", str(tmp_path / "out43")]) == 0
        other = (tmp_path / "out43" / "forward_rep0000.csv").read_bytes()
        assert other != first["forward_rep0000.csv"]

    def test_trajectories_parse_and_hash_stamped(self, tmp_path):
        path = write_config(tmp_path)
        main(["simulate-forward", "--config", str(path)])
        text = (tmp_path / "out" / "forward_rep0001.csv").read_text()
        assert text.startswith("# config=")
        events = trajectory_events_from_csv(text, (2, 2))
        assert all(t > 0 for t, _, _ in events)
        pop = measure_from_csv((tmp_path / "out" / "initial_population.csv").read_text(),
                               (1, 2), (2, 2))
        assert np.array_equal(pop.weights, [4, 2, 1, 3])

    def test_initial_population_from_file(self, tmp_path):
        from moranrec import PopulationState, SiteSpace, measure_to_csv

        z0 = PopulationState.from_counts(SiteSpace((2, 2)), [4, 2, 1, 3])
        (tmp_path / "pop.csv").write_text(measure_to_csv(z0.measure))
        path = write_config(tmp_path, initial_counts=None,
                            initial_population_file="pop.csv")
        raw = {k: v for k, v in json.loads(path.read_text()).items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main(["simulate-forward", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "initial_population.csv").read_text()
        back = measure_from_csv(text, (1, 2), (2, 2))
        assert np.array_equal(back.weights, [4, 2, 1, 3])

    def test_event_budget_exits_3_and_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(backward, "MAX_EVENTS", 50)
        # 60 individuals of four types take thousands of events to fix one type
        path = write_config(tmp_path, population_size=60, initial_counts=[15] * 4,
                            t_end=1e300, replicates=3)
        start = time.perf_counter()
        assert main(["simulate-forward", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "more than 50 events" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.json").exists()
        assert not list((tmp_path / "out").glob("forward_rep*.csv"))

    def test_population_over_individual_cap_exits_3(self, tmp_path, capsys):
        N = forward.DEFAULT_INDIVIDUAL_CAP + 1
        path = write_config(tmp_path, population_size=N, initial_counts=[N - 3, 1, 1, 1])
        start = time.perf_counter()
        assert main(["simulate-forward", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert f"{N} individuals exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_past_t_end_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, t_end=1.0, grid=[0, 1, 5, 50], replicates=3)
        assert main(["simulate-forward", "--config", str(path)]) == 2
        assert "past 't_end'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        path = write_config(tmp_path, t_end=1.0, grid=[0, 0.5, 1], replicates=3)
        assert main(["simulate-forward", "--config", str(path), "--t-end", "0.5"]) == 2
        assert not (tmp_path / "out").exists()

    def test_summary_at_event_times_matches_state_at(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, replicates=2), argparse.Namespace())
        model = forward.ForwardModel(cfg.space, cfg.N, cfg.recomb)
        recs = [forward.simulate_forward(model, cfg.initial, cfg.t_end, cfg.seed, replicate=rep)
                for rep in range(2)]
        grid = sorted({0.0, 1.0, *(t for t, _, _ in recs[0].events[:3])})
        assert len(grid) == 5
        path = write_config(tmp_path, replicates=2, grid=grid)
        assert main(["simulate-forward", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "forward_summary.csv").read_text().splitlines()[2:]
        for gi, t in enumerate(grid):
            mean = np.mean([moranrec.sampling(cfg.initial_partition, moranrec.PopulationState
                                              .from_counts(cfg.space, rec.state_at(t)).measure)
                            .weights for rec in recs], axis=0)
            block = [row.split(",") for row in rows[4 * gi:4 * gi + 4]]
            assert all(float(row[0]) == t for row in block)
            assert [float(row[2]) for row in block] == pytest.approx(mean, abs=1e-15)

    def test_zero_replicates_summary_only(self, tmp_path):
        path = write_config(tmp_path, replicates=0)
        assert main(["simulate-forward", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert not list(out.glob("forward_rep*.csv"))
        lines = [l for l in (out / "forward_summary.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "time,type,mean_h,stderr"
        assert len(lines) == 5  # header + one row per type at t=0
        assert all(row.startswith("0,") for row in lines[1:])


class TestSimulateBackwardCommand:
    def test_deterministic_variant_is_refinement_monotone(self, tmp_path):
        path = write_config(tmp_path, sites=3, alphabet_sizes=2, population_size=10,
                            crossover_probs=[0.3, 0.3], initial_counts=None,
                            initial_partition="1,2,3", variant="deterministic",
                            t_end=40.0, replicates=4)
        raw = {k: v for k, v in json.loads(path.read_text()).items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main(["simulate-backward", "--config", str(path)]) == 0
        for rep in range(4):
            text = (tmp_path / "out" / f"backward_rep{rep:04d}.csv").read_text()
            events = partition_events_from_csv(text)
            prev = parse_partition("1,2,3")
            for _, p in events:
                assert refines(p, prev) and p != prev
                prev = p

    def test_singletons_deterministic_has_no_events(self, tmp_path):
        path = write_config(tmp_path, initial_partition="1|2",
                            variant="deterministic", replicates=2,
                            initial_counts=None)
        raw = {k: v for k, v in json.loads(path.read_text()).items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main(["simulate-backward", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "backward_rep0000.csv").read_text()
        assert partition_events_from_csv(text) == []

    def test_event_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(backward, "MAX_EVENTS", 50)
        path = write_config(tmp_path, sites=3, crossover_probs=[0.3, 0.3],
                            initial_counts=None, initial_partition="1,2,3",
                            t_end=1e300, replicates=1)
        start = time.perf_counter()
        assert main(["simulate-backward", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "size cap exceeded" in capsys.readouterr().err
        assert not (tmp_path / "out" / "backward_rep0000.csv").exists()

    def test_event_budget_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(backward, "MAX_EVENTS", 50)
        path = write_config(tmp_path, sites=3, crossover_probs=[0.3, 0.3],
                            initial_counts=None, initial_partition="1,2,3",
                            t_end=1e300, replicates=3)
        assert main(["simulate-backward", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "t_end" in err and "reduce sites" not in err
        assert not (tmp_path / "out" / "run.json").exists()
        assert not list((tmp_path / "out").glob("backward_rep*.csv"))

    def test_event_budget_removes_earlier_replicates(self, tmp_path, monkeypatch):
        def budget_hit_on_second(model, sigma0, t_end, seed, *, replicate):
            if replicate == 1:
                raise backward.SizeCapError("more than 1 events before t_end=1; lower t_end")
            return backward.simulate_backward(model, sigma0, t_end, seed, replicate=replicate)

        monkeypatch.setattr(cli, "simulate_backward", budget_hit_on_second)
        path = write_config(tmp_path, initial_counts=None, replicates=3)
        assert main(["simulate-backward", "--config", str(path)]) == 3
        assert not (tmp_path / "out" / "run.json").exists()
        assert not list((tmp_path / "out").glob("backward_rep*.csv"))

    def test_cold_runs_write_identical_csvs(self, tmp_path):
        # two fresh interpreters, each with empty state tables, on one config
        env = dict(os.environ, PYTHONPATH=str(Path(moranrec.__file__).parents[1]))
        outputs = []
        for run in ("a", "b"):
            work = tmp_path / run
            work.mkdir()
            write_config(work, sites=6, population_size=8, crossover_probs=[0.1] * 5,
                         initial_counts=None, initial_partition="1,2,3,4,5,6",
                         t_end=100.0, replicates=3, seed=17, out="out")
            done = subprocess.run([sys.executable, "-m", "moranrec.cli", "simulate-backward",
                                   "--config", "config.json"], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append([(p.name, p.read_bytes())
                            for p in sorted((work / "out").glob("backward_rep*.csv"))])
        assert len(outputs[0]) == 3 and outputs[0] == outputs[1]
        assert all(len(text.splitlines()) > 20 for _, text in outputs[0])

    def test_diffusion_variant_pure_events(self, tmp_path):
        path = write_config(tmp_path, sites=3, crossover_probs=[0.0, 0.0],
                            rho=[1.5, 2.5], variant="diffusion",
                            initial_partition="1,2,3", initial_counts=None,
                            t_end=3.0, replicates=5)
        raw = {k: v for k, v in json.loads(path.read_text()).items() if v is not None}
        path.write_text(json.dumps(raw))
        assert main(["simulate-backward", "--config", str(path)]) == 0
        for rep in range(5):
            text = (tmp_path / "out" / f"backward_rep{rep:04d}.csv").read_text()
            prev = parse_partition("1,2,3")
            for _, p in partition_events_from_csv(text):
                split = refines(p, prev) and len(p) == len(prev) + 1
                merge = refines(prev, p) and len(p) == len(prev) - 1
                assert split or merge
                prev = p


class TestExpectationsAndLde:
    def test_expectations_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["expectations", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "expected_sampling.csv").read_text()
        partitions = [parse_partition("1,2"), parse_partition("1|2")]
        times = [0.0, 0.5, 1.0]
        block = expectations_from_csv(text, (2, 2), partitions, times)
        assert block.shape == (3, 2, 4)
        assert np.allclose(block[0, 0], [0.4, 0.2, 0.1, 0.3])
        assert np.allclose(block.sum(axis=2), 1.0, atol=1e-9)

    def test_fewer_individuals_than_sites(self, tmp_path):
        path = write_config(tmp_path, sites=3, population_size=2,
                            crossover_probs=[0.1, 0.25],
                            initial_counts=[1, 0, 0, 0, 0, 0, 0, 1],
                            initial_partition="1,2|3")
        assert main(["expectations", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "expected_sampling.csv").read_text()
        assert '"1|2|3"' not in text
        assert main(["lde", "--config", str(path)]) == 0

    def test_lde_three_site_prints_diagonal(self, tmp_path, capsys):
        path = write_config(tmp_path, sites=3, population_size=6,
                            crossover_probs=[0.1, 0.25], rho=[1.0, 2.5],
                            initial_counts=[2, 1, 0, 0, 1, 0, 1, 1],
                            initial_partition="1,2,3", lde_sites=[1, 2, 3])
        assert main(["lde", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conjugated diagonal" in out
        assert "lde[finite]" in out and "lde[diffusion]" in out
        report = (tmp_path / "out" / "lde_diagonalization.txt").read_text()
        assert "variant=finite" in report and "variant=diffusion" in report
        N, r1, r2 = 6, 0.1, 0.25
        top = -6 / N - (N - 1) * (N - 2) / N**2 * (r1 + r2)
        assert f"{top:.12g}" in out

    @pytest.mark.parametrize("N,probs", [(3, [0.1, 0.25]), (5, [0.5, 0.5]), (6, [0.1, 0.25]),
                                         (20, [0.3, 0.05]), (1000, [0.0, 0.0])])
    def test_lde_diagonalization_residual_near_scipy_oracle(self, tmp_path, monkeypatch, N,
                                                           probs):
        # the report as written with scipy.linalg.eig and scipy.linalg.inv: eig
        # is the same LAPACK call, so every other line is byte-identical; numpy's
        # inv solves V X = I where scipy's inverts the triangular or LU factors,
        # so the residual line may move in its last digits and is not
        # byte-identical (it moves at N = 3, 5 and 6 here)
        import scipy.linalg

        path = write_config(tmp_path, sites=3, population_size=N, crossover_probs=probs,
                            rho=[1.0, 2.5], initial_counts=[N - 2, 1, 0, 0, 0, 0, 1, 0],
                            initial_partition="1,2,3")
        report = tmp_path / "out" / "lde_diagonalization.txt"
        assert main(["lde", "--config", str(path)]) == 0
        got = report.read_text().splitlines()
        monkeypatch.setattr(np.linalg, "eig", scipy.linalg.eig)
        monkeypatch.setattr(np.linalg, "inv", scipy.linalg.inv)
        assert main(["lde", "--config", str(path)]) == 0
        ref = report.read_text().splitlines()
        assert len(got) == len(ref) == 7
        for line, want in zip(got, ref):
            if line.startswith("diagonalization_residual: "):
                resid, oracle = (float(x.split(": ")[1]) for x in (line, want))
                assert resid <= 2 * oracle + 4 * np.finfo(float).eps
            else:
                assert line == want

    def test_lde_csv_written(self, tmp_path):
        path = write_config(tmp_path, lde_sites=[1, 2])
        assert main(["lde", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "expected_lde.csv").read_text()
        partitions = [parse_partition("1,2"), parse_partition("1|2")]
        block = expectations_from_csv(text, (2, 2), partitions, [0.0, 0.5, 1.0])
        # whole-set row at t=0 equals the direct pair correlation of z0
        from moranrec import PopulationState, SiteSpace, coarsest, lde_operator

        z0 = PopulationState.from_counts(SiteSpace((2, 2)), [4, 2, 1, 3])
        direct = lde_operator(coarsest([1, 2]), z0.measure)
        assert np.allclose(block[0, 0], direct.weights, atol=1e-12)

    @staticmethod
    def _ten_site_config(tmp_path, lde_sites):
        counts = [0] * 2 ** 10
        counts[0], counts[5], counts[700], counts[1023] = 3, 2, 2, 1
        return write_config(tmp_path, sites=10, population_size=8,
                            crossover_probs=[0.02] * 9, initial_counts=counts,
                            initial_partition=None, lde_sites=lde_sites)

    def test_lde_on_two_of_ten_sites(self, tmp_path):
        path = self._ten_site_config(tmp_path, [2, 9])
        assert main(["lde", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "expected_lde.csv").read_text()
        partitions = [parse_partition("2,9"), parse_partition("2|9")]
        block = expectations_from_csv(text, (2, 2), partitions, [0.0, 0.5, 1.0])
        assert np.isfinite(block).all()

    @pytest.mark.parametrize("field", [
        {"lde_sites": []}, {"lde_sites": [0, 1]}, {"lde_sites": [2, 9]},
        {"grid": []}, {"grid": [[0.0, 1.0]]}, {"grid": 1.0}, {"grid": [0.0, float("nan")]},
        {"grid": [0.0, float("inf")]}, {"grid": [-1.0, 0.0]}, {"grid": [0.0, 2.0, 1.0]},
    ])
    def test_lde_rejects_bad_sites_and_grids_with_exit_2(self, tmp_path, capsys, field):
        path = write_config(tmp_path, **field)
        assert main(["lde", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lde_on_repeated_sites_writes_the_set_once(self, tmp_path):
        rows = []
        for sites in ([1, 2], [2, 1, 1]):
            out = tmp_path / f"out{len(rows)}"
            path = write_config(tmp_path, lde_sites=sites, out=str(out))
            assert main(["lde", "--config", str(path)]) == 0
            rows.append((out / "expected_lde.csv").read_text().split("\n", 1)[1])
        assert rows[0] == rows[1]

    def test_lde_on_nine_sites_exceeds_the_cap(self, tmp_path, capsys):
        path = self._ten_site_config(tmp_path, list(range(1, 10)))
        assert main(["lde", "--config", str(path)]) == 3
        assert "size cap exceeded" in capsys.readouterr().err


class TestOutputPostcondition:
    @staticmethod
    def _poison(monkeypatch, name):
        real = getattr(cli, name)

        def with_nan(*args, **kwargs):
            traj = real(*args, **kwargs)
            traj.values[-1, 0, 0] = np.nan
            return traj

        monkeypatch.setattr(cli, name, with_nan)

    @pytest.mark.parametrize("command,producer,csv", [
        ("expectations", "expected_sampling", "expected_sampling.csv"),
        ("lde", "lde_trajectory", "expected_lde.csv"),
    ])
    def test_nan_exits_5_without_csv(self, tmp_path, monkeypatch, capsys,
                                     command, producer, csv):
        self._poison(monkeypatch, producer)
        path = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == 5
        assert "output check failed" in capsys.readouterr().err
        assert not (tmp_path / "out" / csv).exists()

    def test_expectations_rejects_a_block_off_the_simplex(self, tmp_path, monkeypatch):
        real = cli.expected_sampling

        def shifted(*args, **kwargs):
            traj = real(*args, **kwargs)
            traj.values[1, 0] += 1e-9
            return traj

        monkeypatch.setattr(cli, "expected_sampling", shifted)
        path = write_config(tmp_path)
        assert main(["expectations", "--config", str(path)]) == 5
        assert not (tmp_path / "out" / "expected_sampling.csv").exists()

    @pytest.mark.parametrize("command", ["expectations", "lde", "simulate-forward",
                                         "duality-check"])
    @pytest.mark.parametrize("where", ["out-is-a-file", "out-under-a-file",
                                       "run-json-is-a-directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = {"out-is-a-file": blocker, "out-under-a-file": blocker / "out",
               "run-json-is-a-directory": tmp_path / "out"}[where]
        if where == "run-json-is-a-directory":  # the directory is made, a write fails
            (out / "run.json").mkdir(parents=True)
        path = write_config(tmp_path, out=str(out))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert blocker.read_text() == "kept\n"

    def test_interrupt_exits_130_without_traceback(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "expectations_to_csv", interrupted)
        path = write_config(tmp_path)
        assert main(["expectations", "--config", str(path)]) == 130
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"interrupted: outputs under {tmp_path / 'out'} may be incomplete\n"


class TestFixationCommand:
    def test_zero_crossover_prints_initial_frequencies(self, tmp_path, capsys):
        path = write_config(tmp_path, crossover_probs=[0.0])
        assert main(["fixation", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fixation[00] = 0.4" in out
        text = (tmp_path / "out" / "fixation.csv").read_text()
        fix = measure_from_csv(text, (1, 2), (2, 2))
        assert np.allclose(fix.weights, [0.4, 0.2, 0.1, 0.3])


class TestGeneratorsCommand:
    def test_writes_dense_csvs(self, tmp_path):
        path = write_config(tmp_path, rho=[1.0])
        assert main(["generators", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for name in ("theta_finite.csv", "theta_deterministic.csv", "theta_diffusion.csv"):
            text = (out / name).read_text()
            assert '"1,2"' in text.splitlines()[1]

    def test_label_order_matches_enumeration(self, tmp_path):
        path = write_config(tmp_path, sites=3, crossover_probs=[0.2, 0.3], rho=[1.0, 2.0],
                            initial_counts=[3, 1, 1, 1, 1, 1, 1, 1], initial_partition="1,2,3")
        assert main(["generators", "--config", str(path)]) == 0
        parts = enumerate_partitions((1, 2, 3))
        model = BackwardModel(3, 10, RecombinationDistribution(3, (0.2, 0.3)),
                              rho=DiffusionRates(3, (1.0, 2.0)))
        for variant in ("finite", "deterministic", "diffusion"):
            text = (tmp_path / "out" / f"theta_{variant}.csv").read_text()
            labels, dense = generator_from_csv(text)  # checks the header against the rows
            assert labels == parts
            gen = generator_theta(replace(model, variant=variant))
            assert np.array_equal(dense, gen.matrix.toarray())


# Runs in a fresh interpreter: the scipy and numpy.ma modules, and the numpy
# string modules of the CSV formatter, loaded after importing the CLI, after
# one cold pair ``lde_trajectory`` call, after each simulate command, and after
# each exact command.
_STARTUP_SCRIPT = """
import json, sys
import moranrec.cli
from moranrec import BackwardModel, PopulationState, RecombinationDistribution, SiteSpace
from moranrec import lde_trajectory

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])

def string_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "strings"],
                                                               ["numpy", "char"]))

seen = {"import": [unwanted_modules(), string_modules()]}
z0 = PopulationState.from_counts(SiteSpace((2, 2, 2)), [3, 0, 1, 2, 0, 1, 0, 5])
lde_trajectory(BackwardModel(3, 12, RecombinationDistribution(3, (0.1, 0.2))), z0, (1, 3),
               [0.0, 0.5, 1.0])
seen["lde_trajectory pair"] = [unwanted_modules(), string_modules()]
for command, *flags in (["simulate-forward"], ["simulate-backward"],
                        ["simulate-backward", "--variant", "diffusion"], ["duality-check"],
                        ["generators"], ["fixation"], ["expectations"], ["lde"]):
    assert moranrec.cli.main([command, "--config", "config.json", *flags]) == 0, command
    seen[" ".join([command, *flags])] = [unwanted_modules(), string_modules()]
print(json.dumps(seen))
"""


def test_simulators_start_without_scipy(tmp_path):
    # each command runs after the ones before it, so its lists hold theirs too; only
    # the table writers of generators, expectations and lde may load numpy.strings
    write_config(tmp_path, rho=[1.0], replicates=2, t_end=2.0)
    env = dict(os.environ, PYTHONPATH=str(Path(moranrec.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    early = ["import", "lde_trajectory pair", "simulate-forward", "simulate-backward",
             "simulate-backward --variant diffusion", "duality-check"]
    assert list(seen) == early + ["generators", "fixation", "expectations", "lde"]
    assert all(unwanted == [] for unwanted, _ in seen.values())
    assert all(seen[name][1] == [] for name in early)
