"""Workload inputs (made from a seed) and output checks.

Every workload is built from ``(seed, smoke)``: the seed draws the random
inputs, and ``smoke`` swaps in tiny sizes for the benchmark's own tests.
The program under test only ever sees the generated configs and counts.
Why each workload exists is written down in ``README.md`` next to this
file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

DEFECT_TOL = 1e-10
ROW_SUM_TOL = 1e-12
LDE_T0_TOL = 1e-10


def _counts(rng: np.random.Generator, n_types: int, N: int) -> list[int]:
    return rng.multinomial(N, np.full(n_types, 1.0 / n_types)).tolist()


# ---------------------------------------------------------------- inputs


def expect_configs(seed: int, smoke: bool) -> dict[str, dict]:
    """Exact expected sampling measures for every partition on a time grid."""
    n, N, r, num = (3, 6, 0.1, 3) if smoke else (7, 20, 0.05, 11)
    rng = np.random.default_rng([seed, 7])
    return {"expectations": {
        "sites": n, "alphabet_sizes": 2, "population_size": N,
        "crossover_probs": [r] * (n - 1),
        "initial_counts": _counts(rng, 2 ** n, N),
        "grid": {"stop": 2.0, "num": num}, "out": "out",
    }}


def duality_configs(seed: int, smoke: bool) -> dict[str, dict]:
    """Generator duality on the dense population state space."""
    cards, N = ([2, 2], 4) if smoke else ([2, 2, 2], 8)
    rng = np.random.default_rng([seed, 3])
    probs = rng.uniform(0.05, 0.45, len(cards) - 1).round(6).tolist()
    return {"duality-check": {
        "sites": len(cards), "alphabet_sizes": cards, "population_size": N,
        "crossover_probs": probs, "out": "out",
    }}


def simulate_configs(seed: int, smoke: bool) -> dict[str, dict]:
    """Seeded forward (K types, N individuals) and backward (finite) paths."""
    if smoke:
        nf, Nf, fwd_reps, nb, Nb, t_back, bwd_reps = 3, 20, 1, 3, 6, 20.0, 2
    else:
        nf, Nf, fwd_reps, nb, Nb, t_back, bwd_reps = 8, 1000, 2, 8, 20, 400.0, 40
    rng = np.random.default_rng([seed, 8])
    return {
        "simulate-forward": {
            "sites": nf, "alphabet_sizes": 2, "population_size": Nf,
            "crossover_probs": [0.05] * (nf - 1),
            "initial_counts": _counts(rng, 2 ** nf, Nf),
            "t_end": 1.0, "replicates": fwd_reps,
            "seed": int(rng.integers(2 ** 31)), "out": "out/forward",
        },
        "simulate-backward": {
            "sites": nb, "alphabet_sizes": 2, "population_size": Nb,
            "crossover_probs": [0.1] * (nb - 1), "variant": "finite",
            "t_end": t_back, "replicates": bwd_reps,
            "seed": int(rng.integers(2 ** 31)), "out": "out/backward",
        },
    }


def lde_inputs(seed: int, smoke: bool) -> dict:
    """All site pairs of an n-site population, for ``lde_trajectory``."""
    n, N, num = (3, 5, 3) if smoke else (5, 12, 6)
    rng = np.random.default_rng([seed, 5])
    return {
        "sites": n, "population_size": N, "crossover_probs": [0.1] * (n - 1),
        "initial_counts": _counts(rng, 2 ** n, N),
        "times": np.linspace(0.0, 2.5, num).tolist(),
        "pairs": list(itertools.combinations(range(1, n + 1), 2)),
    }


def warm_up(inputs: dict) -> None:
    """First ``lde_trajectory`` call of a fresh process (fills any cache)."""
    import moranrec as mr

    model, z0 = lde_model(mr, inputs)
    mr.lde_trajectory(model, z0, tuple(inputs["pairs"][0]), inputs["times"])


def lde_model(mr, inputs: dict):
    """Backward model and initial population of the LDE sweep."""
    n, N = inputs["sites"], inputs["population_size"]
    model = mr.BackwardModel(n, N, mr.RecombinationDistribution(n, tuple(inputs["crossover_probs"])))
    return model, mr.PopulationState.from_counts(mr.SiteSpace((2,) * n), inputs["initial_counts"])


# ---------------------------------------------------------------- checks
#
# A check returns a list of problems; an empty list means the output is
# correct.  ``seen`` maps file names to digests from earlier iterations of
# the same run, so a rerun with the same config and seed must reproduce
# every byte.


def _same_bytes(path: Path, seen: dict[str, str]) -> list[str]:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    first = seen.setdefault(str(path), digest)
    return [] if first == digest else [f"{path.name}: bytes differ from the first run"]


def check_expectations(work: Path, cfg: dict, seen: dict) -> list[str]:
    """Every (time, partition) block of the CSV is a probability vector."""
    n, T = cfg["sites"], cfg["grid"]["num"]
    K, B = 2 ** n, _bell(n)
    path = work / cfg["out"] / "expected_sampling.csv"
    lines = path.read_text().split("\n")
    if lines[1] != "time,partition,type,value" or lines[-1] != "":
        return ["expected_sampling.csv: bad header or truncated file"]
    rows = lines[2:-1]
    if len(rows) != T * B * K:
        return [f"expected_sampling.csv: {len(rows)} rows, want {T * B * K}"]
    keys = {rows[g * K].rsplit(",", 2)[0] for g in range(T * B)}
    ends = {rows[g * K + K - 1].rsplit(",", 2)[0] for g in range(T * B)}
    if len(keys) != T * B or keys != ends:
        return ["expected_sampling.csv: rows are not grouped by (time, partition)"]
    vals = np.array([r.rpartition(",")[2] for r in rows], dtype=float).reshape(T * B, K)
    problems = []
    if not np.isfinite(vals).all():
        problems.append("expected_sampling.csv: non-finite value")
    elif vals.min() < -ROW_SUM_TOL or np.abs(vals.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        problems.append("expected_sampling.csv: a row is not a probability vector "
                        f"(max |sum-1| = {np.abs(vals.sum(axis=1) - 1.0).max():.3e})")
    return problems + _same_bytes(path, seen)


def check_duality(work: Path, cfg: dict, seen: dict) -> list[str]:
    """The reported generator duality defect is within 1e-10."""
    report = (work / cfg["out"] / "duality_report.txt").read_text()
    fields = dict(line.split(": ", 1) for line in report.splitlines()[1:])
    defect = float(fields["max_defect"])
    if not defect <= DEFECT_TOL or fields["status"] != "ok":
        return [f"duality defect {defect:.3e} above {DEFECT_TOL:.0e}"]
    return []


def check_forward(work: Path, cfg: dict, seen: dict) -> list[str]:
    """Every event removes an existing individual and adds a different
    type, so the counts stay at N; every replicate replays byte for byte."""
    problems = []
    cards = [2] * cfg["sites"]
    for rep in range(cfg["replicates"]):
        path = work / cfg["out"] / f"forward_rep{rep:04d}.csv"
        counts = list(cfg["initial_counts"])
        last = 0.0
        for line in path.read_text().splitlines()[2:]:
            t, y, x = line.split(",")
            t, y, x = float(t), _type_index(cards, y), _type_index(cards, x)
            if not last <= t < cfg["t_end"] or counts[y] == 0 or x == y:
                problems.append(f"{path.name}: invalid event {line!r}")
                break
            counts[y] -= 1
            counts[x] += 1
            last = t
        problems += _same_bytes(path, seen)
    return problems


def check_backward(work: Path, cfg: dict, seen: dict) -> list[str]:
    """Every state partitions the sites into at most N blocks; every
    replicate replays byte for byte."""
    problems = []
    sites = list(range(1, cfg["sites"] + 1))
    for rep in range(cfg["replicates"]):
        path = work / cfg["out"] / f"backward_rep{rep:04d}.csv"
        last = 0.0
        for line in path.read_text().splitlines()[2:]:
            t, part = line.split(",", 1)
            blocks = [[int(s) for s in b.split(",")] for b in part.strip('"').split("|")]
            if (not last <= float(t) < cfg["t_end"] or len(blocks) > cfg["population_size"]
                    or sorted(s for b in blocks for s in b) != sites):
                problems.append(f"{path.name}: invalid state {line!r}")
                break
            last = float(t)
        problems += _same_bytes(path, seen)
    return problems


def count_rows(work: Path, cfg: dict) -> int:
    """Data rows (events) in the replicate CSVs of one simulate command."""
    return sum(len(p.read_text().splitlines()) - 2
               for p in (work / cfg["out"]).glob("*_rep*.csv"))


def _type_index(cards: list[int], token: str) -> int:
    if len(token) != len(cards):
        raise ValueError(f"type token {token!r} does not have {len(cards)} digits")
    idx = 0
    for card, digit in zip(cards, token):
        idx = idx * card + int(digit)
    return idx


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def write_configs(configs: dict[str, dict], work: Path) -> None:
    """Write one JSON config per command into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    for command, cfg in configs.items():
        (work / f"{command}.json").write_text(json.dumps(cfg, sort_keys=True))



CONFIGS = {
    "expect-n7": expect_configs,
    "duality-n3": duality_configs,
    "simulate-n8": simulate_configs,
}

CHECKS = {
    "expectations": check_expectations,
    "duality-check": check_duality,
    "simulate-forward": check_forward,
    "simulate-backward": check_backward,
}


def check_lde(mr, z0, u: tuple[int, int], traj, reference) -> list[str]:
    """The t=0 rows equal ``lde_operator`` on the pair marginal, and the
    sweep reproduces the warm-up sweep exactly."""
    marginal = mr.marginalize(z0.measure, u)
    err = max(float(np.abs(traj.values[0, i] - mr.lde_operator(p, marginal).weights).max())
              for i, p in enumerate(traj.partitions))
    problems = [] if err <= LDE_T0_TOL else [f"pair {u}: t=0 LDE off by {err:.3e}"]
    if reference is not None and not np.array_equal(traj.values, reference.values):
        problems.append(f"pair {u}: values differ from the warm-up sweep")
    return problems
