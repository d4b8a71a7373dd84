"""Command-line interface: config-driven runs with CSV outputs.

All commands read one JSON config file (schema below) and accept a small
set of override flags.  Outputs are CSV files whose first line is a
comment recording the config hash and seed, so every artifact names the
run that produced it; runs with the same config and seed are
bit-identical.

Config schema (JSON object; unknown keys are rejected)::

    {
      "sites": 2,                  // number of sites n
      "alphabet_sizes": 2,         // int, or list of n ints, each 1..10
      "population_size": 10,
      "crossover_probs": [0.2],    // n-1 values, sum <= 1
      "rho": [1.5],                // optional, n-1 rates (diffusion variant)
      "variant": "finite",         // finite | deterministic | diffusion
      "initial_counts": [4,2,1,3], // length prod(alphabet), sum N
      "initial_partition": "1,2",  // blocks "|"-separated, sites ","-separated
      "lde_sites": [1, 2],         // optional list, defaults to all sites
      "t_end": 1.0,
      "grid": [0.0, 0.5, 1.0],     // or {"stop": 1.0, "num": 11}; num optional
      "replicates": 100,           // integer >= 0
      "seed": 42,                  // integer >= 0
      "out": "runs/demo"
    }

``population_size`` must be an integer in 1..2^53: counts are held as
float64, which counts exactly only up to 2^53.  The weights of a
population file are summed exactly from their text (a float64 sum
rounds above 2^53): each must be an integer of at most 2^53, and the
sum must equal ``population_size``.
Numbers must be finite: ``NaN``, ``Infinity`` and overflowing literals are
rejected, in the config, in the weights of the population file and in the
``--t-end``, ``--grid`` and ``--tol`` flags; ``--tol`` must also be at
least 0.
A population file lists each type at most once; a second row for a type
is rejected, whatever its weight.  A config gives ``initial_counts`` or
``initial_population_file``, not both.  ``simulate-forward`` rejects a
grid that runs past ``t_end``, whose summary rows would repeat the state
at ``t_end`` as if it had been simulated.
Integer fields must be JSON integers; the entries of ``crossover_probs``
and ``rho`` must be numbers (not booleans), and ``out`` and
``initial_population_file`` strings.  ``simulate-forward``,
``expectations``, ``lde``, ``duality-check`` and ``fixation`` model the
finite population only and reject any other variant.
``lde`` solves on the partition lattice of ``lde_sites`` alone (the sites
of a subset evolve as a Moran model of their own), so only the number of
``lde_sites`` is capped at 8; ``sites`` is bounded by the dense type cap.

Size caps are module constants: 8 sites for the partition lattice
(``partitions.DEFAULT_SITE_CAP``, which also bounds the blocks of an
``initial_partition`` that ``simulate-forward`` samples with), 2^20 dense
types (``measures.DEFAULT_STATE_CAP``), 20,000 population states
(``forward.DEFAULT_POPULATION_CAP``), 2^24 individuals in the forward
simulator (``forward.DEFAULT_INDIVIDUAL_CAP``) and 2^27 values in one
output table (``DEFAULT_OUTPUT_CAP`` here): the times of a ``grid``
object, checked before the grid is built, and times x partitions x types
of ``expectations`` and ``lde`` or times x types of the
``simulate-forward`` summary, checked before anything is computed.

Exit codes: 0 success, 2 config validation failure (including a config
file that cannot be read, is a directory or is not UTF-8) or an output
that cannot be made or written, 3 size cap
exceeded (including a replicate of ``simulate-forward`` or
``simulate-backward`` that would record more than ``backward.MAX_EVENTS``
= 100,000 events before ``t_end``: the finite and diffusion partitioning
chains never absorb, and a large population takes long to; such a run,
like one above the individual cap, leaves no ``run.json`` and no
replicate CSV behind), 4 duality-check defect above tolerance,
5 output check failed (``expectations`` found a non-finite value or a
block that is not a probability vector, or ``lde`` a non-finite value; no
CSV is written), 130 interrupted (Ctrl-C; outputs may be incomplete).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .backward import (
    BackwardModel,
    generator_theta,
    generator_to_csv,
    partition_trajectory_to_csv,
    simulate_backward,
)
from .errors import ConfigError, MoranRecError, OutputCheckError, SizeCapError
from .expectations import (
    check_generator_duality,
    expected_sampling,
    fixation_2site,
    lde_conjugation_3site,
    lde_trajectory,
)
from .forward import ForwardModel, simulate_forward, trajectory_to_csv
from .measures import (
    FORMAT_CHUNK,
    PopulationState,
    SiteSpace,
    csv_table,
    format_g17,
    measure_from_csv,
    measure_to_csv,
    type_token,
)
from .operators import DiffusionRates, RecombinationDistribution, sampling, sampling_weights
from .partitions import (
    Partition,
    coarsest,
    enumerate_partitions,
    format_partition,
    lattice,
    parse_partition,
    site_set,
)

# postcondition on expected sampling measures before they are written
NEGATIVE_TOL = 1e-12
MASS_TOL = 1e-10

# Values one output table may hold (1 GiB of float64): the grid times, and
# times x partitions x types of ``expectations`` and ``lde`` or times x
# types of the ``simulate-forward`` summary.
DEFAULT_OUTPUT_CAP = 2**27

# Values per share of expectations_to_csv: 20-30 ms of formatting and writing, against
# 2-3 ms to fork a 300 MiB process.
_SHARE_MIN = 2**16

_ALLOWED_KEYS = {
    "sites", "alphabet_sizes", "population_size", "crossover_probs", "rho",
    "variant", "initial_counts", "initial_population_file", "initial_partition",
    "lde_sites", "t_end", "grid", "replicates", "seed", "out",
}


@dataclass
class RunConfig:
    space: SiteSpace
    N: int
    recomb: RecombinationDistribution
    rho: DiffusionRates | None
    variant: str
    initial: PopulationState | None
    initial_partition: Partition
    lde_sites: tuple[int, ...]
    t_end: float
    grid: np.ndarray
    replicates: int
    seed: int
    out: Path
    config_hash: str
    raw: dict


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _finite_float(text: str | float) -> float:
    try:
        value = float(text)
    except (ValueError, OverflowError):
        raise ConfigError(f"expected a finite number, got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(raw: dict, key: str, default: int | None, minimum: int) -> int:
    value = raw.get(key, default)
    _require(_is_int(value) and value >= minimum,
             f"'{key}' must be an integer of at least {minimum}")
    return value


def _number(value: object, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number")
    return _finite_float(value)


def _per_gap(values: object, key: str, n: int, cls):
    """``cls(n, values)`` for the list of ``n - 1`` numbers of config key ``key``;
    :class:`ConfigError` naming ``key`` if it is not one, or if ``cls`` rejects it."""
    _require(isinstance(values, list) and len(values) == n - 1,
             f"'{key}' must list {n - 1} values")
    try:
        return cls(n, tuple(_number(p, f"'{key}' entries") for p in values))
    except ValueError as exc:
        raise ConfigError(f"'{key}': {exc}")


def _exact_total(text: str) -> int:
    """Exact sum of the weights of a population file, read from their text;
    :class:`ConfigError` if one is not an integer of at most ``2**53`` in size."""
    total = 0
    for token, value in csv_table(text, ("type", "weight"))[1]:
        try:
            weight = int(value)
        except ValueError:  # "4.0", "1e3": exact as a decimal, its exponent never expanded
            from decimal import Decimal, InvalidOperation  # most files never need it

            try:
                exact = Decimal(value)
            except InvalidOperation:  # an exponent beyond 10**18, which float() reads
                exact = None
            _require(exact is not None and exact.is_finite() and exact.copy_abs() <= 2**53
                     and exact == exact.to_integral_value(),
                     f"weight of type {token!r} is not an integer of at most 2**53: {value!r}")
            weight = int(exact)
        total += weight
    return total


def _cap_output(values: int, what: str) -> None:
    """Raise :class:`SizeCapError` if ``what`` would hold more than
    ``DEFAULT_OUTPUT_CAP`` values; called before anything is built."""
    if values > DEFAULT_OUTPUT_CAP:
        raise SizeCapError(f"{what} would hold {values} values, above the cap of "
                           f"{DEFAULT_OUTPUT_CAP}; shorten the grid or reduce the sites")


def load_config(path: str | Path, overrides: argparse.Namespace) -> RunConfig:
    """Parse, validate and freeze a run configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), parse_float=_finite_float,
                         parse_constant=_finite_float)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}, line {exc.lineno}): {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    for field in ("seed", "replicates", "out", "variant"):
        val = getattr(overrides, field, None)
        if val is not None:
            raw[field] = val
    if getattr(overrides, "t_end", None) is not None:
        raw["t_end"] = _finite_float(overrides.t_end)
    if getattr(overrides, "grid", None) is not None:
        raw["grid"] = [_finite_float(x) for x in overrides.grid.split(",")]

    n = _int_field(raw, "sites", None, 1)
    alph = raw.get("alphabet_sizes", 2)
    cards = (alph,) * n if _is_int(alph) else alph
    _require(isinstance(cards, (tuple, list)) and len(cards) == n
             and all(_is_int(c) and 1 <= c <= 10 for c in cards),
             f"'alphabet_sizes' must be an int or a list of {n} ints, each in 1..10")
    try:
        space = SiteSpace(cards)
    except SizeCapError as exc:
        raise ConfigError(str(exc))

    N = _int_field(raw, "population_size", None, 1)
    _require(N <= 2**53, f"'population_size' must be at most 2**53 = {2**53}")

    recomb = _per_gap(raw.get("crossover_probs", [0.0] * (n - 1)), "crossover_probs", n,
                      RecombinationDistribution)
    rho = None if raw.get("rho") is None else _per_gap(raw["rho"], "rho", n, DiffusionRates)

    variant = raw.get("variant", "finite")
    _require(variant in ("finite", "deterministic", "diffusion"),
             "'variant' must be finite, deterministic or diffusion")
    _require(variant != "diffusion" or rho is not None,
             "diffusion variant needs 'rho'")

    initial = None
    _require(raw.get("initial_counts") is None or raw.get("initial_population_file") is None,
             "give 'initial_counts' or 'initial_population_file', not both")
    if raw.get("initial_counts") is not None:
        counts = raw["initial_counts"]
        _require(isinstance(counts, list) and len(counts) == space.total_states,
                 f"'initial_counts' must list {space.total_states} integers")
        _require(all(_is_int(c) and c >= 0 for c in counts),
                 "'initial_counts' must be nonnegative integers")
        _require(sum(counts) == N, f"'initial_counts' must sum to {N}")
        initial = PopulationState.from_counts(space, counts)
    elif raw.get("initial_population_file") is not None:
        _require(isinstance(raw["initial_population_file"], str),
                 "'initial_population_file' must be a string")
        pop_path = path.parent / raw["initial_population_file"]
        _require(pop_path.is_file(), f"population file not found: {pop_path}")
        try:
            text = pop_path.read_text()
            m = measure_from_csv(text, space.sites, space.cards)
            _require(_exact_total(text) == N, f"population file must sum to {N}")
            initial = PopulationState(m, N)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"population file {pop_path}: {exc}")

    part_text = raw.get("initial_partition")
    if part_text is None:
        initial_partition = coarsest(range(1, n + 1))
    else:
        try:
            initial_partition = parse_partition(part_text)
        except Exception as exc:
            raise ConfigError(f"'initial_partition': {exc}")
        _require(initial_partition.ground == tuple(range(1, n + 1)),
                 f"'initial_partition' must cover sites 1..{n}")
    _require(variant != "finite" or len(initial_partition) <= N,
             "'initial_partition' has more blocks than individuals")

    lde_sites = raw.get("lde_sites", list(range(1, n + 1)))
    _require(isinstance(lde_sites, list) and lde_sites
             and all(_is_int(s) and 1 <= s <= n for s in lde_sites),
             f"'lde_sites' must be a nonempty list of site labels in 1..{n}")

    t_end = _number(raw.get("t_end", 1.0), "'t_end'")
    _require(t_end >= 0, "'t_end' must be nonnegative")

    grid_spec = raw.get("grid")
    if grid_spec is None:
        grid = np.linspace(0.0, t_end, 11)
    elif isinstance(grid_spec, dict):
        _require(set(grid_spec) <= {"stop", "num"}, "'grid' object takes stop and num")
        _require("stop" in grid_spec, "'grid' object needs 'stop'")
        stop = _number(grid_spec["stop"], "'grid' stop")
        _require(stop >= 0, "'grid' stop must be nonnegative")
        num = _int_field(grid_spec, "num", 11, 1)
        _cap_output(num, "'grid'")
        grid = np.linspace(0.0, stop, num)
    else:
        _require(isinstance(grid_spec, list) and grid_spec, "'grid' must be a list")
        grid = np.asarray([_number(x, "'grid' times") for x in grid_spec])
        _require(bool(np.all(np.diff(grid) >= 0)) and grid[0] >= 0,
                 "'grid' must be nondecreasing and nonnegative")

    replicates = _int_field(raw, "replicates", 0, 0)
    seed = _int_field(raw, "seed", 0, 0)
    out = raw.get("out", ".")
    _require(isinstance(out, str), "'out' must be a string")

    return RunConfig(
        space=space, N=N, recomb=recomb, rho=rho, variant=variant,
        initial=initial, initial_partition=initial_partition,
        lde_sites=tuple(lde_sites), t_end=t_end, grid=grid, replicates=replicates,
        seed=seed, out=Path(out),
        config_hash=config_hash(raw), raw=raw,
    )


def _stamp(cfg: RunConfig) -> str:
    return f"config={cfg.config_hash} seed={cfg.seed} moranrec={__version__}"


def _target(cfg: RunConfig, name: str) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / name


def _write(cfg: RunConfig, name: str, text: str) -> Path:
    target = _target(cfg, name)
    target.write_text(text)
    return target


def _write_manifest(cfg: RunConfig, command: str) -> None:
    manifest = {
        "command": command,
        "config": cfg.raw,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "version": __version__,
    }
    _write(cfg, "run.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _need_initial(cfg: RunConfig) -> PopulationState:
    if cfg.initial is None:
        raise ConfigError("this command needs 'initial_counts' or 'initial_population_file'")
    return cfg.initial


def expectations_to_csv(path: Path, times, partitions, cards, values,
                        comment: str) -> None:
    """Write rows ``time,partition,type,value`` of a (times, partitions, types) block.

    Each value is written as ``%.17g`` writes it, through
    :func:`~moranrec.measures.format_g17` on chunks of at most ``FORMAT_CHUNK``
    values: whole (time, partition) blocks, or pieces of one block with more
    types.

    The (time, partition) blocks go in ``W`` contiguous shares, ``W`` the least
    of the block count, the CPUs this process may run on and one per
    ``_SHARE_MIN`` values (1 without ``os.fork``).  Forked children write all
    but the first to unlinked temporary files beside ``path``, appended in
    order by ``os.sendfile``.  A share whose file, fork or child fails is
    written here, so the bytes never depend on ``W``; an exception kills and
    reaps every child.
    """
    labels = [f'"{format_partition(p)}",' for p in partitions]  # each formatted once
    prefixes = [f"{t:.17g},{label}".encode() for t in times for label in labels]
    # one %-template per block or piece: the prefix (a time and a partition) holds no '%'
    rows = [f"{type_token(cards, xi)},%s\n".encode() for xi in range(values.shape[2])]
    flat = values.reshape(-1, values.shape[2])
    K = flat.shape[1]
    per, width = max(1, FORMAT_CHUNK // K), min(K, FORMAT_CHUNK)  # blocks, types per chunk

    def blocks(f, start: int, stop: int) -> None:
        for lo in range(start, stop, per):
            chunk = flat[lo:min(lo + per, stop)]
            for i in range(0, K, width):  # a block longer than a chunk goes in pieces
                part = rows[i:i + width]
                text = format_g17(chunk[:, i:i + width].ravel())
                for b, j in enumerate(range(0, len(text), len(part)), lo):
                    prefix = prefixes[b]
                    f.write((prefix + prefix.join(part)) % tuple(text[j:j + len(part)]))

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = (len(affinity(0)) if affinity else os.cpu_count() or 1) if hasattr(os, "fork") else 1
    W = max(1, min(cpus, values.size // _SHARE_MIN, len(flat)))
    shares = [(len(flat) * k // W, len(flat) * (k + 1) // W) for k in range(W)]
    with open(path, "wb") as f, ExitStack() as temps:
        f.write(f"# {comment}\ntime,partition,type,value\n".encode())
        f.flush()  # a child inherits no buffered bytes
        parent, files, pids = os.getpid(), {}, {}  # by share: temporary files, unreaped children
        try:
            for k in range(1, W):
                try:
                    files[k] = temps.enter_context(tempfile.TemporaryFile(dir=path.parent))
                    pids[k] = os.fork()
                    if not pids[k]:  # the child formats share k and leaves by os._exit
                        blocks(files[k], *shares[k])
                        files[k].flush()
                        os._exit(0)
                except OSError:  # no file or no child: this process formats share k
                    pass
                finally:
                    if os.getpid() != parent:  # a child that failed never returns
                        os._exit(1)
            blocks(f, *shares[0])
            for k in range(1, W):
                if k in pids and os.waitpid(pids[k], 0)[1] == 0:
                    del pids[k]
                    f.flush()
                    done, size = 0, os.fstat(files[k].fileno()).st_size
                    while done < size:
                        done += os.sendfile(f.fileno(), files[k].fileno(), done, size - done)
                else:
                    pids.pop(k, None)
                    blocks(f, *shares[k])
        finally:
            for pid in pids.values():
                os.kill(pid, 9)  # SIGKILL: no need to load the signal module
                os.waitpid(pid, 0)


def _check_output(values: np.ndarray, probability: bool) -> None:
    """Raise :class:`OutputCheckError` unless every value is finite and, when
    ``probability``, every (time, partition) block is a probability vector."""
    if not np.isfinite(values).all():
        raise OutputCheckError("non-finite value in the computed output")
    if probability:
        low = float(values.min())
        mass = float(np.abs(values.sum(axis=-1) - 1.0).max())
        if low < -NEGATIVE_TOL or mass > MASS_TOL:
            raise OutputCheckError(
                f"a block is not a probability vector (min {low:.3e}, "
                f"max |sum-1| {mass:.3e})")


def _write_replicates(cfg: RunConfig, files: Iterable[tuple[str, str]]) -> None:
    """Write each (name, text) as it is made; if making one exceeds a size
    cap, remove those already written and re-raise."""
    written: list[Path] = []
    try:
        for name, text in files:
            written.append(_write(cfg, name, text))
    except SizeCapError:
        for path in written:
            path.unlink()
        raise


def cmd_simulate_forward(cfg: RunConfig) -> int:
    z0 = _need_initial(cfg)
    _require(cfg.grid[-1] <= cfg.t_end,
             f"'grid' runs to {cfg.grid[-1]:g}, past 't_end' = {cfg.t_end:g}; "
             "simulate-forward reports only simulated times")
    model = ForwardModel(cfg.space, cfg.N, cfg.recomb)
    a0 = cfg.initial_partition
    h0 = sampling(a0, z0.measure).weights  # before any output: a cap error writes nothing
    _cap_output(cfg.grid.size * cfg.space.total_states, "forward_summary.csv")
    stamp = _stamp(cfg)
    grid = cfg.grid
    mean = np.zeros((grid.size, cfg.space.total_states))
    msq = np.zeros_like(mean)

    def replicates():
        for rep in range(cfg.replicates):
            rec = simulate_forward(model, z0, cfg.t_end, cfg.seed, replicate=rep)
            counts = np.array(list(rec.states_at(grid)))
            h = sampling_weights(a0, counts.reshape(grid.shape + cfg.space.cards), cfg.N)
            mean[:] += h
            msq[:] += h * h
            yield (f"forward_rep{rep:04d}.csv",
                   trajectory_to_csv(rec, cfg.space.cards, f"{stamp} replicate={rep}"))

    _write_replicates(cfg, replicates())
    _write_manifest(cfg, "simulate-forward")
    lines = [f"# {stamp}", "time,type,mean_h,stderr"]
    tokens = [type_token(cfg.space.cards, xi) for xi in range(h0.size)]
    if cfg.replicates == 0:
        lines += [f"0,{tok},{h:.17g},0" for tok, h in zip(tokens, h0.tolist())]
    else:
        mean /= cfg.replicates
        var = np.maximum(msq / cfg.replicates - mean**2, 0.0)
        se = np.sqrt(var / cfg.replicates)
        for t, means, errors in zip(grid.tolist(), mean, se):
            lines += [f"{t:.17g},{tok},{m:.17g},{e:.17g}"
                      for tok, m, e in zip(tokens, means.tolist(), errors.tolist())]
    _write(cfg, "forward_summary.csv", "\n".join(lines) + "\n")
    _write(cfg, "initial_population.csv", f"# {stamp}\n" + measure_to_csv(z0.measure))
    print(f"simulate-forward: {cfg.replicates} replicates -> {cfg.out}")
    return 0


def cmd_simulate_backward(cfg: RunConfig) -> int:
    model = BackwardModel(cfg.space.n, cfg.N, cfg.recomb, cfg.variant, cfg.rho)
    stamp = _stamp(cfg)
    _write_replicates(cfg, (
        (f"backward_rep{rep:04d}.csv",
         partition_trajectory_to_csv(
             simulate_backward(model, cfg.initial_partition, cfg.t_end, cfg.seed, replicate=rep),
             f"{stamp} replicate={rep} variant={cfg.variant}"))
        for rep in range(cfg.replicates)))
    _write_manifest(cfg, "simulate-backward")
    print(f"simulate-backward[{cfg.variant}]: {cfg.replicates} replicates -> {cfg.out}")
    return 0


def cmd_expectations(cfg: RunConfig) -> int:
    z0 = _need_initial(cfg)
    model = BackwardModel(cfg.space.n, cfg.N, cfg.recomb, "finite", cfg.rho)
    partitions = int((lattice(cfg.space.n).sizes <= cfg.N).sum())
    _cap_output(cfg.grid.size * partitions * cfg.space.total_states, "expected_sampling.csv")
    traj = expected_sampling(model, z0, cfg.grid)
    _check_output(traj.values, probability=True)
    _write_manifest(cfg, "expectations")
    expectations_to_csv(_target(cfg, "expected_sampling.csv"), traj.times,
                        traj.partitions, traj.cards, traj.values, _stamp(cfg))
    print(f"expectations: {traj.times.size} times x {len(traj.partitions)} "
          f"partitions -> {cfg.out}")
    return 0


def cmd_lde(cfg: RunConfig) -> int:
    z0 = _need_initial(cfg)
    model = BackwardModel(cfg.space.n, cfg.N, cfg.recomb, "finite", cfg.rho)
    u = site_set(cfg.lde_sites)
    types = math.prod(cfg.space.cards[s - 1] for s in u)
    _cap_output(cfg.grid.size * len(lattice(len(u)).sizes) * types, "expected_lde.csv")
    traj = lde_trajectory(model, z0, cfg.lde_sites, cfg.grid)
    _check_output(traj.values, probability=False)
    _write_manifest(cfg, "lde")
    expectations_to_csv(_target(cfg, "expected_lde.csv"), traj.times,
                        traj.partitions, traj.cards, traj.values, _stamp(cfg))
    if cfg.space.n == 3 and cfg.N < 3:
        print("lde: no 3-site diagonalization, the finite transform needs N >= 3")
    elif cfg.space.n == 3:
        report = [f"# {_stamp(cfg)}"]
        for variant in ("finite",) + (("diffusion",) if cfg.rho is not None else ()):
            m = BackwardModel(3, cfg.N, cfg.recomb, variant, cfg.rho)
            tr = lde_conjugation_3site(m)
            diag = ", ".join(f"{d:.12g}" for d in np.diag(tr.conjugated))
            print(f"lde[{variant}]: conjugated diagonal = [{diag}]")
            report.append(f"variant={variant}")
            report.append("eigenvalues: " + diag)
            resid = float(np.abs(tr.V @ tr.D @ tr.Vinv - tr.conjugated).max())
            report.append(f"diagonalization_residual: {resid:.3e}")
        _write(cfg, "lde_diagonalization.txt", "\n".join(report) + "\n")
    print(f"lde: sites {cfg.lde_sites} -> {cfg.out}")
    return 0


def cmd_duality_check(cfg: RunConfig, tol: float = 1e-8) -> int:
    fwd = ForwardModel(cfg.space, cfg.N, cfg.recomb)
    bwd = BackwardModel(cfg.space.n, cfg.N, cfg.recomb, "finite", cfg.rho)
    defect = check_generator_duality(fwd, bwd)
    _write_manifest(cfg, "duality-check")
    _write(cfg, "duality_report.txt",
           f"# {_stamp(cfg)}\nmax_defect: {defect:.6e}\ntolerance: {tol:.6e}\n"
           f"status: {'ok' if defect <= tol else 'FAIL'}\n")
    print(f"duality-check: defect {defect:.3e} "
          f"({'<' if defect <= tol else '>'}= tol {tol:.1e})")
    return 0 if defect <= tol else 4


def cmd_fixation(cfg: RunConfig) -> int:
    z0 = _need_initial(cfg)
    model = ForwardModel(cfg.space, cfg.N, cfg.recomb)
    fix = fixation_2site(model, z0)
    _write_manifest(cfg, "fixation")
    _write(cfg, "fixation.csv", f"# {_stamp(cfg)}\n" + measure_to_csv(fix))
    for xi in range(fix.n_states):
        print(f"fixation[{type_token(cfg.space.cards, xi)}] = {fix.weights[xi]:.12g}")
    return 0


def cmd_generators(cfg: RunConfig) -> int:
    """Extra: dump the partition generator(s) as dense CSV."""
    model = BackwardModel(cfg.space.n, cfg.N, cfg.recomb, "finite", cfg.rho)
    variants = ("finite", "deterministic") + (("diffusion",) if cfg.rho is not None else ())
    generators = {f"theta_{v}.csv": generator_theta(replace(model, variant=v))
                  for v in variants}
    # every generator is built (and the site cap checked) before anything is written
    _write_manifest(cfg, "generators")
    stamp = _stamp(cfg)
    partitions = enumerate_partitions(model.sites)  # the row order of every generator
    for name, gen in generators.items():
        _write(cfg, name, generator_to_csv(gen, partitions, stamp))
    print(f"generators -> {cfg.out}")
    return 0


FINITE_COMMANDS = ("simulate-forward", "expectations", "lde", "duality-check", "fixation")

COMMANDS = {
    "simulate-forward": cmd_simulate_forward,
    "simulate-backward": cmd_simulate_backward,
    "expectations": cmd_expectations,
    "lde": cmd_lde,
    "duality-check": cmd_duality_check,
    "fixation": cmd_fixation,
    "generators": cmd_generators,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranrec",
        description="Moran model with single-crossover recombination and its "
                    "partitioning dual",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", dest="replicates", type=int, default=None)
        p.add_argument("--t-end", dest="t_end", type=str, default=None)
        p.add_argument("--grid", type=str, default=None,
                       help="comma-separated times, overrides the config grid")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--variant", type=str, default=None,
                       choices=("finite", "deterministic", "diffusion"))
        if name == "duality-check":
            p.add_argument("--tol", type=str, default="1e-8",
                           help="largest accepted duality defect, a finite number >= 0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        cfg = load_config(args.config, args)
        if args.command in FINITE_COMMANDS and cfg.variant != "finite":
            raise ConfigError(f"{args.command} supports only the finite variant, "
                              f"got {cfg.variant!r}")
        if args.command == "duality-check":
            tol = _finite_float(args.tol)
            _require(tol >= 0, f"'--tol' must be nonnegative, got {args.tol}")
            return cmd_duality_check(cfg, tol=tol)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except OutputCheckError as exc:
        print(f"output check failed, nothing written: {exc}", file=sys.stderr)
        return 5
    except MoranRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # config and population files raise ConfigError instead
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # the CSV writer has killed and reaped its children
        print(f"interrupted: outputs under {cfg.out if cfg else 'the output directory'} "
              "may be incomplete", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
