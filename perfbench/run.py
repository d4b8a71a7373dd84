"""moranrec benchmark: four workloads, output checks, end-to-end and layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload expect-n7 --seed 1 --seconds 15 --trace 0

The program is built from ``src/`` of the checkout this file sits in.
Inputs come from ``--seed``; outputs are checked every iteration.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken from traced
iterations that alternate with untraced ones (their difference is the
tracing overhead).  The line before it holds quartiles, sample counts and
the machine and environment record; the same record, plus the raw spans
of a traced run, is written under ``perfbench/out/``.  ``--smoke`` swaps
in tiny sizes for the benchmark's own tests.  See ``README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere (this process and every child), recorded below.
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "partitions.B": "count",
    "partitions.enumerate_partitions.s": "s",
    "partitions.refines.calls": "count",
    "partitions.mobius.calls": "count",
    "backward.generator_theta.s": "s",
    "backward.generator_theta.calls": "count",
    "backward.generator_theta.nnz": "count",
    "backward.simulate_backward.s": "s",
    "backward.events": "count",
    "backward.us_per_event": "us",
    "operators.recombinator_bar.calls": "count",
    "operators.recombinator_bar.s": "s",
    "operators.recombinator_bar.calls_per_partition": "calls/partition",
    "measures.marginalize.calls": "count",
    "expectations.sampling_stack.s": "s",
    "expectations.integrate.self_s": "s",
    "expectations.lde_transform.s": "s",
    "expectations.lde_trajectory.self_s": "s",
    "expectations.sampling_table.s": "s",
    "expectations.mobius_matrix.s": "s",
    "expectations.check_generator_duality.self_s": "s",
    "forward.generator_lambda.s": "s",
    "forward.generator_lambda.nnz": "count",
    "markov.pop_states": "count",
    "forward.simulate_forward.s": "s",
    "forward.events": "count",
    "forward.us_per_event": "us",
    "forward.replacement_distribution.calls": "count",
    "cli.load_config.s": "s",
    "cli.expectations_to_csv.s": "s",
    "cli.out_bytes": "bytes",
    "forward.trajectory_to_csv.s": "s",
    "backward.partition_trajectory_to_csv.s": "s",
    "fwd_events_per_s": "1/s",
    "bwd_events_per_s": "1/s",
    "trace.overhead_s": "s",
}
WORKLOADS = ("expect-n7", "lde-pairs-n5", "duality-n3", "simulate-n8")
MIN_ITERATIONS = 5        # untraced iterations per run with --trace 0
MIN_TRACED = 3            # traced and untraced iterations each with --trace 1
SETUP_REPEATS = 5         # cold set-ups per run; setup_s is their median
MEASURE_CAP_S = 100.0     # stop starting iterations past this, whatever --seconds says
CHILD_TIMEOUT_S = 60.0    # a child still running then is killed and counted as failed
DEADLINE = time.monotonic() + 170.0  # no child outlives this, so a run ends within 180 s
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Iteration:
    """One timed unit of work and what it produced."""

    wall: float
    rss_mib: float
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    record: dict | None = None          # merged probe record when traced
    out_bytes: int = 0
    failed: int = 0
    events: dict[str, tuple[int, float]] = field(default_factory=dict)  # simulate command -> events, wall


def run_child(args: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run ``child.py`` with ``args``; return exit code, wall seconds, peak RSS (MiB)."""
    with open(cwd / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=cwd, env=CHILD_ENV, stdout=log, stderr=subprocess.STDOUT)
        timeout = max(0.0, min(CHILD_TIMEOUT_S, DEADLINE - time.monotonic()))
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cold_setups(name: str, seed: int, smoke: bool, work: Path) -> tuple[list[float], int]:
    """Time fresh processes that import the program and write the inputs."""
    times, failed = [], 0
    for _ in range(2 if smoke else SETUP_REPEATS):
        code, wall, _ = run_child(["setup", name, str(seed), "1" if smoke else "0", str(work)], work)
        times.append(wall)
        failed += code != 0
    return times, failed


class ColdWorkload:
    """CLI commands, each run in a fresh process every iteration."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.work = work
        self.setup_times, self.setup_failed = cold_setups(name, seed, smoke, work)
        self.setup_attempted = len(self.setup_times)
        self.configs = workloads.CONFIGS[name](seed, smoke)
        self.commands = list(self.configs)
        workloads.write_configs(self.configs, work)
        self.seen: dict[str, str] = {}

    def iterate(self, traced: bool) -> Iteration:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        it = Iteration(wall=0.0, rss_mib=0.0)
        records = []
        for command in self.commands:
            trace_file = self.work / f"{command}.trace.json"
            trace_file.unlink(missing_ok=True)
            args = ["cli", str(trace_file) if traced else "-", command,
                    "--config", f"{command}.json"]
            if command == "duality-check":
                args += ["--tol", repr(workloads.DEFECT_TOL)]
            code, wall, rss = run_child(args, self.work)
            it.wall += wall
            it.rss_mib = max(it.rss_mib, rss)
            it.attempted += 1
            cfg = self.configs[command]
            try:
                problems = ([f"{command}: exit code {code}"] if code != 0 else
                            workloads.CHECKS[command](self.work, cfg, self.seen))
                if traced and not problems:
                    records.append(json.loads(trace_file.read_text()))
                if command.startswith("simulate") and not problems:
                    it.events[command] = (workloads.count_rows(self.work, cfg), wall)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"{command}: output unreadable ({exc!r})"]
            it.problems += problems
            it.failed += bool(problems)
        it.out_bytes = sum(p.stat().st_size for p in (self.work / "out").rglob("*") if p.is_file())
        if traced:
            it.record = probes.merge(records)
        return it


class LdeWorkload:
    """Warm in-process sweep of ``lde_trajectory`` over every site pair."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.setup_times, self.setup_failed = cold_setups(name, seed, smoke, work)
        sys.path.insert(0, str(SRC))
        import moranrec as mr

        if Path(mr.__file__).resolve().parent != SRC / "moranrec":
            raise SystemExit(f"imported moranrec from {mr.__file__}, not from {SRC}")
        inputs = workloads.lde_inputs(seed, smoke)
        self.mr = mr
        self.model, self.z0 = workloads.lde_model(mr, inputs)
        self.times = np.array(inputs["times"])
        self.pairs = [tuple(u) for u in inputs["pairs"]]
        self.reference: dict = {}
        self.setup_attempted = len(self.setup_times) + 1
        try:
            workloads.warm_up(inputs)
        except Exception:  # counted as a failed set-up; the sweeps report their own errors
            self.setup_failed += 1

    def sweep(self) -> tuple[float, dict, dict]:
        results, errors = {}, {}
        start = time.perf_counter()
        for u in self.pairs:
            try:
                results[u] = self.mr.lde_trajectory(self.model, self.z0, u, self.times)
            except Exception as exc:  # a failing call is a failed operation, not a crash
                errors[u] = repr(exc)
        return time.perf_counter() - start, results, errors

    def iterate(self, traced: bool) -> Iteration:
        tracer = probes.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, results, errors = self.sweep()
        finally:
            if tracer:
                tracer.uninstall()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        it = Iteration(wall=wall, rss_mib=rss, attempted=len(self.pairs),
                       record=tracer.dump() if tracer else None)
        for u in self.pairs:
            try:
                problems = ([f"pair {u}: {errors[u]}"] if u in errors else
                            workloads.check_lde(self.mr, self.z0, u, results[u],
                                                self.reference.get(u)))
            except Exception as exc:  # the program's own LDE operator failed the check
                problems = [f"pair {u}: check raised {exc!r}"]
            it.problems += problems
            it.failed += bool(problems)
        if not self.reference:
            self.reference = results
        return it


def layer_values(it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    rec = it.record
    spans, counts, values = probes.summarize(rec), rec["counts"], rec["values"]

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    rbar_calls = span("operators.recombinator_bar", "calls")
    fwd_s, bwd_s = span("forward.simulate_forward"), span("backward.simulate_backward")
    fwd_n, bwd_n = values.get("forward.events", 0), values.get("backward.events", 0)
    return {
        "partitions.B": values.get("partitions.B", 0),
        "partitions.enumerate_partitions.s": span("partitions.enumerate_partitions"),
        "partitions.refines.calls": counts.get("partitions.refines", 0),
        "partitions.mobius.calls": counts.get("partitions.mobius", 0),
        "backward.generator_theta.s": span("backward.generator_theta"),
        "backward.generator_theta.calls": span("backward.generator_theta", "calls"),
        "backward.generator_theta.nnz": values.get("backward.generator_theta.nnz", 0),
        "backward.simulate_backward.s": bwd_s,
        "backward.events": bwd_n,
        "backward.us_per_event": per(bwd_s, bwd_n, 1e6),
        "operators.recombinator_bar.calls": rbar_calls,
        "operators.recombinator_bar.s": span("operators.recombinator_bar"),
        "operators.recombinator_bar.calls_per_partition": per(
            rbar_calls, len(rec["distinct"].get("operators.recombinator_bar.partitions", ()))),
        "measures.marginalize.calls": counts.get("measures.marginalize", 0),
        "expectations.sampling_stack.s": span("expectations.sampling_stack"),
        "expectations.integrate.self_s": span("expectations.expected_sampling", "self_s"),
        "expectations.lde_transform.s": span("expectations.lde_transform"),
        "expectations.lde_trajectory.self_s": span("expectations.lde_trajectory", "self_s"),
        "expectations.sampling_table.s": span("expectations.sampling_table"),
        "expectations.mobius_matrix.s": span("expectations.mobius_matrix"),
        "expectations.check_generator_duality.self_s":
            span("expectations.check_generator_duality", "self_s"),
        "forward.generator_lambda.s": span("forward.generator_lambda"),
        "forward.generator_lambda.nnz": values.get("forward.generator_lambda.nnz", 0),
        "markov.pop_states": values.get("markov.pop_states", 0),
        "forward.simulate_forward.s": fwd_s,
        "forward.events": fwd_n,
        "forward.us_per_event": per(fwd_s, fwd_n, 1e6),
        "forward.replacement_distribution.calls": counts.get("forward.replacement_distribution", 0),
        "cli.load_config.s": span("cli.load_config"),
        "cli.expectations_to_csv.s": span("cli.expectations_to_csv"),
        "cli.out_bytes": it.out_bytes,
        "forward.trajectory_to_csv.s": span("forward.trajectory_to_csv"),
        "backward.partition_trajectory_to_csv.s": span("backward.partition_trajectory_to_csv"),
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(workload, seconds: float, trace: bool) -> list[Iteration]:
    """Iterate within ``seconds``, but at least MIN_ITERATIONS times.

    No iteration starts that would, at the mean pace so far, end after
    ``seconds``, so a run's length does not depend on the machine's speed.
    With tracing, untraced and traced iterations alternate, untraced first,
    at least MIN_TRACED of each.
    """
    its: list[Iteration] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(its) % 2 == 1
        its.append(workload.iterate(traced))
        elapsed = time.perf_counter() - start
        pace = elapsed / len(its)
        n_plain = sum(it.record is None for it in its)
        n_traced = len(its) - n_plain
        enough = (min(n_plain, n_traced) >= MIN_TRACED if trace
                  else n_plain >= MIN_ITERATIONS)
        one_each = n_plain >= 1 and (n_traced >= 1 or not trace)
        if (enough and elapsed + pace > seconds) or (one_each and elapsed + 1.5 * pace > MEASURE_CAP_S):
            return its


def environment() -> dict:
    """Machine, toolchain and BLAS record stored with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "moranrec" / "__init__.py").is_file():
        print(f"perfbench: no moranrec sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        kind = LdeWorkload if args.workload == "lde-pairs-n5" else ColdWorkload
        workload = kind(args.workload, args.seed, args.smoke, work)
        its = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it for it in its if it.record is None]
    traced = [it for it in its if it.record is not None]
    attempted = workload.setup_attempted + sum(it.attempted for it in its)
    failed = workload.setup_failed + sum(it.failed for it in its)

    samples: dict[str, list[float]] = {}
    if args.trace:
        per_it = [layer_values(it) for it in traced]
        for name in per_it[0]:
            samples[name] = [v[name] for v in per_it]
        for metric, command in (("fwd_events_per_s", "simulate-forward"),
                                ("bwd_events_per_s", "simulate-backward")):
            rates = [n / wall for n, wall in (it.events.get(command, (0, 0.0)) for it in plain) if wall]
            samples[metric] = rates or [0.0]
        samples["trace.overhead_s"] = [statistics.median(it.wall for it in traced)
                                       - statistics.median(it.wall for it in plain)]
        units = PER_LAYER
    else:
        samples["wall_s"] = [it.wall for it in plain]
        samples["setup_s"] = workload.setup_times
        samples["peak_rss_mb"] = [it.rss_mib for it in plain]
        units = END_TO_END
    stats = {name: quartiles(samples[name]) for name in units}
    problems = [p for it in its for p in it.problems]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "iterations": len(its),
        "traced_wall_s": quartiles([it.wall for it in traced]) if traced else None,
        "untraced_wall_s": quartiles([it.wall for it in plain]),
        "stats": stats, "problems": problems[:20], "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {**detail, "samples": samples,
         "traces": [it.record for it in traced]}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
