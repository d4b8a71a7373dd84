"""Layer probes: wrap public moranrec functions from outside the package.

Each probe replaces every reference to one function across the loaded
``moranrec.*`` modules (callers look names up in their own module
globals, so ``moranrec.expectations.generator_theta`` must be patched as
well as ``moranrec.backward.generator_theta``).  Span probes record
``[name, start, end, parent, post]`` in memory, where ``post`` is the
probe's own bookkeeping after the call (kept out of the parent's self
time).  Count probes only count calls; they sit on the hot inner
functions, where a span per call would cost more than the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _nnz(gen) -> int:
    return int((gen.matrix != 0).sum())


def _events(rec) -> int:
    return len(rec.events)


# (module.function, kind, hooks); a hook is (value name, aggregation, fn)
# applied to the call's result, or to its first argument for "distinct".
PROBES = (
    ("partitions.enumerate_partitions", "span", [("partitions.B", "max", len)]),
    ("partitions.refines", "count", []),
    ("partitions.mobius", "count", []),
    ("measures.marginalize", "count", []),
    ("markov.enumerate_population_states", "count", [("markov.pop_states", "max", len)]),
    ("operators.recombinator_bar", "span",
     [("operators.recombinator_bar.partitions", "distinct", None)]),
    ("backward.generator_theta", "span", [("backward.generator_theta.nnz", "max", _nnz)]),
    ("backward.simulate_backward", "span", [("backward.events", "sum", _events)]),
    ("backward.partition_trajectory_to_csv", "span", []),
    ("forward.generator_lambda", "span", [("forward.generator_lambda.nnz", "max", _nnz)]),
    ("forward.replacement_distribution", "count", []),
    ("forward.simulate_forward", "span", [("forward.events", "sum", _events)]),
    ("forward.trajectory_to_csv", "span", []),
    ("expectations.mobius_matrix", "span", []),
    ("expectations.sampling_stack", "span", []),
    ("expectations.sampling_table", "span", []),
    ("expectations.check_generator_duality", "span", []),
    ("expectations.expected_sampling", "span", []),
    ("expectations.lde_transform", "span", []),
    ("expectations.lde_trajectory", "span", []),
    ("cli.load_config", "span", []),
    ("cli.expectations_to_csv", "span", []),
)


class Tracer:
    """In-memory spans, call counts and sizes for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _hook(self, hooks, args, result) -> None:
        for key, agg, fn in hooks:
            if agg == "distinct":
                self.distinct[key].add(args[0])
            elif agg == "max":
                self.values[key] = max(self.values.get(key, 0), fn(result))
            else:
                self.values[key] = self.values.get(key, 0) + fn(result)

    def _span(self, name: str, fn, hooks):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def probe(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hooks:
                self._hook(hooks, args, result)
                rec[4] = clock() - rec[2]
            return result

        return probe

    def _count(self, name: str, fn, hooks):
        counts = self.counts

        def probe(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hooks:
                self._hook(hooks, args, result)
            return result

        return probe

    def install(self) -> None:
        """Patch every probed function in every loaded moranrec module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "moranrec" or k.startswith("moranrec.")) and m is not None]
        for target, kind, hooks in PROBES:
            module, attr = target.rsplit(".", 1)
            original = getattr(sys.modules.get("moranrec." + module), attr, None)
            if original is None:
                continue  # a layer this process never loaded, or one the program no longer has
            make = self._span if kind == "span" else self._count
            probe = make(target, original, hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, probe)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        """Plain-data record of everything observed (JSON-serializable)."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": dict(self.values),
            "distinct": {k: sorted(map(str, v)) for k, v in self.distinct.items()},
        }


_AGG = {key: agg for _, _, hooks in PROBES for key, agg, _ in hooks}


def merge(records: list[dict]) -> dict:
    """Combine the records of the processes that made up one iteration."""
    out: dict = {"spans": [], "counts": Counter(), "values": {}, "distinct": defaultdict(set)}
    for rec in records:
        base = len(out["spans"])
        out["spans"].extend([n, s, e, p + base if p >= 0 else -1, post]
                            for n, s, e, p, post in rec["spans"])
        out["counts"].update(rec["counts"])
        for key, value in rec["values"].items():
            old = out["values"].get(key, 0)
            out["values"][key] = max(old, value) if _AGG[key] == "max" else old + value
        for key, items in rec["distinct"].items():
            out["distinct"][key].update(items)
    out["distinct"] = {k: sorted(v) for k, v in out["distinct"].items()}
    return out


def summarize(record: dict) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and number of calls.

    A span's self time is its duration minus the durations (and probe
    bookkeeping) of its direct children.
    """
    spans = record["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, post in spans:
        if parent >= 0:
            child[parent] += end - start + post
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, (name, start, end, parent, post) in enumerate(spans):
        agg = out[name]
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["calls"] += 1
    return dict(out)
