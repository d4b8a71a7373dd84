"""Child process of the benchmark: one cold set-up or one CLI command.

    child.py setup <workload> <seed> <smoke 0|1> <dir>
        Import the program and generate the workload's inputs: write the
        CLI configs to <dir>, or, for the warm LDE sweep, make its first
        call.  The parent times this as the set-up of a fresh process.
    child.py cli <trace-file|-> <moranrec arguments...>
        Run ``moranrec.cli.main`` in this fresh process.  With a trace
        file, the layer probes are installed first and their record is
        written there when the command returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    import moranrec.cli

    if mode == "setup":
        import workloads

        name, seed, smoke, dest = rest[0], int(rest[1]), rest[2] == "1", Path(rest[3])
        if name == "lde-pairs-n5":
            workloads.warm_up(workloads.lde_inputs(seed, smoke))
        else:
            workloads.write_configs(workloads.CONFIGS[name](seed, smoke), dest)
        return 0
    if mode == "cli":
        trace_file, args = rest[0], rest[1:]
        if trace_file == "-":
            return moranrec.cli.main(args)
        from probes import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return moranrec.cli.main(args)
        finally:
            Path(trace_file).write_text(json.dumps(tracer.dump()))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
