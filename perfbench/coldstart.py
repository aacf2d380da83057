"""One cold start of a workload's set-up; `run.py` times it from outside.

    python3 perfbench/coldstart.py WORKLOAD HELD_START OUT_DIR

A fresh interpreter imports the package and does what the workload needs
before its first round: the desks generate their pairs and build the model
and optimizer; `catspp-cli` runs `gen-data` for its training and held-out
datasets into OUT_DIR. HELD_START is `workloads.workload_held_start`'s
answer, found by the caller so that the search is not timed. Exits 1 if a
command fails.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402  (imports catagg: part of the set-up)


def main(argv) -> int:
    workload, start, out = argv[0], int(argv[1]), Path(argv[2])
    if workload in wl.DESKS:
        wl.DeskSession(wl.DESKS[workload], start).build()
        return 0
    return 1 if any(wl.cli_setup(wl.CLI, start, out)) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
