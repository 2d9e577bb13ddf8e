"""Time one fresh-process set-up: import the program, build the inputs.

Run by ``run.py`` in a new interpreter for each sample. Prints the raw
set-up seconds and the mean reference-kernel sample taken just before
and just after it (see ``reference.py``).
"""

from time import perf_counter

import argparse
import sys
from pathlib import Path

import reference


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    refs = [reference.sample() for _ in range(3)]
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[args.workload].build_inputs(args.seed)
    setup_s = perf_counter() - start
    refs += [reference.sample() for _ in range(3)]
    print(setup_s, sum(refs) / len(refs))


if __name__ == "__main__":
    main()
