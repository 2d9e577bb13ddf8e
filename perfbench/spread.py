"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload paper_soc --runs 10

Runs ``run.py`` once per seed (1..runs), one after another, and prints
per metric the median and the inter-quartile distance over the median,
next to the metric's bound from ``BENCHMARK.json``. A metric is steady
when its spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {}
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = stats.quartile_spread(vals)
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(
            f"{name:40s} median={statistics.median(vals):.6g} "
            f"spread={spread:.4f} "
            f"bound={bound} {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
