"""Repository benchmark: host time and fidelity of the PCCS reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5_policies --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``manifest.json``):

- ``fig5_policies``: the Fig. 5 / Table 3 policy study on a reduced grid;
- ``dram_trace_mix``: trace-replay cores under FCFS and FR-FCFS;
- ``paper_soc``: every other paper experiment, rendered.

With ``--trace 0`` the run repeats untraced passes for ``--seconds``
(and until the per-call percentile has enough samples) and reports the
end-to-end metrics. With ``--trace 1`` it spends half the time on
untraced passes and half on passes with every layer boundary wrapped
(``layers.py``), and reports the per-layer metrics, the tracing
overhead and the fidelity errors. Every pass's output is checked and
digested; the last line of standard output is one JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TRACED_EXTRAS = (
    "trace.overhead_ratio",
    "dram_req_per_s",
    "dram.host_us_per_req",
)
FIDELITY_METRICS = (
    "pccs_err_gpu_pct",
    "pccs_err_cpu_pct",
    "pccs_err_dla_pct",
    "table3_rbh_err_pp",
    "table3_effbw_err_pp",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_head(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, path and content."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": git_head(ROOT),
        "src_sha256": source_digest(SRC),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int):
    """Fresh-process set-up times: (normalized, raw) medians."""
    normalized, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup_s, ref_s = map(float, done.stdout.split()[-2:])
        normalized.append(reference.normalize(setup_s, ref_s))
        raw.append(setup_s)
    return statistics.median(normalized), statistics.median(raw)


class Pass:
    """One timed pass, its host speed and its checked outcome.

    ``ref_s`` is the mean reference sample taken from the pass's start
    to its end, and ``call_ref_s[k]`` the mean of the samples just
    before and just after call ``k``; ``wall_s`` excludes the sampling.
    """

    def __init__(self, workload, inputs, speed):
        first = len(speed.samples)
        speed.take()
        sampling = [0.0]
        latest = []

        def between():
            sampling[0] += speed.between()
            latest.append(len(speed.samples) - 1)

        start = perf_counter()
        try:
            result = workload.run_pass(inputs, between)
        except Exception:
            traceback.print_exc()
            result = None
        self.wall_s = perf_counter() - start - sampling[0]
        speed.take()
        samples = speed.samples[first:]
        self.ref_s = statistics.mean(samples)
        self.call_ref_s = [
            (samples[i - first] + samples[i - first + 1]) / 2 for i in latest
        ]
        self.result = result
        self.failures = (
            workload.check(result.output) if result else ["pass raised"]
        )

    @property
    def digest(self):
        return self.result.digest if self.result else None


def run_passes(workload, inputs, seconds, min_calls=0, every_s=0.1):
    """Passes until ``seconds`` elapsed and ``min_calls`` calls timed.

    Reference samples are taken between calls at most every ``every_s``
    seconds, and always at each pass's start and end.
    """
    passes = []
    speed = reference.HostSpeed(every_s)
    start = perf_counter()
    while True:
        passes.append(Pass(workload, inputs, speed))
        calls = sum(len(p.result.call_s) for p in passes if p.result)
        if perf_counter() - start >= seconds and calls >= min_calls:
            return passes
        if passes[-1].result is None:
            return passes


def count_failures(passes):
    """Passes that failed a check or disagree with the first digest."""
    first = next((p.digest for p in passes if p.digest), None)
    failed = 0
    for p in passes:
        for failure in p.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if p.failures or p.digest != first:
            failed += 1
    return failed, first


def end_to_end(workload, inputs, args):
    """Set-up probes, then untraced passes; times normalized to the
    reference host, with the raw host times beside them."""
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    passes = run_passes(
        workload, inputs, args.seconds, stats.samples_needed(90)
    )
    calls = [
        (c, r)
        for p in passes
        if p.result
        for c, r in zip(p.result.call_s, p.call_ref_s)
    ]
    norm = [reference.normalize(c, r) for c, r in calls]
    raw = [c for c, _ in calls]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(
            reference.normalize(p.wall_s, p.ref_s) for p in passes
        ),
        "run_p50_ms": statistics.median(norm) * 1e3,
        "run_p90_ms": stats.percentile(norm, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    host = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "run_p50_ms": statistics.median(raw) * 1e3,
        "run_p90_ms": stats.percentile(raw, 90) * 1e3,
        "ref_ms": statistics.median(p.ref_s for p in passes) * 1e3,
        "calls": len(calls),
    }
    return passes, True, metrics, host


def per_layer(workload, inputs, args):
    """Half the time untraced, half with every layer wrapped."""
    import layers
    from layertrace import LayerTracer

    plain = run_passes(workload, inputs, args.seconds / 2)
    tracer = LayerTracer()
    probes = layers.Probes()
    layers.install(tracer, probes)
    try:
        # No samples inside traced passes: they would land in the
        # enclosing experiment's span.
        traced = run_passes(
            workload, inputs, args.seconds / 2, every_s=math.inf
        )
    finally:
        restored = tracer.restore()
    if not restored:
        print("tracing: a wrapped function was not restored", file=sys.stderr)
    metrics = layers.layer_metrics(tracer, probes, len(traced))
    plain_ratio = statistics.median(p.wall_s / p.ref_s for p in plain)
    traced_ratio = statistics.median(p.wall_s / p.ref_s for p in traced)
    untraced_wall = plain_ratio * reference.NOMINAL_S
    requests = metrics["dram.requests"]
    metrics["trace.overhead_ratio"] = traced_ratio / plain_ratio
    metrics["dram_req_per_s"] = requests / untraced_wall
    metrics["dram.host_us_per_req"] = (
        untraced_wall * 1e6 / requests if requests else 0.0
    )
    host = {
        "untraced_wall_s": statistics.median(p.wall_s for p in plain),
        "traced_wall_s": statistics.median(p.wall_s for p in traced),
        "passes": [len(plain), len(traced)],
    }
    return plain + traced, restored, metrics, host


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(
            f"repro imported from {repro.__file__}, not {SRC}",
            file=sys.stderr,
        )
        return 2
    from repro.obs import runtime as obs_runtime
    from repro.perf import default_max_workers
    from repro.perf.simcache import active_sim_cache
    from workloads import WORKLOADS

    session = obs_runtime.active()
    if (
        default_max_workers() != 1
        or active_sim_cache() is not None
        or session.tracer.enabled
        or session.metrics.enabled
    ):
        print("the program is not on its serial default path", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = workload.build_inputs(args.seed)
    measure, listed = (
        (per_layer, spec["per_layer"])
        if args.trace
        else (end_to_end, spec["end_to_end"])
    )
    passes, restored, values, host = measure(workload, inputs, args)
    failed, digest = count_failures(passes)
    first = next((p for p in passes if p.result), None)
    fidelity = workload.fidelity(first.result.output) if first else {}
    values.update({name: fidelity.get(name, 0.0) for name in FIDELITY_METRICS})

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    print("host " + json.dumps(host, sort_keys=True))
    if fidelity:
        print("fidelity " + json.dumps(fidelity, sort_keys=True))
    result = {
        "correct": failed == 0 and restored,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
