"""Perf smoke benchmark: the fast-path stack before/after wall-clock.

Times the optimisation layers on one full fig8 sweep and a contended
DRAM run: the resolve cache on the ``parallel_map`` process pool
(``jobs=N``), and the content-addressed ``--sim-cache`` (cold store
pass, then warm re-run). Asserts every layer is bit-identical to the
seed serial path, that the stack is still >= 2x the seed, and that the
warm ``--sim-cache`` re-run is >= 5x the uncached pooled path. Records
the numbers, with the machine's CPU count, in
``benchmarks/results/perf.txt`` and machine-readable ``perf.json``.

Kept out of tier-1 (``testpaths = tests``); run explicitly with
``pytest benchmarks/test_bench_perf.py``.
"""

import os
import time

from repro.dram.cores import CoreConfig, staggered_base
from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200
from repro.experiments import common
from repro.experiments.fig8_11 import run_validation
from repro.perf import activate_sim_cache, set_sim_cache
from repro.soc.configs import soc_by_name
from repro.soc.engine import CoRunEngine

# Full fig8 benchmark set at a finer pressure grid than the paper's 10
# steps, so the sweep is long enough to time the executor honestly.
# On a single-core machine the executor falls back to serial and the
# parallel layers measure ~1x; the cache layers are core-independent.
_STEPS = 40
_JOBS = min(4, os.cpu_count() or 1)


def _seed_style_engine(soc_name: str) -> CoRunEngine:
    """An engine that re-solves the steady state every event step."""
    return CoRunEngine(soc_by_name(soc_name), resolve_cache=False)


def _run_fig8(steps: int, jobs: int, cached: bool):
    """One full fig8 validation with controlled cache/parallel knobs."""
    common.clear_caches()
    if not cached:
        # Pre-seed the shared engine registry with an uncached engine:
        # every resolve then hits the fixed-point solver, as the seed did.
        common._ENGINES["xavier-agx"] = _seed_style_engine("xavier-agx")
    start = time.perf_counter()
    result = run_validation("fig8", steps=steps, jobs=jobs)
    return result, time.perf_counter() - start


def _dram_cores(n=16, requests=1200):
    return [
        CoreConfig(
            demand_gbps=6.0,
            total_requests=requests,
            mshr=16,
            address_base=staggered_base(i, DDR4_3200.banks_per_channel),
        )
        for i in range(n)
    ]


def test_bench_perf_fast_path(save_report, tmp_path):
    # 1. Seed serial path: no resolve cache, no parallelism.
    seed_result, seed_s = _run_fig8(_STEPS, jobs=1, cached=False)

    # 2. Resolve cache on the process pool (one pool per call).
    pool_result, pool_s = _run_fig8(_STEPS, jobs=_JOBS, cached=True)

    # 3. --sim-cache: cold run pays the stores, warm run skips the
    # simulations entirely.
    previous_cache = set_sim_cache(None)
    try:
        activate_sim_cache(tmp_path / "sim-cache")
        cache_cold_result, cache_cold_s = _run_fig8(
            _STEPS, jobs=_JOBS, cached=True
        )
        cache_warm_result, cache_warm_s = _run_fig8(
            _STEPS, jobs=_JOBS, cached=True
        )
    finally:
        set_sim_cache(previous_cache)

    for result in (pool_result, cache_cold_result, cache_warm_result):
        assert result == seed_result  # every layer is bit-identical

    # 4. DRAM inner loop: indexed ChannelQueue vs the seed's list queue.
    t0 = time.perf_counter()
    dram_slow = CMPSystem(policy="frfcfs", queue_factory=list).run(
        _dram_cores()
    )
    dram_slow_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    dram_fast = CMPSystem(policy="frfcfs").run(_dram_cores())
    dram_fast_s = time.perf_counter() - t0
    assert dram_fast == dram_slow

    stack_speedup = seed_s / pool_s
    cache_speedup = pool_s / cache_warm_s
    cpus = os.cpu_count() or 1
    lines = [
        "perf smoke benchmark — fast-path stack (bit-identical results)",
        f"workload: fig8 full Rodinia sweep, steps={_STEPS}; "
        f"machine: {cpus} CPU(s)",
        "",
        f"seed serial (no cache, jobs=1):        {seed_s:8.2f} s",
        f"resolve cache, pool (jobs={_JOBS}):          {pool_s:8.2f} s"
        f"  ({stack_speedup:.2f}x)",
        f"--sim-cache cold (stores paid):        {cache_cold_s:8.2f} s"
        f"  ({seed_s / cache_cold_s:.2f}x)",
        f"--sim-cache warm re-run:               {cache_warm_s:8.2f} s"
        f"  ({cache_speedup:.2f}x vs pool)",
        "",
        "dram frfcfs 16-core contended run (list queue vs indexed):",
        f"list queue (seed):                     {dram_slow_s:8.2f} s",
        f"ChannelQueue:                          {dram_fast_s:8.2f} s"
        f"  ({dram_slow_s / dram_fast_s:.2f}x)",
        "",
        f"headline: warm --sim-cache fig8 re-run is {cache_speedup:.2f}x"
        " the uncached pooled path (>= 5x required); the pooled stack is"
        f" {stack_speedup:.2f}x the seed serial path (>= 2x required)",
    ]
    save_report(
        "perf",
        "\n".join(lines),
        seconds=cache_warm_s,
        speedup=cache_speedup,
        baseline="resolve-cache-pool",
        cpu_count=cpus,
        jobs=_JOBS,
        seed_seconds=seed_s,
        pool_seconds=pool_s,
        sim_cache_cold_seconds=cache_cold_s,
        sim_cache_warm_seconds=cache_warm_s,
        stack_speedup=stack_speedup,
        dram_list_seconds=dram_slow_s,
        dram_indexed_seconds=dram_fast_s,
    )
    assert stack_speedup >= 2.0, (
        f"expected >= 2x vs seed, measured {stack_speedup:.2f}x"
    )
    assert cache_speedup >= 5.0, (
        f"expected >= 5x vs pooled path, measured {cache_speedup:.2f}x"
    )
