"""The per-call process pool behind ``parallel_map``.

The pool may only change wall-clock time, never a reported number:
pooled results must be bit-identical to the serial path. Each parallel
call owns its pool, so a failed or broken call leaves nothing behind
for the next one.
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.errors import JobFailedError, WorkerLostError
from repro.experiments import common
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.runtime import ObsSession
from repro.perf import (
    default_max_workers,
    parallel_map,
    set_default_max_workers,
)


@dataclass(frozen=True)
class Echo:
    value: int

    def run(self) -> int:
        return self.value


@dataclass(frozen=True)
class Fail:
    value: int

    def run(self):
        if self.value < 0:
            raise RuntimeError(f"bad value {self.value}")
        return self.value


@dataclass(frozen=True)
class Sleep:
    seconds: float

    def run(self) -> float:
        time.sleep(self.seconds)
        return self.seconds


@dataclass(frozen=True)
class KillOwnWorker:
    """SIGKILLs the worker running it — what an OOM kill looks like."""

    coordinator_pid: int

    def run(self) -> int:
        if os.getpid() == self.coordinator_pid:
            raise RuntimeError("must only run inside a pool worker")
        os.kill(os.getpid(), signal.SIGKILL)
        return 0


@dataclass(frozen=True)
class ReadWorkerDefault:
    tag: int

    def run(self) -> int:
        return default_max_workers()


class TestPoolLifecycle:
    def test_ordering_preserved_across_chunks(self):
        jobs = [Echo(i) for i in range(37)]
        assert parallel_map(jobs, max_workers=3) == list(range(37))

    def test_workers_never_fork_nested_pools(self):
        previous = default_max_workers()
        set_default_max_workers(3)
        try:
            seen = parallel_map(
                [ReadWorkerDefault(i) for i in range(4)], max_workers=2
            )
        finally:
            set_default_max_workers(previous)
        assert seen == [1, 1, 1, 1]


class TestPoolFailures:
    def test_failure_names_index_label_and_worker_traceback(self):
        jobs = [Fail(i) for i in range(5)] + [Fail(-1)] + [Fail(9)]
        with pytest.raises(JobFailedError, match="bad value -1") as excinfo:
            parallel_map(jobs, max_workers=2)
        assert excinfo.value.index == 5
        assert excinfo.value.label == "Fail#5"
        assert "RuntimeError" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)
        assert "raise RuntimeError" in str(excinfo.value)
        assert parallel_map([Echo(1), Echo(2)], max_workers=2) == [1, 2]

    def test_failure_does_not_wait_for_busy_workers(self):
        start = time.monotonic()
        with pytest.raises(JobFailedError):
            parallel_map([Sleep(3.0), Fail(-1)], max_workers=2)
        assert time.monotonic() - start < 2.5

    def test_killed_worker_raises_worker_lost_error(self):
        jobs = [Echo(0), KillOwnWorker(os.getpid()), Echo(2), Echo(3)]
        with pytest.raises(WorkerLostError, match="KillOwnWorker#1") as exc:
            parallel_map(jobs, max_workers=2)
        lost = exc.value
        assert 1 in lost.indices
        assert list(lost.indices) == sorted(lost.indices)
        assert lost.labels == tuple(
            type(jobs[i]).__name__ + f"#{i}" for i in lost.indices
        )
        assert parallel_map([Echo(1), Echo(2)], max_workers=2) == [1, 2]


class TestPoolMetricsShipping:
    def test_pool_counters_equal_serial(self):
        """repro.obs counters must stay exact under the pool path."""
        from repro.experiments.fig8_11 import run_validation

        benchmarks = ("cfd", "bfs")

        def counters(jobs):
            common.clear_caches()
            session = ObsSession(metrics=True)
            obs_runtime.activate(session)
            try:
                run_validation(
                    "fig8", steps=3, benchmarks=benchmarks, jobs=jobs
                )
            finally:
                obs_runtime.deactivate()
            return session.metrics.snapshot()

        serial = counters(1)
        pooled = counters(2)
        assert serial == pooled
        assert serial.counter_value("soc.coruns") > 0

    def test_absorb_matches_merge(self):
        snap = MetricsSnapshot(
            counters=(("a", 2.0), ("b", 3.0)),
            gauges=(("g", 5.0),),
            histograms=(("h", (1.0, 2.0), (1, 2, 0), 3.5),),
        )
        registry = MetricsRegistry()
        registry.counter("a").inc(1.0)
        registry.gauge("g").set(7.0)
        registry.histogram("h", (1.0, 2.0)).observe(0.5)
        registry.absorb(snap)
        merged = registry.snapshot()
        assert merged.counter_value("a") == 3.0
        assert merged.counter_value("b") == 3.0
        assert dict(merged.gauges)["g"] == 7.0
        name, edges, counts, total = merged.histograms[0]
        assert counts == (2, 2, 0)
        assert total == 4.0


class TestPoolVsSerialBitIdentity:
    def test_fig8_pool_vs_serial_vs_fresh_executor(self):
        """parallel_map's pool == serial == a plain executor.map."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.fig8_11 import run_validation
        from repro.perf.jobs import PressureSweepJob
        from repro.soc.spec import PUType
        from repro.workloads.rodinia import rodinia_kernel
        from repro.workloads.roofline import pressure_levels

        benchmarks = ("cfd", "hotspot")
        common.clear_caches()
        serial = run_validation(
            "fig8", steps=3, benchmarks=benchmarks, jobs=1
        )
        common.clear_caches()
        pooled = run_validation(
            "fig8", steps=3, benchmarks=benchmarks, jobs=2
        )
        assert serial == pooled

        engine = common.engine_for("xavier-agx")
        levels = tuple(pressure_levels(engine.soc.peak_bw, steps=3))
        jobs = [
            PressureSweepJob(
                "xavier-agx", rodinia_kernel(n, PUType.GPU), "gpu", levels
            )
            for n in benchmarks
        ]
        with ProcessPoolExecutor(max_workers=2) as fresh:
            fresh_sweeps = list(fresh.map(_run_job, jobs))
        assert fresh_sweeps == parallel_map(jobs, max_workers=2)

    def test_fig8_jobs2_byte_identical_to_serial(self, tmp_path, capsys):
        from repro.experiments.runner import main

        outputs = []
        for jobs in ("1", "2"):
            common.clear_caches()
            out = tmp_path / f"jobs{jobs}"
            args = ["fig8", "--out", str(out), "--csv", "--jobs", jobs]
            assert main(args) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert "fig8.txt" in outputs[0]


def _run_job(job):
    return job.run()
