"""The content-addressed simulation cache: keys, recovery, bit-identity."""

import filecmp
import pickle
from dataclasses import dataclass

import pytest

from repro.experiments import common
from repro.errors import JobFailedError, WorkerLostError
from repro.perf import parallel_map
from repro.perf.jobs import ExperimentJob, PressureSweepJob
from repro.perf.simcache import (
    CACHE_SCHEMA_VERSION,
    SimCache,
    activate_sim_cache,
    active_sim_cache,
    set_sim_cache,
)
from repro.soc.spec import PUType
from repro.workloads.rodinia import rodinia_kernel


@dataclass(frozen=True)
class CountingJob:
    """Cacheable job that tallies real executions in a side-band file."""

    value: int
    tally_path: str

    def describe(self) -> str:
        return f"counting:{self.value}"

    def signature(self) -> str:
        return repr(("counting.v1", self.value))

    def run(self) -> int:
        with open(self.tally_path, "a") as handle:
            handle.write("x\n")
        return self.value * 10


def _tally(path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    previous = set_sim_cache(None)
    yield
    set_sim_cache(previous)


class TestKeys:
    def test_same_inputs_same_key(self, tmp_path):
        cache = SimCache(tmp_path)
        kernel = rodinia_kernel("cfd", PUType.GPU)
        a = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        b = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        assert cache.key_for(a) == cache.key_for(b)

    def test_any_input_changes_the_key(self, tmp_path):
        cache = SimCache(tmp_path)
        kernel = rodinia_kernel("cfd", PUType.GPU)
        base = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        variants = [
            PressureSweepJob("snapdragon-855", kernel, "gpu", (1.0, 2.0)),
            PressureSweepJob("xavier-agx", kernel, "cpu", (1.0, 2.0)),
            PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.5)),
            PressureSweepJob(
                "xavier-agx",
                rodinia_kernel("bfs", PUType.GPU),
                "gpu",
                (1.0, 2.0),
            ),
        ]
        keys = {cache.key_for(job) for job in variants}
        assert cache.key_for(base) not in keys
        assert len(keys) == len(variants)

    def test_code_fingerprint_invalidates(self, tmp_path, monkeypatch):
        import repro.perf.simcache as simcache_module

        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, {"answer": 42})
        assert cache.lookup(key) == (True, {"answer": 42})
        # Simulate a code edit: the process-wide fingerprint changes and
        # a new cache (same directory) must miss every old entry.
        monkeypatch.setattr(
            simcache_module, "_CODE_FINGERPRINT", "deadbeef" * 8
        )
        stale = SimCache(tmp_path)
        new_key = stale.key_for_signature("sig")
        assert new_key != key
        assert stale.lookup(new_key) == (False, None)

    def test_experiment_job_is_uncacheable(self, tmp_path):
        cache = SimCache(tmp_path)
        assert cache.key_for(ExperimentJob("fig2")) is None

    def test_jobs_without_signature_are_uncacheable(self, tmp_path):
        cache = SimCache(tmp_path)
        assert cache.key_for(object()) is None


class TestRecovery:
    def test_corrupt_entry_is_recomputed_and_overwritten(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, [1, 2, 3])
        entry = cache._entry_path(key)
        entry.write_bytes(b"not a pickle at all")
        assert cache.lookup(key) == (False, None)
        assert cache.invalidations == 1
        assert cache.store(key, [1, 2, 3])
        assert cache.lookup(key) == (True, [1, 2, 3])

    def test_truncated_entry_tolerated(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, {"a": 1})
        entry = cache._entry_path(key)
        entry.write_bytes(entry.read_bytes()[:7])
        assert cache.lookup(key) == (False, None)
        assert cache.invalidations == 1

    def test_schema_version_mismatch_invalidates(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        entry = cache._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(
            pickle.dumps(
                {
                    "version": CACHE_SCHEMA_VERSION + 1,
                    "key": key,
                    "result": 5,
                }
            )
        )
        assert cache.lookup(key) == (False, None)
        assert cache.invalidations == 1

    def test_unpicklable_result_is_skipped_not_fatal(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, lambda: None) is False
        assert cache.stores == 0


def _hammer_store(directory, key, payload, rounds):
    """Child-process body for the concurrent-writer regression test."""
    cache = SimCache(directory)
    for _ in range(rounds):
        cache.store(key, payload)


class TestConcurrentWriters:
    def test_same_key_from_many_processes_never_tears(self, tmp_path):
        """Regression: tmp names once used ``id(self) & 0xFFFF``, which
        two pooled workers can share — one worker's ``replace`` could
        then publish the other's half-written blob. pid + per-process
        counter makes every in-flight tmp unique, so however the stores
        interleave, the entry is always one writer's complete payload.
        """
        import multiprocessing

        directory = tmp_path / "cache"
        probe = SimCache(directory)
        key = probe.key_for_signature("contended")
        payload = {"blob": list(range(5000))}
        workers = [
            multiprocessing.Process(
                target=_hammer_store, args=(directory, key, payload, 25)
            )
            for _ in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        fresh = SimCache(directory)
        assert fresh.lookup(key) == (True, payload)
        assert fresh.invalidations == 0
        assert not list(directory.glob("*/*.tmp*"))  # nothing leaked

    def test_tmp_names_unique_within_process(self, tmp_path, monkeypatch):
        """Every store uses a fresh tmp path even for the same key."""
        import repro.perf.simcache as simcache_module

        seen = []
        original = simcache_module.Path.replace

        def recording_replace(self, target):
            if ".tmp-" in self.name:
                seen.append(self.name)
            return original(self, target)

        monkeypatch.setattr(simcache_module.Path, "replace", recording_replace)
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        for i in range(5):
            assert cache.store(key, i)
        assert len(seen) == 5
        assert len(set(seen)) == 5  # pid+counter suffix never repeats


class TestStoreFailureDegradation:
    def test_oserror_store_degrades_to_not_cached(self, tmp_path):
        """Disk trouble must cost the cache entry, never the sweep.

        chmod tricks do not block root, so the OSError is forced with a
        regular file squatting on the shard-directory path: ``mkdir``
        fails with ENOTDIR/EEXIST on every platform and uid.
        """
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        (tmp_path / key[:2]).write_text("file where the shard dir goes")
        assert cache.store(key, [1, 2]) is False
        assert cache.store_failures == 1
        assert cache.stores == 0
        assert cache.lookup(key) == (False, None)  # simply not cached
        assert "store failure" in cache.stats_line()

    def test_failed_store_does_not_leak_tmp(self, tmp_path, monkeypatch):
        import repro.perf.simcache as simcache_module

        def failing_replace(self, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(simcache_module.Path, "replace", failing_replace)
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, {"a": 1}) is False
        assert cache.store_failures == 1
        assert not list(tmp_path.glob("*/*.tmp*"))  # tmp unlinked


class TestStaleTmpSweep:
    def test_orphans_swept_on_open(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir(parents=True)
        (shard / "dead.tmp-999999999-3").write_bytes(b"dead writer")
        (shard / "old.tmp1a2b").write_bytes(b"pre-fix naming scheme")
        (shard / "entry.pkl").write_bytes(b"real entry stays")
        cache = SimCache(tmp_path)
        assert cache.tmp_swept == 2
        assert (shard / "entry.pkl").exists()
        assert not list(shard.glob("*.tmp*"))
        assert "stale tmp swept" in cache.stats_line()

    def test_live_writers_tmp_left_alone(self, tmp_path):
        import multiprocessing

        shard = tmp_path / "cd"
        shard.mkdir(parents=True)
        # A process that is demonstrably alive while the cache opens.
        gate = multiprocessing.Event()
        proc = multiprocessing.Process(target=gate.wait)
        proc.start()
        try:
            live_tmp = shard / f"busy.tmp-{proc.pid}-0"
            live_tmp.write_bytes(b"another writer's in-flight store")
            cache = SimCache(tmp_path)
            assert cache.tmp_swept == 0
            assert live_tmp.exists()
        finally:
            gate.set()
            proc.join(timeout=10)


class TestParallelMapIntegration:
    def test_hits_skip_execution(self, tmp_path):
        tally = tmp_path / "tally.txt"
        jobs = [CountingJob(i, str(tally)) for i in range(4)]
        activate_sim_cache(tmp_path / "cache")
        cache = active_sim_cache()
        first = parallel_map(jobs, max_workers=1)
        assert first == [0, 10, 20, 30]
        assert _tally(tally) == 4
        assert (cache.misses, cache.stores, cache.hits) == (4, 4, 0)
        second = parallel_map(jobs, max_workers=1)
        assert second == first
        assert _tally(tally) == 4  # nothing re-executed
        assert cache.hits == 4

    def test_partial_hits_execute_only_misses(self, tmp_path):
        tally = tmp_path / "tally.txt"
        activate_sim_cache(tmp_path / "cache")
        parallel_map(
            [CountingJob(i, str(tally)) for i in range(2)], max_workers=1
        )
        results = parallel_map(
            [CountingJob(i, str(tally)) for i in range(4)], max_workers=1
        )
        assert results == [0, 10, 20, 30]
        assert _tally(tally) == 4  # 2 cold + 2 new, 2 served from disk

    def test_no_cache_active_is_a_no_op(self, tmp_path):
        tally = tmp_path / "tally.txt"
        jobs = [CountingJob(i, str(tally)) for i in range(2)]
        assert active_sim_cache() is None
        parallel_map(jobs, max_workers=1)
        parallel_map(jobs, max_workers=1)
        assert _tally(tally) == 4  # every call re-executes


@dataclass(frozen=True)
class CacheableJob:
    """Deterministic, cacheable toy job."""

    value: int

    def signature(self) -> str:
        return f"eager-store-test:{self.value}"

    def run(self) -> int:
        return self.value * 7


@dataclass(frozen=True)
class FailingJob:
    """Fails after a pause, so sibling jobs finish first on the pool."""

    def signature(self) -> str:
        return "eager-store-test:poison"

    def run(self) -> int:
        import time

        time.sleep(0.5)
        raise RuntimeError("sweep dies here")


@dataclass(frozen=True)
class KillingJob:
    """SIGKILLs its pool worker after a pause (never the coordinator)."""

    coordinator_pid: int

    def signature(self) -> str:
        return "eager-store-test:kill"

    def run(self) -> int:
        import os
        import signal
        import time

        if os.getpid() == self.coordinator_pid:
            raise RuntimeError("must only run inside a pool worker")
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
        return 0


class TestEagerStores:
    """Each result is stored as it arrives, so an aborted sweep's
    finished jobs are on disk and a re-run resumes from them."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_jobs_survive_a_failing_sweep(self, tmp_path, jobs):
        cache = activate_sim_cache(tmp_path / "cache")
        with pytest.raises(JobFailedError):
            parallel_map(
                [CacheableJob(i) for i in range(6)] + [FailingJob()],
                max_workers=jobs,
            )
        assert cache.stores == 6  # stored before the failure, not after

        # The re-run, on a fresh cache object as a new process builds.
        resumed = SimCache(tmp_path / "cache")
        set_sim_cache(resumed)
        results = parallel_map(
            [CacheableJob(i) for i in range(6)], max_workers=jobs
        )
        assert results == [i * 7 for i in range(6)]
        assert (resumed.hits, resumed.misses) == (6, 0)

    def test_completed_jobs_survive_a_lost_worker(self, tmp_path):
        import os

        cache = activate_sim_cache(tmp_path / "cache")
        jobs = [CacheableJob(i) for i in range(6)]
        with pytest.raises(WorkerLostError) as excinfo:
            parallel_map(jobs + [KillingJob(os.getpid())], max_workers=2)
        assert 6 in excinfo.value.indices
        assert cache.stores == 6

        resumed = SimCache(tmp_path / "cache")
        set_sim_cache(resumed)
        assert parallel_map(jobs, max_workers=2) == [i * 7 for i in range(6)]
        assert (resumed.hits, resumed.misses) == (6, 0)

    def test_pool_path_stores_each_result_once(self, tmp_path):
        cache = activate_sim_cache(tmp_path / "cache")
        jobs = [CacheableJob(i) for i in range(8)]
        results = parallel_map(jobs, max_workers=2)
        assert results == [i * 7 for i in range(8)]
        assert cache.stores == 8
        again = parallel_map(jobs, max_workers=2)
        assert again == results
        assert (cache.stores, cache.hits) == (8, 8)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_sweep_resumes_without_recomputing(self, tmp_path, jobs):
        from repro.experiments.fig8_11 import run_validation

        common.clear_caches()
        reference = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=1
        )

        # The "interrupted" run: only part of the sweep completed.
        cache = activate_sim_cache(tmp_path / "cache")
        common.clear_caches()
        run_validation("fig8", steps=3, benchmarks=("cfd",), jobs=jobs)
        completed = cache.stores
        assert completed > 0

        # Over the full sweep the completed part is served from disk.
        common.clear_caches()
        resumed = run_validation(
            "fig8", steps=3, benchmarks=("cfd", "bfs"), jobs=jobs
        )
        assert resumed == reference
        assert cache.hits >= completed
        assert cache.misses > 0  # the genuinely new work


class TestRunnerStatsLine:
    @staticmethod
    def _stats(main, capsys, args):
        common.clear_caches()
        assert main(args) == 0
        err = capsys.readouterr().err
        (line,) = [row for row in err.splitlines() if "sim-cache:" in row]
        return line.split(" under ")[0]

    def test_worker_counts_reach_the_stats_line(self, tmp_path, capsys):
        """Multi-experiment --jobs N runs count inside ExperimentJob
        workers; their counts must reach the coordinator's line."""
        from repro.experiments.runner import main

        names = ["fig8", "fig9"]
        serial_dir = str(tmp_path / "serial")
        pooled_dir = str(tmp_path / "pooled")
        serial = self._stats(main, capsys, names + ["--sim-cache", serial_dir])
        cold = self._stats(
            main, capsys, names + ["--jobs", "2", "--sim-cache", pooled_dir]
        )
        warm = self._stats(
            main, capsys, names + ["--jobs", "2", "--sim-cache", pooled_dir]
        )
        assert cold == serial
        stores = int(cold.split(" miss(es), ")[1].split(" store(s)")[0])
        assert stores > 0
        assert warm.startswith(f"sim-cache: {stores} hit(s), 0 miss(es)")


class TestCalibrationCaching:
    def test_params_cached_and_identical(self, tmp_path):
        common.clear_caches()
        cold = common.pccs_params_for("xavier-agx", "gpu")
        activate_sim_cache(tmp_path / "cache")
        cache = active_sim_cache()
        common.clear_caches()
        stored = common.pccs_params_for("xavier-agx", "gpu")
        assert stored == cold
        assert cache.stores == 1 and cache.hits == 0
        common.clear_caches()
        warm = common.pccs_params_for("xavier-agx", "gpu")
        assert warm == cold
        assert cache.hits == 1


class TestArtifactBitIdentity:
    def test_runner_sim_cache_byte_identical_artifacts(
        self, tmp_path, capsys
    ):
        """Cold serial, cold-cached, and warm-cached runs of two
        experiments must write byte-identical files."""
        from repro.experiments.runner import main

        names = ["fig9", "fig2"]
        plain_dir = tmp_path / "plain"
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        cache_dir = str(tmp_path / "cache")
        common.clear_caches()
        assert main(names + ["--out", str(plain_dir), "--csv"]) == 0
        common.clear_caches()
        assert (
            main(
                names
                + ["--out", str(cold_dir), "--csv", "--sim-cache", cache_dir]
            )
            == 0
        )
        common.clear_caches()
        assert (
            main(
                names
                + ["--out", str(warm_dir), "--csv", "--sim-cache", cache_dir]
            )
            == 0
        )
        capsys.readouterr()
        files = sorted(p.name for p in plain_dir.iterdir())
        assert files == sorted(p.name for p in cold_dir.iterdir())
        assert files == sorted(p.name for p in warm_dir.iterdir())
        for other in (cold_dir, warm_dir):
            match, mismatch, errors = filecmp.cmpfiles(
                plain_dir, other, files, shallow=False
            )
            assert mismatch == [] and errors == []
            assert sorted(match) == files

    def test_pool_plus_cache_byte_identical_artifacts(
        self, tmp_path, capsys
    ):
        """--jobs 2 --sim-cache (pool + cache together) matches serial."""
        from repro.experiments.runner import main

        names = ["fig9"]
        plain_dir = tmp_path / "plain"
        fast_dir = tmp_path / "fast"
        common.clear_caches()
        assert main(names + ["--out", str(plain_dir)]) == 0
        common.clear_caches()
        assert (
            main(
                names
                + [
                    "--out",
                    str(fast_dir),
                    "--jobs",
                    "2",
                    "--sim-cache",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (plain_dir / "fig9.txt").read_bytes() == (
            fast_dir / "fig9.txt"
        ).read_bytes()
