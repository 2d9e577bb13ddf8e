"""Process-parallel job execution for the experiment pipeline.

Every headline artifact is a sweep of independent co-run simulations;
this module fans them out across cores. A *job* is any picklable object
with a ``run()`` method returning a picklable result
(:mod:`repro.perf.jobs` provides the standard ones). ``parallel_map``
preserves input order and falls back to plain in-process execution for
``max_workers <= 1``; the simulations are pure, deterministic float
math, so results do not depend on which process computed them.

The parallel path owns one ``ProcessPoolExecutor`` per call: a CLI
invocation makes at most one parallel call, so a pool kept alive
between calls would have nothing to reuse. Jobs go out in fixed-size
chunks; a worker runs each chunk under its own observability session
when the coordinator has one active and ships back the results, the
first failure (as data), a metrics snapshot and a trace buffer. The
coordinator absorbs chunks as they arrive and shuts the pool down
without waiting on busy workers when a failed job, a lost worker or
Ctrl-C interrupts the gather.

When a simulation cache is active (:mod:`repro.perf.simcache`), jobs
that declare a ``signature()`` are looked up before dispatch and each
result is stored *as it arrives*, so an interrupted sweep re-run with
the same ``--sim-cache`` directory resumes from its completed jobs.
A failing job raises :class:`repro.errors.JobFailedError` with its
index and label; a worker process lost to a crash or kill raises
:class:`repro.errors.WorkerLostError` listing every job left without
a result.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Protocol
from typing import Sequence, Set, Tuple, runtime_checkable

from repro.errors import JobFailedError, SimulationError, WorkerLostError
from repro.obs.metrics import MetricsSnapshot
from repro.obs.stitch import WorkerTrace, buffer_from_session

_DEFAULT_MAX_WORKERS = 1

#: Jobs per pool submission. The sweeps this serves have 5–20 jobs of
#: very uneven cost, so one job per chunk keeps every worker busy.
_CHUNK_SIZE = 1

#: Fork-safety declaration (LINT016): the worker default is deliberately
#: per-process. The pool initializer pins it to 1 inside every worker so
#: jobs never fork nested pools; the coordinator's copy keeps the CLI's
#: ``--jobs`` value, and that divergence is the whole point.
_PROCESS_LOCAL_STATE = ("_DEFAULT_MAX_WORKERS",)


@runtime_checkable
class Job(Protocol):
    """Anything picklable with a no-argument ``run``."""

    def run(self) -> object: ...


def set_default_max_workers(n: int) -> None:
    """Set the process-global worker default (the CLI's ``--jobs``).

    Experiments consult this when no explicit ``jobs`` argument is
    given, so one flag at the entry point parallelises every sweep
    downstream of it.
    """
    global _DEFAULT_MAX_WORKERS
    if n < 1:
        raise SimulationError(f"max workers must be >= 1, got {n}")
    _DEFAULT_MAX_WORKERS = n


def default_max_workers() -> int:
    """The current process-global worker default (1 = serial)."""
    return _DEFAULT_MAX_WORKERS


def job_label(job: Job, index: int) -> str:
    """Human-readable identity of a job in error messages and reports."""
    method = getattr(job, "describe", None)
    if method is not None:
        return str(method())
    return f"{type(job).__name__}#{index}"


def _run_serial(job: Job, index: int, label: str) -> object:
    try:
        return job.run()
    except JobFailedError:
        raise  # a nested parallel_map already attributed the failure
    except Exception as exc:
        raise JobFailedError(
            f"job {index} ({label}) failed with "
            f"{type(exc).__name__}: {exc}",
            index=index,
            label=label,
        ) from exc


@dataclass(frozen=True)
class _JobFailure:
    """Picklable description of one failed job, shipped coordinator-side."""

    index: int
    label: str
    exc_type: str
    message: str
    traceback_text: str


@dataclass(frozen=True)
class _ChunkOutcome:
    """One worker chunk's payload: results, first failure, metrics, trace."""

    results: Tuple[Tuple[int, object], ...]
    failure: Optional[_JobFailure]
    snapshot: Optional[MetricsSnapshot]
    trace: Optional[WorkerTrace]


def _init_worker() -> None:
    """Pool initializer: a worker is the unit of parallelism, never a
    coordinator of nested pools."""
    set_default_max_workers(1)


def _run_chunk(
    indexed_jobs: Sequence[Tuple[int, Job]],
    labels: Sequence[str],
    collect_metrics: bool,
    collect_trace: bool,
) -> _ChunkOutcome:
    """Run one chunk of (index, job) pairs inside a worker.

    A failure stops the chunk at the failing job and is returned as
    data rather than raised — raising would lose the job index and, for
    unpicklable exception types, the error itself.
    """
    import traceback

    from repro.obs import runtime as obs_runtime
    from repro.obs.runtime import ObsSession

    session = None
    if collect_metrics or collect_trace:
        session = ObsSession(trace=collect_trace, metrics=collect_metrics)
        obs_runtime.activate(session)
    results: List[Tuple[int, object]] = []
    failure: Optional[_JobFailure] = None
    try:
        for (index, job), label in zip(indexed_jobs, labels):
            try:
                results.append((index, job.run()))
            except Exception as exc:  # noqa: BLE001 - shipped as data
                failure = _JobFailure(
                    index=index,
                    label=label,
                    exc_type=type(exc).__name__,
                    message=str(exc),
                    traceback_text=traceback.format_exc(),
                )
                break
    finally:
        if session is not None:
            obs_runtime.deactivate()
    snapshot = session.metrics.snapshot() if collect_metrics else None
    trace = None
    if session is not None and collect_trace:
        events, spans = buffer_from_session(session.tracer.buffer)
        trace = WorkerTrace(
            worker_pid=os.getpid(),
            anchor=session.anchor,
            first_index=indexed_jobs[0][0],
            events=events,
            spans=spans,
        )
    return _ChunkOutcome(tuple(results), failure, snapshot, trace)


def _map_on_pool(
    indices: Sequence[int],
    jobs: Sequence[Job],
    labels: Dict[int, str],
    max_workers: int,
    on_result: Callable[[int, object], None],
) -> None:
    """Run ``jobs[i]`` for each ``i`` in ``indices`` on a fresh pool.

    ``on_result`` fires once per job as its chunk arrives. The pool
    lives exactly as long as this call.
    """
    from repro.obs import runtime as obs_runtime

    session = obs_runtime.active()
    done: Set[int] = set()

    def absorb(outcome: _ChunkOutcome) -> None:
        for index, value in outcome.results:
            done.add(index)
            on_result(index, value)
        if outcome.snapshot is not None:
            session.metrics.absorb(outcome.snapshot)
        if outcome.trace is not None:
            session.absorb_worker_trace(outcome.trace)
        failure = outcome.failure
        if failure is not None:
            raise JobFailedError(
                f"job {failure.index} ({failure.label}) failed with "
                f"{failure.exc_type}: {failure.message}\n"
                f"worker traceback:\n{failure.traceback_text}",
                index=failure.index,
                label=failure.label,
            )

    pool = ProcessPoolExecutor(
        max_workers=min(max_workers, len(indices)),
        initializer=_init_worker,
    )
    pending: Set["Future[_ChunkOutcome]"] = set()
    try:
        try:
            for start in range(0, len(indices), _CHUNK_SIZE):
                chunk = indices[start : start + _CHUNK_SIZE]
                pending.add(
                    pool.submit(
                        _run_chunk,
                        [(i, jobs[i]) for i in chunk],
                        [labels[i] for i in chunk],
                        session.metrics.enabled,
                        session.tracer.enabled,
                    )
                )
            for future in as_completed(pending):  # iterates over a copy
                pending.discard(future)
                absorb(future.result())
        except BrokenProcessPool as exc:
            # Keep what finished before the loss: stored results let a
            # re-run with the same --sim-cache resume from them.
            for future in pending:
                if future.done() and future.exception() is None:
                    absorb(future.result())
            lost = tuple(i for i in indices if i not in done)
            shown = ", ".join(f"{i} ({labels[i]})" for i in lost[:5])
            raise WorkerLostError(
                f"a worker process died; {len(lost)} job(s) have no "
                f"result: {shown}" + (", ..." if len(lost) > 5 else ""),
                indices=lost,
                labels=tuple(labels[i] for i in lost),
            ) from exc
    except BaseException:  # failed job, lost worker, or Ctrl-C
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()


def parallel_map(
    jobs: Iterable[Job],
    max_workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[object]:
    """Run every job and return their results in input order.

    ``max_workers <= 1`` (or a single job to compute) executes in this
    process — the fallback used by default and under nested
    parallelism. Otherwise the jobs are distributed over a process pool
    created for this call. When a simulation cache is active
    (:func:`repro.perf.simcache.active_sim_cache`), cacheable jobs are
    served from disk and only the misses are executed; results are
    bit-identical on every path. A failing job raises
    :class:`~repro.errors.JobFailedError` naming its index and label; a
    lost worker raises :class:`~repro.errors.WorkerLostError`.
    """
    from repro.perf.simcache import active_sim_cache

    job_list = list(jobs)
    if max_workers is None:
        max_workers = default_max_workers()
    if labels is not None and len(labels) != len(job_list):
        raise SimulationError(
            f"labels/jobs length mismatch: {len(labels)} != {len(job_list)}"
        )
    label_of = {
        i: (labels[i] if labels is not None else job_label(job, i))
        for i, job in enumerate(job_list)
    }

    results: Dict[int, object] = {}
    keys: Dict[int, str] = {}
    cache = active_sim_cache()
    if cache is not None:
        for i, job in enumerate(job_list):
            key = cache.key_for(job)
            if key is None:
                continue
            keys[i] = key
            found, value = cache.lookup(key)
            if found:
                results[i] = value

    # Stores are eager — each result is persisted as it arrives, not
    # batched after the sweep — so an interrupted run keeps every
    # completed job for a later run on the same cache directory.
    def store_result(i: int, value: object) -> None:
        results[i] = value
        key = keys.get(i)
        if cache is not None and key is not None:
            cache.store(key, value)

    pending = [i for i in range(len(job_list)) if i not in results]
    if max_workers <= 1 or len(pending) <= 1:
        for i in pending:
            store_result(i, _run_serial(job_list[i], i, label_of[i]))
    else:
        from repro.obs import runtime as obs_runtime
        from repro.obs.events import HARNESS_CLOCK

        session = obs_runtime.active()
        span = None
        if session.tracer.enabled:
            # Harness-clock span bracketing the whole fan-out, so a
            # stitched timeline shows the coordinator waiting while
            # the worker rows do the simulating.
            span = session.tracer.span(
                "parallel.dispatch",
                start=session.harness_time(),
                track="perf.pool",
                category="harness",
                clock=HARNESS_CLOCK,
                jobs=len(pending),
                workers=max_workers,
            )
        try:
            _map_on_pool(
                pending, job_list, label_of, max_workers, store_result
            )
        finally:
            if span is not None:
                span.finish(session.harness_time())
                span.close()
    return [results[i] for i in range(len(job_list))]
