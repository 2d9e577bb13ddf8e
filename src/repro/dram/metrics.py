"""Aggregate statistics of a DRAM simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.errors import AnalysisError


@dataclass
class DramMetrics:
    """Counters of a simulation run.

    ``CMPSystem.run`` counts in loop locals and fills these once, at
    the end of the run. ``sum_queue_latency_ns`` is the ``+=`` sum of
    the latencies in dispatch order (not ``math.fsum`` or 3.12's
    compensated ``sum``), so ``mean_latency_ns`` is the same float on
    every Python version.
    """

    row_hits: int = 0
    sum_queue_latency_ns: float = 0.0
    latencies_ns: List[float] = field(default_factory=list)
    """One latency per served (64-byte) request, in dispatch order."""

    def latency_percentile(self, q: float) -> float:
        """The q-th latency percentile in ns (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        if not self.latencies_ns:
            return 0.0
        ordered = sorted(self.latencies_ns)
        index = min(
            int(round(q / 100.0 * (len(ordered) - 1))), len(ordered) - 1
        )
        return ordered[index]

    @property
    def row_hit_rate(self) -> float:
        total = len(self.latencies_ns)
        return self.row_hits / total if total else 0.0

    @property
    def mean_latency_ns(self) -> float:
        total = len(self.latencies_ns)
        return self.sum_queue_latency_ns / total if total else 0.0

    def effective_bw_gbps(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        # bytes per ns == GB/s
        return 64 * len(self.latencies_ns) / elapsed_ns


def unfairness_index(slowdowns: Iterable[float]) -> float:
    """Max-over-min slowdown across cores (Kim et al.'s metric).

    1.0 is perfectly fair; the fairness-control literature the paper
    builds on (ATLAS/TCM) optimizes exactly this ratio. Slowdowns are
    standalone-time over co-run-time inverses, i.e. ``1 / RS``.
    """
    values = [s for s in slowdowns if s > 0]
    if not values:
        raise AnalysisError("need at least one positive slowdown")
    return max(values) / min(values)
