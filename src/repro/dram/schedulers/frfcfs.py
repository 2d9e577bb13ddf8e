"""First-ready FCFS (Rixner et al.): row hits first, then oldest.

Maximizes row-buffer hit rate and bus utilization but has no fairness
control — memory-intensive streams starve lighter ones (Fig. 5(b)).
"""

from __future__ import annotations

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue, arrival_key
from repro.dram.request import Request
from repro.dram.schedulers.base import Scheduler


class FRFCFSScheduler(Scheduler):
    """Row-hit-first dispatch."""

    name = "frfcfs"
    queue_type = ChannelQueue

    def select(
        self, queue: ChannelQueue, channel: ChannelState, now: float
    ) -> Request:
        # The oldest row hit is the oldest of any superset of the open
        # rows' heads: ChannelQueue offers just the heads, ScanQueue
        # every hit.
        hits = queue.open_row_hits(channel)
        return min(hits, key=arrival_key) if hits else queue.oldest()
