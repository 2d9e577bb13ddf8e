"""Scheduler interface shared by all policies."""

from __future__ import annotations

from typing import List, Sequence

from repro.dram.bank import ChannelState
from repro.dram.queue import ScanQueue
from repro.dram.request import Request
from repro.errors import SimulationError

READY_WINDOW_NS = 3.0
"""A request is *ready* if its data burst could start within this many
nanoseconds of now (:meth:`Scheduler.ready_subset`)."""


class Scheduler:
    """Chooses which queued request a channel dispatches next.

    One scheduler instance serves all channels of the controller so
    policies with global per-core state (attained service, clustering)
    see the full picture. Subclasses implement :meth:`select` and name
    in :attr:`queue_type` the channel queue (:mod:`repro.dram.queue`)
    that indexes what their ``select`` reads. ``select`` calls the
    queue's methods directly; :class:`ScanQueue` offers every one of
    them by scanning.
    """

    name = "base"
    queue_type: type = ScanQueue

    def __init__(self, n_cores: int, seed: int = 0):
        if n_cores <= 0:
            raise SimulationError("n_cores must be positive")
        self.n_cores = n_cores
        self.seed = seed

    def select(self, queue, channel: ChannelState, now: float) -> Request:
        """Pick the next request to dispatch from a non-empty queue."""
        raise NotImplementedError

    def on_dispatch(self, request: Request, now: float) -> None:
        """Notification hook after a request is dispatched.

        The event loop skips the call for policies that do not
        override it.
        """

    @staticmethod
    def ready_subset(
        requests: Sequence[Request],
        channel: ChannelState,
        now: float,
        window_ns: float = READY_WINDOW_NS,
    ) -> List[Request]:
        """Requests whose data burst could start almost immediately.

        Real controllers only issue *ready* commands; thread-priority
        rules apply among them. Restricting selection to the ready subset
        (when non-empty) lets bank preparation overlap the bus instead of
        stalling it. FCFS deliberately does not use this — head-of-line
        blocking is its defining flaw.

        The ready set is every request with ``channel.earliest_data_start
        <= now + window_ns`` (:meth:`ScanQueue.ready_subset`), or every
        request when none is. The result's order is unspecified: callers
        reduce it with a keyed minimum.
        """
        return ScanQueue(requests).ready_subset(channel, now, window_ns)
