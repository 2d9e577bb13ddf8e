"""Scheduler interface shared by all policies."""

from __future__ import annotations

from typing import List, Sequence

from repro.dram.bank import ChannelState
from repro.dram.request import Request
from repro.errors import SimulationError


class Scheduler:
    """Chooses which queued request a channel dispatches next.

    One scheduler instance serves all channels of the controller so
    policies with global per-core state (attained service, clustering)
    see the full picture. Subclasses implement :meth:`select`.
    """

    name = "base"

    def __init__(self, n_cores: int, seed: int = 0):
        if n_cores <= 0:
            raise SimulationError("n_cores must be positive")
        self.n_cores = n_cores
        self.seed = seed

    def select(
        self, queue: Sequence[Request], channel: ChannelState, now: float
    ) -> Request:
        """Pick the next request to dispatch from a non-empty queue."""
        raise NotImplementedError

    def on_dispatch(self, request: Request, now: float) -> None:
        """Notification hook after a request is dispatched."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def oldest(requests: Sequence[Request]) -> Request:
        """FCFS tiebreaker: earliest arrival, then lowest id."""
        return min(requests, key=lambda r: (r.arrival_ns, r.req_id))

    @staticmethod
    def head(queue: Sequence[Request]) -> Request:
        """The oldest request of a whole channel queue.

        An arrival-ordered :class:`repro.dram.queue.ChannelQueue` reads
        its head in O(1); plain sequences fall back to :meth:`oldest`.
        """
        indexed_oldest = getattr(queue, "oldest", None)
        if indexed_oldest is not None:
            return indexed_oldest()
        return Scheduler.oldest(queue)

    @staticmethod
    def row_hits(
        requests: Sequence[Request], channel: ChannelState
    ) -> List[Request]:
        """Requests that would hit their bank's open row.

        A whole-queue container with a per-(bank, row) index (see
        :class:`repro.dram.queue.ChannelQueue`) answers this by probing
        each open row directly; filtered subsets fall back to the scan.
        Either way the same hit set is produced.
        """
        indexed_hits = getattr(requests, "open_row_hits", None)
        if indexed_hits is not None:
            return indexed_hits(channel)
        # channel.is_row_hit inlined: this scan runs on every ATLAS/TCM
        # selection. Missing banks are materialised just the same.
        banks = channel.banks
        return [
            r
            for r in requests
            if (banks.get(r.bank) or channel.bank(r.bank)).open_row == r.row
        ]

    def hit_first_oldest(
        self, requests: Sequence[Request], channel: ChannelState
    ) -> Request:
        """Prefer row hits, then oldest — the FR-FCFS core rule."""
        hits = self.row_hits(requests, channel)
        return self.oldest(hits) if hits else self.head(requests)

    @staticmethod
    def priority_hit_oldest(
        pool: Sequence[Request],
        channel: ChannelState,
        priority: Sequence[float],
    ) -> Request:
        """Lowest per-core ``priority``, then row hits, then oldest.

        One pass keeping the lexicographic minimum of ``(priority[core],
        not row hit, arrival_ns, req_id)``: the same request as filtering
        the pool to its best priority and applying
        :meth:`hit_first_oldest`, without building the intermediate
        lists. ``req_id`` is unique, so the minimum is too. ``pool`` must
        be non-empty, and every bank of it must already exist in
        ``channel.banks``: :meth:`ready_subset` returns a non-empty pool
        and materialises every queued bank.
        """
        banks = channel.banks
        best = None
        best_key = None
        for r in pool:
            key = (
                priority[r.core],
                banks[r.bank].open_row != r.row,
                r.arrival_ns,
                r.req_id,
            )
            if best_key is None or key < best_key:
                best, best_key = r, key
        return best

    @staticmethod
    def ready_subset(
        requests: Sequence[Request],
        channel: ChannelState,
        now: float,
        window_ns: float = 3.0,
    ) -> List[Request]:
        """Requests whose data burst could start almost immediately.

        Real controllers only issue *ready* commands; thread-priority
        rules apply among them. Restricting selection to the ready subset
        (when non-empty) lets bank preparation overlap the bus instead of
        stalling it. FCFS deliberately does not use this — head-of-line
        blocking is its defining flaw.

        The ready set is every request with ``channel.earliest_data_start
        <= now + window_ns``. A whole-queue :class:`repro.dram.queue.
        ChannelQueue` finds it with a per-bank test over its
        arrival-ordered bank buckets (:meth:`ChannelQueue.ready`);
        filtered subsets and plain lists fall back to the per-request
        scan. Either way the same set is produced and the same banks are
        materialised. The result's order is unspecified: callers reduce
        it with keyed ``min``.
        """
        indexed_ready = getattr(requests, "ready", None)
        if indexed_ready is not None:
            ready = indexed_ready(channel, now, window_ns)
        else:
            ready = [
                r
                for r in requests
                if channel.earliest_data_start(r, now) <= now + window_ns
            ]
        return ready if ready else list(requests)
