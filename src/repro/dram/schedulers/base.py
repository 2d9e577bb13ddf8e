"""Scheduler interface shared by all policies."""

from __future__ import annotations

from typing import List, Sequence

from repro.dram.bank import ChannelState
from repro.dram.request import Request
from repro.errors import SimulationError

READY_WINDOW_NS = 3.0
"""A request is *ready* if its data burst could start within this many
nanoseconds of now (:meth:`Scheduler.ready_subset`)."""


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
        """Requests that would hit their bank's open row (a scan).

        ``channel.is_row_hit`` inlined; missing banks are materialised
        just the same.
        """
        banks = channel.banks
        return [
            r
            for r in requests
            if (banks.get(r.bank) or channel.bank(r.bank)).open_row == r.row
        ]

    def hit_first_oldest(
        self, requests: Sequence[Request], channel: ChannelState
    ) -> Request:
        """Prefer row hits, then oldest — the FR-FCFS core rule.

        The oldest row hit is the head of some open ``(bank, row)``
        group, so a :class:`repro.dram.queue.ChannelQueue` offers just
        those heads (:meth:`ChannelQueue.open_row_hits`); plain
        sequences offer every hit. The minimum is the same request.
        """
        indexed_hits = getattr(requests, "open_row_hits", None)
        if indexed_hits is not None:
            hits = indexed_hits(channel)
        else:
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
        window_ns: float = READY_WINDOW_NS,
    ) -> List[Request]:
        """Requests whose data burst could start almost immediately.

        Real controllers only issue *ready* commands; thread-priority
        rules apply among them. Restricting selection to the ready subset
        (when non-empty) lets bank preparation overlap the bus instead of
        stalling it. FCFS deliberately does not use this — head-of-line
        blocking is its defining flaw.

        The ready set is every request with ``channel.earliest_data_start
        <= now + window_ns``, found by a per-request scan that
        materialises every queued bank. The result's order is
        unspecified: callers reduce it with keyed ``min``.
        """
        ready = [
            r
            for r in requests
            if channel.earliest_data_start(r, now) <= now + window_ns
        ]
        return ready if ready else list(requests)

    def priority_select(
        self,
        queue: Sequence[Request],
        channel: ChannelState,
        now: float,
        priority: Sequence[float],
    ) -> Request:
        """The ATLAS/TCM rule: :meth:`priority_hit_oldest` over the
        :meth:`ready_subset`.

        A :class:`repro.dram.queue.ChannelQueue` answers in one fused
        pass (:meth:`ChannelQueue.select_ready`); plain sequences run
        the two-step scan, which the list-queue equivalence tests hold
        the fused pass to.
        """
        fused = getattr(queue, "select_ready", None)
        if fused is not None:
            return fused(channel, now, READY_WINDOW_NS, priority)
        pool = self.ready_subset(queue, channel, now)
        return self.priority_hit_oldest(pool, channel, priority)
