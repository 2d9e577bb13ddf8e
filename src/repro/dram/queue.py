"""Channel request queues: one container per scheduling policy, plus
the list-scan oracle they are tested against.

The event loop's hot operations on a channel queue are: append on
arrival, remove-by-identity on dispatch, and the scheduler's selection
questions — "which request is oldest?", "which hit an open row?",
"which could start their data burst almost immediately?", "what is
each core's oldest request?". Each policy asks only some of them, so
each names the container that indexes just what its ``select`` reads
(``Scheduler.queue_type``):

- :class:`ArrivalQueue` (FCFS): the whole queue in arrival order;
- :class:`CoreQueue` (SMS): plus one bucket per core;
- :class:`ChannelQueue` (FR-FCFS, ATLAS, TCM): plus one bucket per
  bank and one per ``(bank, row)``.

Every index is an insertion-ordered ``{req_id: request}`` dict, so
removal is O(1) and every index stays in arrival order, because the
event loop appends each request the moment it arrives: its ``now``
never decreases and req_ids are issued in sequence, so append order is
the ``(arrival_ns, req_id)`` order that every scheduler ranks by.
Selections then read the head of an index or an arrival-ordered prefix
of a bucket instead of scanning.

:class:`ScanQueue` answers the same questions by scanning a plain
list, as the rules are written. Equivalence tests run the simulator
with it and assert bit-identical ``SimResult``s
(``tests/dram/test_queue.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.dram.bank import ChannelState
from repro.dram.request import Request

_Bucket = Dict[int, Request]


def arrival_key(request: Request) -> Tuple[float, int]:
    """The FCFS order: earliest arrival, then lowest id."""
    return request.arrival_ns, request.req_id


class ArrivalQueue:
    """Arrival-ordered request container: the FCFS queue."""

    __slots__ = ("_all",)

    def __init__(self) -> None:
        self._all: _Bucket = {}

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Request]:
        """Requests in arrival order."""
        return iter(self._all.values())

    def append(self, request: Request) -> None:
        """Enqueue a request that arrived no earlier than any queued one."""
        self._all[request.req_id] = request

    def remove(self, request: Request) -> None:
        """O(1) removal; raises ``KeyError`` if the request is absent."""
        del self._all[request.req_id]

    def oldest(self) -> Request:
        """The head: earliest arrival, then lowest id."""
        return next(iter(self._all.values()))


class CoreQueue(ArrivalQueue):
    """Arrival order plus one bucket per core: the SMS queue."""

    __slots__ = ("_cores",)

    def __init__(self) -> None:
        super().__init__()
        self._cores: Dict[int, _Bucket] = {}

    def append(self, request: Request) -> None:
        rid = request.req_id
        self._all[rid] = request
        group = self._cores.get(request.core)
        if group is None:
            self._cores[request.core] = {rid: request}
        else:
            group[rid] = request

    def remove(self, request: Request) -> None:
        rid = request.req_id
        del self._all[rid]
        group = self._cores[request.core]
        del group[rid]
        if not group:
            del self._cores[request.core]

    def by_core(self) -> Mapping[int, Mapping[int, Request]]:
        """Each core's queued requests, arrival-ordered, keyed by req_id.

        A live read-only view: only cores with queued requests appear.
        """
        return self._cores


class ChannelQueue(ArrivalQueue):
    """Arrival order plus per-bank and per-``(bank, row)`` buckets: the
    queue of the row-aware policies (FR-FCFS, ATLAS, TCM)."""

    __slots__ = ("_banks", "_rows")

    def __init__(self) -> None:
        super().__init__()
        self._banks: Dict[int, _Bucket] = {}
        self._rows: Dict[Tuple[int, int], _Bucket] = {}

    def append(self, request: Request) -> None:
        """Enqueue a request that arrived no earlier than any queued one."""
        rid = request.req_id
        self._all[rid] = request
        bank = request.bank
        group = self._banks.get(bank)
        if group is None:
            self._banks[bank] = {rid: request}
        else:
            group[rid] = request
        key = (bank, request.row)
        group = self._rows.get(key)
        if group is None:
            self._rows[key] = {rid: request}
        else:
            group[rid] = request

    def remove(self, request: Request) -> None:
        """O(1) removal; raises ``KeyError`` if the request is absent."""
        rid = request.req_id
        del self._all[rid]
        bank = request.bank
        group = self._banks[bank]
        del group[rid]
        if not group:
            del self._banks[bank]
        key = (bank, request.row)
        group = self._rows[key]
        del group[rid]
        if not group:
            del self._rows[key]

    def open_row_hits(self, channel: ChannelState) -> List[Request]:
        """The oldest queued request of each open row.

        A bank has at most one open row, so this probes each queued
        bank's ``(bank, open_row)`` group and returns its head: the
        oldest row hit is the oldest of these heads. Every queued bank
        is materialised, exactly like a full ``channel.is_row_hit``
        scan.
        """
        heads: List[Request] = []
        banks = channel.banks
        rows = self._rows
        # lint: disable=LINT001 — probe order never reaches a scheduler
        # decision: FR-FCFS reduces the heads with min() on the total
        # (arrival_ns, req_id) key, and materialising a bank is
        # order-free (refresh walks banks sorted). Each row group is in
        # arrival order, so its first value is its oldest request.
        for bank_index in self._banks:
            bank = banks.get(bank_index) or channel.bank(bank_index)
            group = rows.get((bank_index, bank.open_row))
            if group is not None:
                heads.append(next(iter(group.values())))
        return heads

    def select_ready(
        self,
        channel: ChannelState,
        now: float,
        window_ns: float,
        priority: Sequence[float],
    ) -> Request:
        """The best ready request by ``(priority[core], not hit, age)``.

        :meth:`ScanQueue.select_ready` in one pass, without the pool
        list or key tuples. The queue must be non-empty.

        A request ``r`` is ready iff ``channel.earliest_data_start(r,
        now) <= now + window_ns``; this finds the ready requests per
        bank instead of per request. With ``limit = now + window_ns``
        (``window_ns >= 0``, so ``now <= limit``) and preparation time
        ``prep`` (0 for an open-row hit), ``r`` is ready iff
        ``bank.ready_at + prep <= limit`` and ``arrival_ns + prep <=
        limit``: ``max`` commutes with the monotone float rounding of
        ``+ prep``, so the test is exact. The arrival half holds for an
        arrival-ordered prefix of the bank's bucket; past that prefix
        only open-row hits can still qualify, and they are read from
        the ``(bank, row)`` index.

        The running minimum compares ``(priority[core], not hit,
        req_id)``, component by component. The scan ranks by ``(...,
        arrival_ns, req_id)``, but in this queue req_id order *is*
        ``(arrival_ns, req_id)`` order (append order, see the module
        docstring), and req_ids are unique, so the two keys pick the
        same request. When nothing is ready the minimum runs over the
        whole queue, as the scan's fallback does.

        Every bank with queued requests is materialised, exactly as
        the per-request scan does: ``ChannelState.refresh_if_due``
        only touches materialised banks, so the set is observable.
        """
        timing = channel.timing
        limit = now + window_ns
        miss_prep = timing.t_rcd_ns
        conflict_prep = timing.t_rp_ns + timing.t_rcd_ns
        banks = channel.banks
        rows = self._rows
        best = None
        best_p = math.inf
        best_miss = True
        best_id = math.inf
        # lint: disable=LINT001 — bank order never reaches the result:
        # the running minimum is over a total key (req_id is unique),
        # and materialising a bank is order-free (refresh walks banks
        # sorted). Each bucket is in arrival order because append order
        # is (arrival_ns, req_id) order. Pinned by the fused-selection
        # property test and TestSaturatedEquivalence in
        # tests/dram/test_queue.py.
        for bank_index, bucket in self._banks.items():
            bank = banks.get(bank_index) or channel.bank(bank_index)
            open_row = bank.open_row
            ready_at = bank.ready_at
            prep = conflict_prep if open_row is not None else miss_prep
            if ready_at + prep <= limit:
                # Every request passes the bank half: walk the
                # arrival-ordered prefix that passes the arrival half
                # (hits have prep 0, so the prefix's hits pass too).
                stop_id = math.inf
                # lint: disable=LINT001 — arrival-ordered bucket: the
                # prefix test relies on it (see the loop above).
                for r in bucket.values():
                    if r.arrival_ns + prep > limit:
                        stop_id = r.req_id
                        break
                    p = priority[r.core]
                    if p > best_p:
                        continue
                    miss = r.row != open_row
                    if (
                        p < best_p
                        or miss < best_miss
                        or (miss == best_miss and r.req_id < best_id)
                    ):
                        best, best_p, best_miss, best_id = (
                            r, p, miss, r.req_id
                        )
                if open_row is None or stop_id == math.inf:
                    continue
            elif open_row is None or ready_at > limit:
                continue
            else:
                stop_id = -1
            # Past the prefix only open-row hits (prep 0) can be ready.
            hits = rows.get((bank_index, open_row))
            if hits is None:
                continue
            # lint: disable=LINT001 — arrival-ordered row group; req_ids
            # ascend with arrival, so ``>= stop_id`` skips exactly the
            # hits the prefix already took.
            for r in hits.values():
                if r.req_id < stop_id:
                    continue
                if r.arrival_ns > limit:
                    break
                p = priority[r.core]
                if p < best_p or (
                    p == best_p and (best_miss or r.req_id < best_id)
                ):
                    best, best_p, best_miss, best_id = r, p, False, r.req_id
        if best is not None:
            return best
        # Nothing is ready: every queued bank now exists.
        # lint: disable=LINT001 — arrival order; the minimum is over a
        # total key, so the order cannot change the result.
        for r in self._all.values():
            p = priority[r.core]
            if p > best_p:
                continue
            miss = banks[r.bank].open_row != r.row
            if (
                p < best_p
                or miss < best_miss
                or (miss == best_miss and r.req_id < best_id)
            ):
                best, best_p, best_miss, best_id = r, p, miss, r.req_id
        return best


class ScanQueue(list):
    """A plain list answering every policy's questions by scanning.

    The reference the indexed queues are held to: each method applies
    its rule to every queued request, in any order, and materialises
    every queued bank it inspects. It keeps no index, so it relies on
    neither append order nor req_id order.
    """

    def oldest(self) -> Request:
        """The earliest arrival, then the lowest id."""
        return min(self, key=arrival_key)

    def open_row_hits(self, channel: ChannelState) -> List[Request]:
        """Every queued request that would hit its bank's open row.

        ``channel.is_row_hit`` inlined; missing banks are materialised
        just the same.
        """
        banks = channel.banks
        return [
            r
            for r in self
            if (banks.get(r.bank) or channel.bank(r.bank)).open_row == r.row
        ]

    def ready_subset(
        self, channel: ChannelState, now: float, window_ns: float
    ) -> List[Request]:
        """Requests whose data burst could start almost immediately.

        Every request with ``channel.earliest_data_start <= now +
        window_ns``, found by a per-request scan that materialises
        every queued bank; the whole queue when none is. The result's
        order is unspecified: callers reduce it with a keyed minimum.
        """
        ready = [
            r
            for r in self
            if channel.earliest_data_start(r, now) <= now + window_ns
        ]
        return ready if ready else list(self)

    def select_ready(
        self,
        channel: ChannelState,
        now: float,
        window_ns: float,
        priority: Sequence[float],
    ) -> Request:
        """The ATLAS/TCM rule over the :meth:`ready_subset`.

        The minimum of ``(priority[core], not row hit, arrival_ns,
        req_id)``: the same request as filtering the pool to its best
        priority, then to its row hits if any, then taking the oldest.
        ``req_id`` is unique, so the minimum is too.
        """
        pool = self.ready_subset(channel, now, window_ns)
        banks = channel.banks  # ready_subset materialised every bank
        return min(
            pool,
            key=lambda r: (
                priority[r.core],
                banks[r.bank].open_row != r.row,
                r.arrival_ns,
                r.req_id,
            ),
        )

    def by_core(self) -> Mapping[int, Mapping[int, Request]]:
        """Each core's queued requests, keyed by req_id, grouped after
        a sort by :func:`arrival_key`."""
        groups: Dict[int, Dict[int, Request]] = {}
        for r in sorted(self, key=arrival_key):
            groups.setdefault(r.core, {})[r.req_id] = r
        return groups
