"""Arrival-ordered channel request queue with per-bank, per-core and
per-(bank, row) indexes.

The event loop's hot operations on a channel queue are: append on
arrival, remove-by-identity on dispatch, and the schedulers' selection
questions — "which request is oldest?", "which hit an open row?",
"which could start their data burst almost immediately?", "what is
each core's oldest request?". A plain list answers every one of them
with a scan of the whole queue. :class:`ChannelQueue` keeps the
requests in insertion-ordered ``{req_id: request}`` dicts:

- one for the whole queue;
- one per bank, one per core and one per ``(bank, row)``.

Removal is O(1) and every index stays in arrival order, because the
event loop appends each request the moment it arrives: its ``now``
never decreases and req_ids are issued in sequence, so append order is
the ``(arrival_ns, req_id)`` order that every scheduler ranks by.
Selections then read the head of an index or an arrival-ordered prefix
of a bucket instead of scanning. Equivalence tests run the simulator
with plain-list queues (the scan path) and assert bit-identical
``SimResult``s (``tests/dram/test_queue.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple

from repro.dram.bank import ChannelState
from repro.dram.request import Request

_Bucket = Dict[int, Request]


class ChannelQueue:
    """Arrival-ordered request container used as one channel's queue."""

    __slots__ = ("_all", "_banks", "_cores", "_rows")

    def __init__(self) -> None:
        self._all: _Bucket = {}
        self._banks: Dict[int, _Bucket] = {}
        self._cores: Dict[int, _Bucket] = {}
        self._rows: Dict[Tuple[int, int], _Bucket] = {}

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Request]:
        """Requests in arrival order."""
        return iter(self._all.values())

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
        group = self._cores.get(request.core)
        if group is None:
            self._cores[request.core] = {rid: request}
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
        group = self._cores[request.core]
        del group[rid]
        if not group:
            del self._cores[request.core]
        key = (bank, request.row)
        group = self._rows[key]
        del group[rid]
        if not group:
            del self._rows[key]

    def oldest(self) -> Request:
        """The head: earliest arrival, then lowest id."""
        return next(iter(self._all.values()))

    def by_core(self) -> Mapping[int, Mapping[int, Request]]:
        """Each core's queued requests, arrival-ordered, keyed by req_id.

        A live read-only view: only cores with queued requests appear.
        """
        return self._cores

    def open_row_hits(self, channel: ChannelState) -> List[Request]:
        """Queued requests whose bank currently has their row open.

        Probes each distinct queued (bank, row) group once — the same
        hit set a full ``channel.is_row_hit`` scan would produce (bank
        state is materialised per probed bank, exactly like the scan).
        """
        hits: List[Request] = []
        # lint: disable=LINT001 — probe order never reaches a scheduler
        # decision: every selection over the hit set reduces with min()
        # on the total (arrival_ns, req_id) key, and the list-queue
        # equivalence tests (tests/dram/test_queue.py) pin bit-identical
        # results. Sorting here would put an O(n log n) pass on the
        # event loop's hottest path for nothing.
        for (bank_index, row), group in self._rows.items():
            if channel.bank(bank_index).open_row == row:
                hits.extend(group.values())
        return hits

    def ready(
        self, channel: ChannelState, now: float, window_ns: float
    ) -> List[Request]:
        """Requests whose data burst could start by ``now + window_ns``.

        The same set as keeping each request ``r`` with
        ``channel.earliest_data_start(r, now) <= now + window_ns``,
        found per bank instead of per request. With ``limit = now +
        window_ns`` (``window_ns >= 0``, so ``now <= limit``) and
        preparation time ``prep`` (0 for an open-row hit), a request is
        ready iff ``bank.ready_at + prep <= limit`` and ``arrival_ns +
        prep <= limit``: ``max`` commutes with the monotone float
        rounding of ``+ prep``, so the test is exact.
        The arrival half holds for an arrival-ordered prefix of the
        bank's bucket; past that prefix only open-row hits can still
        qualify, and they are read from the ``(bank, row)`` index.

        Every bank with queued requests is materialised, exactly as
        the per-request scan does: ``ChannelState.refresh_if_due``
        only touches materialised banks, so the set is observable.
        """
        timing = channel.timing
        limit = now + window_ns
        miss_prep = timing.t_rcd_ns
        conflict_prep = timing.t_rp_ns + timing.t_rcd_ns
        ready: List[Request] = []
        banks = channel.banks
        # lint: disable=LINT001 — bank order never reaches a scheduler
        # decision: ready_subset's callers reduce the set with min() on
        # the total (arrival_ns, req_id) key, and materialising a bank
        # is order-free (refresh walks banks sorted). Each bucket is in
        # arrival order because append order is (arrival_ns, req_id)
        # order. Pinned by TestSaturatedEquivalence and the ready-set
        # property test in tests/dram/test_queue.py.
        for bank_index, bucket in self._banks.items():
            bank = banks.get(bank_index) or channel.bank(bank_index)
            open_row = bank.open_row
            ready_at = bank.ready_at
            prep = conflict_prep if open_row is not None else miss_prep
            if ready_at + prep <= limit:
                # Every request passes the bank half: keep the
                # arrival-ordered prefix that passes the arrival half
                # (hits have prep 0, so the prefix's hits pass too).
                requests = bucket.values()
                if next(reversed(requests)).arrival_ns + prep <= limit:
                    ready.extend(requests)
                    continue
                # The last request fails, so this loop always breaks.
                # lint: disable=LINT001 — arrival-ordered bucket: the
                # prefix test relies on it (see the loop above).
                for r in requests:
                    if r.arrival_ns + prep > limit:
                        stop_id = r.req_id
                        break
                    ready.append(r)
                if open_row is None:
                    continue
            elif open_row is None or ready_at > limit:
                continue
            else:
                stop_id = -1
            # Past the prefix only open-row hits (prep 0) can be ready.
            hits = self._rows.get((bank_index, open_row))
            if hits is not None:
                # lint: disable=LINT001 — arrival-ordered row group;
                # req_ids ascend with arrival, so ``>= stop_id`` skips
                # exactly the hits the prefix already took.
                for r in hits.values():
                    if r.req_id >= stop_id and r.arrival_ns <= limit:
                        ready.append(r)
        return ready
