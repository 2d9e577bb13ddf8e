"""Per-policy queue indexing, buffer-waiter FIFO, and equivalence with
the ScanQueue oracle."""

import contextlib
import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram import system as dram_system
from repro.dram import trace
from repro.dram.address import AddressMapper
from repro.dram.bank import ChannelState
from repro.dram.cores import CoreConfig, CoreState, staggered_base
from repro.dram.queue import ArrivalQueue, ChannelQueue, CoreQueue, ScanQueue
from repro.dram.request import Request
from repro.dram.schedulers import atlas, make_scheduler
from repro.dram.schedulers.base import READY_WINDOW_NS, Scheduler
from repro.dram.schedulers.frfcfs import FRFCFSScheduler
from repro.dram.system import BufferWaitQueue, CMPSystem
from repro.dram.timing import DDR4_3200

POLICIES = ("fcfs", "frfcfs", "atlas", "tcm", "sms")
INDEXED = (ArrivalQueue, CoreQueue, ChannelQueue)


def make_request(req_id, bank=0, row=0, arrival=0.0, core=0):
    return Request(
        req_id=req_id,
        core=core,
        channel=0,
        bank=bank,
        row=row,
        arrival_ns=arrival,
    )


class TestChannelQueue:
    def test_append_iter_len(self):
        for queue_type in INDEXED:
            queue = queue_type()
            requests = [make_request(i, bank=i % 2) for i in range(5)]
            for r in requests:
                queue.append(r)
            assert len(queue) == 5
            assert bool(queue)
            assert [r.req_id for r in queue] == list(range(5))

    def test_removal_keeps_arrival_order(self):
        for queue_type in INDEXED:
            queue = queue_type()
            requests = [
                make_request(i, bank=i % 3, arrival=float(i), core=i % 2)
                for i in range(8)
            ]
            for r in requests:
                queue.append(r)
            for victim in (requests[0], requests[4], requests[7]):
                queue.remove(victim)
            assert [r.req_id for r in queue] == [1, 2, 3, 5, 6]
            assert queue.oldest() is requests[1]
            if queue_type is CoreQueue:
                assert {c: list(g) for c, g in queue.by_core().items()} == {
                    1: [1, 3, 5],
                    0: [2, 6],
                }
            for r in list(queue):
                queue.remove(r)
            assert not queue
            if queue_type is CoreQueue:
                assert not queue.by_core()

    def test_ready_materialises_exactly_the_queued_banks(self):
        """Refresh only touches materialised banks, so select_ready()
        must create bank state for every bank with queued requests —
        also the ones with nothing ready — and for no other bank."""
        queue = ChannelQueue()
        for i, bank in enumerate((5, 2, 5, 7)):
            queue.append(make_request(i, bank=bank, row=i, arrival=0.0))
        indexed, scanned = (
            ChannelState(index=0, timing=DDR4_3200) for _ in range(2)
        )
        for channel in (indexed, scanned):
            channel.bank(0).ready_at = 1e9  # an idle, unqueued bank
            channel.bank(7).ready_at = 1e9  # queued but never ready
        priority = [0.0]
        chosen = queue.select_ready(indexed, 20.0, READY_WINDOW_NS, priority)
        pool = Scheduler.ready_subset(list(queue), scanned, 20.0)
        assert {r.req_id for r in pool} == {0, 1, 2}
        assert chosen is ScanQueue(queue).select_ready(
            scanned, 20.0, READY_WINDOW_NS, priority
        )
        assert sorted(indexed.banks) == sorted(scanned.banks) == [0, 2, 5, 7]

    def test_select_ready_falls_back_to_whole_queue(self):
        """Nothing ready: the best request of the whole queue, with
        every queued bank materialised."""
        queue = ChannelQueue()
        for i, (bank, core) in enumerate(((3, 1), (1, 0), (3, 0), (1, 1))):
            queue.append(make_request(i, bank=bank, row=i % 2, core=core))
        indexed, scanned = (
            ChannelState(index=0, timing=DDR4_3200) for _ in range(2)
        )
        for channel in (indexed, scanned):
            channel.bank(3).open_row = 0
            channel.bank(3).ready_at = 1e9
        priority = [0.0, 1.0]
        pool = Scheduler.ready_subset(list(queue), scanned, 0.0)
        assert [r.req_id for r in pool] == [0, 1, 2, 3]  # the fallback
        chosen = queue.select_ready(indexed, 0.0, READY_WINDOW_NS, priority)
        # Core 0 ranks first; its request 2 hits bank 3's open row and
        # beats its older miss, request 1.
        assert chosen.req_id == 2
        assert chosen is ScanQueue(queue).select_ready(
            scanned, 0.0, READY_WINDOW_NS, priority
        )
        assert sorted(indexed.banks) == sorted(scanned.banks) == [1, 3]

    def test_remove_is_membership_exact(self):
        queue = ChannelQueue()
        requests = [make_request(i) for i in range(4)]
        for r in requests:
            queue.append(r)
        queue.remove(requests[1])
        assert set(r.req_id for r in queue) == {0, 2, 3}
        with pytest.raises(KeyError):
            queue.remove(requests[1])
        queue.remove(requests[3])  # tail element: plain pop
        queue.remove(requests[0])
        queue.remove(requests[2])
        assert len(queue) == 0 and not queue

    def test_open_row_hits_matches_scan(self):
        """One head per open (bank, row) group: each group's oldest of
        the hits a full scan finds."""
        queue = ChannelQueue()
        channel = ChannelState(index=0, timing=DDR4_3200)
        requests = [
            make_request(i, bank=i % 3, row=i % 2, arrival=float(i))
            for i in range(12)
        ]
        for r in requests:
            queue.append(r)
        channel.bank(0).open_row = 0
        channel.bank(1).open_row = 1

        def scan_heads():
            hits = [r for r in queue if channel.is_row_hit(r)]
            return {
                min(r.req_id for r in hits if r.bank == bank)
                for bank in {r.bank for r in hits}
            }

        assert sorted(channel.banks) == [0, 1]
        assert {r.req_id for r in queue.open_row_hits(channel)} == {0, 1}
        # Like the scan, the probe materialises every queued bank: the
        # set of banks a refresh touches.
        assert sorted(channel.banks) == [0, 1, 2]
        assert scan_heads() == {0, 1}
        # removing a head promotes the next hit of its row
        queue.remove(requests[0])
        assert {r.req_id for r in queue.open_row_hits(channel)} == (
            scan_heads()
        ) == {6, 1}

    def test_scheduler_row_hits_uses_index(self):
        queue = ChannelQueue()
        channel = ChannelState(index=0, timing=DDR4_3200)
        for i in range(6):
            queue.append(make_request(i, bank=0, row=i % 2))
        channel.bank(0).open_row = 1
        assert [r.req_id for r in queue.open_row_hits(channel)] == [1]
        # ScanQueue's open_row_hits is the scan: every hit
        hits = ScanQueue(queue).open_row_hits(channel)
        assert sorted(r.req_id for r in hits) == [1, 3, 5]
        # FR-FCFS reads the index's heads; a ScanQueue scans
        scheduler = FRFCFSScheduler(n_cores=1)
        chosen = scheduler.select(queue, channel, 0.0)
        assert chosen.req_id == 1
        assert chosen is scheduler.select(ScanQueue(queue), channel, 0.0)


class TestBufferWaitQueue:
    def _state(self, index):
        return CoreState(
            index=index,
            config=CoreConfig(demand_gbps=1.0, total_requests=1),
        )

    def test_fifo_wakeup_order(self):
        waiters = BufferWaitQueue()
        states = [self._state(i) for i in range(4)]
        for s in (states[2], states[0], states[3], states[1]):
            waiters.add(s)
        assert [waiters.pop().index for _ in range(4)] == [2, 0, 3, 1]
        assert waiters.pop() is None

    def test_no_duplicate_enqueue(self):
        waiters = BufferWaitQueue()
        state = self._state(0)
        other = self._state(1)
        waiters.add(state)
        waiters.add(state)  # second block event before any wakeup
        waiters.add(other)
        assert len(waiters) == 2
        assert waiters.pop() is state
        assert not state.buffer_waiting
        # once woken, the core may legitimately wait again
        waiters.add(state)
        assert [waiters.pop().index for _ in range(2)] == [1, 0]


def mixed_cores(n=6, requests=250):
    return [
        CoreConfig(
            demand_gbps=2.0 + 3.0 * i,
            total_requests=requests,
            mshr=8,
            burst_lines=8,
            write_fraction=0.25 if i % 2 else 0.0,
            address_base=staggered_base(i, DDR4_3200.banks_per_channel),
        )
        for i in range(n)
    ]


class TestFastQueueEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_to_list_queue(self, policy):
        fast = CMPSystem(policy=policy, seed=3).run(mixed_cores())
        slow = CMPSystem(
            policy=policy, seed=3, queue_factory=ScanQueue
        ).run(mixed_cores())
        assert fast == slow

    @pytest.mark.parametrize("policy", ("frfcfs", "tcm"))
    def test_blocked_core_wakeups_identical_with_tiny_buffer(self, policy):
        """Regression: deque waiters must preserve the blocked-core
        wakeup order (and never double-enqueue) when the request buffer
        keeps filling up."""
        timing = dataclasses.replace(DDR4_3200, request_buffer=8)
        fast = CMPSystem(timing=timing, policy=policy).run(mixed_cores(8))
        slow = CMPSystem(
            timing=timing, policy=policy, queue_factory=ScanQueue
        ).run(mixed_cores(8))
        assert fast == slow
        for core in fast.cores:
            assert core.completed == core.issued == 250
        assert all(c.finish_ns is not None for c in fast.cores)

    def test_stop_cores_with_fast_queue(self):
        fast = CMPSystem(policy="frfcfs").run(mixed_cores(), stop_cores={0})
        slow = CMPSystem(policy="frfcfs", queue_factory=ScanQueue).run(
            mixed_cores(), stop_cores={0}
        )
        assert fast == slow
        assert fast.cores[0].finish_ns is not None


# ----------------------------------------------------------------------
# Inline access generation: the event loop against the reference stream
# ----------------------------------------------------------------------
def enqueued_requests(cores, policy="frfcfs"):
    """Every request the event loop enqueues, in enqueue order."""
    appended = []

    class RecordingQueue(ChannelQueue):
        def append(self, request):
            appended.append(request)
            super().append(request)

    CMPSystem(policy=policy, queue_factory=RecordingQueue).run(cores)
    return appended


class TestInlineDecode:
    @pytest.mark.parametrize("write_fraction", (0.0, 0.25, 0.5))
    def test_synthetic_stream_matches_reference(self, write_fraction):
        cores = [
            CoreConfig(
                demand_gbps=4.0 + 6.0 * i,
                total_requests=300,
                mshr=8,
                write_fraction=write_fraction,
                address_base=None if i == 0 else 0x1234_5000 * i,
            )
            for i in range(4)
        ]
        self._assert_matches_reference(cores)

    def test_trace_cores_match_reference(self):
        cores = [
            trace.trace_core_config(
                trace.random_trace("r", 300, 9.0, seed=5)
            ),
            trace.trace_core_config(
                trace.streaming_trace("s", 300, 14.0, write_fraction=0.25)
            ),
            trace.trace_core_config(
                trace.strided_trace("t", 300, 6.0, stride_lines=32)
            ),
            CoreConfig(demand_gbps=8.0, total_requests=300,
                       write_fraction=0.5),
        ]
        self._assert_matches_reference(cores)

    @staticmethod
    def _assert_matches_reference(cores):
        """Request by request: the loop's (channel, bank, row, write)
        equal AddressMapper.decode of CoreState.next_access, and the
        write flag the config's rule (or the trace record)."""
        mapper = AddressMapper(DDR4_3200)
        references = [
            CoreState(index=i, config=c) for i, c in enumerate(cores)
        ]
        requests = enqueued_requests(cores)
        assert len(requests) == sum(c.total_requests for c in cores)
        for request in requests:
            reference = references[request.core]
            config = reference.config
            if config.trace is not None:
                record = config.trace.records[reference.issued]
                expected_write = record.is_write
            else:
                expected_write = config.is_write_index(reference.issued)
            address, is_write = reference.next_access()
            reference.issued += 1
            channel, bank, row, _ = mapper.decode(address)
            assert (request.channel, request.bank, request.row) == (
                channel, bank, row
            )
            assert request.is_write is is_write is expected_write
        writes = [r for r in requests if r.is_write]
        if any(c.write_fraction for c in cores):
            assert writes  # non-degenerate fixture


# ----------------------------------------------------------------------
# Ready-set property: the per-bank test equals the per-request scan
# ----------------------------------------------------------------------
N_BANKS = 4

# Times are drawn as offsets from ``limit = now + window``. Offsets of
# exactly -(prep) for DDR4-3200's preparation times (0, tRCD = 13.75,
# tRP + tRCD = 27.5 ns), give or take a quarter nanosecond, put requests
# and banks right on the readiness boundary; with ``now`` off the
# quarter-ns grid (7800.1, 1e6 + 0.3) the sums round instead.
_PREPS = (0.0, DDR4_3200.t_rcd_ns, DDR4_3200.t_rp_ns + DDR4_3200.t_rcd_ns)
_offset = st.one_of(
    st.tuples(
        st.sampled_from(_PREPS), st.sampled_from((-0.25, 0.0, 0.25))
    ).map(lambda t: -(t[0] + t[1])),
    st.integers(-240, 40).map(lambda k: k * 0.25),
)
_bank_state = st.none() | st.tuples(st.none() | st.integers(0, 2), _offset)
_request = st.tuples(
    st.integers(0, N_BANKS - 1),  # bank
    st.integers(0, 2),  # row
    st.integers(0, 3),  # core
    _offset,  # arrival
)


def _channel_with(banks, limit):
    """A channel whose listed banks exist; ``None`` leaves one absent."""
    channel = ChannelState(index=0, timing=DDR4_3200)
    for index, spec in enumerate(banks):
        if spec is not None:
            open_row, ready_offset = spec
            channel.bank(index).open_row = open_row
            channel.bank(index).ready_at = limit + ready_offset
    return channel


_priority = st.lists(
    st.sampled_from((-1, 0, 1.0, 2.5)), min_size=4, max_size=4
)


class TestReadyProperty:
    @settings(max_examples=400, deadline=None)
    @given(
        now=st.sampled_from([0.0, 100.0, 7800.1, 1e6 + 0.3]),
        window=st.sampled_from([0.0, 3.0, 10.5]),
        banks=st.lists(_bank_state, min_size=N_BANKS, max_size=N_BANKS),
        specs=st.lists(_request, max_size=30),
        removed=st.sets(st.integers(0, 29)),
        priority=_priority,
    )
    def test_ready_set_matches_scan(
        self, now, window, banks, specs, removed, priority
    ):
        """The fused select_ready pass picks ScanQueue's request
        (the keyed minimum over the scanned ready_subset), and
        materialises the same banks. Every indexed queue iterates in
        arrival order, and its head and per-core groups are the scan's."""
        limit = now + window
        # Oldest first, as the event loop appends; ties keep req_id order.
        specs = sorted(specs, key=lambda s: s[3])
        queues = [queue_type() for queue_type in INDEXED]
        reference = ScanQueue()
        for req_id, (bank, row, core, offset) in enumerate(specs):
            r = make_request(req_id, bank, row, limit + offset, core=core)
            for q in (*queues, reference):
                q.append(r)
        for r in list(reference):
            if r.req_id in removed:
                for q in (*queues, reference):
                    q.remove(r)
        arrivals, cores, queue = queues

        if reference:
            indexed = _channel_with(banks, limit)
            scanned = _channel_with(banks, limit)
            chosen = queue.select_ready(indexed, now, window, priority)
            assert chosen is reference.select_ready(
                scanned, now, window, priority
            )
            # Same banks materialised as the scan: the set refresh touches.
            assert sorted(indexed.banks) == sorted(scanned.banks)

        # Iteration is arrival order; the head is the scan's oldest.
        assert reference == sorted(
            reference, key=lambda r: (r.arrival_ns, r.req_id)
        )
        for q in queues:
            assert list(q) == reference
            if reference:
                assert q.oldest() is reference.oldest()
        assert {c: list(g) for c, g in cores.by_core().items()} == {
            c: list(g) for c, g in reference.by_core().items()
        }


# ----------------------------------------------------------------------
# Saturated equivalence: the indexed paths under deep queues
# ----------------------------------------------------------------------
# 16 cores at 92 GB/s on one DDR4-3200 channel (25.6 GB/s peak) with a
# 512-entry buffer: queues stay hundreds deep, every policy runs past two
# refresh intervals, and ATLAS waits beyond its 2000 ns over-threshold.
SATURATED = dataclasses.replace(DDR4_3200, channels=1, request_buffer=512)
TINY_BUFFER = dataclasses.replace(SATURATED, request_buffer=8)


def saturated_cores(requests=360):
    return [
        CoreConfig(
            demand_gbps=2.0 + 0.5 * i,
            total_requests=requests,
            mshr=32,
            burst_lines=16,
            write_fraction=0.5 if i % 2 else 0.0,
            address_base=staggered_base(i, DDR4_3200.banks_per_channel),
        )
        for i in range(16)
    ]


@contextlib.contextmanager
def recording_channels():
    """Swap the engine's ChannelState for one that logs, at every
    refresh, which banks exist (the banks the refresh touches)."""
    refreshes = []
    channels = []

    class RecordingChannel(ChannelState):
        def __post_init__(self):
            super().__post_init__()
            channels.append(self)

        def refresh_if_due(self, now):
            due = self.timing.refresh_enabled and now >= self.next_refresh_ns
            if due:
                refreshes.append((self.index, now, tuple(sorted(self.banks))))
            return super().refresh_if_due(now)

    original = dram_system.ChannelState
    dram_system.ChannelState = RecordingChannel
    try:
        yield refreshes, channels
    finally:
        dram_system.ChannelState = original


@functools.lru_cache(maxsize=None)
def saturated_run(policy, indexed, timing=SATURATED):
    """One saturated run on the policy's own queue (``indexed``) or on
    the ScanQueue oracle."""
    factory = None if indexed else ScanQueue
    with recording_channels() as (refreshes, channels):
        result = CMPSystem(
            timing=timing, policy=policy, seed=3, queue_factory=factory
        ).run(saturated_cores())
    banks = tuple(tuple(sorted(c.banks)) for c in channels)
    return result, tuple(refreshes), banks


class TestSaturatedEquivalence:
    def test_scenario_is_saturated(self):
        demand = sum(c.demand_gbps for c in saturated_cores())
        assert demand > SATURATED.peak_bw_gbps

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_to_list_queue(self, policy):
        fast, _, _ = saturated_run(policy, True)
        slow, _, _ = saturated_run(policy, False)
        assert fast == slow
        assert fast.elapsed_ns > 2 * SATURATED.t_refi_ns
        assert all(c.completed == c.issued for c in fast.cores)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bank_materialisation_identical(self, policy):
        """The banks existing at each refresh and at the end of the run
        match the scan path's: refresh only touches materialised banks,
        so a ready index that skipped one would change timing."""
        _, fast_refreshes, fast_banks = saturated_run(policy, True)
        _, slow_refreshes, slow_banks = saturated_run(policy, False)
        assert len(fast_refreshes) >= 2
        assert fast_refreshes == slow_refreshes
        assert fast_banks == slow_banks

    def test_atlas_runs_over_threshold(self, monkeypatch):
        result, _, _ = saturated_run("atlas", True)
        assert result.p99_latency_ns > 2000.0
        over = []
        select = atlas.AtlasScheduler.select

        def counting_select(self, queue, channel, now):
            head = ScanQueue(queue).oldest()
            over.append(now - head.arrival_ns > atlas._OVER_THRESHOLD_NS)
            return select(self, queue, channel, now)

        monkeypatch.setattr(atlas.AtlasScheduler, "select", counting_select)
        assert CMPSystem(timing=SATURATED, policy="atlas", seed=3).run(
            saturated_cores()
        ) == result
        assert sum(over) > 100

    @pytest.mark.parametrize("policy", POLICIES)
    def test_tiny_buffer_identical(self, policy):
        fast, fast_refreshes, _ = saturated_run(policy, True, TINY_BUFFER)
        slow, slow_refreshes, _ = saturated_run(policy, False, TINY_BUFFER)
        assert fast == slow
        assert fast_refreshes == slow_refreshes
        assert all(c.completed == c.issued for c in fast.cores)


# ----------------------------------------------------------------------
# Each policy's own queue, and the one dispatch per served request
# ----------------------------------------------------------------------
DECLARED = {
    "fcfs": ArrivalQueue,
    "frfcfs": ChannelQueue,
    "atlas": ChannelQueue,
    "tcm": ChannelQueue,
    "sms": CoreQueue,
}


class TestPolicyQueues:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_runs_on_its_declared_queue(self, policy, monkeypatch):
        """CMPSystem builds the queue the policy names, and only an
        explicit queue_factory overrides it."""
        cls = type(make_scheduler(policy, n_cores=1))
        assert cls.queue_type is DECLARED[policy]
        seen = []
        select = cls.select

        def recording_select(self, queue, channel, now):
            seen.append(type(queue))
            return select(self, queue, channel, now)

        monkeypatch.setattr(cls, "select", recording_select)
        CMPSystem(policy=policy, seed=3).run(mixed_cores(requests=60))
        assert seen and set(seen) == {DECLARED[policy]}
        seen.clear()
        CMPSystem(policy=policy, seed=3, queue_factory=ScanQueue).run(
            mixed_cores(requests=60)
        )
        assert seen and set(seen) == {ScanQueue}

    @pytest.mark.parametrize("indexed", (True, False), ids=("own", "scan"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_dispatch_once_per_served_request(
        self, policy, indexed, monkeypatch
    ):
        """ChannelState.dispatch is the single per-request issue call:
        every served request passes through it exactly once."""
        dispatched = []
        dispatch = ChannelState.dispatch

        def counting_dispatch(self, request, now):
            dispatched.append(request.req_id)
            return dispatch(self, request, now)

        monkeypatch.setattr(ChannelState, "dispatch", counting_dispatch)
        factory = None if indexed else ScanQueue
        result = CMPSystem(
            policy=policy, seed=3, queue_factory=factory
        ).run(mixed_cores(requests=120))
        served = sum(c.issued for c in result.cores)
        assert all(c.completed == c.issued for c in result.cores)
        assert len(dispatched) == served
        assert sorted(dispatched) == list(range(served))
