"""ATLAS/TCM/FR-FCFS single-pass selection against the staged rule.

ATLAS and TCM pick the lexicographic minimum of one key over the ready
pool: on a :class:`ChannelQueue` in one fused pass
(:meth:`ChannelQueue.select_ready`), on a :class:`ScanQueue` with a
keyed ``min`` over the scanned :meth:`ScanQueue.ready_subset`. The reference below is the rule as the
paper's Table 2 states it, stage by stage: keep the least-attained core
(ATLAS) or the latency cluster, else the best rank (TCM); among those
prefer row hits; among those the oldest. FR-FCFS reads only the head of
each open row's group on a ``ChannelQueue``; the reference is the
oldest of every hit.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dram.bank import ChannelState
from repro.dram.queue import ChannelQueue, ScanQueue
from repro.dram.request import Request
from repro.dram.schedulers.atlas import AtlasScheduler
from repro.dram.schedulers.frfcfs import FRFCFSScheduler
from repro.dram.schedulers.tcm import TCMScheduler
from repro.dram.timing import DDR4_3200

N_CORES = 4
N_BANKS = 4
NOW = 100.0  # before the first quantum and the ATLAS threshold


def oldest(requests):
    return min(requests, key=lambda r: (r.arrival_ns, r.req_id))


def staged_hit_first_oldest(candidates, channel):
    hits = [
        r for r in candidates if channel.banks[r.bank].open_row == r.row
    ]
    return oldest(hits) if hits else oldest(candidates)


def staged_atlas(pool, channel, attained):
    least = min(attained[r.core] for r in pool)
    return staged_hit_first_oldest(
        [r for r in pool if attained[r.core] == least], channel
    )


def staged_tcm(pool, channel, latency_cluster, rank):
    latency = [r for r in pool if r.core in latency_cluster]
    if latency:
        return staged_hit_first_oldest(latency, channel)
    best = min(rank[r.core] for r in pool)
    return staged_hit_first_oldest(
        [r for r in pool if rank[r.core] == best], channel
    )


# Few distinct arrivals and attained values, so ties are common.
_request = st.tuples(
    st.integers(0, N_CORES - 1),  # core
    st.integers(0, N_BANKS - 1),  # bank
    st.integers(0, 2),  # row
    st.sampled_from((0.0, 10.0, 10.0, 50.0, 99.0)),  # arrival
)
_bank = st.tuples(
    st.none() | st.integers(0, 2),  # open row
    st.sampled_from((0.0, 80.0, 1000.0)),  # ready_at
)
_scenario = dict(
    specs=st.lists(_request, min_size=1, max_size=24),
    banks=st.lists(_bank, min_size=N_BANKS, max_size=N_BANKS),
    hits=st.booleans(),
    indexed=st.booleans(),
)


# An arrival tie between two requests of the best core, the younger id
# first in the indexed pool's bank order: only the req_id term decides.
TIE = dict(
    specs=[(0, 0, 0, 0.0), (1, 1, 0, 10.0), (1, 0, 0, 10.0)],
    banks=[(None, 0.0)] * N_BANKS,
    hits=False,
    indexed=True,
)


def build(specs, banks, hits, indexed):
    """A channel and a queue as the event loop leaves them."""
    channel = ChannelState(index=0, timing=DDR4_3200)
    for index, (open_row, ready_at) in enumerate(banks):
        # Without hits, every open row is one no request targets.
        channel.bank(index).open_row = open_row if hits else 9
        channel.bank(index).ready_at = ready_at
    queue = ChannelQueue() if indexed else ScanQueue()
    # Appended oldest first, req_ids ascending: the event loop's order.
    ordered = sorted(specs, key=lambda s: s[3])
    for req_id, (core, bank, row, arrival) in enumerate(ordered):
        queue.append(Request(req_id, core, 0, bank, row, arrival))
    return channel, queue


class TestSinglePassSelection:
    @settings(max_examples=300, deadline=None)
    @given(
        attained=st.lists(
            st.sampled_from((0.0, 1.0, 2.5)),
            min_size=N_CORES,
            max_size=N_CORES,
        ),
        **_scenario,
    )
    @example(attained=[1.0, 0.0, 0.0, 0.0], **TIE)
    def test_atlas_matches_staged_rule(
        self, attained, specs, banks, hits, indexed
    ):
        channel, queue = build(specs, banks, hits, indexed)
        scheduler = AtlasScheduler(n_cores=N_CORES)
        scheduler.attained = list(attained)
        pool = scheduler.ready_subset(queue, channel, NOW)
        chosen = scheduler.select(queue, channel, NOW)
        assert chosen is staged_atlas(pool, channel, attained)

    @settings(max_examples=300, deadline=None)
    @given(
        traffic=st.none()
        | st.lists(
            st.sampled_from((0.0, 64.0, 640.0, 6400.0)),
            min_size=N_CORES,
            max_size=N_CORES,
        ),
        seed=st.integers(0, 3),
        **_scenario,
    )
    @example(traffic=[6400.0, 0.0, 0.0, 0.0], seed=0, **TIE)
    def test_tcm_matches_staged_rule(
        self, traffic, seed, specs, banks, hits, indexed
    ):
        channel, queue = build(specs, banks, hits, indexed)
        scheduler = TCMScheduler(n_cores=N_CORES, seed=seed)
        if traffic is None:
            # Before the first quantum: every core is latency-sensitive.
            assert scheduler.latency_cluster == set(range(N_CORES))
            assert scheduler.rank == list(range(N_CORES))
        else:
            scheduler.quantum_bytes = list(traffic)
            scheduler._reclassify()
        # The invariant the single-pass key relies on.
        for core in range(N_CORES):
            if core not in scheduler.latency_cluster:
                assert scheduler.rank[core] >= 0
        latency = set(scheduler.latency_cluster)
        rank = list(scheduler.rank)
        pool = scheduler.ready_subset(queue, channel, NOW)
        chosen = scheduler.select(queue, channel, NOW)
        assert chosen is staged_tcm(pool, channel, latency, rank)


class TestRowHeadSelection:
    @settings(max_examples=300, deadline=None)
    @given(**_scenario)
    def test_frfcfs_matches_full_scan(self, specs, banks, hits, indexed):
        channel, queue = build(specs, banks, hits, indexed)
        chosen = FRFCFSScheduler(n_cores=N_CORES).select(queue, channel, NOW)
        requests = list(queue)
        row_hits = [
            r for r in requests if channel.banks[r.bank].open_row == r.row
        ]
        assert chosen is oldest(row_hits or requests)
