"""Golden pin of the DRAM engine's results.

The list-queue oracle (``CMPSystem(queue_factory=list)``) cannot catch a
drift in the event loop, bank dispatch or the scheduler rules, because
both queue paths share them. These cases pin a sha256 of
``repr(SimResult)`` recorded before the engine's hot loop was
flattened; any change to timing, heap order or a selection rule moves
at least one digest.

Covered: all five policies on a saturated 16-core run ended by
``stop_cores``; a trace-replay mix with 25% and 50% posted writes under
FCFS and FR-FCFS; a tiny request buffer (blocked-core wakeups); and a
run spanning more than two refresh intervals.
"""

import dataclasses
import hashlib

import pytest

from repro.dram import system as dram_system
from repro.dram.cores import CoreConfig, staggered_base
from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import (
    random_trace,
    streaming_trace,
    strided_trace,
    trace_core_config,
)

# One DDR4-3200 channel (25.6 GB/s) under ~92 GB/s of demand: queues
# stay deep and every policy's thread-priority rules decide.
SATURATED = dataclasses.replace(DDR4_3200, channels=1, request_buffer=512)
TINY_BUFFER = dataclasses.replace(SATURATED, request_buffer=8)


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def saturated_cores(requests):
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


def trace_mix_cores(demand_gbps):
    n = 240
    traces = [
        random_trace(f"random{i}", n, 1.0, base=staggered_base(i), seed=i)
        for i in range(2)
    ]
    traces += [
        strided_trace(f"strided{i}", n, 1.0, stride, base=staggered_base(i))
        for i, stride in ((2, 8), (3, 64))
    ]
    traces += [
        streaming_trace(
            f"stream{i}", n, 1.0, base=staggered_base(i),
            write_fraction=0.25 if i < 6 else 0.5,
        )
        for i in range(4, 8)
    ]
    return [
        dataclasses.replace(trace_core_config(t), demand_gbps=demand_gbps)
        for t in traces
    ]


STOP_GOLDEN = {
    "fcfs": "2fc71f88ee16e779a2da29c0f46eb98e31261af4622fbb2bae4d8d7046183aa4",
    "frfcfs": "20d2c2f44f961fddb8950e03d21446f6c3c236851021b52e5cae4a8120443837",
    "atlas": "cc79f57f8a65b0455905b6b25d2b7e4b9ac247c88aef46dce180d6b38904fb2f",
    "tcm": "9a68daf67d5fd787e9c9e397946cb596b4bea0581c0373e6deba9bae7b12f0fd",
    "sms": "78b0cbcfec3229e59098f4c1823f6aee698b15ef4d8226078fce1699b9b622dc",
}


@pytest.mark.parametrize("policy", sorted(STOP_GOLDEN))
def test_saturated_stop_cores(policy):
    # Two of the heaviest read-only cores: every policy ends the run
    # with background cores still unfinished.
    stop = {12, 14}
    result = CMPSystem(timing=SATURATED, policy=policy, seed=5).run(
        saturated_cores(240), stop_cores=stop
    )
    assert all(result.cores[i].finish_ns is not None for i in stop)
    assert any(c.finish_ns is None for c in result.cores)
    assert digest(result) == STOP_GOLDEN[policy]


TRACE_GOLDEN = {
    ("fcfs", 6.0): (
        "38e8b5ad6fd1f05500fe2b27afb88fdc28b577030ea21bcdc8e15f3707029be4"
    ),
    ("fcfs", 14.0): (
        "98f05837d8e417228c40ccedf6ccc9a4523a5981168406a8fb41b6673b8efc20"
    ),
    ("frfcfs", 6.0): (
        "3f5b91773b1c427a2235100657163e20ded9b98203112a91ac18cd36b9d613e3"
    ),
    ("frfcfs", 14.0): (
        "825dffd59fbd41911459afbe0451f1938d1e9e53d3fadbfe5ee153a0b23d1ebe"
    ),
}


@pytest.mark.parametrize("policy, demand", sorted(TRACE_GOLDEN))
def test_trace_replay_posted_writes(policy, demand):
    cores = trace_mix_cores(demand)
    assert {round(c.trace.write_fraction, 2) for c in cores} >= {0.25, 0.5}
    result = CMPSystem(policy=policy, seed=1).run(cores)
    assert all(c.completed == c.issued == 240 for c in result.cores)
    assert digest(result) == TRACE_GOLDEN[policy, demand]


def test_tiny_request_buffer(monkeypatch):
    blocked = []
    add = dram_system.BufferWaitQueue.add

    def counting_add(self, state):
        blocked.append(state.index)
        add(self, state)

    monkeypatch.setattr(dram_system.BufferWaitQueue, "add", counting_add)
    result = CMPSystem(timing=TINY_BUFFER, policy="tcm", seed=2).run(
        saturated_cores(60)
    )
    assert len(set(blocked)) > 1, "no core ever waited on the buffer"
    assert all(c.completed == c.issued == 60 for c in result.cores)
    assert digest(result) == (
        "ab5f03071fdf4e1779f375f68cb8d7daa2d521d53bc35f1eb9b82e33031ce6bd"
    )


def test_spans_refresh_intervals():
    result = CMPSystem(timing=SATURATED, policy="atlas", seed=4).run(
        saturated_cores(260)
    )
    assert result.elapsed_ns > 2 * SATURATED.t_refi_ns
    assert all(c.completed == c.issued for c in result.cores)
    assert digest(result) == (
        "8a12cf282a9c387905ede08e8aa6beacb6750d549d203ebb35736c0760bc5503"
    )
