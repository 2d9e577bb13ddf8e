"""The zero-perturbation contract: tracing must not change results.

Runs one SoC co-run and a set of DRAM simulations twice — untraced,
then under a full trace+metrics session — and requires the result
payloads to be identical down to canonical-JSON bytes. The DRAM cases
cover every scheduling policy and a trace-replay mix with posted
writes, all above peak and across a refresh, so every emission point
of the event loop fires. The traced runs must also actually record something,
so a silently-unhooked tracer cannot pass as "no perturbation".
"""

from __future__ import annotations

import dataclasses
import json

from repro.dram.bank import ChannelState
from repro.dram.cores import staggered_base
from repro.dram.schedulers import available_policies
from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import streaming_trace, trace_core_config
from repro.obs import runtime as obs_runtime
from repro.soc.configs import soc_by_name
from repro.soc.engine import CoRunEngine
from repro.workloads.kernel import single_phase_kernel


def _canonical(result) -> str:
    return json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True)


def _soc_run():
    engine = CoRunEngine(soc_by_name("xavier-agx"))
    victim = single_phase_kernel("obs-victim", 2.0, traffic_gb=0.5)
    pressure = single_phase_kernel("obs-pressure", 0.5, traffic_gb=0.5)
    return engine.corun(
        {"gpu": victim, "cpu": pressure},
        looping=("cpu",),
        until="first",
        record_timeline=True,
    )


DRAM_CASES = tuple(available_policies()) + ("trace",)

# One DDR4-3200 channel (25.6 GB/s peak) under 40 GB/s of demand: every
# run crosses a refresh, so the refresh emission point fires too.
ONE_CHANNEL = dataclasses.replace(DDR4_3200, channels=1)


def _dram_run(case="sms"):
    """One DRAM run above peak: a policy on four synthetic cores, or
    ``"trace"`` — FR-FCFS replaying streams with 25% and 50% posted
    writes."""
    if case == "trace":
        system = CMPSystem(timing=ONE_CHANNEL, policy="frfcfs", seed=1)
        cores = [
            dataclasses.replace(
                trace_core_config(
                    streaming_trace(
                        f"obs{i}", 800, 1.0, base=staggered_base(i),
                        write_fraction=0.25 if i % 2 else 0.5,
                    )
                ),
                demand_gbps=10.0,
            )
            for i in range(4)
        ]
    else:
        system = CMPSystem(timing=ONE_CHANNEL, policy=case, seed=1)
        cores = system.group_configs(
            group_demand_gbps=40.0, n_cores=4, requests_per_core=800
        )
    return system.run(cores)


class TestBitIdentity:
    def test_soc_corun_identical_when_traced(self):
        untraced = _canonical(_soc_run())
        with obs_runtime.session(trace=True, metrics=True) as sess:
            traced = _canonical(_soc_run())
            assert len(sess.tracer.buffer) > 0, "SoC hooks did not fire"
        assert traced == untraced

    def test_dram_cases_run_above_peak(self):
        for case in DRAM_CASES:
            result = _dram_run(case)
            demand = sum(core.demand_gbps for core in result.cores)
            assert demand > ONE_CHANNEL.peak_bw_gbps, case

    def test_dram_run_identical_when_traced(self):
        for case in DRAM_CASES:
            untraced = _canonical(_dram_run(case))
            with obs_runtime.session(trace=True, metrics=True) as sess:
                traced = _canonical(_dram_run(case))
                assert len(sess.tracer.buffer) > 0, f"{case}: no DRAM hooks"
            assert traced == untraced, case

    def test_metrics_only_session_is_also_invisible(self, monkeypatch):
        dispatched = []
        dispatch = ChannelState.dispatch

        def counting_dispatch(self, request, now):
            dispatched.append(request.req_id)
            return dispatch(self, request, now)

        for case in DRAM_CASES:
            untraced = _canonical(_dram_run(case))
            dispatched.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ChannelState, "dispatch", counting_dispatch)
                with obs_runtime.session(trace=False, metrics=True) as sess:
                    observed = _canonical(_dram_run(case))
                    snapshot = sess.metrics.snapshot()
            assert observed == untraced, case
            requests = snapshot.counter_value("dram.requests")
            assert requests == len(dispatched) > 0, case
            outcomes = sum(
                snapshot.counter_value(f"dram.row_{outcome}")
                for outcome in ("hit", "miss", "conflict")
            )
            assert outcomes == requests, case
            assert snapshot.counter_value("dram.refreshes") > 0, case


class TestTracedContentShape:
    def test_soc_trace_carries_epoch_spans_and_grants(self):
        with obs_runtime.session(trace=True) as sess:
            _soc_run()
            spans = {s.name for s in sess.tracer.buffer.spans}
            events = {e.name for e in sess.tracer.buffer.events}
        assert "corun" in spans
        assert "epoch" in spans
        assert "grant" in events
        assert "kernel.finished" in events

    def test_dram_trace_carries_request_lifecycle(self):
        with obs_runtime.session(trace=True) as sess:
            result = _dram_run()
            buffer = sess.tracer.buffer
        req_spans = [s for s in buffer.spans if s.name == "req"]
        enqueues = [e for e in buffer.events if e.name == "req.enqueue"]
        selects = [e for e in buffer.events if e.name == "sched.select"]
        issued = sum(core.issued for core in result.cores)
        assert len(enqueues) == issued
        assert len(req_spans) == len(selects)
        outcomes = {dict(s.args)["outcome"] for s in req_spans}
        assert outcomes <= {"hit", "miss", "conflict"}
        for span in req_spans[:10]:
            assert span.end >= span.start  # completion after arrival
