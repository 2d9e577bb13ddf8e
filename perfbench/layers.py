"""Which program functions the traced run wraps, and the per-layer
metrics it derives from them.

The wrappers sit at the public boundary of each layer: the DRAM event
loop, scheduler, banks, queue, front end and address mapper; the SoC
engine and memory system; PCCS calibration, construction and
prediction; profiling, workload synthesis, the Gables baseline, the
serial executor and each experiment. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import collections
from typing import Dict, List

from repro.baselines import gables
from repro.core import calibration, construction
from repro.core.model import PCCSModel
from repro.dram.address import AddressMapper
from repro.dram.bank import ChannelState
from repro.dram.cores import CoreState
from repro.dram.queue import ChannelQueue
from repro.dram.schedulers import available_policies, make_scheduler
from repro.dram.schedulers.base import Scheduler
from repro.dram.system import CMPSystem
from repro.experiments import runner
from repro.perf import executor
from repro.profiling import corun, pressure
from repro.soc.engine import CoRunEngine
from repro.soc.memsys import SharedMemorySystem
from repro.workloads import roofline

import stats
import workloads
from layertrace import LayerTracer

#: (class, method, layer name) wrapped on the class that defines it.
METHODS = (
    (CMPSystem, "run", "dram.run"),
    (Scheduler, "ready_subset", "dram.sched.ready_subset"),
    (ChannelState, "earliest_data_start", "dram.bank.earliest_data_start"),
    (ChannelState, "dispatch", "dram.bank.dispatch"),
    (ChannelQueue, "append", "dram.queue.append"),
    (ChannelQueue, "remove", "dram.queue.remove"),
    (ChannelQueue, "open_row_hits", "dram.queue.open_row_hits"),
    (CoreState, "next_access", "dram.core.next_access"),
    (AddressMapper, "decode", "dram.addr.decode"),
    (CoRunEngine, "corun", "soc.corun"),
    (CoRunEngine, "profile", "soc.profile"),
    (SharedMemorySystem, "resolve", "soc.resolve"),
    (PCCSModel, "relative_speed", "core.predict"),
    (gables.GablesModel, "effective_bw", "baselines.gables"),
    (gables.GablesModel, "relative_speed", "baselines.gables"),
    (gables.GablesModel, "attainable_gflops", "baselines.gables"),
)

#: (module-level function, layer name, module prefix): the function is
#: wrapped wherever a module under the prefix binds it.
FUNCTIONS = (
    (calibration.run_calibration, "core.calibration", "repro"),
    (construction.construct_parameters, "core.construct", "repro"),
    (pressure.sweep_pressure, "profiling.sweep_pressure", "repro"),
    (corun.measure_workload, "profiling.measure_workload", "repro"),
    (
        roofline.calibrator_for_bandwidth,
        "workloads.calibrator_for_bandwidth",
        "repro",
    ),
    (gables.gables_soc_attainable, "baselines.gables", "repro"),
    (gables.best_work_split, "baselines.gables", "repro"),
    (executor.parallel_map, "perf.parallel_map", "repro"),
    (workloads.render, "experiments.render", "workloads"),
)

EXPERIMENT_NAMES = tuple(runner.EXPERIMENTS)


class Probes:
    """Counters the wrappers' hooks collect beside the timings."""

    def __init__(self) -> None:
        self.scanned = 0
        self.queue_lengths: "collections.Counter[int]" = collections.Counter()
        self.engines: List[CoRunEngine] = []
        self.sim_results: list = []

    def on_ready_subset(self, requests, *args, **kwargs) -> None:
        self.scanned += len(requests)

    def on_select(self, scheduler, queue, *args, **kwargs) -> None:
        self.queue_lengths[len(queue)] += 1

    def on_engine(self, engine, *args, **kwargs) -> None:
        self.engines.append(engine)


def install(tracer: LayerTracer, probes: Probes) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    hooks = {
        "dram.sched.ready_subset": dict(on_call=probes.on_ready_subset),
        "dram.run": dict(on_return=probes.sim_results.append),
    }
    for cls, attr, name in METHODS:
        tracer.install_method(cls, attr, name, **hooks.get(name, {}))
    for policy in available_policies():
        tracer.install_method(
            type(make_scheduler(policy, n_cores=1)),
            "select",
            "dram.sched.select",
            on_call=probes.on_select,
        )
    tracer.install_method(
        CoRunEngine, "__init__", "soc.engine_init", on_call=probes.on_engine
    )
    for fn, name, prefix in FUNCTIONS:
        if not tracer.install_function(fn, name, prefix):
            raise RuntimeError(f"{name}: no binding of {fn.__name__} found")
    tracer.install_dict_values(
        runner.EXPERIMENTS, lambda key: f"experiments.{key}"
    )


TIMED = (
    "dram.run", "dram.sched.select", "dram.sched.ready_subset",
    "dram.bank.earliest_data_start", "dram.bank.dispatch",
    "dram.queue.append", "dram.queue.remove", "dram.queue.open_row_hits",
    "dram.core.next_access", "dram.addr.decode",
    "soc.corun", "soc.resolve", "soc.profile",
    "core.calibration", "core.construct", "core.predict",
    "profiling.sweep_pressure", "profiling.measure_workload",
    "workloads.calibrator_for_bandwidth", "baselines.gables",
    "perf.parallel_map", "experiments.render",
)
COUNTED = (
    "dram.run", "dram.sched.select", "dram.sched.ready_subset",
    "dram.bank.earliest_data_start", "soc.corun", "soc.resolve",
    "core.calibration", "core.predict",
)


def layer_metrics(
    tracer: LayerTracer, probes: Probes, passes: int
) -> Dict[str, float]:
    """Per-pass layer metrics of ``passes`` identical traced passes.

    Self times and call counts are per pass; simulated DRAM statistics
    are means over the pass's ``CMPSystem.run`` calls. Metrics of a
    layer the workload never calls read 0.
    """
    st = tracer.stats
    out: Dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.self_s"] = st[name].self_s / passes
    for name in COUNTED:
        out[f"{name}.calls"] = st[name].calls / passes
    for key in EXPERIMENT_NAMES:
        out[f"experiments.{key}.wall_s"] = (
            st[f"experiments.{key}"].total_s / passes
        )
    selects = st["dram.sched.select"].calls
    out["dram.sched.ready_subset.scanned"] = probes.scanned / passes
    out["dram.sched.scan_per_select"] = (
        probes.scanned / selects if selects else 0.0
    )
    lengths = sorted(probes.queue_lengths.elements())
    out["dram.queue.len_at_select.mean"] = (
        sum(lengths) / len(lengths) if lengths else 0.0
    )
    out["dram.queue.len_at_select.p90"] = (
        float(stats.percentile(lengths, 90))
        if len(lengths) >= stats.samples_needed(90)
        else 0.0
    )
    out["dram.requests"] = st["dram.bank.dispatch"].calls / passes
    results = probes.sim_results
    for metric, attr in (
        ("dram.row_hit_rate", "row_hit_rate"),
        ("dram.effective_bw_gbps", "effective_bw_gbps"),
        ("dram.p99_latency_ns", "p99_latency_ns"),
    ):
        out[metric] = (
            sum(getattr(r, attr) for r in results) / len(results)
            if results
            else 0.0
        )
    hits = sum(e.resolve_stats.hits for e in probes.engines)
    calls = sum(e.resolve_stats.calls for e in probes.engines)
    out["soc.resolve_cache.hit_rate"] = hits / calls if calls else 0.0
    return out
