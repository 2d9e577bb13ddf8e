"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one *pass* through
the program's public entry points with cold in-process caches (a user
of ``runner --all`` pays calibration on every run), checks the pass's
output and reduces it to a digest. Passes are serial, in one process,
with the runner's defaults: one worker, no simulation cache, no obs
session.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.dram.cores import staggered_base
from repro.dram.system import CMPSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import (
    random_trace,
    streaming_trace,
    strided_trace,
    trace_core_config,
)
from repro.experiments import runner
from repro.experiments.common import clear_caches

import stats
from layertrace import LayerTracer


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class PassResult:
    """What one pass produced."""

    output: Any
    digest: str
    call_s: List[float]


class Workload:
    name = ""
    why = ""

    def build_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(self, inputs: Any, between: Callable[[], None]) -> PassResult:
        """One pass; ``between()`` is called before each timed call."""
        raise NotImplementedError

    def check(self, output: Any) -> List[str]:
        """Failed output checks of one pass (empty when it passed)."""
        raise NotImplementedError

    def fidelity(self, output: Any) -> Dict[str, float]:
        """Simulated error against the paper, where the pass has one."""
        return {}


# ----------------------------------------------------------------------
# fig5_policies
# ----------------------------------------------------------------------
class Fig5Policies(Workload):
    """All five policies on a reduced victim x pressure grid.

    The grid keeps points on both sides of the 102.4 GB/s peak, so
    Table 3's saturated statistics are still sampled.
    """

    name = "fig5_policies"
    why = (
        "the paper's slowest artifact; scheduler selection "
        "(ready_subset, earliest_data_start) dominates it"
    )
    VICTIMS = (36.0, 90.0)
    PRESSURES = (18.0, 54.0, 90.0)
    REQUESTS = 600

    def build_inputs(self, seed: int) -> Dict[str, Any]:
        return dict(
            victim_demands=self.VICTIMS,
            pressure_levels=self.PRESSURES,
            requests=self.REQUESTS,
            seed=seed,
        )

    def run_pass(self, inputs: Dict[str, Any], between) -> PassResult:
        clear_caches()
        call_s: List[float] = []
        timer = LayerTracer()
        timer.install_method(
            CMPSystem,
            "run",
            "call",
            on_call=lambda *args, **kwargs: between(),
            samples=call_s,
        )
        try:
            result = runner.get_runner("fig5_table3")(**inputs)
        finally:
            timer.restore()
        return PassResult(result, _digest(render(result)), call_s)

    def check(self, result) -> List[str]:
        failures = []
        rbh = {s.policy: s.row_hit_rate for s in result.stats}
        if rbh["frfcfs"] != max(rbh.values()):
            failures.append("FR-FCFS does not have the highest RBH")
        if rbh["fcfs"] != min(rbh.values()):
            failures.append("FCFS does not have the lowest RBH")
        atlas = result.policy_series("atlas")
        heavy, light = atlas[-1], atlas[0]
        if not heavy.y[0] > heavy.y[-1]:
            failures.append("heavy ATLAS victim does not drop")
        if not abs(heavy.y[-1] - heavy.y[-2]) < 0.08:
            failures.append("heavy ATLAS victim does not flatten")
        if not light.y[-1] > 0.8:
            failures.append("light ATLAS victim is not protected")
        return failures

    def fidelity(self, result) -> Dict[str, float]:
        rbh, effbw = stats.table3_errors(
            {
                s.policy: (s.row_hit_rate, s.effective_bw_fraction)
                for s in result.stats
            }
        )
        return {"table3_rbh_err_pp": rbh, "table3_effbw_err_pp": effbw}


# ----------------------------------------------------------------------
# dram_trace_mix
# ----------------------------------------------------------------------
def conflict_bound_gbps(timing=DDR4_3200) -> float:
    """Bandwidth when every access is a row conflict.

    Each bank then serves one line per precharge + activate + burst.
    """
    per_access_ns = timing.t_rp_ns + timing.t_rcd_ns + timing.t_burst_ns
    return timing.total_banks * 64.0 / per_access_ns


class DramTraceMix(Workload):
    """16 trace-replay cores under FCFS and FR-FCFS.

    Four seeded random (BFS-like) traces, four strided traces and eight
    streaming traces with 25% and 50% posted writes, at one total demand
    below the conflict-bound bandwidth and one above it.
    """

    name = "dram_trace_mix"
    why = (
        "same event loop, queue, banks and front end as fig5, but row "
        "conflicts, posted writes and trace replay dominate and "
        "ready_subset never runs"
    )
    ACCESSES = 400
    STRIDES = (2, 8, 32, 128)
    POLICIES = ("fcfs", "frfcfs")
    LOAD_FACTORS = (0.6, 1.4)

    def build_inputs(self, seed: int) -> Dict[str, Any]:
        n = self.ACCESSES
        traces = []
        for i in range(4):
            traces.append(
                random_trace(
                    f"random{i}", n, 1.0, base=staggered_base(i),
                    seed=seed * 16 + i,
                )
            )
        for i, stride in enumerate(self.STRIDES, start=4):
            traces.append(
                strided_trace(
                    f"strided{i}", n, 1.0, stride, base=staggered_base(i)
                )
            )
        for i in range(8, 16):
            traces.append(
                streaming_trace(
                    f"stream{i}", n, 1.0, base=staggered_base(i),
                    write_fraction=0.25 if i < 12 else 0.5,
                )
            )
        base_configs = [trace_core_config(t) for t in traces]
        levels = []
        for factor in self.LOAD_FACTORS:
            per_core = factor * conflict_bound_gbps() / len(traces)
            levels.append(
                [
                    dataclasses.replace(c, demand_gbps=per_core)
                    for c in base_configs
                ]
            )
        return dict(seed=seed, levels=levels)

    def run_pass(self, inputs: Dict[str, Any], between) -> PassResult:
        results = []
        call_s = []
        for policy in self.POLICIES:
            system = CMPSystem(policy=policy, seed=inputs["seed"])
            for level, configs in enumerate(inputs["levels"]):
                between()
                start = perf_counter()
                result = system.run(configs)
                call_s.append(perf_counter() - start)
                results.append((policy, level, configs, result))
        text = "\n".join(repr(r[-1]) for r in results)
        return PassResult(results, _digest(text), call_s)

    def check(self, results) -> List[str]:
        failures = []
        peak = DDR4_3200.peak_bw_gbps
        rbh: Dict[Tuple[str, int], float] = {}
        for policy, level, configs, result in results:
            for core, config in zip(result.cores, configs):
                if core.completed != config.total_requests:
                    failures.append(
                        f"{policy}: core {core.index} served "
                        f"{core.completed}/{config.total_requests}"
                    )
            if not 0 < result.effective_bw_gbps <= peak:
                failures.append(f"{policy}: effective BW outside (0, peak]")
            rbh[policy, level] = result.row_hit_rate
        for level in range(len(self.LOAD_FACTORS)):
            if rbh["frfcfs", level] < rbh["fcfs", level]:
                failures.append(f"FR-FCFS RBH below FCFS at level {level}")
        return failures


# ----------------------------------------------------------------------
# paper_soc
# ----------------------------------------------------------------------
class PaperSoC(Workload):
    """Every registered experiment except fig5_table3, each rendered."""

    name = "paper_soc"
    why = (
        "the SoC co-run, PCCS construction and baseline path of figs "
        "2-15 and tables 5-10; never touches repro.dram"
    )
    NAMES = tuple(n for n in runner.EXPERIMENTS if n != "fig5_table3")

    def build_inputs(self, seed: int) -> Tuple[str, ...]:
        return self.NAMES

    def run_pass(self, names: Tuple[str, ...], between) -> PassResult:
        clear_caches()
        results = {}
        reports = []
        call_s = []
        for name in names:
            between()
            start = perf_counter()
            results[name] = runner.get_runner(name)()
            call_s.append(perf_counter() - start)
            reports.append(render(results[name]))
        return PassResult(results, _digest("\n".join(reports)), call_s)

    def check(self, results) -> List[str]:
        failures = []
        for name in ("fig8", "fig9", "fig10", "fig11", "fig12"):
            r = results[name]
            if not r.pccs_avg_error < r.gables_avg_error:
                failures.append(f"{name}: PCCS error not below Gables")
        fig14 = results["fig14"]
        for pu in fig14.pccs_errors:
            if not fig14.pccs_errors[pu] < fig14.gables_errors[pu]:
                failures.append(f"fig14 {pu}: PCCS error not below Gables")
        return failures

    def fidelity(self, results) -> Dict[str, float]:
        errors = {
            name: results[name].pccs_avg_error
            for name in ("fig8", "fig9", "fig10", "fig11", "fig12")
        }
        for pu, err in results["fig14"].pccs_errors.items():
            errors[f"fig14-{pu}"] = err
        return {
            f"pccs_err_{pu}_pct": value
            for pu, value in stats.pccs_errors(errors).items()
        }


def render(result) -> str:
    """Render one experiment result (a separate call so it can be timed)."""
    return result.render()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig5Policies(), DramTraceMix(), PaperSoC())
}
