"""Dynamic determinism harness: PYTHONHASHSEED must not change results.

Runs ``python -m repro.lint.determinism`` twice per scenario in fresh
subprocesses with *different* hash seeds and asserts the canonical JSON
outputs are byte-identical. Hash randomization perturbs set/dict-of-str
iteration order, so any scheduler or engine decision that leaks such an
order shows up here as a diff — the dynamic complement of LINT001.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_ROOT = str(Path(repro.__file__).parent.parent)


def run_scenario(
    scenario: str, hash_seed: str, traced: bool = False
) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro.lint.determinism", "--scenario", scenario,
    ]
    if traced:
        command.append("--traced")
    result = subprocess.run(
        command,
        capture_output=True,
        env=env,
        timeout=300,
        check=True,
    )
    return result.stdout


@pytest.mark.parametrize("scenario", ["soc", "dram"])
def test_hashseed_invariance(scenario):
    baseline = run_scenario(scenario, "0")
    assert baseline.strip(), "harness produced no output"
    for seed in ("4242", "271828"):
        assert run_scenario(scenario, seed) == baseline, (
            f"{scenario} scenario diverged under PYTHONHASHSEED={seed}"
        )


@pytest.mark.parametrize("scenario", ["soc", "dram"])
def test_traced_runs_are_bit_identical(scenario):
    """The repro.obs zero-perturbation contract, asserted end to end."""
    baseline = run_scenario(scenario, "0")
    traced = run_scenario(scenario, "0", traced=True)
    assert traced == baseline, (
        f"{scenario} scenario output changed when tracing was enabled"
    )


def test_scenarios_are_nontrivial(monkeypatch):
    import json

    from repro.dram.queue import ChannelQueue, CoreQueue
    from repro.dram.timing import DDR4_3200
    from repro.lint import determinism
    from repro.lint.determinism import run_scenario as run_inline

    soc = json.loads(run_inline("soc"))
    assert soc["result"]["outcomes"], "soc scenario simulated nothing"
    assert soc["result"]["elapsed"] > 0

    # The dram scenario must saturate the controller so that selection
    # goes through the queue's ready index, not just its head, and SMS
    # must read its own queue's per-core index.
    ready_calls = []
    core_calls = []
    select_ready = ChannelQueue.select_ready
    by_core = CoreQueue.by_core

    def counting_select_ready(*args, **kwargs):
        ready_calls.append(1)
        return select_ready(*args, **kwargs)

    def counting_by_core(*args, **kwargs):
        core_calls.append(1)
        return by_core(*args, **kwargs)

    monkeypatch.setattr(ChannelQueue, "select_ready", counting_select_ready)
    monkeypatch.setattr(CoreQueue, "by_core", counting_by_core)
    dram = json.loads(run_inline("dram"))
    assert ready_calls, "dram scenario never selected through select_ready"
    assert core_calls, "SMS never selected through CoreQueue.by_core"
    assert determinism.DRAM_DEMAND_GBPS > DDR4_3200.peak_bw_gbps
    assert sorted(dram["results"]) == sorted(determinism.DRAM_POLICIES)
    for result in dram["results"].values():
        assert len(result["cores"]) == determinism.DRAM_CORES
        assert all(
            c["completed"] == determinism.DRAM_REQUESTS_PER_CORE
            for c in result["cores"]
        )


def test_unknown_scenario_rejected():
    from repro.errors import LintError
    from repro.lint.determinism import run_scenario as run_inline

    with pytest.raises(LintError):
        run_inline("nope")
