"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Clock:
    """A clock the code under test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSelfTime(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = Clock()
        self.tracer = LayerTracer(clock=self.clock)

    def test_nested_calls(self) -> None:
        clock = self.clock

        class Layer:
            def outer(self):
                clock.now += 1
                self.inner()
                clock.now += 2

            def inner(self):
                clock.now += 3

        self.tracer.install_method(Layer, "outer", "outer")
        self.tracer.install_method(Layer, "inner", "inner")
        Layer().outer()
        outer, inner = self.tracer.stats["outer"], self.tracer.stats["inner"]
        self.assertEqual((outer.calls, outer.total_s, outer.self_s), (1, 6, 3))
        self.assertEqual((inner.calls, inner.total_s, inner.self_s), (1, 3, 3))
        self.assertTrue(self.tracer.restore())

    def test_recursive_calls_count_total_once(self) -> None:
        clock = self.clock

        class Layer:
            def walk(self, depth):
                clock.now += 1
                if depth:
                    self.walk(depth - 1)
                clock.now += 1

        self.tracer.install_method(Layer, "walk", "walk")
        Layer().walk(2)
        walk = self.tracer.stats["walk"]
        self.assertEqual(walk.calls, 3)
        self.assertEqual(walk.total_s, 6)
        self.assertEqual(walk.self_s, 6)

    def test_two_functions_sharing_a_name_nest(self) -> None:
        clock = self.clock

        class Model:
            def relative_speed(self):
                clock.now += 1
                return self.effective_bw() + 1

            def effective_bw(self):
                clock.now += 4
                return 1

        for attr in ("relative_speed", "effective_bw"):
            self.tracer.install_method(Model, attr, "gables")
        self.assertEqual(Model().relative_speed(), 2)
        gables = self.tracer.stats["gables"]
        self.assertEqual(
            (gables.calls, gables.total_s, gables.self_s), (2, 5, 5)
        )

    def test_exception_still_recorded(self) -> None:
        clock = self.clock

        class Layer:
            def fail(self):
                clock.now += 2
                raise KeyError("x")

        self.tracer.install_method(Layer, "fail", "fail")
        with self.assertRaises(KeyError):
            Layer().fail()
        self.assertEqual(self.tracer.stats["fail"].self_s, 2)

    def test_hooks_and_samples(self) -> None:
        seen, returned, samples = [], [], []

        def double(x):
            self.clock.now += 0.5
            return 2 * x

        wrapped = self.tracer.wrap(
            double,
            "double",
            on_call=seen.append,
            on_return=returned.append,
            samples=samples,
        )
        self.assertEqual(wrapped(4), 8)
        self.assertEqual((seen, returned, samples), ([4], [8], [0.5]))


class TestInstallRestore(unittest.TestCase):
    def test_every_binding_patched_and_restored(self) -> None:
        def helper():
            return "original"

        base = types.ModuleType("pbfake")
        user = types.ModuleType("pbfake.user")
        other = types.ModuleType("pbother")
        base.helper = user.helper = other.helper = helper
        table = {"a": helper}

        class Sched:
            @staticmethod
            def scan(x):
                return x + 1

        class Sub(Sched):
            pass

        modules = {"pbfake": base, "pbfake.user": user, "pbother": other}
        sys.modules.update(modules)
        try:
            tracer = LayerTracer()
            self.assertEqual(tracer.install_function(helper, "h", "pbfake"), 2)
            tracer.install_dict_values(table, lambda key: f"t.{key}")
            tracer.install_method(Sched, "scan", "scan")
            self.assertIsNot(user.helper, helper)
            self.assertIs(other.helper, helper)
            self.assertEqual(user.helper(), "original")
            self.assertEqual(table["a"](), "original")
            self.assertEqual(Sub().scan(1), 2)
            self.assertEqual(tracer.stats["scan"].calls, 1)
            self.assertTrue(tracer.restore())
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertIs(base.helper, helper)
        self.assertIs(user.helper, helper)
        self.assertIs(table["a"], helper)
        self.assertIsInstance(Sched.__dict__["scan"], staticmethod)
        self.assertEqual(Sched.scan.__name__, "scan")
        self.assertFalse(hasattr(Sched.scan, "__wrapped__"))


class TestPercentile(unittest.TestCase):
    def test_p90_needs_ten_beyond(self) -> None:
        samples = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(stats.percentile(samples, 90), 90.0)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(samples[:99], 90)

    def test_samples_needed(self) -> None:
        self.assertEqual(stats.samples_needed(90), 100)
        self.assertEqual(stats.samples_needed(50), 20)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(1, 20)), 50)

    def test_quartile_spread(self) -> None:
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        # statistics.quantiles (exclusive): q1 = 8.5, q3 = 11.5.
        self.assertAlmostEqual(stats.quartile_spread(values), 0.3)


class TestFidelity(unittest.TestCase):
    def test_table3_exact_match_is_zero(self) -> None:
        measured = {
            p: (rbh / 100.0, bw / 100.0)
            for p, (rbh, bw) in stats.PAPER_TABLE3.items()
        }
        rbh, bw = stats.table3_errors(measured)
        self.assertAlmostEqual(rbh, 0.0)
        self.assertAlmostEqual(bw, 0.0)

    def test_table3_hand_computed(self) -> None:
        measured = {
            "fcfs": (0.577, 0.341),  # +10.0 pp, -31.5 pp
            "frfcfs": (0.916, 0.897),
            "atlas": (0.742, 0.784),
            "tcm": (0.796, 0.808),
            "sms": (0.847, 0.843),
        }
        rbh, bw = stats.table3_errors(measured)
        self.assertAlmostEqual(rbh, 10.0 / 5)
        self.assertAlmostEqual(bw, 31.5 / 5)

    def test_pccs_errors_hand_computed(self) -> None:
        errors = {
            "fig8": 0.06, "fig10": 0.09, "fig14-gpu": 0.12,
            "fig9": 0.02, "fig11": 0.04, "fig14-cpu": 0.03,
            "fig12": 0.05, "fig14-dla": 0.07,
        }
        got = stats.pccs_errors(errors)
        self.assertAlmostEqual(got["gpu"], 9.0)
        self.assertAlmostEqual(got["cpu"], 3.0)
        self.assertAlmostEqual(got["dla"], 6.0)


class TestDeclarations(unittest.TestCase):
    """BENCHMARK.json and manifest.json agree with what the code reports."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.manifest = json.loads((HERE / "manifest.json").read_text())

    def test_per_layer_names_match_the_code(self) -> None:
        tracer = LayerTracer()
        layers.install(tracer, layers.Probes())
        self.assertTrue(tracer.restore())
        produced = set(layers.layer_metrics(tracer, layers.Probes(), 1))
        produced |= set(run.TRACED_EXTRAS) | set(run.FIDELITY_METRICS)
        declared = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, produced)

    def test_workloads_match_the_code(self) -> None:
        declared = {w["name"]: w["why"] for w in self.spec["workloads"]}
        self.assertEqual(
            declared, {name: w.why for name, w in WORKLOADS.items()}
        )

    def test_manifest_covers_every_metric(self) -> None:
        metrics = self.manifest["metrics"]
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                entry = metrics[m["name"]]
                self.assertEqual(entry["unit"], m["unit"], m["name"])
                self.assertEqual(entry["better"], m["better"], m["name"])
                self.assertEqual(entry["kind"], kind, m["name"])
                self.assertLessEqual(set(entry["workloads"]), set(WORKLOADS))
        self.assertEqual(
            set(metrics),
            {
                m["name"]
                for kind in ("end_to_end", "per_layer")
                for m in self.spec[kind]
            },
        )
        for rule in self.manifest["layer_to_end_to_end"]:
            self.assertLessEqual(set(rule["layer_metrics"]), set(metrics))
            self.assertLessEqual(set(rule["moves"]), set(metrics))
            self.assertLessEqual(
                set(rule["on"]) | set(rule["not_on"]), set(WORKLOADS)
            )


class TestHostSpeed(unittest.TestCase):
    def test_each_call_is_normalized_by_the_samples_around_it(self) -> None:
        class ThreeCalls:
            def run_pass(self, inputs, between):
                for _ in range(3):
                    between()
                return types.SimpleNamespace(
                    output=None, digest="d", call_s=[1, 1, 1]
                )

            def check(self, output):
                return []

        speed = reference.HostSpeed(every_s=0.0)
        p = run.Pass(ThreeCalls(), None, speed)
        # One sample at the start, one before each call, one at the end.
        samples = speed.samples
        self.assertEqual(len(samples), 5)
        self.assertEqual(
            p.call_ref_s,
            [(samples[i] + samples[i + 1]) / 2 for i in (1, 2, 3)],
        )
        self.assertAlmostEqual(p.ref_s, sum(samples) / 5)
        self.assertEqual(p.failures, [])

    def test_normalize_scales_to_the_reference_host(self) -> None:
        ref = reference.NOMINAL_S * 2  # a host running at half speed
        self.assertAlmostEqual(reference.normalize(3.0, ref), 1.5)


class TestPasses(unittest.TestCase):
    """A real pass per cheap workload, untraced and traced."""

    def check_traced_matches_untraced(self, name: str) -> None:
        workload = WORKLOADS[name]
        inputs = workload.build_inputs(7)
        speed = reference.HostSpeed(every_s=0.25)
        plain = run.Pass(workload, inputs, speed)
        tracer = LayerTracer()
        layers.install(tracer, layers.Probes())
        try:
            traced = run.Pass(workload, inputs, speed)
        finally:
            self.assertTrue(tracer.restore())
        self.assertEqual(plain.failures, [])
        self.assertEqual(traced.failures, [])
        self.assertEqual(plain.digest, traced.digest)
        self.assertEqual(
            run.count_failures([plain, traced]), (0, plain.digest)
        )

    def test_trace_mix(self) -> None:
        self.check_traced_matches_untraced("dram_trace_mix")

    def test_paper_soc(self) -> None:
        self.check_traced_matches_untraced("paper_soc")

    def test_seed_changes_only_random_traces(self) -> None:
        mix = WORKLOADS["dram_trace_mix"]
        a = mix.build_inputs(1)["levels"][0]
        b = mix.build_inputs(2)["levels"][0]
        for i, (x, y) in enumerate(zip(a, b)):
            self.assertEqual(x.trace.records == y.trace.records, i >= 4, i)


if __name__ == "__main__":
    unittest.main()
