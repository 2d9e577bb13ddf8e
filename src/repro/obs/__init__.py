"""Observability layer: tracing, metrics, and run provenance.

``repro.obs`` makes the simulators inspectable without perturbing them:

- :mod:`repro.obs.tracer` — structured events and spans with a
  :class:`NullTracer` default, so instrumented hot paths pay one
  ``if tracer.enabled`` check when tracing is off;
- :mod:`repro.obs.metrics` — counters/gauges/histograms with
  deterministic ordering and multiprocess snapshot merging;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``about:tracing``), JSONL/CSV dumps, and terminal summary tables;
- :mod:`repro.obs.manifest` — run-provenance manifests (config hash,
  code version, machine spec) attached to experiment outputs;
- :mod:`repro.obs.runtime` — process-wide session management so cached
  engines pick tracing up without constructor threading;
- :mod:`repro.obs.stitch` — cross-process trace stitching: pool worker
  buffers aligned onto the coordinator's timeline;
- :mod:`repro.obs.profile` — deterministic sim-clock profiler
  (cumulative/self time per phase, collapsed-stack flamegraph output);
- :mod:`repro.obs.sentinel` — performance-regression sentinel over the
  recorded benchmark history.

Invariants: traced and untraced runs are bit-identical (asserted by
the determinism harness), and every record carries simulated time —
never a raw host-clock value.
"""

from repro.obs.events import Event, Span, TraceBuffer
from repro.obs.export import (
    ensure_valid_chrome_trace,
    hit_rates_table,
    metrics_table,
    summary_table,
    to_chrome_trace,
    to_csv,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import Profile, ProfileNode, build_profile
from repro.obs.sentinel import (
    BenchResult,
    Comparison,
    append_history,
    compare_results,
    load_history,
    load_results,
)
from repro.obs.stitch import (
    StitchedWorker,
    WorkerTrace,
    align_workers,
    merged_buffer,
)
from repro.obs.manifest import RunManifest, build_manifest, config_hash
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NullMetricsRegistry,
    merge_snapshots,
)
from repro.obs.runtime import (
    ObsSession,
    activate,
    active,
    deactivate,
    session,
    tracer_for,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "BenchResult",
    "Comparison",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "ObsSession",
    "Profile",
    "ProfileNode",
    "RunManifest",
    "Span",
    "StitchedWorker",
    "TraceBuffer",
    "Tracer",
    "WorkerTrace",
    "activate",
    "active",
    "align_workers",
    "append_history",
    "build_manifest",
    "build_profile",
    "compare_results",
    "config_hash",
    "deactivate",
    "ensure_valid_chrome_trace",
    "hit_rates_table",
    "load_history",
    "load_results",
    "merge_snapshots",
    "merged_buffer",
    "metrics_table",
    "session",
    "summary_table",
    "to_chrome_trace",
    "to_csv",
    "to_jsonl",
    "tracer_for",
    "validate_chrome_trace",
    "write_chrome_trace",
]
