"""repro.obs — opt-in observability for the simulator.

Three layers, all strictly read-only with respect to simulation state:

* **event tracing** — an :class:`Observer` attached to a
  :class:`~repro.core.engine.Simulator` records typed events (references,
  fetch lifecycle, evictions with victim distance, disk busy spans, stall
  episodes, fault handling) keyed on *simulated* time;
* **metrics** — a :class:`MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms (queue depth, fetch latency, victim forward
  distance, cache occupancy, per-disk utilization) aggregated per run;
* **stall attribution** — every stall quantum is charged to exactly one
  cause (:data:`~repro.obs.events.STALL_CAUSES`), and the per-cause totals
  sum back to ``SimulationResult.stall_ms`` to within float noise.

An unobserved simulator carries **zero** tracing calls: the hooks are
installed by instance-attribute shadowing (the same attach protocol as
:meth:`repro.perf.PhaseProfiler.attach`), so the class methods stay
untouched and the
default hot path has no flag checks, no indirection, and bit-identical
results.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.events import Event, STALL_CAUSES
from repro.obs.export import (
    chrome_trace,
    iter_jsonl_rows,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.logging import (
    JsonFormatter,
    configure_logging,
    get_correlation_id,
    get_logger,
    set_correlation_id,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import Observer, StallRecord
from repro.obs.prom import labeled, render_prometheus, validate_exposition
from repro.obs.report import render_report
from repro.obs.svc import (
    ServiceSpan,
    ServiceTracer,
    maybe_span,
    new_correlation_id,
    reconstruct_durations,
)

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "Observer",
    "STALL_CAUSES",
    "ServiceSpan",
    "ServiceTracer",
    "StallRecord",
    "chrome_trace",
    "configure_logging",
    "get_correlation_id",
    "get_logger",
    "iter_jsonl_rows",
    "labeled",
    "maybe_span",
    "new_correlation_id",
    "reconstruct_durations",
    "render_prometheus",
    "render_report",
    "set_correlation_id",
    "validate_exposition",
    "write_chrome_trace",
    "write_jsonl",
]
