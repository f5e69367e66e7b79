"""repro.obs — zero-dependency instrumentation for the whole stack.

The pieces:

* :mod:`repro.obs.trace`   — :class:`Tracer` with nestable spans (wall
  + CPU time, optional tracemalloc peaks), JSON tree export and a flat
  event log.
* :mod:`repro.obs.metrics` — :class:`Metrics` registry of counters,
  gauges and summary histograms, with picklable snapshots and lossless
  merging (campaign workers ship per-fault snapshots back this way).
* :mod:`repro.obs.log`     — :class:`EventLog`, a bounded ring buffer
  of span-correlated structured events (solver anomalies, campaign
  heartbeats).
* :mod:`repro.obs.core`    — the ambient scope: :func:`observe` enables
  fresh sinks for a block; disabled by default, and the disabled path
  is a single attribute check at every recording site.
* :mod:`repro.obs.export`  — Chrome Trace Event Format (Perfetto),
  Prometheus text exposition and a JSONL flat-event stream.
* :mod:`repro.obs.profile` — :func:`aggregate` folds a span forest
  into per-path self/total wall+CPU attribution with a hotspot table.
* :mod:`repro.obs.health`  — the one campaign progress record (ETA,
  rate, callbacks, heartbeats) every route and the service dashboard
  share, plus post-hoc straggler detection.
* :mod:`repro.obs.bench`   — the benchmark-telemetry pipeline behind
  ``python -m repro.obs bench`` / ``compare``: the batched K sweep,
  the sparse ladder and journal replay/restart, gated against the
  parent commit's runs on the same host.

Typical use, directly or through :class:`repro.session.Session`::

    from repro import obs
    from repro.obs import export, profile

    with obs.observe() as o:
        transient(circuit, t_stop=1e-3, dt=1e-6)
    print(o.metrics.counter_values()["solver.newton_iterations"])
    print(profile.aggregate(o.tracer).table())
    export.write_chrome_trace(o.tracer, "trace.json")  # -> Perfetto

Set ``REPRO_OBS=1`` in the environment to switch on a process-wide
ambient scope without touching code (how CI measures enabled-mode
overhead), or ``REPRO_OBS=chrome:/path.json`` (``jsonl:``/``prom:``) to
also export the ambient scope at process exit.
"""

from repro.obs.core import (
    NULL_SPAN,
    OBS,
    Observation,
    count,
    counter_value,
    enable_from_env,
    enabled,
    event,
    gauge,
    observe,
    record,
    span,
)
from repro.obs.ledger import RunLedger
from repro.obs.log import EventLog
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.trace import Span, TraceContext, Tracer, orphan_spans

enable_from_env()

__all__ = [
    "OBS",
    "NULL_SPAN",
    "Observation",
    "observe",
    "enabled",
    "span",
    "count",
    "record",
    "gauge",
    "event",
    "counter_value",
    "enable_from_env",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "EventLog",
    "RunLedger",
    "Span",
    "TraceContext",
    "Tracer",
    "orphan_spans",
]
