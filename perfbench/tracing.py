"""Entry-point spans for the benchmark's traced pass, and their fold
into per-layer metrics.

Nothing here touches ``src/``.  :func:`install` replaces a fixed list of
the program's public entry points with thin wrappers that open a
:func:`repro.obs.span` around the original call.  Because the wrappers
go through the ambient observation scope, a wrapper running inside a
pooled campaign worker records into the worker's isolated scope and its
spans ride home on ``FaultOutcome.spans`` like the program's own.  The
wrappers must therefore be installed before the pool forks; the
benchmark installs them after its untraced passes and before the traced
pass opens a fresh ``Session``.

Two departures from "one span per call", both to keep the traced pass
close to the untraced one:

* ``Waveform.__call__`` runs ~10^5 times per device on ``bist_lot``.  A
  span per call would double the pass and hold ~10^5 span objects, so
  the wrapper is a *folded leaf*: it times the call and adds the time
  and a call count to the innermost open span's attributes.  The fold
  subtracts that time from the enclosing path's self time and credits
  it to ``signals.waveform``.
* The campaign service calls the result cache and the job journal from
  its dispatcher thread.  The tracer's span stack belongs to the main
  thread, so wrappers running on any other thread record into a tracer
  of that thread's own (:class:`EntryPoints.side_tracers`).

A span name is its layer "bucket".  The program's own spans
(``transient``, ``campaign``, ``fault.batch``...) inherit the bucket of
the nearest wrapper or mapped name above them.  A row with no bucket
on its path is unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.obs.core import NULL_SPAN, OBS
from repro.obs.profile import aggregate
from repro.obs.trace import Span, Tracer

#: (module, attribute path, span name) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.spice.transient", "transient", "spice.transient"),
    ("repro.spice.batched", "batched_transient", "spice.batched_transient"),
    ("repro.spice.solver", "dc_operating_point", "spice.dc"),
    ("repro.core.transient_test", "TransientResponseTester.measure",
     "core.measure"),
    ("repro.core.transient_test", "TransientResponseTester.evaluate_batch",
     "core.measure"),
    ("repro.faults.dictionary", "TransientSignatureTechnique.__call__",
     "core.measure"),
    ("repro.faults.dictionary", "TransientSignatureTechnique.evaluate_batch",
     "core.measure"),
    ("repro.core.detection", "detection_instances", "core.detect"),
    ("repro.faults.dictionary", "SignatureDetector.__call__", "core.detect"),
    ("repro.core.impulse_method", "extract_integrator_model", "core.impulse"),
    ("repro.core.impulse_method", "integrator_impulse_response",
     "core.impulse"),
    ("repro.core.impulse_method", "circuit2_response", "core.impulse"),
    ("repro.core.bist", "BISTController.quick_pass", "core.bist"),
    ("repro.core.bist", "BISTController.run_all", "core.bist"),
    ("repro.adc.dual_slope", "DualSlopeADC.test_peak_voltage",
     "adc.peak_test"),
    ("repro.adc.dual_slope", "DualSlopeADC.convert", "adc.convert"),
    ("repro.process.batch", "Batch.fabricate", "process.fabricate"),
    ("repro.faults.campaign", "FaultCampaign.run", "faults.campaign"),
    ("repro.faults.injector", "inject", "faults.inject"),
    ("repro.surrogate.prescreen", "SurrogatePrescreen.classify",
     "surrogate.classify"),
    ("repro.surrogate.vectorfit", "VectorFitter.fit", "surrogate.vectorfit"),
    ("repro.session", "Session.submit", "service.session_submit"),
    ("repro.service.cache", "ResultCache.get", "service.cache.get"),
    ("repro.service.cache", "ResultCache.put", "service.cache.put"),
    ("repro.service.queue", "PersistentJobQueue.submit",
     "service.queue.append"),
    ("repro.service.queue", "PersistentJobQueue.mark",
     "service.queue.append"),
)

#: the folded leaf (see the module docstring).
WAVEFORM_ENTRY = ("repro.signals.waveform", "Waveform.__call__")
WAVEFORM_BUCKET = "signals.waveform"
_WF_CALLS = "bench.waveform_calls"
_WF_SECONDS = "bench.waveform_s"

#: span names the wrappers open (distinct from the program's own, so a
#: row's call count is a count of entry-point calls).
WRAPPER_NAMES = frozenset(name for _, _, name in ENTRY_POINTS)

#: span name -> bucket, for the wrappers' names and the program's own
#: spans.  Names absent here inherit the bucket above them.
BUCKETS: Dict[str, str] = {name: name for name in WRAPPER_NAMES}
BUCKETS.update({
    "spice.batched_transient": "spice.transient",
    "surrogate.vectorfit": "surrogate.fit",
    "service.session_submit": "service.submit",
    "transient": "spice.transient",
    "dc_operating_point": "spice.dc",
    "campaign": "faults.campaign",
    "fault.evaluate": "faults.campaign",
    "fault.batch": "faults.campaign",
    "fault.cached": "faults.campaign",
    "fault.prescreened": "faults.campaign",
    "fault.verdict": "faults.campaign",
    "surrogate.prescreen": "surrogate.classify",
    "surrogate.fit": "surrogate.fit",
    "service.submit": "service.submit",
    # the client blocked on the service (a benchmark-side span)
    "service.wait": "service.wait",
    # the scheduler's detached job/shard spans (dispatcher bookkeeping)
    "service.job": "service.dispatch",
    "service.shard": "service.dispatch",
})

#: spans along a campaign's fault-free reference chain: a spice row
#: whose path below ``campaign`` holds only these is the reference.
_REFERENCE_CHAIN = frozenset({"core.measure", "spice.transient",
                              "spice.batched_transient", "spice.dc",
                              "transient", "dc_operating_point"})


def _resolve(module: str, attr_path: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current value) of an entry point."""
    owner: Any = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class EntryPoints:
    """Installs the entry-point wrappers once per process.

    ``side_tracers`` maps a non-main thread's ident to the tracer its
    wrappers record into; the fold reads them next to the ambient
    tracer.
    """

    def __init__(self) -> None:
        self.side_tracers: Dict[int, Tracer] = {}
        self._lock = threading.Lock()
        self.installed = False

    def span(self, name: str):
        if not OBS.enabled:
            return NULL_SPAN
        if threading.current_thread() is threading.main_thread():
            return obs.span(name)
        ident = threading.get_ident()
        with self._lock:
            tracer = self.side_tracers.get(ident)
            if tracer is None:
                tracer = self.side_tracers[ident] = Tracer()
        return tracer.span(name)

    def install(self) -> None:
        if self.installed:
            return
        for module, attr_path, name in ENTRY_POINTS:
            owner, attr, original = _resolve(module, attr_path)
            self._replace(owner, attr, original,
                          self._wrapper(original, name))
        owner, attr, original = _resolve(*WAVEFORM_ENTRY)
        self._replace(owner, attr, original, _leaf_wrapper(original))
        self.installed = True

    def _wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def _replace(owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        """Swap the entry point on its owner and on every loaded module
        that imported the same object by name (``from x import f``)."""
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _leaf_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (not OBS.enabled
                or threading.current_thread() is not threading.main_thread()):
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            current = OBS.tracer.current
            if current is not None:
                attrs = current.attrs
                attrs[_WF_CALLS] = attrs.get(_WF_CALLS, 0) + 1
                attrs[_WF_SECONDS] = attrs.get(_WF_SECONDS, 0.0) + elapsed
    return wrapper


# ---------------------------------------------------------------------------
# the fold


@dataclass
class Bucket:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Fold:
    """Per-bucket self time and call counts of one traced pass."""

    buckets: Dict[str, Bucket] = field(default_factory=dict)
    #: wall of the benchmark's root span (the traced pass).
    wall_s: float = 0.0
    #: self time on the root's subtree with no bucket on its path.
    unattributed_s: float = 0.0
    #: (path, self_s) of the largest unattributed row.
    largest_unattributed: Tuple[str, float] = ("", 0.0)
    #: spice self time on a campaign's fault-free reference chain.
    reference_s: float = 0.0

    def bucket(self, name: str) -> Bucket:
        return self.buckets.get(name, Bucket())

    @property
    def attributed_frac(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return 1.0 - self.unattributed_s / self.wall_s


def bucket_of(path: str) -> Optional[str]:
    for name in reversed(path.split("/")):
        bucket = BUCKETS.get(name)
        if bucket is not None:
            return bucket
    return None


def _is_reference(path: str) -> bool:
    names = path.split("/")
    if "campaign" not in names:
        return False
    below = names[names.index("campaign") + 1:]
    return bool(below) and all(n in _REFERENCE_CHAIN for n in below)


def _leaf_time(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """Folded-leaf (calls, seconds) per span path."""
    out: Dict[str, Tuple[int, float]] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix}/{span.name}" if prefix else span.name
        calls = span.attrs.get(_WF_CALLS)
        if calls:
            n, s = out.get(path, (0, 0.0))
            out[path] = (n + calls, s + span.attrs.get(_WF_SECONDS, 0.0))
        for child in span.children:
            visit(child, path)

    for root in spans:
        visit(root, "")
    return out


def fold(tracers: List[Tracer], root_name: str) -> Fold:
    """Fold every tracer's forest into buckets.

    ``root_name`` names the main-thread root span of the traced pass;
    only its subtree counts towards the wall and the attribution (the
    scheduler's job roots and the side tracers overlap that wall in
    time, so they add to bucket self times but not to coverage)."""
    result = Fold()
    for tracer in tracers:
        report = aggregate(tracer)
        leaf = _leaf_time(tracer.spans)
        for row in report.rows:
            calls, wf_s = leaf.get(row.path, (0, 0.0))
            self_s = max(0.0, row.self_s - wf_s)
            if calls:
                wf = result.buckets.setdefault(WAVEFORM_BUCKET, Bucket())
                wf.calls += calls
                wf.self_s += wf_s
            name = row.path.rsplit("/", 1)[-1]
            bucket = bucket_of(row.path)
            if bucket is not None:
                b = result.buckets.setdefault(bucket, Bucket())
                b.self_s += self_s
                if name in WRAPPER_NAMES:
                    b.calls += row.calls
                if bucket in ("spice.transient", "spice.dc") \
                        and _is_reference(row.path):
                    result.reference_s += self_s
            in_root = row.path == root_name or row.path.startswith(
                root_name + "/")
            if row.path == root_name:
                result.wall_s += row.total_s
            if in_root and bucket is None:
                # waveform time under an unbucketed span is attributed
                # to signals, so only the remainder is unattributed
                result.unattributed_s += self_s
                if self_s > result.largest_unattributed[1]:
                    result.largest_unattributed = (row.path, self_s)
    return result


__all__ = ["ENTRY_POINTS", "EntryPoints", "Fold", "fold", "bucket_of"]
