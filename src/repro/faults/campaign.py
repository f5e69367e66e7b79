"""Fault-simulation campaigns.

A campaign pairs a fault universe with a *technique*: a callable that
takes a (fault-free or faulty) target and returns a measurement, plus a
*detector* that compares a faulty measurement against the fault-free
reference and returns a detection score in [0, 1] (the paper's
"percentage of detection instances" divided by 100).

Every stage of a job is a shard of the executor in
:class:`~repro.service.scheduler.CampaignScheduler`, in one order on
both entry points: the surrogate prescreen (when configured), the
fault-free reference (when none was given) and the fault chunks.
Campaigns are fully observable: under an observation scope
(:func:`repro.obs.observe` or a :class:`repro.session.Session`) every
shard — in-process or in a worker process — records into an isolated
scope whose metrics, events and spans ship home and are merged once
when the job settles, so ``workers=N`` runs report exactly the same
counters as a serial run, plus campaign-level wall-time histograms and
a worker-utilisation gauge.

Campaigns are also *resilient* (see DESIGN.md, "Resilience
architecture"): :meth:`FaultCampaign.run` accepts per-fault deadlines, a
campaign deadline covering every stage, and periodic atomic
checkpointing with ``resume=True``.  In pooled mode the executor
survives hung and crashed worker processes by killing/rebuilding the
pool, re-running in-flight shards and quarantining faults that kill a
worker twice (a prescreen or reference that does so fails the job).
Everything that degraded the run is accounted for in the result's
:class:`~repro.resilience.failure.FailureReport`.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import CampaignError, DeadlineExceeded
from repro.faults.injector import inject
from repro.faults.model import Fault
from repro.obs.core import OBS, event, observe
from repro.obs.core import span as obs_span
from repro.obs.health import CampaignProgress, ProgressTracker
from repro.obs.ledger import key_counters
from repro.obs.metrics import Metrics
from repro.obs.trace import Span, TraceContext, stamp_pids
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.failure import FailureReport
from repro.service.spec import CampaignSpec

#: internal error policies (see ``FaultCampaign.errors_as_detected``)
_ERROR_DETECTED = "detected"
_ERROR_UNDETECTED = "undetected"

#: fatal worker crashes before a fault is quarantined as a poison pill.
_QUARANTINE_AFTER = 2

#: seconds past a pooled shard's per-fault budgets before the parent
#: hard-kills it (see :meth:`_JobRun.shard_budget`)
TIMEOUT_GRACE_S = 1.0


@dataclass
class FaultOutcome:
    """Result of one faulty-circuit evaluation."""

    fault: Fault
    detection: float            # fraction of detection instances, [0, 1]
    detected: bool              # detection >= the campaign threshold
    measurement: Any = None     # technique output, kept for diagnosis
    error: Optional[str] = None  # simulation failure (see errors_as_detected)
    elapsed_s: float = 0.0
    #: per-fault metrics snapshot (:meth:`repro.obs.Metrics.to_dict`
    #: shape) captured when an observation scope was active; worker
    #: processes ship their counters back through this field.
    metrics: Optional[Dict[str, Dict[str, Any]]] = None
    #: pid of the process that evaluated this fault (straggler
    #: attribution; equals the parent pid in serial campaigns).
    worker_pid: Optional[int] = None
    #: structured events emitted during the evaluation (same isolation
    #: and ship-back story as ``metrics``; merged into the ambient
    #: event log by the parent so serial == workers).
    events: Optional[List[Dict[str, Any]]] = None
    #: the evaluation exceeded its per-fault deadline (``detected`` is
    #: always False for a timeout, regardless of ``errors_as_detected`` —
    #: a timeout says nothing about the device under test).
    timed_out: bool = False
    #: the fault killed a worker process twice and was quarantined as a
    #: poison pill (never counted as detected).
    quarantined: bool = False
    #: the outcome was replayed from a :class:`~repro.service.cache.
    #: ResultCache` hit instead of being simulated.  Diagnostic only —
    #: deliberately absent from :meth:`to_dict`, so a warm re-run's
    #: payload is byte-identical to the cold run that populated the
    #: cache.
    from_cache: bool = False
    #: which engine produced the verdict: ``"transient"`` (the full MNA
    #: march — the default, and what every historical payload implied)
    #: or ``"surrogate"`` (the vector-fitted prescreen classified the
    #: fault outside the margin band and the transient never ran).
    decided_by: str = "transient"
    #: worker-side span forest recorded while evaluating this fault
    #: (same isolation/ship-back story as ``metrics``).  The parent
    #: grafts it under the campaign/job span and clears the field;
    #: deliberately absent from :meth:`to_dict` — trace data belongs to
    #: the trace export, not the campaign payload.
    spans: Optional[List[Any]] = None
    #: reference to the span that produced this outcome, as
    #: ``"<trace_id>:<span path>"`` (absent from :meth:`to_dict`).
    span: Optional[str] = None

    def describe(self) -> str:
        status = "DETECTED" if self.detected else "missed"
        if self.timed_out:
            status += " (timeout)"
        elif self.quarantined:
            status += " (quarantined)"
        elif self.error is not None:
            status += " (error)"
        pct = 100.0 * self.detection
        return f"{self.fault.describe():40s} {pct:6.1f}%  {status}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "fault": self.fault.describe(),
            "detection": self.detection,
            "detected": self.detected,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }
        # only present when set, so healthy payloads (and their pinned
        # goldens) are unchanged
        if self.timed_out:
            out["timed_out"] = True
        if self.quarantined:
            out["quarantined"] = True
        if self.decided_by != "transient":
            out["decided_by"] = self.decided_by
        return out


@dataclass
class CampaignResult:
    """Aggregate results over a fault universe."""

    target_name: str
    reference: Any
    outcomes: List[FaultOutcome] = field(default_factory=list)
    threshold: float = 0.0
    elapsed_s: float = 0.0
    workers: int = 1
    #: trace span of the campaign run (RunResult protocol; set when an
    #: observation scope was active).
    trace: Any = field(default=None, repr=False, compare=False)
    #: True when not every fault received a genuine evaluation — some
    #: timed out, were quarantined, or were skipped by the campaign
    #: deadline.  CLI entry points exit non-zero for partial runs.
    partial: bool = False
    #: structured degradation accounting (always present; empty —
    #: ``degraded == False`` — for a clean run).
    failures: FailureReport = field(default_factory=FailureReport)
    #: this run's :class:`~repro.service.cache.CacheStats` delta (hits/
    #: misses/disk_hits/corrupt contributed by this run alone); ``None``
    #: when no cache was attached.  Diagnostic — absent from
    #: :meth:`to_dict`, surfaced through :meth:`summary`.
    cache_stats: Any = field(default=None, repr=False, compare=False)

    @property
    def n_faults(self) -> int:
        return len(self.outcomes)

    @property
    def n_detected(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def n_errors(self) -> int:
        """Faults whose evaluation raised instead of simulating — kept
        visible so solver blowups cannot silently inflate coverage."""
        return sum(1 for o in self.outcomes if o.error is not None)

    @property
    def n_timeouts(self) -> int:
        return sum(1 for o in self.outcomes if o.timed_out)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for o in self.outcomes if o.quarantined)

    @property
    def n_prescreened(self) -> int:
        """Faults decided by the surrogate prescreen (no transient)."""
        return sum(1 for o in self.outcomes
                   if o.decided_by == "surrogate")

    @property
    def n_skipped(self) -> int:
        """Faults never evaluated (campaign deadline expired first)."""
        return len(self.failures.skipped)

    @property
    def coverage(self) -> float:
        """Fraction of the fault universe detected."""
        if not self.outcomes:
            return 0.0
        return self.n_detected / self.n_faults

    def detection_percentages(self) -> List[float]:
        """Per-fault detection-instance percentages (Figure 4's y axis)."""
        return [100.0 * o.detection for o in self.outcomes]

    def table(self) -> str:
        lines = [self.summary()]
        lines.extend(o.describe() for o in self.outcomes)
        return "\n".join(lines)

    def failure_report(self) -> FailureReport:
        """What degraded this run (empty report for a clean run)."""
        return self.failures

    # -- RunResult protocol --------------------------------------------
    def summary(self) -> str:
        line = (f"fault campaign on {self.target_name}: "
                f"{self.n_detected}/{self.n_faults} detected "
                f"(coverage {100 * self.coverage:.1f}%)")
        if self.n_errors:
            line += f", {self.n_errors} simulation errors"
        if self.elapsed_s:
            line += f" [{self.elapsed_s:.2f} s, workers={self.workers}]"
        if self.cache_stats is not None and self.cache_stats.lookups:
            line += f" [{self.cache_stats.describe()}]"
        if self.partial:
            line += " [PARTIAL]"
        if self.failures.degraded:
            line += f" — {self.failures.summary()}"
        return line

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": "fault_campaign",
            "target": self.target_name,
            "n_faults": self.n_faults,
            "n_detected": self.n_detected,
            "n_errors": self.n_errors,
            "coverage": self.coverage,
            "threshold": self.threshold,
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }
        # degraded-run keys are conditional so clean payloads (and the
        # goldens pinning them) keep their historical shape
        if self.partial:
            out["partial"] = True
        if self.failures.degraded:
            out["failures"] = self.failures.to_dict()
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out

    def report(self) -> str:
        """Terminal report: summary, per-span profile (when traced),
        the straggler/health verdict and — for a degraded run — the
        failure accounting."""
        from repro.obs.report import result_report
        text = result_report(self) + self.health().summary() + "\n"
        if self.failures.degraded:
            text += f"failures: {self.failures.summary()}\n"
        return text

    def health(self, factor: float = 4.0):
        """Post-hoc health analysis (see
        :func:`repro.obs.health.straggler_report`)."""
        from repro.obs.health import straggler_report
        return straggler_report(self, factor=factor)


def _timeout_outcome(fault: Fault, budget_s: float,
                     elapsed_s: float, killed: bool = False) -> FaultOutcome:
    suffix = " (worker killed)" if killed else ""
    return FaultOutcome(
        fault=fault, detection=0.0, detected=False,
        error=f"timeout: fault budget of {budget_s:g} s exceeded{suffix}",
        timed_out=True, elapsed_s=elapsed_s,
        worker_pid=None if killed else os.getpid())


def _quarantine_outcome(fault: Fault, crashes: int) -> FaultOutcome:
    return FaultOutcome(
        fault=fault, detection=0.0, detected=False,
        error=f"worker crash: quarantined after {crashes} fatal crashes",
        quarantined=True)


def _span_ref(trace_ctx: Optional[TraceContext], name: str) -> str:
    """The ``"<trace_id>:<path>"`` reference an outcome carries back to
    the span that produced it."""
    if trace_ctx is None:
        return name
    path = f"{trace_ctx.parent}/{name}" if trace_ctx.parent else name
    return f"{trace_ctx.trace_id}:{path}"


def _observed(evaluate: Callable[[], Any],
              trace_ctx: Optional[TraceContext], name: Optional[str] = None,
              **attrs: Any) -> tuple:
    """Run ``evaluate()`` in an isolated observation scope adopted into
    ``trace_ctx``, inside one ``name`` span when a name is given (a
    stage shard's own spans are its forest's roots).

    Returns its value and the ship-back fields (``metrics``, ``events``,
    ``spans`` and the ``span`` reference) that carry the scope's data
    home — identically in-process and in a pool worker, which is what
    makes the *metrics* of ``workers=N`` identical to ``workers=1`` too.
    The parent grafts the span forest under the campaign/job span.
    """
    with observe() as handle:
        tracer = handle.tracer.adopt(trace_ctx)
        if name is None:
            value = evaluate()
        else:
            if trace_ctx is not None:
                attrs.update(trace_ctx.attrs())
            with tracer.span(name, **attrs):
                value = evaluate()
    stamp_pids(tracer.spans, os.getpid())
    return value, {"metrics": handle.metrics.to_dict(),
                   "events": handle.events.records(),
                   "spans": tracer.spans,
                   "span": _span_ref(trace_ctx, name)}


def _verdict(fault: Fault, measure: Callable[[], Any],
             detector: Callable[[Any, Any], float], threshold: float,
             on_error: str, reference: Any) -> FaultOutcome:
    """Score ``measure()`` against the reference, clamped to [0, 1]; a
    measurement or detector that raises becomes an error outcome under
    the ``on_error`` policy.  A :class:`DeadlineExceeded` is left to the
    caller, whose deadline it is."""
    try:
        measurement = measure()
        score = min(1.0, max(0.0, float(detector(reference, measurement))))
    except DeadlineExceeded:
        raise
    except Exception as exc:  # noqa: BLE001 - campaign must continue
        as_detected = on_error == _ERROR_DETECTED
        return FaultOutcome(fault=fault,
                            detection=1.0 if as_detected else 0.0,
                            detected=as_detected,
                            error=f"{type(exc).__name__}: {exc}")
    return FaultOutcome(fault=fault, detection=score,
                        detected=score >= threshold, measurement=measurement)


def _evaluate_fault(technique: Callable[[Any], Any],
                    detector: Callable[[Any, Any], float],
                    threshold: float,
                    on_error: str,
                    collect_obs: bool,
                    fault_timeout_s: Optional[float],
                    target: Any, reference: Any,
                    trace_ctx: Optional[TraceContext],
                    fault: Fault) -> FaultOutcome:
    """Evaluate a single fault against the reference measurement.

    Module-level (not a method) so a process pool can pickle it; the
    serial path calls the very same function, which is what makes
    ``workers=N`` results fault-for-fault identical to ``workers=1``.
    When ``collect_obs`` is set the evaluation runs under
    :func:`_observed`, whose fields ride back on the outcome.  The
    per-fault deadline is installed here, so cooperative cancellation
    works the same serially and inside a worker.
    """
    evaluate = functools.partial(_evaluate_fault_plain, technique, detector,
                                 threshold, on_error, fault_timeout_s,
                                 target, reference, fault)
    if not collect_obs:
        return evaluate()
    outcome, shipped = _observed(evaluate, trace_ctx, "fault.evaluate",
                                 fault=fault.describe())
    vars(outcome).update(shipped)
    return outcome


def _evaluate_fault_plain(technique, detector, threshold, on_error,
                          fault_timeout_s, target, reference,
                          fault) -> FaultOutcome:
    t0 = time.perf_counter()
    with deadline_scope(fault_timeout_s, label="fault") as dl:
        try:
            outcome = _verdict(fault, lambda: technique(inject(target, fault)),
                               detector, threshold, on_error, reference)
        except DeadlineExceeded as exc:
            if dl is not None and exc.deadline is dl and dl.label == "fault":
                # this fault's own budget ran out: a structured verdict,
                # never a detection
                outcome = _timeout_outcome(fault, dl.seconds,
                                           time.perf_counter() - t0)
            else:
                # an enclosing (campaign) deadline fired — not ours to
                # absorb
                raise
    outcome.elapsed_s = time.perf_counter() - t0
    outcome.worker_pid = os.getpid()
    return outcome


def _evaluate_fault_batch(technique, detector, threshold, on_error,
                          collect_obs, fault_timeout_s, target, reference,
                          trace_ctx: Optional[TraceContext],
                          faults: List[Fault]) -> List[FaultOutcome]:
    """Evaluate a chunk of faults through the technique's batched path.

    ``technique.evaluate_batch(target, faults)`` returns one measurement
    per fault, with ``None`` in any slot the batch could not serve
    (injection failed, the variant was evicted mid-march).  Those slots
    — and the entire chunk when the batch attempt raises, returns the
    wrong shape, or exhausts one per-fault deadline budget — are
    re-evaluated through :func:`_evaluate_fault`, each under its own
    fresh budget, so the outcome set is fault-for-fault identical to the
    serial path (including timeout verdicts: a chunk that hangs costs
    one budget, then every member gets its own serial-identical
    evaluation).

    Module-level for the same pickling reason as :func:`_evaluate_fault`.
    When ``collect_obs`` is set the chunk's shipped fields ride back on
    the first batch-produced outcome (fallback outcomes carry their own
    isolated snapshots, exactly as in a serial run).
    """
    evaluate = functools.partial(_evaluate_batch_plain, technique, detector,
                                 threshold, on_error, collect_obs,
                                 fault_timeout_s, target, reference,
                                 trace_ctx, faults)
    if not collect_obs:
        return evaluate()[0]
    (outcomes, batch_slots), shipped = _observed(
        evaluate, trace_ctx, "fault.batch", n_faults=len(faults))
    for i in batch_slots:
        outcomes[i].span = shipped["span"]
    if batch_slots:
        vars(outcomes[batch_slots[0]]).update(shipped)
    return outcomes


def _evaluate_batch_plain(technique, detector, threshold, on_error,
                          collect_obs, fault_timeout_s, target, reference,
                          trace_ctx, faults):
    t0 = time.perf_counter()
    measurements = None
    with deadline_scope(fault_timeout_s, label="fault") as dl:
        try:
            got = technique.evaluate_batch(target, faults)
            if got is not None and len(got) == len(faults):
                measurements = list(got)
        except DeadlineExceeded as exc:
            if dl is not None and exc.deadline is dl and dl.label == "fault":
                # the chunk burned one per-fault budget: let the serial
                # re-runs below hand down the individual verdicts
                measurements = None
            else:
                raise
        except Exception:  # noqa: BLE001 - serial re-run owns the verdict
            measurements = None
    batch_elapsed = time.perf_counter() - t0
    if OBS.enabled:
        OBS.metrics.counter("campaign.batches").inc()
    n_batched = (0 if measurements is None
                 else sum(1 for m in measurements if m is not None))
    share = batch_elapsed / max(n_batched, 1)
    outcomes: List[FaultOutcome] = []
    batch_slots: List[int] = []
    for i, fault in enumerate(faults):
        meas = None if measurements is None else measurements[i]
        if meas is None:
            if OBS.enabled:
                OBS.metrics.counter("campaign.batch_fallbacks").inc()
            outcomes.append(_evaluate_fault(
                technique, detector, threshold, on_error, collect_obs,
                fault_timeout_s, target, reference, trace_ctx, fault))
            continue
        outcome = _verdict(fault, lambda: meas, detector, threshold,
                           on_error, reference)
        outcome.elapsed_s = share
        outcome.worker_pid = os.getpid()
        batch_slots.append(len(outcomes))
        outcomes.append(outcome)
    return outcomes, batch_slots


def _graft_spans(parent: Span, outcome: FaultOutcome) -> None:
    """Attach an outcome's shipped span forest under the campaign/job
    span (clearing the ship-back field), or synthesise a zero-width
    provenance span for outcomes that never ran a transient — cache
    replays, surrogate verdicts, parent-side timeout/quarantine
    verdicts — so *every* outcome is represented in the trace.
    """
    if outcome.spans:
        for root in outcome.spans:
            if (outcome.worker_pid is not None
                    and "worker_pid" not in root.attrs):
                root.attrs["worker_pid"] = outcome.worker_pid
            parent.children.append(root)
        outcome.spans = None
        return
    if outcome.span is not None:
        # covered by a sibling's forest (non-carrier slot of a batched
        # chunk): the chunk span already represents it
        return
    if outcome.from_cache:
        name = "fault.cached"
    elif outcome.decided_by != "transient":
        name = "fault.prescreened"
    else:
        name = "fault.verdict"
    now = time.perf_counter()
    node = Span(name, attrs={"fault": outcome.fault.describe()},
                t_start=now)
    node.close(t_end=now)
    node.pid = os.getpid()
    if outcome.from_cache:
        node.attrs["from_cache"] = True
    if outcome.decided_by != "transient":
        node.attrs["decided_by"] = outcome.decided_by
    if outcome.error is not None:
        node.attrs["error"] = outcome.error
    parent.children.append(node)
    outcome.span = f"{parent.name}/{name}"


def _evaluate_shard(evaluate, faults: List[Fault]) -> List[FaultOutcome]:
    """Driver for a per-fault shard: the :func:`_evaluate_fault` partial
    applied in order, in-process or in a pool worker alike.
    Module-level so a pool can pickle it."""
    return [evaluate(f) for f in faults]


class _Unpicklable:
    """What a pooled reference stage hands back in place of a
    measurement that cannot be pickled (a class, so it keeps its
    identity across the process boundary)."""


def _picklable(call: Callable[[], Any]) -> Any:
    """``call()``, or :class:`_Unpicklable` when its value cannot be
    pickled back from the pool worker this runs in.  Probing in the
    worker tells an unpicklable value from a stage that raised (which
    fails its job at once), and the stage's observations still ship
    home.  Module-level so a pool can pickle it."""
    value = call()
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - any failure means in-process
        return _Unpicklable
    return value


def _job_name(spec: CampaignSpec) -> str:
    return spec.name or getattr(spec.target, "name",
                                type(spec.target).__name__)


@dataclass
class _Shard:
    """One dispatchable unit: a stage of a job."""

    kind: str                    # "prescreen" | "ref" | "faults"
    #: the faults a ``faults`` chunk evaluates, or a ``prescreen`` classifies
    indices: List[int] = field(default_factory=list)
    #: march the chunk through the technique's batched path
    batched: bool = False
    #: open dispatch span while the shard is in flight (None when the
    #: job is untraced); detached from any tracer until grafted.
    span: Any = field(default=None, compare=False)


class _JobRun:
    """One campaign job, from staging to its :class:`CampaignResult`.

    Both entry points share it.  :meth:`FaultCampaign.run` stages a job
    and hands it to the scheduler's shard executor on the caller's
    thread (a process pool when ``workers > 1`` and the work pickles);
    :class:`~repro.service.scheduler.CampaignScheduler` stages every
    submitted job the same way.  Staging (:meth:`stage`) restores the
    checkpoint, replays the result cache, decides the route once and
    queues the first stage; every stage is a shard the executor runs,
    and each landing (:meth:`land`) queues the next one — the surrogate
    prescreen, then the fault-free reference, then the fault chunks.
    The job tracks progress and finalizes the result, ledger row
    included (:meth:`finish`).  Outcomes are recorded strictly in fault
    order, so progress callbacks, heartbeats and checkpoints see the
    serial sequence on every route.
    """

    def __init__(self, spec: CampaignSpec, cache: Optional[Any] = None, *,
                 trace_ctx: Optional[TraceContext] = None,
                 collect_obs: bool = False, label: str = "",
                 best_effort_checkpoint: bool = False) -> None:
        self.spec = spec
        self.fault_list: List[Fault] = list(spec.faults)
        self.total = len(self.fault_list)
        self.failures = FailureReport()
        self.outcomes: Dict[int, FaultOutcome] = {}
        self.buffered: Dict[int, FaultOutcome] = {}
        self.emit_queue: Deque[int] = deque()
        self.ready: Deque[_Shard] = deque()
        self.inflight = 0
        #: faults settled or in flight (the scheduler's fair-share key)
        self.dispatched = 0
        #: strikes of faults (by index) and stages (by kind) that were in
        #: flight when a worker died and have not been cleared since;
        #: non-empty means blame is pending
        self.crash_counts: Dict[Any, int] = {}
        self.reference: Any = spec.reference
        #: ship-back fields of the landed prescreen and reference shards,
        #: in stage order, merged by :func:`_merge_obs`
        self.stage_obs: List[Dict[str, Any]] = []
        self.shard_size = 1
        self.evaluate: Optional[Callable[[Fault], FaultOutcome]] = None
        self.evaluate_batch: Optional[Callable[[List[Fault]], Any]] = None
        self.trace_ctx = trace_ctx
        self.collect_obs = collect_obs
        self.tags = {"job": label} if label else {}
        self.best_effort_checkpoint = best_effort_checkpoint
        self.cache = cache
        self.context_key: Optional[str] = None
        self.surrogate_key: Optional[str] = None
        self.cache_stats0: Any = None
        if cache is not None:
            self.context_key = spec.context_key()
            self.cache_stats0 = cache.stats.snapshot()
            if spec.prescreen == "surrogate":
                # surrogate verdicts live under their own context key —
                # prescreened and full runs must never replay each
                # other's entries (the surrogate's score is not the
                # transient's)
                self.surrogate_key = spec.surrogate_context_key()
        self.tracker = ProgressTracker(self.total, callback=spec.progress,
                                       label=label)
        self.deadline = (Deadline(spec.campaign_deadline_s, label="campaign")
                         if spec.campaign_deadline_s is not None else None)
        self.ckpt: Optional[CampaignCheckpoint] = None
        if spec.checkpoint is not None:
            self.ckpt = CampaignCheckpoint(spec.checkpoint,
                                           spec.content_key())
        #: whether shards go to a process pool (else the executor loop
        #: runs them on its own thread): decided by :meth:`stage`
        self.pooled = False
        # scheduler-side state: the job handle, admission seq, the
        # detached ``service.job`` span
        self.job: Any = None
        self.seq = 0
        self.job_span: Optional[Span] = None
        self.t0 = time.perf_counter()

    @property
    def name(self) -> str:
        return _job_name(self.spec)

    @property
    def share(self) -> float:
        """Fraction of the universe already dispatched (fair-share
        ordering key; cached/restored faults count as dispatched)."""
        return self.dispatched / self.total if self.total else 1.0

    @property
    def last_progress(self) -> CampaignProgress:
        return self.tracker.last

    # -- staging -------------------------------------------------------
    def stage(self, shard_size: int, pool: bool) -> None:
        """Replay checkpointed outcomes, then cache hits, each in fault
        order, and queue the first stage for the faults left in
        ``emit_queue``: the prescreen when one is configured, else
        :meth:`advance`.  Then decide the route, once: a process pool
        only when one can be used (``pool``) and the job's technique,
        detector, target, faults and any given reference pickle."""
        if self.ckpt is not None and self.spec.resume:
            restored = self.ckpt.load()
            for idx in sorted(restored):
                if 0 <= idx < self.total:
                    self.dispatched += 1
                    self.record(idx, restored[idx], save=False)
        pending: List[int] = []
        for idx in range(self.total):
            if idx in self.outcomes:
                continue
            hit = self.cache_hit(idx) if self.cache is not None else None
            if hit is None:
                pending.append(idx)
            else:
                self.dispatched += 1
                self.record(idx, hit)
        self.emit_queue = deque(pending)
        self.shard_size = shard_size
        if pending and self.spec.prescreen == "surrogate":
            # before the MNA reference: a fully surrogate-decided job
            # performs zero transient simulations
            self.ready.append(_Shard("prescreen", pending))
        else:
            self.advance()
        self.pooled = pool
        if pool and self.ready:
            spec = self.spec
            try:
                pickle.dumps((spec.technique, spec.detector, spec.target,
                              self.fault_list, self.reference))
            except Exception:  # noqa: BLE001 - any failure means in-process
                self.pooled = False

    def cache_hit(self, idx: int,
                  count_miss: bool = True) -> Optional[FaultOutcome]:
        """A prescreened job probes the surrogate context first
        (silently — the transient context owns the miss counter), then
        the shared transient context, so a warm prescreened re-run
        replays both verdict kinds without a simulation."""
        fault, threshold = self.fault_list[idx], self.spec.threshold
        hit = None
        if self.surrogate_key is not None:
            hit = self.cache.get(self.surrogate_key, fault, threshold,
                                 count_miss=False)
        if hit is None:
            hit = self.cache.get(self.context_key, fault, threshold,
                                 count_miss=count_miss)
        return hit

    def advance(self) -> None:
        """Queue the next stage for the faults still pending: the
        fault-free reference while none is known (lazy on purpose: a
        fully restored, cached or prescreened job never simulates it),
        then the fault chunks — ``batch_size`` per shard when the
        technique has a batched path (``evaluate_batch``),
        ``shard_size`` otherwise."""
        if not self.emit_queue:
            return
        if self.reference is None:
            self.ready.append(_Shard("ref"))
            return
        spec = self.spec
        args = (spec.technique, spec.detector, spec.threshold,
                spec.on_error, self.collect_obs, spec.fault_timeout_s,
                spec.target, self.reference, self.trace_ctx)
        self.evaluate = functools.partial(_evaluate_fault, *args)
        batched = (spec.batch_size > 1
                   and hasattr(spec.technique, "evaluate_batch"))
        if batched:
            self.evaluate_batch = functools.partial(_evaluate_fault_batch,
                                                    *args)
        width = spec.batch_size if batched else self.shard_size
        pending = list(self.emit_queue)
        for start in range(0, len(pending), width):
            self.ready.append(_Shard("faults", pending[start:start + width],
                                     batched=batched))

    def shard_call(self, shard: _Shard) -> Callable[[], Any]:
        """The picklable zero-argument call that evaluates ``shard``; a
        stage shard's call ships its observations back when
        ``collect_obs`` is set (fault outcomes carry their own)."""
        spec = self.spec
        faults = [self.fault_list[i] for i in shard.indices]
        if shard.kind == "faults":
            if shard.batched:
                return functools.partial(self.evaluate_batch, faults)
            return functools.partial(_evaluate_shard, self.evaluate, faults)
        if shard.kind == "ref":
            call = functools.partial(spec.technique, spec.target)
            if self.pooled:
                call = functools.partial(_picklable, call)
        else:
            from repro.surrogate.prescreen import SurrogatePrescreen
            call = functools.partial(SurrogatePrescreen(
                spec.technique, spec.detector, spec.threshold,
                config=spec.prescreen_config).classify, spec.target, faults)
        if not self.collect_obs:
            return call
        return functools.partial(_observed, call, self.trace_ctx)

    # -- recording -----------------------------------------------------
    def record(self, idx: int, outcome: FaultOutcome,
               save: bool = True) -> None:
        self.outcomes[idx] = outcome
        if outcome.timed_out:
            self.failures.timeouts.append(outcome.fault.describe())
            if OBS.enabled:
                OBS.metrics.counter("campaign.fault_timeouts").inc()
                event("campaign.fault_timeout", level="warning",
                      fault=outcome.fault.describe(),
                      budget_s=self.spec.fault_timeout_s, **self.tags)
        if outcome.quarantined:
            self.failures.quarantined.append(outcome.fault.describe())
            if OBS.enabled:
                OBS.metrics.counter("campaign.quarantined").inc()
                event("campaign.quarantine", level="error",
                      fault=outcome.fault.describe(), **self.tags)
        if self.cache is not None and not outcome.from_cache:
            key = (self.surrogate_key if outcome.decided_by == "surrogate"
                   else self.context_key)
            if key is not None:
                self.cache.put(key, outcome)
        self.tracker.update(outcome)
        if self.ckpt is not None and save:
            self.save_checkpoint()

    def save_checkpoint(self) -> None:
        """Inside the service a failed checkpoint write (full disk,
        failed rename) costs recomputation after a crash, never the
        dispatcher; a standalone campaign raises it."""
        try:
            self.ckpt.save(self.outcomes, self.total)
        except OSError:
            if not self.best_effort_checkpoint:
                raise
            if OBS.enabled:
                OBS.metrics.counter("service.checkpoint_errors").inc()
                event("service.checkpoint_error", level="warning",
                      path=self.ckpt.path, **self.tags)

    def emit_ready(self) -> None:
        while self.emit_queue and self.emit_queue[0] in self.buffered:
            idx = self.emit_queue.popleft()
            self.record(idx, self.buffered.pop(idx))

    def land(self, shard: _Shard, payload: Any) -> None:
        """Take a finished shard: buffer a chunk's outcomes for in-order
        emission, or take a stage's result and queue the next stage."""
        if shard.kind == "faults":
            for idx, outcome in zip(shard.indices, payload):
                self.crash_counts.pop(idx, None)   # exonerated
                self.buffered[idx] = outcome
            self.emit_ready()
            return
        self.crash_counts.pop(shard.kind, None)
        if self.collect_obs:
            payload, shipped = payload
            self.stage_obs.append(shipped)
        if shard.kind == "ref":
            if payload is _Unpicklable:
                # the fault chunks would carry the reference to the
                # pool, so the job runs in-process from here on
                self.pooled = False
                self.ready.appendleft(shard)
                return
            self.reference = payload
        else:
            escalated: List[int] = []
            for idx, verdict in zip(shard.indices, payload):
                if verdict is None:
                    escalated.append(idx)
                else:
                    self.dispatched += 1
                    self.record(idx, verdict)
            self.emit_queue = deque(escalated)
        self.advance()

    # -- the executor's failure verdicts -------------------------------
    def requeue(self, shard: _Shard, split: bool = False) -> None:
        """Put an unfinished shard back at the front of the queue, with
        no strike; ``split`` re-queues its faults one per shard."""
        if shard.kind == "faults":
            self.dispatched -= len(shard.indices)
        if not split:
            self.ready.appendleft(shard)
            return
        for idx in reversed(shard.indices):
            self.ready.appendleft(_Shard("faults", [idx]))

    def strike(self, shard: _Shard) -> None:
        """A worker died while ``shard`` was in flight: each member takes
        a strike and is re-queued alone; a member reaching
        ``_QUARANTINE_AFTER`` strikes is quarantined as a poison pill.
        A stage shard takes the strike itself, and reaching
        ``_QUARANTINE_AFTER`` raises :class:`CampaignError`: without it
        the job has nothing to score."""
        if shard.kind != "faults":
            strikes = self.crash_counts.get(shard.kind, 0) + 1
            if strikes >= _QUARANTINE_AFTER:
                raise CampaignError(
                    f"{self.name}: the {shard.kind} stage killed its worker "
                    f"{strikes} times")
            self.crash_counts[shard.kind] = strikes
            self.ready.appendleft(shard)
            return
        self.dispatched -= len(shard.indices)
        for idx in reversed(shard.indices):
            strikes = self.crash_counts.get(idx, 0) + 1
            if strikes >= _QUARANTINE_AFTER:
                self.crash_counts.pop(idx, None)
                self.buffered[idx] = _quarantine_outcome(
                    self.fault_list[idx], strikes)
                self.dispatched += 1
            else:
                self.crash_counts[idx] = strikes
                self.ready.appendleft(_Shard("faults", [idx]))
        self.emit_ready()

    def time_out(self, idx: int, elapsed_s: float) -> None:
        """The lone fault of a hung shard: a structured timeout."""
        self.crash_counts.pop(idx, None)
        self.buffered[idx] = _timeout_outcome(
            self.fault_list[idx], self.spec.fault_timeout_s, elapsed_s,
            killed=True)
        self.emit_ready()

    def shard_budget(self, shard: _Shard) -> Optional[float]:
        """Wall clock before the parent hard-kills ``shard``: one
        per-fault budget per member, plus one for a batched shard's
        batch attempt (every member may then re-run alone), plus
        :data:`TIMEOUT_GRACE_S`."""
        timeout = self.spec.fault_timeout_s
        if timeout is None or shard.kind != "faults":
            return None
        extra = 1 if shard.batched else 0
        return (len(shard.indices) + extra) * timeout + TIMEOUT_GRACE_S

    def complete(self) -> bool:
        if self.failures.deadline_hit:
            return not self.inflight
        return not (self.ready or self.inflight or self.emit_queue)

    # -- completion ----------------------------------------------------
    def finish(self, workers: int) -> CampaignResult:
        """Settle the job into its :class:`CampaignResult` and append its
        ledger row."""
        # outcomes that landed behind a fault the deadline cut off are
        # still genuine verdicts: keep them, in fault order
        for idx in sorted(self.buffered):
            self.record(idx, self.buffered.pop(idx))
        unevaluated = [i for i in self.emit_queue if i not in self.outcomes]
        if unevaluated:
            self.failures.skipped.extend(
                self.fault_list[i].describe() for i in unevaluated)
            if OBS.enabled:
                OBS.metrics.counter("campaign.skipped").inc(len(unevaluated))
                event("campaign.deadline", level="warning",
                      skipped=len(unevaluated),
                      budget_s=self.spec.campaign_deadline_s, **self.tags)
        failures = self.failures
        result = CampaignResult(target_name=self.name,
                                reference=self.reference,
                                threshold=self.spec.threshold,
                                failures=failures, workers=workers)
        result.outcomes = [self.outcomes[i] for i in sorted(self.outcomes)]
        result.partial = bool(failures.skipped or failures.deadline_hit
                              or failures.timeouts or failures.quarantined)
        if self.ckpt is not None:
            self.save_checkpoint()
        result.elapsed_s = time.perf_counter() - self.t0
        if self.cache is not None:
            result.cache_stats = self.cache.stats.delta(self.cache_stats0)
        # a service job reports to the ledger its submitter had in scope
        ledger = getattr(self.job, "ledger", None)
        if ledger is None:
            ledger = OBS.ledger
        if ledger is not None:
            # history is best-effort persistence: a full disk or a
            # read-only path must never fail the campaign itself
            try:
                ledger.record(self.ledger_row(result))
            except Exception:  # noqa: BLE001
                pass
        return result

    def ledger_row(self, result: CampaignResult) -> Dict[str, Any]:
        """The job's run-ledger row: the result's counts, its cache delta
        and the key counters of everything the job measured — the
        faults' and the stages' shipped snapshots ({} when the job ran
        unobserved)."""
        measured = Metrics()
        for outcome in result.outcomes:
            measured.merge(outcome.metrics)
        for shipped in self.stage_obs:
            measured.merge(shipped["metrics"])
        n, n_prescreened = result.n_faults, result.n_prescreened
        prescreen = self.spec.prescreen
        stats = result.cache_stats
        return {
            "key": self.spec.content_key(),
            "name": self.name,
            "job": self.tags.get("job"),
            "n_faults": n,
            "coverage": result.coverage,
            "elapsed_s": result.elapsed_s,
            "workers": result.workers,
            "partial": result.partial,
            "verdicts": {
                "detected": result.n_detected,
                "missed": sum(1 for o in result.outcomes
                              if not o.detected and o.error is None),
                "errors": result.n_errors,
                "timeouts": result.n_timeouts,
                "quarantined": result.n_quarantined,
                "prescreened": n_prescreened,
                "cached": sum(1 for o in result.outcomes if o.from_cache),
            },
            # escalation: of the faults the prescreen saw, how many
            # needed the full transient anyway (None when no prescreen)
            "escalation_rate": (1.0 - n_prescreened / n
                                if prescreen and n else None),
            "prescreen": prescreen,
            "cache": stats.to_dict() if stats is not None else None,
            "counters": key_counters(measured.counter_values()),
        }


def _merge_obs(result: CampaignResult, span: Optional[Span],
               stage_obs: Iterable[Dict[str, Any]] = ()) -> None:
    """Fold the stages' and the outcomes' shipped metrics and events
    into the ambient scope, graft their span forests under ``span`` (the
    campaign or job span) and record the campaign-level metrics —
    identically for every route, which is what gives serial, pooled and
    scheduled runs the same counters."""
    m = OBS.metrics
    for shipped in stage_obs:
        m.merge(shipped["metrics"])
        OBS.events.extend(shipped["events"])
        if span is not None:
            span.children.extend(shipped["spans"])
    busy = 0.0
    for o in result.outcomes:
        m.merge(o.metrics)
        if o.events:
            OBS.events.extend(o.events)
        if span is not None:
            _graft_spans(span, o)
        m.histogram("campaign.fault_wall_s").observe(o.elapsed_s)
        busy += o.elapsed_s
    m.counter("campaign.runs").inc()
    m.counter("campaign.faults_evaluated").inc(result.n_faults)
    m.counter("campaign.errors").inc(result.n_errors)
    if result.elapsed_s > 0.0 and result.n_faults:
        m.gauge("campaign.worker_utilization").set(
            busy / (result.elapsed_s * result.workers))
    if span is None:
        return
    span.set(n_faults=result.n_faults, n_detected=result.n_detected,
             n_errors=result.n_errors, coverage=result.coverage,
             workers=result.workers)
    if result.n_prescreened:
        span.set(n_prescreened=result.n_prescreened)
    if result.partial or result.failures.degraded:
        span.set(partial=result.partial,
                 failures=result.failures.summary())


class FaultCampaign:
    """Run a measurement technique over a fault universe.

    Parameters
    ----------
    technique:
        ``technique(target) -> measurement``.  Called once on the
        fault-free target to obtain the reference and once per faulty
        copy.
    detector:
        ``detector(reference, measurement) -> float`` in [0, 1]: the
        fraction of detection instances.
    threshold:
        Minimum detection fraction for a fault to count as *detected*.
        The paper treats any significant number of detection instances as
        a detection; the default asks for at least 5 % of time points.
    errors_as_detected:
        Policy for a faulty circuit that fails to simulate (e.g. Newton
        cannot bias a hard-shorted netlist).  ``True`` (default): such a
        circuit is behaving catastrophically wrong and counts as a
        detection with score 1.0.  ``False``: the fault is recorded as a
        *miss* with score 0.0 and its error string kept, so simulator
        blowups reduce rather than inflate coverage.  Either way
        :attr:`CampaignResult.n_errors` reports how many faults errored.
        Timeouts and quarantines are *infrastructure* verdicts and are
        never counted as detected under either policy.
    workers:
        Number of worker processes for :meth:`run`.  ``1`` (default)
        evaluates faults serially in-process; ``N > 1`` hands the job to
        the shard executor of
        :class:`~repro.service.scheduler.CampaignScheduler`, which fans
        it out over a process pool one fault per shard (the prescreen
        and the fault-free reference are shards there too).  Faults are
        independent, so this is embarrassingly parallel; results come
        back in fault order regardless of completion order.  Requires
        the technique, detector, target, faults and fault-free
        measurement to be picklable — if they are not, the campaign
        warns and falls back to serial evaluation.
    batch_size:
        Faults marched per batched-engine call.  ``1`` (default) uses
        the per-fault path.  ``K > 1`` chunks the universe and hands
        each chunk to the technique's ``evaluate_batch(target, faults)``
        (techniques without that method keep the per-fault path), which
        typically routes through
        :func:`repro.spice.batched.batched_transient` to march all K
        faulty variants in lockstep.  Composes with ``workers=N``: each
        pool worker marches one chunk.  Outcomes, obs counters,
        deadlines and checkpoint keys are unchanged — a fault the batch
        cannot serve (or a chunk that times out) is transparently
        re-evaluated per fault, so results are identical to
        ``batch_size=1``.
    cache:
        Optional :class:`~repro.service.cache.ResultCache` consulted
        before — and populated after — every fault evaluation, keyed by
        the per-fault content hash.  A spec-level cache
        (``CampaignSpec.cache``) overrides it per run.  A fully warm
        cache replays the whole campaign without a single simulation.
    """

    def __init__(self, technique: Callable[[Any], Any],
                 detector: Callable[[Any, Any], float],
                 threshold: float = 0.05,
                 workers: int = 1,
                 errors_as_detected: bool = True,
                 batch_size: int = 1,
                 cache: Optional[Any] = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.technique = technique
        self.detector = detector
        self.threshold = threshold
        self.workers = workers
        self.batch_size = batch_size
        self.cache = cache
        self._on_error = (_ERROR_DETECTED if errors_as_detected
                          else _ERROR_UNDETECTED)

    @property
    def errors_as_detected(self) -> bool:
        return self._on_error == _ERROR_DETECTED

    @errors_as_detected.setter
    def errors_as_detected(self, value: bool) -> None:
        self._on_error = _ERROR_DETECTED if value else _ERROR_UNDETECTED

    def run(self, target: Any = None,
            faults: Optional[Iterable[Fault]] = None,
            reference: Any = None, *,
            spec: Optional[CampaignSpec] = None) -> CampaignResult:
        """Evaluate every fault; ``reference`` may carry a precomputed
        fault-free measurement to avoid re-simulation.

        How to run the campaign — workers, batching, per-fault/campaign
        deadlines, checkpointing, progress reporting, result caching —
        is described by one frozen
        :class:`~repro.service.spec.CampaignSpec` passed as ``spec=``.
        Spec options left ``None`` inherit the campaign's constructor
        configuration (then package defaults); the same spec object can
        be handed unchanged to
        :meth:`repro.service.scheduler.CampaignScheduler.submit`.

        ``spec.progress`` is called after every completed fault with a
        :class:`~repro.obs.health.CampaignProgress` (done/total, ETA,
        rate, evaluating pid); completion is reported in fault order in
        both the serial and the pooled path, so the callback sees the
        same sequence either way.  Under an observation scope the run
        additionally emits one ``campaign.heartbeat`` event (and a
        ``campaign.heartbeats`` count) per completed fault.

        Resilience knobs (all on the spec)
        ----------------------------------
        fault_timeout_s:
            Wall-clock budget per fault.  Serially (and cooperatively in
            workers) the engine's Newton/transient/march loops check the
            deadline; in pooled mode the parent additionally hard-kills
            and rebuilds the pool :data:`TIMEOUT_GRACE_S` after the budget,
            which also catches techniques that never reach a cooperative
            check.  A timed-out fault is recorded as a structured
            outcome (``timed_out=True``, ``error="timeout: ..."``) and
            is never counted as detected.
        campaign_deadline_s:
            Budget for the whole run, prescreen and reference included.
            On expiry, evaluation stops (in pooled mode the pool is
            killed); faults never evaluated are listed in
            ``result.failures.skipped`` and the result is ``partial``.
        checkpoint / resume:
            ``checkpoint=path`` persists completed outcomes atomically
            after every completed fault, keyed by a content hash of
            (technique, fault universe, config).
            ``resume=True`` reloads the file, skips finished faults and
            produces a result whose ``to_dict()`` matches an
            uninterrupted run's.  Resuming a file written for a
            different campaign raises
            :class:`~repro.errors.CheckpointError`.
        cache:
            A :class:`~repro.service.cache.ResultCache` (spec- or
            campaign-level) replays any fault already computed under an
            identical evaluation context; fresh outcomes are stored
            back.  A fully warm cache re-runs the campaign without a
            single simulation — including the fault-free reference,
            which is only computed when at least one fault misses.
        """
        spec = CampaignSpec() if spec is None else spec
        if target is not None:
            spec = spec.replace(target=target)
        if faults is not None:
            spec = spec.replace(faults=tuple(faults))
        if reference is not None:
            spec = spec.replace(reference=reference)
        spec = spec.replace(technique=self.technique,
                            detector=self.detector)
        spec.require_workload()
        rspec = spec.resolved(threshold=self.threshold,
                              errors_as_detected=self.errors_as_detected,
                              workers=self.workers,
                              batch_size=self.batch_size)
        cache = rspec.cache if rspec.cache is not None else self.cache
        with obs_span("campaign", target=_job_name(rspec)) as sp:
            # the trace context is captured inside the campaign span, so
            # shipped span forests record this exact position as parent
            job = _JobRun(rspec, cache, trace_ctx=TraceContext.capture(),
                          collect_obs=OBS.enabled)
            n_workers = min(rspec.workers, job.total) if job.total else 1
            job.stage(1, pool=n_workers > 1)
            # without a pool, the loop runs the shards on this thread
            from repro.service.scheduler import CampaignScheduler
            CampaignScheduler(workers=n_workers, shard_size=1,
                              name="campaign")._drive(job)
            if n_workers > 1 and not job.pooled:
                warnings.warn(
                    "fault campaign: technique/detector/target/faults/"
                    "reference are not picklable; falling back to serial "
                    "evaluation", RuntimeWarning, stacklevel=2)
                if OBS.enabled:
                    OBS.metrics.counter("campaign.pickle_fallbacks").inc()
                n_workers = 1
            result = job.finish(n_workers)
            if OBS.enabled:
                _merge_obs(result, sp, job.stage_obs)
        if OBS.enabled:
            result.trace = sp
        return result
