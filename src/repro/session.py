"""The unified run API: one facade over solver, campaigns, BIST and
experiments.

A :class:`Session` owns the engine configuration (``fast_path``,
``workers``) and an observability sink (tracer + metrics) configured
once, then threads them through every entry point::

    from repro import Session

    s = Session(workers=4)
    result = s.transient(circuit, t_stop=1e-3, dt=1e-6)   # TransientResult
    cover = s.run_campaign(technique, detector, target, faults)
    run = s.run_experiment("E7")                           # ExperimentRun

    print(result.summary())          # every result speaks RunResult:
    print(cover.to_dict()["n_errors"])  # .summary() / .to_dict() / .trace
    print(s.trace_json())            # one trace tree over all the runs
    print(s.metrics.counter_values())

Every result a Session returns follows the ``RunResult`` protocol —
``summary() -> str``, ``to_dict() -> dict`` and a ``trace`` attribute
holding the run's root span — so heterogeneous workloads (a transient
here, a fault campaign there) report through one shape.

Sessions accumulate: successive runs append to the same trace forest and
the same metrics registry, which is what makes a session report a
coherent account of a whole evaluation (e.g. all nine experiments).
Direct calls to :func:`repro.spice.transient.transient` and friends keep
working unchanged — the Session is sugar plus scoping, not a new engine.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, \
    runtime_checkable

from repro.obs.core import Observation, observe
from repro.obs.log import EventLog
from repro.obs.metrics import Metrics
from repro.obs.trace import Span, Tracer


@runtime_checkable
class RunResult(Protocol):
    """The structured-result shape every Session entry point returns.

    ``trace`` is the run's root :class:`~repro.obs.trace.Span` when the
    run executed under an observation scope, else ``None``.
    ``report()`` renders the run as a terminal summary (its summary line
    plus a per-span cost profile when traced).
    """

    trace: Optional[Span]

    def summary(self) -> str: ...

    def to_dict(self) -> Dict[str, Any]: ...

    def report(self) -> str: ...


class Session:
    """Facade binding engine configuration and observability together.

    Parameters
    ----------
    fast_path:
        Engine selection for every solve issued through this session
        (``False`` = the reference stamp-everything engine).
    workers:
        Default process count for fault campaigns run through the
        session.
    obs:
        ``True`` (default) gives the session its own tracer/metrics and
        runs every entry point inside that observation scope.
        ``False`` runs everything uninstrumented (the session still
        normalises results, the sinks just stay empty).
    name:
        Label for reports.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` (or a path to one) every
        campaign run through this session records a history row into.
    queue_path:
        Path to a :class:`~repro.service.queue.PersistentJobQueue`
        journal making the session's scheduler durable: submitted jobs
        are write-ahead journaled, and a session restarted over the
        same path replays the journal — undone jobs are re-submitted
        with their original identity and produce results identical to
        an uninterrupted run (see :meth:`recover`).
    """

    def __init__(self, *, fast_path: bool = True, workers: int = 1,
                 obs: bool = True, name: str = "session",
                 cache: Any = None, ledger: Any = None,
                 queue_path: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.fast_path = fast_path
        self.workers = workers
        self.obs = obs
        self.name = name
        self.cache = cache
        if isinstance(ledger, (str, os.PathLike)):
            from repro.obs.ledger import RunLedger
            ledger = RunLedger(ledger)
        self.ledger = ledger
        self.queue_path = (None if queue_path is None
                           else os.fspath(queue_path))
        self.tracer = Tracer()
        self.metrics = Metrics()
        self.events = EventLog()
        self._scheduler: Any = None

    # -- scope handling ------------------------------------------------
    def _scope(self):
        """Observation scope installing this session's sinks (or a
        do-nothing scope when observability is off)."""
        if self.obs:
            return observe(tracer=self.tracer, metrics=self.metrics,
                           events=self.events, ledger=self.ledger)
        import contextlib
        return contextlib.nullcontext(
            Observation(self.tracer, self.metrics, self.events))

    # -- solver --------------------------------------------------------
    def transient(self, circuit, t_stop: float, dt: float, **kwargs):
        """Run a transient analysis (see :func:`repro.spice.transient`).

        Returns the :class:`~repro.spice.transient.TransientResult`,
        with its ``trace`` attached when observability is on."""
        from repro.spice.transient import transient
        kwargs.setdefault("fast_path", self.fast_path)
        with self._scope():
            return transient(circuit, t_stop, dt, **kwargs)

    def operating_point(self, circuit, **kwargs):
        """DC operating point; returns ``(node_voltages, vector)``."""
        from repro.spice.solver import dc_operating_point
        kwargs.setdefault("fast_path", self.fast_path)
        with self._scope():
            return dc_operating_point(circuit, **kwargs)

    # -- fault campaigns -----------------------------------------------
    def campaign(self, technique: Callable[[Any], Any],
                 detector: Callable[[Any, Any], float], **kwargs):
        """A :class:`~repro.faults.campaign.FaultCampaign` bound to the
        session's worker count (run it through :meth:`run_campaign` to
        record into the session's sinks)."""
        from repro.faults.campaign import FaultCampaign
        kwargs.setdefault("workers", self.workers)
        return FaultCampaign(technique, detector, **kwargs)

    #: keyword arguments of :meth:`run_campaign` that belong on the
    #: :class:`~repro.service.spec.CampaignSpec` (resilience/progress/
    #: service knobs) rather than the campaign constructor.
    _RUN_KWARGS = ("progress", "fault_timeout_s", "campaign_deadline_s",
                   "checkpoint", "resume")

    def run_campaign(self, technique: Callable[[Any], Any],
                     detector: Callable[[Any, Any], float],
                     target: Any, faults: Iterable, *,
                     reference: Any = None, spec: Any = None, **kwargs):
        """Build and run a campaign in one call; returns the
        :class:`~repro.faults.campaign.CampaignResult`.

        Constructor knobs (``threshold``, ``workers``,
        ``errors_as_detected``...) and spec-level resilience knobs
        (``fault_timeout_s``, ``campaign_deadline_s``, ``checkpoint``,
        ``resume``...) can be mixed freely; each is routed where it
        belongs.  A full :class:`~repro.service.spec.CampaignSpec` can
        be passed as ``spec=`` instead.  The session's result cache
        (``Session(cache=...)``) is applied to every campaign run that
        does not carry its own."""
        from repro.service.spec import CampaignSpec
        run_kwargs = {k: kwargs.pop(k) for k in self._RUN_KWARGS
                      if k in kwargs}
        campaign = self.campaign(technique, detector, **kwargs)
        if spec is None:
            spec = CampaignSpec(**run_kwargs)
        elif run_kwargs:
            spec = spec.replace(**run_kwargs)
        if spec.cache is None and self.cache is not None:
            spec = spec.replace(cache=self.cache)
        with self._scope():
            return campaign.run(target, faults, reference=reference,
                                spec=spec)

    # -- campaign service ----------------------------------------------
    def scheduler(self, **kwargs):
        """The session's (lazily created)
        :class:`~repro.service.scheduler.CampaignScheduler`, sharing the
        session's worker count and result cache.  ``kwargs`` configure
        the first creation only."""
        if self._scheduler is None:
            from repro.service.scheduler import CampaignScheduler
            kwargs.setdefault("workers", self.workers)
            kwargs.setdefault("cache", self.cache)
            kwargs.setdefault("name", f"{self.name}-svc")
            kwargs.setdefault("queue", self.queue_path)
            self._scheduler = CampaignScheduler(**kwargs)
        return self._scheduler

    def recover(self) -> List[Any]:
        """Replay the session's durable queue: re-submit every job a
        previous (crashed) process accepted but never settled, under
        the session's observation scope.  Returns the fresh
        :class:`~repro.service.scheduler.CampaignJob` handles (empty
        without ``queue_path=``); collect them with :meth:`gather`."""
        if self.queue_path is None:
            return []
        with self._scope():
            return self.scheduler().recover()

    def submit(self, *args: Any, priority: Optional[int] = None,
               **options: Any):
        """Submit a campaign job to the session's scheduler; returns a
        :class:`~repro.service.scheduler.CampaignJob` immediately.

        Accepts either one prepared
        :class:`~repro.service.spec.CampaignSpec` (``options`` are
        applied on top via :meth:`CampaignSpec.replace`), or the
        positional workload ``(technique, detector, target, faults)``
        with spec fields as keywords.  Collect results — each a
        ``RunResult``-speaking
        :class:`~repro.faults.campaign.CampaignResult` — with
        :meth:`gather`."""
        from repro.service.spec import CampaignSpec
        if len(args) == 1 and isinstance(args[0], CampaignSpec):
            spec = args[0]
            if options:
                spec = spec.replace(**options)
        elif len(args) == 4:
            technique, detector, target, faults = args
            spec = CampaignSpec(technique=technique, detector=detector,
                                target=target, faults=tuple(faults),
                                **options)
        else:
            raise TypeError(
                "submit() takes one CampaignSpec or the positional "
                "workload (technique, detector, target, faults)")
        # submit under the session scope so the job captures the
        # session's trace context (cross-process trace propagation) and
        # its run ledger at the moment of submission
        with self._scope():
            return self.scheduler().submit(spec, priority=priority)

    def gather(self, *jobs: Any, timeout: Optional[float] = None):
        """Wait for submitted jobs (default: all of them); returns
        their :class:`~repro.faults.campaign.CampaignResult` objects in
        argument order.  Runs under the session's observation scope so
        jobs finishing during the wait merge their metrics/events into
        the session sinks."""
        if self._scheduler is None:
            return []
        with self._scope():
            return self._scheduler.gather(*jobs, timeout=timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Close the session's scheduler (no-op when none was
        created); with ``wait`` (default) all submitted jobs finish
        first."""
        if self._scheduler is not None:
            with self._scope():
                self._scheduler.close(wait=wait)
            self._scheduler = None

    def watch(self, interval: float = 0.5, out: Any = None,
              max_frames: Optional[int] = None) -> str:
        """Live terminal dashboard over the session's scheduler: one
        frame per ``interval`` showing in-flight jobs, shard progress,
        ETA, straggler flags and the cache hit rate, until every
        submitted job has finished (or ``max_frames``).  Returns the
        last frame rendered."""
        from repro.obs.dashboard import render_frame, status_snapshot, watch
        if self._scheduler is None:
            frame = render_frame({})
            if out is not None:
                print(frame, file=out)
            return frame
        sched = self._scheduler
        return watch(lambda: status_snapshot(sched), out=out,
                     interval=interval, max_frames=max_frames,
                     done=lambda: all(j.done() for j in sched._jobs))

    # -- digital BIST --------------------------------------------------
    def bist(self, width: int, **kwargs):
        """A :class:`~repro.dft.bist_engine.LogicBISTEngine` (run it
        through :meth:`run_bist` to record into the session)."""
        from repro.dft.bist_engine import LogicBISTEngine
        return LogicBISTEngine(width, **kwargs)

    def run_bist(self, engine, block: Callable[[int], int]):
        """Run one BIST session; returns the
        :class:`~repro.dft.bist_engine.BISTSession`."""
        with self._scope():
            return engine.run(block)

    # -- experiments ---------------------------------------------------
    def run_experiment(self, exp_id: str):
        """Run one registered experiment; returns its
        :class:`~repro.experiments.registry.ExperimentRun` record."""
        from repro.experiments.registry import run_record
        with self._scope():
            return run_record(exp_id)

    def run_experiments(self, ids: Optional[List[str]] = None,
                        echo: bool = True):
        """Run several (default: all) experiments; id → record."""
        from repro.experiments.registry import run_records
        with self._scope():
            return run_records(ids, echo=echo)

    # -- reporting -----------------------------------------------------
    def report(self, html: bool = False, top: int = 10) -> str:
        """Render everything the session observed — root-span table,
        top-N hotspot profile, metric tables, notable events — as a
        terminal summary (default) or a standalone HTML document
        (``html=True``, with the Chrome trace JSON embedded)."""
        from repro.obs.report import render_html_report, render_text_report
        render = render_html_report if html else render_text_report
        text = render(self.name, self.tracer, self.metrics,
                      events=self.events, top=top,
                      config={"fast_path": self.fast_path,
                              "workers": self.workers, "obs": self.obs})
        if (not html and self.cache is not None
                and self.cache.stats.lookups):
            text += f"\n{self.cache.stats.describe()}\n"
        return text

    def report_data(self) -> Dict[str, Any]:
        """Everything the session observed, machine-readably: trace
        tree + metrics + structured events."""
        return {
            "session": self.name,
            "config": {"fast_path": self.fast_path, "workers": self.workers,
                       "obs": self.obs},
            "trace": self.tracer.to_dict(),
            "metrics": self.metrics.to_dict(),
            "events": self.events.to_dict(),
        }

    def trace_json(self, indent: Optional[int] = 2) -> str:
        """The session report as a JSON document."""
        import json
        return json.dumps(self.report_data(), indent=indent, default=str)

    def chrome_trace(self) -> Dict[str, Any]:
        """The session trace as a Chrome Trace Event document (load the
        JSON in Perfetto / ``chrome://tracing``)."""
        from repro.obs.export import chrome_trace
        return chrome_trace(self.tracer)

    def span_events(self) -> List[Dict[str, Any]]:
        """Flat event-log view of the session trace."""
        return self.tracer.events()

    def reset(self) -> None:
        """Drop accumulated trace/metrics/events (config is kept)."""
        self.tracer.reset()
        self.metrics = Metrics()
        self.events = EventLog()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({self.name!r}, fast_path={self.fast_path}, "
                f"workers={self.workers}, obs={self.obs}, "
                f"{len(self.tracer.spans)} root spans)")
