"""Campaign health: progress, ETA, heartbeats and straggler detection.

A fault campaign is the paper's production workload — hundreds of
faulty-circuit simulations, possibly fanned over worker processes — and
the one place where "is it still making progress?" matters.  This
module supplies:

* :class:`CampaignProgress` — the record a campaign's ``progress``
  callback receives after every completed fault: done/total, elapsed,
  smoothed ETA, completion rate and the completing worker's pid.
* :class:`ProgressTracker` — the one progress record of a campaign
  job (:class:`repro.faults.campaign._JobRun`), whichever entry point
  runs it; the service's health gauges and dashboard read its latest
  record.  It is fed completed outcomes *in fault order* on every
  route, so callbacks and heartbeat events fire with identical (done,
  total) sequences regardless of ``workers`` — the same
  serial==workers parity the metrics layer pins.
* :func:`straggler_report` — post-hoc health analysis of a
  :class:`~repro.faults.campaign.CampaignResult`: per-worker wall-time
  aggregation (outcomes carry the evaluating pid) plus slow-fault and
  slow-worker flagging against robust (median-based) thresholds.

Heartbeats are structured events (``campaign.heartbeat``), one per
completed fault, in the ambient :class:`~repro.obs.log.EventLog`, plus a
``campaign.heartbeats`` counter so parity is checkable through the
metrics snapshot alone.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.core import OBS, event


@dataclass
class CampaignProgress:
    """One progress update: delivered after each completed fault."""

    done: int
    total: int
    elapsed_s: float
    eta_s: float
    rate_per_s: float
    fault: str = ""
    fault_elapsed_s: float = 0.0
    worker_pid: Optional[int] = None
    #: scheduler job id when the campaign runs as a service job; empty
    #: for standalone campaign runs.
    job: str = ""

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON shape for the dashboard status file."""
        return {"job": self.job, "done": self.done, "total": self.total,
                "fraction": self.fraction, "elapsed_s": self.elapsed_s,
                "eta_s": self.eta_s, "rate_per_s": self.rate_per_s,
                "fault": self.fault,
                "fault_elapsed_s": self.fault_elapsed_s,
                "worker_pid": self.worker_pid}

    def describe(self) -> str:
        pct = 100.0 * self.fraction
        label = f"campaign[{self.job}]" if self.job else "campaign"
        return (f"{label} {self.done}/{self.total} ({pct:.0f}%) "
                f"elapsed {self.elapsed_s:.1f}s eta {self.eta_s:.1f}s "
                f"[{self.rate_per_s:.1f} faults/s]")


ProgressCallback = Callable[[CampaignProgress], None]


class ProgressTracker:
    """Feeds a progress callback and one heartbeat event per completed
    fault outcome (in fault order; see module docstring)."""

    def __init__(self, total: int,
                 callback: Optional[ProgressCallback] = None,
                 label: str = "") -> None:
        self.total = total
        self.callback = callback
        self.label = label
        self.done = 0
        self._t0 = time.perf_counter()
        #: the latest progress record: a zero one, seeded without a
        #: callback or heartbeat, until the first fault completes
        self.last = CampaignProgress(done=0, total=total, elapsed_s=0.0,
                                     eta_s=0.0, rate_per_s=0.0, job=label)

    def update(self, outcome: Any) -> CampaignProgress:
        """Record one completed fault; fire callback + heartbeat."""
        self.done += 1
        elapsed = time.perf_counter() - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if rate > 0 else 0.0
        progress = CampaignProgress(
            done=self.done, total=self.total, elapsed_s=elapsed,
            eta_s=eta, rate_per_s=rate,
            fault=outcome.fault.describe() if outcome.fault else "",
            fault_elapsed_s=outcome.elapsed_s,
            worker_pid=getattr(outcome, "worker_pid", None),
            job=self.label)
        self.last = progress
        if OBS.enabled:
            OBS.metrics.counter("campaign.heartbeats").inc()
            OBS.metrics.gauge("campaign.eta_s").set(eta)
            OBS.metrics.gauge("campaign.progress").set(progress.fraction)
            # the job field rides on heartbeats only for service jobs,
            # so standalone campaigns keep their pinned event shape
            extra = {"job": self.label} if self.label else {}
            event("campaign.heartbeat", done=self.done, total=self.total,
                  eta_s=round(eta, 3), rate_per_s=round(rate, 3), **extra)
        if self.callback is not None:
            self.callback(progress)
        return progress


# ---------------------------------------------------------------------------
# post-hoc straggler analysis


@dataclass
class WorkerStats:
    """Wall-time accounting for one worker process."""

    pid: int
    n_faults: int
    busy_s: float
    mean_s: float
    max_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {"pid": self.pid, "n_faults": self.n_faults,
                "busy_s": self.busy_s, "mean_s": self.mean_s,
                "max_s": self.max_s}


@dataclass
class StragglerReport:
    """Health verdict over a finished campaign."""

    n_faults: int
    median_fault_s: float
    workers: List[WorkerStats] = field(default_factory=list)
    #: fault descriptions whose wall time exceeded factor x median.
    slow_faults: List[str] = field(default_factory=list)
    #: pids whose *mean* fault time exceeded factor x campaign median.
    slow_workers: List[int] = field(default_factory=list)
    factor: float = 4.0

    @property
    def healthy(self) -> bool:
        return not self.slow_faults and not self.slow_workers

    def summary(self) -> str:
        line = (f"campaign health: {self.n_faults} faults over "
                f"{len(self.workers)} worker(s), median fault "
                f"{self.median_fault_s * 1e3:.1f} ms")
        if self.healthy:
            return line + " — healthy"
        line += (f" — {len(self.slow_faults)} straggler fault(s)"
                 f", {len(self.slow_workers)} straggler worker(s) "
                 f"(>{self.factor:g}x median)")
        return line

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_faults": self.n_faults,
            "median_fault_s": self.median_fault_s,
            "factor": self.factor,
            "healthy": self.healthy,
            "workers": [w.to_dict() for w in self.workers],
            "slow_faults": list(self.slow_faults),
            "slow_workers": list(self.slow_workers),
        }


def straggler_report(result: Any, factor: float = 4.0,
                     min_fault_s: float = 1e-3) -> StragglerReport:
    """Analyse a :class:`~repro.faults.campaign.CampaignResult`.

    A fault is a straggler when its wall time exceeds ``factor`` times
    the campaign median (and ``min_fault_s`` — microsecond jitter on
    trivial campaigns is not a health signal); a worker is a straggler
    when its *mean* fault time does.
    """
    times = [o.elapsed_s for o in result.outcomes]
    med = statistics.median(times) if times else 0.0
    threshold = max(factor * med, min_fault_s)
    report = StragglerReport(n_faults=len(times), median_fault_s=med,
                             factor=factor)
    per_worker: Dict[int, List[Any]] = {}
    for o in result.outcomes:
        pid = getattr(o, "worker_pid", None)
        if pid is not None:
            per_worker.setdefault(pid, []).append(o)
        if o.elapsed_s > threshold:
            report.slow_faults.append(o.fault.describe())
    for pid, outs in sorted(per_worker.items()):
        wtimes = [o.elapsed_s for o in outs]
        stats = WorkerStats(pid=pid, n_faults=len(outs),
                            busy_s=sum(wtimes),
                            mean_s=sum(wtimes) / len(wtimes),
                            max_s=max(wtimes))
        report.workers.append(stats)
        if stats.mean_s > threshold:
            report.slow_workers.append(pid)
    return report
