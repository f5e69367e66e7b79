"""Write-ahead persistent job queue: campaigns survive the scheduler.

The resilience layer (checkpoints, worker quarantine) protects a
*running* campaign; this module extends the same interrupted ==
uninterrupted guarantee one level up, to the service.  Every job a
:class:`~repro.service.scheduler.CampaignScheduler` accepts is first
journaled — an append-only JSONL file of the job's serialised
:meth:`~repro.service.spec.CampaignSpec.to_dict` plus state
transitions — so a SIGKILLed scheduler forfeits nothing: on restart
:meth:`PersistentJobQueue.replay` reconstructs every accepted job and
the scheduler re-submits the undone ones with their original identity,
priority and arrival order, while done ones re-serve from checkpoint +
:class:`~repro.service.cache.ResultCache`.

Journal format (one JSON object per line, schema-tagged)::

    {"schema": "repro.job-queue/1", "event": "submitted",
     "job": "svc-job0", "priority": 1, "key": "<content hash>",
     "spec": {... CampaignSpec.to_dict() ...}, "t": 1700000000.0}
    {"schema": ..., "event": "dispatched", "job": "svc-job0", "seq": 0}
    {"schema": ..., "event": "done", "job": "svc-job0"}

State machine per job: ``submitted → dispatched → done | failed``,
plus the operator transitions ``requeued`` (terminal/stuck → submitted)
and ``dropped`` (any → terminal, never replayed).  Every record is one
:func:`repro.resilience.durable.append_line` under a process-local
lock.  Journaling a *submission* must succeed — that append IS the
durability contract, so :meth:`submit` raises on failure.  Transition
marks are best-effort: a lost ``done`` mark only means the job re-runs
from cache + checkpoint after a crash, which the recovery invariant
makes free.

A torn tail line (the crash interrupted an append) or a corrupt
interior record is never fatal.  :meth:`replay` skips bad lines,
appends them to ``<path>.corrupt`` and atomically rewrites the journal
with the surviving records, so one bad write can never poison the
queue's history.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.core import OBS
from repro.resilience.durable import append_line, atomic_write, read_lines
from repro.service.spec import CampaignSpec

#: journal record schema tag; bump on incompatible layout changes.
QUEUE_SCHEMA = "repro.job-queue/1"

#: states a journaled job can be in.  ``submitted`` and ``dispatched``
#: are live (replayed after a restart); the rest are settled.
LIVE_STATES = ("submitted", "dispatched")
SETTLED_STATES = ("done", "failed", "dropped")

_EVENTS = ("submitted", "dispatched", "done", "failed", "requeued",
           "dropped")


@dataclass
class JobRecord:
    """The replayed view of one journaled job."""

    job_id: str
    state: str = "submitted"
    priority: int = 0
    #: scheduler admission order (None until dispatched once).
    seq: Optional[int] = None
    #: campaign content hash — links the journal to checkpoint files,
    #: cache entries and run-ledger rows for the same campaign.
    key: Optional[str] = None
    #: the ``CampaignSpec.to_dict()`` snapshot journaled at submit.
    spec_doc: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: journal arrival order (tie-break within a priority class).
    order: int = 0

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES

    def spec(self) -> CampaignSpec:
        """Rebuild the journaled spec (raises ``ValueError`` when the
        workload was not picklable at submit time)."""
        return CampaignSpec.from_dict(self.spec_doc)

    def recoverable(self) -> bool:
        return bool(self.spec_doc.get("workload"))

    def describe(self) -> str:
        name = self.spec_doc.get("name") or "-"
        n = self.spec_doc.get("n_faults", "?")
        key = (self.key or "?")[:12]
        seq = "-" if self.seq is None else self.seq
        return (f"{self.job_id}  {self.state:<10}  prio={self.priority} "
                f"seq={seq}  {name}  {n} faults  {key}")


class QueueError(RuntimeError):
    """A submission could not be made durable."""


class PersistentJobQueue:
    """Append-only JSONL write-ahead journal of campaign jobs.

    One instance per path; safe to share between the submitting thread
    and the scheduler's dispatcher thread.  The in-memory ``records``
    view is kept consistent with the journal on every append, so
    :meth:`depth` and :meth:`pending` never re-read the file.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: replayed job records, journal arrival order.
        self.records: Dict[str, JobRecord] = {}
        #: torn/corrupt lines quarantined by the most recent replay.
        self.corrupt = 0
        #: a replay could not quarantine a torn tail, so the journal
        #: may end mid-line: the next append starts a fresh one.
        self._unterminated = False
        self.replay()

    # -- writing -------------------------------------------------------
    def _append(self, doc: Dict[str, Any]) -> None:
        """One fsync'd single-line append (callers hold the lock)."""
        doc.setdefault("schema", QUEUE_SCHEMA)
        doc.setdefault("t", round(time.time(), 6))
        line = json.dumps(doc, sort_keys=True)
        append_line(self.path, "\n" + line if self._unterminated else line)
        self._unterminated = False
        if OBS.enabled:
            OBS.metrics.counter("service.journal_appends").inc()

    def submit(self, job_id: str, spec: CampaignSpec,
               priority: int = 0) -> JobRecord:
        """Journal one accepted job.  This append IS the durability
        contract — raises :class:`QueueError` if it cannot be made
        durable, so the caller never holds a job the queue would
        forget."""
        try:
            key = spec.content_key()
        except Exception:  # noqa: BLE001 - spec may lack a workload
            key = None
        doc = {"event": "submitted", "job": job_id, "priority": priority,
               "key": key, "spec": spec.to_dict()}
        with self._lock:
            try:
                self._append(doc)
            except OSError as exc:
                raise QueueError(
                    f"could not journal job {job_id!r} to "
                    f"{self.path!r}: {exc}") from exc
            record = JobRecord(job_id=job_id, priority=priority, key=key,
                               spec_doc=doc["spec"],
                               order=len(self.records))
            self.records[job_id] = record
        if not record.recoverable():
            warnings.warn(
                f"job {job_id!r} journaled without a recoverable "
                f"workload (unpicklable technique/detector/target/"
                f"faults) — it cannot be replayed after a restart",
                RuntimeWarning, stacklevel=2)
        return record

    def mark(self, job_id: str, event: str, *, seq: Optional[int] = None,
             error: Optional[str] = None) -> bool:
        """Journal one state transition, best-effort.

        A lost mark is safe by construction: a job whose ``done`` never
        landed simply replays after a crash and re-serves from cache +
        checkpoint.  Returns ``False`` when the append failed or the
        job is unknown."""
        if event not in _EVENTS or event == "submitted":
            raise ValueError(f"unknown queue transition {event!r}")
        doc: Dict[str, Any] = {"event": event, "job": job_id}
        if seq is not None:
            doc["seq"] = seq
        if error is not None:
            doc["error"] = str(error)
        with self._lock:
            record = self.records.get(job_id)
            if record is None:
                return False
            try:
                self._append(doc)
            except OSError:
                return False
            self._apply(record, doc)
        return True

    @staticmethod
    def _apply(record: JobRecord, doc: Dict[str, Any]) -> None:
        event = doc["event"]
        if event == "requeued":
            record.state = "submitted"
            record.error = None
        else:
            record.state = event
        if doc.get("seq") is not None:
            record.seq = int(doc["seq"])
        if doc.get("error") is not None:
            record.error = str(doc["error"])

    # -- operator transitions (CLI) ------------------------------------
    def requeue(self, job_id: str) -> bool:
        """Put a failed/dropped/stuck job back in line for the next
        recovery or drain."""
        return self.mark(job_id, "requeued")

    def drop(self, job_id: str) -> bool:
        """Retire a job so no future replay resubmits it."""
        return self.mark(job_id, "dropped")

    # -- reading -------------------------------------------------------
    def replay(self) -> Dict[str, JobRecord]:
        """Rebuild the record view from the journal on disk.

        Torn or corrupt lines are quarantined: their raw bytes are
        appended to ``<path>.corrupt``, the count lands in
        ``self.corrupt``, and the journal is atomically rewritten with
        only the surviving lines so the damage never re-surfaces.
        Marks referencing jobs whose ``submitted`` line was lost are
        quarantined too — a transition without a spec is unusable.
        """
        good: List[str] = []
        bad: List[str] = []
        records: Dict[str, JobRecord] = {}
        # undecodable bytes (a partially flushed page) arrive as U+FFFD,
        # fail json.loads and take the normal quarantine path
        for raw in read_lines(self.path):
            line = raw.strip()
            try:
                doc = json.loads(line)
            except ValueError:
                bad.append(raw)
                continue
            if (not isinstance(doc, dict)
                    or doc.get("schema") != QUEUE_SCHEMA
                    or doc.get("event") not in _EVENTS
                    or not isinstance(doc.get("job"), str)):
                bad.append(raw)
                continue
            job_id = doc["job"]
            if doc["event"] == "submitted":
                spec_doc = doc.get("spec")
                if not isinstance(spec_doc, dict):
                    bad.append(raw)
                    continue
                records[job_id] = JobRecord(
                    job_id=job_id,
                    priority=int(doc.get("priority") or 0),
                    key=doc.get("key"), spec_doc=spec_doc,
                    order=len(records))
            elif job_id in records:
                self._apply(records[job_id], doc)
            else:
                bad.append(raw)
                continue
            good.append(line)
        with self._lock:
            if bad:
                self._quarantine(good, bad)
            self.corrupt = len(bad)
            self.records = records
        if good and OBS.enabled:
            OBS.metrics.counter("service.journal_replayed").inc(len(good))
        return records

    def _quarantine(self, good: List[str], bad: List[str]) -> None:
        """Move the damage aside, keep the survivors (atomic).  On a
        failing disk the journal stays as it is — the surviving records
        are already replayed — and the next replay tries again."""
        corrupt = self.path + ".corrupt"
        try:
            append_line(corrupt, "\n".join(bad))
            self._rewrite(good)
        except OSError as exc:
            self._unterminated = True
            warnings.warn(
                f"job queue {self.path!r}: skipped {len(bad)} torn/corrupt "
                f"journal line(s) but could not quarantine them to "
                f"{corrupt!r} ({exc})", RuntimeWarning, stacklevel=3)
            return
        warnings.warn(
            f"job queue {self.path!r}: quarantined {len(bad)} "
            f"torn/corrupt journal line(s) to {corrupt!r}",
            RuntimeWarning, stacklevel=3)

    def _rewrite(self, lines: List[str]) -> None:
        atomic_write(self.path,
                     "".join(line + "\n" for line in lines).encode("utf-8"))
        self._unterminated = False

    # -- views ---------------------------------------------------------
    def pending(self) -> List[JobRecord]:
        """Live records in dispatch order: priority first (higher
        wins), then original scheduler admission order, then journal
        arrival — the exact order an uninterrupted scheduler would
        have used."""
        with self._lock:
            live = [r for r in self.records.values() if r.live]
        return sorted(live, key=lambda r: (
            -r.priority, r.seq if r.seq is not None else float("inf"),
            r.order))

    def depth(self) -> int:
        """Number of live (not yet settled) jobs."""
        with self._lock:
            return sum(1 for r in self.records.values() if r.live)

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self.records.get(job_id)

    def max_seq(self) -> int:
        """Highest scheduler admission seq ever journaled (-1 when
        none) — a restarted scheduler starts counting above it so
        recovered and new jobs never collide."""
        with self._lock:
            seqs = [r.seq for r in self.records.values()
                    if r.seq is not None]
        return max(seqs) if seqs else -1

    # -- maintenance ---------------------------------------------------
    def compact(self) -> int:
        """Atomically rewrite the journal keeping only live jobs
        (one ``submitted`` line each, plus a ``dispatched`` mark when
        the job had been admitted).  Settled history is already in the
        run ledger; compaction bounds the journal for long-lived
        services.  Returns the number of settled records dropped."""
        with self._lock:
            live = [r for r in self.records.values() if r.live]
            dropped = len(self.records) - len(live)
            lines: List[str] = []
            records: Dict[str, JobRecord] = {}
            for order, record in enumerate(live):
                doc = {"schema": QUEUE_SCHEMA, "event": "submitted",
                       "job": record.job_id, "priority": record.priority,
                       "key": record.key, "spec": record.spec_doc,
                       "t": round(time.time(), 6)}
                lines.append(json.dumps(doc, sort_keys=True))
                if record.seq is not None:
                    lines.append(json.dumps(
                        {"schema": QUEUE_SCHEMA, "event": "dispatched",
                         "job": record.job_id, "seq": record.seq,
                         "t": round(time.time(), 6)}, sort_keys=True))
                fresh = JobRecord(job_id=record.job_id,
                                  state=record.state,
                                  priority=record.priority,
                                  seq=record.seq, key=record.key,
                                  spec_doc=record.spec_doc, order=order)
                records[record.job_id] = fresh
            self._rewrite(lines)
            self.records = records
        return dropped

    def describe(self) -> str:
        with self._lock:
            records = list(self.records.values())
        if not records:
            return "queue is empty"
        lines = [r.describe() for r in records]
        lines.append(f"{len(records)} job(s), "
                     f"{sum(1 for r in records if r.live)} live, "
                     f"corrupt lines quarantined: {self.corrupt}")
        return "\n".join(lines)


__all__ = ["PersistentJobQueue", "JobRecord", "QueueError",
           "QUEUE_SCHEMA", "LIVE_STATES", "SETTLED_STATES"]
