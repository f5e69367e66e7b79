"""Campaign-as-a-service: the job scheduler and its shard executor.

One process, many concurrent campaigns: :class:`CampaignScheduler`
accepts :class:`~repro.service.spec.CampaignSpec` jobs, shards each
job's work, and dispatches shards onto a shared worker pool
with **priority** (higher first) and **fair share** (among equal
priorities, the job with the smallest dispatched fraction of its
universe goes next — a small campaign is never starved behind a huge
one).  The dispatcher loop runs on a dedicated background thread, so
``submit()`` returns immediately and the calling thread blocks only
where it chooses to (``job.result()`` / ``gather()``).

The shard executor — pool lifecycle, dispatch, crash blame, hang and
deadline kills — is the only code in the package that runs any part of
a campaign: ``FaultCampaign.run`` hands its one job to the same loop
(:meth:`CampaignScheduler._drive`, on the caller's thread).  Every
stage of a job is a shard, queued by the job itself in one order — the
surrogate prescreen, the fault-free reference, the fault chunks — and
every shard ships its observations home to be merged once at settle.
The loop runs the shards of a job that does not use the pool (its work
does not pickle, or an offline ``workers=1``) itself, one per turn;
``OBS`` and ``DEADLINE`` are process-wide, so its thread is the one that
evaluates.  Jobs are staged and recorded by the campaign's own per-job
object (:class:`repro.faults.campaign._JobRun`) and evaluated by the
very same per-fault functions, so everything an offline campaign
guarantees carries over:

* outcomes are recorded **in fault order** per job, so progress
  callbacks, heartbeats and checkpoints see the serial sequence;
* per-fault deadlines cancel cooperatively inside workers, and a shard
  that blows past its budget is hard-killed with the pool, its faults
  re-dispatched individually and the unresponsive one recorded as a
  structured timeout;
* a worker crash strikes every shard in flight; suspects then run one
  shard at a time, so a fault that kills its worker twice is
  quarantined as a poison pill while innocents are exonerated (a
  prescreen or reference that does so fails its job);
* a job's campaign deadline covers every stage and kills the pool
  (other jobs' in-flight shards are re-queued without a strike) instead
  of waiting out a hang;
* ``spec.checkpoint``/``resume`` and a shared
  :class:`~repro.service.cache.ResultCache` short-circuit any fault
  ever computed — across jobs, runs and processes.

Results are ordinary :class:`~repro.faults.campaign.CampaignResult`
objects, ``to_dict()``-identical (timing aside) to a standalone serial
run of the same spec.
"""

from __future__ import annotations

import concurrent.futures
import enum
import itertools
import os
import re
import threading
import time
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import CampaignError, DeadlineExceeded
from repro.faults.campaign import (
    CampaignResult,
    _JobRun,
    _Shard,
    _merge_obs,
)
from repro.obs.core import OBS, event
from repro.obs.core import span as obs_span
from repro.obs.trace import Span, TraceContext
from repro.resilience.deadline import installed
from repro.service.cache import ResultCache
from repro.service.queue import JobRecord, PersistentJobQueue
from repro.service.spec import CampaignSpec

#: default shard size for techniques without a batched path: big enough
#: to amortise dispatch, small enough that fair-share interleaving is
#: visible between concurrent jobs.
DEFAULT_SHARD_SIZE = 4

class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class CampaignJob:
    """Handle for one submitted campaign.

    ``result()`` blocks until the scheduler finishes the job and
    returns its :class:`~repro.faults.campaign.CampaignResult` (or
    raises the job's error); ``done()``/``state`` never block.
    """

    def __init__(self, job_id: str, spec: CampaignSpec,
                 priority: int) -> None:
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.state = JobState.PENDING
        self.cancel_requested = False
        #: trace context captured at submit time on the *submitting*
        #: thread, so the job's spans join the submitter's trace even
        #: though dispatch happens on the scheduler thread (where the
        #: submitter's observe() scope may not be ambient).
        self.trace_ctx: Optional[TraceContext] = None
        #: run ledger captured at submit time (same scope race).
        self.ledger: Any = None
        #: original scheduler admission seq when this job was rebuilt
        #: from the persistent queue (None for fresh submissions).
        self.recovered_seq: Optional[int] = None
        #: ``(result, job_span)`` parked by the dispatcher when the job
        #: finalised while no observation scope was ambient (the
        #: submitter may be inside ``Session.watch()``); the first
        #: ``result()`` call that runs under an enabled scope drains it
        #: so the job span still joins the gatherer's trace.
        self._pending_obs: Optional[tuple] = None
        self._obs_lock = threading.Lock()
        self._future: "concurrent.futures.Future[CampaignResult]" = \
            concurrent.futures.Future()

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> CampaignResult:
        result = self._future.result(timeout)
        self._drain_obs()
        return result

    def _drain_obs(self) -> None:
        if self._pending_obs is None or not OBS.enabled:
            return
        with self._obs_lock:
            pending, self._pending_obs = self._pending_obs, None
        if pending is None:
            return
        result, job_span, stage_obs = pending
        _merge_obs(result, job_span, stage_obs)
        if job_span is not None:
            OBS.tracer.spans.append(job_span)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)

    def cancel(self) -> None:
        """Ask the scheduler to abandon the job at the next shard
        boundary (best effort; a completed job is unaffected)."""
        self.cancel_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CampaignJob({self.id!r}, {self.state.value}, "
                f"priority={self.priority})")


class CampaignScheduler:
    """Front end turning :class:`FaultCampaign` into a service.

    Parameters
    ----------
    workers:
        Worker processes shared by all jobs (default: CPU count - 1,
        at least 1, at most 8; ``1`` still means a one-process pool).
        Jobs whose technique, detector, target, faults or fault-free
        measurement cannot pickle run on the dispatcher thread instead,
        one shard per loop turn.
    cache:
        Default :class:`~repro.service.cache.ResultCache` consulted for
        every job that does not bring its own (``spec.cache`` wins).
        Sharing one cache across jobs is what makes overlapping fault
        universes free.
    shard_size:
        Faults per dispatched shard for techniques without a batched
        path (batched techniques shard at ``spec.batch_size``).
    name:
        Label used in health gauges and reports.
    status_path:
        Where to publish the live-dashboard status file that ``python
        -m repro.obs top`` reads (default: ``$REPRO_OBS_STATUS``;
        unset means none).  Independent of the observation scope.
    queue:
        A :class:`~repro.service.queue.PersistentJobQueue` (or a path
        to create one at) making accepted jobs durable: every
        ``submit()`` is journaled *before* it is enqueued, state
        transitions are journaled as the job moves, and
        :meth:`recover` re-submits whatever a previous (killed)
        process left undone.  ``None`` (default) keeps the historical
        in-memory-only behaviour.
    """

    _ids = itertools.count(1)

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 name: str = "scheduler",
                 status_path: Optional[str] = None,
                 queue: Optional[Any] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.workers = (workers if workers is not None
                        else max(1, min(8, (os.cpu_count() or 2) - 1)))
        self.cache = cache
        if queue is not None and not isinstance(queue, PersistentJobQueue):
            queue = PersistentJobQueue(os.fspath(queue))
        self.queue: Optional[PersistentJobQueue] = queue
        self.shard_size = shard_size
        self.name = name
        # live-dashboard status file (``python -m repro.obs top`` reads
        # it); independent of OBS.enabled because watching progress
        # should not require paying for span recording
        self.status_path = (status_path if status_path is not None
                            else os.environ.get("REPRO_OBS_STATUS") or None)
        self._status_last = 0.0
        self._seq = itertools.count(1)
        self._intake: Deque[CampaignJob] = deque()
        self._intake_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: set (under the intake lock) to wake the dispatcher's wait
        self._wake: concurrent.futures.Future = concurrent.futures.Future()
        self._closing = False
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._inflight: Dict[concurrent.futures.Future,
                             Tuple[_JobRun, _Shard, float]] = {}
        self._active: List[_JobRun] = []
        self._jobs: List[CampaignJob] = []

    # -- public API ----------------------------------------------------
    def submit(self, spec: CampaignSpec,
               priority: Optional[int] = None) -> CampaignJob:
        """Enqueue a campaign; returns immediately with its job handle.

        ``priority`` overrides ``spec.priority`` (higher runs first).
        With a persistent queue attached the job is journaled *before*
        it is enqueued — the write-ahead contract — and a failure to
        journal raises :class:`~repro.service.queue.QueueError` rather
        than accepting work the queue would forget after a crash.
        """
        if self._closing:
            raise CampaignError("scheduler is closed")
        if not isinstance(spec, CampaignSpec):
            raise TypeError("submit() takes a CampaignSpec")
        spec.require_workload()
        resolved = spec.resolved()
        job = CampaignJob(f"{self.name}-job{next(self._ids)}", resolved,
                          spec.priority if priority is None else priority)
        if self.queue is not None:
            self.queue.submit(job.id, resolved, job.priority)
        return self._enqueue(job)

    def _enqueue(self, job: CampaignJob) -> CampaignJob:
        # trace context and ledger are captured here, on the submitting
        # thread, while the submitter's observe() scope is ambient — the
        # dispatcher thread sees a different (possibly disabled) scope
        with obs_span("service.submit", job=job.id,
                      spec=job.spec.describe()):
            job.trace_ctx = TraceContext.capture()
        job.ledger = OBS.ledger
        self._jobs.append(job)
        self._ensure_thread()
        with self._intake_lock:
            self._intake.append(job)
        self._wake_up()
        return job

    def recover(self) -> List[CampaignJob]:
        """Re-submit every job a previous process journaled but never
        settled; returns their fresh handles, dispatch order.

        Recovered jobs keep their original id, priority and — when they
        had been admitted before the crash — their original fair-share
        seq, so the restarted schedule interleaves exactly as the
        uninterrupted one would have.  Specs carrying a checkpoint are
        resumed from it, and the shared :class:`ResultCache` replays
        every fault any earlier run already computed, which together
        make the recovered results ``to_dict()``-identical to an
        uninterrupted run.  Jobs journaled without a picklable workload
        cannot be rebuilt; they stay live in the journal (for ``queue
        requeue``/``drop``) and are counted, not raised.
        """
        if self.queue is None:
            return []
        jobs: List[CampaignJob] = []
        unrecoverable = 0
        with obs_span("service.recover", queue=self.queue.path) as sp:
            self.queue.replay()
            pending = self.queue.pending()
            self._advance_counters()
            for record in pending:
                job = self._rebuild_job(record)
                if job is None:
                    unrecoverable += 1
                    continue
                self._enqueue(job)
                jobs.append(job)
            sp.set(recovered=len(jobs), unrecoverable=unrecoverable,
                   settled=len(self.queue) - len(pending))
        if OBS.enabled:
            OBS.metrics.gauge("service.recovered_jobs").set(len(jobs))
            event("service.recover", queue=self.queue.path,
                  recovered=len(jobs), unrecoverable=unrecoverable)
        return jobs

    def _rebuild_job(self, record: JobRecord) -> Optional[CampaignJob]:
        try:
            spec = record.spec()
        except Exception as exc:  # noqa: BLE001 - journal outlived code
            warnings.warn(
                f"job {record.job_id!r} could not be rebuilt from the "
                f"queue journal ({exc}); leaving it live for operator "
                f"requeue/drop", RuntimeWarning, stacklevel=3)
            return None
        if spec.checkpoint is not None and not spec.resume:
            # the dead process may have checkpointed partial work; a
            # recovered job must harvest it rather than recompute
            spec = spec.replace(resume=True)
        job = CampaignJob(record.job_id, spec.resolved(), record.priority)
        job.recovered_seq = record.seq
        return job

    def _advance_counters(self) -> None:
        """Start the id and seq counters above everything journaled so
        recovered and fresh jobs never collide."""
        max_id = 0
        for record in self.queue.records.values():
            m = re.fullmatch(re.escape(self.name) + r"-job(\d+)",
                             record.job_id)
            if m:
                max_id = max(max_id, int(m.group(1)))
        if max_id:
            # _ids is class-level (unique across schedulers); consume
            # up to the journaled maximum, never rewind
            for i in CampaignScheduler._ids:
                if i >= max_id:
                    break
        max_seq = self.queue.max_seq()
        if max_seq >= 0:
            self._seq = itertools.count(max_seq + 1)

    def gather(self, *jobs: CampaignJob,
               timeout: Optional[float] = None) -> List[CampaignResult]:
        """Block until every job finishes; results in argument order."""
        if not jobs:
            jobs = tuple(self._jobs)
        return [job.result(timeout) for job in jobs]

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait`` (default) block until
        everything already submitted has finished, then tear down the
        loop and the pools."""
        if wait:
            for job in self._jobs:
                if not job.done():
                    try:
                        job.result()
                    except Exception:  # noqa: BLE001 - job errors are
                        pass           # surfaced via job.result(), not close
        self._closing = True
        self._wake_up()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        for job in self._jobs:
            if not job.done():
                job._future.set_exception(
                    CampaignError("scheduler closed before job finished"))

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close(wait=exc == (None, None, None))

    # -- dispatcher thread ---------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(target=self._serve,
                                        name=f"{self.name}-dispatch",
                                        daemon=True)
        self._thread.start()

    def _wake_up(self) -> None:
        with self._intake_lock:
            if not self._wake.done():
                self._wake.set_result(None)

    def _serve(self) -> None:
        """The dispatcher thread: admit, dispatch, wait, settle — until
        :meth:`close`."""
        try:
            while not self._closing:
                self._drain_intake()
                self._sweep_deadlines()
                self._fill_slots()
                self._report_health()
                self._finalize_complete()
                self._wait(self._wake)
                self._handle_hangs()
                self._finalize_complete()
        finally:
            self._shutdown()

    def _drive(self, jr: _JobRun) -> None:
        """Run one staged job to completion on the calling thread, under
        the service's dispatch, crash, hang and deadline protocol (every
        route of :meth:`FaultCampaign.run`); re-raises the job's error."""
        jr.job = CampaignJob(self.name, jr.spec, 0)
        jr.job.state = JobState.RUNNING
        self._active.append(jr)
        try:
            while jr.job.state is JobState.RUNNING and not jr.complete():
                self._sweep_deadlines()
                self._fill_slots()
                self._wait()
                self._handle_hangs()
        finally:
            self._shutdown()
        if jr.job.state is JobState.FAILED:
            jr.job.result()

    def _shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _kill_pool(self) -> None:
        pool = self._pool
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    # -- job admission -------------------------------------------------
    def _mark_queue(self, job: CampaignJob, transition: str,
                    seq: Optional[int] = None,
                    error: Optional[BaseException] = None) -> None:
        """Journal a state transition, best-effort (see
        :meth:`PersistentJobQueue.mark`: a lost mark only costs a
        replay-from-cache after a crash)."""
        if self.queue is None:
            return
        self.queue.mark(job.id, transition, seq=seq,
                        error=None if error is None else repr(error))

    def _admit(self, job: CampaignJob) -> None:
        seq = (next(self._seq) if job.recovered_seq is None
               else job.recovered_seq)
        try:
            jr = self._prepare(job)
        except Exception as exc:  # noqa: BLE001 - bad spec fails its job
            job.state = JobState.FAILED
            self._mark_queue(job, "failed", error=exc)
            if not job.done():
                job._future.set_exception(exc)
            return
        jr.seq = seq
        job.state = JobState.RUNNING
        self._mark_queue(job, "dispatched", seq=seq)
        self._active.append(jr)
        if jr.complete():
            self._finalize(jr)

    def _prepare(self, job: CampaignJob) -> _JobRun:
        spec = job.spec
        # collect when the dispatcher's ambient scope is enabled OR the
        # submitter's was (the submit-time context proves it); the
        # shipped snapshots are merged/grafted at finalize only if a
        # scope is still enabled there
        collect_obs = OBS.enabled or job.trace_ctx is not None
        job_span = trace_ctx = None
        if collect_obs:
            job_span = Span("service.job",
                            attrs={"job": job.id, "spec": spec.describe()})
            job_span.pid = os.getpid()
            if job.trace_ctx is not None:
                job_span.attrs.update(job.trace_ctx.attrs())
                trace_ctx = TraceContext(trace_id=job.trace_ctx.trace_id,
                                         parent="service.job")
        jr = _JobRun(spec, spec.cache if spec.cache is not None else self.cache,
                     trace_ctx=trace_ctx, collect_obs=collect_obs,
                     label=job.id, best_effort_checkpoint=True)
        jr.job = job
        jr.job_span = job_span
        jr.stage(self.shard_size, pool=True)
        return jr

    # -- dispatch loop -------------------------------------------------
    def _drain_intake(self) -> None:
        while True:
            with self._intake_lock:
                if not self._intake:
                    return
                job = self._intake.popleft()
            if job.cancel_requested:
                self._cancel_job(job)
            else:
                self._admit(job)

    def _cancel_job(self, job: CampaignJob,
                    jr: Optional[_JobRun] = None) -> None:
        job.state = JobState.CANCELLED
        # cancellation is an explicit decision: retire the journal
        # record so no future recovery resurrects the job
        self._mark_queue(job, "dropped")
        if jr is not None and jr in self._active:
            self._active.remove(jr)
        if not job.done():
            job._future.set_exception(CampaignError("job cancelled"))

    def _sweep_deadlines(self) -> None:
        kill = False
        for jr in list(self._active):
            if jr.job.cancel_requested:
                jr.ready.clear()
                self._cancel_job(jr.job, jr)
                continue
            if (jr.deadline is not None and not jr.failures.deadline_hit
                    and jr.deadline.expired()):
                jr.failures.deadline_hit = True
                jr.ready.clear()
                # a hung shard must not hold the job past its deadline
                kill = kill or jr.inflight > 0
        if kill:
            self._break_pool([])

    def _next_shard(self, pool_full: bool = False, local_taken: bool = False
                    ) -> Optional[Tuple[_JobRun, _Shard]]:
        """Fair-share pick of a ready shard, skipping pooled jobs when the
        pool is full and in-process jobs once one is taken this turn."""
        candidates = [jr for jr in self._active if jr.ready
                      and not (pool_full and jr.pooled)
                      and not (local_taken and not jr.pooled)]
        if not candidates:
            return None
        jr = min(candidates,
                 key=lambda j: (-j.job.priority, j.share, j.seq))
        return jr, jr.ready.popleft()

    def _fill_slots(self) -> None:
        """Submit ready shards while the pool has free slots, then run
        at most one shard of an in-process job on this thread."""
        local: Optional[Tuple[_JobRun, _Shard]] = None
        while True:
            # while a crash suspect remains, one shard at a time: only a
            # shard that crashes alone names its fault
            full = len(self._inflight) >= (
                1 if any(jr.crash_counts for jr in self._active)
                else self.workers)
            pick = self._next_shard(pool_full=full,
                                    local_taken=local is not None)
            if pick is None:
                break
            jr, shard = pick
            if shard.kind == "faults" and jr.cache is not None:
                # dispatch-time recheck: a concurrent job may have
                # computed some of these faults since admission
                shard = self._strip_cached(jr, shard)
                if shard is None:
                    continue
            if shard.kind == "faults":
                jr.dispatched += len(shard.indices)
            if jr.job_span is not None:
                shard.span = Span("service.shard",
                                  attrs={"job": jr.job.id,
                                         "kind": shard.kind,
                                         "n_faults": len(shard.indices)})
                shard.span.pid = os.getpid()
            if not jr.pooled:
                local = (jr, shard)
                continue
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers)
            try:
                fut = self._pool.submit(jr.shard_call(shard))
            except concurrent.futures.BrokenExecutor:
                # a worker died since the last wait; this shard never ran
                jr.requeue(shard)
                self._handle_crash([])
                continue
            jr.inflight += 1
            self._inflight[fut] = (jr, shard, time.monotonic())
        if local is not None:
            self._run_local(*local)

    def _run_local(self, jr: _JobRun, shard: _Shard) -> None:
        """Evaluate a shard of an in-process job on this thread, under
        the job's campaign deadline: when it fires the shard is
        discarded (the next :meth:`_sweep_deadlines` stops the job);
        any other error fails the job."""
        try:
            with installed(jr.deadline):
                payload = jr.shard_call(shard)()
        except Exception as exc:  # noqa: BLE001 - fails this job only
            if (isinstance(exc, DeadlineExceeded) and jr.deadline is not None
                    and exc.deadline is jr.deadline):
                self._close_shard_span(jr, shard, failed="deadline")
            else:
                self._close_shard_span(jr, shard, failed="exception")
                self._fail_job(jr, exc)
            return
        self._land(jr, shard, payload)

    def _strip_cached(self, jr: _JobRun,
                      shard: _Shard) -> Optional[_Shard]:
        """Drop shard members another job already computed; returns the
        remaining shard, or ``None`` when the whole shard was served
        from the cache (hits are buffered for in-order emission)."""
        fresh: List[int] = []
        for idx in shard.indices:
            hit = jr.cache_hit(idx, count_miss=False)
            if hit is not None:
                jr.buffered[idx] = hit
                jr.dispatched += 1
            else:
                fresh.append(idx)
        if len(fresh) == len(shard.indices):
            return shard
        jr.emit_ready()
        return _Shard("faults", fresh, batched=shard.batched) if fresh else None

    def _wait(self, wake: Optional[concurrent.futures.Future] = None
              ) -> None:
        """Block until a shard lands, a shard budget or job deadline
        comes due, or ``wake`` is set (a submit or close), then settle
        what landed."""
        if not self._inflight and wake is None:
            return
        now = time.monotonic()
        waits: List[float] = []
        for jr, shard, t0 in self._inflight.values():
            budget = jr.shard_budget(shard)
            if budget is not None:
                waits.append(t0 + budget - now)
        for jr in self._active:
            if jr.deadline is not None and not jr.failures.deadline_hit:
                waits.append(jr.deadline.remaining())
        wait_s = max(0.0, min(waits)) + 0.02 if waits else 0.5
        if any(jr.ready and not jr.pooled for jr in self._active):
            wait_s = 0.0   # an in-process shard is due next turn
        futures = set(self._inflight)
        if wake is not None:
            futures.add(wake)
        done, _ = concurrent.futures.wait(
            futures, timeout=wait_s,
            return_when=concurrent.futures.FIRST_COMPLETED)
        if wake in done:
            done.discard(wake)
            with self._intake_lock:
                self._wake = concurrent.futures.Future()

        crashed: List[Tuple[_JobRun, _Shard]] = []
        for fut in done:
            jr, shard, _ = self._inflight.pop(fut)
            jr.inflight -= 1
            try:
                payload = fut.result()
            except concurrent.futures.BrokenExecutor:
                crashed.append((jr, shard))
                continue
            except Exception as exc:  # noqa: BLE001 - fails this job only
                self._close_shard_span(jr, shard, failed="exception")
                self._fail_job(jr, exc)
                continue
            self._land(jr, shard, payload)
        if crashed:
            self._handle_crash(crashed)

    def _close_shard_span(self, jr: _JobRun, shard: _Shard,
                          **attrs: Any) -> None:
        """Close a shard's dispatch span and graft it under the job
        span (shards are re-dispatched with a fresh span, so requeue
        paths close the old one with a failure attribute)."""
        span, shard.span = shard.span, None
        if span is None:
            return
        if attrs:
            span.set(**attrs)
        span.close()
        if jr.job_span is not None:
            jr.job_span.children.append(span)

    def _land(self, jr: _JobRun, shard: _Shard, payload: Any) -> None:
        span = shard.span
        self._close_shard_span(jr, shard)
        if not self._live(jr):
            return  # cancelled, failed or past its deadline: discarded
        jr.land(shard, payload)
        if shard.kind == "prescreen" and span is not None:
            n_in, n_left = len(shard.indices), len(jr.emit_queue)
            node = Span("service.prescreen", t_start=span.t_start, attrs={
                "job": jr.job.id, "n_faults": n_in,
                "decided": n_in - n_left, "escalated": n_left})
            node.close()
            node.pid = os.getpid()
            jr.job_span.children.append(node)

    # -- failure handling ----------------------------------------------
    def _fail_job(self, jr: _JobRun, exc: BaseException) -> None:
        if jr in self._active:
            self._active.remove(jr)
        jr.job.state = JobState.FAILED
        self._mark_queue(jr.job, "failed", error=exc)
        if not jr.job.done():
            jr.job._future.set_exception(exc)

    def _live(self, jr: _JobRun) -> bool:
        return (jr.job.state is JobState.RUNNING
                and not jr.failures.deadline_hit)

    def _handle_crash(self, crashed: List[Tuple[_JobRun, _Shard]]) -> None:
        """A worker died.  A dead worker fails every future of its pool,
        so blame cannot be narrowed: every in-flight shard takes
        a strike and its faults are re-queued one per shard.  While a
        suspect remains :meth:`_fill_slots` keeps one shard in flight,
        so only the poison pill crashes again — alone — and is
        quarantined at ``_QUARANTINE_AFTER`` strikes (a stage shard
        fails its job instead); innocents complete and are
        exonerated."""
        for jr, shard, _ in self._inflight.values():
            jr.inflight -= 1
            crashed.append((jr, shard))
        self._inflight.clear()
        self._kill_pool()
        struck: List[_JobRun] = []
        # highest indices first: strike() re-queues at the front
        for jr, shard in sorted(crashed, key=lambda c: c[1].indices,
                                reverse=True):
            self._close_shard_span(jr, shard, failed="worker_crash")
            if not self._live(jr):
                continue
            try:
                jr.strike(shard)
            except CampaignError as exc:
                self._fail_job(jr, exc)
                continue
            if jr not in struck:
                struck.append(jr)
        for jr in struck:
            jr.failures.worker_crashes += 1
            if OBS.enabled:
                OBS.metrics.counter("campaign.worker_crashes").inc()
                event("campaign.worker_crash", level="error",
                      suspects=sorted(
                          k if isinstance(k, str)
                          else jr.fault_list[k].describe()
                          for k in jr.crash_counts),
                      **jr.tags)
        self._count_pool_kill(struck)

    def _break_pool(self, hit: List[_JobRun]) -> None:
        """Kill the shared pool over a hang or a campaign deadline.  The
        culprits are already out of flight (``hit`` lists their jobs);
        every other in-flight shard is innocent and re-queued
        intact, with no strike — unless its job is itself past its
        deadline, when it is dropped."""
        self._kill_pool()
        for jr, shard, _ in self._inflight.values():
            jr.inflight -= 1
            if not self._live(jr):
                self._close_shard_span(jr, shard, failed="dropped")
                continue
            self._close_shard_span(jr, shard, failed="pool_killed")
            jr.requeue(shard)
            if jr not in hit:
                hit.append(jr)
        self._inflight.clear()
        self._count_pool_kill(hit)

    @staticmethod
    def _count_pool_kill(jobs: List[_JobRun]) -> None:
        for jr in jobs:
            jr.failures.pools_killed += 1
            if OBS.enabled:
                OBS.metrics.counter("campaign.pools_killed").inc()

    def _handle_hangs(self) -> None:
        """A shard past its wall-clock budget missed every cooperative
        check: kill the pool.  A lone per-fault shard becomes a
        structured timeout; any other shard re-runs one fault per shard
        for individual verdicts."""
        now = time.monotonic()
        hung = [(fut, jr, shard, t0)
                for fut, (jr, shard, t0) in self._inflight.items()
                if (budget := jr.shard_budget(shard)) is not None
                and now - t0 > budget]
        if not hung:
            return
        hit: List[_JobRun] = []
        for fut, jr, shard, t0 in hung:
            del self._inflight[fut]
            jr.inflight -= 1
            self._close_shard_span(jr, shard, failed="hang")
            if not self._live(jr):
                continue
            if len(shard.indices) == 1 and not shard.batched:
                jr.time_out(shard.indices[0], now - t0)
            else:
                jr.requeue(shard, split=True)
            if jr not in hit:
                hit.append(jr)
        self._break_pool(hit)

    # -- completion ----------------------------------------------------
    def _finalize_complete(self) -> None:
        for jr in list(self._active):
            if jr.job.state is JobState.RUNNING and jr.complete():
                self._finalize(jr)

    def _finalize(self, jr: _JobRun) -> None:
        if jr in self._active:
            self._active.remove(jr)
        result = jr.finish(self.workers)
        if jr.job_span is not None:
            jr.job_span.close()
        if jr.collect_obs:
            if OBS.enabled:
                _merge_obs(result, jr.job_span, jr.stage_obs)
                # the finished job span joins the ambient forest as a
                # root: Session.report()/exports see one connected trace
                OBS.tracer.spans.append(jr.job_span)
            else:
                # no scope is ambient on the dispatcher right now (the
                # submitter is between scopes, e.g. in watch()); park
                # the payload so the gathering thread joins it instead
                jr.job._pending_obs = (result, jr.job_span, jr.stage_obs)
        jr.job.state = JobState.DONE
        if not jr.job.done():
            jr.job._future.set_result(result)
        self._mark_queue(jr.job, "done")
        self._publish_status(force=True)

    def _report_health(self) -> None:
        self._publish_status()
        if not OBS.enabled:
            return
        OBS.metrics.gauge("service.jobs_active").set(len(self._active))
        OBS.metrics.gauge("service.shards_inflight").set(len(self._inflight))
        OBS.metrics.gauge("service.queue_depth").set(
            sum(len(jr.ready) for jr in self._active))
        if self.queue is not None:
            # live (unsettled) jobs in the persistent journal — distinct
            # from queue_depth above, which counts ready shards
            OBS.metrics.gauge("service.journal_depth").set(
                self.queue.depth())
        for jr in list(self._active):
            # job ids flow into the metric name: the Prometheus exporter
            # sanitises them to the 0.0.4 charset
            OBS.metrics.gauge(f"service.job.{jr.job.id}.progress").set(
                jr.last_progress.fraction)

    def _publish_status(self, force: bool = False) -> None:
        """Atomically refresh the dashboard status file (throttled;
        no-op unless a status path is configured)."""
        if self.status_path is None:
            return
        now = time.monotonic()
        if not force and now - self._status_last < 0.5:
            return
        self._status_last = now
        from repro.obs.dashboard import status_snapshot, write_status
        try:
            write_status(status_snapshot(self), self.status_path)
        except OSError:  # pragma: no cover - status is best-effort
            pass


__all__ = ["CampaignScheduler", "CampaignJob", "JobState",
           "DEFAULT_SHARD_SIZE"]
