"""Durability suite: persistent job queue, crash-safe scheduler
restart, bounded disk cache and the service-boundary chaos harness.

The recovery invariant under test everywhere: a campaign service
SIGKILLed mid-plan and restarted over the same queue/cache/checkpoint
files produces ``to_dict()``-identical results to an uninterrupted run
(wall clock aside — :func:`repro.verify.goldens.normalize` drops it).
The ``chaos`` marker covers the tests that kill real processes or
inject ``os.replace``/``fsync`` failures (see the ``service-durability``
CI job).
"""

import errno
import json
import os
import sys
import time

import pytest

from repro.faults import FaultCampaign
from repro.obs.core import observe
from repro.obs.ledger import RunLedger, key_counters
from repro.resilience.chaos import (
    ChaosError,
    ChaosProcess,
    chaos_os,
    corrupt_tail,
    tear_tail,
    wait_for,
)
from repro.service import (
    CampaignSpec,
    QUEUE_SCHEMA,
    PersistentJobQueue,
    QueueError,
    ResultCache,
    SPEC_SCHEMA,
)
from repro.service.cache import fault_key
from repro.service.scheduler import CampaignScheduler
from repro.verify.goldens import normalize
from tests._durability_workload import (
    delta_detector,
    divider,
    driver_argv,
    golden_results,
    mid_faults,
    slow_measure_mid,
    standard_specs,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec(tmp_path=None, n=4, **overrides):
    fields = dict(technique=slow_measure_mid, detector=delta_detector,
                  target=divider(), faults=tuple(mid_faults(n)),
                  name="durable", workers=1)
    if tmp_path is not None:
        fields["checkpoint"] = str(tmp_path / "job.ckpt")
    fields.update(overrides)
    return CampaignSpec(**fields)


# ---------------------------------------------------------------------------
# CampaignSpec serialisation (what the journal stores)


class TestSpecSerialization:
    def test_roundtrip_preserves_identity_and_options(self, tmp_path):
        spec = _spec(tmp_path, threshold=0.25, priority=3,
                     fault_timeout_s=9.0)
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.content_key() == spec.content_key()
        assert clone.context_key() == spec.context_key()
        assert (clone.threshold, clone.priority) == (0.25, 3)
        assert clone.fault_timeout_s == 9.0
        assert clone.checkpoint == spec.checkpoint
        assert clone.name == "durable"
        assert len(clone.faults) == len(spec.faults)

    @staticmethod
    def _older_doc(spec):
        """``spec.to_dict()`` as journals written while the checkpoint
        interval, heartbeat interval and kill grace were spec options
        carry it."""
        doc = spec.to_dict()
        doc.update(timeout_grace_s=0.3, checkpoint_every=2,
                   heartbeat_every=2)
        return doc

    def test_older_doc_rebuilds_with_same_keys(self, tmp_path):
        spec = _spec(tmp_path, fault_timeout_s=9.0)
        clone = CampaignSpec.from_dict(self._older_doc(spec))
        assert clone.content_key() == spec.content_key()
        assert clone.context_key() == spec.context_key()

    def test_older_journal_replays_job_as_pending(self, tmp_path):
        spec = _spec(tmp_path).resolved()
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps({
            "schema": QUEUE_SCHEMA, "event": "submitted", "job": "old-job",
            "priority": 0, "key": spec.content_key(),
            "spec": self._older_doc(spec), "t": 1700000000.0}) + "\n")
        queue = PersistentJobQueue(str(path))
        assert queue.corrupt == 0
        [rec] = queue.pending()
        assert rec.job_id == "old-job" and rec.state == "submitted"
        assert rec.spec().content_key() == spec.content_key()

    def test_doc_is_json_serialisable_and_tagged(self):
        doc = _spec().to_dict()
        assert doc["schema"] == SPEC_SCHEMA
        assert doc["n_faults"] == 4
        json.dumps(doc)  # scalars + one base64 blob, nothing live

    def test_live_fields_are_not_journaled(self):
        cache = ResultCache()
        spec = _spec(progress=lambda p: None, cache=cache)
        doc = spec.to_dict()
        assert "progress" not in doc and "cache" not in doc
        clone = CampaignSpec.from_dict(doc)
        assert clone.progress is None and clone.cache is None

    def test_unknown_schema_rejected(self):
        doc = _spec().to_dict()
        doc["schema"] = "repro.campaign-spec/999"
        with pytest.raises(ValueError, match="not a serialised"):
            CampaignSpec.from_dict(doc)

    def test_unpicklable_workload_degrades_to_unrecoverable(self):
        spec = _spec(technique=lambda c: 0.0)
        doc = spec.to_dict()
        assert doc["workload"] is None
        with pytest.raises(ValueError, match="without a recoverable"):
            CampaignSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# the write-ahead queue itself


class TestPersistentQueue:
    def test_submit_then_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        record = queue.submit("svc-job1", _spec().resolved(), priority=2)
        assert record.key == _spec().content_key()
        replayed = PersistentJobQueue(path)
        rec = replayed.get("svc-job1")
        assert rec.state == "submitted" and rec.priority == 2
        assert rec.spec().content_key() == record.key

    def test_journal_work_is_counted(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with observe() as handle:
            queue = PersistentJobQueue(path)         # empty: no replay
            queue.submit("a", _spec().resolved())
            queue.submit("b", _spec().resolved())
            queue.mark("a", "dispatched", seq=0)
            PersistentJobQueue(path)
        assert key_counters(handle.metrics.counter_values()) == {
            "service.journal_appends": 3, "service.journal_replayed": 3}

    def test_state_machine_and_depth(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        queue.submit("a", _spec().resolved())
        queue.submit("b", _spec().resolved())
        queue.mark("a", "dispatched", seq=0)
        assert queue.depth() == 2
        queue.mark("a", "done")
        assert queue.depth() == 1
        queue.mark("b", "failed", error="boom")
        assert queue.depth() == 0
        assert queue.get("b").error == "boom"
        queue.requeue("b")
        assert queue.depth() == 1 and queue.get("b").error is None
        queue.drop("b")
        assert queue.depth() == 0
        # the full history replays to the same end state
        replayed = PersistentJobQueue(queue.path)
        assert replayed.get("a").state == "done"
        assert replayed.get("b").state == "dropped"
        assert replayed.max_seq() == 0

    def test_pending_orders_by_priority_then_seq(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        queue.submit("low", _spec().resolved(), priority=0)
        queue.submit("high-late", _spec().resolved(), priority=5)
        queue.submit("high-early", _spec().resolved(), priority=5)
        queue.mark("high-early", "dispatched", seq=1)
        queue.mark("high-late", "dispatched", seq=4)
        names = [r.job_id for r in queue.pending()]
        assert names == ["high-early", "high-late", "low"]

    def test_mark_unknown_job_is_refused(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        assert queue.mark("ghost", "done") is False
        with pytest.raises(ValueError, match="unknown queue transition"):
            queue.mark("ghost", "submitted")

    def test_torn_tail_quarantined_and_journal_rewritten(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        queue.submit("a", _spec().resolved())
        queue.submit("b", _spec().resolved())
        queue.mark("a", "done")
        tear_tail(path, drop_bytes=4)  # tears the "done" mark
        with pytest.warns(RuntimeWarning, match="quarantined"):
            replayed = PersistentJobQueue(path)
        assert replayed.corrupt == 1
        assert replayed.get("a").state == "submitted"  # mark was lost
        assert os.path.exists(path + ".corrupt")
        # the rewrite removed the damage permanently
        again = PersistentJobQueue(path)
        assert again.corrupt == 0 and len(again) == 2

    def test_corrupt_interior_record_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        queue.submit("a", _spec().resolved())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        queue.submit("b", _spec().resolved())
        with pytest.warns(RuntimeWarning, match="quarantined"):
            replayed = PersistentJobQueue(path)
        assert replayed.corrupt == 1
        assert sorted(replayed.records) == ["a", "b"]

    def test_mark_without_submitted_line_is_quarantined(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        queue.submit("a", _spec().resolved())
        queue.mark("a", "done")
        # simulate losing the submitted line but keeping the mark
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines[-1] + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            replayed = PersistentJobQueue(path)
        assert replayed.corrupt == 1 and len(replayed) == 0

    def test_submit_raises_when_journal_append_fails(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        with chaos_os(fsync_fail_at=[0]):
            with pytest.raises(QueueError, match="could not journal"):
                queue.submit("a", _spec().resolved())

    def test_mark_failure_is_best_effort(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        queue.submit("a", _spec().resolved())
        with chaos_os(fsync_fail_at=[0]):
            assert queue.mark("a", "done") is False
        assert queue.get("a").state == "submitted"  # not applied

    def test_replay_on_a_failing_disk_keeps_survivors(self, tmp_path):
        """A torn tail that cannot be quarantined is skipped, not fatal,
        and the next submit does not merge into the unterminated line."""
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        queue.submit("a", _spec().resolved())
        queue.submit("b", _spec().resolved())
        tear_tail(path, drop_bytes=4)  # tears b's submitted line
        with chaos_os(fsync_fail_at=[0]) as injector:
            with pytest.warns(RuntimeWarning, match="could not quarantine"):
                replayed = PersistentJobQueue(path)
        assert injector.injected["fsync"] == 1
        assert sorted(replayed.records) == ["a"] and replayed.corrupt == 1
        replayed.submit("c", _spec().resolved())
        with pytest.warns(RuntimeWarning, match="quarantined"):
            clean = PersistentJobQueue(path)
        assert sorted(clean.records) == ["a", "c"] and clean.corrupt == 1

    def test_unpicklable_workload_journals_with_warning(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        with pytest.warns(RuntimeWarning, match="recoverable"):
            record = queue.submit("a",
                                  _spec(technique=lambda c: 0.0).resolved())
        assert not record.recoverable()
        assert PersistentJobQueue(queue.path).depth() == 1

    def test_compact_drops_settled_history(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        for name in ("a", "b", "c"):
            queue.submit(name, _spec().resolved())
        queue.mark("a", "dispatched", seq=3)
        queue.mark("b", "done")
        assert queue.compact() == 1
        replayed = PersistentJobQueue(path)
        assert sorted(replayed.records) == ["a", "c"]
        assert replayed.get("a").seq == 3


# ---------------------------------------------------------------------------
# bounded disk cache


def _entry(i, payload="x" * 64):
    class _Fault:
        def __init__(self, i):
            self.i = i

        def describe(self):
            return f"fault-{self.i}-{payload}"

    class _Outcome:
        timed_out = quarantined = False
        error = None
        decided_by = "transient"

        def __init__(self, i):
            self.fault = _Fault(i)
            self.detection = 0.5
            self.detected = True
            self.elapsed_s = 0.01

    return _Outcome(i)


class TestBoundedDiskCache:
    def test_max_bytes_requires_disk_tier(self):
        with pytest.raises(ValueError, match="requires a disk tier"):
            ResultCache(max_bytes=1024)

    def test_footprint_never_exceeds_budget(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "c"), max_bytes=1000)
        for i in range(30):
            cache.put("ctx", _entry(i))
            assert cache.disk_bytes() <= 1000
        assert cache.stats.evictions > 0
        assert cache.stats.evicted_bytes > 0
        assert cache.stats.to_dict()["evicted_bytes"] \
            == cache.stats.evicted_bytes

    def test_eviction_is_lru_and_disk_hits_refresh_recency(self, tmp_path):
        path = str(tmp_path / "c")
        seed = ResultCache(path=path)  # unbounded, to stage the tier
        for i in range(4):
            seed.put("ctx", _entry(i))

        def key(i):
            return fault_key("ctx", _entry(i).fault)

        now = time.time()
        for i in range(4):  # entry 0 oldest ... entry 3 newest
            age = now - 400 + i * 100
            os.utime(seed._entry_path(key(i)), (age, age))
        # a disk hit in a *fresh process* refreshes entry 0's recency
        reader = ResultCache(path=path)
        assert reader.get("ctx", _entry(0).fault, 0.5) is not None
        # a bounded cache over the same tier is exactly at budget; one
        # more store must evict precisely the least-recently-used entry
        total = reader.disk_bytes()
        bounded = ResultCache(path=path, max_bytes=total)
        bounded.put("ctx", _entry(99))
        on_disk = {k for _, _, _, k in bounded._entries_on_disk()}
        assert key(99) in on_disk  # the fresh store is shielded
        assert key(0) in on_disk   # refreshed by the hit -> survived
        assert key(1) not in on_disk  # the true LRU victim
        assert bounded.stats.evicted_bytes > 0

    def test_disk_hit_touches_entry(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "c"))
        outcome = _entry(1)
        cache.put("ctx", outcome)
        (mtime, _, path, _), = cache._entries_on_disk()
        os.utime(path, (1.0, 1.0))
        cache.clear()  # force the disk tier
        assert cache.get("ctx", outcome.fault, 0.5) is not None
        assert os.path.getmtime(path) > 1.0

    def test_scrub_quarantines_key_and_schema_mismatches(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "c"))
        for i in range(3):
            cache.put("ctx", _entry(i))
        entries = cache._entries_on_disk()
        # key mismatch: rename an entry to a different key's filename
        _, _, victim, _ = entries[0]
        renamed = os.path.join(os.path.dirname(victim), "f" * 64 + ".json")
        os.replace(victim, renamed)
        # schema mismatch: rewrite another entry with a future tag
        _, _, victim2, _ = entries[1]
        with open(victim2, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["schema"] = "repro.result-cache/999"
        with open(victim2, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        report = cache.scrub()
        assert report["quarantined"] == 2
        assert cache.stats.corrupt == 2
        assert len(cache._entries_on_disk()) == 1

    def test_store_failure_degrades_to_memory_tier(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "c"))
        outcome = _entry(5)
        with chaos_os(replace_fail_at=[0]):
            assert cache.put("ctx", outcome) is True
        assert cache._entries_on_disk() == []      # disk store failed
        assert cache.get("ctx", outcome.fault, 0.5) is not None  # memory

    @pytest.mark.chaos
    def test_bound_holds_under_sustained_write_chaos(self, tmp_path):
        """The acceptance pin: max_bytes is never exceeded even while
        seeded random replace/fsync failures hammer the write path."""
        cache = ResultCache(path=str(tmp_path / "c"), max_bytes=2000)
        with chaos_os(rate=0.2, seed=1234, match=str(tmp_path)):
            for i in range(120):
                cache.put("ctx", _entry(i))
                assert cache.disk_bytes() <= 2000
        # and the tier still works after the weather clears
        cache.put("ctx", _entry(999))
        assert cache.disk_bytes() <= 2000
        assert cache.scrub()["bytes"] <= 2000


# ---------------------------------------------------------------------------
# scheduler + queue integration (in-process)


class TestSchedulerQueueIntegration:
    def test_submit_write_ahead_then_done(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with CampaignScheduler(workers=1, name="svc", queue=path) as sched:
            job = sched.submit(_spec(n=2, checkpoint=None))
            job.result()
        queue = PersistentJobQueue(path)
        record = queue.get(job.id)
        assert record.state == "done"
        assert record.seq is not None
        assert record.key == job.spec.content_key()

    def test_recover_reruns_undone_jobs_identically(self, tmp_path):
        golden = {}
        with CampaignScheduler(workers=1, name="golden") as sched:
            for i, spec in enumerate(standard_specs(str(tmp_path / "g"),
                                                    n_faults=3)):
                golden[spec.name] = sched.submit(spec).result().to_dict()
        # a "crashed" predecessor journaled two jobs, one mid-dispatch
        path = str(tmp_path / "q.jsonl")
        queue = PersistentJobQueue(path)
        specs = standard_specs(str(tmp_path), n_faults=3)
        queue.submit("svc-job1", specs[0].resolved(), priority=0)
        queue.submit("svc-job2", specs[1].resolved(), priority=1)
        queue.mark("svc-job2", "dispatched", seq=1)
        sched = CampaignScheduler(workers=1, name="svc", queue=path)
        try:
            jobs = sched.recover()
            assert [j.id for j in jobs] == ["svc-job2", "svc-job1"]
            assert jobs[0].recovered_seq == 1
            results = {j.spec.name: j.result().to_dict() for j in jobs}
        finally:
            sched.close()
        for name, payload in golden.items():
            assert normalize(results[name]) == normalize(payload)
        assert PersistentJobQueue(path).depth() == 0
        # a fresh submission must not collide with recovered ids
        sched2 = CampaignScheduler(workers=1, name="svc", queue=path)
        try:
            fresh = sched2.submit(_spec(n=2, checkpoint=None))
            assert fresh.id not in ("svc-job1", "svc-job2")
            fresh.result()
        finally:
            sched2.close()

    def test_recover_resumes_from_checkpoint(self, tmp_path):
        """A job whose predecessor checkpointed partial work harvests
        it instead of recomputing (resume is flipped on recovery)."""
        spec = _spec(tmp_path, n=4).resolved()
        # predecessor completed 2 of 4 faults before dying
        from repro.resilience.checkpoint import CampaignCheckpoint
        with CampaignScheduler(workers=1, name="pre") as sched:
            half = sched.submit(spec.replace(
                faults=spec.faults[:2],
                checkpoint=None)).result()
        ckpt = CampaignCheckpoint(spec.checkpoint, spec.content_key())
        ckpt.save(dict(enumerate(half.outcomes)), len(spec.faults))
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        queue.submit("svc-job1", spec)
        sched = CampaignScheduler(workers=1, name="svc", queue=queue)
        try:
            (job,) = sched.recover()
            assert job.spec.resume is True
            result = job.result()
        finally:
            sched.close()
        assert result.n_faults == 4
        with CampaignScheduler(workers=1, name="ref") as sched:
            golden = sched.submit(spec.replace(checkpoint=None)).result()
        assert normalize(result.to_dict()) == normalize(golden.to_dict())

    def test_unrecoverable_record_warns_and_stays_live(self, tmp_path):
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        with pytest.warns(RuntimeWarning, match="recoverable"):
            queue.submit("svc-job1",
                         _spec(technique=lambda c: 0.0).resolved())
        sched = CampaignScheduler(workers=1, name="svc", queue=queue)
        try:
            with pytest.warns(RuntimeWarning, match="could not be rebuilt"):
                assert sched.recover() == []
        finally:
            sched.close()
        assert queue.depth() == 1  # left for operator requeue/drop

    def test_cancel_retires_journal_record(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        sched = CampaignScheduler(workers=1, name="svc", queue=path)
        try:
            job = sched.submit(_spec(n=2, checkpoint=None))
            job.cancel()
            try:
                job.result(timeout=60)
            except Exception:  # noqa: BLE001 - cancelled is the norm
                pass
        finally:
            sched.close(wait=False)
        # dropped, or done if the job outran the cancel — never live,
        # so no replay resurrects a cancelled job
        record = PersistentJobQueue(path).get(job.id)
        assert record is not None and not record.live

    def test_recovery_observability(self, tmp_path):
        from repro.obs.core import observe
        queue = PersistentJobQueue(str(tmp_path / "q.jsonl"))
        queue.submit("svc-job1", _spec(n=2, checkpoint=None).resolved())
        with observe() as obs:
            sched = CampaignScheduler(workers=1, name="svc", queue=queue)
            try:
                jobs = sched.recover()
                sched.gather(*jobs)
            finally:
                sched.close()
            assert obs.metrics.gauges["service.recovered_jobs"].value == 1
            names = [s.name for s in obs.tracer.spans]
        assert "service.recover" in names

    def test_journal_links_to_ledger_by_content_key(self, tmp_path):
        from repro.obs.core import observe
        from repro.obs.ledger import RunLedger
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        path = str(tmp_path / "q.jsonl")
        with observe(ledger=ledger):
            with CampaignScheduler(workers=1, name="svc",
                                   queue=path) as sched:
                job = sched.submit(_spec(n=2, checkpoint=None))
                job.result()
        record = PersistentJobQueue(path).get(job.id)
        rows = ledger.rows(key=record.key)
        assert rows and rows[-1]["job"] == job.id


# ---------------------------------------------------------------------------
# a full disk: the durable writes fail with ENOSPC


def _golden(spec):
    with CampaignScheduler(workers=1, name="golden") as sched:
        return normalize(sched.submit(
            spec.replace(checkpoint=None)).result().to_dict())


def _full_disk_cache_store(tmp_path):
    cache = ResultCache(path=str(tmp_path / "c"))
    outcome = _entry(7)
    with observe() as handle, chaos_os(rate=1.0, match=str(tmp_path)):
        assert cache.put("ctx", outcome) is True
    assert cache._entries_on_disk() == []
    assert cache.get("ctx", outcome.fault, 0.5) is not None  # memory
    assert handle.metrics.counter_values()["cache.store_errors"] == 1


def _full_disk_scheduler_checkpoint(tmp_path):
    spec = _spec(tmp_path, n=3).resolved()
    with observe() as handle, chaos_os(rate=1.0, match=str(tmp_path)):
        with CampaignScheduler(workers=1, name="full") as sched:
            result = sched.submit(spec).result()
    assert normalize(result.to_dict()) == _golden(spec)
    assert handle.metrics.counter_values()["service.checkpoint_errors"] >= 1
    assert not os.path.exists(spec.checkpoint)


def _full_disk_campaign_checkpoint(tmp_path):
    spec = _spec(tmp_path, n=2).resolved()
    with chaos_os(rate=1.0, match=str(tmp_path)):
        with pytest.raises(OSError) as info:
            FaultCampaign(spec.technique, spec.detector).run(spec=spec)
    assert info.value.errno == errno.ENOSPC


def _full_disk_ledger_row(tmp_path):
    spec = _spec(n=2, checkpoint=None).resolved()
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with chaos_os(rate=1.0) as injector, observe(ledger=ledger):
        result = FaultCampaign(spec.technique, spec.detector).run(spec=spec)
    assert injector.injected["fsync"] == 1
    assert normalize(result.to_dict()) == _golden(spec)


def _full_disk_status_publish(tmp_path):
    spec = _spec(n=2, checkpoint=None).resolved()
    status = tmp_path / "status.json"
    with chaos_os(rate=1.0, match=str(status)) as injector:
        with CampaignScheduler(workers=1, name="full",
                               status_path=str(status)) as sched:
            result = sched.submit(spec).result()
    assert injector.injected["replace"] >= 1 and not status.exists()
    assert normalize(result.to_dict()) == _golden(spec)


@pytest.mark.parametrize("scenario", [
    _full_disk_cache_store, _full_disk_scheduler_checkpoint,
    _full_disk_campaign_checkpoint, _full_disk_ledger_row,
    _full_disk_status_publish], ids=lambda fn: fn.__name__[11:])
def test_full_disk_degrades_as_documented(tmp_path, scenario):
    """Each writer's documented reaction to ENOSPC: the cache serves
    from memory, a service job finishes without its checkpoint, a
    standalone campaign raises, and neither a lost ledger row nor a lost
    status publish fails the run."""
    scenario(tmp_path)


# ---------------------------------------------------------------------------
# Session wiring


class TestSessionQueue:
    def test_session_scheduler_inherits_queue_path(self, tmp_path):
        from repro.session import Session
        path = str(tmp_path / "q.jsonl")
        session = Session(obs=False, queue_path=path)
        try:
            job = session.submit(_spec(n=2, checkpoint=None))
            session.gather()
        finally:
            session.shutdown()
        assert PersistentJobQueue(path).get(job.id).state == "done"

    def test_recover_without_queue_is_empty(self):
        from repro.session import Session
        assert Session(obs=False).recover() == []

    def test_session_restart_recovers(self, tmp_path):
        from repro.session import Session
        path = str(tmp_path / "q.jsonl")
        PersistentJobQueue(path).submit(
            "session-svc-job1", _spec(n=2, checkpoint=None).resolved())
        session = Session(obs=False, queue_path=path)
        try:
            (job,) = session.recover()
            (result,) = session.gather(job)
        finally:
            session.shutdown()
        assert result.n_faults == 2
        assert PersistentJobQueue(path).depth() == 0


# ---------------------------------------------------------------------------
# chaos: real SIGKILL, torn files, injected rename/fsync failures


def _driver(workdir, submit, workers=1, n_faults=6):
    args = json.dumps(driver_argv(str(workdir), submit=submit,
                                  workers=workers, n_faults=n_faults))
    code = (f"import tests._durability_workload as m; "
            f"import json; raise SystemExit(m.main(json.loads({args!r})))")
    env = {"PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    return ChaosProcess(code, env=env, cwd=REPO_ROOT)


def _cache_entries(workdir) -> int:
    total = 0
    cache_dir = os.path.join(str(workdir), "cache")
    for root, _, files in os.walk(cache_dir):
        total += sum(1 for f in files if f.endswith(".json"))
    return total


def _mid_campaign(workdir) -> bool:
    """True once both jobs are journaled AND real work has started —
    the window where a kill leaves both jobs undone but non-empty."""
    try:
        with open(os.path.join(str(workdir), "queue.jsonl"),
                  encoding="utf-8") as fh:
            journal = fh.read()
    except OSError:
        return False
    return (journal.count('"submitted"') >= 2
            and _cache_entries(workdir) >= 1)


def _live_group(pgid):
    """Pids of the live (non-zombie) members of process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:              # exited while we scanned
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.chaos
class TestChaosRestart:
    @pytest.mark.parametrize("workers", [1, 2],
                             ids=["serial", "pooled"])
    def test_sigkill_restart_equals_uninterrupted(self, tmp_path,
                                                  workers):
        """THE acceptance pin: SIGKILL the service mid-campaign, restart
        over the same files, results are to_dict()-identical."""
        golden = golden_results(str(tmp_path), workers=workers)
        out = tmp_path / "results.json"
        with _driver(tmp_path, submit=True, workers=workers) as proc:
            proc.kill_when(lambda: _mid_campaign(tmp_path),
                           what="mid-campaign window")
        assert not out.exists()  # died before finishing, as intended
        with _driver(tmp_path, submit=False, workers=workers) as proc:
            assert proc.wait() == 0, proc.output()
        results = json.loads(out.read_text())
        assert sorted(results) == sorted(golden)
        for name in golden:
            assert normalize(results[name]) == normalize(golden[name]), \
                f"{name} diverged after restart"

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process groups from /proc")
    def test_sigkill_leaves_no_orphaned_pool_workers(self, tmp_path):
        """The kill takes the service's forked pool workers down with it:
        no member of its process group outlives it."""
        seen = []

        def mid_campaign_with_workers():
            seen[:] = _live_group(proc.proc.pid)
            return _mid_campaign(tmp_path) and len(seen) > 1

        with _driver(tmp_path, submit=True, workers=2) as proc:
            proc.kill_when(mid_campaign_with_workers,
                           what="mid-campaign window with pool workers")
            assert proc.was_killed()
            wait_for(lambda: not _live_group(proc.proc.pid), timeout=10.0,
                     what=f"process group {seen} to die")

    def test_torn_journal_after_kill_still_recovers(self, tmp_path):
        golden = golden_results(str(tmp_path))
        queue_path = tmp_path / "queue.jsonl"
        with _driver(tmp_path, submit=True) as proc:
            proc.kill_when(lambda: _mid_campaign(tmp_path),
                           what="mid-campaign window")
        # the kill landed mid-append: tear the journal's final line too
        tear_tail(str(queue_path), drop_bytes=7)
        with _driver(tmp_path, submit=False) as proc:
            assert proc.wait() == 0, proc.output()
        results = json.loads((tmp_path / "results.json").read_text())
        for name in golden:
            assert normalize(results[name]) == normalize(golden[name])
        assert os.path.exists(str(queue_path) + ".corrupt")

    def test_corrupt_journal_tail_still_recovers(self, tmp_path):
        golden = golden_results(str(tmp_path))
        queue_path = tmp_path / "queue.jsonl"
        with _driver(tmp_path, submit=True) as proc:
            proc.kill_when(lambda: _mid_campaign(tmp_path),
                           what="mid-campaign window")
        corrupt_tail(str(queue_path))
        with _driver(tmp_path, submit=False) as proc:
            assert proc.wait() == 0, proc.output()
        results = json.loads((tmp_path / "results.json").read_text())
        for name in golden:
            assert normalize(results[name]) == normalize(golden[name])

    def test_replace_fsync_failures_mid_run_do_not_corrupt(self,
                                                           tmp_path):
        """Seeded rename/fsync failures against cache + checkpoint
        files during a scheduled run: the run completes with correct
        results, and a following cold run over the same (possibly
        partial) files also matches."""
        spec = _spec(tmp_path, n=4).resolved()
        cache = ResultCache(path=str(tmp_path / "cache"))
        with CampaignScheduler(workers=1, name="golden") as sched:
            golden = sched.submit(spec.replace(checkpoint=None)).result()
        with chaos_os(rate=0.3, seed=7, match=str(tmp_path)):
            with CampaignScheduler(workers=1, name="stormy",
                                   cache=cache) as sched:
                stormy = sched.submit(spec).result()
        assert normalize(stormy.to_dict()) == normalize(golden.to_dict())
        # whatever survived on disk is valid: a fresh run over the same
        # cache/checkpoint reproduces the golden payload exactly
        with CampaignScheduler(workers=1, name="after",
                               cache=ResultCache(
                                   path=str(tmp_path / "cache"))) as sched:
            after = sched.submit(spec.replace(resume=True)).result()
        assert normalize(after.to_dict()) == normalize(golden.to_dict())

    def test_pool_loss_during_drain_recovers(self, tmp_path):
        """Kill the worker pool processes mid-drain: the scheduler
        rebuilds the pool, re-dispatches, and the journal still settles
        every job."""
        path = str(tmp_path / "q.jsonl")
        spec = _spec(n=6, checkpoint=None,
                     fault_timeout_s=30.0).resolved()
        sched = CampaignScheduler(workers=2, name="svc", queue=path)
        try:
            job = sched.submit(spec)
            wait_for(lambda: sched._pool is not None
                     and getattr(sched._pool, "_processes", None),
                     what="worker pool to spin up")
            for proc in list(sched._pool._processes.values()):
                proc.kill()
            result = job.result(timeout=120)
        finally:
            sched.close()
        assert result.n_faults == 6
        assert PersistentJobQueue(path).get(job.id).state == "done"


class TestChaosHarness:
    def test_injection_schedule_is_exact(self, tmp_path):
        src = tmp_path / "a"
        src.write_text("x")
        with chaos_os(replace_fail_at=[1]) as injector:
            os.replace(str(src), str(tmp_path / "b"))  # call 0 passes
            with pytest.raises(ChaosError):
                os.replace(str(tmp_path / "b"), str(tmp_path / "c"))
        assert injector.calls["replace"] == 2
        assert injector.injected["replace"] == 1
        # patched functions are restored
        os.replace(str(tmp_path / "b"), str(tmp_path / "c"))

    def test_seeded_rate_is_deterministic(self, tmp_path):
        def storm(seed):
            outcomes = []
            with chaos_os(rate=0.5, seed=seed):
                for i in range(20):
                    p = tmp_path / f"f{seed}-{i}"
                    p.write_text("x")
                    try:
                        os.replace(str(p), str(tmp_path / f"g{seed}-{i}"))
                        outcomes.append(True)
                    except ChaosError:
                        outcomes.append(False)
            return outcomes

        assert storm(42) == storm(42)
        assert storm(42) != storm(43)

    def test_match_scopes_replace_chaos(self, tmp_path):
        inside = tmp_path / "scoped"
        inside.mkdir()
        (inside / "a").write_text("x")
        (tmp_path / "b").write_text("y")
        with chaos_os(replace_fail_at=[0], match="scoped"):
            os.replace(str(tmp_path / "b"), str(tmp_path / "c"))  # unscoped
            with pytest.raises(ChaosError):
                os.replace(str(inside / "a"), str(inside / "z"))

    def test_tear_and_corrupt_tail(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a": 1}\n{"b": 2}\n')
        tear_tail(str(p), drop_bytes=3)
        assert p.read_text() == '{"a": 1}\n{"b": '
        corrupt_tail(str(p), garbage=b"@@@@", keep_newline=False)
        assert p.read_bytes().endswith(b"@@@@")

    def test_wait_for_times_out_with_context(self):
        with pytest.raises(TimeoutError, match="never-true"):
            wait_for(lambda: False, timeout=0.05, poll=0.01,
                     what="never-true condition")
