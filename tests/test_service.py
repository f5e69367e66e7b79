"""Campaign-as-a-service: CampaignSpec, ResultCache, CampaignScheduler.

Pins the service contracts from the API redesign:

* ``CampaignSpec`` is frozen, validating, and serialises into the
  campaign content hash — a spec *is* the campaign's identity.
* the content-addressed ``ResultCache`` makes warm re-runs perform
  **zero simulations** while producing ``to_dict()`` payloads identical
  to the cold run (wall-clock total aside), under serial, pooled and
  batched execution; corrupt entries degrade to recomputation, never to
  a crash.
* the ``CampaignScheduler`` runs concurrent campaigns whose results
  match standalone serial runs, shares overlapping fault universes
  through the cache, and prefers higher-priority / less-served jobs.
"""

import json
import os
import threading
from collections import deque
from types import SimpleNamespace

import pytest

from repro import CampaignScheduler, CampaignSpec, ResultCache, Session
from repro.errors import CampaignError
from repro.faults.campaign import FaultCampaign, FaultOutcome
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.faults.model import StuckAtFault
from repro.obs.core import OBS, observe
from repro.obs.ledger import RunLedger
from repro.resilience.deadline import DEADLINE
from repro.service.cache import CACHE_SCHEMA, fault_key
from repro.session import RunResult
from repro.spice import Circuit, dc_operating_point


# --- fixtures -------------------------------------------------------------

def divider() -> Circuit:
    ckt = Circuit("div")
    ckt.vsource("V1", "top", "0", 5.0)
    ckt.resistor("R1", "top", "mid", 1e3)
    ckt.resistor("R2", "mid", "0", 1e3)
    return ckt


def _mid_voltage(ckt):
    v, _ = dc_operating_point(ckt)
    return v["mid"]


def _shift_detector(ref, m):
    return 1.0 if abs(m - ref) > 0.5 else 0.0


def _divider_faults():
    return [StuckAtFault.sa0("mid"), StuckAtFault.sa1("mid"),
            StuckAtFault.sa0("top"), StuckAtFault.sa1("top")]


class _CountingTechnique:
    """Picklability-friendly technique that counts its invocations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, ckt):
        self.calls += 1
        return _mid_voltage(ckt)


def _sans_wall(result):
    """to_dict with the total wall clock removed: per-outcome timings
    are replayed exactly from the cache, so everything else must match
    byte for byte."""
    doc = result.to_dict()
    doc.pop("elapsed_s")
    return doc


def _normalized(result):
    """to_dict with every wall-clock field zeroed and the worker count
    dropped — for comparing scheduler runs against standalone runs."""
    doc = result.to_dict()
    doc["elapsed_s"] = 0.0
    doc.pop("workers")
    doc["outcomes"] = [dict(o, elapsed_s=0.0) for o in doc["outcomes"]]
    return doc


def _unpicklable_mid(ckt):
    """A picklable technique whose measurement cannot cross a process
    boundary (it carries a local function)."""
    v = _mid_voltage(ckt)
    return SimpleNamespace(v=v, unit=lambda: "V")


def _unpicklable_shift(ref, m):
    return _shift_detector(ref.v, m.v)


class _ReferenceLog:
    """Technique that appends its pid to ``path`` on every fault-free
    call (no injected ``FLT_`` element), so calls made in pool workers
    count too.  Its measurement cannot pickle; with ``reject`` it raises
    on the fault-free target instead."""

    def __init__(self, path, reject=False):
        self.path = path
        self.reject = reject

    def __call__(self, ckt):
        if not any(e.name.startswith("FLT_") for e in ckt.elements):
            with open(self.path, "a") as log:
                log.write(f"{os.getpid()}\n")
            if self.reject:
                raise TypeError("fault-free target rejected")
        return _unpicklable_mid(ckt)

    def calls(self):
        with open(self.path) as log:
            return [int(pid) for pid in log.read().split()]


def _run_pooled(entry, spec):
    """``spec`` on a two-worker pool, from either entry point."""
    if entry == "campaign":
        return FaultCampaign(spec.technique, spec.detector,
                             threshold=spec.threshold,
                             workers=2).run(spec=spec)
    with CampaignScheduler(workers=2) as sched:
        return sched.submit(spec).result()


def _ladder_technique():
    return TransientSignatureTechnique(t_stop=2e-4, dt=1e-6, node="n3")


def _closure(technique):
    """``technique`` wrapped in a local function, which cannot pickle."""
    def closure_technique(ckt):
        return technique(ckt)
    return closure_technique


def _ladder_spec(technique, **overrides):
    """8 RC-ladder faults: each fault, and the reference, runs one
    transient."""
    return CampaignSpec(technique=technique,
                        detector=SignatureDetector(abs_v=0.05),
                        target=dictionary_ladder(n_sections=4),
                        faults=tuple(dictionary_faults(n_sections=4,
                                                       n_faults=8)),
                        threshold=0.0, **overrides)


def _spec(**overrides):
    base = dict(technique=_mid_voltage, detector=_shift_detector,
                target=divider(), faults=tuple(_divider_faults()),
                threshold=0.5)
    base.update(overrides)
    return CampaignSpec(**base)


# --- CampaignSpec ---------------------------------------------------------

class TestCampaignSpec:
    def test_frozen(self):
        spec = CampaignSpec(threshold=0.5)
        with pytest.raises(Exception):
            spec.threshold = 0.1

    def test_faults_coerced_to_tuple(self):
        spec = CampaignSpec(faults=_divider_faults())
        assert isinstance(spec.faults, tuple)

    @pytest.mark.parametrize("bad", [
        dict(threshold=1.5), dict(threshold=-0.1), dict(workers=0),
        dict(batch_size=0), dict(fault_timeout_s=0.0),
        dict(campaign_deadline_s=-1.0),
        dict(resume=True),                 # resume needs a checkpoint
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            CampaignSpec(**bad)

    def test_replace_revalidates(self):
        spec = CampaignSpec(workers=2)
        assert spec.replace(workers=4).workers == 4
        assert spec.workers == 2              # original untouched
        with pytest.raises(ValueError):
            spec.replace(threshold=3.0)

    def test_resolved_precedence(self):
        # spec value > caller fallback > DEFAULTS
        spec = CampaignSpec(workers=4)
        r = spec.resolved(workers=2, threshold=0.5)
        assert r.workers == 4
        assert r.threshold == 0.5
        assert r.batch_size == 1              # from DEFAULTS

    def test_content_key_is_stable_and_sensitive(self):
        a, b = _spec(), _spec()
        assert a.content_key() == b.content_key()
        assert a.content_key() != _spec(
            faults=tuple(_divider_faults()[:2])).content_key()
        assert a.content_key() != _spec(
            errors_as_detected=False).content_key()

    def test_threshold_not_in_context_key(self):
        # campaigns differing only in threshold share cached simulations
        assert _spec(threshold=0.2).context_key() == \
            _spec(threshold=0.9).context_key()
        assert _spec(fault_timeout_s=1.0).context_key() != \
            _spec().context_key()

    def test_live_objects_excluded_from_equality(self):
        base = _spec()
        assert base.replace(progress=print, cache=ResultCache()) == base


# --- ResultCache ----------------------------------------------------------

class TestResultCache:
    def test_hit_miss_accounting_and_zero_resims(self):
        cache = ResultCache()
        technique = _CountingTechnique()
        c = FaultCampaign(technique, _shift_detector, threshold=0.5,
                          cache=cache)
        cold = c.run(divider(), _divider_faults())
        assert technique.calls == 5           # reference + 4 faults
        assert cache.stats.misses == 4
        assert cache.stats.stores == 4
        assert cache.stats.hits == 0

        warm = c.run(divider(), _divider_faults())
        assert technique.calls == 5           # zero new simulations
        assert cache.stats.hits == 4
        assert cache.stats.stores == 4
        assert warm.reference is None         # reference never computed
        assert all(o.from_cache for o in warm.outcomes)
        assert _sans_wall(warm) == _sans_wall(cold)
        # per-outcome wall times replay exactly from the cache
        assert [o.elapsed_s for o in warm.outcomes] == \
            [o.elapsed_s for o in cold.outcomes]

    def test_hits_rethreshold_against_requesting_campaign(self):
        cache = ResultCache()

        def graded(ref, m):
            return 0.3 if abs(m - ref) > 0.5 else 0.0

        strict = FaultCampaign(_mid_voltage, graded, threshold=0.5,
                               cache=cache)
        first = strict.run(divider(), _divider_faults())
        assert first.n_detected == 0
        lax = FaultCampaign(_mid_voltage, graded, threshold=0.2,
                            cache=cache)
        second = lax.run(divider(), _divider_faults())
        assert cache.stats.hits == 4          # shared despite threshold
        assert cache.stats.stores == 4
        assert second.n_detected == sum(
            1 for o in first.outcomes if o.detection >= 0.2)

    def test_lru_eviction(self):
        cache = ResultCache(max_memory_entries=2)
        c = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          cache=cache)
        c.run(divider(), _divider_faults())
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_disk_tier_warm_start(self, tmp_path):
        path = str(tmp_path / "cache")
        cold = FaultCampaign(_CountingTechnique(), _shift_detector,
                             threshold=0.5,
                             cache=ResultCache(path=path)).run(
            divider(), _divider_faults())
        fresh = ResultCache(path=path)
        technique = _CountingTechnique()
        warm = FaultCampaign(technique, _shift_detector, threshold=0.5,
                             cache=fresh).run(divider(), _divider_faults())
        assert technique.calls == 0           # not even the reference
        assert fresh.stats.disk_hits == 4
        assert _sans_wall(warm) == _sans_wall(cold)

    def test_corrupt_entry_recomputes_never_crashes(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = ResultCache(path=path)
        c = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          cache=cache)
        cold = c.run(divider(), _divider_faults())
        context = _spec().context_key()
        key = fault_key(context, _divider_faults()[0])
        victim = os.path.join(path, key[:2], key + ".json")
        with open(victim, "w", encoding="utf-8") as fh:
            fh.write("{ not json")
        fresh = ResultCache(path=path)
        warm = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                             cache=fresh).run(divider(), _divider_faults())
        assert fresh.stats.corrupt == 1
        assert fresh.stats.disk_hits == 3
        assert os.path.exists(victim + ".corrupt")
        assert os.path.exists(victim)         # recomputation repopulated
        assert _normalized(warm) == _normalized(cold)

    def test_schema_and_key_mismatches_quarantined(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = ResultCache(path=path)
        context = _spec().context_key()
        fault = _divider_faults()[0]
        key = fault_key(context, fault)
        target = os.path.join(path, key[:2], key + ".json")
        os.makedirs(os.path.dirname(target))
        with open(target, "w", encoding="utf-8") as fh:
            json.dump({"schema": "someone-elses/9", "key": key,
                       "detection": 1.0, "detected": True, "error": None,
                       "elapsed_s": 0.1}, fh)
        assert cache.get(context, fault, 0.5) is None
        assert cache.stats.corrupt == 1

    def test_infrastructure_verdicts_never_cached(self):
        cache = ResultCache()
        fault = _divider_faults()[0]
        timed_out = FaultOutcome(fault=fault, detection=0.0, detected=False,
                                 timed_out=True)
        poisoned = FaultOutcome(fault=fault, detection=0.0, detected=False,
                                quarantined=True)
        assert not cache.put("ctx", timed_out)
        assert not cache.put("ctx", poisoned)
        assert cache.stats.stores == 0

    def test_warm_equals_cold_under_workers_and_batch(self):
        cache = ResultCache()
        spec = _spec(workers=2, batch_size=2, cache=cache)
        c = FaultCampaign(_mid_voltage, _shift_detector)
        cold = c.run(spec=spec)
        assert cache.stats.stores == 4
        warm = c.run(spec=spec)
        assert all(o.from_cache for o in warm.outcomes)
        assert cache.stats.stores == 4        # nothing recomputed
        assert _sans_wall(warm) == _sans_wall(cold)

    def test_cross_campaign_sharing_of_overlap(self):
        cache = ResultCache()
        faults = _divider_faults()
        c = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          cache=cache)
        c.run(divider(), faults[:3])
        assert cache.stats.stores == 3
        c.run(divider(), faults[1:])          # overlaps on two faults
        assert cache.stats.hits == 2
        assert cache.stats.stores == 4        # only the new fault stored


# --- CampaignScheduler ----------------------------------------------------

class TestCampaignScheduler:
    def test_concurrent_jobs_match_standalone_serial(self):
        faults_a, faults_b = _divider_faults(), _divider_faults()[:2]
        serial_a = FaultCampaign(_mid_voltage, _shift_detector,
                                 threshold=0.5).run(divider(), faults_a)
        serial_b = FaultCampaign(_mid_voltage, _shift_detector,
                                 threshold=0.5).run(divider(), faults_b)
        with CampaignScheduler(workers=2, name="svc") as sched:
            job_a = sched.submit(_spec(faults=tuple(faults_a), name="div"))
            job_b = sched.submit(_spec(faults=tuple(faults_b), name="div"))
            got_a, got_b = sched.gather(job_a, job_b)
        assert _normalized(got_a) == _normalized(serial_a)
        assert _normalized(got_b) == _normalized(serial_b)

    def test_sequential_jobs_share_the_cache(self):
        cache = ResultCache()
        with CampaignScheduler(workers=2, cache=cache) as sched:
            first = sched.submit(_spec()).result()
            second = sched.submit(_spec()).result()
        assert not any(o.from_cache for o in first.outcomes)
        assert all(o.from_cache for o in second.outcomes)
        assert cache.stats.stores == 4
        assert _sans_wall(second) == _sans_wall(first)

    def test_non_picklable_job_runs_on_the_dispatcher(self):
        threads = []

        def closure_technique(ckt):          # closures cannot pickle
            threads.append(threading.current_thread().name)
            return _mid_voltage(ckt)

        serial = FaultCampaign(_mid_voltage, _shift_detector,
                               threshold=0.5).run(divider(),
                                                  _divider_faults())
        with CampaignScheduler(workers=2, name="svc") as sched:
            got = sched.submit(_spec(technique=closure_technique)).result(
                timeout=60)
        assert set(threads) == {"svc-dispatch"}  # ran in-process
        assert _normalized(got) == _normalized(serial)

    def test_concurrent_unpicklable_jobs_keep_their_observations(self):
        # OBS is process-wide: two traced jobs evaluated in-process at
        # once must each bring home every counter and their job span,
        # exactly as the pooled route does
        def observed(technique):
            with observe() as handle:
                with CampaignScheduler(workers=2) as sched:
                    sched.gather(*[sched.submit(_ladder_spec(technique))
                                   for _ in range(2)], timeout=60)
            counters = handle.metrics.counter_values()
            return (counters["campaign.faults_evaluated"],
                    counters["transient.runs"],
                    [sp.name for sp in handle.tracer.spans
                     ].count("service.job"))

        pooled = observed(_ladder_technique())
        assert pooled == (16, 18, 2)
        assert observed(_closure(_ladder_technique())) == pooled

    def test_concurrent_unpicklable_jobs_keep_their_fault_deadlines(self):
        # DEADLINE is process-wide: per-fault budgets of two in-process
        # jobs must neither fail the other job nor outlive the run
        technique = _closure(_ladder_technique())
        spec = _ladder_spec(technique, fault_timeout_s=1.0)
        serial = FaultCampaign(technique, spec.detector,
                               threshold=0.0).run(spec=spec)
        with CampaignScheduler(workers=2) as sched:
            got = sched.gather(*[sched.submit(spec) for _ in range(2)],
                               timeout=60)
        assert serial.n_timeouts == 0
        assert [r.n_timeouts for r in got] == [0, 0]
        assert [_normalized(r) for r in got] == [_normalized(serial)] * 2
        assert DEADLINE.active is None
        technique(dictionary_ladder(n_sections=4))   # no stale deadline

    def test_every_route_counts_the_reference_simulation(self):
        # the scheduler dispatches the fault-free reference as its own
        # shard; its simulation counters must come home like the inline
        # reference of FaultCampaign.run
        spec = _ladder_spec(_ladder_technique())
        prefixes = ("transient.", "fastpath.", "mna.", "solver.")

        def sim_counters(run):
            with observe() as handle:
                run()
            return {name: value for name, value
                    in handle.metrics.counter_values().items()
                    if name.startswith(prefixes)}

        def scheduled(workers):
            with CampaignScheduler(workers=workers) as sched:
                sched.submit(spec).result()

        inline = sim_counters(lambda: FaultCampaign(
            spec.technique, spec.detector, threshold=0.0).run(spec=spec))
        assert inline["transient.runs"] == 9
        assert inline["fastpath.linear_march_runs"] == 9
        assert sim_counters(lambda: scheduled(1)) == inline
        assert sim_counters(lambda: scheduled(2)) == inline

    def test_unpicklable_measurement_matches_campaign(self, tmp_path):
        # the route is decided from the call the pool would pickle,
        # reference included: both entry points keep this job in-process
        # and record the same ledger row
        spec = _spec(technique=_unpicklable_mid, detector=_unpicklable_shift)
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        saved, OBS.ledger = OBS.ledger, ledger
        try:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                offline = FaultCampaign(_unpicklable_mid, _unpicklable_shift,
                                        threshold=0.5,
                                        workers=2).run(spec=spec)
            with CampaignScheduler(workers=2) as sched:
                served = sched.submit(spec).result()
        finally:
            OBS.ledger = saved
        assert _normalized(served) == _normalized(offline)
        assert offline.n_faults == 4 and offline.n_errors == 0
        fields = ("key", "name", "n_faults", "coverage", "partial",
                  "verdicts", "prescreen", "escalation_rate")
        row_offline, row_served = ledger.rows()
        assert ({f: row_offline[f] for f in fields}
                == {f: row_served[f] for f in fields})
        assert row_offline["job"] is None and row_served["job"]

    @pytest.mark.parametrize("entry", ["campaign", "scheduler"])
    def test_unpicklable_reference_is_handed_back_not_raised(self, tmp_path,
                                                            entry):
        # the worker probes its reference's pickle and hands back a
        # marker: the job goes in-process, where the reference is
        # simulated once more (the measurement cannot leave the worker)
        technique = _ReferenceLog(str(tmp_path / "calls"))
        spec = _spec(technique=technique, detector=_unpicklable_shift)
        if entry == "campaign":
            with pytest.warns(RuntimeWarning, match="not picklable"):
                result = _run_pooled(entry, spec)
        else:
            result = _run_pooled(entry, spec)
        serial = FaultCampaign(_unpicklable_mid, _unpicklable_shift,
                               threshold=0.5).run(spec=spec)
        assert _normalized(result) == _normalized(serial)
        worker, parent = technique.calls()
        assert worker != os.getpid() and parent == os.getpid()

    @pytest.mark.parametrize("entry", ["campaign", "scheduler"])
    def test_reference_that_raises_in_a_worker_runs_once(self, tmp_path,
                                                         entry):
        # a technique error is not a pickling failure: the job fails
        # with it, and the reference is never simulated again
        technique = _ReferenceLog(str(tmp_path / "calls"), reject=True)
        spec = _spec(technique=technique, detector=_unpicklable_shift)
        with pytest.raises(TypeError, match="target rejected"):
            _run_pooled(entry, spec)
        [worker] = technique.calls()
        assert worker != os.getpid()

    def test_submit_validates(self):
        sched = CampaignScheduler(workers=1)
        with pytest.raises(TypeError):
            sched.submit({"technique": _mid_voltage})
        with pytest.raises(ValueError, match="workload"):
            sched.submit(CampaignSpec(threshold=0.5))
        sched.close()
        with pytest.raises(CampaignError):
            sched.submit(_spec())

    def test_priority_and_fair_share_pick(self):
        # the dispatch key is pure: higher priority first, then the
        # job with the smaller served fraction, then submission order
        sched = CampaignScheduler(workers=1)

        def run_stub(priority, share, seq):
            return SimpleNamespace(job=SimpleNamespace(priority=priority),
                                   share=share, seq=seq,
                                   ready=deque(["shard"]))

        low, high = run_stub(0, 0.0, 1), run_stub(5, 0.9, 2)
        sched._active = [low, high]
        picked, _ = sched._next_shard()
        assert picked is high                # priority beats share

        behind, ahead = run_stub(0, 0.25, 3), run_stub(0, 0.75, 4)
        sched._active = [ahead, behind]
        picked, _ = sched._next_shard()
        assert picked is behind              # fair share among equals

    def test_progress_streams_through_campaign_progress(self):
        seen = []
        with CampaignScheduler(workers=1) as sched:
            sched.submit(_spec(progress=seen.append)).result()
        assert [(p.done, p.total) for p in seen] == [
            (1, 4), (2, 4), (3, 4), (4, 4)]
        assert seen[0].job                   # labelled with the job id
        assert "campaign[" in seen[0].describe()


# --- Session integration --------------------------------------------------

class TestSessionService:
    def test_submit_gather_runresult(self):
        serial = FaultCampaign(_mid_voltage, _shift_detector,
                               threshold=0.5).run(divider(),
                                                  _divider_faults())
        s = Session(workers=2, name="svc-test")
        try:
            job = s.submit(_mid_voltage, _shift_detector, divider(),
                           _divider_faults(), threshold=0.5)
            result, = s.gather(job)
        finally:
            s.shutdown()
        assert isinstance(result, RunResult)
        assert _normalized(result) == _normalized(serial)

    def test_submit_accepts_spec_with_option_overrides(self):
        s = Session(workers=1)
        try:
            job = s.submit(_spec(threshold=0.9), threshold=0.5)
            result, = s.gather(job)
        finally:
            s.shutdown()
        assert result.to_dict()["threshold"] == 0.5

    def test_submit_rejects_partial_positional_workload(self):
        s = Session()
        with pytest.raises(TypeError, match="CampaignSpec"):
            s.submit(_mid_voltage, _shift_detector, divider())
        assert s.gather() == []              # no scheduler ever created

    def test_session_cache_warms_run_campaign(self):
        s = Session(cache=ResultCache())
        cold = s.run_campaign(_mid_voltage, _shift_detector, divider(),
                              _divider_faults(), threshold=0.5)
        warm = s.run_campaign(_mid_voltage, _shift_detector, divider(),
                              _divider_faults(), threshold=0.5)
        assert all(o.from_cache for o in warm.outcomes)
        assert s.cache.stats.hits == 4
        # both runs traced through the session as usual
        assert [sp.name for sp in s.tracer.spans] == ["campaign", "campaign"]
        got, want = warm.to_dict(), cold.to_dict()
        got.pop("trace"), want.pop("trace")
        got.pop("elapsed_s"), want.pop("elapsed_s")
        assert got == want


# --- re-exports -----------------------------------------------------------

def test_service_names_reexported():
    import repro
    for name in ("CampaignSpec", "ResultCache", "CampaignScheduler"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
