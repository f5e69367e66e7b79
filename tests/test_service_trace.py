"""End-to-end service tracing, the persistent run ledger and the live
campaign dashboard.

The tentpole invariant under test: one ``Session.submit()`` — pooled,
batched, prescreened, cached, any mix — produces ONE connected trace in
the session tracer (``orphan_spans`` empty), with every
:class:`FaultOutcome` carrying a reference to the span that produced it
and worker-recorded spans stamped with their pid.  Alongside: the
ledger's append/read/trend discipline (torn lines never poison the
history), the dashboard's pure rendering + atomic status file, and the
``python -m repro.obs ledger|top`` command line.
"""

import io
import json
import os
import pickle
import time

import pytest

from repro import CampaignScheduler, CampaignSpec, ResultCache, Session
from repro import obs
from repro.faults import FaultCampaign, StuckAtFault
from repro.faults.campaign import (
    FaultOutcome,
    _evaluate_fault,
    _graft_spans,
)
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.obs import export, profile
from repro.obs.core import OBS, enable_from_env
from repro.obs.dashboard import (
    STATUS_SCHEMA,
    read_status,
    render_frame,
    status_snapshot,
    watch,
    write_status,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    render_trend,
    runtime_meta,
)
from repro.obs.trace import Span, TraceContext, Tracer, orphan_spans
from repro.obs.__main__ import main as obs_main
from repro.signals.prbs import prbs_waveform
from repro.spice import Circuit, dc_operating_point


# --- fixtures (module-level so process pools can pickle them) -------------

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


def _spec(**overrides):
    base = dict(technique=_mid_voltage, detector=_shift_detector,
                target=divider(), faults=tuple(_divider_faults()),
                threshold=0.5)
    base.update(overrides)
    return CampaignSpec(**base)


def _dictionary_spec(n_sections=4, n_faults=8, **overrides):
    stimulus = prbs_waveform(order=4, chip_time=50e-6, low=0.0, high=5.0,
                             dt=1e-6, seed=3)
    technique = TransientSignatureTechnique(t_stop=stimulus.duration,
                                            dt=1e-6,
                                            node=f"n{n_sections - 1}")
    base = dict(technique=technique,
                detector=SignatureDetector(abs_v=0.05),
                target=dictionary_ladder(n_sections=n_sections,
                                         stimulus=stimulus),
                faults=tuple(dictionary_faults(n_sections=n_sections,
                                               n_faults=n_faults)),
                threshold=0.05)
    base.update(overrides)
    return CampaignSpec(**base)


def _span_names(span, out=None):
    out = [] if out is None else out
    out.append(span.name)
    for child in span.children:
        _span_names(child, out)
    return out


# --- TraceContext ---------------------------------------------------------

class TestTraceContext:
    def test_capture_none_when_disabled(self):
        assert not OBS.enabled
        assert TraceContext.capture() is None

    def test_capture_records_trace_id_and_open_path(self):
        with obs.observe() as o:
            with o.tracer.span("outer"):
                with o.tracer.span("inner"):
                    ctx = TraceContext.capture()
        assert ctx.trace_id == o.tracer.trace_id
        assert ctx.parent == "outer/inner"
        assert ctx.attrs() == {"trace_id": ctx.trace_id,
                               "parent": "outer/inner"}

    def test_adopt_takes_identity_and_none_is_noop(self):
        ctx = TraceContext(trace_id="abcd1234")
        t = Tracer()
        before = t.trace_id
        assert t.adopt(None) is t
        assert t.trace_id == before
        t.adopt(ctx)
        assert t.trace_id == "abcd1234"

    def test_pickles_for_pool_task_tuples(self):
        ctx = TraceContext(trace_id="feed", parent="campaign")
        assert pickle.loads(pickle.dumps(ctx)) == ctx


# --- worker span shipping + grafting --------------------------------------

class TestSpanShipping:
    def test_evaluate_fault_ships_adopted_spans(self):
        ctx = TraceContext(trace_id="cafe0001", parent="campaign")
        ref = _mid_voltage(divider())
        outcome = _evaluate_fault(_mid_voltage, _shift_detector, 0.5,
                                  "detected", True, None, divider(), ref,
                                  ctx, StuckAtFault.sa0("mid"))
        assert outcome.span == "cafe0001:campaign/fault.evaluate"
        (root,) = outcome.spans
        assert root.name == "fault.evaluate"
        assert root.attrs["trace_id"] == "cafe0001"
        assert root.attrs["parent"] == "campaign"
        assert root.pid == os.getpid()
        assert root.duration_s is not None

    def test_shipped_fields_stay_out_of_to_dict(self):
        ctx = TraceContext(trace_id="cafe0002")
        ref = _mid_voltage(divider())
        outcome = _evaluate_fault(_mid_voltage, _shift_detector, 0.5,
                                  "detected", True, None, divider(), ref,
                                  ctx, StuckAtFault.sa0("mid"))
        doc = outcome.to_dict()
        assert "spans" not in doc and "span" not in doc

    def test_graft_moves_forest_and_stamps_worker_pid(self):
        parent = Span("campaign")
        shipped = Span("fault.evaluate")
        shipped.close()
        outcome = FaultOutcome(fault=StuckAtFault.sa0("mid"), detection=1.0,
                               detected=True, worker_pid=4242)
        outcome.spans = [shipped]
        _graft_spans(parent, outcome)
        assert parent.children == [shipped]
        assert shipped.attrs["worker_pid"] == 4242
        assert outcome.spans is None         # shipped exactly once

    def test_graft_synthesises_provenance_spans(self):
        parent = Span("campaign")
        cached = FaultOutcome(fault=StuckAtFault.sa0("mid"), detection=1.0,
                              detected=True, from_cache=True)
        prescreened = FaultOutcome(fault=StuckAtFault.sa1("mid"),
                                   detection=0.0, detected=False,
                                   decided_by="surrogate")
        _graft_spans(parent, cached)
        _graft_spans(parent, prescreened)
        names = [c.name for c in parent.children]
        assert names == ["fault.cached", "fault.prescreened"]
        assert parent.children[0].attrs["from_cache"] is True
        assert parent.children[1].attrs["decided_by"] == "surrogate"
        assert cached.span == "campaign/fault.cached"
        assert prescreened.span == "campaign/fault.prescreened"
        assert all(c.duration_s == 0.0 for c in parent.children)


# --- campaign trace trees -------------------------------------------------

class TestCampaignTrace:
    def test_serial_campaign_trace_is_connected(self):
        with obs.observe() as o:
            result = FaultCampaign(_mid_voltage, _shift_detector,
                                   threshold=0.5).run(divider(),
                                                      _divider_faults())
        (root,) = o.tracer.spans
        kids = [(c.name, c.attrs["fault"]) for c in root.children
                if c.name.startswith("fault.")]
        assert kids == [("fault.evaluate", f.describe())
                        for f in _divider_faults()]
        assert orphan_spans(o.tracer) == []
        assert all(oc.span for oc in result.outcomes)

    def test_pooled_campaign_spans_carry_worker_pids(self):
        with obs.observe() as o:
            result = FaultCampaign(_mid_voltage, _shift_detector,
                                   threshold=0.5, workers=2).run(
                divider(), _divider_faults())
        (root,) = o.tracer.spans
        evaluates = [c for c in root.children if c.name == "fault.evaluate"]
        assert len(evaluates) == 4
        assert all(c.pid is not None and c.pid != os.getpid()
                   for c in evaluates)
        assert all(c.attrs["worker_pid"] == c.pid for c in evaluates)
        assert orphan_spans(o.tracer) == []
        # the span reference points at the grafted position
        tid = o.tracer.trace_id
        assert all(oc.span == f"{tid}:campaign/fault.evaluate"
                   for oc in result.outcomes)

    def test_batched_pooled_campaign_records_batch_spans(self):
        spec = _dictionary_spec()
        with obs.observe() as o:
            result = FaultCampaign(spec.technique, spec.detector,
                                   threshold=spec.threshold, workers=2,
                                   batch_size=4).run(spec.target,
                                                     list(spec.faults))
        (root,) = o.tracer.spans
        batch_spans = [c for c in root.children if c.name == "fault.batch"]
        assert batch_spans                   # the batched path was traced
        assert all(c.pid != os.getpid() for c in batch_spans)
        assert orphan_spans(o.tracer) == []
        assert all(oc.span for oc in result.outcomes)

    def test_warm_cache_rerun_traces_synthetic_spans(self):
        cache = ResultCache()
        spec = CampaignSpec(cache=cache)
        camp = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5)
        camp.run(divider(), _divider_faults(), spec=spec)
        with obs.observe() as o:
            warm = camp.run(divider(), _divider_faults(), spec=spec)
        (root,) = o.tracer.spans
        assert [c.name for c in root.children] == ["fault.cached"] * 4
        assert all(oc.span == "campaign/fault.cached"
                   for oc in warm.outcomes)
        assert orphan_spans(o.tracer) == []

    def test_chrome_export_separates_worker_rows(self):
        with obs.observe() as o:
            FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          workers=2).run(divider(), _divider_faults())
        events = export.chrome_trace(o.tracer)["traceEvents"]
        pids = {e["pid"] for e in events if e["name"] == "fault.evaluate"}
        assert pids and os.getpid() not in pids
        campaign_pid = {e["pid"] for e in events if e["name"] == "campaign"}
        assert campaign_pid == {os.getpid()}


# --- scheduler / session trace --------------------------------------------

class TestServiceTrace:
    def test_submitted_job_joins_the_session_trace(self):
        serial = FaultCampaign(_mid_voltage, _shift_detector,
                               threshold=0.5).run(divider(),
                                                  _divider_faults())
        s = Session(workers=2, name="trace")
        try:
            result, = s.gather(s.submit(_spec()))
        finally:
            s.shutdown()
        roots = [sp.name for sp in s.tracer.spans]
        assert "service.submit" in roots
        assert "service.job" in roots
        job = next(sp for sp in s.tracer.spans if sp.name == "service.job")
        kid_names = set(_span_names(job)) - {"service.job"}
        assert "fault.evaluate" in kid_names
        assert "service.shard" in kid_names
        assert orphan_spans(s.tracer) == []
        assert all(o.span for o in result.outcomes)
        # worker spans are pid-stamped; the job span belongs here
        assert job.pid == os.getpid()
        evaluates = [c for c in job.children if c.name == "fault.evaluate"]
        assert all(c.pid != os.getpid() for c in evaluates)
        # verdicts unchanged by all of the above
        assert ([(o.fault.describe(), o.detected) for o in result.outcomes]
                == [(o.fault.describe(), o.detected)
                    for o in serial.outcomes])

    def test_watch_then_gather_still_joins_trace(self):
        # A job that finalises while the submitter sits in watch() (no
        # observation scope ambient on the dispatcher) must still join
        # the session trace when gather() collects it.
        s = Session(workers=2, name="watcher")
        try:
            job = s.submit(_spec())
            while not job.done():
                time.sleep(0.01)
            buf = io.StringIO()
            s.watch(interval=0.01, out=buf, max_frames=1)
            result, = s.gather(job)
            # parked payload is drained exactly once
            result2, = s.gather(job)
        finally:
            s.shutdown()
        roots = [sp.name for sp in s.tracer.spans]
        assert roots.count("service.job") == 1
        assert orphan_spans(s.tracer) == []
        job_span = next(sp for sp in s.tracer.spans
                        if sp.name == "service.job")
        assert "fault.evaluate" in set(_span_names(job_span))
        assert all(o.span for o in result.outcomes)
        assert result2 is result

    @pytest.mark.surrogate
    def test_scheduler_prescreen_matches_standalone(self):
        spec = _dictionary_spec(prescreen="surrogate")
        standalone = FaultCampaign(spec.technique, spec.detector,
                                   threshold=spec.threshold).run(
            spec.target, list(spec.faults),
            spec=CampaignSpec(prescreen="surrogate"))
        with CampaignScheduler(workers=2, name="pre") as sched:
            scheduled = sched.submit(spec).result()
        assert ([(o.fault.describe(), o.detected, o.decided_by)
                 for o in scheduled.outcomes]
                == [(o.fault.describe(), o.detected, o.decided_by)
                    for o in standalone.outcomes])
        assert scheduled.n_prescreened == standalone.n_prescreened > 0

    @pytest.mark.surrogate
    def test_service_prescreen_runs_inside_its_job(self):
        # the prescreen is a shard of its job: its spans graft under the
        # job span, not into whatever scope the dispatcher sees
        s = Session(workers=2, name="pretrace")
        try:
            result, = s.gather(s.submit(_dictionary_spec(
                prescreen="surrogate")))
        finally:
            s.shutdown()
        assert result.n_prescreened > 0
        assert [sp.name for sp in s.tracer.spans] == ["service.submit",
                                                      "service.job"]
        job_span = s.tracer.spans[1]
        assert "surrogate.prescreen" in _span_names(job_span)
        assert "service.prescreen" in _span_names(job_span)
        assert orphan_spans(s.tracer) == []

    @pytest.mark.surrogate
    def test_surrogate_verdicts_stay_in_their_cache_context(self):
        cache = ResultCache()
        spec = _dictionary_spec(prescreen="surrogate", cache=cache)
        with CampaignScheduler(workers=2, name="iso") as sched:
            first = sched.submit(spec).result()
            plain = sched.submit(spec.replace(prescreen=None)).result()
        assert first.n_prescreened > 0
        # surrogate verdicts never replay into the unprescreened run —
        # they live under the surrogate context key
        for cached, fresh in zip(first.outcomes, plain.outcomes):
            assert fresh.decided_by == "transient"
            if cached.decided_by == "surrogate":
                assert not fresh.from_cache
            assert fresh.detected == cached.detected

    def test_cache_stats_surface_in_summary(self):
        cache = ResultCache()
        camp = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5)
        cold = camp.run(divider(), _divider_faults(),
                        spec=CampaignSpec(cache=cache))
        warm = camp.run(divider(), _divider_faults(),
                        spec=CampaignSpec(cache=cache))
        assert "cache: 0/4 hits" in cold.summary()
        assert "cache: 4/4 hits (100%" in warm.summary()
        # per-run deltas, not the cache's lifetime totals
        assert warm.cache_stats.hits == 4
        assert warm.cache_stats.misses == 0
        assert cache.stats.lookups == 8

    def test_session_report_carries_cache_stats(self):
        s = Session(cache=ResultCache(), name="stats")
        s.run_campaign(_mid_voltage, _shift_detector, divider(),
                       _divider_faults(), threshold=0.5)
        assert "cache: 0/4 hits" in s.report()


# --- the E7 acceptance run ------------------------------------------------

@pytest.mark.surrogate
class TestE7ServiceTrace:
    def test_single_connected_trace_ledger_row_and_coverage(
            self, tmp_path, capsys):
        from repro.verify.surrogate_diff import e7_workload
        target, technique, detector, faults, threshold = e7_workload()
        ledger_path = tmp_path / "ledger.jsonl"
        s = Session(workers=2, name="e7", ledger=str(ledger_path))
        try:
            job = s.submit(CampaignSpec(
                technique=technique, detector=detector, target=target,
                faults=faults, threshold=threshold,
                batch_size=8, prescreen="surrogate"))
            result, = s.gather(job)
        finally:
            s.shutdown()

        # one connected trace: no orphan spans, every outcome referenced
        assert orphan_spans(s.tracer) == []
        assert all(o.span for o in result.outcomes)
        job_span = next(sp for sp in s.tracer.spans
                        if sp.name == "service.job")
        assert "service.prescreen" in _span_names(job_span)
        assert job_span.attrs["trace_id"] == s.tracer.trace_id

        # >= 90% of the wall clock is attributed to named spans
        report = profile.aggregate(s.tracer)
        assert report.coverage >= 0.9, report.table()

        # the chrome export is loadable and pid-annotated throughout
        events = export.chrome_trace(s.tracer)["traceEvents"]
        assert events
        assert all("pid" in e for e in events)
        json.dumps(events)                   # serialisable

        # the run landed in the ledger, keyed by the spec's content key
        led = RunLedger(str(ledger_path))
        rows = led.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["schema"] == LEDGER_SCHEMA
        assert row["n_faults"] == len(faults) == result.n_faults
        assert row["prescreen"] == "surrogate"
        assert row["verdicts"]["prescreened"] == result.n_prescreened
        assert row["job"] == job.id
        assert row["meta"]["python"]

        # ...and `python -m repro.obs ledger trend` shows it
        assert obs_main(["ledger", "trend", "--path",
                         str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert row["key"][:12] in out
        assert "runs=1" in out


# --- run ledger -----------------------------------------------------------

class TestRunLedger:
    def test_append_read_round_trip_and_torn_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        led = RunLedger(str(path))
        led.record({"key": "k1", "elapsed_s": 1.0})
        led.record({"key": "k2", "elapsed_s": 2.0})
        # a crashed writer's torn line must be skipped, not fatal
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k3", "elapsed')
        rows = led.rows()
        assert [r["key"] for r in rows] == ["k1", "k2"]
        assert led.corrupt == 1
        assert all(r["schema"] == LEDGER_SCHEMA for r in rows)
        assert led.rows(key="k2")[0]["elapsed_s"] == 2.0
        assert led.latest("k1")["elapsed_s"] == 1.0

    def test_rows_skip_a_torn_non_utf8_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        led = RunLedger(str(path))
        led.record({"key": "a", "elapsed_s": 1.0})
        with open(path, "ab") as fh:
            fh.write(b'{"key": "b\xff\xfe')
        assert [r["key"] for r in led.rows()] == ["a"]
        assert led.corrupt == 1

    def test_missing_file_reads_empty(self, tmp_path):
        led = RunLedger(str(tmp_path / "nope.jsonl"))
        assert led.rows() == []
        assert led.latest("k") is None

    def test_campaign_row_built_from_result(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        with obs.observe(ledger=led):
            result = FaultCampaign(_mid_voltage, _shift_detector,
                                   threshold=0.5).run(
                divider(), _divider_faults(),
                spec=CampaignSpec(cache=ResultCache()))
        (row,) = led.rows()
        v = row["verdicts"]
        assert v["detected"] + v["missed"] + v["errors"] == 4
        assert v["detected"] == result.n_detected
        assert row["coverage"] == result.coverage
        assert row["escalation_rate"] is None        # no prescreen ran
        assert row["cache"]["misses"] == 4
        assert len(row["key"]) == 64                 # sha-256 content key
        assert row["meta"]["python"]

    @pytest.mark.parametrize("route", [
        "campaign-workers1", "campaign-workers2", "campaign-batch8",
        "campaign-prescreen", "scheduler-workers1", "scheduler-workers2",
        "scheduler-prescreen"])
    def test_campaign_row_counters_equal_the_scope(self, tmp_path, route):
        # one observed job alone in a fresh scope: its row's engine
        # counters are the scope's, fault-free reference and prescreen
        # included, whichever route ran it
        entry, _, option = route.partition("-")
        spec = _dictionary_spec(
            prescreen="surrogate" if option == "prescreen" else None)
        workers = int(option[-1]) if option.startswith("workers") else 1
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        with obs.observe(ledger=led) as handle:
            if entry == "campaign":
                FaultCampaign(spec.technique, spec.detector,
                              threshold=spec.threshold, workers=workers,
                              batch_size=8 if option == "batch8" else 1
                              ).run(spec=spec)
            else:
                sched = CampaignScheduler(workers=workers)
                try:
                    sched.submit(spec).result()
                finally:
                    sched.close()
        (row,) = led.rows()
        engine = ("solver.", "transient.", "mna.", "fastpath.", "batched.",
                  "surrogate.")
        scope = {name: value for name, value
                 in handle.metrics.counter_values().items()
                 if name.startswith(engine)}
        assert scope["solver.newton_solves"] >= 9     # reference + 8 faults
        assert {name: value for name, value in row["counters"].items()
                if name.startswith(engine)} == scope

    def test_ledger_works_with_recording_off(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        saved = OBS.ledger
        OBS.ledger = led
        try:
            assert not OBS.enabled
            FaultCampaign(_mid_voltage, _shift_detector,
                          threshold=0.5).run(divider(), _divider_faults())
        finally:
            OBS.ledger = saved
        assert len(led.rows()) == 1

    def test_env_var_installs_ambient_ledger(self, tmp_path):
        saved = OBS.ledger
        OBS.ledger = None
        try:
            enable_from_env({"REPRO_OBS_LEDGER":
                             str(tmp_path / "amb.jsonl")})
            assert isinstance(OBS.ledger, RunLedger)
            assert not OBS.enabled           # the ledger alone never
        finally:                             # switches span recording on
            OBS.ledger = saved

    def test_trend_flags_regression(self):
        rows = [{"key": "deadbeef", "name": "div", "elapsed_s": t}
                for t in (1.0, 1.0, 1.0, 5.0)]
        text = render_trend({"deadbeef": rows}, threshold=1.15)
        assert "REGRESSED" in text
        steady = render_trend(
            {"deadbeef": rows[:3]}, threshold=1.15)
        assert "REGRESSED" not in steady

    def test_trend_median_of_an_even_count(self):
        # the median of four runs is the mean of the middle two (1.2),
        # so the latest 1.4 s run is a 1.17x regression
        rows = [{"key": "deadbeef", "name": "div", "elapsed_s": t}
                for t in (1.0, 1.0, 1.4, 1.4)]
        text = render_trend({"deadbeef": rows}, threshold=1.15)
        assert "median=1.200s" in text
        assert "ratio=1.17  REGRESSED" in text

    def test_cli_list_show_trend(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        led = RunLedger(str(path))
        led.record({"key": "aaaa", "name": "div", "elapsed_s": 1.0,
                    "n_faults": 4, "verdicts": {"detected": 2}})
        led.record({"key": "aaaa", "name": "div", "elapsed_s": 1.1,
                    "n_faults": 4, "verdicts": {"detected": 2}})
        assert obs_main(["ledger", "list", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/4 detected" in out
        assert obs_main(["ledger", "show", "--path", str(path),
                         "--index", "0"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["elapsed_s"] == 1.0
        assert obs_main(["ledger", "trend", "--path", str(path)]) == 0
        assert "runs=2" in capsys.readouterr().out

    def test_cli_requires_a_path(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_LEDGER", raising=False)
        assert obs_main(["ledger", "list"]) == 2
        assert "REPRO_OBS_LEDGER" in capsys.readouterr().err

    def test_runtime_meta_degrades_gracefully(self):
        meta = runtime_meta()
        assert set(meta) == {"hostname", "python", "git_commit",
                             "git_dirty", "numpy"}
        assert meta["python"]

    def test_runtime_meta_asks_git_once_per_process(self, tmp_path,
                                                    monkeypatch):
        import subprocess

        import repro
        from repro.obs import ledger as ledger_mod
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(ledger_mod.subprocess, "run", counting_run)
        ledger_mod._runtime_meta.cache_clear()
        try:
            led = RunLedger(str(tmp_path / "ledger.jsonl"))
            first = led.record({"key": "k"})
            second = led.record({"key": "k"})
        finally:
            ledger_mod._runtime_meta.cache_clear()
        # at most `git rev-parse` + `git status`, both asked about the
        # tree the package was imported from, for both rows together
        assert 1 <= len(calls) <= 2
        assert set(calls) == {os.path.dirname(os.path.abspath(
            repro.__file__))}
        assert first["meta"] == second["meta"]
        # callers get their own copy of the cached block
        first["meta"]["hostname"] = "mutated"
        assert runtime_meta()["hostname"] != "mutated"


# --- live dashboard -------------------------------------------------------

class TestDashboard:
    def test_render_empty_and_idle(self):
        assert render_frame({}) == "(no status yet)"
        frame = render_frame({"schema": STATUS_SCHEMA, "scheduler": "svc",
                              "workers": 2, "jobs_active": 0,
                              "shards_queued": 0, "jobs": [],
                              "cache": None})
        assert "svc: 2 workers, 0 jobs active" in frame
        assert "(idle)" in frame

    def test_render_job_line_with_eta_and_cache(self):
        snap = {"scheduler": "svc", "workers": 4, "jobs_active": 1,
                "shards_queued": 3,
                "cache": {"hits": 3, "misses": 1},
                "jobs": [{"job": "svc-job1", "done": 8, "total": 16,
                          "fraction": 0.5, "elapsed_s": 4.0, "eta_s": 4.0,
                          "rate_per_s": 2.0, "fault": "R3 short",
                          "fault_elapsed_s": 0.1, "worker_pid": 77}]}
        frame = render_frame(snap)
        assert "cache 75% hit (3/4)" in frame
        assert "svc-job1" in frame
        assert "8/16 ( 50%)" in frame
        assert "!straggler" not in frame     # 0.1 s at 2/s is healthy

    def test_render_flags_stragglers(self):
        snap = {"scheduler": "svc", "workers": 1, "jobs_active": 1,
                "shards_queued": 0, "cache": None,
                "jobs": [{"job": "j", "done": 5, "total": 10,
                          "fraction": 0.5, "eta_s": 1.0,
                          "rate_per_s": 2.0, "fault": "slowpoke",
                          "fault_elapsed_s": 10.0, "worker_pid": 42}]}
        frame = render_frame(snap)
        assert "!straggler: slowpoke 10.0s pid 42" in frame

    def test_status_file_round_trip(self, tmp_path):
        path = str(tmp_path / "deep" / "status.json")
        snap = {"schema": STATUS_SCHEMA, "scheduler": "svc", "jobs": []}
        write_status(snap, path)
        assert read_status(path) == snap
        assert read_status(str(tmp_path / "missing.json")) is None
        # unparsable content degrades to None, never raises
        with open(path, "w") as fh:
            fh.write("{torn")
        assert read_status(path) is None

    def test_scheduler_publishes_status(self, tmp_path):
        path = str(tmp_path / "status.json")
        with CampaignScheduler(workers=1, name="pub",
                               status_path=path) as sched:
            sched.submit(_spec()).result()
        snap = read_status(path)
        assert snap is not None
        assert snap["schema"] == STATUS_SCHEMA
        assert snap["scheduler"] == "pub"
        assert snap["jobs_active"] == 0      # final forced publish

    def test_status_snapshot_reads_live_scheduler(self):
        sched = CampaignScheduler(workers=2, name="snap",
                                  cache=ResultCache())
        try:
            snap = status_snapshot(sched)
        finally:
            sched.close()
        assert snap["schema"] == STATUS_SCHEMA
        assert snap["workers"] == 2
        assert snap["jobs"] == []
        assert snap["cache"]["hits"] == 0

    def test_watch_renders_until_done(self):
        frames = iter([{}, {"scheduler": "svc", "workers": 1,
                            "jobs_active": 0, "shards_queued": 0,
                            "jobs": []}])
        ticks = []
        out = io.StringIO()
        last = watch(lambda: next(frames), out=out, interval=0.0,
                     done=lambda: ticks.append(1) or len(ticks) >= 2)
        assert "(no status yet)" in out.getvalue()
        assert "(idle)" in last

    def test_session_watch_after_jobs_finish(self):
        s = Session(workers=1, name="w")
        try:
            s.gather(s.submit(_spec()))
            out = io.StringIO()
            frame = s.watch(interval=0.0, out=out)
        finally:
            s.shutdown()
        assert "w-svc" in frame
        assert out.getvalue().strip()

    def test_session_watch_without_scheduler(self):
        out = io.StringIO()
        assert Session(name="idle").watch(out=out) == "(no status yet)"

    def test_cli_top_once(self, tmp_path, capsys):
        path = str(tmp_path / "status.json")
        write_status({"schema": STATUS_SCHEMA, "scheduler": "svc",
                      "workers": 3, "jobs_active": 0, "shards_queued": 0,
                      "jobs": []}, path)
        assert obs_main(["top", "--status", path, "--once"]) == 0
        assert "svc: 3 workers" in capsys.readouterr().out

    def test_cli_top_requires_status_path(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_STATUS", raising=False)
        assert obs_main(["top"]) == 2
        assert "REPRO_OBS_STATUS" in capsys.readouterr().err
