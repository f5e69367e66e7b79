"""Observability v2: exporters, span profiling, structured event log,
campaign health and the benchmark-telemetry pipeline."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro import obs
from repro.faults import FaultCampaign, StuckAtFault
from repro.obs import bench as obs_bench
from repro.obs import export, profile
from repro.obs.health import CampaignProgress, straggler_report
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger
from repro.obs.log import EventLog
from repro.obs.trace import Tracer
from repro.service import CampaignSpec
from repro.session import RunResult, Session
from repro.spice import Circuit, dc_operating_point, transient
from repro.spice.solver import NewtonError
from repro.spice.transient import GridMismatchWarning


def divider() -> Circuit:
    ckt = Circuit("div")
    ckt.vsource("V1", "top", "0", 5.0)
    ckt.resistor("R1", "top", "mid", 1e3)
    ckt.resistor("R2", "mid", "0", 1e3)
    return ckt


def rc_circuit() -> Circuit:
    ckt = Circuit("rc")
    ckt.vsource("VIN", "in", "0", lambda t: 5.0 if t > 0 else 0.0)
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.capacitor("C1", "out", "0", 1e-6)
    return ckt


# module-level so the process-pool campaign can pickle them
def _mid_voltage(ckt):
    v, _ = dc_operating_point(ckt)
    return v["mid"]


def _shift_detector(ref, m):
    return 1.0 if abs(m - ref) > 0.5 else 0.0


def _divider_faults():
    return [StuckAtFault.sa0("mid"), StuckAtFault.sa1("mid"),
            StuckAtFault.sa0("top"), StuckAtFault.sa1("top")]


# ---------------------------------------------------------------------------
# satellite fixes in the tracer


class TestTracerV2:
    def test_orphan_children_tagged_truncated(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        tracer.start("innermost")
        # non-local exit: finish the outer span directly; the two open
        # children are closed on the way and tagged
        tracer.finish(outer)
        inner = outer.children[0]
        innermost = inner.children[0]
        assert inner.attrs["truncated"] is True
        assert innermost.attrs["truncated"] is True
        assert "truncated" not in outer.attrs
        assert inner.duration_s is not None

    def test_clean_exit_not_tagged(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert "truncated" not in tracer.spans[0].attrs
        assert "truncated" not in tracer.spans[0].children[0].attrs

    def test_len_is_running_count(self):
        tracer = Tracer()
        assert len(tracer) == 0
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert len(tracer) == 3 == len(tracer.events())
        tracer.reset()
        assert len(tracer) == 0

    def test_spans_record_cpu_time(self):
        tracer = Tracer()
        with tracer.span("busy"):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.01:
                sum(range(100))
        span = tracer.spans[0]
        assert span.cpu_s is not None and span.cpu_s > 0.0
        assert span.to_dict()["cpu_s"] == span.cpu_s

    def test_memory_profiling_records_peaks(self):
        tracer = Tracer(profile_memory=True)
        tracemalloc.start()
        try:
            with tracer.span("alloc"):
                blob = [0] * 200_000
                del blob
        finally:
            tracemalloc.stop()
        span = tracer.spans[0]
        assert span.mem_peak is not None
        assert span.mem_peak > 100_000          # list of 200k ints >> 100 kB
        assert span.to_dict()["mem_peak_bytes"] == span.mem_peak

    def test_no_memory_profiling_by_default(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.spans[0].mem_peak is None


# ---------------------------------------------------------------------------
# exporters


class TestChromeTraceExport:
    def test_required_keys_and_tree_match(self):
        with obs.observe() as o:
            transient(rc_circuit(), t_stop=1e-4, dt=1e-6, record=["out"])
            dc_operating_point(divider())
        doc = export.chrome_trace(o.tracer)
        text = json.dumps(doc)
        parsed = json.loads(text)
        events = parsed["traceEvents"]
        assert len(events) == len(o.tracer.events())
        for ev in events:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in ev
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0
        names = {ev["name"] for ev in events}
        assert {"transient", "dc_operating_point"} <= names

    def test_epoch_anchoring_and_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = export.chrome_trace_events(tracer)
        by_name = {ev["name"]: ev for ev in events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] == 0.0                      # per-trace epoch
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        assert "cpu_ms" in outer["args"]

    def test_open_spans_skipped(self):
        tracer = Tracer()
        tracer.start("open")
        assert export.chrome_trace_events(tracer) == []

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", x=1):
            pass
        path = tmp_path / "trace.json"
        export.write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["args"]["x"] == 1


class TestPrometheusExport:
    def test_round_trip(self):
        m = obs.Metrics()
        m.counter("solver.newton_solves").inc(7)
        m.gauge("campaign.worker_utilization").set(0.85)
        for v in (1e-4, 2e-3, 0.5, 3.0):
            m.histogram("campaign.fault_wall_s").observe(v)
        text = export.prometheus_text(m)
        parsed = export.parse_prometheus_text(text)
        assert parsed["repro_solver_newton_solves"]["value"] == 7.0
        assert parsed["repro_solver_newton_solves"]["type"] == "counter"
        util = parsed["repro_campaign_worker_utilization"]
        assert util["value"] == pytest.approx(0.85)
        hist = parsed["repro_campaign_fault_wall_s"]
        assert hist["count"] == 4.0
        assert hist["sum"] == pytest.approx(1e-4 + 2e-3 + 0.5 + 3.0)
        # buckets are cumulative and end at the full count
        assert hist["buckets"]["+Inf"] == 4.0
        cum = [hist["buckets"][k] for k in hist["buckets"]]
        assert cum == sorted(cum)

    def test_name_sanitisation(self):
        m = obs.Metrics()
        m.counter("weird-name.with/slash").inc()
        text = export.prometheus_text(m)
        assert "repro_weird_name_with_slash_total 1" in text

    def test_empty_registry(self):
        assert export.prometheus_text(obs.Metrics()) == ""

    def test_hostile_names_survive_sanitisation(self):
        # user-supplied job labels become metric names
        # (service.job.<id>.progress) — the exporter must emit legal
        # 0.0.4 names for arbitrary input
        assert export._prom_name("", "repro") == "repro__"
        assert export._prom_name("", "") == "_"
        assert export._prom_name("7seg adc", "") == "_7seg_adc"
        assert export._prom_name('job{evil="x"}', "repro") == \
            "repro_job_evil__x__"
        assert export._prom_label_name("job name") == "job_name"
        assert export._prom_label_name("9digit") == "_9digit"

    def test_hostile_labels_round_trip(self):
        m = obs.Metrics()
        m.counter("9weird job{name}").inc(3)
        m.gauge("service.job.progress").set(0.5)
        labels = {"job name": 'evil "quoted\\path"\nnext',
                  "9digit": "braces{}and,commas=ok"}
        text = export.prometheus_text(m, labels=labels)
        parsed = export.parse_prometheus_text(text)
        rec = parsed["repro__9weird_job_name_"]
        assert rec["value"] == 3.0
        assert rec["labels"]["job_name"] == 'evil "quoted\\path"\nnext'
        assert rec["labels"]["_9digit"] == "braces{}and,commas=ok"
        gauge = parsed["repro_service_job_progress"]
        assert gauge["value"] == 0.5
        assert gauge["labels"]["job_name"] == 'evil "quoted\\path"\nnext'
        # the exposition text itself stays single-line per sample
        assert all(line.count('"') % 2 == 0
                   for line in text.splitlines())


class TestJsonlExport:
    def test_lines_parse_and_interleave(self):
        with obs.observe() as o:
            with obs.span("work"):
                obs.event("something.happened", level="warning", detail=42)
        text = export.jsonl_events(o.tracer, o.events)
        lines = text.splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "event"}
        ev = next(r for r in records if r["kind"] == "event")
        assert ev["name"] == "something.happened"
        assert ev["span"] == "work"
        assert ev["fields"]["detail"] == 42
        # timestamp ordering
        starts = [r["t_start"] for r in records]
        assert starts == sorted(starts)

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "events.jsonl"
        export.write_jsonl(tracer, str(path))
        assert json.loads(path.read_text().splitlines()[0])["name"] == "a"


class TestEnvExport:
    def _run(self, spec, tmp_path, code):
        env = {"PYTHONPATH": "src", "REPRO_OBS": spec,
               "PATH": os.environ.get("PATH", "/usr/bin:/bin")}
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              cwd="/root/repo", check=True)

    def test_chrome_spec_exports_at_exit(self, tmp_path):
        out = tmp_path / "ambient.json"
        code = ("from repro.spice import Circuit, dc_operating_point\n"
                "c = Circuit('d')\n"
                "c.vsource('V1', 'a', '0', 1.0)\n"
                "c.resistor('R1', 'a', '0', 1e3)\n"
                "dc_operating_point(c)\n")
        self._run(f"chrome:{out}", tmp_path, code)
        doc = json.loads(out.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "dc_operating_point" in names

    def test_jsonl_spec_exports_at_exit(self, tmp_path):
        out = tmp_path / "ambient.jsonl"
        code = ("from repro.spice import Circuit, dc_operating_point\n"
                "c = Circuit('d')\n"
                "c.vsource('V1', 'a', '0', 1.0)\n"
                "c.resistor('R1', 'a', '0', 1e3)\n"
                "dc_operating_point(c)\n")
        self._run(f"jsonl:{out}", tmp_path, code)
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert any(r["name"] == "dc_operating_point" for r in records)

    def test_plain_flag_still_works(self):
        assert not obs.enabled()
        switched = obs.enable_from_env({"REPRO_OBS": "unrecognised"})
        assert switched is False
        assert not obs.enabled()


# ---------------------------------------------------------------------------
# profiling


class TestProfile:
    def test_self_and_total_attribution(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
        report = profile.aggregate(tracer)
        rows = {r.path: r for r in report.rows}
        outer, inner = rows["outer"], rows["outer/inner"]
        assert outer.total_s >= 0.05 - 1e-3
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
        assert inner.self_s == pytest.approx(inner.total_s)
        # self times partition the trace
        assert sum(r.self_s for r in report.rows) == \
            pytest.approx(report.attributed_s, rel=1e-6)
        assert report.coverage == pytest.approx(1.0)

    def test_repeated_paths_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("run"):
                pass
        report = profile.aggregate(tracer)
        assert len(report.rows) == 1
        assert report.rows[0].calls == 3

    def test_table_renders(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        text = profile.aggregate(tracer).table(top=5)
        assert "path" in text and "self ms" in text and "coverage" in text

    def test_open_spans_skipped(self):
        tracer = Tracer()
        tracer.start("open")
        report = profile.aggregate(tracer)
        assert report.rows == []
        assert report.attributed_s == 0.0

    def test_e7_run_attributes_90_percent(self):
        """Acceptance: an observe()d E7 run attributes >= 90 % of its
        wall-clock to spans."""
        from repro.experiments.registry import run_record
        t0 = time.perf_counter()
        with obs.observe() as o:
            run_record("E7")
        elapsed = time.perf_counter() - t0
        report = profile.aggregate(o.tracer)
        assert report.attributed_s >= 0.9 * elapsed
        assert report.coverage >= 0.9
        # and the chrome export of the same run is loadable trace JSON
        doc = json.loads(json.dumps(export.chrome_trace(o.tracer)))
        assert len(doc["traceEvents"]) == len(o.tracer.events())


# ---------------------------------------------------------------------------
# structured event log


class TestEventLog:
    def test_ring_buffer_bounds(self):
        log = EventLog(maxlen=3)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert log.emitted == 5
        assert [r["fields"]["i"] for r in log.records()] == [2, 3, 4]

    def test_level_validation_and_filtering(self):
        log = EventLog()
        log.emit("a", level="info")
        log.emit("b", level="warning")
        with pytest.raises(ValueError):
            log.emit("c", level="loud")
        assert [r["name"] for r in log.records(level="warning")] == ["b"]

    def test_span_correlation(self):
        with obs.observe() as o:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.event("anomaly", level="warning", code=7)
        rec = o.events.records()[0]
        assert rec["span"] == "outer/inner"
        assert rec["fields"] == {"code": 7}

    def test_event_noop_when_disabled(self):
        assert not obs.enabled()
        obs.event("never")
        assert obs.OBS.events.is_empty()

    def test_newton_nonconvergence_event(self):
        ckt = Circuit("bad")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.capacitor("C1", "a", "b", 1e-9)
        ckt.capacitor("C2", "b", "0", 1e-9)
        with obs.observe() as o:
            try:
                dc_operating_point(ckt)
            except NewtonError:
                pass
        names = o.events.counts_by_name()
        if "solver.newton_nonconvergence" in names:
            rec = o.events.records(name="solver.newton_nonconvergence")[0]
            assert rec["level"] == "warning"
            assert rec["fields"]["circuit"] == "bad"

    def test_grid_mismatch_event(self):
        with obs.observe() as o:
            with pytest.warns(GridMismatchWarning):
                transient(rc_circuit(), t_stop=1.05e-4, dt=1e-5,
                          record=["out"])
        recs = o.events.records(name="transient.grid_mismatch")
        assert len(recs) == 1
        assert recs[0]["level"] == "warning"
        assert recs[0]["fields"]["circuit"] == "rc"

    def test_events_in_session_report_data(self):
        s = Session(name="evt")
        with pytest.warns(GridMismatchWarning):
            s.transient(rc_circuit(), t_stop=1.05e-4, dt=1e-5,
                        record=["out"])
        doc = s.report_data()
        names = [r["name"] for r in doc["events"]["records"]]
        assert "transient.grid_mismatch" in names


# ---------------------------------------------------------------------------
# campaign health


class TestCampaignHealth:
    def test_progress_callback_sequence(self):
        updates = []
        FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5).run(
            divider(), _divider_faults(),
            spec=CampaignSpec(progress=updates.append))
        assert [(p.done, p.total) for p in updates] == [
            (1, 4), (2, 4), (3, 4), (4, 4)]
        assert all(isinstance(p, CampaignProgress) for p in updates)
        assert updates[-1].eta_s == 0.0
        assert updates[0].fault    # carries the fault description

    def test_progress_parity_serial_vs_workers(self):
        serial, pooled = [], []
        FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5).run(
            divider(), _divider_faults(), spec=CampaignSpec(
                progress=lambda p: serial.append((p.done, p.total, p.fault))))
        FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                      workers=2).run(
            divider(), _divider_faults(), spec=CampaignSpec(
                progress=lambda p: pooled.append((p.done, p.total, p.fault))))
        assert serial == pooled

    def test_heartbeat_parity_serial_vs_workers(self):
        with obs.observe() as serial:
            FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5).run(
                divider(), _divider_faults())
        with obs.observe() as pooled:
            FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          workers=2).run(divider(), _divider_faults())
        assert serial.metrics.counter_values()["campaign.heartbeats"] == \
            pooled.metrics.counter_values()["campaign.heartbeats"] == 4
        assert len(serial.events.records(name="campaign.heartbeat")) == \
            len(pooled.events.records(name="campaign.heartbeat")) == 4
        assert serial.metrics.counter_values() == \
            pooled.metrics.counter_values()

    def test_span_tree_parity_serial_vs_workers(self):
        # pooled workers finish out of order, but outcomes are recorded
        # in fault order — so the grafted span tree must match the
        # serial run's, name for name and fault for fault
        with obs.observe() as serial:
            FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5).run(
                divider(), _divider_faults())
        with obs.observe() as pooled:
            FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                          workers=2).run(divider(), _divider_faults())

        def fault_children(o):
            (root,) = o.tracer.spans
            return [(c.name, c.attrs.get("fault")) for c in root.children
                    if c.name.startswith("fault.")]

        assert fault_children(serial) == fault_children(pooled)
        assert [f[1] for f in fault_children(serial)] == \
            [f.describe() for f in _divider_faults()]

    def test_outcomes_carry_worker_pid(self):
        result = FaultCampaign(_mid_voltage, _shift_detector,
                               threshold=0.5).run(divider(),
                                                  _divider_faults())
        assert all(o.worker_pid == os.getpid() for o in result.outcomes)
        pooled = FaultCampaign(_mid_voltage, _shift_detector, threshold=0.5,
                               workers=2).run(divider(), _divider_faults())
        assert all(o.worker_pid is not None for o in pooled.outcomes)
        assert all(o.worker_pid != os.getpid() for o in pooled.outcomes)

    def test_straggler_detection(self):
        from repro.faults.campaign import FaultOutcome

        class _F:
            def __init__(self, name):
                self.name = name

            def describe(self):
                return self.name

        class _R:
            outcomes = []

        fast = [FaultOutcome(fault=_F(f"f{i}"), detection=1.0, detected=True,
                             elapsed_s=0.01, worker_pid=100)
                for i in range(6)]
        slow = FaultOutcome(fault=_F("slowpoke"), detection=1.0,
                            detected=True, elapsed_s=0.5, worker_pid=200)
        result = _R()
        result.outcomes = fast + [slow]
        report = straggler_report(result, factor=4.0)
        assert not report.healthy
        assert report.slow_faults == ["slowpoke"]
        assert report.slow_workers == [200]
        assert {w.pid for w in report.workers} == {100, 200}
        assert "straggler" in report.summary()
        # and an all-even campaign is healthy
        even = _R()
        even.outcomes = fast
        assert straggler_report(even, factor=4.0).healthy

    def test_campaign_result_health_and_report(self):
        with obs.observe():
            result = FaultCampaign(_mid_voltage, _shift_detector,
                                   threshold=0.5).run(divider(),
                                                      _divider_faults())
        assert result.health().n_faults == 4
        text = result.report()
        assert "campaign health" in text
        assert "fault campaign on div" in text


# ---------------------------------------------------------------------------
# benchmark-telemetry pipeline


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _toy_divider_campaign():
    return FaultCampaign(_mid_voltage, _shift_detector,
                         threshold=0.5).run(divider(), _divider_faults())


def _bench_rows(path, times, counters=None, **extra):
    """A synthetic BENCH file: one ledger row per time of workload ``w``."""
    led = RunLedger(str(path))
    for t in times:
        led.record(dict({"key": "toy/w", "name": "w", "elapsed_s": t,
                         "counters": counters or {}}, **extra))
    return str(path)


class TestBenchPipeline:
    @pytest.fixture
    def toy_suite(self, monkeypatch):
        monkeypatch.setitem(obs_bench.SUITES, "toy",
                            {"divider_campaign": _toy_divider_campaign})
        return "toy"

    def test_bench_appends_one_ledger_row_per_round(self, tmp_path,
                                                    toy_suite):
        path = obs_bench.run_suite(suite=toy_suite, rounds=3,
                                   out_dir=str(tmp_path), echo=False)
        assert os.path.basename(path) == "BENCH_toy.jsonl"
        rows = RunLedger(path).rows()
        assert len(rows) == 3
        for row in rows:
            assert row["schema"] == LEDGER_SCHEMA
            assert row["key"] == "toy/divider_campaign"
            assert row["name"] == "divider_campaign"
            assert row["elapsed_s"] > 0
            assert row["counters"]["solver.newton_solves"] >= 1
            assert row["counters"]["campaign.faults_evaluated"] == 4
        # a second run appends to the same history
        obs_bench.run_suite(suite=toy_suite, rounds=1,
                            out_dir=str(tmp_path), echo=False)
        assert len(RunLedger(path).rows()) == 4

    def test_single_round_record(self, tmp_path, toy_suite):
        path = obs_bench.run_suite(suite=toy_suite, rounds=1,
                                   out_dir=str(tmp_path), echo=False)
        (row,) = RunLedger(path).rows()
        assert row["elapsed_s"] > 0

    def test_bench_creates_out_dir_before_timing(self, tmp_path,
                                                 monkeypatch):
        out = tmp_path / "new" / "dir"
        seen = []
        monkeypatch.setitem(obs_bench.SUITES, "toy",
                            {"w": lambda: seen.append(out.is_dir())})
        path = obs_bench.run_suite(suite="toy", rounds=2, out_dir=str(out),
                                   echo=False)
        assert seen == [True, True]
        assert os.path.isfile(path)

    def test_recovery_suite_stages_before_timing(self, tmp_path,
                                                 monkeypatch):
        seen = []
        monkeypatch.setattr(obs_bench, "_recovery_stage",
                            lambda: seen.append("stage"))
        monkeypatch.setitem(obs_bench.SUITES, "recovery",
                            {"w": lambda: seen.append("workload")})
        obs_bench.run_suite(suite="recovery", rounds=1,
                            out_dir=str(tmp_path), echo=False)
        assert seen == ["stage", "workload"]

    def test_recovery_rows_count_journal_work(self, tmp_path):
        # the journal rows carry counters, so compare can annotate drift
        path = obs_bench.run_suite(
            suite="recovery",
            ids=["journal_submit_100", "journal_replay_8jobs"], rounds=1,
            out_dir=str(tmp_path), echo=False)
        counters = {row["name"]: row["counters"]
                    for row in RunLedger(path).rows()}
        assert counters == {
            "journal_submit_100": {"service.journal_appends": 100},
            "journal_replay_8jobs": {"service.journal_replayed": 8},
        }

    def test_compare_gates_synthetic_regression(self, tmp_path):
        a = _bench_rows(tmp_path / "a.jsonl", [1.0],
                        {"solver.newton_solves": 10})
        b = _bench_rows(tmp_path / "b.jsonl", [1.5],
                        {"solver.newton_solves": 40})
        out = io.StringIO()
        assert obs_bench.compare_benches(a, b, threshold=1.15, out=out) == 1
        report = out.getvalue()
        assert "FAIL" in report
        assert "counter solver.newton_solves: 10 -> 40" in report
        # within threshold -> clean exit
        assert obs_bench.compare_benches(a, a, threshold=1.15,
                                         out=io.StringIO()) == 0

    def test_compare_pools_times_across_files(self, tmp_path):
        counters = {"solver.newton_solves": 10}
        _bench_rows(tmp_path / "base1.jsonl", [1.0], counters)
        _bench_rows(tmp_path / "base2.jsonl", [1.02, 0.98], counters)
        slow = {"solver.newton_solves": 20}
        _bench_rows(tmp_path / "slow1.jsonl", [1.3], slow)
        _bench_rows(tmp_path / "slow2.jsonl", [1.326, 1.274], slow)
        base = str(tmp_path / "base*.jsonl")
        out = io.StringIO()
        # pooled medians 1.0 vs 1.3: a 1.3x slowdown fails the gate
        assert obs_bench.compare_benches(base, str(tmp_path / "slow*.jsonl"),
                                         threshold=1.15, out=out) == 1
        report = out.getvalue()
        assert "1.000000" in report and "1.300000" in report
        assert "1.300  FAIL" in report
        assert "counter solver.newton_solves: 10 -> 20" in report
        # identical pools pass
        out = io.StringIO()
        assert obs_bench.compare_benches(base, base, threshold=1.15,
                                         out=out) == 0
        assert "1 of 1 workload(s) within the 1.15x gate" in out.getvalue()

    def test_compare_reports_a_noisy_baseline_unresolved(self, tmp_path):
        # baseline IQR 0.5 of its median: a 1.3x median ratio is noise,
        # reported but not failed
        base = _bench_rows(tmp_path / "base.jsonl",
                           [0.5, 0.75, 1.0, 1.25, 1.5])
        cand = _bench_rows(tmp_path / "cand.jsonl",
                           [0.8, 1.1, 1.3, 1.5, 1.7])
        out = io.StringIO()
        assert obs_bench.compare_benches(base, cand, threshold=1.15,
                                         out=out) == 0
        report = out.getvalue()
        assert "1.300  unresolved (base IQR 50% of median)" in report
        assert "0 of 1 workload(s) within the 1.15x gate" in report
        assert "1 workload(s) unresolved" in report

    def test_compare_exits_2_on_files_without_ledger_rows(self, tmp_path,
                                                          capsys):
        from repro.service.queue import PersistentJobQueue
        rows = _bench_rows(tmp_path / "rows.jsonl", [1.0])
        # an old single-document bench file and a queue journal: JSON,
        # but no run-ledger rows
        old = tmp_path / "BENCH_batched.json"
        old.write_text(json.dumps({
            "schema": "repro.bench/1", "suite": "batched",
            "workloads": {"w": {"times_s": [1.0], "counters": {}}}},
            indent=2))
        journal = tmp_path / "queue.jsonl"
        PersistentJobQueue(str(journal)).submit(
            "job1", CampaignSpec(target=divider(),
                                 faults=tuple(_divider_faults())))
        for foreign in (str(old), str(journal)):
            assert obs_bench.compare_benches(foreign, rows,
                                             out=io.StringIO()) == 2
            assert foreign in capsys.readouterr().err
            assert obs_bench.compare_benches(rows, foreign,
                                             out=io.StringIO()) == 2
        assert obs_bench.compare_benches(
            str(tmp_path / "missing*.jsonl"), rows, out=io.StringIO()) == 2

    def test_bench_stamps_runtime_meta(self, tmp_path, toy_suite):
        import platform
        path = obs_bench.run_suite(suite=toy_suite, rounds=1,
                                   out_dir=str(tmp_path), echo=False)
        meta = RunLedger(path).rows()[0]["meta"]
        assert set(meta) >= {"hostname", "python", "git_commit",
                             "git_dirty", "numpy"}
        assert meta["python"] == platform.python_version()

    def test_compare_ignores_meta(self, tmp_path):
        a = _bench_rows(tmp_path / "a.jsonl", [1.0],
                        meta={"hostname": "box-a", "git_commit": "aaaa"})
        b = _bench_rows(tmp_path / "b.jsonl", [1.0],
                        meta={"hostname": "box-b", "git_commit": "bbbb"})
        # different provenance, identical timings: provenance is
        # recorded for humans, never gated on
        assert obs_bench.compare_benches(a, b, threshold=1.15,
                                         out=io.StringIO()) == 0

    def test_ledger_trend_reads_a_bench_file(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.obs.__main__ import main as obs_main
        monkeypatch.setitem(obs_bench.SUITES, "toy",
                            {"first": lambda: None, "second": lambda: None})
        path = obs_bench.run_suite(suite="toy", rounds=2,
                                   out_dir=str(tmp_path), echo=False)
        assert obs_main(["ledger", "trend", "--path", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert [line.split()[1] for line in lines] == ["first", "second"]
        assert all("runs=2" in line for line in lines)

    def test_cli_bench_and_compare(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        out = tmp_path / "fresh"
        run = subprocess.run(
            [sys.executable, "-m", "repro.obs", "bench", "--suite",
             "batched", "--ids", "dictionary_64f_k64", "--rounds", "1",
             "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert run.returncode == 0, run.stderr
        bench_file = out / "BENCH_batched.jsonl"
        assert bench_file.exists()
        cmp_run = subprocess.run(
            [sys.executable, "-m", "repro.obs", "compare",
             str(bench_file), str(tmp_path / "*" / "BENCH_batched.jsonl")],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert cmp_run.returncode == 0, cmp_run.stderr
        assert "within the" in cmp_run.stdout

    def test_cli_lists_the_kept_suites(self, capsys):
        from repro.obs.__main__ import main as obs_main
        assert obs_main(["suites"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["batched",
                                                          "recovery"]

    def test_unknown_suite_and_workload(self, tmp_path):
        with pytest.raises(KeyError):
            obs_bench.run_suite(suite="nope", out_dir=str(tmp_path))
        with pytest.raises(KeyError):
            obs_bench.run_suite(suite="batched", ids=["missing"],
                                out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# session / run-result reports


class TestReports:
    def test_session_report_text(self):
        s = Session(name="reportable")
        s.transient(rc_circuit(), t_stop=1e-4, dt=1e-6, record=["out"])
        text = s.report()
        assert "=== reportable ===" in text
        assert "hotspots" in text
        assert "transient" in text
        assert "solver.newton_solves" in text or \
            "solver.linear_solves" in text

    def test_session_report_html(self, tmp_path):
        s = Session(name="web")
        s.transient(rc_circuit(), t_stop=1e-4, dt=1e-6, record=["out"])
        html = s.report(html=True)
        assert html.startswith("<!DOCTYPE html>")
        assert "Hotspots" in html
        assert "chrome-trace" in html
        # the embedded trace is loadable JSON
        start = html.index('id="chrome-trace">') + len('id="chrome-trace">')
        end = html.index("</script>", start)
        doc = json.loads(html[start:end])
        assert doc["traceEvents"]

    def test_run_results_speak_report(self):
        s = Session(name="protocol")
        result = s.transient(rc_circuit(), t_stop=1e-4, dt=1e-6,
                             record=["out"])
        assert isinstance(result, RunResult)
        assert "transient" in result.report()
        bare = transient(rc_circuit(), t_stop=1e-4, dt=1e-6, record=["out"])
        assert "no trace recorded" in bare.report()

    def test_experiments_cli_html(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        out = tmp_path / "report.html"
        run = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "E8",
             "--html", str(out)],
            capture_output=True, text=True, env=env, cwd="/root/repo")
        assert run.returncode == 0, run.stderr
        assert out.read_text().startswith("<!DOCTYPE html>")
