"""Tests for the resilience layer: deadlines, retry ladders,
checkpoint/resume, crash recovery and the shared error hierarchy.

The chaos tests (marked ``chaos``) deliberately hang and SIGKILL worker
processes inside pooled campaigns; they are quick (< a few seconds) but
are kept in their own marker so they can be selected or excluded
explicitly (see the ``resilience-chaos`` CI job).
"""

import concurrent.futures
import os
import signal
import threading
import time

import pytest

from repro.errors import (
    CampaignError,
    CheckpointError,
    CounterTimeout,
    DeadlineExceeded,
    DeckError,
    NewtonError,
    ReproError,
)
from repro.faults import FaultCampaign, StuckAtFault
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.obs.core import observe
from repro.resilience import (
    CampaignCheckpoint,
    Deadline,
    FailureReport,
    active_deadline,
    campaign_key,
    check_deadline,
    deadline_scope,
    installed,
)
from repro.service import CampaignScheduler, CampaignSpec
from repro.signals.prbs import prbs_waveform
from repro.spice import Circuit, dc_operating_point, parse_netlist, transient
from repro.verify.goldens import normalize


# ---------------------------------------------------------------------------
# fixtures shared by the campaign tests (module-level: workers pickle them)

def divider():
    ckt = Circuit("div")
    ckt.vsource("VIN", "in", "0", 4.0)
    ckt.resistor("R1", "in", "mid", 1e3)
    ckt.resistor("R2", "mid", "0", 1e3)
    return ckt


def measure_mid(ckt):
    """The plain technique: DC solve, report the divider midpoint."""
    v, _ = dc_operating_point(ckt, validate=False)
    return v["mid"]


def chaos_technique(ckt):
    """Technique with marker-fault trapdoors: the ``hang`` fault sleeps
    (uninterruptible without a worker kill), the ``slow`` fault sleeps
    ~0.5 s and then measures (an innocent still running when ``boom``
    kills its worker), the ``boom`` fault SIGKILLs its own process, the
    ``interrupt`` fault (armed via environment so the checkpoint content
    key stays constant) raises KeyboardInterrupt.
    """
    if ckt.has_element("FLT_hang_V"):
        time.sleep(30.0)
    if ckt.has_element("FLT_slow_V"):
        time.sleep(0.5)
    if ckt.has_element("FLT_boom_V"):
        os.kill(os.getpid(), signal.SIGKILL)
    if (os.environ.get("REPRO_TEST_INTERRUPT")
            and ckt.has_element(os.environ["REPRO_TEST_INTERRUPT"])):
        raise KeyboardInterrupt
    return measure_mid(ckt)


def reference_killer(ckt):
    """Technique that SIGKILLs its own process on the fault-free target
    (no injected ``FLT_`` element) and measures every faulty copy."""
    if not any(e.name.startswith("FLT_") for e in ckt.elements):
        os.kill(os.getpid(), signal.SIGKILL)
    return measure_mid(ckt)


def slow_transient_technique(ckt):
    """A technique dominated by engine time, so cooperative deadline
    checks inside the march are what interrupt it."""
    res = transient(ckt, t_stop=0.2, dt=1e-7, validate=False)
    return res.final("mid")


def delta_detector(ref, meas):
    return 1.0 if abs(ref - meas) > 0.1 else 0.0


def run_campaign_pooled(spec):
    return FaultCampaign(spec.technique, spec.detector,
                         workers=2).run(spec=spec)


def run_scheduler_pooled(spec):
    with CampaignScheduler(workers=2) as sched:
        return sched.submit(spec).result()


#: the two entry points that drive the shared worker pool
pooled_entry_points = pytest.mark.parametrize(
    "run_pooled", [run_campaign_pooled, run_scheduler_pooled],
    ids=["campaign", "scheduler"])


def bounded(call, timeout):
    """``call()`` on a daemon thread, its result or error returned here
    within ``timeout`` seconds (``TimeoutError`` past it), so a run that
    never settles fails its test instead of hanging the suite."""
    fut = concurrent.futures.Future()

    def target():
        try:
            fut.set_result(call())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            fut.set_exception(exc)

    threading.Thread(target=target, daemon=True).start()
    return fut.result(timeout)


def mid_faults(n=6):
    """Detectable faults on the divider midpoint."""
    out = []
    for i in range(n):
        out.append(StuckAtFault(name=f"f{i}", node="mid",
                                level=float(i % 2) * 5.0,
                                resistance=10.0 + i))
    return out


def hard_stack(n=10):
    """NMOS diode stack whose DC solve fails plain Newton but recovers
    through gmin stepping (empirically stable fixture)."""
    ckt = Circuit(f"stack{n}")
    ckt.vsource("VDD", "vdd", "0", float(2 * n))
    ckt.isource("IB", "vdd", "n0", 1e-3)
    prev = "n0"
    for i in range(n):
        nxt = "0" if i == n - 1 else f"n{i + 1}"
        ckt.nmos(f"M{i}", prev, prev, nxt)
        prev = nxt
    return ckt


# ---------------------------------------------------------------------------
class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (NewtonError, DeckError, CampaignError, CheckpointError,
                    DeadlineExceeded, CounterTimeout):
            assert issubclass(exc, ReproError)

    def test_compat_bases_kept(self):
        # historical except-clauses must keep working
        assert issubclass(NewtonError, RuntimeError)
        assert issubclass(DeckError, ValueError)
        assert issubclass(CounterTimeout, TimeoutError)
        assert issubclass(CheckpointError, CampaignError)

    def test_deadline_exceeded_is_not_a_timeout_error(self):
        # wall-clock cancellation is an infrastructure verdict, not the
        # DUT-functional CounterTimeout
        assert not issubclass(DeadlineExceeded, TimeoutError)

    def test_parser_error_is_deck_error(self):
        from repro.spice import NetlistSyntaxError
        assert issubclass(NetlistSyntaxError, DeckError)
        with pytest.raises(DeckError):
            parse_netlist("R1 a\n")

    def test_solver_error_importable_from_both_homes(self):
        from repro.errors import NewtonError as from_errors
        from repro.spice.solver import NewtonError as from_solver
        assert from_errors is from_solver


# ---------------------------------------------------------------------------
class TestDeadline:
    def test_basic_budget(self):
        d = Deadline(60.0, label="t")
        assert not d.expired()
        assert 0.0 < d.remaining() <= 60.0
        d.check("nowhere")  # does not raise

    def test_expired_check_raises_with_identity(self):
        d = Deadline(1e-4, label="tiny")
        time.sleep(2e-3)
        assert d.expired()
        with pytest.raises(DeadlineExceeded) as exc_info:
            d.check("unit test")
        assert exc_info.value.deadline is d
        assert "tiny" in str(exc_info.value)
        assert "unit test" in str(exc_info.value)

    def test_invalid_seconds(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_scope_installs_and_restores(self):
        assert active_deadline() is None
        with deadline_scope(10.0, label="outer") as d:
            assert active_deadline() is d
            assert d.label == "outer"
        assert active_deadline() is None

    def test_none_scope_is_noop(self):
        with deadline_scope(None) as d:
            assert d is None
            check_deadline("free")  # no ambient deadline: free pass

    def test_nested_tightest_wins(self):
        with deadline_scope(60.0, label="outer") as outer:
            with deadline_scope(1.0, label="inner") as inner:
                assert active_deadline() is inner
                assert inner.label == "inner"
            assert active_deadline() is outer
            # a *looser* inner scope leaves the outer deadline active
            with deadline_scope(120.0, label="loose") as winner:
                assert winner is outer

    def test_installed_shares_one_budget(self):
        d = Deadline(30.0, label="campaign")
        with installed(d) as active:
            assert active is d
            t_end_first = active_deadline().t_end
        with installed(d):
            # same object, same clock: not restarted
            assert active_deadline().t_end == t_end_first
        assert active_deadline() is None

    def test_cooperative_check_in_newton(self):
        # Needs a nonlinear deck: linear circuits take the direct-solve
        # fast path, which never enters the Newton iteration loop.
        ckt = hard_stack(4)
        d = Deadline(1e-4, label="solve")
        time.sleep(2e-3)
        with installed(d):
            with pytest.raises(DeadlineExceeded):
                dc_operating_point(ckt)

    @pytest.mark.parametrize("engine", ["linear_march"])
    def test_expired_deadline_stops_linear_march_before_step_one(
            self, engine):
        # the march checks once after its inverse setup, so a march
        # shorter than one 256-step stride still honours the budget
        ladder = dictionary_ladder(n_sections=6)
        assert transient(ladder, 2e-4, 1e-6).stats["engine"] == engine
        d = Deadline(1e-4, label="march")
        time.sleep(2e-3)
        with observe() as handle:
            with installed(d):
                with pytest.raises(DeadlineExceeded) as exc_info:
                    transient(ladder, 2e-4, 1e-6)
        assert exc_info.value.deadline is d
        assert not any("march_steps" in name for name
                       in handle.metrics.counter_values())

    def test_cooperative_check_in_transient(self):
        ckt = divider()
        with deadline_scope(0.02, label="march"):
            with pytest.raises(DeadlineExceeded):
                transient(ckt, t_stop=1.0, dt=1e-7)


# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults_match_historical_ladder(self):
        from repro.spice.solver import GMIN_LADDER, SOURCE_STEPS
        from repro.spice.transient import MAX_NEWTON, MAX_SUBDIVISIONS
        assert GMIN_LADDER[0] == 1e-2 and GMIN_LADDER[-1] == 1e-12
        assert SOURCE_STEPS == 21
        assert MAX_SUBDIVISIONS == 8
        assert MAX_NEWTON == 60

    def test_ladder_recovery_emits_retry_events(self):
        """The hard stack fails plain Newton; the default ladder recovers
        and the recovery is visible as solver.retry events + counters."""
        with observe() as h:
            v, _ = dc_operating_point(hard_stack())
        assert v["n0"] > 0.0
        counters = h.metrics.to_dict()
        assert counters["solver.retries"]["value"] >= 1
        assert counters["solver.retries.gmin_stepping"]["value"] >= 1
        retry_events = h.events.records(name="solver.retry")
        assert retry_events
        assert retry_events[0]["fields"]["strategy"] == "gmin_stepping"


# ---------------------------------------------------------------------------
class TestDeckValidation:
    def test_sense_only_node_named(self):
        ckt = Circuit("sense")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.vcvs("E1", "out", "0", "ghost", "0", 2.0)
        ckt.resistor("R2", "out", "0", 1e3)
        with pytest.raises(DeckError, match="'ghost'"):
            dc_operating_point(ckt)

    def test_current_source_into_nothing_named(self):
        ckt = Circuit("inject")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.isource("I1", "0", "dangling", 1e-3)
        with pytest.raises(DeckError, match="'dangling'"):
            dc_operating_point(ckt)

    def test_parallel_voltage_sources_rejected(self):
        ckt = Circuit("loop")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.vsource("V2", "a", "0", 2.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(DeckError, match="V2"):
            dc_operating_point(ckt)

    def test_self_shorted_source_rejected(self):
        ckt = Circuit("self")
        ckt.vsource("V1", "a", "a", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(DeckError, match="own terminals"):
            dc_operating_point(ckt)

    def test_capacitor_only_node_is_legal(self):
        # held by gmin at DC, integrates in transient: not an error
        ckt = Circuit("capnode")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.capacitor("C1", "a", "b", 1e-12)
        v, _ = dc_operating_point(ckt)
        assert abs(v["b"]) < 1.0

    def test_validate_false_opts_out(self):
        ckt = Circuit("optout")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.isource("I1", "0", "dangling", 1e-9)
        v, _ = dc_operating_point(ckt, validate=False)
        assert "dangling" in v  # gmin produced *some* number

    def test_transient_validates_too(self):
        ckt = Circuit("tfloat")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        ckt.vccs("G1", "0", "nowhere", "a", "0", 1e-3)
        with pytest.raises(DeckError, match="'nowhere'"):
            transient(ckt, t_stop=1e-3, dt=1e-4)


# ---------------------------------------------------------------------------
class TestCheckpoint:
    def _campaign_bits(self):
        target = divider()
        faults = mid_faults(4)
        key = campaign_key(measure_mid, delta_detector, target, faults,
                           0.05, "detected", fault_timeout_s=None)
        return target, faults, key

    def test_key_is_stable_and_sensitive(self):
        target, faults, key = self._campaign_bits()
        again = campaign_key(measure_mid, delta_detector, target, faults,
                             0.05, "detected", fault_timeout_s=None)
        assert key == again
        other = campaign_key(measure_mid, delta_detector, target,
                             faults[:-1], 0.05, "detected")
        assert key != other
        other = campaign_key(measure_mid, delta_detector, target, faults,
                             0.10, "detected")
        assert key != other

    def test_missing_file_is_fresh_run(self, tmp_path):
        ckpt = CampaignCheckpoint(str(tmp_path / "none.ckpt"), "k")
        assert ckpt.load() == {}

    def test_roundtrip_strips_measurement(self, tmp_path):
        from repro.faults.campaign import FaultOutcome
        _, faults, key = self._campaign_bits()
        path = str(tmp_path / "c.ckpt")
        ckpt = CampaignCheckpoint(path, key)
        out = FaultOutcome(fault=faults[0], detection=1.0, detected=True,
                           measurement=[1.0] * 100, elapsed_s=0.5)
        ckpt.save({0: out}, n_faults=4)
        loaded = ckpt.load()
        assert loaded[0].detected is True
        assert loaded[0].measurement is None
        assert loaded[0].elapsed_s == 0.5

    def test_wrong_key_refuses_resume(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        CampaignCheckpoint(path, "key-a").save({}, n_faults=0)
        with pytest.raises(CheckpointError, match="different campaign"):
            CampaignCheckpoint(path, "key-b").load()

    def test_corrupt_file_quarantined_and_run_restarts(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert CampaignCheckpoint(str(path), "k").load() == {}
        assert not path.exists()
        assert (tmp_path / "c.ckpt.corrupt").read_bytes() == b"not a pickle"

    def test_unknown_schema_quarantined(self, tmp_path):
        import pickle
        path = tmp_path / "c.ckpt"
        path.write_bytes(pickle.dumps({"schema": "repro.checkpoint/999"}))
        with pytest.warns(RuntimeWarning, match="unknown schema"):
            assert CampaignCheckpoint(str(path), "k").load() == {}
        assert (tmp_path / "c.ckpt.corrupt").exists()

    def test_resume_requires_checkpoint_path(self):
        c = FaultCampaign(measure_mid, delta_detector)
        with pytest.raises(ValueError, match="resume"):
            c.run(divider(), mid_faults(2), spec=CampaignSpec(resume=True))


# ---------------------------------------------------------------------------
class TestCampaignResilience:
    @pytest.mark.parametrize("errors_as_detected", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_never_counts_as_detected(self, errors_as_detected,
                                              workers):
        """A timed-out fault is detected=False under either error policy,
        serially (cooperative) and pooled (cooperative or killed)."""
        ckt = divider()
        faults = mid_faults(2)
        c = FaultCampaign(slow_transient_technique, delta_detector,
                          errors_as_detected=errors_as_detected,
                          workers=workers)
        res = c.run(ckt, faults, reference=2.0,
                    spec=CampaignSpec(fault_timeout_s=0.05))
        assert res.n_faults == 2
        assert res.n_timeouts == 2
        assert res.partial
        for o in res.outcomes:
            assert o.timed_out
            assert not o.detected
            assert o.error.startswith("timeout")
            assert o.to_dict()["timed_out"] is True
        assert res.failure_report().timeouts == [f.describe()
                                                 for f in faults]
        assert "timeout" in res.summary()
        assert res.to_dict()["partial"] is True

    @pytest.mark.parametrize("errors_as_detected", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_policy_still_governs_plain_errors(self,
                                                     errors_as_detected,
                                                     workers):
        ckt = divider()
        # a bridge onto a ghost node cannot inject -> KeyError
        bad = StuckAtFault.sa0("ghost")
        good = mid_faults(1)
        c = FaultCampaign(measure_mid, delta_detector,
                          errors_as_detected=errors_as_detected,
                          workers=workers)
        res = c.run(ckt, good + [bad])
        assert res.n_errors == 1
        errored = res.outcomes[-1]
        assert errored.detected is errors_as_detected
        assert not errored.timed_out
        assert not res.partial  # plain errors do not degrade the run

    def test_campaign_deadline_skips_remainder_serial(self):
        ckt = divider()
        faults = mid_faults(6)
        c = FaultCampaign(slow_transient_technique, delta_detector)
        res = c.run(ckt, faults, reference=2.0,
                    spec=CampaignSpec(campaign_deadline_s=0.05))
        assert res.partial
        rep = res.failure_report()
        assert rep.deadline_hit
        assert rep.skipped  # at least the tail never ran
        assert res.n_faults + res.n_skipped == len(faults)
        # skipped faults are accounted in fault order at the tail
        assert rep.skipped == [f.describe()
                               for f in faults[len(res.outcomes):]]
        assert res.to_dict()["failures"]["deadline_hit"] is True

    def test_campaign_deadline_stops_in_process_scheduler_job(self):
        # a job that cannot pickle runs its shards on the dispatcher
        # thread, under its campaign deadline: the march's cooperative
        # checks end the shard instead of letting it run out
        def closure_technique(ckt):          # closures cannot pickle
            return slow_transient_technique(ckt)

        faults = mid_faults(4)
        t0 = time.perf_counter()
        with CampaignScheduler(workers=2) as sched:
            res = sched.submit(CampaignSpec(
                technique=closure_technique, detector=delta_detector,
                target=divider(), faults=tuple(faults), reference=2.0,
                campaign_deadline_s=0.05)).result(timeout=60)
        assert time.perf_counter() - t0 < 5.0
        rep = res.failure_report()
        assert res.partial and rep.deadline_hit
        assert rep.skipped == [f.describe()
                               for f in faults[len(res.outcomes):]]

    @pytest.mark.chaos
    @pooled_entry_points
    def test_campaign_deadline_pooled(self, run_pooled):
        faults = mid_faults(4)
        # a pooled fault hangs; the campaign deadline must still end
        # the run promptly by killing the pool
        hang = [StuckAtFault(name="hang", node="mid", resistance=1.0)]
        t0 = time.perf_counter()
        res = run_pooled(CampaignSpec(
            technique=chaos_technique, detector=delta_detector,
            target=divider(), faults=tuple(hang + faults[:1]),
            reference=2.0, campaign_deadline_s=0.5))
        assert time.perf_counter() - t0 < 10.0
        assert res.partial
        assert res.failure_report().deadline_hit

    def test_campaign_deadline_covers_the_reference(self):
        # the fault-free reference is a stage of the run like any fault
        # shard: a deadline that expires while it marches ends the run
        # with every fault skipped and no reference (16 periods: the
        # march takes ~0.3 s on a 2-vCPU host, well past the deadline)
        stimulus = prbs_waveform(order=7, chip_time=50e-6, low=0.0,
                                 high=5.0, dt=1e-6, seed=3, repeats=16)
        technique = TransientSignatureTechnique(t_stop=stimulus.duration,
                                                dt=1e-6, node="n9")
        faults = dictionary_faults(n_sections=10, n_faults=4)
        res = FaultCampaign(technique, SignatureDetector(abs_v=0.05)).run(
            dictionary_ladder(n_sections=10, stimulus=stimulus), faults,
            spec=CampaignSpec(campaign_deadline_s=0.05))
        rep = res.failure_report()
        assert res.partial and rep.deadline_hit
        assert res.outcomes == []
        assert rep.skipped == [f.describe() for f in faults]
        assert res.reference is None

    @pytest.mark.chaos
    @pooled_entry_points
    def test_poison_reference_fails_the_job(self, run_pooled):
        # a reference that kills its worker is struck like a fault: the
        # second death fails the job instead of re-queueing it forever
        spec = CampaignSpec(technique=reference_killer,
                            detector=delta_detector, target=divider(),
                            faults=tuple(mid_faults(2)))
        with pytest.raises(CampaignError, match="ref stage killed"):
            bounded(lambda: run_pooled(spec), timeout=60)

    def test_checkpoint_written_and_resumable_noop(self, tmp_path):
        """A completed run leaves a checkpoint that a re-run consumes
        without re-evaluating anything."""
        calls_path = tmp_path / "calls"
        ckpt_path = str(tmp_path / "c.ckpt")
        ckt = divider()
        faults = mid_faults(3)
        c = FaultCampaign(measure_mid, delta_detector)
        first = c.run(ckt, faults, spec=CampaignSpec(checkpoint=ckpt_path))
        assert os.path.exists(ckpt_path)
        # poison the technique: any evaluation now would diverge
        resumed = FaultCampaign(measure_mid, delta_detector).run(
            ckt, faults, spec=CampaignSpec(checkpoint=ckpt_path,
                                           resume=True))
        assert normalize(resumed.to_dict()) == normalize(first.to_dict())
        assert calls_path.exists() is False

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path,
                                                           workers):
        """The acceptance pin: kill a campaign partway (checkpointing as
        it goes), resume, and the final to_dict() matches the
        uninterrupted run's — serially and pooled."""
        ckt = divider()
        faults = mid_faults(6)
        spec = CampaignSpec(workers=workers)

        golden = FaultCampaign(chaos_technique, delta_detector).run(
            ckt, faults, reference=2.0, spec=spec)

        ckpt_path = str(tmp_path / f"resume-{workers}.ckpt")
        os.environ["REPRO_TEST_INTERRUPT"] = "FLT_f4_V"
        try:
            with pytest.raises(KeyboardInterrupt):
                FaultCampaign(chaos_technique, delta_detector).run(
                    ckt, faults, reference=2.0,
                    spec=spec.replace(checkpoint=ckpt_path))
        finally:
            os.environ.pop("REPRO_TEST_INTERRUPT", None)
        assert os.path.exists(ckpt_path)

        resumed = FaultCampaign(chaos_technique, delta_detector).run(
            ckt, faults, reference=2.0,
            spec=spec.replace(checkpoint=ckpt_path, resume=True))
        assert normalize(resumed.to_dict()) == normalize(golden.to_dict())
        assert not resumed.partial

    def test_progress_order_matches_serial_on_resume(self, tmp_path):
        """Progress callbacks fire in fault order even when half the
        outcomes are replayed from a checkpoint."""
        ckt = divider()
        faults = mid_faults(4)
        ckpt_path = str(tmp_path / "p.ckpt")
        c = FaultCampaign(measure_mid, delta_detector)
        c.run(ckt, faults, spec=CampaignSpec(checkpoint=ckpt_path))
        seen = []
        c.run(ckt, faults, spec=CampaignSpec(
            checkpoint=ckpt_path, resume=True,
            progress=lambda p: seen.append((p.done, p.fault))))
        assert [d for d, _ in seen] == [1, 2, 3, 4]
        assert [f for _, f in seen] == [f.describe() for f in faults]

    @pytest.mark.chaos
    @pooled_entry_points
    def test_chaos_pooled_hang_and_crash(self, run_pooled):
        """The chaos acceptance test: one hanging fault, one
        worker-killing fault, a slow innocent in flight when the killer
        strikes and healthy faults in one pooled campaign.  The run
        completes, the hang is timed out, the killer is quarantined
        after two crashes, innocents (the slow one included) are
        evaluated, and the accounting is exact."""
        hang = StuckAtFault(name="hang", node="mid", resistance=1.0)
        slow = StuckAtFault(name="slow", node="mid", resistance=1.0)
        boom = StuckAtFault(name="boom", node="mid", resistance=1.0)
        healthy = mid_faults(3)
        faults = [healthy[0], slow, boom, hang, healthy[1], healthy[2]]
        with observe() as h:
            res = run_pooled(CampaignSpec(
                technique=chaos_technique, detector=delta_detector,
                target=divider(), faults=tuple(faults), reference=2.0,
                fault_timeout_s=0.4))
        assert res.n_faults == 6          # every fault accounted for
        assert res.partial
        rep = res.failure_report()
        assert rep.timeouts == [hang.describe()]
        assert rep.quarantined == [boom.describe()]
        assert rep.worker_crashes >= 2    # blame pass + lone re-run
        assert rep.pools_killed >= rep.worker_crashes
        assert not rep.skipped
        # outcomes stay in fault order with structured verdicts
        by_fault = {o.fault.describe(): o for o in res.outcomes}
        assert by_fault[hang.describe()].timed_out
        assert not by_fault[hang.describe()].detected
        assert by_fault[boom.describe()].quarantined
        assert not by_fault[boom.describe()].detected
        for f in healthy + [slow]:
            o = by_fault[f.describe()]
            assert o.error is None and o.detected
        # the degradation is visible in metrics and in the payload
        counters = h.metrics.to_dict()
        assert counters["campaign.fault_timeouts"]["value"] == 1
        assert counters["campaign.quarantined"]["value"] == 1
        assert counters["campaign.worker_crashes"]["value"] >= 2
        doc = res.to_dict()
        assert doc["partial"] is True
        assert doc["failures"]["quarantined"] == [boom.describe()]
        assert [o["fault"] for o in doc["outcomes"]] == \
            [f.describe() for f in faults]

    def test_clean_run_payload_shape_unchanged(self):
        """No resilience keys leak into a healthy run's to_dict() — the
        pinned goldens rely on this."""
        res = FaultCampaign(measure_mid, delta_detector).run(
            divider(), mid_faults(2))
        doc = res.to_dict()
        assert "partial" not in doc
        assert "failures" not in doc
        assert all("timed_out" not in o and "quarantined" not in o
                   for o in doc["outcomes"])
        assert not res.partial
        assert not res.failure_report().degraded
        assert res.failure_report().summary() == "no failures"


# ---------------------------------------------------------------------------
class TestFailureReport:
    def test_empty_report(self):
        rep = FailureReport()
        assert not rep.degraded
        assert rep.to_dict()["degraded"] is False

    def test_summary_lists_everything(self):
        rep = FailureReport(timeouts=["a"], quarantined=["b"],
                            skipped=["c", "d"], worker_crashes=2,
                            pools_killed=3, deadline_hit=True)
        s = rep.summary()
        for fragment in ("1 timeout", "1 quarantined", "2 skipped",
                         "2 worker crash", "deadline hit"):
            assert fragment in s
        assert rep.degraded


# ---------------------------------------------------------------------------
class TestSessionAndCLI:
    def test_session_routes_resilience_kwargs(self, tmp_path):
        from repro import Session
        ckpt_path = str(tmp_path / "s.ckpt")
        s = Session(obs=False)
        res = s.run_campaign(measure_mid, delta_detector, divider(),
                             mid_faults(3), threshold=0.5,
                             checkpoint=ckpt_path, fault_timeout_s=30.0)
        assert res.n_faults == 3
        assert res.threshold == 0.5
        assert os.path.exists(ckpt_path)
        resumed = s.run_campaign(measure_mid, delta_detector, divider(),
                                 mid_faults(3), threshold=0.5,
                                 checkpoint=ckpt_path, resume=True,
                                 fault_timeout_s=30.0)
        assert normalize(resumed.to_dict()) == normalize(res.to_dict())

    def test_cli_partial_detection(self):
        from repro.experiments.__main__ import _is_partial
        assert not _is_partial({"a": [{"b": 1}]})
        assert _is_partial({"runs": [{"nested": {"partial": True}}]})
        assert not _is_partial({"partial": False})
