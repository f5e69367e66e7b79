"""Batched (lockstep K-variant) engine equivalence and campaign batching.

The batched engine's contract is *bitwise* agreement with the serial
engine — stronger than the fast-path 1e-9 gate, because batching only
re-orders work, never re-associates arithmetic.  These tests pin that
contract on both marching routes (lockstep linear tensor, step-
synchronised Newton), then pin the campaign layer: ``batch_size=K``
runs must produce ``to_dict()``-identical results to serial runs —
including under per-fault timeouts, retry-ladder recoveries, fallback
slots and process pools — with wall-clock fields as the only permitted
difference.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.circuits.op1 import op1_follower
from repro.core.detection import detection_instances
from repro.core.transient_test import TransientResponseTester, TransientTestConfig
from repro.faults.campaign import FaultCampaign
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.faults.injector import inject
from repro.faults.model import BridgingFault, StuckAtFault
from repro.faults.universe import paper_circuit1_faults, stuck_at_universe
from repro.obs.core import observe
from repro.resilience.deadline import check_deadline
from repro.service import CampaignSpec
from repro.signals.prbs import prbs_waveform
from repro.signals.waveform import Waveform
from repro.spice import (Circuit, GridMismatchWarning, batched_transient,
                         transient)
from repro.spice.batched import BatchedMarch
from repro.spice.transient import CircuitMarch


# --- fixtures -------------------------------------------------------------

def _step(t):
    return 1.0 if t > 1e-6 else 0.0


def _ladder():
    c = Circuit("ladder")
    c.vsource("V1", "in", "0", _step)
    c.resistor("R1", "in", "a", 1e3)
    c.capacitor("C1", "a", "0", 1e-9)
    c.resistor("R2", "a", "b", 2e3)
    c.capacitor("C2", "b", "0", 2e-9)
    c.resistor("R3", "b", "0", 10e3)
    return c


def _bridge_variants(n=5):
    faults = [BridgingFault(f"br{i}", "a", "b", resistance=100.0 * (i + 1))
              for i in range(n)]
    return [inject(_ladder(), f) for f in faults]


def _hard_stack(n=10):
    """NMOS diode stack whose OP needs the gmin-stepping retry ladder
    (same fixture family as the resilience tests)."""
    c = Circuit(f"stack{n}")
    c.vsource("VDD", "vdd", "0", float(2 * n))
    c.isource("IB", "vdd", "n0", 1e-3)
    prev = "n0"
    for i in range(n):
        nxt = "0" if i == n - 1 else f"n{i + 1}"
        c.nmos(f"M{i}", prev, prev, nxt)
        prev = nxt
    return c


def _assert_bitwise(batched_result, serial_result, nodes):
    assert np.array_equal(batched_result.times, serial_result.times)
    for node in nodes:
        assert np.array_equal(batched_result.array(node),
                              serial_result.array(node))


def _stats_sans_engine(stats):
    return {k: v for k, v in stats.items() if k not in ("engine", "batch_k")}


# --- batched_transient: lockstep linear route -----------------------------

def test_batched_linear_march_bitwise_identical():
    variants = _bridge_variants(5)
    batched = batched_transient(variants, 2e-5, 1e-8, record=["a", "b"])
    for circuit, got in zip(variants, batched):
        ref = transient(circuit, 2e-5, 1e-8, record=["a", "b"])
        assert got is not None
        assert got.stats["engine"] == "batched_linear_march"
        assert got.stats["batch_k"] == 5
        _assert_bitwise(got, ref, ["a", "b"])


def test_batched_linear_march_groups_shared_sources():
    # The faulty copies share the base circuit's stimulus object, so all
    # five variants land in one lockstep group.
    with observe() as h:
        batched_transient(_bridge_variants(5), 1e-5, 1e-8, record=["b"])
    counters = h.metrics.to_dict()
    assert counters["batched.lockstep_groups"]["value"] == 1
    assert counters["batched.march_variants"]["value"] == 5


def test_batched_records_branch_currents_identically():
    variants = _bridge_variants(3)
    batched = batched_transient(variants, 1e-5, 1e-8, record=["b"],
                                record_branches=["V1"])
    for circuit, got in zip(variants, batched):
        ref = transient(circuit, 1e-5, 1e-8, record=["b"],
                        record_branches=["V1"])
        assert np.array_equal(got.branch_current("V1").values,
                              ref.branch_current("V1").values)


# --- batched_transient: step-synchronised Newton route --------------------

def test_batched_newton_route_bitwise_identical():
    def drive(t):
        return 2.2 if t < 5e-6 else 2.8
    faults = stuck_at_universe(["4", "5", "7"])
    variants = [inject(op1_follower(input_value=drive), f) for f in faults]
    batched = batched_transient(variants, 2e-5, 2.5e-7, record=["3"])
    for circuit, got in zip(variants, batched):
        ref = transient(circuit, 2e-5, 2.5e-7, record=["3"])
        assert got is not None
        assert got.stats["engine"] == "batched_newton"
        _assert_bitwise(got, ref, ["3"])
        # Newton iteration counts, LU reuse, subdivisions... must agree
        # exactly — lockstep is step-synchronised, not re-associated.
        assert _stats_sans_engine(got.stats) == _stats_sans_engine(ref.stats)


def _e7_variants(faults, with_reference=False):
    """E7's circuit-1 variants sharing one PRBS stimulus object (what
    the transient technique's batch protocol hands the engine)."""
    cfg = TransientTestConfig(low_v=2.0, high_v=3.5)
    tester = TransientResponseTester(cfg)
    stimulus = cfg.stimulus()
    base = op1_follower(input_value=2.5)
    circuits = ([base] if with_reference else []) + [inject(base, f)
                                                     for f in faults]
    variants = [c.copy() for c in circuits]
    for v in variants:
        v.element(tester.source_name).value = stimulus
    return variants, cfg, stimulus


def _assert_lockstep_matches_serial(variants, t_stop, dt):
    with observe() as h:
        batched = batched_transient(variants, t_stop, dt, record=["3"])
    serial = [transient(c, t_stop, dt, record=["3"]) for c in variants]
    for got, ref in zip(batched, serial):
        assert got is not None
        assert got.stats["engine"] == "batched_newton"
        _assert_bitwise(got, ref, ["3"])
        assert _stats_sans_engine(got.stats) == _stats_sans_engine(ref.stats)
    return h.metrics.counter_values(), serial


def test_lockstep_newton_e7_universe_bitwise_identical():
    # The paper's 16 circuit-1 faults fall into two MNA sizes (n=13 for
    # node stuck-ats, n=15 for the stuck-at pairs), i.e. two lockstep
    # groups, each bitwise equal to the serial march.
    variants, cfg, stimulus = _e7_variants(paper_circuit1_faults())
    sizes = {c.system_size() for c in variants}
    assert sizes == {13, 15}
    counters, _serial = _assert_lockstep_matches_serial(
        variants, stimulus.duration, cfg.sim_dt_s)
    n_steps = int(round(stimulus.duration / cfg.sim_dt_s))
    assert counters["batched.lockstep_groups"] == 2
    assert counters["batched.lockstep_steps"] == 16 * n_steps


def test_lockstep_newton_group_with_subdividing_variants():
    # The fault-free reference and a weak bridge halve their steps at
    # grid points 216-250 while the hard bridges march straight
    # through: failed rows leave the lockstep for the serial
    # subdivision, the rest continue.  Bridges add no unknowns, so all
    # four variants share one group.
    faults = [BridgingFault("b3-0", "3", "0", resistance=1e6),
              BridgingFault("b3-0h", "3", "0", resistance=1e4),
              BridgingFault("b7-8", "7", "8", resistance=1e3)]
    variants, cfg, _stimulus = _e7_variants(faults, with_reference=True)
    t_stop = 260 * cfg.sim_dt_s
    counters, serial = _assert_lockstep_matches_serial(variants, t_stop,
                                                       cfg.sim_dt_s)
    subdivisions = [r.stats["subdivisions"] for r in serial]
    assert subdivisions[0] > 0 and subdivisions[1] > 0
    assert subdivisions[2] == subdivisions[3] == 0
    assert counters["batched.lockstep_groups"] == 1
    assert counters["transient.subdivisions"] == sum(subdivisions)


def test_lockstep_newton_falls_back_for_ineligible_variants():
    # A Switch is a nonlinear element outside the vectorised MOSFET
    # group: that variant keeps the per-variant loop inside the batch
    # while its same-size neighbours lockstep.
    def drive(t):
        return 2.2 if t < 5e-6 else 2.8
    faults = stuck_at_universe(["4", "5"])
    variants = [inject(op1_follower(input_value=drive), f) for f in faults]
    switched = op1_follower(input_value=drive)
    switched.switch("S1", "3", "0", "1", "0", v_on=10.0)
    variants.insert(1, inject(switched, faults[0]))
    assert len({c.system_size() for c in variants}) == 1
    counters, _serial = _assert_lockstep_matches_serial(variants, 2e-5,
                                                        2.5e-7)
    assert counters["batched.lockstep_groups"] == 1
    assert counters["batched.lockstep_steps"] == 80 * (len(variants) - 1)


def test_batched_trap_method_bitwise_identical():
    variants = _bridge_variants(3)
    batched = batched_transient(variants, 1e-5, 1e-8, record=["b"],
                                method="trap")
    for circuit, got in zip(variants, batched):
        ref = transient(circuit, 1e-5, 1e-8, record=["b"], method="trap")
        _assert_bitwise(got, ref, ["b"])


# --- eviction -------------------------------------------------------------

def test_batched_evicts_bad_variant_and_keeps_the_rest():
    variants = _bridge_variants(3)
    broken = Circuit("broken")
    broken.vsource("V1", "in", "0", _step)
    broken.resistor("R1", "in", "0", 1e3)   # has no node "b" to record
    circuits = [variants[0], broken, variants[1], variants[2]]
    march = BatchedMarch(circuits, 1e-5, 1e-8, record=["b"])
    results = march.run()
    assert results[1] is None
    assert "b" in march.failures[1]
    for i in (0, 2, 3):
        assert results[i] is not None
        ref = transient(circuits[i], 1e-5, 1e-8, record=["b"])
        _assert_bitwise(results[i], ref, ["b"])


def test_batched_validates_arguments_like_serial():
    with pytest.raises(ValueError):
        batched_transient(_bridge_variants(1), t_stop=-1.0, dt=1e-8)
    with pytest.raises(ValueError):
        batched_transient(_bridge_variants(1), t_stop=1e-5, dt=0.0)
    with pytest.raises(ValueError):
        batched_transient(_bridge_variants(1), t_stop=1e-5, dt=1e-8,
                          method="rk4")
    # an off-grid t_stop warns at the caller's line and logs one event,
    # exactly as the serial engine does
    for run in (transient, batched_transient):
        circuit = _ladder() if run is transient else _bridge_variants(2)
        with observe() as h:
            with pytest.warns(GridMismatchWarning) as caught:
                run(circuit, t_stop=1.05e-6, dt=1e-7, record=["b"])
        assert caught[0].filename == __file__
        events = h.events.records(name="transient.grid_mismatch")
        assert len(events) == 1
        assert events[0]["fields"]["t_end"] == pytest.approx(1.0e-6)


# --- source sampling: work counters ---------------------------------------
# A scalar Waveform call costs O(len(values)), so a march that sampled
# its stimulus per grid point (or per Newton build) was quadratic.

@pytest.fixture
def waveform_calls(monkeypatch):
    """Count every ``Waveform.__call__`` (scalar or vector)."""
    calls = []
    call = Waveform.__call__

    def counted(self, t):
        calls.append(np.ndim(t))
        return call(self, t)

    monkeypatch.setattr(Waveform, "__call__", counted)
    return calls


@pytest.fixture
def timepoints(monkeypatch):
    """Count the timepoints Newton marches attempt: each step attempt
    (subdivision halves included) plus each march's t = 0 point."""
    seen = []
    for name in ("start", "begin_step"):
        method = getattr(CircuitMarch, name)

        def counted(self, *args, _method=method, **kwargs):
            seen.append(self.slot)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(CircuitMarch, name, counted)
    return seen


def _prbs_ladder_variants(n):
    """RC-ladder bridge variants sharing one PRBS Waveform stimulus."""
    stimulus = prbs_waveform(order=4, chip_time=1e-6, dt=1e-8)
    base = _ladder()
    base.element("V1").value = stimulus
    faults = [BridgingFault(f"br{i}", "a", "b", resistance=100.0 * (i + 1))
              for i in range(n)]
    return [inject(base, f) for f in faults], stimulus.duration


def test_linear_march_samples_each_waveform_once(waveform_calls):
    variants, t_stop = _prbs_ladder_variants(1)
    result = transient(variants[0], t_stop, 1e-8, record=["b"])
    assert result.stats["engine"] == "linear_march"
    assert waveform_calls == [1]   # one vector call: DC point and march


def test_linear_march_samples_two_waveforms_once_each(waveform_calls):
    variants, t_stop = _prbs_ladder_variants(1)
    circuit = variants[0]
    circuit.isource("I1", "0", "b", prbs_waveform(order=4, chip_time=1e-6,
                                                   low=0.0, high=1e-4,
                                                   dt=1e-8, seed=5))
    circuit.vsource("V2", "c", "0", _step)    # a callable: per point
    circuit.resistor("R4", "c", "0", 1e3)
    result = transient(circuit, t_stop, 1e-8, record=["b"])
    assert result.stats["engine"] == "linear_march"
    assert waveform_calls == [1, 1]


def test_batched_linear_march_samples_shared_waveform_once(waveform_calls):
    variants, t_stop = _prbs_ladder_variants(4)
    batched = batched_transient(variants, t_stop, 1e-8, record=["b"])
    assert {r.stats["engine"] for r in batched} == {"batched_linear_march"}
    assert waveform_calls == [1]
    del waveform_calls[:]
    serial = [transient(c, t_stop, 1e-8, record=["b"]) for c in variants]
    for got, ref in zip(batched, serial):
        _assert_bitwise(got, ref, ["b"])
    assert waveform_calls == [1] * 4


def test_newton_march_samples_once_per_timepoint(waveform_calls, timepoints):
    # the reference and a weak bridge subdivide (see the lockstep test
    # above); on-grid points read the one presampled vector, and only
    # the off-grid half-step points call the source again
    faults = [BridgingFault("b3-0", "3", "0", resistance=1e6),
              BridgingFault("b7-8", "7", "8", resistance=1e3)]
    variants, cfg, _stimulus = _e7_variants(faults, with_reference=True)
    t_stop = 260 * cfg.sim_dt_s
    for circuit in variants:
        del waveform_calls[:], timepoints[:]
        result = transient(circuit, t_stop, cfg.sim_dt_s, record=["3"])
        assert result.stats["engine"] == "newton"
        assert len(timepoints) > 260
        assert len(waveform_calls) <= len(timepoints) - 260 + 1
        if result.stats["subdivisions"] == 0:
            assert waveform_calls == [1]
    assert result.stats["subdivisions"] == 0   # the hard bridge
    del waveform_calls[:], timepoints[:]
    batched = batched_transient(variants, t_stop, cfg.sim_dt_s, record=["3"])
    assert {r.stats["engine"] for r in batched} == {"batched_newton"}
    # one presample for the whole lockstep batch, then off-grid points
    assert waveform_calls[0] == 1
    assert len(waveform_calls) <= len(timepoints) - 3 * 260 + 1


# --- campaign batch_size: equality with serial ----------------------------

def _normalized(result):
    """CampaignResult.to_dict with wall-clock zeroed: timing is the only
    permitted batched-vs-serial difference."""
    doc = result.to_dict()
    doc["elapsed_s"] = 0.0
    doc["outcomes"] = [dict(o, elapsed_s=0.0) for o in doc["outcomes"]]
    return doc


def _dictionary_campaign(**kwargs):
    technique = TransientSignatureTechnique(t_stop=3.1e-3, dt=1e-6,
                                            node="n9")
    return FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                         threshold=0.0, **kwargs)


def _dictionary_scenario():
    return (dictionary_ladder(n_sections=10),
            dictionary_faults(n_sections=10, n_faults=16))


def test_campaign_batched_matches_serial():
    target, faults = _dictionary_scenario()
    serial = _dictionary_campaign().run(target, faults)
    batched = _dictionary_campaign(batch_size=8).run(target, faults)
    assert _normalized(batched) == _normalized(serial)
    for s, b in zip(serial.outcomes, batched.outcomes):
        assert np.array_equal(s.measurement, b.measurement)


def test_campaign_run_batch_size_overrides_campaign_default():
    target, faults = _dictionary_scenario()
    serial = _dictionary_campaign().run(target, faults)
    batched = _dictionary_campaign().run(target, faults,
                                         spec=CampaignSpec(batch_size=16))
    assert _normalized(batched) == _normalized(serial)


def test_campaign_pooled_batched_matches_serial():
    # workers=2 x batch_size=8: chunks cross the process boundary; the
    # technique/detector classes pickle, outcomes stay in fault order.
    target, faults = _dictionary_scenario()
    serial = _dictionary_campaign().run(target, faults)
    pooled = _dictionary_campaign(batch_size=8, workers=2).run(target, faults)
    got, want = _normalized(pooled), _normalized(serial)
    assert got.pop("workers") == 2 and want.pop("workers") == 1
    assert got == want


def test_campaign_e7_universe_batched_matches_serial():
    # The paper's circuit-1 fault universe through the PRBS correlation
    # technique — the tentpole's acceptance scenario: batch_size=32
    # to_dict()-identical to serial.
    tester = TransientResponseTester(TransientTestConfig(low_v=2.0,
                                                         high_v=3.5))
    target = op1_follower(input_value=2.5)
    faults = paper_circuit1_faults()

    def detector(ref, m):
        return detection_instances(ref, m, rel_threshold=0.02)

    serial = FaultCampaign(tester.technique(), detector,
                           threshold=0.05).run(target, faults)
    batched = FaultCampaign(tester.technique(), detector, threshold=0.05,
                            batch_size=32).run(target, faults)
    assert _normalized(batched) == _normalized(serial)
    for s, b in zip(serial.outcomes, batched.outcomes):
        if s.measurement is not None:
            assert np.array_equal(s.measurement.values, b.measurement.values)


# --- route agreement: serial, batched and surrogate routes of a technique --

_ROUTE_CONFIG = TransientTestConfig(low_v=2.0, high_v=3.5, sim_dt_s=10e-6)


def _route_cases():
    op1 = op1_follower(input_value=2.5)
    op1_faults = paper_circuit1_faults()[:3]
    ladder = dictionary_ladder(4)
    return {
        "correlation": (TransientResponseTester(_ROUTE_CONFIG).technique(),
                        op1, op1_faults),
        "correlation_noisy": (TransientResponseTester(
            dataclasses.replace(_ROUTE_CONFIG, noise_sigma_v=0.05)
        ).technique(), op1, op1_faults),
        "signature": (TransientSignatureTechnique(t_stop=2e-4, dt=1e-6,
                                                  node="n3"),
                      ladder, dictionary_faults(4, n_faults=4)),
    }


def _values(measurement):
    return getattr(measurement, "values", measurement)


@pytest.mark.parametrize("case", ["correlation", "correlation_noisy",
                                  "signature"])
def test_technique_routes_agree_bitwise(case):
    """A technique's serial call, its batched chunk and its surrogate
    workload's post-processing (applied to the serial MNA response)
    give one measurement, bit for bit."""
    technique, target, faults = _route_cases()[case]
    serial = [technique(inject(target, f)) for f in faults]
    batched = technique.evaluate_batch(target, faults)
    assert len(batched) == len(faults)
    for s, b in zip(serial, batched):
        assert np.array_equal(_values(s), _values(b))

    workload = technique.surrogate_workload(target)
    for circuit, want in [(target, technique(target))] + list(
            zip([inject(target, f) for f in faults], serial)):
        wired = circuit.copy()
        wired.element(workload.source_name).value = workload.stimulus
        y = transient(wired, workload.t_stop, workload.dt,
                      record=[workload.output_node],
                      method=workload.method)[workload.output_node]
        assert np.array_equal(_values(workload.postprocess(y)),
                              _values(want))


def test_campaign_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        _dictionary_campaign(batch_size=0)


# --- campaign batch_size: fallback, timeouts, retry recoveries ------------

class _FallbackTechnique:
    """Batch protocol implementation that serves nothing: every slot
    comes back ``None``, so the campaign must reproduce the serial
    path exactly through per-fault re-runs."""

    def __call__(self, circuit):
        return transient(circuit, 1e-5, 1e-7, record=["b"]).array("b")

    def evaluate_batch(self, target, faults):
        return [None] * len(faults)


def test_campaign_batch_fallback_reproduces_serial():
    target = _ladder()
    faults = [BridgingFault(f"br{i}", "a", "b", resistance=100.0 * (i + 1))
              for i in range(4)]
    faults.append(BridgingFault("ghost", "a", "nope", resistance=100.0))
    technique = _FallbackTechnique()
    detector = SignatureDetector(abs_v=0.01)
    serial = FaultCampaign(technique, detector).run(target, faults)
    batched = FaultCampaign(technique, detector, batch_size=4).run(
        target, faults)
    assert _normalized(batched) == _normalized(serial)
    # the unknown-node fault errors identically through both paths
    assert serial.outcomes[-1].error is not None
    assert batched.outcomes[-1].error == serial.outcomes[-1].error


class _SlowTechnique:
    """Cooperative-spin technique: faults bridging the marked node busy-
    wait (checking the ambient deadline) until their budget fires; every
    other fault measures instantly.  ``evaluate_batch`` spins the same
    way, so the chunk attempt times out and the campaign must fall back
    to per-fault serial evaluation — whose outcomes (including the
    structured timeout) must equal a plain serial run's."""

    MARKER = "slowpoke"

    def _measure(self, name):
        if self.MARKER in name:
            t_end = time.monotonic() + 20.0   # backstop; deadline fires first
            while time.monotonic() < t_end:
                check_deadline("slow fault spin")
            raise RuntimeError("deadline never fired")   # pragma: no cover
        return np.ones(8)

    def __call__(self, circuit):
        return self._measure(circuit.name)

    def evaluate_batch(self, target, faults):
        for fault in faults:
            self._measure(fault.name)
        return [np.ones(8)] * len(faults)


def test_campaign_batched_matches_serial_under_fault_timeouts():
    target = _ladder()
    faults = [BridgingFault("br0", "a", "b", resistance=100.0),
              BridgingFault(_SlowTechnique.MARKER, "a", "b",
                            resistance=200.0),
              BridgingFault("br2", "a", "b", resistance=300.0)]
    detector = SignatureDetector(abs_v=0.5)
    serial = FaultCampaign(_SlowTechnique(), detector).run(
        target, faults, spec=CampaignSpec(fault_timeout_s=0.2))
    batched = FaultCampaign(_SlowTechnique(), detector, batch_size=3).run(
        target, faults, spec=CampaignSpec(fault_timeout_s=0.2))
    assert serial.n_timeouts == batched.n_timeouts == 1
    assert serial.outcomes[1].timed_out and batched.outcomes[1].timed_out
    assert not batched.outcomes[1].detected
    assert _normalized(batched) == _normalized(serial)


def test_campaign_batched_matches_serial_under_retry_recoveries():
    # Biasing this deck needs the gmin-stepping retry ladder; the
    # batched bind path runs the same homotopy as the serial engine, so
    # outcomes and retry behaviour match the serial campaign exactly.
    target = _hard_stack()
    faults = [StuckAtFault.sa0("n2"), StuckAtFault.sa1("n3", vdd=5.0),
              StuckAtFault.sa0("n4")]
    technique = TransientSignatureTechnique(t_stop=2e-5, dt=1e-6, node="n0")
    detector = SignatureDetector(abs_v=0.05)
    # prove the fixture actually exercises the retry ladder (the
    # campaign's reference measurement biases this same deck)
    from repro.spice import dc_operating_point
    with observe() as h:
        dc_operating_point(target)
    assert h.metrics.to_dict()["solver.retries"]["value"] >= 1
    serial = FaultCampaign(technique, detector).run(target, faults)
    batched = FaultCampaign(technique, detector, batch_size=3).run(
        target, faults)
    assert _normalized(batched) == _normalized(serial)
    for s, b in zip(serial.outcomes, batched.outcomes):
        if s.measurement is not None:
            assert np.array_equal(s.measurement, b.measurement)


# --- dictionary scenario builders ----------------------------------------

def test_dictionary_detector_validates():
    with pytest.raises(ValueError):
        SignatureDetector(abs_v=-0.1)


def test_dictionary_faults_validates_universe_size():
    with pytest.raises(ValueError):
        dictionary_faults(n_sections=3, n_faults=64)


def test_dictionary_campaign_detects_hard_bridges():
    target, faults = _dictionary_scenario()
    result = _dictionary_campaign(batch_size=16).run(target, faults)
    assert result.n_faults == 16
    assert result.n_errors == 0
    assert result.coverage == 1.0
