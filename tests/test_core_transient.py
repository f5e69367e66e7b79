"""Tests for transient-response testing, detection metric and the
impulse method."""

import numpy as np
import pytest

from repro.circuits.op1 import op1_follower
from repro.core import (
    TransientMeasurement,
    TransientResponseTester,
    TransientTestConfig,
    detection_instances,
    detection_profile,
)
from repro.core.detection import detection_runs, first_detection_time
from repro.core.impulse_method import (
    ImpulseMethodConfig,
    circuit2_response,
    extract_integrator_model,
    integrator_impulse_response,
    integrator_opamp_fixture,
)
from repro.faults import StuckAtFault, inject
from repro.signals import Waveform

FAST_CONFIG = TransientTestConfig(low_v=2.0, high_v=3.5, sim_dt_s=10e-6)


class TestDetectionMetric:
    def test_identical_waveforms_zero_detection(self):
        w = Waveform(np.sin(np.linspace(0, 10, 100)), 1.0)
        assert detection_instances(w, w) == 0.0

    def test_fully_different_all_detected(self):
        ref = Waveform(np.ones(50), 1.0)
        faulty = Waveform(np.zeros(50), 1.0)
        assert detection_instances(ref, faulty) == 1.0

    def test_partial_deviation(self):
        ref = Waveform(np.ones(100), 1.0)
        vals = np.ones(100)
        vals[60:] = 0.0  # deviates in the last 40%
        assert detection_instances(ref, Waveform(vals, 1.0)) == pytest.approx(0.4)

    def test_threshold_scales_with_reference_peak(self):
        ref = Waveform(10.0 * np.ones(10), 1.0)
        nearly = Waveform(10.0 * np.ones(10) + 0.3, 1.0)
        # 0.3 < 5% of 10
        assert detection_instances(ref, nearly, rel_threshold=0.05) == 0.0
        assert detection_instances(ref, nearly, rel_threshold=0.01) == 1.0

    def test_noise_floor_masks_small_deviations(self):
        ref = Waveform(np.zeros(10) + 1.0, 1.0)
        faulty = Waveform(np.zeros(10) + 1.2, 1.0)
        d = detection_instances(ref, faulty, rel_threshold=0.0,
                                noise_sigma=0.1, noise_k=3.0)
        assert d == 0.0  # 0.2 < 3*0.1

    def test_profile_flags_location(self):
        ref = Waveform(np.zeros(10), 1.0)
        vals = np.zeros(10)
        vals[3] = 1.0
        profile = detection_profile(ref, Waveform(vals, 1.0),
                                    rel_threshold=0.0, noise_sigma=0.1)
        assert profile.values[3] == 1.0
        assert profile.values.sum() == 1.0

    def test_first_detection_time(self):
        ref = Waveform(np.zeros(10), 1.0)
        vals = np.zeros(10)
        vals[4:] = 1.0
        t = first_detection_time(ref, Waveform(vals, 1.0),
                                 rel_threshold=0.0, noise_sigma=0.01)
        assert t == pytest.approx(4.0)

    def test_first_detection_none(self):
        ref = Waveform(np.zeros(10), 1.0)
        assert first_detection_time(ref, ref, noise_sigma=0.1) is None

    def test_detection_runs(self):
        ref = Waveform(np.zeros(8), 1.0)
        vals = np.array([0, 1, 1, 0, 1, 0, 0, 1.0])
        runs, longest = detection_runs(ref, Waveform(vals, 1.0),
                                       rel_threshold=0.0, noise_sigma=0.1)
        assert runs == 3
        assert longest == 2

    def test_mismatched_rates_resampled(self):
        ref = Waveform(np.ones(10), 1.0)
        faulty = Waveform(np.ones(20), 0.5)
        assert detection_instances(ref, faulty) == 0.0

    def test_validation(self):
        w = Waveform([1.0], 1.0)
        with pytest.raises(ValueError):
            detection_instances(w, w, rel_threshold=-1.0)
        with pytest.raises(ValueError):
            detection_instances(Waveform([], 1.0), Waveform([], 1.0))


class TestTransientTester:
    def test_measure_produces_all_fields(self):
        tester = TransientResponseTester(FAST_CONFIG)
        m = tester.measure(op1_follower(input_value=2.5))
        assert isinstance(m, TransientMeasurement)
        assert len(m.response) > 100
        assert len(m.correlation) > 10
        assert m.correlation_peak() > 0.5  # follower: gain ~1 path

    def test_response_follows_prbs_levels(self):
        tester = TransientResponseTester(FAST_CONFIG)
        m = tester.measure(op1_follower(input_value=2.5))
        # stays within the rails (ringing overshoot allowed) and the
        # mean sits between the chip levels
        assert 0.0 <= m.response.trough()
        assert m.response.peak() <= 5.0
        assert 2.0 < m.response.mean() < 3.5
        # at the end of the final chip the output has settled onto it
        final_chip = m.stimulus.values[-1]
        assert m.response.values[-1] == pytest.approx(final_chip, abs=0.2)

    def test_normalized_correlation_bounded(self):
        tester = TransientResponseTester(FAST_CONFIG)
        m = tester.measure(op1_follower(input_value=2.5))
        assert np.max(np.abs(m.normalized.values)) <= 1.0 + 1e-9

    def test_stuck_output_correlates_to_zero(self):
        tester = TransientResponseTester(FAST_CONFIG)
        faulty = inject(op1_follower(input_value=2.5), StuckAtFault.sa0("3"))
        m = tester.measure(faulty)
        assert m.correlation_peak() < 0.1

    def test_fault_detected_against_reference(self):
        tester = TransientResponseTester(FAST_CONFIG)
        ref = tester.measure(op1_follower(input_value=2.5)).correlation
        faulty = inject(op1_follower(input_value=2.5), StuckAtFault.sa1("7"))
        m = tester.measure(faulty).correlation
        assert detection_instances(ref, m, rel_threshold=0.02) > 0.5

    def test_noise_injection(self):
        cfg = TransientTestConfig(low_v=2.0, high_v=3.5, sim_dt_s=10e-6,
                                  noise_sigma_v=0.05)
        tester = TransientResponseTester(cfg)
        clean = TransientResponseTester(FAST_CONFIG).measure(
            op1_follower(input_value=2.5)).response
        noisy = tester.measure(op1_follower(input_value=2.5)).response
        assert np.std(noisy.values - clean.values) > 0.02

    def test_correlation_rejects_noise(self):
        """The paper's claim: R(y,p) changes far less than y itself."""
        clean_cfg = FAST_CONFIG
        noisy_cfg = TransientTestConfig(low_v=2.0, high_v=3.5,
                                        sim_dt_s=10e-6, noise_sigma_v=0.05)
        ckt = op1_follower(input_value=2.5)
        clean = TransientResponseTester(clean_cfg).measure(ckt)
        noisy = TransientResponseTester(noisy_cfg).measure(ckt)
        resp_dev = np.std(noisy.response.values - clean.response.values) \
            / np.std(clean.response.values)
        n = min(len(noisy.correlation), len(clean.correlation))
        corr_dev = np.std(noisy.correlation.values[:n]
                          - clean.correlation.values[:n]) \
            / np.std(clean.correlation.values[:n])
        assert corr_dev < resp_dev / 3.0

    def test_non_source_rejected(self):
        tester = TransientResponseTester(FAST_CONFIG, source_name="RL")
        with pytest.raises(TypeError):
            tester.prepare(op1_follower(input_value=2.5), tester.stimulus())

    def test_window_validation(self):
        cfg = TransientTestConfig(window_chips=(1.0, -1.0))
        tester = TransientResponseTester(cfg)
        with pytest.raises(ValueError):
            tester.windowed(Waveform(np.zeros(10), 1.0))

    def test_technique_returns_correlation(self):
        tester = TransientResponseTester(FAST_CONFIG)
        run = tester.technique()
        out = run(op1_follower(input_value=2.5))
        assert isinstance(out, Waveform)


class TestImpulseMethod:
    @pytest.fixture(scope="class")
    def fixture(self):
        return integrator_opamp_fixture()

    @pytest.fixture(scope="class")
    def model_ff(self, fixture):
        return extract_integrator_model(fixture)

    def test_fault_free_extraction(self, model_ff):
        assert model_ff.charge_gain == pytest.approx(1.0, abs=0.05)
        assert model_ff.leak_per_cycle == pytest.approx(0.0, abs=0.01)
        assert abs(model_ff.offset_v) < 0.05
        assert model_ff.sat_hi_v > 1.0
        assert model_ff.sat_lo_v < -0.5

    def test_fault_free_has_rational_model(self, model_ff):
        assert model_ff.amplifier_tf is not None
        assert model_ff.amplifier_tf.dc_gain() == pytest.approx(1.0, abs=0.05)
        # stable closed loop
        assert all(p.real < 0 for p in model_ff.amplifier_tf.poles())

    def test_settling_fraction_in_range(self, model_ff):
        assert 0.0 < model_ff.settling_fraction <= 1.0

    def test_impulse_response_level(self, model_ff):
        cfg = ImpulseMethodConfig()
        h = integrator_impulse_response(model_ff, cfg)
        # first packet: amplitude/6.8
        expected = cfg.impulse_amplitude_v / 6.8
        assert h.values[0] == pytest.approx(expected, rel=0.1)

    def test_dead_amp_flat_response(self, fixture):
        faulty = inject(fixture, StuckAtFault.sa0("7"))
        model = extract_integrator_model(faulty)
        assert model.charge_gain < 0.1
        h = integrator_impulse_response(model)
        # response pinned at its (collapsed) saturation level
        assert np.ptp(h.values) < 0.2

    def test_circuit2_response_is_correlation_window(self, model_ff):
        cfg = ImpulseMethodConfig()
        r = circuit2_response(model_ff, cfg)
        assert len(r) == 2 * cfg.correlation_window + 1

    def test_circuit2_fault_differs(self, fixture, model_ff):
        cfg = ImpulseMethodConfig()
        r_ff = circuit2_response(model_ff, cfg)
        faulty = inject(fixture, StuckAtFault(
            name="7-sa1", node="7", level=5.0,
            resistance=cfg.stuck_resistance_ohm))
        r_f = circuit2_response(extract_integrator_model(faulty, cfg), cfg)
        assert detection_instances(r_ff, r_f, rel_threshold=0.03) > 0.5

    def test_to_ztf_consistency(self, model_ff):
        ztf = model_ff.to_ztf()
        step = ztf.step(5)
        assert step[2] - step[1] == pytest.approx(
            model_ff.charge_gain / 6.8, rel=1e-6)

    def test_paper_faults_respect_config(self):
        cfg = ImpulseMethodConfig(stuck_resistance_ohm=1234.0)
        faults = cfg.paper_faults()
        stuck = [f for f in faults if isinstance(f, StuckAtFault)]
        assert all(f.resistance == 1234.0 for f in stuck)
