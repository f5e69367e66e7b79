"""Integration tests: every experiment runner reproduces the paper's
qualitative shape.  These are the repository's headline checks."""

import numpy as np
import pytest

from repro.experiments import (
    e1_step_table,
    e2_ramp_test,
    e3_digital_tests,
    e4_compressed,
    e5_batch10,
    e6_fig2_dnl,
    e7_fig4_detection,
    e8_zdomain,
    e9_adc_transfer,
)


class TestE1StepTable:
    @pytest.fixture(scope="class")
    def result(self):
        return e1_step_table.run()

    def test_six_rows(self, result):
        assert len(result.rows()) == 6

    def test_fall_times_monotone_decreasing(self, result):
        assert result.monotone_decreasing()

    def test_endpoints_match_paper(self, result):
        rows = result.rows()
        assert rows[0][1] == pytest.approx(2.6e-3, abs=0.02e-3)
        assert rows[-1][1] == pytest.approx(0.1e-3, abs=0.02e-3)

    def test_within_off_line_deviation(self, result):
        # the paper's two low-amplitude points sit ~0.26 ms off the
        # analytic line; our model follows the line, so the worst error
        # against the paper's table stays below 0.3 ms
        assert result.max_abs_error_s < 0.3e-3


class TestE2Ramp:
    @pytest.fixture(scope="class")
    def result(self):
        return e2_ramp_test.run()

    def test_six_measurements(self, result):
        assert len(result.nominal_codes) == 6

    def test_nominal_tracks_expected(self, result):
        for code, expected in zip(result.nominal_codes,
                                  result.expected_codes):
            assert abs(code - expected) <= 1

    def test_gain_fault_exposed_by_healthy_ramp(self, result):
        assert result.unmasked_detected

    def test_gain_fault_masked_by_compensating_ramp(self, result):
        """The paper's caveat, demonstrated quantitatively."""
        assert result.masking_occurs


class TestE3Digital:
    @pytest.fixture(scope="class")
    def result(self):
        return e3_digital_tests.run()

    def test_passes(self, result):
        assert result.passed

    def test_conversion_under_paper_limit(self, result):
        assert result.report.max_conversion_time_s <= 5.6e-3

    def test_ten_microsecond_fall_delta(self, result):
        assert result.report.fall_time_delta_s == pytest.approx(10e-6,
                                                                abs=1e-9)

    def test_ten_mv_per_code(self, result):
        assert result.report.mv_per_code == pytest.approx(10.0, rel=0.01)


class TestE4Compressed:
    @pytest.fixture(scope="class")
    def result(self):
        return e4_compressed.run()

    def test_healthy_passes(self, result):
        assert result.healthy_passes

    def test_catastrophic_faults_fail(self, result):
        assert result.faulty_fail

    def test_signatures_differ(self, result):
        assert result.healthy.digital_signature != \
            result.dead_integrator.digital_signature


class TestE5Batch:
    @pytest.fixture(scope="class")
    def result(self):
        return e5_batch10.run(n_devices=10)

    def test_all_good_devices_pass(self, result):
        """The paper's headline: all 10 fabricated devices pass."""
        assert result.all_good_pass
        assert result.good.yield_fraction == 1.0

    def test_all_defective_devices_fail(self, result):
        assert result.all_defective_fail

    def test_devices_actually_vary(self, result):
        offsets = {d.parameters["cal.comparator_offset_v"]
                   for d in result.good.devices}
        assert len(offsets) == 10


class TestE6Fig2:
    @pytest.fixture(scope="class")
    def result(self):
        return e6_fig2_dnl.run()

    def test_offset_and_gain_in_spec(self, result):
        assert result.offset_gain_in_spec

    def test_linearity_out_of_spec_like_paper(self, result):
        """The paper's key finding: INL 1.3 / DNL 1.2 exceed the 1 LSB
        specification even though offset and gain pass."""
        assert result.violates_linearity_spec

    def test_matches_paper_magnitudes(self, result):
        ch = result.characterization
        assert ch.max_inl_lsb == pytest.approx(1.3, abs=0.15)
        assert ch.max_dnl_lsb == pytest.approx(1.2, abs=0.15)
        assert abs(ch.offset_error_lsb) < 0.2
        assert abs(ch.gain_error_lsb) <= 0.5

    def test_dnl_series_covers_code_axis(self, result):
        codes, dnl = result.dnl_series()
        assert codes[0] == 1
        assert codes[-1] >= 98
        assert len(codes) == len(dnl)

    def test_no_missing_codes(self, result):
        assert not result.characterization.missing_codes


class TestE7Fig4:
    @pytest.fixture(scope="class")
    def result(self):
        return e7_fig4_detection.run()

    def test_fault_counts_match_paper(self, result):
        s = result.series()
        assert len(s["circuit1"]) == 16
        assert len(s["circuit2"]) == 12
        assert len(s["circuit3"]) == 12

    def test_every_fault_detected(self, result):
        """'All plots show a significant number of time instances when
        detection is likely.'"""
        assert result.all_detected
        for values in result.series().values():
            assert min(values) >= 50.0

    def test_circuit3_weakest_with_seventy_percent_dip(self, result):
        """'The 3rd circuit ... shows detection instances of only 70%
        for some faults.'"""
        assert result.circuit3_is_weakest
        c3_min = min(result.series()["circuit3"])
        assert 55.0 <= c3_min <= 85.0

    def test_circuit1_high_band(self, result):
        assert min(result.series()["circuit1"]) >= 90.0

    def test_circuit1_detector_has_an_identity(self):
        """The circuit-1 detector pickles to pool workers, and its
        threshold reaches the cache/checkpoint context key."""
        import pickle

        from repro.circuits.op1 import op1_follower
        from repro.faults.universe import paper_circuit1_faults
        from repro.service import CampaignSpec

        def key(rel_threshold):
            campaign = e7_fig4_detection.circuit1_campaign(
                rel_threshold=rel_threshold)
            pickle.loads(pickle.dumps(campaign.detector))
            return CampaignSpec(technique=campaign.technique,
                                detector=campaign.detector,
                                target=op1_follower(input_value=2.5),
                                faults=tuple(paper_circuit1_faults())
                                ).context_key()

        assert key(0.02) == key(0.02)
        assert key(0.02) != key(0.5)


class TestE8ZDomain:
    @pytest.fixture(scope="class")
    def result(self):
        return e8_zdomain.run()

    def test_analytic_matches_design(self, result):
        assert result.analytic_matches
        assert result.designed_gain_per_cycle == pytest.approx(1 / 6.8)

    def test_integrator_pole_at_unity(self, result):
        assert result.pole_magnitude == pytest.approx(1.0, abs=1e-9)

    def test_transistor_level_within_five_percent(self, result):
        assert result.transistor_error_fraction < 0.05


class TestE9Transfer:
    @pytest.fixture(scope="class")
    def result(self):
        return e9_adc_transfer.run()

    def test_monotonic(self, result):
        assert result.monotonic

    def test_full_code_range(self, result):
        lo, hi = result.full_range
        assert lo == 0
        assert hi >= 99

    def test_timing_spec(self, result):
        assert result.within_timing_spec
