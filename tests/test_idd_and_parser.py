"""Tests for dynamic Idd testing, branch-current recording and the
SPICE-deck parser."""

import numpy as np
import pytest

from repro.circuits.op1 import op1_follower
from repro.core import (
    IddMeasurement,
    IddTester,
    TransientTestConfig,
    idd_detection,
    quiescent_ratio,
)
from repro.faults import StuckAtFault, inject
from repro.signals import Waveform
from repro.spice import (
    Circuit,
    NetlistSyntaxError,
    dc_operating_point,
    parse_netlist,
    parse_value,
    transient,
)

FAST = TransientTestConfig(low_v=2.0, high_v=3.5, sim_dt_s=10e-6)


class TestBranchRecording:
    def test_supply_current_of_divider(self):
        ckt = Circuit("div")
        ckt.vsource("VS", "a", "0", 10.0)
        ckt.resistor("R1", "a", "0", 1e3)
        res = transient(ckt, t_stop=1e-3, dt=1e-4,
                        record_branches=["VS"])
        current = res.branch_current("VS")
        # 10 mA flows out of the source (negative into its + terminal)
        assert np.allclose(current.values, -10e-3, atol=1e-6)
        assert "VS" in res.branches()

    def test_unrecorded_branch_rejected(self):
        ckt = Circuit("div")
        ckt.vsource("VS", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        res = transient(ckt, t_stop=1e-4, dt=1e-5)
        with pytest.raises(KeyError):
            res.branch_current("VS")

    def test_non_source_branch_rejected(self):
        ckt = Circuit("div")
        ckt.vsource("VS", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(TypeError):
            transient(ckt, t_stop=1e-4, dt=1e-5, record_branches=["R1"])

    def test_capacitor_charging_current_decays(self):
        ckt = Circuit("rc")
        ckt.vsource("VS", "a", "0", 5.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.capacitor("C1", "b", "0", 1e-6)
        res = transient(ckt, t_stop=5e-3, dt=20e-6, uic=True,
                        record_branches=["VS"])
        i = -res.branch_current("VS").values
        assert i[1] > 4e-3          # initial surge ~5 mA
        assert abs(i[-1]) < 0.1e-3  # settled


class TestIddTester:
    @pytest.fixture(scope="class")
    def reference(self):
        return IddTester(FAST).measure(op1_follower(input_value=2.5))

    def test_healthy_quiescent_sensible(self, reference):
        # OP1's bias budget: hundreds of microamps, not milli or nano
        assert 20e-6 < reference.mean_a < 1e-3
        assert reference.peak_a >= reference.mean_a

    def test_bias_fault_multiplies_quiescent(self, reference):
        faulty = inject(op1_follower(input_value=2.5),
                        StuckAtFault.sa0("4"))
        m = IddTester(FAST).measure(faulty)
        assert quiescent_ratio(reference, m) > 2.0
        assert idd_detection(reference, m) > 0.9

    def test_output_fault_detected(self, reference):
        faulty = inject(op1_follower(input_value=2.5),
                        StuckAtFault.sa1("7"))
        m = IddTester(FAST).measure(faulty)
        assert idd_detection(reference, m) > 0.2

    def test_self_comparison_is_clean(self, reference):
        again = IddTester(FAST).measure(op1_follower(input_value=2.5))
        assert idd_detection(reference, again) == 0.0

    def test_measurement_fields(self, reference):
        assert isinstance(reference.current, Waveform)
        recon = IddMeasurement.from_waveform(reference.current)
        assert recon.mean_a == pytest.approx(reference.mean_a)

    def test_validation(self, reference):
        with pytest.raises(ValueError):
            idd_detection(reference, reference, rel_threshold=0.0)
        tester = IddTester(FAST, source_name="RL")
        with pytest.raises(TypeError):
            tester.measure(op1_follower(input_value=2.5))

    def test_campaign_routes(self, reference):
        """The tester is a campaign technique: it pickles, its batched
        chunk equals per-fault measurements bitwise, and it offers no
        surrogate route (the surrogate models node voltages only)."""
        import pickle

        tester = pickle.loads(pickle.dumps(IddTester(FAST)))
        target = op1_follower(input_value=2.5)
        faults = [StuckAtFault.sa0("4"), StuckAtFault.sa1("7")]
        batched = tester.evaluate_batch(target, faults)
        for fault, got in zip(faults, batched):
            want = tester(inject(target, fault))
            assert np.array_equal(got.current.values, want.current.values)
        assert np.array_equal(tester(target).current.values,
                              reference.current.values)
        assert getattr(tester, "surrogate_workload", None) is None


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("10", 10.0), ("2.2k", 2200.0), ("1meg", 1e6), ("5u", 5e-6),
        ("10p", 10e-12), ("3n", 3e-9), ("1.5m", 1.5e-3), ("2G", 2e9),
        ("-4.7u", -4.7e-6), ("1e3", 1000.0), ("2.5E-2", 0.025),
        ("100f", 100e-15), ("1t", 1e12),
    ])
    def test_values(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    def test_bad_value(self):
        with pytest.raises(ValueError):
            parse_value("ohms")


class TestParser:
    def test_divider_deck(self):
        result = parse_netlist("""
        * comment
        V1 in 0 10
        R1 in mid 1k
        R2 mid 0 3k
        .end
        """)
        v, _ = dc_operating_point(result.circuit)
        assert v["mid"] == pytest.approx(7.5, rel=1e-6)
        assert not result.warnings

    def test_all_element_kinds(self):
        result = parse_netlist("""
        V1 a 0 1.0
        I1 0 b 1m
        R1 b 0 1k
        C1 a c 10p
        E1 d 0 a 0 2.0
        G1 0 e a 0 1m
        R2 e 0 1k
        R3 d 0 1k
        S1 a f ctl 0 VON=2.5 RON=50
        Vc ctl 0 5.0
        R4 f 0 1k
        M1 g a 0 NMOS W=20u L=5u
        R5 d g 10k
        """)
        ckt = result.circuit
        assert len(ckt.elements) == 13
        v, _ = dc_operating_point(ckt)
        assert v["b"] == pytest.approx(1.0, rel=1e-3)   # 1mA * 1k
        assert v["d"] == pytest.approx(2.0, rel=1e-3)   # VCVS gain 2

    def test_continuation_lines(self):
        result = parse_netlist("""
        V1 in 0
        + 2.5
        R1 in 0 1k
        """)
        v, _ = dc_operating_point(result.circuit)
        assert v["in"] == pytest.approx(2.5)

    def test_pulse_source(self):
        result = parse_netlist("V1 a 0 PULSE(0 5 1m 2m 0.5)\nR1 a 0 1k\n")
        src = result.circuit.element("V1")
        assert src.level(0.5e-3) == 0.0
        assert src.level(1.5e-3) == 5.0
        assert src.level(2.5e-3) == 0.0

    def test_pwl_source(self):
        result = parse_netlist("V1 a 0 PWL(0 0 1m 1 2m 0)\nR1 a 0 1k\n")
        src = result.circuit.element("V1")
        assert src.level(0.5e-3) == pytest.approx(0.5)
        assert src.level(1.5e-3) == pytest.approx(0.5)
        assert src.level(10e-3) == 0.0

    def test_pwl_bad_times(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("V1 a 0 PWL(0 0 0 1)\n")

    def test_capacitor_ic(self):
        result = parse_netlist("C1 a 0 1u IC=2.5\nR1 a 0 1k\n")
        assert result.circuit.element("C1").ic == pytest.approx(2.5)

    def test_inline_comment(self):
        result = parse_netlist("R1 a 0 1k ; load\nV1 a 0 1\n")
        assert result.circuit.element("R1").resistance == 1e3

    def test_end_card_stops(self):
        result = parse_netlist("R1 a 0 1k\nV1 a 0 1\n.end\nR2 a 0 1k\n")
        assert not result.circuit.has_element("R2")

    def test_unknown_dot_card_warns(self):
        result = parse_netlist(".tran 1u 1m\nR1 a 0 1k\nV1 a 0 1\n")
        assert any(".tran" in w for w in result.warnings)

    def test_syntax_error_reports_line(self):
        with pytest.raises(NetlistSyntaxError) as info:
            parse_netlist("R1 a 0\n")
        assert "line 1" in str(info.value)

    def test_unknown_element_kind(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("Q1 c b e NPN\n")

    def test_unknown_mos_model(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("M1 d g s CMOS W=1u L=1u\n")

    def test_parsed_circuit_transient(self):
        deck = """
        VIN in 0 PULSE(0 5 0 1m 0.5)
        R1 in out 1k
        C1 out 0 100n
        """
        result = parse_netlist(deck)
        res = transient(result.circuit, t_stop=2e-3, dt=10e-6, uic=True)
        # RC follows the pulse with tau = 0.1 ms
        assert res["out"].value_at(0.45e-3) == pytest.approx(5.0, abs=0.2)
        assert res["out"].value_at(0.95e-3) == pytest.approx(0.0, abs=0.2)
