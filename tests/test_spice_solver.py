"""Tests for the Newton solver, transient engine and linearisation."""

import numpy as np
import pytest

from repro.lti import tf_from_poles_zeros
from repro.signals import Waveform
from repro.spice import (
    Circuit,
    NewtonError,
    circuit_poles,
    circuit_zeros,
    dc_operating_point,
    extract_transfer_function,
    transfer_function_at,
    transient,
)


class TestDCSolve:
    def test_nonlinear_diode_chain(self):
        """Two stacked diode-connected devices split the supply."""
        ckt = Circuit("stack")
        ckt.vsource("VDD", "vdd", "0", 5.0)
        ckt.isource("IB", "vdd", "a", 10e-6)
        ckt.nmos("M1", "a", "a", "b")
        ckt.nmos("M2", "b", "b", "0")
        v, _ = dc_operating_point(ckt)
        assert 1.0 < v["b"] < 2.5
        assert v["a"] > v["b"]

    def test_floating_node_held_by_gmin(self):
        ckt = Circuit("float")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.capacitor("C1", "a", "b", 1e-12)  # b floats at DC
        v, _ = dc_operating_point(ckt)
        assert abs(v["b"]) < 1.0  # gmin ties it near ground

    def test_op_with_time_varying_source_uses_t(self):
        ckt = Circuit("tv")
        ckt.vsource("V1", "a", "0", lambda t: 1.0 + t)
        ckt.resistor("R1", "a", "0", 1e3)
        v, _ = dc_operating_point(ckt, t=2.0)
        assert v["a"] == pytest.approx(3.0)

    def test_solution_vector_matches_dict(self):
        ckt = Circuit("dict")
        ckt.vsource("V1", "a", "0", 2.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.resistor("R2", "b", "0", 1e3)
        v, x = dc_operating_point(ckt)
        from repro.spice.mna import Assembler
        idx = Assembler(ckt).index
        assert x[idx["b"]] == pytest.approx(v["b"])


class TestTransientEngine:
    def test_conservation_capacitive_divider(self):
        """A step through series caps divides by the capacitance ratio."""
        ckt = Circuit("capdiv")
        ckt.vsource("VIN", "in", "0", lambda t: 1.0 if t > 1e-6 else 0.0)
        ckt.capacitor("C1", "in", "mid", 2e-9)
        ckt.capacitor("C2", "mid", "0", 1e-9)
        res = transient(ckt, t_stop=10e-6, dt=0.1e-6, uic=True)
        assert res.final("mid") == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_sc_charge_pump_behavior(self):
        """Switch-capacitor transfer moves charge packet by packet."""
        ckt = Circuit("scp")
        ckt.vsource("VIN", "in", "0", 1.0)
        ckt.vsource("PHI", "phi", "0",
                    lambda t: 5.0 if (t % 2e-3) < 1e-3 else 0.0)
        ckt.vsource("PHIB", "phib", "0",
                    lambda t: 0.0 if (t % 2e-3) < 1e-3 else 5.0)
        ckt.switch("S1", "in", "cs", "phi", "0")
        ckt.switch("S2", "cs", "out", "phib", "0")
        ckt.capacitor("C1", "cs", "0", 1e-9)
        ckt.capacitor("C2", "out", "0", 1e-9)
        res = transient(ckt, t_stop=20e-3, dt=20e-6, uic=True)
        # equal caps converge toward the input voltage
        assert res.final("out") == pytest.approx(1.0, abs=0.05)

    def test_result_api(self):
        ckt = Circuit("api")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        res = transient(ckt, t_stop=1e-3, dt=1e-4)
        assert "a" in res
        assert res.dt == pytest.approx(1e-4)
        assert len(res.times) == 11
        assert isinstance(res["a"], Waveform)
        assert res.array("a").shape == (11,)

    def test_bad_timing_rejected(self):
        ckt = Circuit("bad")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=0.0, dt=1e-6)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-3, dt=2e-3)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-3, dt=1e-4, method="rk4")

    def test_waveform_driven_source(self):
        wave = Waveform([0.0, 1.0, 2.0, 3.0], 1e-3)
        ckt = Circuit("wd")
        ckt.vsource("V1", "a", "0", wave)
        ckt.resistor("R1", "a", "0", 1e3)
        res = transient(ckt, t_stop=3e-3, dt=1e-3)
        assert np.allclose(res.array("a"), [0, 1, 2, 3], atol=1e-9)

    def test_x0_seed(self):
        ckt = Circuit("seed")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.capacitor("C1", "b", "0", 1e-6)
        _, x = dc_operating_point(ckt)
        res = transient(ckt, t_stop=1e-3, dt=1e-4, x0=x)
        # started from the settled OP: stays settled
        assert np.allclose(res.array("b"), 1.0, atol=1e-6)

    def test_singular_linear_deck_raises_newton_error(self):
        """An exactly singular linear matrix (a source shorted by an
        inductor at DC) surfaces as a singular-matrix NewtonError, not
        a warning and a non-finite solution."""
        import warnings

        ckt = Circuit("vlr")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.inductor("L1", "a", "0", 1e-3)
        ckt.resistor("R1", "a", "0", 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonError, match="singular MNA matrix"):
                transient(ckt, t_stop=1e-3, dt=1e-4, validate=False)


class TestLinearize:
    def _rc(self):
        ckt = Circuit("rc")
        ckt.vsource("VIN", "in", "0", 1.0)
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-6)
        return ckt

    def test_rc_pole(self):
        poles = circuit_poles(self._rc())
        real = sorted(p.real for p in poles)
        assert any(abs(p + 1000.0) < 1.0 for p in real)

    def test_rc_transfer_function_value(self):
        h_dc = transfer_function_at(self._rc(), "VIN", "out", 0.0)
        assert h_dc.real == pytest.approx(1.0, abs=1e-3)
        h_hi = transfer_function_at(self._rc(), "VIN", "out", 1j * 1e6)
        assert abs(h_hi) < 0.01

    def test_rc_extracted_model(self):
        tf = extract_transfer_function(self._rc(), "VIN", "out", max_order=1)
        assert tf.dc_gain() == pytest.approx(1.0, abs=1e-3)
        assert tf.poles()[0].real == pytest.approx(-1000.0, rel=0.01)

    def test_highpass_zero_at_origin(self):
        ckt = Circuit("hp")
        ckt.vsource("VIN", "in", "0", 0.0)
        ckt.capacitor("C1", "in", "out", 1e-6)
        ckt.resistor("R1", "out", "0", 1e3)
        zeros = circuit_zeros(ckt, "VIN", "out")
        assert any(abs(z) < 1.0 for z in zeros)

    def test_two_pole_ladder(self):
        ckt = Circuit("ladder")
        ckt.vsource("VIN", "in", "0", 0.0)
        ckt.resistor("R1", "in", "a", 1e3)
        ckt.capacitor("C1", "a", "0", 1e-6)
        ckt.resistor("R2", "a", "b", 1e3)
        ckt.capacitor("C2", "b", "0", 1e-6)
        tf = extract_transfer_function(ckt, "VIN", "b", max_order=2)
        assert tf.order == 2
        assert tf.dc_gain() == pytest.approx(1.0, abs=1e-2)
        # extracted model matches direct evaluation across frequency
        for w in (100.0, 1000.0, 5000.0):
            exact = transfer_function_at(ckt, "VIN", "b", 1j * w)
            model = tf.evaluate(1j * w)
            assert abs(model - exact) < 0.02 * abs(exact) + 1e-6

    def test_linearized_mos_amplifier_gain(self):
        """Common-source amp: dc small-signal gain ~ -gm*(RL||ro)."""
        ckt = Circuit("cs")
        ckt.vsource("VDD", "vdd", "0", 5.0)
        ckt.vsource("VIN", "g", "0", 2.0)
        ckt.resistor("RL", "vdd", "d", 100e3)
        ckt.nmos("M1", "d", "g", "0")
        h = transfer_function_at(ckt, "VIN", "d", 0.0)
        v, _ = dc_operating_point(ckt)
        from repro.spice.mosfet import MOSFET
        m = ckt.element("M1")
        _, _dd, gm, _ds = 0, 0, 0, 0
        _i, di_dd, di_dg, di_ds = m._small_signal(v["d"], 2.0, 0.0)
        expected = -di_dg / (di_dd + 1e-5)
        assert h.real == pytest.approx(expected, rel=0.02)

    def test_unknown_output_node_rejected(self):
        with pytest.raises(KeyError):
            transfer_function_at(self._rc(), "VIN", "nope", 0.0)

    def test_non_source_input_rejected(self):
        with pytest.raises(TypeError):
            transfer_function_at(self._rc(), "R1", "out", 0.0)


class TestStallRule:
    """Transient Newton solves that stop making progress fail fast; the
    outputs must be those of the full iteration budget."""

    @staticmethod
    def _e7_circuits():
        from repro.circuits.op1 import op1_follower
        from repro.core.transient_test import TransientResponseTester
        from repro.experiments.e7_fig4_detection import CIRCUIT1_CONFIG
        from repro.faults.injector import inject
        from repro.faults.universe import paper_circuit1_faults

        tester = TransientResponseTester(CIRCUIT1_CONFIG)
        base = op1_follower(input_value=2.5)
        circuits = [base] + [inject(base, f) for f in paper_circuit1_faults()]
        return ([tester.prepare(c, tester.stimulus()) for c in circuits],
                CIRCUIT1_CONFIG)

    @staticmethod
    def _runs(jobs):
        out = []
        for circuit, t_stop, dt, record in jobs:
            res = transient(circuit, t_stop, dt, record=record)
            out.append(({n: res.array(n) for n in res.nodes()},
                        res.stats["subdivisions"]))
        return out

    def test_stall_rule_changes_no_waveform(self, monkeypatch):
        from repro.spice import solver
        from repro.verify.generate import generate_circuit

        circuits, cfg = self._e7_circuits()
        duration = cfg.stimulus().duration
        jobs = [(c, duration, cfg.sim_dt_s, ["3"]) for c in circuits]
        for seed in range(20):
            gen = generate_circuit(seed, "mosfet")
            jobs.append((gen.circuit, gen.t_stop, gen.dt, None))
        fail_fast = self._runs(jobs)
        monkeypatch.setattr(solver, "STALL_ITERS", 10 ** 6)
        full_budget = self._runs(jobs)
        assert fail_fast[0][1] > 0   # the OP1 reference does subdivide
        for (got, sub_got), (want, sub_want) in zip(fail_fast, full_budget):
            assert sub_got == sub_want
            assert got.keys() == want.keys()
            for node in want:
                assert np.array_equal(got[node], want[node])

    def test_cycling_reference_timepoint_fails_fast(self, monkeypatch):
        import importlib

        from repro.obs.core import observe
        from repro.spice import solver

        # the module, not the function ``repro.spice`` re-exports
        march = importlib.import_module("repro.spice.transient")
        monkeypatch.setattr(march, "MAX_SUBDIVISIONS", 0)
        circuits, cfg = self._e7_circuits()
        # The reference's first failing solve is at grid point 216.
        t_stop = 220 * cfg.sim_dt_s

        def first_failure():
            with observe() as o:
                with pytest.raises(NewtonError) as info:
                    transient(circuits[0], t_stop, cfg.sim_dt_s,
                              record=["3"])
            rec = o.events.records(name="solver.newton_nonconvergence")
            assert len(rec) == 1
            stalls = o.metrics.counter_values().get("solver.newton_stalls", 0)
            return str(info.value), rec[0]["fields"], stalls

        message, fields, stalls = first_failure()
        assert "stalled" in message
        assert fields["stalled"] and stalls == 1
        assert fields["iterations"] <= solver.STALL_ITERS + 4
        monkeypatch.setattr(solver, "STALL_ITERS", 10 ** 6)
        message, slow, stalls = first_failure()
        assert "60 iterations" in message
        assert not slow["stalled"] and stalls == 0
        assert slow["iterations"] == 60 and slow["t"] == fields["t"]

    def test_dc_solves_are_exempt(self, monkeypatch):
        # Under a one-iteration stall rule the OP1 operating point's
        # Newton walk would fail (its second move is no smaller than
        # its first); DC solves are exempt, so nothing changes.
        from repro.spice import solver

        circuits, _cfg = self._e7_circuits()
        v_default, _ = dc_operating_point(circuits[0])
        monkeypatch.setattr(solver, "STALL_ITERS", 1)
        v_eager, _ = dc_operating_point(circuits[0])
        assert v_default == v_eager
