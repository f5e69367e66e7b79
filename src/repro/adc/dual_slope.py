"""The composite dual-slope ADC macro (Figure 1).

``DualSlopeADC`` wires the behavioural sub-macros together exactly as the
block diagram shows: input → switched-capacitor integrator → comparator
(against Vth) → digital control + counter → output latch.  It offers the
normal conversion mode plus the BIST test modes the on-chip macros
exercise (step fall-time test, ramp peak capture).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.adc.calibration import ADCCalibration, PAPER_CALIBRATION
from repro.adc.comparator import ComparatorModel
from repro.adc.control import ControlState, DualSlopeControl
from repro.adc.integrator import IntegratorModel
from repro.adc.latch import OutputLatch
from repro.dft.counter import CounterMacro
from repro.signals.waveform import Waveform


@dataclass
class ConversionTrace:
    """Cycle-by-cycle record of one conversion."""

    v_in: float
    code: int
    conversion_time_s: float
    completed: bool
    integrator_v: List[float] = field(default_factory=list)
    states: List[ControlState] = field(default_factory=list)
    peak_v: float = 0.0

    def integrator_waveform(self, clock_period_s: float) -> Waveform:
        return Waveform(self.integrator_v, clock_period_s, name="integrator")


def _toggling_bits(count: int) -> int:
    """Bits that toggle when the counter increments to ``count``.

    A binary ripple counter flips the trailing-zero bits of the new value
    plus the bit above them; the supply glitch scales with that number —
    the classic source of code-dependent DNL at binary boundaries.
    """
    if count <= 0:
        return 1
    toggles = 1
    while count & 1 == 0:
        toggles += 1
        count >>= 1
    return toggles


class DualSlopeADC:
    """Behavioural dual-slope ADC built from the five sub-macros."""

    def __init__(self, cal: Optional[ADCCalibration] = None) -> None:
        self.cal = (cal or PAPER_CALIBRATION).copy()
        self.integrator = IntegratorModel(self.cal)
        self.comparator = ComparatorModel(offset_v=self.cal.comparator_offset_v)
        self.counter = CounterMacro(width=8, clock_hz=self.cal.clock_hz)
        self.control = DualSlopeControl(
            integrate_cycles=self.cal.integrate_cycles,
            max_deintegrate_cycles=int(self.cal.n_codes * 1.6),
        )
        self.latch = OutputLatch(width=8)

    def copy(self) -> "DualSlopeADC":
        dup = DualSlopeADC(self.cal)
        dup.integrator = self.integrator.copy()
        dup.comparator = self.comparator.copy()
        dup.control = self.control.copy()
        dup.latch = self.latch.copy()
        dup.counter = CounterMacro(width=self.counter.width,
                                   clock_hz=self.counter.clock_hz)
        dup.counter.stuck_bits = dict(self.counter.stuck_bits)
        return dup

    # ------------------------------------------------------------------
    # Normal conversion mode
    # ------------------------------------------------------------------
    def convert(self, v_in: float, record_trace: bool = False) -> ConversionTrace:
        """Run one full conversion of ``v_in`` volts.

        The returned code is the latched de-integration count; a stuck
        control FSM yields ``completed=False`` with whatever the latch
        held (the "conversion stops" fault signature).
        """
        cal = self.cal
        self.control.start()
        # Autozero leaves the integrator half a reference packet above the
        # comparator baseline, centring the code transitions (the
        # dual-slope equivalent of the mid-tread half-LSB shift).
        self.integrator.reset(cal.fall_threshold_v
                              + 0.5 * cal.full_scale_v / cal.n_codes)
        self.counter.clear()
        v_baseline = cal.fall_threshold_v

        trace = ConversionTrace(v_in=v_in, code=0, conversion_time_s=0.0,
                                completed=False)
        max_cycles = (self.control.autozero_cycles
                      + self.control.integrate_cycles
                      + self.control.max_deintegrate_cycles + 8)
        comparator_high = True
        droop = 0.0
        for _ in range(max_cycles):
            state = self.control.state
            if record_trace:
                trace.integrator_v.append(self.integrator.v_out)
                trace.states.append(state)
            if state == ControlState.INTEGRATE:
                self.integrator.integrate_cycle(v_in)
            elif state == ControlState.DEINTEGRATE:
                self.integrator.deintegrate_cycle()
                # Counter switching droops the local supply in proportion
                # to the number of toggling bits; the droop recovers with
                # an RC time of a few clock cycles, so a multi-bit carry
                # (count 32, 64, ...) widens the code before it and
                # slightly narrows the several codes that follow — the
                # classic binary-boundary DNL signature without missing
                # codes.
                toggles = _toggling_bits(self.counter.count + 1)
                droop = droop * cal.inject_recovery \
                    + cal.counter_inject_v * (toggles - 2.0)
                comparator_high = bool(self.comparator.compare(
                    self.integrator.v_out, v_baseline + droop))
                if comparator_high:
                    self.counter.clock()
                    self.latch.track(self.counter.count)
            self.control.clock(comparator_high)
            trace.peak_v = max(trace.peak_v, self.integrator.v_out)
            if self.control.done:
                trace.completed = True
                break

        self.latch.capture(self.counter.count)
        # The FSM clears the counter during its DONE/IDLE housekeeping
        # cycles before the code is read out; a healthy latch holds the
        # captured value through that, a transparent-faulted one tracks
        # the clearing counter ("multiple incorrect output codes").
        self.counter.clear()
        self.counter.clock()
        self.latch.track(self.counter.count)
        trace.code = self.latch.read()
        trace.conversion_time_s = self.control.conversion_time_s(cal.clock_hz)
        return trace

    def code_of(self, v_in: float) -> int:
        """Convenience: just the output code."""
        return self.convert(v_in).code

    def conversion_time(self, v_in: float) -> float:
        """Seconds for a full conversion of ``v_in``."""
        return self.convert(v_in).conversion_time_s

    # ------------------------------------------------------------------
    # BIST test modes
    # ------------------------------------------------------------------
    def test_fall_time(self, v_step: float, dt: float = 1e-6) -> float:
        """The step test: precharge, couple the step, time the fall."""
        return self.integrator.fall_time(v_step, dt=dt)

    def test_peak_voltage(self, v_in_wave: Waveform) -> float:
        """Ramp test support: integrate a slowly varying input over its
        duration and return the maximum integrator voltage reached."""
        cal = self.cal
        level = cal.fall_threshold_v
        self.integrator.reset(level)
        n_cycles = int(v_in_wave.duration * cal.clock_hz)
        # The BIST runs repeated conversions along the ramp; the peak per
        # conversion tracks the input.  We model the envelope by resetting
        # every integrate window.  The windows are independent, so they
        # march in lockstep as the rows of one array.  Each window runs
        # its full integrate_cycles (the last one past n_cycles) but no
        # cycle later than the end of the stimulus counts.
        cycles = cal.integrate_cycles
        n_windows = -(-n_cycles // cycles)
        t = np.arange(n_windows * cycles) * cal.clock_period_s
        v_in = np.interp(t, v_in_wave.times, v_in_wave.values)
        v_out = self.integrator.integrate_windows(
            level, v_in.reshape(n_windows, cycles)).ravel()
        # t rises, so the cycles that count are a prefix of the grid
        n_valid = int(np.count_nonzero(t <= v_in_wave.t_end))
        if n_valid == 0:
            return level
        if n_valid > (n_windows - 1) * cycles:
            self.integrator.v_out = float(v_out[n_valid - 1])
        return max(level, float(v_out[:n_valid].max()))

    # ------------------------------------------------------------------
    @property
    def lsb_v(self) -> float:
        return self.cal.lsb_v

    def describe(self) -> str:
        return (f"dual-slope ADC: {self.cal.n_codes} codes over "
                f"{self.cal.full_scale_v} V, clock {self.cal.clock_hz:g} Hz, "
                f"LSB {1e3 * self.cal.lsb_v:.1f} mV")
