"""The switched-capacitor integrator sub-macro (behavioural).

This is the heart of the dual-slope ADC and the focus of the paper's
transient-response work.  The model integrates per clock cycle with:

* a capacitor voltage coefficient (output-dependent gain — the INL
  mechanism),
* per-cycle leak (finite op-amp gain / switch leakage),
* the test-mode step coupling with its sampling-switch dead zone,
* an output saturation window (the op-amp's swing).

Faults the paper attributes to this sub-macro — "The integrator submacro
faults will affect the linearity errors, the gain error and the offset
error" — are injected by perturbing these attributes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.adc.calibration import ADCCalibration, PAPER_CALIBRATION
from repro.lti.zdomain import ZTransferFunction, sc_integrator_ztf
from repro.signals.waveform import Waveform


class IntegratorModel:
    """Behavioural switched-capacitor integrator.

    State is the output voltage ``v_out``; every method that advances
    time does so in whole clock cycles of the ADC calibration.
    """

    def __init__(self, cal: Optional[ADCCalibration] = None,
                 cap_ratio: float = 6.8) -> None:
        self.cal = (cal or PAPER_CALIBRATION).copy()
        #: Cf/Cs of the SC network (the paper's 6.8).
        self.cap_ratio = cap_ratio
        #: fractional charge lost per cycle (0 = ideal integrator)
        self.leak_per_cycle = 0.0
        #: additive offset per cycle, volts (op-amp offset referred here)
        self.offset_per_cycle_v = 0.0
        #: gain multiplier (1.0 nominal; fault lever for gain errors)
        self.gain = 1.0
        #: output swing limits (the op-amp rails minus headroom)
        self.v_min = 0.05
        self.v_max = 4.6
        #: whether the integrator responds at all (control-fault lever)
        self.enabled = True
        self.v_out = 0.0

    # ------------------------------------------------------------------
    def copy(self) -> "IntegratorModel":
        dup = IntegratorModel(self.cal, self.cap_ratio)
        dup.leak_per_cycle = self.leak_per_cycle
        dup.offset_per_cycle_v = self.offset_per_cycle_v
        dup.gain = self.gain
        dup.v_min = self.v_min
        dup.v_max = self.v_max
        dup.enabled = self.enabled
        dup.v_out = self.v_out
        return dup

    def reset(self, level: Optional[float] = None) -> None:
        """Reset/precharge the output (test mode precharges to 3.6 V)."""
        self.v_out = self.cal.precharge_v if level is None else level

    def _clip(self) -> None:
        self.v_out = min(self.v_max, max(self.v_min, self.v_out))

    def _clipped(self, v: np.ndarray) -> np.ndarray:
        """``_clip`` elementwise: the same selection as the ``min``/``max``
        builtins (a NaN lands on ``v_min``), so values stay bitwise equal."""
        v = np.where(v > self.v_min, v, self.v_min)
        return np.where(v < self.v_max, v, self.v_max)

    def _charged(self, v, v_in):
        """One cycle of leak, input charge packet and offset from output
        ``v``, before the swing clip.

        The packet is scaled so a full-scale input ramps the output across
        the nominal 2.5 V swing in ``integrate_cycles``; the capacitor's
        voltage coefficient (referenced to mid-swing, so the mid-scale
        gain stays nominal) makes it output-dependent.  Only ``+ - * /``
        appear, so ``v`` and ``v_in`` may be floats or equal-shape arrays
        and every element sees the same float64 operations in the same
        order.
        """
        cal = self.cal
        v_mid = 0.5 * (cal.precharge_v + cal.fall_threshold_v)
        nonlinear_gain = 1.0 + cal.cap_voltage_coeff * (v - v_mid) \
            / max(cal.full_scale_v, 1e-12)
        per_cycle = cal.full_scale_v / cal.integrate_cycles
        packet = self.gain * nonlinear_gain * per_cycle \
            * (v_in / cal.full_scale_v)
        return v * (1.0 - self.leak_per_cycle) + packet \
            + self.offset_per_cycle_v

    # ------------------------------------------------------------------
    # Conversion mode
    # ------------------------------------------------------------------
    def integrate_cycle(self, v_in: float) -> float:
        """One clock cycle of charge transfer from the input."""
        if not self.enabled:
            return self.v_out
        self.v_out = self._charged(self.v_out, v_in)
        self._clip()
        return self.v_out

    def integrate_windows(self, start_v: float,
                          v_in: np.ndarray) -> np.ndarray:
        """Integrate independent windows in lockstep.

        Row ``w`` of the 2-D ``v_in`` holds one window's per-cycle inputs
        and every window starts from ``start_v``.  Returns the output
        after each cycle, shaped like ``v_in``: entry ``[w, k]`` is
        bitwise what ``integrate_cycle`` leaves in ``v_out`` after cycle
        ``k`` of window ``w``.  ``v_out`` itself is not touched.
        """
        if not self.enabled:
            return np.full(v_in.shape, float(start_v))
        out = np.empty(v_in.shape)
        v = np.full(v_in.shape[0], float(start_v))
        for k in range(v_in.shape[1]):
            v = self._clipped(self._charged(v, v_in[:, k]))
            out[:, k] = v
        return out

    def deintegrate_cycle(self) -> float:
        """One clock cycle of reference discharge (phase 2)."""
        if not self.enabled:
            return self.v_out
        # Reference packet: full scale over n_codes cycles, with its own
        # gain trim (the deintegrate_gain calibration models the ratio
        # mismatch between the two signal paths → gain error).  The
        # reference path is factory-trimmed and linear; only the input
        # sampling path carries the capacitor voltage coefficient, which
        # is why the nonlinearity does NOT cancel between the two slopes
        # (a perfectly shared nonlinearity would, by the dual-slope
        # principle).
        step = self.cal.deintegrate_gain \
            * self.cal.full_scale_v / self.cal.n_codes
        self.v_out = self.v_out * (1.0 - self.leak_per_cycle) - step
        self._clip()
        return self.v_out

    # ------------------------------------------------------------------
    # Test mode (the BIST step / fall-time test)
    # ------------------------------------------------------------------
    def couple_step(self, v_step: float) -> float:
        """Apply a DC step through the sampling network (test mode).

        Small steps under-couple per the dead-zone calibration; the
        coupled voltage subtracts from the precharged output.
        """
        if not self.enabled:
            return self.v_out
        coupled = self.coupled_voltage(v_step)
        self.v_out -= self.gain * coupled
        self._clip()
        return self.v_out

    def coupled_voltage(self, v_step: float) -> float:
        """The effective voltage the sampling network passes."""
        cal = self.cal
        if v_step <= 0.0:
            return 0.0
        return v_step - cal.couple_dead_scale * v_step \
            * math.exp(-v_step / cal.couple_dead_v0)

    def discharge_to_threshold(self, dt: float = 10e-6,
                               max_time: float = 20e-3) -> Waveform:
        """Constant-slope test-mode discharge; returns the output
        waveform until it crosses the fall threshold (or ``max_time``)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(max_time):
            raise ValueError("max_time must be finite")
        threshold = self.cal.fall_threshold_v
        v0 = self.v_out
        if not (v0 > threshold and max_time > 0.0):
            return Waveform([v0], dt, name="integrator")
        # Step k runs while the clock before it is below max_time; the
        # clock sums dt one step at a time, as a running ``t += dt`` does.
        t = np.add.accumulate(np.full(math.ceil(max_time / dt) + 2, dt))
        n_steps = 1 + int(np.count_nonzero(t < max_time))
        if not self.enabled:
            return Waveform(np.full(n_steps + 1, v0), dt, name="integrator")
        # The first step is clipped into the swing like ``_clip``; from
        # there the discharge moves one way, so clipping the running
        # difference elementwise binds exactly where a per-step clip would.
        step = self.cal.discharge_slope_v_per_s * dt
        v = np.full(n_steps, step)
        v[0] = self._clipped(v0 - step)
        v = self._clipped(np.subtract.accumulate(v))
        crossed = np.flatnonzero(~(v > threshold))
        if crossed.size:
            v = v[:crossed[0] + 1]
        self.v_out = float(v[-1])
        return Waveform(np.concatenate(([v0], v)), dt, name="integrator")

    def fall_time(self, v_step: float, dt: float = 1e-6) -> float:
        """The complete test-mode measurement: precharge, couple the
        step, discharge, time the threshold crossing."""
        self.reset()
        self.couple_step(v_step)
        wave = self.discharge_to_threshold(dt=dt)
        crossing = wave.crossing_time(self.cal.fall_threshold_v,
                                      direction="falling")
        if crossing is None:
            # Never crossed: either stuck (fault) or started below.
            if wave.values[0] <= self.cal.fall_threshold_v:
                return 0.0
            return float("inf")
        return crossing

    # ------------------------------------------------------------------
    def to_ztf(self) -> ZTransferFunction:
        """The z-domain model of this integrator (leak included)."""
        return sc_integrator_ztf(cap_ratio=self.cap_ratio / self.gain
                                 if self.gain else float("inf"),
                                 dt=self.cal.clock_period_s,
                                 leak=self.leak_per_cycle)
