"""Sigma-delta ADC — the paper's future work, implemented.

"The design of on-chip functional testing macros is under further
investigation for larger full-custom ADC devices designed with
sigma-delta modulation architecture, where the switched capacitor
integrator forms a major part of the circuit."

A first-order modulator is exactly that: the SC integrator accumulating
the difference between the input and a 1-bit feedback DAC, sliced by a
comparator every clock.  The model reuses the same fault levers as the
dual-slope sub-macros (integrator gain/leak/offset, comparator offset /
stuck output, DAC level errors), so every BIST and campaign mechanism in
:mod:`repro.core` applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.adc.comparator import ComparatorModel
from repro.signals.waveform import Waveform


class SigmaDeltaModulator:
    """First-order switched-capacitor sigma-delta modulator.

    Input range is ``[-v_ref, +v_ref]`` about the analogue ground; the
    output is the 1-bit stream whose mean encodes the input.

    Fault levers (all public attributes): ``integrator_gain``,
    ``integrator_leak``, ``integrator_offset_v``, ``dac_high_error_v``,
    ``dac_low_error_v``, plus the embedded :class:`ComparatorModel`.
    """

    def __init__(self, v_ref: float = 2.5, clock_hz: float = 100e3) -> None:
        if v_ref <= 0 or clock_hz <= 0:
            raise ValueError("v_ref and clock_hz must be positive")
        self.v_ref = v_ref
        self.clock_hz = clock_hz
        self.comparator = ComparatorModel()
        self.integrator_gain = 1.0
        self.integrator_leak = 0.0
        self.integrator_offset_v = 0.0
        self.dac_high_error_v = 0.0
        self.dac_low_error_v = 0.0
        #: integrator saturation (the op-amp's swing)
        self.saturation_v = 4.0
        self.state_v = 0.0

    def copy(self) -> "SigmaDeltaModulator":
        dup = SigmaDeltaModulator(self.v_ref, self.clock_hz)
        dup.comparator = self.comparator.copy()
        for attr in ("integrator_gain", "integrator_leak",
                     "integrator_offset_v", "dac_high_error_v",
                     "dac_low_error_v", "saturation_v", "state_v"):
            setattr(dup, attr, getattr(self, attr))
        return dup

    def reset(self) -> None:
        self.state_v = 0.0

    def _dac(self, bit: int) -> float:
        if bit:
            return self.v_ref + self.dac_high_error_v
        return -self.v_ref + self.dac_low_error_v

    def step(self, v_in: float) -> int:
        """One modulator clock: integrate (input − feedback), slice."""
        bit = self.comparator.compare(self.state_v, 0.0)
        feedback = self._dac(bit)
        self.state_v = (1.0 - self.integrator_leak) * self.state_v \
            + self.integrator_gain * (v_in - feedback) \
            + self.integrator_offset_v
        self.state_v = min(self.saturation_v,
                           max(-self.saturation_v, self.state_v))
        return bit

    def modulate(self, v_in: Union[float, Waveform],
                 n_cycles: int) -> np.ndarray:
        """Produce ``n_cycles`` bits for a DC or waveform input."""
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        bits = np.empty(n_cycles, dtype=int)
        dt = 1.0 / self.clock_hz
        if isinstance(v_in, Waveform):
            # one vector call: a scalar Waveform call costs O(len(values))
            levels = v_in(np.arange(n_cycles) * dt)
        else:
            levels = np.full(n_cycles, float(v_in))
        for k, x in enumerate(levels.tolist()):
            bits[k] = self.step(x)
        return bits


class DecimationFilter:
    """Sinc² decimator: two cascaded boxcar averages of length ``osr``.

    Turns the 1-bit stream into codes at ``clock / osr`` with first-order
    noise shaping adequately suppressed for a first-order modulator.
    """

    def __init__(self, osr: int = 64) -> None:
        if osr < 2:
            raise ValueError("oversampling ratio must be >= 2")
        self.osr = osr

    def decimate(self, bits: Sequence[int]) -> np.ndarray:
        """Decimated outputs in [-1, 1] (one per ``osr`` input bits,
        after the filter's 2-frame startup)."""
        x = 2.0 * np.asarray(bits, dtype=float) - 1.0
        if len(x) < 2 * self.osr:
            raise ValueError(
                f"need at least 2*osr={2 * self.osr} bits, got {len(x)}")
        box = np.ones(self.osr) / self.osr
        once = np.convolve(x, box, mode="valid")
        twice = np.convolve(once, box, mode="valid")
        return twice[self.osr - 1::self.osr]


@dataclass
class SDConversion:
    """One sigma-delta conversion result."""

    v_in: float
    value: float              # decoded input estimate, volts
    code: int                 # quantised output code
    bits_used: int
    bit_density: float        # fraction of ones in the stream


class SigmaDeltaADC:
    """Modulator + decimator packaged as a converter.

    Codes span ``0 .. n_codes`` over ``[0, full_scale_v]`` (the
    modulator's bipolar range is mapped onto the unipolar input range of
    the dual-slope macro so the two converters are drop-in comparable
    and the same BIST step levels apply).
    """

    def __init__(self, full_scale_v: float = 2.5, n_codes: int = 100,
                 osr: int = 64, n_frames: int = 8,
                 clock_hz: float = 100e3) -> None:
        if full_scale_v <= 0 or n_codes < 2 or n_frames < 3:
            raise ValueError("bad converter configuration")
        self.full_scale_v = full_scale_v
        self.n_codes = n_codes
        self.modulator = SigmaDeltaModulator(v_ref=full_scale_v,
                                             clock_hz=clock_hz)
        self.decimator = DecimationFilter(osr)
        self.n_frames = n_frames

    @property
    def lsb_v(self) -> float:
        return self.full_scale_v / self.n_codes

    @property
    def cal(self):  # noqa: ANN201 - duck-typing the DualSlopeADC surface
        """Minimal calibration view so BIST helpers that only need
        ``lsb_v`` / ``n_codes`` / ``full_scale_v`` work on both ADCs."""
        return self

    def copy(self) -> "SigmaDeltaADC":
        dup = SigmaDeltaADC(self.full_scale_v, self.n_codes,
                            self.decimator.osr, self.n_frames,
                            self.modulator.clock_hz)
        dup.modulator = self.modulator.copy()
        return dup

    # ------------------------------------------------------------------
    def convert(self, v_in: float) -> SDConversion:
        """Convert a DC input to a code.

        The unipolar input maps onto the modulator's bipolar range:
        ``x = 2 v_in − full_scale``.
        """
        x = 2.0 * v_in - self.full_scale_v
        self.modulator.reset()
        n_bits = self.n_frames * self.decimator.osr
        bits = self.modulator.modulate(x, n_bits)
        frames = self.decimator.decimate(bits)
        # drop the filter's settling frame(s)
        settled = frames[1:] if len(frames) > 1 else frames
        mean = float(np.mean(settled))
        value = (mean * self.full_scale_v + self.full_scale_v) / 2.0
        code = int(np.clip(round(value / self.lsb_v), 0, self.n_codes))
        return SDConversion(v_in=v_in, value=value, code=code,
                            bits_used=n_bits,
                            bit_density=float(np.mean(bits)))

    def code_of(self, v_in: float) -> int:
        return self.convert(v_in).code

    def conversion_time(self, v_in: float = 0.0) -> float:
        """Seconds per conversion (frames × OSR clocks)."""
        return self.n_frames * self.decimator.osr / self.modulator.clock_hz

    def describe(self) -> str:
        return (f"sigma-delta ADC: {self.n_codes} codes over "
                f"{self.full_scale_v} V, OSR {self.decimator.osr}, "
                f"{self.n_frames} frames/conversion at "
                f"{self.modulator.clock_hz:g} Hz")
