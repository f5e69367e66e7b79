"""Uniformly sampled waveform container.

A :class:`Waveform` couples a sample vector with its sampling interval and
start time.  It is the common currency between stimulus generators, the
transient simulator output and the signature/correlation analysis code, so
it carries the small amount of arithmetic (resampling, slicing, algebra)
that the rest of the library would otherwise keep re-implementing.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

Number = Union[int, float]


class Waveform:
    """A uniformly sampled real-valued signal.

    Parameters
    ----------
    values:
        Sample values.  Stored as a float64 numpy array.
    dt:
        Sampling interval in seconds.  Must be positive.
    t0:
        Time of the first sample (seconds).
    name:
        Optional label carried through operations for reporting.
    """

    __slots__ = ("values", "dt", "t0", "name")

    def __init__(
        self,
        values: Iterable[Number],
        dt: float,
        t0: float = 0.0,
        name: str = "",
    ) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"Waveform values must be 1-D, got shape {arr.shape}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.values = arr
        self.dt = float(dt)
        self.t0 = float(t0)
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        """Sample-time vector."""
        return self.t0 + self.dt * np.arange(len(self.values))

    @property
    def duration(self) -> float:
        """Span from the first to the last sample."""
        if len(self.values) == 0:
            return 0.0
        return self.dt * (len(self.values) - 1)

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (f"Waveform({len(self)} samples, dt={self.dt:g}s, "
                f"t0={self.t0:g}s{label})")

    # ------------------------------------------------------------------
    # Indexing and interpolation
    # ------------------------------------------------------------------
    def __call__(self, t: Union[Number, np.ndarray]) -> Union[float, np.ndarray]:
        """Linearly interpolate the waveform at time(s) ``t``.

        Times outside the sampled span clamp to the end values, which is
        the natural behaviour for a held source driving a circuit.

        Every call builds the sample-time vector, so even a scalar call
        costs O(len(values)): a hot loop should pass all its times as
        one vector.  The vector call equals the per-time scalar calls
        bitwise.
        """
        t_arr = np.asarray(t, dtype=float)
        result = np.interp(t_arr, self.times, self.values)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(result)
        return result

    def value_at(self, t: Number) -> float:
        """Scalar interpolation helper (explicit name for readability)."""
        return float(self(float(t)))

    def slice_time(self, t_start: float, t_stop: float) -> "Waveform":
        """Return the sub-waveform for ``t_start <= t <= t_stop``."""
        if t_stop < t_start:
            raise ValueError("t_stop must be >= t_start")
        i0 = max(0, int(math.ceil((t_start - self.t0) / self.dt - 1e-12)))
        i1 = min(len(self.values) - 1,
                 int(math.floor((t_stop - self.t0) / self.dt + 1e-12)))
        if i1 < i0:
            return Waveform(np.empty(0), self.dt, t0=t_start, name=self.name)
        return Waveform(self.values[i0:i1 + 1], self.dt,
                        t0=self.t0 + i0 * self.dt, name=self.name)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _binary(self, other: Union["Waveform", Number],
                op: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Waveform":
        if isinstance(other, Waveform):
            if abs(other.dt - self.dt) > 1e-15 * max(self.dt, other.dt):
                raise ValueError("Waveform arithmetic requires matching dt; "
                                 "resample() one of the operands first")
            n = min(len(self), len(other))
            return Waveform(op(self.values[:n], other.values[:n]),
                            self.dt, self.t0, self.name)
        return Waveform(op(self.values, float(other)), self.dt, self.t0, self.name)

    def __add__(self, other: Union["Waveform", Number]) -> "Waveform":
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other: Union["Waveform", Number]) -> "Waveform":
        return self._binary(other, np.subtract)

    def __rsub__(self, other: Number) -> "Waveform":
        return Waveform(float(other) - self.values, self.dt, self.t0, self.name)

    def __mul__(self, other: Union["Waveform", Number]) -> "Waveform":
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self) -> "Waveform":
        return Waveform(-self.values, self.dt, self.t0, self.name)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def resample(self, dt: float) -> "Waveform":
        """Resample onto a new uniform grid with interval ``dt``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.values) == 0:
            return Waveform(np.empty(0), dt, self.t0, self.name)
        n = int(math.floor(self.duration / dt + 1e-9)) + 1
        new_times = self.t0 + dt * np.arange(n)
        return Waveform(np.interp(new_times, self.times, self.values),
                        dt, self.t0, self.name)

    def shifted(self, delay: float) -> "Waveform":
        """Return the same samples with the time origin moved by ``delay``."""
        return Waveform(self.values.copy(), self.dt, self.t0 + delay, self.name)

    def clipped(self, lo: float, hi: float) -> "Waveform":
        """Clamp sample values into ``[lo, hi]`` (rail limiting)."""
        if hi < lo:
            raise ValueError("hi must be >= lo")
        return Waveform(np.clip(self.values, lo, hi), self.dt, self.t0, self.name)

    def quantized(self, lsb: float, lo: Optional[float] = None,
                  hi: Optional[float] = None) -> "Waveform":
        """Mid-tread quantisation with step ``lsb``, optional saturation."""
        if lsb <= 0:
            raise ValueError("lsb must be positive")
        q = np.round(self.values / lsb) * lsb
        if lo is not None or hi is not None:
            q = np.clip(q, lo if lo is not None else -np.inf,
                        hi if hi is not None else np.inf)
        return Waveform(q, self.dt, self.t0, self.name)

    def with_noise(self, sigma: float, rng: Optional[np.random.Generator] = None,
                   seed: Optional[int] = None) -> "Waveform":
        """Additive white Gaussian noise with standard deviation ``sigma``."""
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if rng is None:
            rng = np.random.default_rng(seed)
        return Waveform(self.values + rng.normal(0.0, sigma, len(self.values)),
                        self.dt, self.t0, self.name)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def peak(self) -> float:
        """Maximum sample value."""
        self._require_samples()
        return float(np.max(self.values))

    def trough(self) -> float:
        """Minimum sample value."""
        self._require_samples()
        return float(np.min(self.values))

    def mean(self) -> float:
        self._require_samples()
        return float(np.mean(self.values))

    def rms(self) -> float:
        self._require_samples()
        return float(np.sqrt(np.mean(self.values ** 2)))

    def energy(self) -> float:
        """Discrete signal energy ``sum(v**2) * dt``."""
        return float(np.sum(self.values ** 2) * self.dt)

    def crossing_time(self, threshold: float, direction: str = "falling",
                      after: float = -np.inf) -> Optional[float]:
        """Time of the first threshold crossing, linearly interpolated.

        Parameters
        ----------
        threshold:
            Level to detect.
        direction:
            ``"falling"``, ``"rising"`` or ``"either"``.
        after:
            Ignore crossings earlier than this time.

        Returns ``None`` when no crossing occurs.
        """
        if direction not in ("falling", "rising", "either"):
            raise ValueError(f"bad direction {direction!r}")
        v = self.values
        t = self.times
        prev, cur = v[:-1], v[1:]
        hit = np.zeros(len(cur), dtype=bool)
        if direction != "rising":
            hit |= (prev > threshold) & (threshold >= cur)
        if direction != "falling":
            hit |= (prev < threshold) & (threshold <= cur)
        hit &= ~(t[1:] < after)
        first = np.flatnonzero(hit)
        if first.size == 0:
            return None
        i = int(first[0]) + 1
        dv = v[i] - v[i - 1]
        if dv == 0.0:
            return float(t[i])
        frac = (threshold - v[i - 1]) / dv
        return float(t[i - 1] + frac * self.dt)

    def settle_time(self, final_value: Optional[float] = None,
                    tolerance: float = 0.01) -> Optional[float]:
        """Time after which the waveform stays within ``tolerance`` (absolute)
        of ``final_value`` (defaults to the last sample)."""
        self._require_samples()
        if final_value is None:
            final_value = float(self.values[-1])
        inside = np.abs(self.values - final_value) <= tolerance
        if not inside[-1]:
            return None
        # last index that is outside the band
        outside = np.nonzero(~inside)[0]
        if len(outside) == 0:
            return float(self.t0)
        idx = outside[-1] + 1
        if idx >= len(self.values):
            return None
        return float(self.times[idx])

    def _require_samples(self) -> None:
        if len(self.values) == 0:
            raise ValueError("empty waveform")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_function(func: Callable[[np.ndarray], np.ndarray], dt: float,
                      duration: float, t0: float = 0.0, name: str = "") -> "Waveform":
        """Sample ``func(t)`` on a uniform grid covering ``duration``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        n = int(round(duration / dt)) + 1
        t = t0 + dt * np.arange(n)
        return Waveform(np.asarray(func(t), dtype=float), dt, t0, name)

    @staticmethod
    def zeros(n: int, dt: float, t0: float = 0.0, name: str = "") -> "Waveform":
        return Waveform(np.zeros(n), dt, t0, name)

    def copy(self) -> "Waveform":
        return Waveform(self.values.copy(), self.dt, self.t0, self.name)

    def almost_equal(self, other: "Waveform", atol: float = 1e-9) -> bool:
        """Element-wise comparison of equal-length waveforms."""
        return (len(self) == len(other)
                and abs(self.dt - other.dt) <= 1e-15 * max(self.dt, other.dt)
                and bool(np.allclose(self.values, other.values, atol=atol)))

    def stats(self) -> Tuple[float, float, float]:
        """Return ``(min, mean, max)`` in one pass, for reporting."""
        self._require_samples()
        return self.trough(), self.mean(), self.peak()
