"""Property pin of ``Waveform.crossing_time`` against the per-sample loop.

The vectorised search must return bitwise what the scan it replaced
returned: the same first hit, the same interpolation, ``None`` alike.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.comparator import ComparatorModel
from repro.signals import Waveform

DIRECTIONS = ("falling", "rising", "either")


def _oracle_crossing(wave, threshold, direction="falling", after=-np.inf):
    v = wave.values
    t = wave.times
    for i in range(1, len(v)):
        if t[i] < after:
            continue
        falling = v[i - 1] > threshold >= v[i]
        rising = v[i - 1] < threshold <= v[i]
        hit = (direction == "falling" and falling) or \
              (direction == "rising" and rising) or \
              (direction == "either" and (falling or rising))
        if hit:
            dv = v[i] - v[i - 1]
            if dv == 0.0:
                return float(t[i])
            frac = (threshold - v[i - 1]) / dv
            return float(t[i - 1] + frac * wave.dt)
    return None


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return float(a).hex() == float(b).hex()


# few distinct levels, so flat segments and exact threshold hits are common
levels = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
samples = st.lists(st.one_of(levels, st.floats(-3.0, 3.0)),
                   min_size=0, max_size=40)


@settings(max_examples=300, deadline=None)
@given(values=samples,
       threshold=st.one_of(levels, st.floats(-3.0, 3.0)),
       direction=st.sampled_from(DIRECTIONS),
       dt=st.sampled_from([1e-6, 1e-3, 0.1, 0.37]),
       t0=st.sampled_from([0.0, -0.25, 1.5]),
       after=st.one_of(st.just(-np.inf), st.floats(-1.0, 5.0)),
       after_sample=st.one_of(st.none(), st.integers(0, 40)))
def test_crossing_time_matches_per_sample_loop(values, threshold, direction,
                                               dt, t0, after, after_sample):
    wave = Waveform(values, dt, t0=t0)
    if after_sample is not None and after_sample < len(wave):
        after = float(wave.times[after_sample])   # exactly on a sample
    got = wave.crossing_time(threshold, direction, after=after)
    assert _same(got, _oracle_crossing(wave, threshold, direction, after))


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("values", [[], [1.0], [0.5, 0.5, 0.5],
                                    [1.0, 0.5, 0.5, 0.0],
                                    [0.0, 0.5, 0.5, 1.0, 0.5, 0.0],
                                    [2.0, 2.0, 3.0]])
def test_edge_waveforms_match(values, direction):
    wave = Waveform(values, 1e-3)
    for threshold in (0.0, 0.5, 1.0, 5.0):
        for after in (-np.inf, 0.0, 2e-3, 1.0):
            assert _same(wave.crossing_time(threshold, direction, after),
                         _oracle_crossing(wave, threshold, direction, after))


def test_flat_segment_on_threshold_is_not_a_crossing():
    wave = Waveform([1.0, 0.5, 0.5, 0.0], 1.0)
    assert wave.crossing_time(0.5, "falling") == 1.0
    assert wave.crossing_time(0.5, "falling", after=1.5) is None
    assert wave.crossing_time(0.5, "rising") is None


def test_crossing_at_the_after_time_counts():
    wave = Waveform([1.0, 1.0, 0.0, 0.0], 1.0)
    assert wave.crossing_time(0.5, "falling", after=2.0) == 1.5
    assert wave.crossing_time(0.5, "falling", after=2.5) is None


def test_comparator_crossing_matches_loop():
    wave = Waveform(np.linspace(3.6, 0.0, 3601), 1e-6)
    cmp_ = ComparatorModel(offset_v=4e-3, delay_s=2e-7)
    expected = _oracle_crossing(wave, 1.0 + 4e-3, "falling") + 2e-7
    assert _same(cmp_.crossing_time(wave, 1.0, "falling"), expected)
    assert math.isclose(expected, 2.5962e-3, rel_tol=1e-9)
