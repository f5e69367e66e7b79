"""Fast-path engine equivalence against the reference engine.

Every test here runs the same analysis twice — once with the partitioned
/cached/vectorised fast path (the default) and once with
``fast_path=False``, which restamps every element through its scalar
Python ``stamp()`` and solves with ``numpy.linalg.solve`` exactly as the
original engine did — and requires agreement to 1e-9 V, far tighter than
any physical claim the reproduction makes.

Also covers the satellite features that ride on the fast path: the
parallel fault campaign (must match serial fault-for-fault), the
FFT correlation route (must match ``numpy.correlate``), and the
transient grid-mismatch warning.
"""

import warnings

import numpy as np
import pytest

from repro.circuits.op1 import op1_follower
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import inject
from repro.faults.model import StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.signals.correlation import FFT_CORR_THRESHOLD, fft_correlate
from repro.signals.prbs import prbs_waveform
from repro.signals.waveform import Waveform
from repro.spice import (
    Capacitor,
    Circuit,
    GridMismatchWarning,
    Resistor,
    VoltageSource,
    dc_operating_point,
    transient,
)

TOL = 1e-9


def _step(t):
    return 1.0 if t > 1e-6 else 0.0


def _rc_ladder():
    c = Circuit("rc_ladder")
    c.add(VoltageSource("V1", "in", "0", value=_step))
    c.add(Resistor("R1", "in", "a", 1e3))
    c.add(Capacitor("C1", "a", "0", 1e-9))
    c.add(Resistor("R2", "a", "b", 2e3))
    c.add(Capacitor("C2", "b", "0", 2e-9))
    c.add(Resistor("R3", "b", "0", 10e3))
    return c


def _max_trace_diff(fast, ref):
    assert list(fast.times) == pytest.approx(list(ref.times), abs=0.0)
    return max(np.max(np.abs(fast.array(n) - ref.array(n)))
               for n in ref.nodes())


def test_dc_op1_matches_reference():
    v_fast, x_fast = dc_operating_point(op1_follower(input_value=2.5))
    v_ref, x_ref = dc_operating_point(op1_follower(input_value=2.5),
                                      fast_path=False)
    assert set(v_fast) == set(v_ref)
    for node in v_ref:
        assert abs(v_fast[node] - v_ref[node]) < TOL
    assert np.max(np.abs(x_fast - x_ref)) < TOL


def test_transient_rc_be_linear_march_matches_reference():
    # Fully linear + backward Euler: exercises the one-factorisation
    # linear march against the step-by-step reference.
    fast = transient(_rc_ladder(), 2e-5, 1e-8, method="be")
    ref = transient(_rc_ladder(), 2e-5, 1e-8, method="be", fast_path=False)
    assert _max_trace_diff(fast, ref) < TOL


def test_transient_rc_trap_matches_reference():
    # Trapezoidal bypasses the linear march: exercises the partitioned
    # generic loop with LU reuse.
    fast = transient(_rc_ladder(), 2e-5, 1e-8, method="trap")
    ref = transient(_rc_ladder(), 2e-5, 1e-8, method="trap", fast_path=False)
    assert _max_trace_diff(fast, ref) < TOL


def test_transient_op1_matches_reference():
    # Nonlinear path: vectorised MOSFET group + static-G cache vs the
    # scalar per-device stamps, across a step that slews the output.
    def drive(t):
        return 2.2 if t < 5e-6 else 3.0
    fast = transient(op1_follower(input_value=drive), 2e-5, 1e-7,
                     record=["3", "4", "5"])
    ref = transient(op1_follower(input_value=drive), 2e-5, 1e-7,
                    record=["3", "4", "5"], fast_path=False)
    assert _max_trace_diff(fast, ref) < TOL


def test_transient_faulted_rc_matches_reference():
    # Fault injection adds elements (fault resistor + clamp source);
    # the rebuilt assembler must partition the mutated netlist correctly.
    fault = StuckAtFault.sa1("a", vdd=5.0, resistance=10.0)
    fast = transient(inject(_rc_ladder(), fault), 2e-5, 1e-8)
    ref = transient(inject(_rc_ladder(), fault), 2e-5, 1e-8, fast_path=False)
    assert _max_trace_diff(fast, ref) < TOL


def test_transient_records_branch_currents_identically():
    fast = transient(_rc_ladder(), 1e-5, 1e-8, record_branches=["V1"])
    ref = transient(_rc_ladder(), 1e-5, 1e-8, record_branches=["V1"],
                    fast_path=False)
    d = np.max(np.abs(fast.branch_current("V1").values
                      - ref.branch_current("V1").values))
    assert d < TOL


# --- one vector sample per march ------------------------------------------
# The marches sample each Waveform source once as ``w(times)`` and read
# the levels from that vector; that is exact only because the vector
# call equals the per-time scalar calls bitwise.

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("order", [4, 7])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_waveform_vector_call_equals_scalar_calls_bitwise(order, seed):
    rng = np.random.default_rng(1000 * order + seed)
    low, high = rng.uniform(-2.0, 2.0), rng.uniform(2.5, 5.0)
    prbs = prbs_waveform(order=order, chip_time=rng.uniform(1e-7, 1e-5),
                         low=low, high=high, dt=None, seed=seed)
    t0 = rng.uniform(1e-6, 1e-3) * rng.choice([-1.0, 1.0])
    w = Waveform(prbs.values, prbs.dt, t0=t0)
    on_grid = w.times[rng.choice(len(w), size=min(len(w), 400),
                                 replace=False)]
    off_grid = w.times[:-1][rng.choice(len(w) - 1, size=400)] \
        + rng.uniform(0.0, 1.0, 400) * w.dt
    before = w.t0 - rng.uniform(0.0, 1.0, 20) * w.duration
    after = w.t_end + rng.uniform(0.0, 1.0, 20) * w.duration
    times = np.concatenate((on_grid, off_grid, before, after,
                            [w.t0, w.t_end]))
    scalar = [w.value_at(t) for t in times]
    assert np.array_equal(_bits(w(times)), _bits(scalar))
    # clamped outside [t0, t_end]
    assert set(w(before)) == {w.values[0]}
    assert set(w(after)) == {w.values[-1]}


# --- grid mismatch -------------------------------------------------------

def test_grid_mismatch_warns():
    with pytest.warns(GridMismatchWarning):
        result = transient(_rc_ladder(), t_stop=1.05e-6, dt=1e-7)
    # The march still covers round(t_stop / dt) steps.
    assert len(result.times) == 11
    assert result.times[-1] == pytest.approx(1.0e-6)


def test_exact_grid_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridMismatchWarning)
        transient(_rc_ladder(), t_stop=1e-6, dt=1e-7)


# --- parallel fault campaign --------------------------------------------

def _campaign_step(t):
    return 2.2 if t < 5e-6 else 2.8


def _campaign_technique(circuit):
    return transient(circuit, t_stop=2e-5, dt=2.5e-7, record=["3"]).array("3")


def _campaign_detector(reference, measurement):
    return float(np.mean(np.abs(measurement - reference) > 0.05))


def test_campaign_workers_match_serial():
    target = op1_follower(input_value=_campaign_step)
    faults = stuck_at_universe(["4", "5", "7", "8", "3"])
    serial = FaultCampaign(_campaign_technique, _campaign_detector).run(
        target, faults)
    pooled = FaultCampaign(_campaign_technique, _campaign_detector,
                           workers=2).run(target, faults)
    assert pooled.n_faults == serial.n_faults == len(faults)
    for s, p in zip(serial.outcomes, pooled.outcomes):
        assert s.fault.describe() == p.fault.describe()
        assert s.detection == p.detection
        assert s.detected == p.detected
        assert s.error == p.error


def test_campaign_unpicklable_falls_back_to_serial():
    target = _rc_ladder()
    faults = stuck_at_universe(["a"])
    # A lambda detector cannot cross a process boundary.
    campaign = FaultCampaign(
        lambda c: transient(c, 1e-5, 1e-7).array("a"),
        lambda ref, m: float(np.mean(np.abs(m - ref) > 0.05)),
        workers=2)
    with pytest.warns(RuntimeWarning, match="not\\s+picklable"):
        result = campaign.run(target, faults)
    assert result.n_faults == len(faults)


def test_campaign_rejects_bad_workers():
    with pytest.raises(ValueError):
        FaultCampaign(_campaign_technique, _campaign_detector, workers=0)


# --- one dense route at every size ---------------------------------------

def test_large_ladder_marches_on_the_dense_route():
    # 600 sections is past the 500 unknowns where a CSC/SuperLU route
    # once took over; every circuit now solves through dense LAPACK.
    from repro.faults.dictionary import dictionary_ladder
    from repro.obs import observe

    circuit = dictionary_ladder(n_sections=600, r_ohm=10.0)
    with observe() as o:
        result = transient(circuit, 1e-5, 2e-6, record=["n599"])
    assert result.stats["engine"] == "linear_march"
    counters = o.metrics.counter_values()
    assert counters["fastpath.linear_march_runs"] == 1
    assert not [k for k in counters if k.startswith("mna.sparse")]


# --- single-factorisation frequency sweeps --------------------------------

def test_frequency_pencil_matches_per_point_dense_solves():
    from repro.spice import FrequencyPencil
    rng = np.random.default_rng(7)
    n = 10
    g = rng.standard_normal((n, n)) + 5.0 * np.eye(n)
    c = rng.standard_normal((n, n)) * 1e-9
    b = rng.standard_normal(n)
    c_vec = rng.standard_normal(n)
    s_values = 2j * np.pi * np.logspace(0, 9, 31)
    pencil = FrequencyPencil(g, c)
    got = pencil.transfer(b, c_vec, s_values)
    ref = np.array([c_vec @ np.linalg.solve(g + s * c, b.astype(complex))
                    for s in s_values])
    scale = np.maximum(np.abs(ref), 1e-300)
    assert np.max(np.abs(got - ref) / scale) < TOL


def test_ac_sweep_matches_scalar_transfer_function():
    # ac_sweep routes through the QZ pencil; each point must agree with
    # the scalar (direct dense solve) transfer_function_at evaluation.
    from repro.spice import ac_sweep, transfer_function_at
    circuit = _rc_ladder()
    sweep = ac_sweep(circuit, "V1", "b", f_start=10.0, f_stop=1e7,
                     points_per_decade=4)
    for f, h in zip(sweep.frequencies_hz[::5], sweep.response[::5]):
        direct = transfer_function_at(circuit, "V1", "b", 2j * np.pi * f)
        assert abs(h - direct) < TOL * max(1.0, abs(direct))


# --- FFT correlation route ----------------------------------------------

@pytest.mark.parametrize("mode", ["full", "same", "valid"])
@pytest.mark.parametrize("m,n", [(1, 1), (5, 5), (9, 4), (4, 9),
                                 (8, 3), (3, 8), (128, 127), (301, 64)])
def test_fft_correlate_matches_numpy(mode, m, n):
    rng = np.random.default_rng(m * 1000 + n)
    a = rng.standard_normal(m)
    v = rng.standard_normal(n)
    ref = np.correlate(a, v, mode=mode)
    got = fft_correlate(a, v, mode)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) < 1e-12 * scale


def test_large_cross_correlation_uses_fft_and_matches():
    # Above the threshold cross_correlation() switches to the FFT route;
    # the result must still match a direct np.correlate to round-off.
    from repro.signals.correlation import cross_correlation
    rng = np.random.default_rng(42)
    n = int(np.sqrt(FFT_CORR_THRESHOLD)) + 8
    y = rng.standard_normal(n)
    p = rng.standard_normal(n)
    assert n * n >= FFT_CORR_THRESHOLD
    r = cross_correlation(y, p)
    ref = np.correlate(y, p, mode="full")
    assert np.max(np.abs(r.values - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))
