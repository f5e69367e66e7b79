"""Batched fault-dictionary throughput: lockstep K-variant marching.

The dictionary scenario from the paper's methodology — store the
sampled response of every faulty variant to the BIST stimulus — is
embarrassingly batchable: all 64 bridging faults of the RC-ladder
universe are linear, add no MNA unknowns, and share one stimulus, so
the batched engine marches them as a single ``(K, n, n) @ (K, n, 1)``
lockstep tensor.  This file times the same 64-fault campaign at
``batch_size`` ∈ {1, 8, 32, 64} (the speedup table), pins batched
results to the serial ones, and demonstrates the sparse (CSC + splu)
solver route on a ladder large enough that the dense path cannot
finish inside the budget the sparse route sets.  The campaigns are the
``batched`` suite's workloads in :mod:`repro.obs.bench`.

``python benchmarks/bench_batched_dictionary.py`` (no pytest) runs the
telemetry suite instead and writes ``BENCH_batched.json`` in the
``repro.bench/1`` schema; CI's ``bench-gate`` job gates that suite
against the parent commit (``python -m repro.obs compare``).
"""

import os
import time

from repro.errors import DeadlineExceeded
from repro.faults.dictionary import dictionary_ladder
from repro.obs.bench import SUITES
from repro.resilience.deadline import deadline_scope
from repro.spice import transient

N_FAULTS = 64
WORKLOADS = SUITES["batched"]

#: the tentpole's acceptance floor for the K=64 lockstep speedup.
TARGET_SPEEDUP = 5.0


def test_perf_dictionary_serial(benchmark):
    result = benchmark(WORKLOADS["dictionary_64f_serial"])
    assert result.n_faults == N_FAULTS


def test_perf_dictionary_k8(benchmark):
    result = benchmark(WORKLOADS["dictionary_64f_k8"])
    assert result.n_faults == N_FAULTS


def test_perf_dictionary_k32(benchmark):
    result = benchmark(WORKLOADS["dictionary_64f_k32"])
    assert result.n_faults == N_FAULTS


def test_perf_dictionary_k64(benchmark):
    result = benchmark(WORKLOADS["dictionary_64f_k64"])
    assert result.n_faults == N_FAULTS


def _normalized(result):
    """to_dict with the wall-clock fields zeroed — timing is the only
    permitted batched-vs-serial difference."""
    doc = result.to_dict()
    doc["elapsed_s"] = 0.0
    doc["outcomes"] = [dict(o, elapsed_s=0.0) for o in doc["outcomes"]]
    return doc


def test_batched_matches_serial_and_hits_target():
    """Not a pytest-benchmark timing: one serial + one K=64 run under a
    plain timer, asserting byte-identical outcomes *and* the >=5x
    speedup the tentpole promises (measured ~19x on a dev host)."""
    t0 = time.perf_counter()
    serial = WORKLOADS["dictionary_64f_serial"]()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = WORKLOADS["dictionary_64f_k64"]()
    batched_s = time.perf_counter() - t0
    assert _normalized(batched) == _normalized(serial)
    speedup = serial_s / batched_s
    print(f"\ndictionary {N_FAULTS}-fault: serial {serial_s:.3f} s, "
          f"K={N_FAULTS} {batched_s:.3f} s -> {speedup:.1f}x "
          f"(target >= {TARGET_SPEEDUP:g}x)")
    assert speedup >= TARGET_SPEEDUP


def test_sparse_route_beats_dense_deadline():
    """The sparse acceptance demo: a 2000-node RC ladder transient.

    The sparse route (automatic above the threshold) finishes in a few
    hundred ms; the dense path, forced via ``REPRO_SPARSE_THRESHOLD``,
    is given five times the sparse wall-clock (floored at 1 s) and must
    trip the cooperative deadline instead of completing — the dense
    O(n^3) setup plus O(n^2)-per-step march simply does not fit.
    """
    n = 2000
    circuit = dictionary_ladder(n_sections=n, r_ohm=10.0)
    out = f"n{n - 1}"
    t0 = time.perf_counter()
    result = transient(circuit, t_stop=1e-3, dt=2e-6, record=[out])
    sparse_s = time.perf_counter() - t0
    assert result.stats["engine"] == "sparse_linear_march"
    budget_s = max(5.0 * sparse_s, 1.0)
    os.environ["REPRO_SPARSE_THRESHOLD"] = str(10 * n)
    try:
        with deadline_scope(budget_s, label="dense-route budget"):
            try:
                transient(circuit, t_stop=1e-3, dt=2e-6, record=[out])
            except DeadlineExceeded:
                dense_verdict = "deadline"
            else:
                dense_verdict = "completed"
    finally:
        del os.environ["REPRO_SPARSE_THRESHOLD"]
    print(f"\nsparse {n}-node ladder: {sparse_s:.3f} s; dense under a "
          f"{budget_s:.2f} s budget: {dense_verdict}")
    assert dense_verdict == "deadline"


if __name__ == "__main__":
    from repro.obs.bench import run_suite
    run_suite("batched", rounds=3, out_dir=".")
