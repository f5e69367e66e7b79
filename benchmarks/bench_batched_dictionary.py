"""Batched fault-dictionary throughput: lockstep K-variant marching.

The dictionary scenario from the paper's methodology — store the
sampled response of every faulty variant to the BIST stimulus — is
embarrassingly batchable: all 64 bridging faults of the RC-ladder
universe are linear, add no MNA unknowns, and share one stimulus, so
the batched engine marches them as a single ``(K, n, n) @ (K, n, 1)``
lockstep tensor.  This file times the same 64-fault campaign at
``batch_size`` ∈ {1, 8, 32, 64} (the speedup table) and pins batched
results to the serial ones.  The campaigns are the ``batched`` suite's
workloads in :mod:`repro.obs.bench`.

``python benchmarks/bench_batched_dictionary.py`` (no pytest) runs the
telemetry suite instead and appends run-ledger rows to
``BENCH_batched.jsonl``; CI's ``bench-gate`` job gates that suite
against the parent commit (``python -m repro.obs compare``).
"""

import time

from repro.obs.bench import SUITES

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


if __name__ == "__main__":
    from repro.obs.bench import run_suite
    run_suite("batched", rounds=3, out_dir=".")
