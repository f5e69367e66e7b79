"""Durable-service recovery latency: journal replay + re-submit timing.

The crash-safety contract (tests/test_durability.py) says a SIGKILLed
service restarted over its queue/cache/checkpoint files produces
``to_dict()``-identical results; this file times what that restart
*costs*.  Three workloads, shared with the ``recovery`` telemetry
suite in :mod:`repro.obs.bench`:

* ``journal_submit_100`` — 100 fsync'd write-ahead appends, the price
  of accepting work durably;
* ``journal_replay_8jobs`` — pure journal replay, the floor of any
  restart;
* ``service_restart_8jobs`` — the end-to-end restart: replay, rebuild
  and re-submit 8 jobs, and serve all 64 outcomes from checkpoints +
  disk cache without a single simulation.

``python benchmarks/bench_service_recovery.py`` (no pytest) runs the
telemetry suite instead and writes ``BENCH_recovery.json`` in the
``repro.bench/1`` schema; CI's ``bench-gate`` job gates that suite
against the parent commit (``python -m repro.obs compare``).
"""

from repro.obs.bench import (
    _journal_replay_8jobs,
    _journal_submit_100,
    _recovery_stage,
    _service_restart_8jobs,
)


def test_perf_journal_submit_100(benchmark):
    assert benchmark(_journal_submit_100) == 100


def test_perf_journal_replay(benchmark):
    queue = benchmark(_journal_replay_8jobs)
    assert queue.depth() == 8
    assert queue.corrupt == 0


def test_perf_service_restart(benchmark):
    results = benchmark(_service_restart_8jobs)
    assert len(results) == 8


def test_restart_serves_without_simulation():
    """Not a timing — the recovery-latency pin: a restart over warm
    checkpoint/cache files re-serves every outcome without recomputing
    anything, not even the fault-free references."""
    _recovery_stage()
    results = _service_restart_8jobs()
    assert len(results) == 8
    for result in results:
        assert result.n_faults == 8
        assert result.reference is None  # reference never recomputed
        assert not result.partial


if __name__ == "__main__":
    from repro.obs.bench import run_suite
    run_suite("recovery", rounds=3, out_dir=".")
