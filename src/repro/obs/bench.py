"""Benchmark-telemetry pipeline: timed workloads + solver counters,
appended as run-ledger rows and comparable.

``python -m repro.obs bench`` runs a named suite of workloads — each a
zero-argument callable shared with one of the ``benchmarks/bench_*.py``
scenarios — one or more rounds apiece, every call inside its own
enabled observation scope, and appends one ``repro.run-ledger/1`` row
per round to ``BENCH_<suite>.jsonl`` through
:meth:`~repro.obs.ledger.RunLedger.record`: key ``<suite>/<workload>``,
``elapsed_s``, the round's key counters (Newton iterations, LU
factorisations, transient steps...) and the ``meta`` provenance block.
The counters are the telemetry half: a timing regression with unchanged
counters is machine noise; a timing regression *with* a counter jump
(Newton iterations doubled, LinearMarch stopped engaging) is an engine
regression and says where to look.  ``python -m repro.obs ledger
trend --path BENCH_<suite>.jsonl`` reads the same rows.

``python -m repro.obs compare BASE CAND --threshold 1.15`` gates a
change against its parent: each side is one ledger file or a glob of
them, every key's ``elapsed_s`` are pooled across a side's rows, and
the exit is non-zero when any common workload's pooled median slowed
beyond the threshold ratio, with counter drifts annotated per
workload.  A workload whose baseline times spread wider than the bound
is reported unresolved instead of passed or failed.  Both sides are
meant to come from the same runner, alternating single-round runs of
the two trees, so the ratio measures the change and not the host.

Everything here is driven by the registry in :data:`SUITES`, so adding
a workload is one entry.
"""

from __future__ import annotations

import atexit
import glob
import os
import shutil
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.core import observe
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger, key_counters


# ---------------------------------------------------------------------------
# workloads


def _dictionary_campaign(batch_size: int) -> Callable[[], Any]:
    """A 64-fault dictionary campaign over a 10-section RC ladder,
    scored sample-by-sample — the batched suite's speedup scenario.
    ``batch_size=1`` is the serial reference the Kx variants are
    measured against (benchmarks/bench_batched_dictionary.py times the
    same callables)."""
    def run():
        from repro.faults import FaultCampaign
        from repro.faults.dictionary import (
            SignatureDetector,
            TransientSignatureTechnique,
            dictionary_faults,
            dictionary_ladder,
        )
        target = dictionary_ladder(n_sections=10)
        faults = dictionary_faults(n_sections=10, n_faults=64)
        technique = TransientSignatureTechnique(
            t_stop=3.1e-3, dt=1e-6, node="n9")
        campaign = FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                                 threshold=0.0, batch_size=batch_size)
        return campaign.run(target, faults)
    run.__name__ = f"dictionary_64f_k{batch_size}"
    return run


# -- durable-service recovery workloads -------------------------------------


def _recovery_divider():
    from repro.spice import Circuit
    ckt = Circuit("div")
    ckt.vsource("VIN", "in", "0", 4.0)
    ckt.resistor("R1", "in", "mid", 1e3)
    ckt.resistor("R2", "mid", "0", 1e3)
    return ckt


def _recovery_measure(ckt):
    from repro.spice import dc_operating_point
    v, _ = dc_operating_point(ckt, validate=False)
    return v["mid"]


def _recovery_detect(ref, meas):
    return 1.0 if abs(ref - meas) > 0.1 else 0.0


def _recovery_specs(workdir: str, n_jobs: int = 8, n_faults: int = 8):
    from repro.faults import StuckAtFault
    from repro.service.spec import CampaignSpec
    specs = []
    for j in range(n_jobs):
        faults = tuple(StuckAtFault(name=f"f{j}-{i}", node="mid",
                                    level=float(i % 2) * 5.0,
                                    resistance=10.0 + j * 100 + i)
                       for i in range(n_faults))
        specs.append(CampaignSpec(
            technique=_recovery_measure, detector=_recovery_detect,
            target=_recovery_divider(), faults=faults,
            name=f"recovery-{j}", workers=1,
            checkpoint=os.path.join(workdir, f"job{j}.ckpt")))
    return specs


#: staged-once state for the recovery workloads (journal snapshot in its
#: pre-crash all-live shape, plus fully populated checkpoints + cache).
_RECOVERY_STAGE: Dict[str, Any] = {}


def _recovery_stage() -> Dict[str, Any]:
    """Once per process: journal 8 campaign jobs, snapshot the journal
    while every job is still live (the "crashed mid-drain" state), then
    run them all to completion so checkpoints and the disk cache hold
    every outcome.  The recovery workloads restore that snapshot and
    time the restart path against the warm files."""
    if _RECOVERY_STAGE:
        return _RECOVERY_STAGE
    import tempfile
    from repro.service.cache import ResultCache
    from repro.service.queue import PersistentJobQueue
    from repro.service.scheduler import CampaignScheduler
    workdir = tempfile.mkdtemp(prefix="repro-bench-recovery-")
    atexit.register(shutil.rmtree, workdir, ignore_errors=True)
    queue_path = os.path.join(workdir, "queue.jsonl")
    specs = _recovery_specs(workdir)
    queue = PersistentJobQueue(queue_path)
    for i, spec in enumerate(specs):
        queue.submit(f"bench-job{i + 1}", spec.resolved())
    with open(queue_path, "rb") as fh:
        journal = fh.read()
    cache = ResultCache(path=os.path.join(workdir, "cache"))
    sched = CampaignScheduler(workers=1, name="bench-stage", cache=cache)
    try:
        for job in [sched.submit(spec) for spec in specs]:
            job.result()
    finally:
        sched.close()
    _RECOVERY_STAGE.update(workdir=workdir, queue_path=queue_path,
                           journal=journal, n_jobs=len(specs))
    return _RECOVERY_STAGE


def _restore_journal(stage: Dict[str, Any]) -> None:
    with open(stage["queue_path"], "wb") as fh:
        fh.write(stage["journal"])


def _journal_submit_100():
    """100 fsync'd submissions into a fresh journal — the write-ahead
    cost the service pays at accept time."""
    import tempfile
    from repro.service.queue import PersistentJobQueue
    stage = _recovery_stage()
    spec = _recovery_specs(stage["workdir"], n_jobs=1)[0].resolved()
    with tempfile.TemporaryDirectory(dir=stage["workdir"]) as tmp:
        queue = PersistentJobQueue(os.path.join(tmp, "q.jsonl"))
        for i in range(100):
            queue.submit(f"sub-job{i + 1}", spec)
        return len(queue)


def _journal_replay_8jobs():
    """Pure journal replay of the staged 8-job queue (no scheduler) —
    the floor any restart pays before it can dispatch."""
    from repro.service.queue import PersistentJobQueue
    stage = _recovery_stage()
    _restore_journal(stage)
    queue = PersistentJobQueue(stage["queue_path"])
    assert queue.depth() == stage["n_jobs"]
    return queue


def _service_restart_8jobs():
    """The end-to-end restart: replay the pre-crash journal, rebuild
    and re-submit all 8 jobs, and serve every result from checkpoints +
    disk cache — zero simulations, the recovery latency a SIGKILLed
    service pays on its next start."""
    from repro.service.cache import ResultCache
    from repro.service.scheduler import CampaignScheduler
    stage = _recovery_stage()
    _restore_journal(stage)
    cache = ResultCache(path=os.path.join(stage["workdir"], "cache"))
    sched = CampaignScheduler(workers=1, name="bench", cache=cache,
                              queue=stage["queue_path"])
    try:
        jobs = sched.recover()
        assert len(jobs) == stage["n_jobs"]
        results = [job.result() for job in jobs]
    finally:
        sched.close()
    return results


SUITES: Dict[str, Dict[str, Callable[[], Any]]] = {
    # lockstep batched campaign (shared with
    # benchmarks/bench_batched_dictionary.py); the Kx workloads share
    # one scenario so their medians are directly comparable speedups.
    "batched": {
        "dictionary_64f_serial": _dictionary_campaign(1),
        "dictionary_64f_k8": _dictionary_campaign(8),
        "dictionary_64f_k32": _dictionary_campaign(32),
        "dictionary_64f_k64": _dictionary_campaign(64),
    },
    # durable-service restart latency (shared with
    # benchmarks/bench_service_recovery.py): write-ahead append cost,
    # pure journal replay, and the full recover-and-serve restart.
    "recovery": {
        "journal_submit_100": _journal_submit_100,
        "journal_replay_8jobs": _journal_replay_8jobs,
        "service_restart_8jobs": _service_restart_8jobs,
    },
}


# ---------------------------------------------------------------------------
# runner


def run_suite(suite: str = "batched", ids: Optional[List[str]] = None,
              rounds: int = 3, out_dir: str = ".",
              echo: bool = True) -> str:
    """Run a suite, appending one ledger row per timed round to
    ``BENCH_<suite>.jsonl``; returns the path."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    workloads = SUITES[suite]
    if ids:
        missing = [i for i in ids if i not in workloads]
        if missing:
            raise KeyError(f"unknown workload(s) {missing} in suite "
                           f"{suite!r}; known: {sorted(workloads)}")
        workloads = {i: workloads[i] for i in ids}
    os.makedirs(out_dir, exist_ok=True)
    if suite == "recovery":
        # staged untimed, so a single-round run times the restart path
        # and not the staging
        _recovery_stage()
    ledger = RunLedger(os.path.join(out_dir, f"BENCH_{suite}.jsonl"))
    for name, fn in workloads.items():
        if echo:
            print(f"bench {suite}/{name} ({rounds} rounds)...",
                  flush=True)
        times: List[float] = []
        for _ in range(rounds):
            with observe() as handle:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            counters = key_counters(handle.metrics.counter_values())
            ledger.record({"key": f"{suite}/{name}", "name": name,
                           "elapsed_s": times[-1], "counters": counters})
        if echo:
            print(f"  median {statistics.median(times) * 1e3:.2f} ms  "
                  f"iqr {_rel_iqr(times):.1%}  ({len(counters)} counters)")
    if echo:
        print(f"appended {rounds * len(workloads)} rows to {ledger.path}")
    return ledger.path


# ---------------------------------------------------------------------------
# comparison / regression gate


def _pool(pattern: str) -> Dict[str, Dict[str, Any]]:
    """Every key's ``elapsed_s`` pooled across the ledger rows of the
    files that ``pattern`` (a path or a glob) names, with the last
    row's counters."""
    pooled: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(pattern)) or [pattern]:
        for row in RunLedger(path).rows():
            entry = pooled.setdefault(str(row.get("key")), {"times_s": []})
            entry["times_s"].append(row["elapsed_s"])
            entry["counters"] = row.get("counters") or {}
    for entry in pooled.values():
        entry["median_s"] = statistics.median(entry["times_s"])
    return pooled


def _rel_iqr(times: List[float]) -> float:
    """Interquartile range over the median (0 for a single time)."""
    if len(times) < 2:
        return 0.0
    q25, _, q75 = statistics.quantiles(times, n=4, method="inclusive")
    return (q75 - q25) / statistics.median(times)


def compare_benches(baseline: str, candidate: str,
                    threshold: float = 1.15, out=None) -> int:
    """Compare two sets of ``BENCH_*.jsonl`` ledger files; returns the
    exit code.

    Each side is a path or a glob; a workload's times are pooled across
    its side's rows before the median is taken.  A side with no
    ``repro.run-ledger/1`` rows exits 2.  A
    workload *regresses* when ``candidate_median / baseline_median >
    threshold``, unless the baseline's own spread (IQR over median) is
    wider than the bound: a ratio that noisy cannot tell a change from
    the host, so the workload is reported *unresolved* and does not fail
    the gate.  Counter drifts are annotated (they tell you whether a
    slowdown is engine behaviour or machine noise) but never gate on
    their own.
    """
    out = sys.stdout if out is None else out
    base = _pool(baseline)
    cand = _pool(candidate)
    for side, pattern in ((base, baseline), (cand, candidate)):
        if not side:
            print(f"error: no {LEDGER_SCHEMA} rows in {pattern}",
                  file=sys.stderr)
            return 2
    common = sorted(set(base) & set(cand))
    if not common:
        print("error: no common workloads between the two sides",
              file=sys.stderr)
        return 2
    regressions: List[str] = []
    unresolved: List[str] = []
    print(f"{'workload':32s} {'base (s)':>12s} {'cand (s)':>12s} "
          f"{'ratio':>7s}", file=out)
    for name in common:
        b = base[name]
        c = cand[name]
        ratio = (c["median_s"] / b["median_s"]
                 if b["median_s"] > 0 else float("inf"))
        spread = _rel_iqr(b["times_s"])
        flag = ""
        if spread > threshold - 1:
            unresolved.append(name)
            flag = f"  unresolved (base IQR {spread:.0%} of median)"
        elif ratio > threshold:
            regressions.append(name)
            flag = "  FAIL"
        print(f"{name:32s} {b['median_s']:12.6f} {c['median_s']:12.6f} "
              f"{ratio:7.3f}{flag}", file=out)
        for line in _counter_drifts(b["counters"], c["counters"]):
            print(f"    {line}", file=out)
    skipped = sorted((set(base) | set(cand)) - set(common))
    if skipped:
        print(f"not compared (present on only one side): "
              f"{', '.join(skipped)}", file=out)
    if unresolved:
        print(f"{len(unresolved)} workload(s) unresolved, their baseline "
              f"spread is wider than the {threshold:g}x gate: "
              f"{', '.join(unresolved)}", file=out)
    if regressions:
        print(f"error: {len(regressions)} workload(s) beyond the "
              f"{threshold:g}x gate: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    print(f"{len(common) - len(unresolved)} of {len(common)} workload(s) "
          f"within the {threshold:g}x gate", file=out)
    return 0


def _counter_drifts(base: Dict[str, int], cand: Dict[str, int],
                    rel: float = 0.01) -> List[str]:
    """Human lines for counters whose values moved more than ``rel``."""
    lines: List[str] = []
    for name in sorted(set(base) | set(cand)):
        b = base.get(name, 0)
        c = cand.get(name, 0)
        if b == c:
            continue
        denom = max(abs(b), 1)
        if abs(c - b) / denom > rel:
            lines.append(f"counter {name}: {b} -> {c}")
    return lines
