"""Benchmark-telemetry pipeline: timed workloads + solver counters,
persisted and comparable.

``python -m repro.obs bench`` runs a named suite of workloads — each a
zero-argument callable mirroring one of the ``benchmarks/bench_*.py``
scenarios — several rounds apiece, every round inside its own enabled
observation scope, and writes ``BENCH_<suite>.json``: per-workload
median and IQR wall-clock timings plus the scope's key counters
(Newton iterations, LU factorisations, transient steps...).  The
counters are the telemetry half: a timing regression with unchanged
counters is machine noise; a timing regression *with* a counter jump
(Newton iterations doubled, LinearMarch stopped engaging) is an engine
regression and says where to look.

``python -m repro.obs compare old.json new.json --threshold 1.15``
gates the trajectory: non-zero exit when any common workload's median
slowed beyond the threshold ratio (``--warn-only`` downgrades for
bootstrap runs), with counter drifts annotated per workload.

Everything here is driven by the registry in :data:`SUITES`, so adding
a workload is one entry.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.core import observe
from repro.obs.ledger import KEY_COUNTER_PREFIXES, runtime_meta

#: file schema tag (bump on incompatible layout changes).
SCHEMA = "repro.bench/1"


# ---------------------------------------------------------------------------
# workloads


def _rc_transient_10k():
    from repro.spice import Circuit, transient
    circuit = Circuit("rc")
    circuit.vsource("VIN", "in", "0", lambda t: 5.0 if t > 0 else 0.0)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.capacitor("C1", "out", "0", 1e-6)
    return transient(circuit, t_stop=10e-3, dt=1e-6, record=["out"])


def _op1_transient_1k():
    from repro.circuits.op1 import op1_follower
    from repro.spice import transient
    circuit = op1_follower(input_value=lambda t: 2.2 if t < 50e-6 else 3.0)
    return transient(circuit, t_stop=1e-3, dt=1e-6, record=["3"])


def _op1_dc():
    from repro.circuits.op1 import op1_follower
    from repro.spice import dc_operating_point
    return dc_operating_point(op1_follower(input_value=2.5))


def _divider_campaign():
    from repro.faults import FaultCampaign, StuckAtFault
    from repro.spice import Circuit, dc_operating_point

    def build():
        ckt = Circuit("div")
        ckt.vsource("V1", "top", "0", 5.0)
        ckt.resistor("R1", "top", "mid", 1e3)
        ckt.resistor("R2", "mid", "0", 1e3)
        return ckt

    def technique(ckt):
        return dc_operating_point(ckt)[0]["mid"]

    faults = [f for node in ("top", "mid")
              for f in (StuckAtFault.sa0(node), StuckAtFault.sa1(node))]
    campaign = FaultCampaign(technique,
                             lambda ref, m: 1.0 if abs(m - ref) > 0.5 else 0.0,
                             threshold=0.5)
    return campaign.run(build(), faults)


def _dictionary_campaign(batch_size: int) -> Callable[[], Any]:
    """A 64-fault dictionary campaign over a 10-section RC ladder,
    scored sample-by-sample — the BENCH_batched speedup scenario.
    ``batch_size=1`` is the serial reference the Kx variants are
    measured against (mirrors benchmarks/bench_batched_dictionary.py)."""
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


def _surrogate_campaign(prescreen: bool) -> Callable[[], Any]:
    """The 64-fault dictionary campaign with a 127-chip PRBS (12.7 ms),
    with and without the surrogate prescreen — the BENCH_surrogate
    speedup scenario (mirrors benchmarks/bench_surrogate_prescreen.py).
    The longer stimulus is what the prescreen is for: transient cost
    scales with steps, the vector fit does not."""
    def run():
        from repro.faults import FaultCampaign
        from repro.faults.dictionary import (
            SignatureDetector,
            TransientSignatureTechnique,
            dictionary_faults,
            dictionary_ladder,
        )
        from repro.service.spec import CampaignSpec
        from repro.signals.prbs import prbs_waveform
        stimulus = prbs_waveform(order=7, chip_time=100e-6, low=0.0,
                                 high=5.0, dt=1e-6, seed=3)
        target = dictionary_ladder(n_sections=10, stimulus=stimulus)
        faults = dictionary_faults(n_sections=10, n_faults=64)
        technique = TransientSignatureTechnique(
            t_stop=stimulus.duration, dt=1e-6, node="n9")
        campaign = FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                                 threshold=0.05)
        spec = CampaignSpec(target=target, faults=tuple(faults))
        if prescreen:
            spec = spec.replace(prescreen="surrogate")
        return campaign.run(spec=spec)
    run.__name__ = ("dictionary_64f_prescreened" if prescreen
                    else "dictionary_64f_transient")
    return run


def _fit_rc_ladder():
    """One vector fit of the 10-section ladder's transfer function —
    the prescreen's per-fault unit of work, timed in isolation."""
    from repro.faults.dictionary import dictionary_ladder
    from repro.surrogate import PrescreenConfig, fit_circuit
    circuit = dictionary_ladder(n_sections=10)
    return fit_circuit(circuit, "VIN", "n9", config=PrescreenConfig(),
                       dt=1e-6, t_stop=6.3e-3)


def _sparse_ladder_transient():
    """A 1000-node RC ladder transient: above the sparse threshold, so
    the march runs through the CSC/splu route (the dense path on this
    workload is the deadline demo in bench_batched_dictionary.py)."""
    from repro.faults.dictionary import dictionary_ladder
    from repro.spice import transient
    circuit = dictionary_ladder(n_sections=1000, r_ohm=10.0)
    return transient(circuit, t_stop=1e-3, dt=2e-6, record=["n999"])


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
            checkpoint=os.path.join(workdir, f"job{j}.ckpt"),
            checkpoint_every=1))
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


def _experiment(exp_id: str) -> Callable[[], Any]:
    def run():
        from repro.experiments.registry import run_record
        return run_record(exp_id)
    run.__name__ = f"experiment_{exp_id}"
    return run


SUITES: Dict[str, Dict[str, Callable[[], Any]]] = {
    # engine micro-workloads (mirror benchmarks/bench_sim_performance.py
    # and bench_campaign_throughput.py)
    "sim": {
        "rc_transient_10k": _rc_transient_10k,
        "op1_transient_1k": _op1_transient_1k,
        "op1_dc_operating_point": _op1_dc,
        "divider_campaign": _divider_campaign,
    },
    # the paper's evaluation section (mirrors benchmarks/bench_e*.py);
    # select a subset with --ids (E5 takes ~0.2 s per round on a
    # 2-vCPU x86-64 host).
    "experiments": {
        eid: _experiment(eid)
        for eid in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9")
    },
    # lockstep batched campaign + sparse solver route (mirrors
    # benchmarks/bench_batched_dictionary.py); the Kx workloads share
    # one scenario so their medians are directly comparable speedups.
    "batched": {
        "dictionary_64f_serial": _dictionary_campaign(1),
        "dictionary_64f_k8": _dictionary_campaign(8),
        "dictionary_64f_k32": _dictionary_campaign(32),
        "dictionary_64f_k64": _dictionary_campaign(64),
        "sparse_ladder_1000": _sparse_ladder_transient,
    },
    # surrogate prescreen vs full transient on one shared scenario
    # (mirrors benchmarks/bench_surrogate_prescreen.py); the two
    # dictionary workloads' median ratio is the prescreen speedup.
    "surrogate": {
        "dictionary_64f_transient": _surrogate_campaign(False),
        "dictionary_64f_prescreened": _surrogate_campaign(True),
        "vector_fit_ladder10": _fit_rc_ladder,
    },
    # durable-service restart latency (mirrors
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


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _quartiles(values: List[float]) -> tuple:
    """(q25, q75) by linear interpolation (matches numpy's default)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0], ordered[0]

    def q(p: float) -> float:
        idx = p * (n - 1)
        lo = int(idx)
        hi = min(lo + 1, n - 1)
        frac = idx - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    return q(0.25), q(0.75)


def _key_counters(counter_values: Dict[str, int]) -> Dict[str, int]:
    return {name: value for name, value in sorted(counter_values.items())
            if name.startswith(KEY_COUNTER_PREFIXES)}


def run_workload(fn: Callable[[], Any], rounds: int) -> Dict[str, Any]:
    """Time ``fn`` for ``rounds`` rounds, each inside a fresh enabled
    observation scope; returns the persisted per-workload record."""
    times: List[float] = []
    counters: Dict[str, int] = {}
    for _ in range(rounds):
        with observe() as handle:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        # deterministic workloads produce identical counters per round;
        # keep the last round's (they include the scope's full story).
        counters = _key_counters(handle.metrics.counter_values())
    q25, q75 = _quartiles(times)
    return {
        "rounds": rounds,
        "median_s": _median(times),
        "iqr_s": q75 - q25,
        "min_s": min(times),
        "max_s": max(times),
        "times_s": times,
        "counters": counters,
    }


def run_suite(suite: str = "sim", ids: Optional[List[str]] = None,
              rounds: int = 3, out_dir: str = ".",
              echo: bool = True) -> str:
    """Run a suite and write ``BENCH_<suite>.json``; returns the path."""
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
    results: Dict[str, Any] = {}
    for name, fn in workloads.items():
        if echo:
            print(f"bench {suite}/{name} ({rounds} rounds)...",
                  flush=True)
        rec = run_workload(fn, rounds)
        results[name] = rec
        if echo:
            print(f"  median {rec['median_s'] * 1e3:.2f} ms  "
                  f"iqr {rec['iqr_s'] * 1e3:.2f} ms  "
                  f"({len(rec['counters'])} counters)")
    doc = {
        "schema": SCHEMA,
        "suite": suite,
        "rounds": rounds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        # provenance only — compare_benches reads doc["workloads"] and
        # ignores this block, so trajectories stay comparable across
        # hosts and commits while each point remains attributable
        "meta": runtime_meta(),
        "workloads": results,
    }
    path = os.path.join(out_dir, f"BENCH_{suite}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if echo:
        print(f"wrote {path}")
    return path


# ---------------------------------------------------------------------------
# comparison / regression gate


def load_bench(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unknown bench schema "
                         f"{doc.get('schema')!r} (expected {SCHEMA})")
    return doc


def compare_benches(baseline_path: str, candidate_path: str,
                    threshold: float = 1.15, warn_only: bool = False,
                    out=None) -> int:
    """Compare two BENCH_*.json files; returns the process exit code.

    A workload *regresses* when ``candidate_median / baseline_median >
    threshold``.  Counter drifts are annotated (they tell you whether a
    slowdown is engine behaviour or machine noise) but never gate on
    their own.
    """
    out = sys.stdout if out is None else out
    base = load_bench(baseline_path)
    cand = load_bench(candidate_path)
    common = sorted(set(base["workloads"]) & set(cand["workloads"]))
    if not common:
        print("error: no common workloads between the two files",
              file=sys.stderr)
        return 2
    regressions: List[str] = []
    print(f"{'workload':32s} {'base (s)':>12s} {'cand (s)':>12s} "
          f"{'ratio':>7s}", file=out)
    for name in common:
        b = base["workloads"][name]
        c = cand["workloads"][name]
        ratio = (c["median_s"] / b["median_s"]
                 if b["median_s"] > 0 else float("inf"))
        flag = ""
        if ratio > threshold:
            regressions.append(name)
            flag = "  WARN" if warn_only else "  FAIL"
        print(f"{name:32s} {b['median_s']:12.6f} {c['median_s']:12.6f} "
              f"{ratio:7.3f}{flag}", file=out)
        drifts = _counter_drifts(b.get("counters", {}),
                                 c.get("counters", {}))
        for line in drifts:
            print(f"    {line}", file=out)
    skipped = sorted((set(base["workloads"]) | set(cand["workloads"]))
                     - set(common))
    if skipped:
        print(f"not compared (present in only one file): "
              f"{', '.join(skipped)}", file=out)
    if regressions:
        verdict = (f"{len(regressions)} workload(s) beyond the "
                   f"{threshold:g}x gate: {', '.join(regressions)}")
        if warn_only:
            print(f"warning: {verdict} (warn-only)", file=out)
            return 0
        print(f"error: {verdict}", file=sys.stderr)
        return 1
    print(f"all {len(common)} workload(s) within the {threshold:g}x gate",
          file=out)
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
