"""The fault-test system's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e7_fig4 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload bist_lot --smoke --trace 1

Workloads (``perfbench/workloads.py``): ``e7_fig4``, ``service_stream``,
``bist_lot``, ``dictionary_prescreen``.  One run

1. imports the program from ``src/`` of this checkout, builds the
   workload's inputs from ``--seed`` three times and runs one untimed
   warm-up pass (together: ``setup_s``);
2. runs passes with tracing off until ``--seconds`` have elapsed;
3. with ``--trace 1``, installs the entry-point wrappers
   (``perfbench/tracing.py``) and runs one more pass under
   :func:`repro.obs.observe`, folding its spans and counters into the
   per-layer metrics;
4. checks the outputs of every pass (``verdict_mismatches``);
5. prints one ``metric <name> = <value> <unit>`` line per metric and,
   as the last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace
   0``, the per-layer metrics with ``--trace 1``).

It exits 1 when an output check fails, 2 when the program source is
missing.  ``--smoke`` runs each workload at reduced size for one pass
(the benchmark's own test, ``perfbench/test_smoke.py``).  Metric
definitions live in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(METRICS["workloads"])
#: input builds timed during set-up (their median enters setup_s).
SETUP_REPEATS = 3
#: ROADMAP item 1's attribution bar.
ATTRIBUTION_BAR = 0.9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced size, one timed pass")
    return ap.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src/`` (never from an
    installed copy) and the benchmark's own modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import tracing
    import workloads
    return workloads, tracing


# ---------------------------------------------------------------------------
# statistics


def tail_latency(samples):
    """(value, label) of the highest percentile <= p90 with at least 10
    samples beyond it.  With fewer than 20 samples not even the median
    has 10 beyond it; the upper quartile is reported instead (the p90
    of a handful of passes would be their maximum)."""
    n = len(samples)
    ordered = sorted(samples)
    if n == 1:
        return ordered[0], "the only sample"
    if n < 20:
        q = statistics.quantiles(ordered, n=4, method="inclusive")[2]
        return q, f"p75 (under-sampled: n={n})"
    pct = min(90, math.floor(100.0 * (1.0 - 10.0 / n)))
    q = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return q, f"p{pct}"


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# the traced pass


def traced_pass(workload, workloads, tracing):
    """One pass under an observation scope with the entry points
    wrapped; returns (pass result, fold, counters, ambient tracer)."""
    from repro import obs

    entry_points = tracing.EntryPoints()
    entry_points.install()
    with obs.observe() as scope:
        result = workload.run_pass()
    tracers = [scope.tracer, *entry_points.side_tracers.values()]
    folded = tracing.fold(tracers, root_name=workloads.ROOT_SPAN)
    return result, folded, scope.metrics.counter_values(), scope.tracer


def _ratio(num, den):
    return num / den if den else 0.0


def service_span_metrics(tracer, wall_s, workers):
    """job_wait_s and pool_busy_frac from the program's own
    ``service.submit``, ``service.job`` and ``service.shard`` spans."""
    submitted = {}
    jobs = []

    def visit(span):
        if span.name == "service.submit" and "job" in span.attrs:
            submitted[span.attrs["job"]] = span.t_start
        for child in span.children:
            visit(child)

    for root in tracer.spans:
        if root.name == "service.job":
            jobs.append(root)
        else:
            visit(root)
    waits = []
    busy = 0.0
    for job in jobs:
        shards = [c for c in job.children if c.name == "service.shard"]
        busy += sum(c.duration_s or 0.0 for c in shards)
        t_submit = submitted.get(job.attrs.get("job"))
        if shards and t_submit is not None:
            waits.append(min(c.t_start for c in shards) - t_submit)
    job_wait = sum(waits) / len(waits) if waits else 0.0
    return job_wait, _ratio(busy, workers * wall_s)


def layer_metrics(workloads, traced, folded, counters, tracer,
                  untraced_wall_s):
    b = folded.bucket
    c = counters.get
    steps = c("transient.steps", 0)
    factorizations = (c("mna.lu_factorizations", 0)
                      + c("mna.sparse_factorizations", 0))
    reuses = c("mna.lu_reuses", 0) + c("mna.sparse_reuses", 0)
    decided = c("surrogate.prescreen.decided", 0)
    escalated = c("surrogate.prescreen.escalated", 0)
    hits, misses = c("cache.hits", 0), c("cache.misses", 0)
    values = {
        "spice.transient.calls": b("spice.transient").calls,
        "spice.transient.self_s": b("spice.transient").self_s,
        "spice.dc.self_s": b("spice.dc").self_s,
        "spice.reference.self_s": folded.reference_s,
        "spice.newton_iterations": c("solver.newton_iterations", 0),
        "spice.newton_iters_per_step": _ratio(
            c("solver.newton_iterations", 0), steps),
        "spice.subdivisions": c("transient.subdivisions", 0),
        "spice.lu_factorizations": factorizations,
        "spice.lu_reuse_ratio": _ratio(reuses, reuses + factorizations),
        "spice.lockstep_steps": c("batched.lockstep_steps", 0),
        "signals.waveform_calls": b("signals.waveform").calls,
        "signals.waveform.self_s": b("signals.waveform").self_s,
        "core.measure.self_s": b("core.measure").self_s,
        "core.detect.calls": b("core.detect").calls,
        "core.detect.self_s": b("core.detect").self_s,
        "core.impulse.self_s": b("core.impulse").self_s,
        "core.bist.self_s": b("core.bist").self_s,
        "adc.peak_test.calls": b("adc.peak_test").calls,
        "adc.peak_test.self_s": b("adc.peak_test").self_s,
        "adc.convert.calls": b("adc.convert").calls,
        "adc.convert.self_s": b("adc.convert").self_s,
        "process.fabricate.self_s": b("process.fabricate").self_s,
        "faults.campaign.self_s": b("faults.campaign").self_s,
        "faults.inject.calls": b("faults.inject").calls,
        "faults.inject.self_s": b("faults.inject").self_s,
        "surrogate.fits": c("surrogate.fits", 0),
        "surrogate.fit.self_s": b("surrogate.fit").self_s,
        "surrogate.classify.self_s": b("surrogate.classify").self_s,
        "surrogate.decided_ratio": _ratio(decided, decided + escalated),
        "service.submit.self_s": b("service.submit").self_s,
        "service.queue.appends": b("service.queue.append").calls,
        "service.queue.append_s": b("service.queue.append").self_s,
        "service.cache.lookups": hits + misses,
        "service.cache.hit_ratio": _ratio(hits, hits + misses),
        "service.cache.get_s": b("service.cache.get").self_s,
        "service.cache.put_s": b("service.cache.put").self_s,
        "service.dup_sim_ratio": 0.0,
        "service.job_wait_s": 0.0,
        "service.pool_busy_frac": 0.0,
        "service.ipc_task_bytes": 0,
        "service.ipc_result_bytes": 0,
        "obs.trace_overhead_frac": traced.wall_s / untraced_wall_s - 1.0,
        "obs.attributed_frac": folded.attributed_frac,
    }
    extras = traced.extras
    if "ipc_bytes" in extras:
        values["service.dup_sim_ratio"] = _ratio(extras["simulated"],
                                                 extras["distinct_faults"])
        job_wait, busy = service_span_metrics(tracer, traced.wall_s,
                                              workloads.SERVICE_WORKERS)
        values["service.job_wait_s"] = job_wait
        values["service.pool_busy_frac"] = busy
        values["service.ipc_task_bytes"] = sum(t for t, _ in
                                               extras["ipc_bytes"])
        values["service.ipc_result_bytes"] = sum(r for _, r in
                                                 extras["ipc_bytes"])
    return values


# ---------------------------------------------------------------------------
# one workload


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _metric_line(name, value, unit, note=""):
    line = f"metric {name} = {_fmt(value)} {unit}"
    return f"{line}  ({note})" if note else line


def run_one(args) -> int:
    workloads, tracing = _import_program()
    import_s = time.perf_counter() - _T0
    workload = workloads.get(args.workload, args.seed, args.smoke)
    try:
        return _run(workload, workloads, tracing, args, import_s)
    finally:
        workload.close()


def _run(workload, workloads, tracing, args, import_s) -> int:
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = workload.run_pass()
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(builds) + warm_s

    passes = []
    t_end = time.perf_counter() + args.seconds
    while True:
        passes.append(workload.run_pass())
        if args.smoke or time.perf_counter() >= t_end:
            break
    rss = peak_rss_mb(with_children=args.workload == "service_stream")

    traced = None
    if args.trace:
        traced, folded, counters, tracer = traced_pass(workload,
                                                       workloads, tracing)

    checked = [warm, *passes] + ([traced] if traced is not None else [])
    mismatches = workload.check(checked)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    throughput = statistics.median(p.units / p.wall_s for p in passes)
    p90, p90_label = tail_latency(latencies)
    untraced_wall = statistics.median(p.wall_s for p in passes)

    print(f"workload {workload.name}: {workload.describe_seed()}; "
          f"{len(passes)} timed passes in {sum(p.wall_s for p in passes):.2f}"
          f" s, median pass {untraced_wall:.4f} s")
    e2e = {
        "verdicts_per_s": throughput,
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_p90_s": p90,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    units = {m["name"]: m["unit"] for m in METRICS["end_to_end"]}
    notes = {
        "verdicts_per_s": f"median of {len(passes)} passes, "
                          f"{passes[0].units} {workload.unit} verdicts "
                          f"per pass",
        "job_latency_p50_s": f"n={len(latencies)} jobs "
                             f"({METRICS['workloads'][workload.name]['job']})",
        "job_latency_p90_s": f"{p90_label}, n={len(latencies)}",
        "setup_s": f"imports {import_s:.3f} s + median build "
                   f"{statistics.median(builds):.4f} s + warm-up pass "
                   f"{warm_s:.3f} s",
        "peak_rss_mb": "benchmark process"
                       + (" + largest reaped pool worker"
                          if args.workload == "service_stream" else ""),
    }
    print(_metric_line(workload.throughput_name, throughput, "1/s",
                       "= verdicts_per_s"))
    for name, value in e2e.items():
        print(_metric_line(name, value, units[name], notes[name]))
    print(_metric_line("failed_frac", failed / attempted if attempted
                       else 0.0, "ratio",
                       f"{failed} of {attempted} {workload.unit}s"
                       if workload.name != "service_stream"
                       else f"{failed} of {attempted} jobs"))
    print(_metric_line("verdict_mismatches", len(mismatches), "count"))
    for line in mismatches:
        print(f"check failed: {line}")
    if not mismatches:
        print(f"check ok: {len(checked)} passes verified")

    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in e2e.items()}
    if traced is not None:
        layer_units = {m["name"]: m["unit"] for m in METRICS["per_layer"]}
        values = layer_metrics(workloads, traced, folded, counters, tracer,
                               untraced_wall)
        print(f"traced pass {traced.wall_s:.4f} s")
        for name, value in values.items():
            print(_metric_line(name, value, layer_units[name]))
        path, self_s = folded.largest_unattributed
        print(f"largest unattributed path: {path or '-'} "
              f"({self_s:.4f} s of {folded.wall_s:.4f} s)")
        if folded.attributed_frac < ATTRIBUTION_BAR:
            print(f"attribution below {ATTRIBUTION_BAR:.0%}: wrap the entry "
                  f"point called under {path}")
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in values.items()}

    correct = not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    """Each workload in a fresh process (clean memory and imports)."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode})")
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, doc in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = doc
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
