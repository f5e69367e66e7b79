"""``python -m repro.obs`` — the observability command line.

Subcommands
-----------
``bench``
    Run a benchmark suite (default ``batched``; ``recovery`` times the
    durable service's restart path) with every call inside an enabled
    observation scope, and write ``BENCH_<suite>.json`` — raw times,
    median/IQR wall-clock plus key solver counters per workload.
``compare``
    Compare a parent's ``BENCH_*.json`` files with a change's (each
    side one file or a quoted glob, times pooled per workload); exits
    non-zero when any common workload's pooled median slowed beyond
    ``--threshold`` (a ratio); a workload whose baseline IQR is wider
    than that bound is reported unresolved and does not fail.
``suites``
    List the available suites and their workloads.
``ledger``
    Query the persistent run ledger (``list`` one line per run,
    ``show`` one full row as JSON, ``trend`` per-campaign wall-clock
    trajectory with a ``REGRESSED`` flag).  The ledger path comes from
    ``--path`` or ``REPRO_OBS_LEDGER``.
``top``
    Live htop-style dashboard over a running campaign service: tails
    the status file the scheduler publishes (``--status`` or
    ``REPRO_OBS_STATUS``).
"""

import argparse
import json
import os
import sys

from repro.obs import bench as _bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Benchmark-telemetry pipeline (see repro.obs.bench).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser(
        "bench", help="run a suite and write BENCH_<suite>.json")
    p_bench.add_argument("--suite", default="batched",
                         choices=sorted(_bench.SUITES),
                         help="workload suite (default: batched)")
    p_bench.add_argument("--ids", nargs="*", metavar="ID", default=None,
                         help="subset of workloads to run (default: all)")
    p_bench.add_argument("--rounds", type=int, default=3,
                         help="timing rounds per workload (default: 3)")
    p_bench.add_argument("--out", default=".", metavar="DIR",
                         help="output directory (default: .)")
    p_bench.add_argument("--quiet", action="store_true",
                         help="suppress per-workload progress lines")

    p_cmp = sub.add_parser(
        "compare", help="gate candidate BENCH files against a baseline")
    p_cmp.add_argument("baseline",
                       help="baseline BENCH_*.json, or a quoted glob")
    p_cmp.add_argument("candidate",
                       help="candidate BENCH_*.json, or a quoted glob")
    p_cmp.add_argument("--threshold", type=float, default=1.15,
                       help="allowed median slowdown ratio (default: 1.15)")

    sub.add_parser("suites", help="list suites and workloads")

    p_led = sub.add_parser(
        "ledger", help="query the persistent run ledger")
    p_led.add_argument("action", choices=("list", "show", "trend"),
                       help="list rows / show one row / per-key trend")
    p_led.add_argument("--path", default=None, metavar="FILE",
                       help="ledger JSONL (default: $REPRO_OBS_LEDGER)")
    p_led.add_argument("--key", default=None, metavar="KEY",
                       help="restrict to one campaign content key")
    p_led.add_argument("--index", type=int, default=None, metavar="N",
                       help="row number for `show` (default: newest)")
    p_led.add_argument("--threshold", type=float, default=1.15,
                       help="`trend` regression ratio (default: 1.15)")

    p_top = sub.add_parser(
        "top", help="live dashboard over a running campaign service")
    p_top.add_argument("--status", default=None, metavar="FILE",
                       help="status file (default: $REPRO_OBS_STATUS)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between frames (default: 1.0)")
    p_top.add_argument("--frames", type=int, default=None, metavar="N",
                       help="stop after N frames (default: until Ctrl-C)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit")

    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    if args.command == "bench":
        _bench.run_suite(suite=args.suite, ids=args.ids,
                         rounds=args.rounds, out_dir=args.out,
                         echo=not args.quiet)
        return 0
    if args.command == "compare":
        return _bench.compare_benches(args.baseline, args.candidate,
                                      threshold=args.threshold)
    if args.command == "suites":
        for suite in sorted(_bench.SUITES):
            print(f"{suite}: {' '.join(sorted(_bench.SUITES[suite]))}")
        return 0
    if args.command == "ledger":
        from repro.obs import ledger as _ledger
        path = args.path or os.environ.get("REPRO_OBS_LEDGER", "").strip()
        if not path:
            print("ledger: no path (use --path or REPRO_OBS_LEDGER)",
                  file=sys.stderr)
            return 2
        led = _ledger.RunLedger(path)
        if args.action == "list":
            print(_ledger.render_list(led.rows(key=args.key)))
        elif args.action == "show":
            rows = led.rows(key=args.key)
            if not rows:
                print("ledger is empty")
                return 1
            index = args.index if args.index is not None else len(rows) - 1
            try:
                row = rows[index]
            except IndexError:
                print(f"ledger: no row {index} ({len(rows)} rows)",
                      file=sys.stderr)
                return 2
            print(json.dumps(row, indent=2, sort_keys=True, default=str))
        else:  # trend
            print(_ledger.render_trend(led.trend(key=args.key),
                                       threshold=args.threshold))
        if led.corrupt:
            print(f"({led.corrupt} corrupt line(s) skipped)",
                  file=sys.stderr)
        return 0
    if args.command == "top":
        from repro.obs import dashboard as _dashboard
        status = args.status or os.environ.get("REPRO_OBS_STATUS",
                                               "").strip()
        if not status:
            print("top: no status file (use --status or REPRO_OBS_STATUS)",
                  file=sys.stderr)
            return 2
        _dashboard.top(status, interval=args.interval,
                       max_frames=args.frames, once=args.once)
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    raise SystemExit(main())
