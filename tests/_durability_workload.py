"""Importable campaign workload + crash/restart driver for the
durability chaos suite (and the CI acceptance script).

Everything here is module-level so a :class:`CampaignSpec` built from
it pickles into the persistent queue journal and unpickles in a
*different* process — the whole point of queue recovery.  The technique
sleeps a little per evaluation so a SIGKILL reliably lands mid-campaign
instead of racing a sub-millisecond run.

Run as a script (``python -m tests._durability_workload``) it becomes
the chaos driver: build a durable :class:`~repro.session.Session` over
a queue/cache/checkpoint directory, ``recover()`` whatever a previous
process left, optionally submit the standard jobs, gather, and write
every result's ``to_dict()`` keyed by campaign name.  The chaos tests
start it, SIGKILL it mid-drain, start it again without ``--submit`` and
pin the recovered payload against an uninterrupted golden.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Tuple

from repro.faults import StuckAtFault
from repro.spice import Circuit, dc_operating_point

#: per-evaluation sleep: long enough that a kill lands mid-campaign,
#: short enough that the chaos suite stays fast.
SLEEP_S = float(os.environ.get("REPRO_DURABILITY_SLEEP_S", "0.03"))


def divider() -> Circuit:
    ckt = Circuit("div")
    ckt.vsource("VIN", "in", "0", 4.0)
    ckt.resistor("R1", "in", "mid", 1e3)
    ckt.resistor("R2", "mid", "0", 1e3)
    return ckt


def slow_measure_mid(ckt: Circuit) -> float:
    """DC solve of the divider midpoint, slowed to give SIGKILL a
    window.  The sleep changes wall clock only — never the verdict."""
    time.sleep(SLEEP_S)
    v, _ = dc_operating_point(ckt, validate=False)
    return v["mid"]


def delta_detector(ref: float, meas: float) -> float:
    return 1.0 if abs(ref - meas) > 0.1 else 0.0


def mid_faults(n: int = 6, offset: int = 0) -> List[StuckAtFault]:
    """Detectable midpoint faults; ``offset`` derives disjoint
    universes for multi-job campaigns."""
    return [StuckAtFault(name=f"f{offset + i}", node="mid",
                         level=float((offset + i) % 2) * 5.0,
                         resistance=10.0 + offset + i)
            for i in range(n)]


def standard_specs(workdir: str, n_faults: int = 6,
                   workers: int = 1) -> List[Any]:
    """The fixed two-job workload every driver run (and the golden)
    uses: different priorities, disjoint fault universes, per-job
    checkpoints under ``workdir``."""
    from repro.service.spec import CampaignSpec
    specs = []
    for i, (offset, priority) in enumerate(((0, 0), (100, 1))):
        specs.append(CampaignSpec(
            technique=slow_measure_mid, detector=delta_detector,
            target=divider(), faults=tuple(mid_faults(n_faults, offset)),
            name=f"durable-{i}", priority=priority, workers=workers,
            checkpoint=os.path.join(workdir, f"job{i}.ckpt")))
    return specs


def golden_results(workdir: str, n_faults: int = 6,
                   workers: int = 1) -> Dict[str, Dict[str, Any]]:
    """Uninterrupted reference payloads, computed in-process with no
    queue and no cache (fresh checkpoint dir so nothing is shared)."""
    from repro.service.scheduler import CampaignScheduler
    golden_dir = os.path.join(workdir, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    with CampaignScheduler(workers=workers, name="golden") as sched:
        jobs = [sched.submit(spec.replace(
                    checkpoint=os.path.join(golden_dir,
                                            f"job{i}.ckpt")))
                for i, spec in enumerate(standard_specs(
                    golden_dir, n_faults, workers))]
        return {job.spec.name: job.result().to_dict() for job in jobs}


# ---------------------------------------------------------------------------
# the crash/restart driver


def driver_argv(workdir: str, *, submit: bool, n_faults: int = 6,
                workers: int = 1) -> List[str]:
    argv = [workdir, "--n-faults", str(n_faults),
            "--workers", str(workers)]
    if submit:
        argv.append("--submit")
    return argv


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description="durability chaos driver: recover, maybe submit, "
                    "gather, write results")
    parser.add_argument("workdir",
                        help="directory holding queue.jsonl, cache/, "
                             "checkpoints and results.json")
    parser.add_argument("--submit", action="store_true",
                        help="submit the standard jobs (first run); "
                             "omit on restart to only recover")
    parser.add_argument("--n-faults", type=int, default=6)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.service.cache import ResultCache
    from repro.session import Session

    os.makedirs(args.workdir, exist_ok=True)
    session = Session(workers=args.workers, obs=False, name="durable",
                      cache=ResultCache(
                          path=os.path.join(args.workdir, "cache")),
                      queue_path=os.path.join(args.workdir,
                                              "queue.jsonl"))
    jobs = list(session.recover())
    if args.submit:
        jobs.extend(session.submit(spec) for spec in standard_specs(
            args.workdir, args.n_faults, args.workers))
    results = {job.spec.name: job.result().to_dict() for job in jobs}
    session.shutdown()

    out = os.path.join(args.workdir, "results.json")
    tmp = out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(results, fh, default=str)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
