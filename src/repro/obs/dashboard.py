"""Live terminal dashboard over the campaign service.

Two consumption paths, one rendering core:

* **In-process** — ``Session.watch()`` polls the scheduler directly
  (:func:`status_snapshot`) and repaints a frame per tick.
* **Cross-process** — a scheduler started with ``status_path=...`` (or
  ``REPRO_OBS_STATUS=/path``) publishes the same snapshot as an
  atomically-replaced JSON file; ``python -m repro.obs top`` tails it
  from any terminal, htop-style, with zero coupling to the running
  process (a torn read is impossible: ``mkstemp`` + ``os.replace``).

Rendering is a pure function of the snapshot dict (:func:`render_frame`)
so tests pin frames without a TTY, timers, or a live scheduler.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Optional

#: status file schema tag.
STATUS_SCHEMA = "repro.service-status/1"

#: a job is flagged with a straggler when the wall clock of its last
#: completed fault exceeds this multiple of its mean per-fault time.
STRAGGLER_FACTOR = 4.0


# ---------------------------------------------------------------------------
# snapshot (producer side)


def status_snapshot(scheduler: Any) -> Dict[str, Any]:
    """One JSON-able view of a scheduler's in-flight state.

    Reads only thread-safe state (list copies, immutable progress
    records), so it may be called from any thread while the dispatcher
    runs.
    """
    active = list(scheduler._active)
    jobs = [jr.last_progress.to_dict() for jr in active]
    cache = scheduler.cache
    return {
        "schema": STATUS_SCHEMA,
        "wall": time.time(),
        "scheduler": scheduler.name,
        "workers": scheduler.workers,
        "jobs_active": len(jobs),
        "shards_queued": sum(len(jr.ready) for jr in active),
        "jobs": jobs,
        "cache": cache.stats.to_dict() if cache is not None else None,
    }


def write_status(snapshot: Dict[str, Any], path: str) -> None:
    """Atomically publish a snapshot (tmp file + ``os.replace``)."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".status-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_status(path: str) -> Optional[Dict[str, Any]]:
    """Load a published snapshot; ``None`` when missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# rendering (pure)


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _job_line(job: Dict[str, Any]) -> str:
    done = job.get("done", 0)
    total = job.get("total", 0) or 0
    fraction = job.get("fraction", 0.0) or 0.0
    rate = job.get("rate_per_s", 0.0) or 0.0
    eta = job.get("eta_s", 0.0) or 0.0
    line = (f"{job.get('job') or 'campaign':<24} {_bar(fraction)} "
            f"{done}/{total} ({100.0 * fraction:3.0f}%) "
            f"eta {eta:6.1f}s  {rate:6.2f} faults/s")
    # straggler flag: the job's last completed fault took much longer
    # than its average completion time
    fault_elapsed = job.get("fault_elapsed_s") or 0.0
    if rate > 0 and fault_elapsed > STRAGGLER_FACTOR / rate:
        pid = job.get("worker_pid")
        where = f" pid {pid}" if pid else ""
        line += (f"  !straggler: {job.get('fault') or '?'} "
                 f"{fault_elapsed:.1f}s{where}")
    return line


def render_frame(snapshot: Dict[str, Any]) -> str:
    """One dashboard frame (plain text, no cursor control)."""
    if not snapshot:
        return "(no status yet)"
    head = (f"{snapshot.get('scheduler', 'service')}: "
            f"{snapshot.get('workers', '?')} workers, "
            f"{snapshot.get('jobs_active', 0)} jobs active, "
            f"{snapshot.get('shards_queued', 0)} shards queued")
    cache = snapshot.get("cache")
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        if lookups:
            head += (f", cache {100.0 * cache.get('hits', 0) / lookups:.0f}%"
                     f" hit ({cache.get('hits', 0)}/{lookups})")
    lines = [head]
    for job in snapshot.get("jobs", ()):
        lines.append(_job_line(job))
    if not snapshot.get("jobs"):
        lines.append("(idle)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# loops (consumer side)


def watch(get_snapshot: Callable[[], Dict[str, Any]],
          out: Any = None,
          interval: float = 0.5,
          max_frames: Optional[int] = None,
          done: Optional[Callable[[], bool]] = None) -> str:
    """Repaint frames from a snapshot source until ``done()`` (or
    forever / ``max_frames``); returns the last frame rendered.

    ``out`` defaults to stdout; tests pass a ``StringIO`` and a frame
    budget.  Ctrl-C exits cleanly.
    """
    stream = sys.stdout if out is None else out
    frame = ""
    frames = 0
    try:
        while True:
            frame = render_frame(get_snapshot() or {})
            print(frame, file=stream, flush=True)
            frames += 1
            if done is not None and done():
                break
            if max_frames is not None and frames >= max_frames:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return frame


def top(path: str,
        out: Any = None,
        interval: float = 1.0,
        max_frames: Optional[int] = None,
        once: bool = False) -> str:
    """Tail a published status file (`python -m repro.obs top`)."""

    def snapshot() -> Dict[str, Any]:
        snap = read_status(path)
        return snap if snap is not None else {}

    return watch(snapshot, out=out, interval=interval,
                 max_frames=1 if once else max_frames)
