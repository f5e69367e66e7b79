"""Persistent run ledger: one append-only JSONL row per campaign run.

Where :mod:`repro.obs.bench` records *benchmark* trajectory, the ledger
records *production* trajectory — every campaign that completes appends
a row keyed by its spec's ``content_key()`` with wall clock, verdict
histogram, escalation rate, cache statistics and the solver counters
the workers reported.  Rows accumulate across processes and sessions,
so ``python -m repro.obs ledger trend`` can answer "is this exact
campaign getting slower?" without any benchmark harness in the loop.

Write discipline: a row is one ``json.dumps`` line appended under a
process-local lock with ``flush`` + ``fsync``.  Single-line appends of
this size are atomic on POSIX for practical purposes; readers skip (and
count) any torn or corrupt line rather than failing, so a crashed
writer can never poison the history.  The ledger is installed either
explicitly (``Session(ledger=...)``, ``observe(ledger=...)``) or
ambiently via ``REPRO_OBS_LEDGER=/path`` — and it deliberately works
with span/metric recording *off*, because one row per campaign costs
nothing and history matters most for routine runs.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

#: counter prefixes summed into each ledger row and persisted into
#: BENCH_*.json (the telemetry half of both records).
KEY_COUNTER_PREFIXES = ("solver.", "transient.", "mna.", "fastpath.",
                        "campaign.", "experiments.", "bist.", "batched.",
                        "surrogate.", "cache.", "service.")

#: row schema tag (bump on incompatible layout changes).
LEDGER_SCHEMA = "repro.run-ledger/1"


def runtime_meta() -> Dict[str, Any]:
    """Who/where/what produced a row (or a bench file): git commit and
    dirty flag of the tree ``repro`` was imported from, hostname,
    python/numpy versions.  Every field degrades to ``None`` rather
    than raising — provenance is best-effort.  Computed once per
    process; each call returns a fresh copy."""
    return dict(_runtime_meta())


@functools.lru_cache(maxsize=1)
def _runtime_meta() -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "hostname": platform.node() or None,
        "python": platform.python_version(),
        "git_commit": None,
        "git_dirty": None,
        "numpy": None,
    }
    try:
        import numpy
        meta["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        pass
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package_dir,
                              capture_output=True, text=True, timeout=5)
        if head.returncode == 0:
            meta["git_commit"] = head.stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=package_dir, capture_output=True,
                                   text=True, timeout=5)
            if dirty.returncode == 0:
                meta["git_dirty"] = bool(dirty.stdout.strip())
    except Exception:
        pass
    return meta


def _solver_counters(outcomes: Iterable[Any]) -> Dict[str, int]:
    """Sum the key solver counters across the per-outcome metric
    snapshots workers shipped back ({} when the run was unobserved)."""
    totals: Dict[str, int] = {}
    for outcome in outcomes:
        snap = getattr(outcome, "metrics", None)
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            if name.startswith(KEY_COUNTER_PREFIXES):
                totals[name] = totals.get(name, 0) + int(value)
    return dict(sorted(totals.items()))


class RunLedger:
    """Append-only JSONL store of campaign-run rows.

    One instance per path; safe to share across threads (the scheduler's
    dispatcher appends concurrently with foreground runs).  Cross-process
    writers interleave safely because each row is a single appended line.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: torn/corrupt lines skipped by the most recent read.
        self.corrupt = 0

    # -- writing -------------------------------------------------------
    def record(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp and append one row; returns the row as written."""
        row = dict(row)
        row.setdefault("schema", LEDGER_SCHEMA)
        row.setdefault("wall", time.time())
        line = json.dumps(row, sort_keys=True, default=str)
        parent = os.path.dirname(self.path)
        with self._lock:
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        return row

    def record_campaign(self, result: Any, key: str,
                        name: Optional[str] = None,
                        prescreen: Optional[str] = None,
                        job: Optional[str] = None) -> Dict[str, Any]:
        """Build and append the row for one finished ``CampaignResult``."""
        outcomes = list(getattr(result, "outcomes", ()))
        n = len(outcomes)
        n_prescreened = sum(1 for o in outcomes
                            if getattr(o, "decided_by", "transient")
                            != "transient")
        verdicts = {
            "detected": sum(1 for o in outcomes if o.detected),
            "missed": sum(1 for o in outcomes
                          if not o.detected and o.error is None),
            "errors": sum(1 for o in outcomes if o.error is not None),
            "timeouts": sum(1 for o in outcomes
                            if getattr(o, "timed_out", False)),
            "quarantined": sum(1 for o in outcomes
                               if getattr(o, "quarantined", False)),
            "prescreened": n_prescreened,
            "cached": sum(1 for o in outcomes
                          if getattr(o, "from_cache", False)),
        }
        cache_stats = getattr(result, "cache_stats", None)
        row: Dict[str, Any] = {
            "key": key,
            "name": name,
            "job": job,
            "n_faults": n,
            "coverage": getattr(result, "coverage", None),
            "elapsed_s": getattr(result, "elapsed_s", None),
            "workers": getattr(result, "workers", None),
            "partial": bool(getattr(result, "partial", False)),
            "verdicts": verdicts,
            # escalation: of the faults the prescreen saw, how many
            # needed the full transient anyway (None when no prescreen)
            "escalation_rate": (1.0 - n_prescreened / n
                                if prescreen and n else None),
            "prescreen": prescreen,
            "cache": cache_stats.to_dict() if cache_stats is not None
                     else None,
            "counters": _solver_counters(outcomes),
            "meta": runtime_meta(),
        }
        return self.record(row)

    # -- reading -------------------------------------------------------
    def rows(self, key: Optional[str] = None) -> List[Dict[str, Any]]:
        """All rows in append order (filtered by content key if given);
        torn/corrupt lines are skipped and counted in ``self.corrupt``."""
        out: List[Dict[str, Any]] = []
        corrupt = 0
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except ValueError:
                        corrupt += 1
                        continue
                    if not isinstance(row, dict):
                        corrupt += 1
                        continue
                    if key is None or row.get("key") == key:
                        out.append(row)
        except OSError:
            pass
        self.corrupt = corrupt
        return out

    def latest(self, key: str) -> Optional[Dict[str, Any]]:
        rows = self.rows(key=key)
        return rows[-1] if rows else None

    def trend(self, key: Optional[str] = None
              ) -> Dict[str, List[Dict[str, Any]]]:
        """Rows grouped by content key, first-seen order preserved."""
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for row in self.rows(key=key):
            grouped.setdefault(str(row.get("key")), []).append(row)
        return grouped


# ---------------------------------------------------------------------------
# terminal rendering (the `python -m repro.obs ledger` views)


def _fmt_wall(wall: Any) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(wall)))
    except (TypeError, ValueError):
        return "?"


def render_list(rows: List[Dict[str, Any]]) -> str:
    """One line per run, newest last."""
    if not rows:
        return "ledger is empty"
    lines = []
    for i, row in enumerate(rows):
        verdicts = row.get("verdicts") or {}
        key = str(row.get("key") or "?")[:12]
        elapsed = row.get("elapsed_s")
        elapsed_txt = f"{elapsed:.3f}s" if isinstance(elapsed, (int, float)) \
            else "?"
        lines.append(
            f"[{i}] {_fmt_wall(row.get('wall'))}  {key}  "
            f"{row.get('name') or '-'}  "
            f"{verdicts.get('detected', '?')}/{row.get('n_faults', '?')} "
            f"detected  {elapsed_txt}")
    return "\n".join(lines)


def render_trend(grouped: Dict[str, List[Dict[str, Any]]],
                 threshold: float = 1.15) -> str:
    """Per-key trend lines: run count, latest vs median wall clock,
    flagged ``REGRESSED`` when latest/median exceeds ``threshold``."""
    if not grouped:
        return "ledger is empty"
    lines = []
    for key, rows in grouped.items():
        times = [r.get("elapsed_s") for r in rows
                 if isinstance(r.get("elapsed_s"), (int, float))]
        name = next((r.get("name") for r in rows if r.get("name")), "-")
        if not times:
            lines.append(f"{key[:12]}  {name}  runs={len(rows)}  (no timing)")
            continue
        latest = times[-1]
        median = statistics.median(times)
        ratio = latest / median if median > 0 else 1.0
        flag = "  REGRESSED" if ratio > threshold and len(times) > 1 else ""
        lines.append(
            f"{key[:12]}  {name}  runs={len(rows)}  "
            f"latest={latest:.3f}s  median={median:.3f}s  "
            f"ratio={ratio:.2f}{flag}")
    return "\n".join(lines)
