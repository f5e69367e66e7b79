"""Persistent run ledger: the one append-only JSONL run record.

Two writers append rows of one schema (``repro.run-ledger/1``): every
campaign that completes appends a row keyed by its spec's
``content_key()`` with wall clock, verdict histogram, escalation rate,
cache statistics and the key counters of what it measured, and
``python -m repro.obs bench`` appends one row per timed round keyed
``<suite>/<workload>``.  Every row carries ``elapsed_s``, ``counters``
and the ``meta`` provenance block, so benchmarks and real runs trend on
the same axes: ``python -m repro.obs ledger trend`` answers "is this
exact campaign getting slower?" and ``compare`` gates bench files, both
through :meth:`RunLedger.rows`.

A row is one ``json.dumps`` line, appended under a process-local lock
with :func:`repro.resilience.durable.append_line`; readers skip (and
count) any torn, undecodable, corrupt or foreign line rather than
failing, so a crashed writer can never poison the history.  The ledger
is installed either explicitly (``Session(ledger=...)``,
``observe(ledger=...)``) or ambiently via ``REPRO_OBS_LEDGER=/path`` —
and it deliberately works with span/metric recording *off*, because one
row per campaign costs nothing and history matters most for routine runs.
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
from typing import Any, Dict, List, Optional

from repro.resilience.durable import append_line, read_lines

#: prefixes of the counters a row keeps (the telemetry half of the
#: record, for campaign and bench rows alike).
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


def key_counters(values: Dict[str, int]) -> Dict[str, int]:
    """The :data:`KEY_COUNTER_PREFIXES` entries of a ``name -> count``
    map, sorted by name."""
    return {name: int(value) for name, value in sorted(values.items())
            if name.startswith(KEY_COUNTER_PREFIXES)}


class RunLedger:
    """Append-only JSONL store of run rows (campaign runs, bench rounds).

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
        """Stamp (schema, wall clock, :func:`runtime_meta`) and append
        one row; returns the row as written."""
        row = dict(row)
        row.setdefault("schema", LEDGER_SCHEMA)
        row.setdefault("wall", time.time())
        row.setdefault("meta", runtime_meta())
        line = json.dumps(row, sort_keys=True, default=str)
        with self._lock:
            append_line(self.path, line)
        return row

    # -- reading -------------------------------------------------------
    def rows(self, key: Optional[str] = None) -> List[Dict[str, Any]]:
        """All rows in append order (filtered by key if given); torn,
        corrupt and non-ledger lines (an old bench document, a queue
        journal) are skipped and counted in ``self.corrupt``."""
        out: List[Dict[str, Any]] = []
        corrupt = 0
        for line in read_lines(self.path):
            try:
                row = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if not isinstance(row, dict) or row.get("schema") != LEDGER_SCHEMA:
                corrupt += 1
                continue
            if key is None or row.get("key") == key:
                out.append(row)
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
        key = str(row.get("key") or "?")[:12]
        elapsed = row.get("elapsed_s")
        elapsed_txt = f"{elapsed:.3f}s" if isinstance(elapsed, (int, float)) \
            else "?"
        # bench rows carry no verdicts
        verdicts = row.get("verdicts")
        detected = (f"{verdicts.get('detected', '?')}/"
                    f"{row.get('n_faults', '?')} detected  "
                    if verdicts is not None else "")
        lines.append(
            f"[{i}] {_fmt_wall(row.get('wall'))}  {key}  "
            f"{row.get('name') or '-'}  {detected}{elapsed_txt}")
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
