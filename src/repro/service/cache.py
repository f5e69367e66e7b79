"""Content-addressed fault-outcome cache: never simulate twice.

Every :class:`~repro.faults.campaign.FaultOutcome` is addressed by a
SHA-256 over (technique, detector, target, error policy, per-fault
budget, fault) — the checkpoint layer's content-key machinery
(:func:`repro.resilience.checkpoint.fault_context_key`) applied at
per-fault granularity.  The detection *threshold* is deliberately not
part of the key: a cached entry stores the raw detection score and the
``detected`` verdict is re-derived against the requesting campaign's
threshold on every hit, so campaigns that differ only in threshold
share one set of simulations.

Two tiers:

* an in-memory LRU (``max_memory_entries``, default 4096) for the hot
  path — repeated experiment/bench runs inside one process;
* an optional disk tier (``path=``): one JSON document per entry,
  sharded into 256 prefix directories and written with
  :func:`repro.resilience.durable.atomic_write`, so a kill mid-write
  can never tear an entry.

A disk entry that fails to parse, carries an unknown schema or does not
match its own key is *quarantined* — renamed to ``<entry>.corrupt`` —
counted in :attr:`CacheStats.corrupt` and treated as a miss, so cache
corruption degrades to recomputation, never to a crash or a wrong
result.

Infrastructure verdicts are never cached: a timeout says something
about the machine that ran the fault and a quarantined poison pill says
something about a worker process, so both always re-evaluate.
Deterministic verdicts — detections, misses and simulation errors under
a fixed error policy — are cached, including the outcome's recorded
wall time, which is what makes a warm re-run's ``to_dict()`` payload
identical to the cold run that populated it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.core import OBS
from repro.resilience.durable import atomic_write, quarantine

#: on-disk entry schema tag; bump on incompatible layout changes.
CACHE_SCHEMA = "repro.result-cache/1"


def fault_key(context_key: str, fault: Any) -> str:
    """Address of one fault's outcome under an evaluation context."""
    h = hashlib.sha256()
    for part in (CACHE_SCHEMA, context_key, fault.describe()):
        h.update(part.encode("utf-8", "replace"))
        h.update(b"\x00")
    return h.hexdigest()


def _read_entry(path: str, key: str) -> Optional[Dict[str, Any]]:
    """The entry stored at ``path`` under ``key``, or ``None`` when it
    does not parse, carries an unknown schema, names another key or
    lacks float detection and wall-time fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except Exception:  # noqa: BLE001 - any damage reads as invalid
        return None
    if (isinstance(entry, dict) and entry.get("schema") == CACHE_SCHEMA
            and entry.get("key") == key
            and isinstance(entry.get("detection"), float)
            and isinstance(entry.get("elapsed_s"), float)):
        return entry
    return None


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    disk_hits: int = 0
    #: bytes reclaimed from the disk tier by LRU eviction/scrub.
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions,
                "corrupt": self.corrupt, "disk_hits": self.disk_hits,
                "evicted_bytes": self.evicted_bytes,
                "hit_rate": self.hit_rate}

    def snapshot(self) -> "CacheStats":
        """Immutable copy, for before/after accounting."""
        return CacheStats(self.hits, self.misses, self.stores,
                          self.evictions, self.corrupt, self.disk_hits,
                          self.evicted_bytes)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """What this run contributed: current minus a prior snapshot.

        A shared cache serves many runs; ``CampaignResult.cache_stats``
        must describe *this* run's hits, not the cache's lifetime."""
        return CacheStats(self.hits - since.hits,
                          self.misses - since.misses,
                          self.stores - since.stores,
                          self.evictions - since.evictions,
                          self.corrupt - since.corrupt,
                          self.disk_hits - since.disk_hits,
                          self.evicted_bytes - since.evicted_bytes)

    def describe(self) -> str:
        reclaimed = (f", {self.evicted_bytes} B reclaimed"
                     if self.evicted_bytes else "")
        return (f"cache: {self.hits}/{self.lookups} hits "
                f"({100.0 * self.hit_rate:.0f}%, {self.disk_hits} disk), "
                f"{self.stores} stores, "
                f"{self.corrupt} corrupt, {self.evictions} evicted"
                f"{reclaimed}")


class ResultCache:
    """Two-tier content-addressed store of fault outcomes.

    Parameters
    ----------
    path:
        Directory for the disk tier (created on first store).  ``None``
        keeps the cache purely in memory.
    max_memory_entries:
        LRU capacity of the memory tier.
    max_bytes:
        Byte budget for the disk tier (``None`` = unbounded, the
        historical behaviour).  Enforced *synchronously*: every store
        that pushes the tier over budget immediately evicts
        least-recently-used entries (by mtime — disk hits ``utime`` the
        entry, so recency survives process restarts) until the tier is
        back under, so the on-disk footprint never exceeds the budget
        between two calls.  Reclaimed bytes are counted in
        :attr:`CacheStats.evicted_bytes` and the ``cache.evicted_bytes``
        observability counter.

    The cache is safe to share between a session's foreground runs and
    a :class:`~repro.service.scheduler.CampaignScheduler`'s dispatcher
    thread — all tier state is guarded by one lock.  Only the campaign
    *parent* process touches the cache (lookups happen before dispatch,
    stores when outcomes are recorded), so worker processes never need
    a handle.
    """

    def __init__(self, path: Optional[str] = None,
                 max_memory_entries: int = 4096,
                 max_bytes: Optional[int] = None) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if max_bytes is not None and path is None:
            raise ValueError("max_bytes requires a disk tier (path=)")
        self.path = None if path is None else os.fspath(path)
        self.max_memory_entries = max_memory_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        #: tracked on-disk footprint; measured once here, then
        #: maintained incrementally by store/evict (scrub re-measures).
        self._disk_bytes = self._measure_disk() if max_bytes else 0

    # ------------------------------------------------------------------
    def key(self, context_key: str, fault: Any) -> str:
        return fault_key(context_key, fault)

    def get(self, context_key: str, fault: Any, threshold: float,
            count_miss: bool = True) -> Optional[Any]:
        """The cached :class:`FaultOutcome` for ``fault`` under
        ``context_key``, re-thresholded, or ``None`` on a miss.

        ``count_miss=False`` makes a miss free in the accounting — used
        by the scheduler's dispatch-time recheck, which probes faults
        already counted as misses at admission in case a concurrent job
        computed them meanwhile."""
        key = fault_key(context_key, fault)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
            else:
                entry = self._load_disk(key)
                if entry is not None:
                    self.stats.disk_hits += 1
                    self._remember(key, entry)
            if entry is None:
                if count_miss:
                    self.stats.misses += 1
                    if OBS.enabled:
                        OBS.metrics.counter("cache.misses").inc()
                return None
            self.stats.hits += 1
        if OBS.enabled:
            OBS.metrics.counter("cache.hits").inc()
        return self._rebuild(entry, fault, threshold)

    def put(self, context_key: str, outcome: Any) -> bool:
        """Store a freshly computed outcome; returns False for
        infrastructure verdicts (timeouts, quarantines), which are
        never cached."""
        if outcome.timed_out or outcome.quarantined:
            return False
        key = fault_key(context_key, outcome.fault)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "fault": outcome.fault.describe(),
            "detection": float(outcome.detection),
            "detected": bool(outcome.detected),
            "error": outcome.error,
            "elapsed_s": float(outcome.elapsed_s),
        }
        # conditional so historical entries (and their hashes) keep
        # their shape; absent means "transient"
        if outcome.decided_by != "transient":
            entry["decided_by"] = outcome.decided_by
        with self._lock:
            self._remember(key, entry)
            if self.path is not None:
                # the disk tier is an optimisation: a full disk or a
                # failed rename degrades to memory-only, never fails
                # the campaign that computed the outcome
                try:
                    self._store_disk(key, entry)
                    if self.max_bytes is not None:
                        self._evict_disk(keep=key)
                except OSError:
                    if OBS.enabled:
                        OBS.metrics.counter("cache.store_errors").inc()
            self.stats.stores += 1
        if OBS.enabled:
            OBS.metrics.counter("cache.stores").inc()
        return True

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tier = self.path if self.path is not None else "memory-only"
        return (f"ResultCache({tier!r}, {len(self._memory)} in memory, "
                f"{self.stats.describe()})")

    # -- memory tier ---------------------------------------------------
    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            if OBS.enabled:
                OBS.metrics.counter("cache.evictions").inc()

    # -- disk tier -----------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".json")

    def _store_disk(self, key: str, entry: Dict[str, Any]) -> None:
        target = self._entry_path(key)
        old = 0
        if self.max_bytes is not None:
            try:
                old = os.path.getsize(target)
            except OSError:
                old = 0
        data = json.dumps(entry).encode("utf-8")
        atomic_write(target, data)
        if self.max_bytes is not None:
            self._disk_bytes += len(data) - old

    def _load_disk(self, key: str) -> Optional[Dict[str, Any]]:
        if self.path is None:
            return None
        target = self._entry_path(key)
        if not os.path.exists(target):
            return None
        entry = _read_entry(target, key)
        if entry is None:
            self._quarantine(target)
            return None
        try:
            # refresh mtime so LRU recency survives process restarts
            os.utime(target)
        except OSError:  # pragma: no cover - racing eviction is fine
            pass
        return entry

    def _quarantine(self, target: str) -> None:
        """Move a corrupt entry aside so it is inspectable but never
        consulted again; recomputation repopulates the slot."""
        self.stats.corrupt += 1
        if OBS.enabled:
            OBS.metrics.counter("cache.corrupt").inc()
        quarantine(target)

    # -- disk budget ---------------------------------------------------
    def _entries_on_disk(self):
        """(mtime, size, path, key) for every entry file, oldest first.
        Quarantine leftovers (``.corrupt``) and torn temp files are not
        entries and don't count against the budget."""
        found = []
        if self.path is None or not os.path.isdir(self.path):
            return found
        for shard in os.scandir(self.path):
            if not shard.is_dir():
                continue
            try:
                files = list(os.scandir(shard.path))
            except OSError:  # pragma: no cover - racing removal
                continue
            for item in files:
                if not item.name.endswith(".json"):
                    continue
                try:
                    stat = item.stat()
                except OSError:  # pragma: no cover - racing removal
                    continue
                found.append((stat.st_mtime, stat.st_size, item.path,
                              item.name[:-len(".json")]))
        found.sort()
        return found

    def _measure_disk(self) -> int:
        return sum(size for _, size, _, _ in self._entries_on_disk())

    def _evict_disk(self, keep: Optional[str] = None) -> int:
        """Delete least-recently-used entries until the tier fits
        ``max_bytes`` (callers hold the lock).  ``keep`` shields the
        entry just written — the newest data must never be the victim
        of its own store.  Returns bytes reclaimed."""
        if self.max_bytes is None or self._disk_bytes <= self.max_bytes:
            return 0
        reclaimed = 0
        for _, size, entry_path, key in self._entries_on_disk():
            if self._disk_bytes <= self.max_bytes:
                break
            if key == keep:
                continue
            try:
                os.unlink(entry_path)
            except OSError:  # pragma: no cover - racing removal
                continue
            self._disk_bytes -= size
            reclaimed += size
            self.stats.evictions += 1
            self.stats.evicted_bytes += size
            if OBS.enabled:
                OBS.metrics.counter("cache.evictions").inc()
                OBS.metrics.counter("cache.evicted_bytes").inc(size)
        return reclaimed

    def disk_bytes(self) -> int:
        """Current measured on-disk footprint of the entry files."""
        with self._lock:
            return self._measure_disk()

    def scrub(self) -> Dict[str, int]:
        """One atomic maintenance pass over the disk tier.

        Validates every entry the way a lookup would — parseable JSON,
        known schema, *key matches the filename*, float detection and
        wall-time fields — quarantining mismatches to ``.corrupt``;
        then re-measures the tier and evicts down to ``max_bytes`` if a
        budget is set.  Each individual action is an atomic rename or
        unlink, so a crash mid-scrub leaves every entry either intact
        or cleanly quarantined, never torn.
        """
        quarantined = 0
        with self._lock:
            for _, _, entry_path, key in self._entries_on_disk():
                if _read_entry(entry_path, key) is None:
                    self._quarantine(entry_path)
                    quarantined += 1
            self._disk_bytes = self._measure_disk()
            evicted_bytes = self._evict_disk()
            report = {
                "entries": len(self._entries_on_disk()),
                "bytes": self._disk_bytes,
                "quarantined": quarantined,
                "evicted_bytes": evicted_bytes,
            }
        if OBS.enabled:
            OBS.events.emit("cache.scrub", **report)
        return report

    # -- outcome reconstruction ----------------------------------------
    @staticmethod
    def _rebuild(entry: Dict[str, Any], fault: Any, threshold: float) -> Any:
        from repro.faults.campaign import FaultOutcome
        detection = float(entry["detection"])
        error = entry.get("error")
        # non-error verdicts re-threshold against the requesting
        # campaign; errored outcomes keep the verdict their (key-bound)
        # error policy assigned
        detected = (bool(entry["detected"]) if error is not None
                    else detection >= threshold)
        return FaultOutcome(fault=fault, detection=detection,
                            detected=detected, error=error,
                            elapsed_s=float(entry["elapsed_s"]),
                            from_cache=True,
                            decided_by=entry.get("decided_by",
                                                 "transient"))


__all__ = ["ResultCache", "CacheStats", "fault_key", "CACHE_SCHEMA"]
