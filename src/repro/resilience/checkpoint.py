"""Campaign checkpoint/resume: atomic, content-keyed partial results.

A long fault campaign must survive being killed — by a deploy, an OOM
kill, a deadline — without losing completed work.  The checkpoint file
holds every finished :class:`~repro.faults.campaign.FaultOutcome` keyed
by its index in the fault universe, under a **content key**: a SHA-256
over the technique, detector, target, fault universe and the campaign
configuration that affects per-fault results.  Resuming against a file
written for a *different* campaign raises
:class:`~repro.errors.CheckpointError` instead of quietly mixing
incompatible outcomes.

The file is a pickle written with
:func:`repro.resilience.durable.atomic_write`, so a kill mid-write
leaves the previous complete checkpoint in place.

Outcome payloads are stored with the ``measurement`` field stripped
(measurements can be entire waveform sets and are not part of the
result's ``to_dict()`` contract); everything that *is* part of the
contract — detection, detected, error, elapsed, timeout/quarantine
flags — round-trips exactly, which is what makes an
interrupted-then-resumed campaign's ``to_dict()`` identical to an
uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from typing import Any, Callable, Dict, Iterable, Optional

from repro.errors import CheckpointError
from repro.resilience.durable import atomic_write, quarantine

#: on-disk schema tag; bump on incompatible layout changes.
SCHEMA = "repro.checkpoint/1"


def _describe_callable(fn: Callable) -> str:
    """A stable textual identity for a technique/detector callable."""
    mod = getattr(fn, "__module__", "") or ""
    qual = getattr(fn, "__qualname__", "") or repr(type(fn).__name__)
    # functools.partial: include the wrapped function and bound args.
    func = getattr(fn, "func", None)
    if func is not None:
        return (f"partial({_describe_callable(func)}, "
                f"args={getattr(fn, 'args', ())!r}, "
                f"kwargs={sorted(getattr(fn, 'keywords', {}).items())!r})")
    return f"{mod}.{qual}"


def _describe_target(target: Any) -> str:
    """A stable textual identity for the campaign target."""
    summary = getattr(target, "summary", None)
    if callable(summary):
        try:
            return str(summary())
        except Exception:  # noqa: BLE001 - identity only, fall through
            pass
    return f"{type(target).__module__}.{type(target).__name__}:" \
           f"{getattr(target, 'name', '')}"


def _hash_parts(parts: Iterable[str]) -> "hashlib._Hash":
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "replace"))
        h.update(b"\x00")
    return h


def fault_context_key(technique: Callable, detector: Callable, target: Any,
                      on_error: str,
                      fault_timeout_s: Optional[float] = None) -> str:
    """Content hash of the *per-fault evaluation context*.

    Everything that can change one fault's outcome participates —
    technique, detector, target identity, the error policy and the
    per-fault budget — while anything that only affects which faults run
    or how they are labelled (the fault universe, the detection
    threshold, campaign deadlines) deliberately does not.  Combining
    this key with a fault's own description addresses a single
    :class:`~repro.faults.campaign.FaultOutcome`, which is what lets the
    :class:`~repro.service.cache.ResultCache` share outcomes across
    campaigns with overlapping universes and differing thresholds.
    """
    return _hash_parts((SCHEMA,
                        _describe_callable(technique),
                        _describe_callable(detector),
                        _describe_target(target),
                        str(on_error),
                        repr(None if fault_timeout_s is None
                             else float(fault_timeout_s)))).hexdigest()


def campaign_key(technique: Callable, detector: Callable, target: Any,
                 faults: Iterable[Any], threshold: float, on_error: str,
                 fault_timeout_s: Optional[float] = None,
                 extra: Iterable[str] = ()) -> str:
    """Content hash of (technique, fault universe, config).

    The per-fault evaluation context (see :func:`fault_context_key`)
    plus the threshold and the full fault universe: everything that can
    change a campaign's recorded results participates; the
    campaign-wide deadline deliberately does not (it changes how *far*
    a run gets, never what an evaluated fault produced).  ``extra``
    appends caller-supplied identity parts (e.g. the surrogate
    prescreen configuration) — the empty default keeps every historical
    key bit-identical.
    """
    context = fault_context_key(technique, detector, target, on_error,
                                fault_timeout_s)
    h = _hash_parts((context, repr(float(threshold)), *extra))
    for fault in faults:
        h.update(fault.describe().encode("utf-8", "replace"))
        h.update(b"\x00")
    return h.hexdigest()


class CampaignCheckpoint:
    """Periodic atomic persistence of a campaign's completed outcomes.

    Parameters
    ----------
    path:
        Checkpoint file location (created on first save).
    key:
        The campaign's content key (see :func:`campaign_key`).
    every:
        Save frequency in completed faults (1 = after every fault).
    """

    def __init__(self, path: str, key: str, every: int = 1) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = os.fspath(path)
        self.key = key
        self.every = every
        self._since_save = 0

    # ------------------------------------------------------------------
    def load(self) -> Dict[int, Any]:
        """Completed outcomes from disk: fault index → outcome.

        Missing file → empty dict (a fresh run).  An unreadable payload
        or unknown schema — a crash tore the file outside the atomic
        write path, or the format moved on — is *quarantined*: renamed
        to ``<path>.corrupt`` with a warning and the run restarts
        fresh, mirroring how :class:`~repro.service.cache.ResultCache`
        degrades corruption to recomputation.  A file written under a
        *different content key* still raises
        :class:`~repro.errors.CheckpointError`: that file is healthy,
        it just belongs to someone else, and silently discarding it
        would destroy another campaign's progress.
        """
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "rb") as fh:
                doc = pickle.load(fh)
            if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
                raise ValueError(
                    f"unknown schema "
                    f"{doc.get('schema') if isinstance(doc, dict) else doc!r}")
        except Exception as exc:  # noqa: BLE001 - any damage -> quarantine
            self._quarantine(exc)
            return {}
        if doc.get("key") != self.key:
            raise CheckpointError(
                f"checkpoint {self.path!r} belongs to a different campaign "
                f"(key {doc.get('key')!r} != {self.key!r}); refusing to "
                f"resume — delete the file or pass resume=False")
        outcomes = doc.get("outcomes", {})
        return {int(i): o for i, o in outcomes.items()}

    def _quarantine(self, exc: Exception) -> None:
        """Move a corrupt checkpoint aside so it stays inspectable but
        never blocks a fresh run."""
        corrupt = quarantine(self.path)
        warnings.warn(
            f"checkpoint {self.path!r} is corrupt ({exc}); quarantined "
            f"to {corrupt!r} and starting fresh",
            RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------------
    def save(self, outcomes: Dict[int, Any], n_faults: int) -> None:
        """Atomically persist the completed-outcome map."""
        doc = {
            "schema": SCHEMA,
            "key": self.key,
            "n_faults": n_faults,
            "outcomes": {int(i): _strip(o) for i, o in outcomes.items()},
        }
        atomic_write(self.path,
                     pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL))
        self._since_save = 0

    def maybe_save(self, outcomes: Dict[int, Any], n_faults: int) -> bool:
        """Save when ``every`` completions have accumulated since the
        last write; returns True when a write happened."""
        self._since_save += 1
        if self._since_save >= self.every:
            self.save(outcomes, n_faults)
            return True
        return False


def _strip(outcome: Any) -> Any:
    """A checkpoint-safe copy of an outcome: the ``measurement`` payload
    (arbitrarily large, not part of ``to_dict()``) and the per-fault
    obs snapshots (already merged into the parent scope by the run that
    produced them) are dropped."""
    import dataclasses
    return dataclasses.replace(outcome, measurement=None, metrics=None,
                               events=None)


__all__ = ["CampaignCheckpoint", "campaign_key", "fault_context_key",
           "SCHEMA"]
