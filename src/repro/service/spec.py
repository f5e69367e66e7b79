"""The campaign job model: one frozen spec instead of kwarg sprawl.

:class:`CampaignSpec` is the single description of a fault campaign —
workload (technique, detector, target, faults, optional precomputed
reference) plus every execution, resilience and service option that
used to travel as loose keyword arguments on
:meth:`~repro.faults.campaign.FaultCampaign.run`.  The same object is
accepted by ``FaultCampaign.run(spec=...)`` and by
:meth:`~repro.service.scheduler.CampaignScheduler.submit`, and it
serialises into the campaign content hash (:meth:`content_key`), so a
spec *is* the campaign's identity for checkpointing and result caching.

Option fields default to ``None`` meaning "inherit": a spec carrying
only ``workers=4`` composes with a campaign constructed with its own
threshold, and :meth:`resolved` fills the remaining holes from explicit
fallbacks and then :data:`DEFAULTS`.  The dataclass is frozen so a spec
can be hashed into content keys, shared between concurrent scheduler
jobs and shipped to worker processes without defensive copying.

A run checkpoints and heartbeats after every completed fault, and a
pooled shard is killed :data:`~repro.faults.campaign.TIMEOUT_GRACE_S`
past its fault budgets: these are fixed, not spec options.  Journal
lines written while they were still spec fields carry their three keys;
:meth:`CampaignSpec.from_dict` reads only :attr:`_SCALAR_FIELDS` and so
ignores them.
"""

from __future__ import annotations

import base64
import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.resilience.checkpoint import campaign_key, fault_context_key

#: serialised-spec schema tag; bump on incompatible layout changes.
SPEC_SCHEMA = "repro.campaign-spec/1"

#: concrete values a :meth:`CampaignSpec.resolved` spec falls back to
#: when neither the spec nor the caller supplies one.
DEFAULTS: Dict[str, Any] = {
    "threshold": 0.05,
    "errors_as_detected": True,
    "workers": 1,
    "batch_size": 1,
}

#: option fields subject to None-means-inherit resolution.
_OPTION_FIELDS = tuple(DEFAULTS)


@dataclass(frozen=True)
class CampaignSpec:
    """One frozen description of a fault campaign and how to run it.

    Workload fields (``technique``, ``detector``, ``target``,
    ``faults``) may stay ``None`` when the spec only carries options for
    ``FaultCampaign.run(spec=...)``; :meth:`CampaignScheduler.submit`
    requires all four.  ``progress`` and ``cache`` are live objects
    (callback, :class:`~repro.service.cache.ResultCache`) and are
    excluded from equality — they configure *how* a run reports and
    memoises, never *what* it computes.
    """

    # -- workload ------------------------------------------------------
    technique: Optional[Callable[[Any], Any]] = None
    detector: Optional[Callable[[Any, Any], float]] = None
    target: Any = None
    faults: Optional[Tuple[Any, ...]] = None
    reference: Any = None
    name: Optional[str] = None

    # -- detection + execution options (None = inherit) ----------------
    threshold: Optional[float] = None
    errors_as_detected: Optional[bool] = None
    workers: Optional[int] = None
    batch_size: Optional[int] = None
    #: ``"surrogate"`` classifies clear detections/misses through the
    #: vector-fitted prescreen (:mod:`repro.surrogate`) and only runs
    #: the full MNA transient for faults inside the margin band;
    #: ``None`` (the default, not an inherit hole) disables it.
    prescreen: Optional[str] = None
    prescreen_config: Optional[Any] = None

    # -- resilience options --------------------------------------------
    fault_timeout_s: Optional[float] = None
    campaign_deadline_s: Optional[float] = None
    checkpoint: Optional[str] = None
    resume: bool = False

    # -- progress + service options ------------------------------------
    progress: Optional[Callable[[Any], None]] = field(default=None,
                                                      compare=False)
    priority: int = 0
    cache: Optional[Any] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.faults is not None and not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        for name in ("workers", "batch_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("fault_timeout_s", "campaign_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True requires checkpoint=<path>")
        if self.prescreen not in (None, "surrogate"):
            raise ValueError(
                f"unknown prescreen {self.prescreen!r} "
                f"(supported: 'surrogate')")
        if self.prescreen_config is not None and self.prescreen is None:
            raise ValueError("prescreen_config requires prescreen=")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "CampaignSpec":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def resolved(self, **fallbacks: Any) -> "CampaignSpec":
        """A spec with every ``None`` option field made concrete.

        ``fallbacks`` (e.g. a campaign's constructor configuration)
        win over :data:`DEFAULTS`; values already set on the spec win
        over both.
        """
        changes: Dict[str, Any] = {}
        for name in _OPTION_FIELDS:
            if getattr(self, name) is None:
                fallback = fallbacks.get(name)
                changes[name] = (DEFAULTS[name] if fallback is None
                                 else fallback)
        return self.replace(**changes) if changes else self

    # ------------------------------------------------------------------
    @property
    def on_error(self) -> str:
        """The campaign-internal error-policy string."""
        detected = self.errors_as_detected
        if detected is None:
            detected = DEFAULTS["errors_as_detected"]
        return "detected" if detected else "undetected"

    def has_workload(self) -> bool:
        return (self.technique is not None and self.detector is not None
                and self.target is not None and self.faults is not None)

    def require_workload(self) -> None:
        if not self.has_workload():
            missing = [f for f in ("technique", "detector", "target",
                                   "faults") if getattr(self, f) is None]
            raise ValueError(
                f"CampaignSpec is missing workload fields: "
                f"{', '.join(missing)}")

    # ------------------------------------------------------------------
    def context_key(self) -> str:
        """The per-fault evaluation context hash (see
        :func:`repro.resilience.checkpoint.fault_context_key`) — the
        result cache's addressing prefix."""
        self.require_workload()
        return fault_context_key(self.technique, self.detector, self.target,
                                 self.on_error, self.fault_timeout_s)

    def surrogate_context_key(self) -> str:
        """The cache context for surrogate-decided outcomes.

        Derived from :meth:`context_key` plus the threshold and the
        full prescreen configuration: a surrogate verdict is only
        replayable by a campaign running the *same* prescreen against
        the *same* threshold, and it must never collide with the
        transient context that unprescreened runs share.
        """
        from repro.resilience.checkpoint import _hash_parts
        return _hash_parts((self.context_key(),
                            *self._prescreen_parts(resolved=True)
                            )).hexdigest()

    def _prescreen_parts(self, resolved: bool = False) -> Tuple[str, ...]:
        """Identity strings of the prescreen configuration (empty when
        no prescreen is set, so existing keys stay bit-identical)."""
        if self.prescreen is None:
            return ()
        from repro.surrogate.prescreen import PrescreenConfig
        config = self.prescreen_config or PrescreenConfig()
        parts = [f"prescreen={self.prescreen}", config.describe()]
        if resolved:
            threshold = self.threshold
            if threshold is None:
                threshold = DEFAULTS["threshold"]
            parts.insert(0, repr(float(threshold)))
        return tuple(parts)

    def content_key(self) -> str:
        """The full campaign content hash — identical to the key the
        checkpoint layer derives, so a spec round-trips through
        checkpoint/resume and the scheduler without re-deriving keys."""
        self.require_workload()
        spec = self.resolved()
        return campaign_key(spec.technique, spec.detector, spec.target,
                            spec.faults, spec.threshold, spec.on_error,
                            spec.fault_timeout_s,
                            extra=spec._prescreen_parts())

    # ------------------------------------------------------------------
    #: scalar fields serialised as plain JSON in :meth:`to_dict` —
    #: everything human-readable about a journaled job.
    _SCALAR_FIELDS = ("name", "threshold", "errors_as_detected", "workers",
                      "batch_size", "prescreen", "fault_timeout_s",
                      "campaign_deadline_s", "checkpoint", "resume",
                      "priority")

    #: object fields carried through the pickle blob (callables,
    #: circuits, fault objects — not JSON-representable).
    _WORKLOAD_FIELDS = ("technique", "detector", "target", "faults",
                        "reference", "prescreen_config")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot of the spec — what the
        persistent job queue journals.

        Scalar options are stored as plain JSON (so a journal is
        greppable); the workload objects (technique, detector, target,
        faults, reference, prescreen config) are pickled into one
        base64 ``workload`` blob, exactly the way checkpoints persist
        outcomes.  Live objects (``progress``, ``cache``) are dropped —
        they configure a run, never what it computes.  An unpicklable
        workload yields ``workload=None``: the record still journals
        state transitions but cannot be replayed after a restart.
        """
        doc: Dict[str, Any] = {"schema": SPEC_SCHEMA}
        for name in self._SCALAR_FIELDS:
            doc[name] = getattr(self, name)
        if self.faults is not None:
            doc["n_faults"] = len(self.faults)
        workload = {f: getattr(self, f) for f in self._WORKLOAD_FIELDS}
        try:
            blob = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
            doc["workload"] = base64.b64encode(blob).decode("ascii")
        except Exception:  # noqa: BLE001 - closures/lambdas cannot journal
            doc["workload"] = None
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec journaled by :meth:`to_dict` (validation
        re-runs).  Raises ``ValueError`` for unknown schemas and specs
        journaled without a recoverable workload."""
        if not isinstance(doc, dict) or doc.get("schema") != SPEC_SCHEMA:
            raise ValueError(
                f"not a serialised CampaignSpec: "
                f"{doc.get('schema') if isinstance(doc, dict) else doc!r}")
        if not doc.get("workload"):
            raise ValueError(
                "spec was journaled without a recoverable workload "
                "(technique/detector/target/faults did not pickle)")
        workload = pickle.loads(base64.b64decode(doc["workload"]))
        fields = {name: doc.get(name) for name in cls._SCALAR_FIELDS}
        fields["resume"] = bool(fields.get("resume"))
        fields["priority"] = int(fields.get("priority") or 0)
        return cls(**fields, **workload)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        n = "?" if self.faults is None else len(self.faults)
        label = self.name or getattr(self.target, "name", None) \
            or (type(self.target).__name__ if self.target is not None
                else "unbound")
        return f"CampaignSpec({label}, {n} faults, priority={self.priority})"


__all__ = ["CampaignSpec", "DEFAULTS", "SPEC_SCHEMA"]
