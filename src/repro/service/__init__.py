"""Campaign-as-a-service: job scheduling + content-addressed caching.

The service layer turns one-shot :class:`~repro.faults.campaign.
FaultCampaign` runs into submitted **jobs**:

* :class:`~repro.service.spec.CampaignSpec` — one frozen description
  of a campaign (workload + every execution/resilience option), shared
  by ``FaultCampaign.run(spec=...)`` and the scheduler, and hashed into
  the campaign content key;
* :class:`~repro.service.cache.ResultCache` — a two-tier (LRU memory +
  atomic-write disk) content-addressed store of per-fault outcomes, so
  no fault is ever simulated twice — across campaigns, runs and
  processes;
* :class:`~repro.service.scheduler.CampaignScheduler` — a background
  dispatcher sharding submitted fault universes across a shared worker
  pool with priority and fair share, composing with deadlines,
  checkpointing, poison-pill quarantine and the cache;
* :class:`~repro.service.queue.PersistentJobQueue` — a write-ahead
  JSONL journal of accepted jobs and their state transitions, so a
  SIGKILLed scheduler recovers every undone job on restart
  (``CampaignScheduler(queue=...)`` / ``Session(queue_path=...)``).
"""

from repro.service.cache import CACHE_SCHEMA, CacheStats, ResultCache, \
    fault_key
from repro.service.queue import JobRecord, PersistentJobQueue, QueueError, \
    QUEUE_SCHEMA
from repro.service.spec import DEFAULTS, SPEC_SCHEMA, CampaignSpec

#: scheduler classes resolve lazily (PEP 562): the scheduler module
#: imports the campaign layer, which itself imports
#: :mod:`repro.service.spec` — loading it here eagerly would close an
#: import cycle through this package's __init__.
_LAZY = ("CampaignScheduler", "CampaignJob", "JobState")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.service import scheduler
        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "CampaignSpec",
    "DEFAULTS",
    "SPEC_SCHEMA",
    "ResultCache",
    "CacheStats",
    "fault_key",
    "CACHE_SCHEMA",
    "PersistentJobQueue",
    "JobRecord",
    "QueueError",
    "QUEUE_SCHEMA",
    "CampaignScheduler",
    "CampaignJob",
    "JobState",
]
