"""Resilience layer: deadlines, checkpoints, crash recovery.

The paper's detection figures come from sweeping large fault universes
through transient simulation; at production scale those campaigns must
survive hangs, solver non-convergence and worker crashes without losing
completed work.  This package supplies the building blocks and the
campaign/solver layers wire them through:

* :mod:`repro.resilience.deadline` — cooperative wall-clock deadlines
  (ambient, tightest-wins, checked inside the Newton/transient loops);
* :mod:`repro.resilience.checkpoint` — atomic, content-keyed
  checkpoint/resume for fault campaigns;
* :mod:`repro.resilience.durable` — the atomic-write, fsync'd-append,
  tolerant-read and quarantine operations every persisted service file
  (checkpoint, cache entry, job journal, run ledger, status file) uses;
* :mod:`repro.resilience.failure` — structured degradation accounting
  (:class:`FailureReport`) for partial runs;
* :mod:`repro.resilience.chaos` — deterministic fault injection at the
  service boundaries (scheduled ``os.replace``/``fsync`` failures,
  torn file tails, SIGKILL-on-cue subprocesses) for the chaos suite.
"""

from repro.errors import (
    CampaignError,
    CheckpointError,
    DeadlineExceeded,
    ReproError,
)
from repro.resilience.chaos import (
    ChaosError,
    ChaosProcess,
    chaos_os,
    corrupt_tail,
    tear_tail,
    wait_for,
)
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    campaign_key,
    fault_context_key,
)
from repro.resilience.deadline import (
    DEADLINE,
    Deadline,
    active_deadline,
    check_deadline,
    deadline_scope,
    installed,
)
from repro.resilience.failure import FailureReport

__all__ = [
    # deadlines
    "Deadline",
    "DEADLINE",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
    "installed",
    "DeadlineExceeded",
    # checkpoint/resume
    "CampaignCheckpoint",
    "campaign_key",
    "fault_context_key",
    "CheckpointError",
    # degradation accounting
    "FailureReport",
    "CampaignError",
    "ReproError",
    # chaos harness
    "ChaosError",
    "ChaosProcess",
    "chaos_os",
    "corrupt_tail",
    "tear_tail",
    "wait_for",
]
