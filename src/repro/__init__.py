"""repro — reproduction of Cobley, "Approaches to On-chip Testing of
Mixed Signal Macros in ASICs" (ED&TC / DATE 1996).

The blessed entry points are re-exported here; the sub-packages hold the
full API:

* :mod:`repro.session` — :class:`Session`, the unified run API: engine
  configuration + observability in one facade, structured RunResult
  objects out.
* :mod:`repro.obs`      — instrumentation: tracing spans, metrics,
  the ``observe()`` scope.
* :mod:`repro.core`     — the paper's contribution: on-chip BIST macros and
  transient-response testing.
* :mod:`repro.spice`    — MNA transient circuit simulator (HSPICE substitute).
* :mod:`repro.lti`      — state-space / transfer-function toolkit.
* :mod:`repro.signals`  — waveforms, PRBS, correlation.
* :mod:`repro.faults`   — fault models, injection, campaigns.
* :mod:`repro.dft`      — scan, LFSR/MISR, counters, monotonicity FSM.
* :mod:`repro.process`  — process variation, device batches.
* :mod:`repro.circuits` — the paper's example circuits (OP1, SC integrator...).
* :mod:`repro.adc`      — behavioural dual-slope ADC macro and metrics.
* :mod:`repro.experiments` — one runner per paper table/figure.
* :mod:`repro.verify`   — simulator verification: differential fuzzing
  against analytic oracles, convergence-order checks, golden store
  (``python -m repro.verify``).
* :mod:`repro.errors`   — the shared exception hierarchy (everything
  the package raises derives from :class:`ReproError`).
* :mod:`repro.resilience` — deadlines, checkpoint/resume and
  crash-recovery accounting for long campaigns (the solver's retry
  ladder is fixed, in :mod:`repro.spice.solver`).
* :mod:`repro.service` — campaign-as-a-service: the frozen
  :class:`CampaignSpec` job description, the content-addressed
  :class:`ResultCache` (never simulate the same fault twice) and the
  async :class:`CampaignScheduler` fanning concurrent campaigns over a
  shared worker pool.

Quickstart::

    from repro import Session

    s = Session(workers=4)
    run = s.run_experiment("E7")     # Figure 4 reproduction
    print(run.summary())
    print(s.metrics.counter_values()["solver.newton_iterations"])
"""

__version__ = "1.1.0"

from repro import obs
from repro.dft import LogicBISTEngine
from repro.errors import (
    CampaignError,
    CheckpointError,
    CounterTimeout,
    DeadlineExceeded,
    DeckError,
    NewtonError,
    ReproError,
)
from repro.faults import CampaignResult, FaultCampaign
from repro.resilience import FailureReport
from repro.service import CampaignScheduler, CampaignSpec, ResultCache
from repro.session import RunResult, Session
from repro.signals import Waveform
from repro.spice import (
    Circuit,
    TransientResult,
    dc_operating_point,
    transient,
)

__all__ = [
    "__version__",
    # facade + instrumentation
    "Session",
    "RunResult",
    "obs",
    # simulator
    "Circuit",
    "transient",
    "TransientResult",
    "dc_operating_point",
    # fault campaigns
    "FaultCampaign",
    "CampaignResult",
    # campaign service
    "CampaignSpec",
    "ResultCache",
    "CampaignScheduler",
    # resilience + errors
    "FailureReport",
    "ReproError",
    "NewtonError",
    "DeckError",
    "CampaignError",
    "CheckpointError",
    "DeadlineExceeded",
    "CounterTimeout",
    # digital BIST
    "LogicBISTEngine",
    # signals
    "Waveform",
]
