"""Surrogate-vs-reference differential testing.

The surrogate prescreen is only trustworthy if a prescreened campaign
and a full-transient campaign **never disagree on a verdict**: every
fault the surrogate decided (outside its margin band) must carry the
same ``detected`` flag the MNA transient would have produced, and every
escalated fault must produce a byte-identical outcome to the
unprescreened run.  This module pins that invariant two ways:

* :func:`run_surrogate_differential` — seeded random RC/RLC circuits
  (the :mod:`repro.verify.generate` families re-driven with a PRBS),
  each run through an unprescreened and a ``prescreen="surrogate"``
  campaign over a bridging-fault universe;
* :func:`run_e7_surrogate` — the paper's E7/Figure-4 circuit-1 fault
  universe (OP1 with the 16 catastrophic faults), same comparison.

A disagreement anywhere is a harness failure (non-zero exit through
``python -m repro.verify --mode surrogate``), the same contract as the
route-vs-oracle differential harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import NewtonError
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.dictionary import SignatureDetector, TransientSignatureTechnique
from repro.faults.model import BridgingFault
from repro.service.spec import CampaignSpec
from repro.signals.prbs import prbs_waveform
from repro.surrogate.prescreen import PrescreenConfig
from repro.verify.generate import GeneratedCircuit, generate_circuit

#: circuit families the surrogate differential runs over (linear only:
#: the random mosfet family's large-signal behaviour is out of scope
#: for a small-signal surrogate — E7's OP1 covers the nonlinear case).
SURROGATE_KINDS = ("rc", "rlc")


@dataclass
class SurrogateMismatch:
    """One fault where the prescreened campaign diverged from the
    reference campaign."""

    label: str                  # campaign label (kind+seed, or "e7")
    fault: str
    decided_by: str
    reason: str                 # verdict_flip | outcome_drift | band_verdict
    detection_reference: float
    detection_prescreened: float

    def summary(self) -> str:
        return (f"{self.label} {self.fault}: {self.reason} "
                f"(decided_by={self.decided_by}, "
                f"ref={self.detection_reference:.4f}, "
                f"pre={self.detection_prescreened:.4f})")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "fault": self.fault,
            "decided_by": self.decided_by,
            "reason": self.reason,
            "detection_reference": self.detection_reference,
            "detection_prescreened": self.detection_prescreened,
        }


@dataclass
class SurrogateDiffReport:
    """Aggregate result of a surrogate differential campaign."""

    kinds: List[str]
    threshold: float
    margin: float
    n_campaigns: int = 0
    n_faults: int = 0
    n_prescreened: int = 0
    n_escalated: int = 0
    #: generated circuits whose fault-free reference cannot be
    #: simulated at all (operating point fails for both the transient
    #: and the surrogate alike) — neither campaign can run, so nothing
    #: is compared; kept visible rather than silently dropped.
    n_unsimulatable: int = 0
    mismatches: List[SurrogateMismatch] = field(default_factory=list)
    seeds: List[int] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def prescreen_rate(self) -> float:
        return self.n_prescreened / self.n_faults if self.n_faults else 0.0

    def summary(self) -> str:
        lines = [
            f"surrogate differential: {self.n_campaigns} campaigns "
            f"({', '.join(self.kinds)}), {self.n_faults} faults, "
            f"{self.n_prescreened} surrogate-decided "
            f"({100 * self.prescreen_rate:.1f}%), "
            f"{self.n_escalated} escalated, "
            f"{len(self.mismatches)} disagreements "
            f"[margin={self.margin:g}, {self.elapsed_s:.2f} s]",
        ]
        if self.n_unsimulatable:
            lines.append(f"  ({self.n_unsimulatable} circuits "
                         f"unsimulatable — skipped by both routes)")
        for mismatch in self.mismatches[:20]:
            lines.append("  DISAGREEMENT " + mismatch.summary())
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "surrogate_diff_report",
            "ok": self.ok,
            "kinds": list(self.kinds),
            "threshold": self.threshold,
            "margin": self.margin,
            "n_campaigns": self.n_campaigns,
            "n_faults": self.n_faults,
            "n_prescreened": self.n_prescreened,
            "n_escalated": self.n_escalated,
            "n_unsimulatable": self.n_unsimulatable,
            "seeds": [int(s) for s in self.seeds],
            "elapsed_s": self.elapsed_s,
            "mismatches": [m.to_dict() for m in self.mismatches],
        }


def _normalized_outcome(outcome_dict: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(outcome_dict)
    out["elapsed_s"] = 0.0
    out.pop("decided_by", None)
    return out


def compare_campaigns(label: str, reference: CampaignResult,
                      prescreened: CampaignResult, threshold: float,
                      margin: float) -> List[SurrogateMismatch]:
    """The pinned invariant, fault by fault.

    Surrogate-decided outcomes must agree on the ``detected`` verdict
    (and must genuinely sit outside the margin band); escalated
    outcomes went through the very same transient path, so their
    ``to_dict()`` must match the unprescreened run's byte for byte
    (modulo wall-clock).
    """
    mismatches: List[SurrogateMismatch] = []
    if len(reference.outcomes) != len(prescreened.outcomes):
        mismatches.append(SurrogateMismatch(
            label=label, fault="<campaign>", decided_by="-",
            reason=(f"outcome count {len(prescreened.outcomes)} != "
                    f"{len(reference.outcomes)}"),
            detection_reference=0.0, detection_prescreened=0.0))
        return mismatches
    for ref, pre in zip(reference.outcomes, prescreened.outcomes):
        if pre.decided_by == "surrogate":
            if abs(pre.detection - threshold) <= margin:
                mismatches.append(SurrogateMismatch(
                    label=label, fault=pre.fault.describe(),
                    decided_by=pre.decided_by, reason="band_verdict",
                    detection_reference=ref.detection,
                    detection_prescreened=pre.detection))
            if pre.detected != ref.detected:
                mismatches.append(SurrogateMismatch(
                    label=label, fault=pre.fault.describe(),
                    decided_by=pre.decided_by, reason="verdict_flip",
                    detection_reference=ref.detection,
                    detection_prescreened=pre.detection))
        elif _normalized_outcome(pre.to_dict()) != \
                _normalized_outcome(ref.to_dict()):
            mismatches.append(SurrogateMismatch(
                label=label, fault=pre.fault.describe(),
                decided_by=pre.decided_by, reason="outcome_drift",
                detection_reference=ref.detection,
                detection_prescreened=pre.detection))
    return mismatches


# ----------------------------------------------------------------------
# Random-circuit campaigns
# ----------------------------------------------------------------------

def surrogate_campaign_workload(gen: GeneratedCircuit, seed: int,
                                max_faults: int = 6):
    """(target, technique, detector, faults) for one generated circuit:
    the DC-driven netlist re-driven with a PRBS and a bridging-fault
    universe over its internal node pairs."""
    v_in = float(gen.meta.get("v_in", "1.0"))
    # chip time snapped to the dt grid so the 15-chip PRBS duration is
    # an exact multiple of dt (no grid-mismatch truncation anywhere)
    chip = gen.dt * max(4, int(round(gen.t_stop / 15.0 / gen.dt)))
    stimulus = prbs_waveform(order=4, chip_time=chip, low=0.5 * v_in,
                             high=1.5 * v_in, dt=gen.dt,
                             seed=1 + seed % 15)
    target = gen.circuit.copy()
    target.element("VIN").value = stimulus
    technique = TransientSignatureTechnique(t_stop=stimulus.duration,
                                            dt=gen.dt,
                                            node=gen.node_names[-1])
    detector = SignatureDetector(abs_v=0.02 * v_in)
    faults = []
    names = gen.node_names
    for r in (150.0, 1500.0):
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                faults.append(BridgingFault(
                    f"{names[i]}-{names[j]}-{r:g}", names[i], names[j],
                    resistance=r))
    return target, technique, detector, tuple(faults[:max_faults])


def run_surrogate_differential(
        seeds: Iterable[int],
        kinds: Sequence[str] = SURROGATE_KINDS,
        threshold: float = 0.05,
        config: Optional[PrescreenConfig] = None,
        max_faults: int = 6,
        max_steps: int = 256) -> SurrogateDiffReport:
    """Unprescreened vs prescreened campaigns over seeded circuits."""
    for kind in kinds:
        if kind not in SURROGATE_KINDS:
            raise ValueError(f"unsupported kind {kind!r}; "
                             f"known: {SURROGATE_KINDS}")
    config = config or PrescreenConfig()
    t0 = time.perf_counter()
    seeds = [int(s) for s in seeds]
    report = SurrogateDiffReport(kinds=list(kinds), threshold=threshold,
                                 margin=config.margin, seeds=seeds)
    for kind in kinds:
        for seed in seeds:
            gen = generate_circuit(seed, kind=kind, max_steps=max_steps)
            target, technique, detector, faults = \
                surrogate_campaign_workload(gen, seed,
                                            max_faults=max_faults)
            campaign = FaultCampaign(technique, detector,
                                     threshold=threshold)
            try:
                reference = campaign.run(spec=CampaignSpec(
                    target=target, faults=faults))
            except NewtonError:
                # the fault-free circuit itself will not bias — neither
                # the transient nor the surrogate route can measure it
                report.n_unsimulatable += 1
                continue
            prescreened = campaign.run(spec=CampaignSpec(
                target=target, faults=faults, prescreen="surrogate",
                prescreen_config=config))
            report.n_campaigns += 1
            report.n_faults += prescreened.n_faults
            report.n_prescreened += prescreened.n_prescreened
            report.n_escalated += (prescreened.n_faults
                                   - prescreened.n_prescreened)
            report.mismatches.extend(compare_campaigns(
                f"{kind}:{seed}", reference, prescreened, threshold,
                config.margin))
    report.elapsed_s = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------------
# The E7 fault universe
# ----------------------------------------------------------------------

def e7_workload():
    """(target, technique, detector, faults, threshold) of the paper's
    circuit-1 campaign (E7/Figure 4)."""
    from repro.circuits.op1 import op1_follower
    from repro.experiments.e7_fig4_detection import circuit1_campaign
    from repro.faults.universe import paper_circuit1_faults

    campaign = circuit1_campaign()
    return (op1_follower(input_value=2.5), campaign.technique,
            campaign.detector, tuple(paper_circuit1_faults()),
            campaign.threshold)


def run_e7_surrogate(config: Optional[PrescreenConfig] = None,
                     workers: int = 1,
                     batch_size: int = 1) -> SurrogateDiffReport:
    """Unprescreened vs prescreened campaigns over the E7 universe."""
    config = config or PrescreenConfig()
    t0 = time.perf_counter()
    target, technique, detector, faults, threshold = e7_workload()
    campaign = FaultCampaign(technique, detector, threshold=threshold)
    reference = campaign.run(spec=CampaignSpec(
        target=target, faults=faults, workers=workers,
        batch_size=batch_size))
    prescreened = campaign.run(spec=CampaignSpec(
        target=target, faults=faults, workers=workers,
        batch_size=batch_size, prescreen="surrogate",
        prescreen_config=config))
    report = SurrogateDiffReport(kinds=["e7"], threshold=threshold,
                                 margin=config.margin)
    report.n_campaigns = 1
    report.n_faults = prescreened.n_faults
    report.n_prescreened = prescreened.n_prescreened
    report.n_escalated = (prescreened.n_faults
                          - prescreened.n_prescreened)
    report.mismatches = compare_campaigns("e7", reference, prescreened,
                                          threshold, config.margin)
    report.elapsed_s = time.perf_counter() - t0
    return report


__all__ = [
    "SURROGATE_KINDS",
    "SurrogateMismatch",
    "SurrogateDiffReport",
    "compare_campaigns",
    "surrogate_campaign_workload",
    "run_surrogate_differential",
    "e7_workload",
    "run_e7_surrogate",
]
