"""Surrogate-prescreen throughput: vector-fitted verdicts vs the march.

The prescreen's economics: a fault campaign's cost is (faults x
transient steps), while the surrogate's cost per fault is one small
operating point, one ``FrequencyPencil`` sweep and a vector fit —
independent of the stimulus length.  On the 64-fault dictionary driven
by a 127-chip PRBS (12.7 ms, 12701 steps) the prescreen classifies ~98 %
of the universe without a single transient and the campaign finishes
an order of magnitude sooner.

This file pins the tentpole's acceptance floor: >=10x campaign
wall-clock with <=5 % of faults escalated to the full transient, and
verdict equality (``detected`` per fault, with byte-identical outcomes
for escalated faults) against the unprescreened run.  The same
64-fault, 127-chip scenario is perfbench's ``dictionary_prescreen``
workload, which times it layer by layer.
"""

import time

import pytest

from repro.faults.campaign import FaultCampaign
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.service.spec import CampaignSpec
from repro.signals.prbs import prbs_waveform

pytestmark = pytest.mark.surrogate

N_SECTIONS = 10
N_FAULTS = 64
DT = 1e-6
OUT_NODE = "n9"
THRESHOLD = 0.05

#: the tentpole's acceptance floor for the prescreened campaign.
TARGET_SPEEDUP = 10.0
#: ... and the ceiling on how much of the universe may escalate.
MAX_ESCALATED_FRACTION = 0.05


def _workload():
    stimulus = prbs_waveform(order=7, chip_time=100e-6, low=0.0,
                             high=5.0, dt=DT, seed=3)
    target = dictionary_ladder(n_sections=N_SECTIONS, stimulus=stimulus)
    faults = dictionary_faults(n_sections=N_SECTIONS, n_faults=N_FAULTS)
    technique = TransientSignatureTechnique(t_stop=stimulus.duration,
                                            dt=DT, node=OUT_NODE)
    return target, technique, tuple(faults)


def _run_campaign(prescreen):
    target, technique, faults = _workload()
    campaign = FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                             threshold=THRESHOLD)
    spec = CampaignSpec(target=target, faults=faults)
    if prescreen:
        spec = spec.replace(prescreen="surrogate")
    return campaign.run(spec=spec)


def test_perf_dictionary_transient(benchmark):
    result = benchmark(_run_campaign, False)
    assert result.n_faults == N_FAULTS


def test_perf_dictionary_prescreened(benchmark):
    result = benchmark(_run_campaign, True)
    assert result.n_faults == N_FAULTS


def test_prescreen_matches_transient_and_hits_target():
    """One unprescreened + one prescreened run under a plain timer:
    verdict equality, the >=10x speedup floor and the <=5 % escalation
    ceiling (measured ~12x with 1/64 escalated on a dev host)."""
    t0 = time.perf_counter()
    reference = _run_campaign(False)
    reference_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    prescreened = _run_campaign(True)
    prescreened_s = time.perf_counter() - t0

    assert prescreened.n_faults == reference.n_faults == N_FAULTS
    for ref, pre in zip(reference.outcomes, prescreened.outcomes):
        assert pre.fault.describe() == ref.fault.describe()
        assert pre.detected == ref.detected, pre.fault.describe()
        if pre.decided_by != "surrogate":
            ref_doc = dict(ref.to_dict(), elapsed_s=0.0)
            pre_doc = dict(pre.to_dict(), elapsed_s=0.0)
            assert pre_doc == ref_doc

    escalated = prescreened.n_faults - prescreened.n_prescreened
    speedup = reference_s / prescreened_s
    print(f"\ndictionary {N_FAULTS}-fault: transient {reference_s:.3f} s, "
          f"prescreened {prescreened_s:.3f} s -> {speedup:.1f}x "
          f"(target >= {TARGET_SPEEDUP:g}x), {escalated} escalated "
          f"(ceiling {MAX_ESCALATED_FRACTION:.0%})")
    assert speedup >= TARGET_SPEEDUP
    assert escalated <= MAX_ESCALATED_FRACTION * N_FAULTS

