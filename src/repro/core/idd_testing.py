"""Dynamic supply-current (Idd) testing.

The paper's related work (Binns & Taylor [10], Arguelles et al. [11])
"adopted the use of dynamic current testing to detect faults in embedded
analogue macros and mixed signal devices."  This module implements that
complementary technique on the same MNA substrate: the supply current is
a branch unknown the simulator already solves for, so the tester records
``I(VDD)`` during the PRBS transient and scores faults by the deviation
of the dynamic current signature.

Dynamic Idd is strongest exactly where output-voltage observation is
weakest — faults (like a grounded bias node) that the feedback loop
hides from the output still change the quiescent and switching currents
dramatically.  The ``bench_a6_idd_vs_voltage`` ablation quantifies that
complementarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.transient_test import TransientRecipe, TransientTestConfig
from repro.signals.waveform import Waveform
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientResult


@dataclass
class IddMeasurement:
    """Supply-current observation from one transient run."""

    current: Waveform            # I(VDD) over the test sequence
    mean_a: float                # quiescent component
    peak_a: float                # worst-case instantaneous draw
    rms_dynamic_a: float         # RMS of the switching component

    @staticmethod
    def from_waveform(current: Waveform) -> "IddMeasurement":
        mean = current.mean()
        dynamic = current.values - mean
        return IddMeasurement(
            current=current,
            mean_a=mean,
            peak_a=float(np.max(np.abs(current.values))),
            rms_dynamic_a=float(np.sqrt(np.mean(dynamic ** 2))),
        )


class IddTester(TransientRecipe):
    """Dynamic-Idd test: PRBS stimulus, supply current observed.

    The transient recipe with the supply's branch current as the
    observation.  The surrogate prescreen models node voltages only, so
    this technique has no surrogate route (a prescreen escalates every
    fault).

    Parameters
    ----------
    config:
        The stimulus configuration (shared with the voltage-domain
        :class:`~repro.core.transient_test.TransientResponseTester`, so
        both techniques see the same excitation).
    supply_name:
        The voltage source whose branch current is the Idd observation
        (``"VDD"`` in all this repository's netlists).
    source_name:
        The stimulus entry point.
    """

    surrogate_workload = None

    def __init__(self, config: Optional[TransientTestConfig] = None,
                 supply_name: str = "VDD",
                 source_name: str = "VIN") -> None:
        self.config = config or TransientTestConfig()
        self.supply_name = supply_name
        self.source_name = source_name

    @property
    def dt(self) -> float:
        return self.config.sim_dt_s

    def stimulus(self) -> Waveform:
        return self.config.stimulus()

    def recorded(self) -> Dict[str, List[str]]:
        return {"record": [], "record_branches": [self.supply_name]}

    def observe(self, result: TransientResult) -> Waveform:
        return result.branch_current(self.supply_name)

    def postprocess(self, y: Waveform, stimulus: Waveform) -> IddMeasurement:
        """The MNA branch current of a source is the current flowing
        into its + terminal; for a supply pushing current *out* of VDD
        that value is negative, so the sign is flipped to report
        conventional draw."""
        return IddMeasurement.from_waveform(-1.0 * y)

    def measure(self, circuit: Circuit) -> IddMeasurement:
        """Run the transient and record the supply current."""
        return self(circuit)


def idd_detection(reference: IddMeasurement, faulty: IddMeasurement,
                  rel_threshold: float = 0.2) -> float:
    """Fraction of time instances where the faulty supply current leaves
    the reference band (relative to the reference's peak draw)."""
    if rel_threshold <= 0:
        raise ValueError("rel_threshold must be positive")
    ref = reference.current
    fau = faulty.current
    n = min(len(ref), len(fau))
    band = rel_threshold * max(abs(reference.peak_a), 1e-12)
    deviation = np.abs(fau.values[:n] - ref.values[:n])
    return float(np.mean(deviation > band))


def quiescent_ratio(reference: IddMeasurement,
                    faulty: IddMeasurement) -> float:
    """Faulty/reference quiescent current — the classic static-Iddq
    screen (a grossly elevated ratio flags a defect immediately)."""
    if abs(reference.mean_a) < 1e-15:
        return float("inf")
    return faulty.mean_a / reference.mean_a
