"""Fault-dictionary campaign scenario: raw transient signatures.

The paper's dictionary methodology stores, for every fault in the
universe, the sampled output response to the BIST stimulus — the fault
*signature* — and detects by comparing a measured response against the
fault-free signature sample by sample.  This module provides the
lightweight technique/detector pair for that formulation plus builders
for a parameterised RC-ladder dictionary target, used by the batched
campaign tests and the ``batched`` bench suite of :mod:`repro.obs.bench`
(the 64-fault dictionary speedup benchmark).

Everything here is picklable (classes, not closures) so dictionary
campaigns compose with ``workers=N``.  The technique is a configuration
of :class:`~repro.core.transient_test.TransientRecipe`, so it speaks the
campaign batch protocol (``evaluate_batch``) and composes with
``batch_size=K`` — the configuration the batched engine was built for:
K nearly identical linear variants marched in lockstep.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from repro.core.transient_test import TransientRecipe
from repro.faults.model import BridgingFault, Fault
from repro.signals.prbs import prbs_waveform
from repro.signals.waveform import Waveform
from repro.spice.netlist import Circuit
from repro.spice.elements import Capacitor, Resistor, VoltageSource

__all__ = ["TransientSignatureTechnique", "SignatureDetector",
           "dictionary_ladder", "dictionary_faults"]


class TransientSignatureTechnique(TransientRecipe):
    """Measurement = the raw sampled transient response at one node.

    The classic dictionary signature: no correlation, no windowing —
    the sampled waveform itself.  The stimulus is whatever time-varying
    source the netlist carries; every route (serial call, lockstep
    ``evaluate_batch``, surrogate workload) is the transient recipe's.
    """

    def __init__(self, t_stop: float, dt: float, node: str,
                 method: str = "be") -> None:
        self.t_stop = t_stop
        self.dt = dt
        self.output_node = node
        self.method = method

    def postprocess(self, y: Waveform,
                    stimulus: Optional[Waveform]) -> np.ndarray:
        return y.values


class SignatureDetector:
    """Fraction of samples where the measured signature deviates from
    the fault-free one by more than ``abs_v`` volts (the detection-
    instances metric on raw samples)."""

    def __init__(self, abs_v: float = 0.05) -> None:
        if abs_v < 0.0:
            raise ValueError("abs_v must be non-negative")
        self.abs_v = abs_v

    def __call__(self, reference: np.ndarray,
                 measurement: np.ndarray) -> float:
        return float(np.mean(np.abs(measurement - reference) > self.abs_v))


def dictionary_ladder(n_sections: int = 10,
                      stimulus: Optional[Waveform] = None,
                      r_ohm: float = 1e3, c_f: float = 1e-9) -> Circuit:
    """An ``n_sections``-section RC ladder driven by a PRBS — the
    dictionary benchmark's target.  The stimulus Waveform is baked into
    the netlist, so every injected faulty copy shares the same object
    and the batched march can group all variants into one lockstep
    tensor."""
    if stimulus is None:
        stimulus = prbs_waveform(order=5, chip_time=100e-6, low=0.0,
                                 high=5.0, dt=1e-6, seed=3)
    c = Circuit(f"dict_ladder{n_sections}")
    c.add(VoltageSource("VIN", "in", "0", value=stimulus))
    prev = "in"
    for i in range(n_sections):
        node = f"n{i}"
        c.add(Resistor(f"R{i}", prev, node, r_ohm))
        c.add(Capacitor(f"C{i}", node, "0", c_f))
        prev = node
    return c


def dictionary_faults(n_sections: int = 10,
                      n_faults: int = 64) -> List[Fault]:
    """A bridging-fault universe over the ladder's internal nodes:
    every node pair, at a hard (150 Ω) and a resistive (1.5 kΩ) bridge,
    truncated to ``n_faults``.  Bridges add no MNA unknowns, so the
    whole universe lands in a single lockstep group."""
    nodes = [f"n{i}" for i in range(n_sections)]
    faults: List[Fault] = []
    for r in (150.0, 1500.0):
        for a, b in itertools.combinations(nodes, 2):
            faults.append(BridgingFault(f"{a}-{b}-{r:g}", a, b,
                                        resistance=r))
    if len(faults) < n_faults:
        raise ValueError(
            f"ladder with {n_sections} sections yields only "
            f"{len(faults)} bridging faults (< {n_faults})")
    return faults[:n_faults]
