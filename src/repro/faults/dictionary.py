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
campaigns compose with ``workers=N``, and the technique implements the
campaign batch protocol (``evaluate_batch``) so they compose with
``batch_size=K`` — the configuration the batched engine was built for:
K nearly identical linear variants marched in lockstep.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.faults.model import BridgingFault, Fault
from repro.signals.prbs import prbs_waveform
from repro.signals.waveform import Waveform
from repro.spice.netlist import Circuit
from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.transient import transient

__all__ = ["TransientSignatureTechnique", "SignatureDetector",
           "dictionary_ladder", "dictionary_faults"]


class TransientSignatureTechnique:
    """Measurement = the raw sampled transient response at one node.

    The classic dictionary signature: no correlation, no windowing —
    the sampled waveform itself.  Calling the technique simulates one
    circuit; ``evaluate_batch`` marches a whole fault chunk through
    :func:`repro.spice.batched.batched_transient` in lockstep, returning
    bitwise-identical arrays to the per-fault path (the campaign
    re-evaluates any slot the batch cannot serve).
    """

    def __init__(self, t_stop: float, dt: float, node: str,
                 method: str = "be") -> None:
        self.t_stop = t_stop
        self.dt = dt
        self.node = node
        self.method = method

    def __call__(self, circuit: Circuit) -> np.ndarray:
        result = transient(circuit, self.t_stop, self.dt,
                           record=[self.node], method=self.method)
        return result.array(self.node)

    def evaluate_batch(self, target: Circuit,
                       faults: Sequence[Fault]) -> list:
        from repro.faults.campaign import BATCH_FALLBACK
        from repro.faults.injector import inject
        from repro.spice.batched import batched_transient

        out = [BATCH_FALLBACK] * len(faults)
        variants: List[Circuit] = []
        slots: List[int] = []
        for i, fault in enumerate(faults):
            try:
                variants.append(inject(target, fault))
            except Exception:  # noqa: BLE001 - serial re-run owns the error
                continue
            slots.append(i)
        if not variants:
            return out
        results = batched_transient(variants, self.t_stop, self.dt,
                                    record=[self.node], method=self.method)
        for slot, result in zip(slots, results):
            if result is not None:
                out[slot] = result.array(self.node)
        return out

    def surrogate_workload(self, target: Circuit):
        """Surrogate-prescreen protocol: the stimulus is whatever
        time-varying voltage source the netlist carries (the dictionary
        bakes it in), the measurement is the raw sample array."""
        from repro.surrogate.prescreen import SurrogateWorkload, waveform_source

        source_name, stimulus = waveform_source(target, self.dt,
                                                self.t_stop)
        return SurrogateWorkload(source_name=source_name,
                                 output_node=self.node,
                                 dt=self.dt,
                                 t_stop=self.t_stop,
                                 stimulus=stimulus,
                                 postprocess=lambda y: y.values,
                                 method=self.method)


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
