"""E8 — the circuit-2 z-domain design check.

Paper: "In the z domain notation, the integrator was designed for a
response: Vout(z)/Vin(z) = H(z) = z⁻¹ / (6.8 [1 − z⁻¹])" with 5 µs
non-overlapping clocks, 2 ms of simulated operation and a 0.64 V
comparator reference.

The experiment verifies the designed response three ways:

1. analytically — the z-domain model's step response climbs 1/6.8 of the
   input per clock cycle and its pole sits at z = 1;
2. behaviourally — the ADC's integrator sub-macro realises the same
   per-cycle gain;
3. at transistor level — the 15-transistor switched-capacitor netlist
   (circuit 3) is simulated in the MNA engine over a run of clock
   cycles and its per-cycle output step is compared to Vin/6.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits.sc_integrator import (
    PAPER_DESIGN,
    SCIntegratorDesign,
    sc_integrator_circuit,
)
from repro.lti.zdomain import sc_integrator_ztf
from repro.signals.sources import two_phase_clocks
from repro.spice.transient import transient


@dataclass
class ZDomainResult:
    designed_gain_per_cycle: float
    analytic_gain_per_cycle: float
    transistor_gain_per_cycle: float
    pole_magnitude: float
    transistor_cycles: int

    @property
    def analytic_matches(self) -> bool:
        return abs(self.analytic_gain_per_cycle
                   - self.designed_gain_per_cycle) < 1e-9

    @property
    def transistor_error_fraction(self) -> float:
        return abs(self.transistor_gain_per_cycle
                   - self.designed_gain_per_cycle) \
            / self.designed_gain_per_cycle

    def rows(self):
        return [
            ("designed 1/6.8", self.designed_gain_per_cycle),
            ("z-domain model", self.analytic_gain_per_cycle),
            ("transistor level", self.transistor_gain_per_cycle),
            ("pole |z|", self.pole_magnitude),
        ]

    def summary(self) -> str:
        return ("E8 z-domain check: designed "
                f"{self.designed_gain_per_cycle:.4f} V/V/cycle, analytic "
                f"{self.analytic_gain_per_cycle:.4f}, transistor "
                f"{self.transistor_gain_per_cycle:.4f} "
                f"({100 * self.transistor_error_fraction:.1f}% error over "
                f"{self.transistor_cycles} cycles), pole at |z| = "
                f"{self.pole_magnitude:.4f}")


def run(design: Optional[SCIntegratorDesign] = None,
        n_cycles: int = 12, sim_dt_s: float = 50e-9) -> ZDomainResult:
    """Verify H(z) analytically and at transistor level.

    ``n_cycles`` transistor-level clock cycles are simulated (each 5 µs);
    the default 12 keeps the MNA run short while giving a clean slope
    estimate.
    """
    design = design or PAPER_DESIGN
    ztf = sc_integrator_ztf(cap_ratio=design.cap_ratio,
                            dt=design.clock_period_s)
    step = ztf.step(8)
    analytic_gain = float(step[4] - step[3])
    pole_mag = float(np.max(np.abs(ztf.poles())))

    # Transistor level: the netlist realises the inverting two-switch
    # integrator (−H(z)), so a DC input 0.5 V *below* analogue ground
    # ramps the output upward at +|v_in|/6.8 per cycle.
    v_in_below = 0.5
    duration = n_cycles * design.clock_period_s
    phi1, phi2 = two_phase_clocks(design.clock_period_s, duration,
                                  dt=sim_dt_s, non_overlap=0.1)
    ckt = sc_integrator_circuit(phi1, phi2, design.v_ref - v_in_below,
                                design=design)
    result = transient(ckt, t_stop=duration, dt=sim_dt_s, record=["out"])
    out = result["out"]
    # Sample the output at the end of each clock period and fit the slope.
    samples = out(np.arange(1, n_cycles + 1) * design.clock_period_s
                  - 2.0 * sim_dt_s)
    # skip the first cycles (start-up) and fit per-cycle step
    k = np.arange(len(samples))
    fit = np.polyfit(k[2:], samples[2:], 1)
    transistor_gain = float(fit[0]) / v_in_below

    return ZDomainResult(
        designed_gain_per_cycle=design.gain_per_cycle,
        analytic_gain_per_cycle=analytic_gain,
        transistor_gain_per_cycle=transistor_gain,
        pole_magnitude=pole_mag,
        transistor_cycles=n_cycles,
    )
