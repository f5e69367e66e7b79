"""Transient circuit simulator — the reproduction's HSPICE substitute.

A compact modified-nodal-analysis (MNA) engine with:

* linear elements (resistor, capacitor, independent/controlled sources,
  ideal switch),
* level-1 (square-law) NMOS/PMOS models with channel-length modulation,
* Newton–Raphson DC operating point with gmin and source stepping,
* fixed-step transient analysis (backward Euler or trapezoidal) with
  automatic local step subdivision on Newton failure,
* small-signal linearisation at an operating point, giving (G, C) matrix
  pencils from which poles, zeros and transfer functions are extracted —
  the "HSPICE poles/zeros/constants" step of the paper's second method,
* a batched transient engine (:func:`batched_transient`) marching K
  faulty variants of one circuit in lockstep.

The engine targets the paper's scale (tens of transistors) and favours
robustness and clarity over raw speed.
"""

from repro.spice.netlist import Circuit
from repro.spice.elements import (
    Resistor,
    Capacitor,
    Inductor,
    VoltageSource,
    CurrentSource,
    VCVS,
    VCCS,
    Switch,
)
from repro.spice.mosfet import MOSFET, MOSParams, NMOS_5U, PMOS_5U
from repro.spice.solver import dc_operating_point, NewtonError
from repro.spice.transient import transient, TransientResult, GridMismatchWarning
from repro.spice.validate import DeckError, validate_deck
from repro.spice.ac import ACSweepResult, ac_sweep
from repro.spice.parser import NetlistSyntaxError, ParseResult, parse_netlist, parse_value
from repro.spice.linearize import (
    FrequencyPencil,
    small_signal_matrices,
    circuit_poles,
    circuit_zeros,
    transfer_function_at,
    extract_transfer_function,
)
from repro.spice.batched import BatchedMarch, batched_transient

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Switch",
    "MOSFET",
    "MOSParams",
    "NMOS_5U",
    "PMOS_5U",
    "dc_operating_point",
    "NewtonError",
    "DeckError",
    "validate_deck",
    "transient",
    "TransientResult",
    "GridMismatchWarning",
    "ACSweepResult",
    "ac_sweep",
    "NetlistSyntaxError",
    "ParseResult",
    "parse_netlist",
    "parse_value",
    "FrequencyPencil",
    "small_signal_matrices",
    "circuit_poles",
    "circuit_zeros",
    "transfer_function_at",
    "extract_transfer_function",
    "BatchedMarch",
    "batched_transient",
]
