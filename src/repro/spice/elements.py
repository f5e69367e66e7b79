"""Linear and quasi-linear MNA elements.

Every element knows how to stamp itself into an :class:`~repro.spice.mna.MNASystem`
for the present analysis (DC when ``state.dt is None``, transient
otherwise) and into the small-signal ``(G, C)`` pencil via ``stamp_ac``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.signals.waveform import Waveform

SourceValue = Union[float, int, Callable[[float], float], Waveform]


def evaluate_source(value: SourceValue, t: float) -> float:
    """Resolve a source value: constant, callable of time, or Waveform.

    A Waveform's scalar call costs O(len(values)), so a loop over many
    times should sample it once with a time vector instead (as the
    transient marches do, through ``MarchGrid.levels``)."""
    if isinstance(value, Waveform):
        return value.value_at(t)
    if callable(value):
        return float(value(t))
    return float(value)


#: Stamp-partition classes used by the fast-path assembler.
#: ``static``  — the whole stamp is constant for a fixed (dt, method)
#:               configuration and touches only G.
#: ``split``   — a constant G part (``stamp_static``) plus a per-step /
#:               per-iteration part (``stamp_dynamic``).
#: ``dynamic`` — everything is restamped each build (safe default).
#: ``nonlinear`` — the G stamp depends on the present Newton estimate
#:               ``state.x``; restamped every Newton iteration.
PARTITION_STATIC = "static"
PARTITION_SPLIT = "split"
PARTITION_DYNAMIC = "dynamic"
PARTITION_NONLINEAR = "nonlinear"


class Element:
    """Base class for netlist elements."""

    #: number of extra MNA unknowns (branch currents) the element adds
    n_branches = 0

    #: stamp-partition class; subclasses that override :meth:`stamp` with
    #: state-dependent behaviour MUST downgrade this to ``dynamic`` or
    #: ``nonlinear`` — the fast-path assembler trusts it.
    partition = PARTITION_DYNAMIC

    def __init__(self, name: str, *nodes: str) -> None:
        self.name = name
        self.nodes: Tuple[str, ...] = tuple(str(n) for n in nodes)
        self._idx: Tuple[int, ...] = ()
        self._branch = -1

    def bind(self, index: Dict[str, int], branch_offset: int = -1) -> None:
        """Cache MNA indices for this element's nodes (and branch)."""
        self._idx = tuple(index[n] for n in self.nodes)
        if self.n_branches:
            self._branch = branch_offset

    def branch_index(self) -> int:
        """MNA index of this element's branch current (−1 when the
        element carries none)."""
        return self._branch

    def stamp(self, sys, state) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def stamp_static(self, sys, state) -> None:
        """Stamp the contributions that are constant for a fixed
        ``(dt, method)`` configuration (``split`` elements only)."""

    def stamp_dynamic(self, sys, state) -> None:
        """Stamp the per-step contributions (``split`` elements only).
        ``stamp_static`` + ``stamp_dynamic`` must equal :meth:`stamp`."""

    def stamp_ac(self, g: np.ndarray, c: np.ndarray, op: np.ndarray) -> None:
        """Stamp small-signal conductance into ``g`` and capacitance into
        ``c`` at the operating point ``op`` (an MNA solution vector).

        The default treats the element as having no small-signal
        contribution; concrete elements override as needed.
        """

    def clone(self) -> "Element":
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name} {' '.join(self.nodes)}"

    def _v(self, op: np.ndarray, idx: int) -> float:
        return 0.0 if idx < 0 else float(op[idx])


class Resistor(Element):
    """Two-terminal linear resistor."""

    partition = PARTITION_STATIC

    def __init__(self, name: str, a: str, b: str, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive")
        super().__init__(name, a, b)
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp(self, sys, state) -> None:
        a, b = self._idx
        sys.add_conductance(a, b, self.conductance)

    def stamp_ac(self, g, c, op) -> None:
        a, b = self._idx
        _stamp_cond(g, a, b, self.conductance)

    def clone(self) -> "Resistor":
        return Resistor(self.name, *self.nodes, self.resistance)

    def describe(self) -> str:
        return f"R {self.name} {self.nodes[0]} {self.nodes[1]} {self.resistance:g}"


class Capacitor(Element):
    """Two-terminal linear capacitor with companion-model integration."""

    partition = PARTITION_SPLIT

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: Optional[float] = None) -> None:
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive")
        super().__init__(name, a, b)
        self.capacitance = float(capacitance)
        self.ic = ic

    def stamp(self, sys, state) -> None:
        a, b = self._idx
        if state.dt is None:
            # DC: open circuit.  The ``ic`` value is honoured only by a
            # ``uic`` transient start (SPICE semantics) — enforcing it
            # here would corrupt every operating point the capacitor
            # touches.
            return
        v_prev = state.voltage_prev(a) - state.voltage_prev(b)
        if state.method == "trap":
            geq = 2.0 * self.capacitance / state.dt
            i_prev = state.aux.get(self.name, 0.0)
            ieq = -geq * v_prev - i_prev
        else:  # backward Euler
            geq = self.capacitance / state.dt
            ieq = -geq * v_prev
        sys.add_conductance(a, b, geq)
        # companion current source: i = geq*v + ieq flowing a -> b
        sys.add_current(a, b, ieq)

    def stamp_static(self, sys, state) -> None:
        if state.dt is None:
            return
        a, b = self._idx
        if state.method == "trap":
            geq = 2.0 * self.capacitance / state.dt
        else:
            geq = self.capacitance / state.dt
        sys.add_conductance(a, b, geq)

    def stamp_dynamic(self, sys, state) -> None:
        if state.dt is None:
            return
        a, b = self._idx
        v_prev = state.voltage_prev(a) - state.voltage_prev(b)
        if state.method == "trap":
            geq = 2.0 * self.capacitance / state.dt
            ieq = -geq * v_prev - state.aux.get(self.name, 0.0)
        else:
            ieq = -(self.capacitance / state.dt) * v_prev
        sys.add_current(a, b, ieq)

    def record_state(self, state, x: np.ndarray) -> None:
        """Update the branch-current memory after a completed step.

        The stored current feeds the next trapezoidal companion model;
        it is maintained under backward Euler too so a trapezoidal march
        can be seeded by a BE start-up step.
        """
        if state.dt is None:
            return
        a, b = self._idx
        v_now = (0.0 if a < 0 else x[a]) - (0.0 if b < 0 else x[b])
        v_prev = state.voltage_prev(a) - state.voltage_prev(b)
        if state.method == "trap":
            geq = 2.0 * self.capacitance / state.dt
            i_prev = state.aux.get(self.name, 0.0)
            state.aux[self.name] = geq * (v_now - v_prev) - i_prev
        else:
            state.aux[self.name] = self.capacitance / state.dt * (v_now - v_prev)

    def stamp_ac(self, g, c, op) -> None:
        a, b = self._idx
        _stamp_cond(c, a, b, self.capacitance)

    def clone(self) -> "Capacitor":
        return Capacitor(self.name, *self.nodes, self.capacitance, ic=self.ic)

    def describe(self) -> str:
        return f"C {self.name} {self.nodes[0]} {self.nodes[1]} {self.capacitance:g}"


class Inductor(Element):
    """Two-terminal linear inductor (adds one branch-current unknown).

    The branch row enforces ``v(a) - v(b) = L dI/dt`` through the usual
    companion models: a DC analysis sees a short circuit, backward Euler
    sees ``v_k = (L/dt)(I_k - I_prev)`` and trapezoidal sees
    ``v_k + v_prev = (2L/dt)(I_k - I_prev)``.  The previous branch
    current is read straight from ``state.x_prev`` — no aux memory is
    needed because the current is an MNA unknown.
    """

    n_branches = 1
    partition = PARTITION_SPLIT

    def __init__(self, name: str, a: str, b: str, inductance: float,
                 ic: Optional[float] = None) -> None:
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive")
        super().__init__(name, a, b)
        self.inductance = float(inductance)
        self.ic = ic

    def _geq(self, state) -> float:
        """Companion impedance term on the branch diagonal."""
        if state.dt is None:
            return 0.0
        if state.method == "trap":
            return 2.0 * self.inductance / state.dt
        return self.inductance / state.dt

    def stamp(self, sys, state) -> None:
        self.stamp_static(sys, state)
        self.stamp_dynamic(sys, state)

    def stamp_static(self, sys, state) -> None:
        a, b = self._idx
        j = self._branch
        sys.add_g(a, j, 1.0)
        sys.add_g(b, j, -1.0)
        sys.add_g(j, a, 1.0)
        sys.add_g(j, b, -1.0)
        geq = self._geq(state)
        if geq:
            sys.add_g(j, j, -geq)

    def stamp_dynamic(self, sys, state) -> None:
        if state.dt is None:
            return
        j = self._branch
        i_prev = state.voltage_prev(j)
        rhs = -self._geq(state) * i_prev
        if state.method == "trap":
            a, b = self._idx
            rhs -= state.voltage_prev(a) - state.voltage_prev(b)
        sys.add_b(j, rhs)

    def stamp_ac(self, g, c, op) -> None:
        a, b = self._idx
        j = self._branch
        for (i, k, val) in ((a, j, 1.0), (b, j, -1.0), (j, a, 1.0), (j, b, -1.0)):
            if i >= 0 and k >= 0:
                g[i, k] += val
        c[j, j] -= self.inductance

    def clone(self) -> "Inductor":
        return Inductor(self.name, *self.nodes, self.inductance, ic=self.ic)

    def describe(self) -> str:
        return f"L {self.name} {self.nodes[0]} {self.nodes[1]} {self.inductance:g}"


class VoltageSource(Element):
    """Independent voltage source (adds one branch-current unknown)."""

    n_branches = 1
    partition = PARTITION_SPLIT

    def __init__(self, name: str, plus: str, minus: str,
                 value: SourceValue) -> None:
        super().__init__(name, plus, minus)
        self.value = value

    def level(self, t: float) -> float:
        return evaluate_source(self.value, t)

    def stamp(self, sys, state) -> None:
        p, m = self._idx
        j = self._branch
        sys.add_g(p, j, 1.0)
        sys.add_g(m, j, -1.0)
        sys.add_g(j, p, 1.0)
        sys.add_g(j, m, -1.0)
        sys.add_b(j, state.source_level(self) * state.source_scale)

    def stamp_static(self, sys, state) -> None:
        p, m = self._idx
        j = self._branch
        sys.add_g(p, j, 1.0)
        sys.add_g(m, j, -1.0)
        sys.add_g(j, p, 1.0)
        sys.add_g(j, m, -1.0)

    def stamp_dynamic(self, sys, state) -> None:
        sys.add_b(self._branch,
                  state.source_level(self) * state.source_scale)

    def stamp_ac(self, g, c, op) -> None:
        p, m = self._idx
        j = self._branch
        for (i, k, val) in ((p, j, 1.0), (m, j, -1.0), (j, p, 1.0), (j, m, -1.0)):
            if i >= 0 and k >= 0:
                g[i, k] += val

    def ac_input_vector(self, b: np.ndarray) -> None:
        """Mark this source as the small-signal input (unit excitation)."""
        b[self._branch] += 1.0

    def clone(self) -> "VoltageSource":
        return VoltageSource(self.name, *self.nodes, self.value)

    def describe(self) -> str:
        val = self.value if isinstance(self.value, (int, float)) else "<wave>"
        return f"V {self.name} {self.nodes[0]} {self.nodes[1]} {val}"


class CurrentSource(Element):
    """Independent current source flowing from node ``frm`` to ``to``."""

    def __init__(self, name: str, frm: str, to: str, value: SourceValue) -> None:
        super().__init__(name, frm, to)
        self.value = value

    def level(self, t: float) -> float:
        return evaluate_source(self.value, t)

    def stamp(self, sys, state) -> None:
        a, b = self._idx
        sys.add_current(a, b, state.source_level(self) * state.source_scale)

    def ac_input_vector(self, b_vec: np.ndarray) -> None:
        a, b = self._idx
        if a >= 0:
            b_vec[a] -= 1.0
        if b >= 0:
            b_vec[b] += 1.0

    def clone(self) -> "CurrentSource":
        return CurrentSource(self.name, *self.nodes, self.value)

    def describe(self) -> str:
        val = self.value if isinstance(self.value, (int, float)) else "<wave>"
        return f"I {self.name} {self.nodes[0]} {self.nodes[1]} {val}"


class VCVS(Element):
    """Voltage-controlled voltage source: v(out) = gain * v(in)."""

    n_branches = 1
    partition = PARTITION_STATIC

    def __init__(self, name: str, out_p: str, out_m: str, in_p: str,
                 in_m: str, gain: float) -> None:
        super().__init__(name, out_p, out_m, in_p, in_m)
        self.gain = float(gain)

    def stamp(self, sys, state) -> None:
        op_, om, ip, im = self._idx
        j = self._branch
        sys.add_g(op_, j, 1.0)
        sys.add_g(om, j, -1.0)
        sys.add_g(j, op_, 1.0)
        sys.add_g(j, om, -1.0)
        sys.add_g(j, ip, -self.gain)
        sys.add_g(j, im, self.gain)

    def stamp_ac(self, g, c, op) -> None:
        op_, om, ip, im = self._idx
        j = self._branch
        for (i, k, val) in ((op_, j, 1.0), (om, j, -1.0), (j, op_, 1.0),
                            (j, om, -1.0), (j, ip, -self.gain), (j, im, self.gain)):
            if i >= 0 and k >= 0:
                g[i, k] += val

    def clone(self) -> "VCVS":
        return VCVS(self.name, *self.nodes, self.gain)


class VCCS(Element):
    """Voltage-controlled current source: i(out_p→out_m) = gm * v(in)."""

    partition = PARTITION_STATIC

    def __init__(self, name: str, out_p: str, out_m: str, in_p: str,
                 in_m: str, transconductance: float) -> None:
        super().__init__(name, out_p, out_m, in_p, in_m)
        self.gm = float(transconductance)

    def stamp(self, sys, state) -> None:
        op_, om, ip, im = self._idx
        sys.add_transconductance(op_, om, ip, im, self.gm)

    def stamp_ac(self, g, c, op) -> None:
        op_, om, ip, im = self._idx
        for (i, k, val) in ((op_, ip, self.gm), (op_, im, -self.gm),
                            (om, ip, -self.gm), (om, im, self.gm)):
            if i >= 0 and k >= 0:
                g[i, k] += val

    def clone(self) -> "VCCS":
        return VCCS(self.name, *self.nodes, self.gm)


class Switch(Element):
    """Voltage-controlled resistive switch.

    Conducts (``r_on``) when the control voltage ``v(ctrl_p) - v(ctrl_m)``
    exceeds ``v_on``, otherwise presents ``r_off``.  A narrow linear
    transition region keeps Newton well-behaved.
    """

    partition = PARTITION_NONLINEAR

    def __init__(self, name: str, a: str, b: str, ctrl_p: str, ctrl_m: str,
                 v_on: float = 2.5, r_on: float = 100.0,
                 r_off: float = 1e9, transition: float = 0.2) -> None:
        if r_on <= 0 or r_off <= 0:
            raise ValueError(f"{name}: switch resistances must be positive")
        if transition <= 0:
            raise ValueError(f"{name}: transition width must be positive")
        super().__init__(name, a, b, ctrl_p, ctrl_m)
        self.v_on = float(v_on)
        self.r_on = float(r_on)
        self.r_off = float(r_off)
        self.transition = float(transition)

    def _conductance(self, v_ctrl: float) -> float:
        # log-linear interpolation between off and on conductance
        frac = (v_ctrl - (self.v_on - self.transition / 2.0)) / self.transition
        frac = min(1.0, max(0.0, frac))
        g_on = 1.0 / self.r_on
        g_off = 1.0 / self.r_off
        return g_off * (g_on / g_off) ** frac

    def stamp(self, sys, state) -> None:
        a, b, cp, cm = self._idx
        v_ctrl = state.voltage(cp) - state.voltage(cm)
        # The control is treated as an ideal (infinite-impedance) input;
        # using the previous iterate keeps the Jacobian symmetric/simple.
        sys.add_conductance(a, b, self._conductance(v_ctrl))

    def stamp_ac(self, g, c, op) -> None:
        a, b, cp, cm = self._idx
        v_ctrl = self._v(op, cp) - self._v(op, cm)
        _stamp_cond(g, a, b, self._conductance(v_ctrl))

    def clone(self) -> "Switch":
        return Switch(self.name, *self.nodes, self.v_on, self.r_on,
                      self.r_off, self.transition)


def _stamp_cond(mat: np.ndarray, a: int, b: int, g: float) -> None:
    """Stamp a two-terminal conductance/capacitance into a dense matrix."""
    if a >= 0:
        mat[a, a] += g
    if b >= 0:
        mat[b, b] += g
    if a >= 0 and b >= 0:
        mat[a, b] -= g
        mat[b, a] -= g
