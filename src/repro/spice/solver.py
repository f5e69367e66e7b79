"""Newton–Raphson nonlinear solve: DC operating point with homotopy.

The solver applies three escalating strategies, mirroring what production
simulators do for hard bias points:

1. plain damped Newton from the given (or zero) initial guess,
2. gmin stepping: solve with a large gmin, then relax it decade by decade,
3. source stepping: ramp all independent sources from 0 to 100 %.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import NewtonError
from repro.obs.core import OBS, counter_value, event
from repro.obs.core import span as obs_span
from repro.resilience.deadline import DEADLINE
from repro.spice.mna import Assembler, MNASystem, SimState
from repro.spice.netlist import Circuit
from repro.spice.validate import validate_deck

__all__ = ["NewtonError", "newton_solve", "dc_operating_point"]


#: Largest per-iteration voltage move allowed (limits Newton overshoot
#: through the square-law kinks).
MAX_STEP_V = 0.6

#: Newton convergence tolerance: the largest per-iteration move [V].
VTOL = 1e-7

#: The DC solve's retry ladder, tried in order after plain Newton fails:
#: gmin stepping relaxes the shunt gmin through ``GMIN_LADDER`` (the
#: last entry is the operating gmin), then source stepping ramps every
#: independent source from 0 to 100 % in ``SOURCE_STEPS`` points while
#: holding a ``SOURCE_GMIN`` safety floor.
GMIN_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12)
SOURCE_STEPS = 21
SOURCE_GMIN = 1e-9


#: A transient Newton solve *stalls* when its best max-move has not
#: shrunk below ``STALL_SHRINK`` times its previous best for
#: ``STALL_ITERS`` consecutive iterations.  Such a solve is cycling
#: (typically around a square-law kink at a stimulus edge) and would
#: spend the rest of its budget before the timestep is halved anyway,
#: so it fails at once.  DC and homotopy solves (``state.dt is None``)
#: are exempt: a converging operating point can walk clamped at
#: ``MAX_STEP_V`` for many non-improving iterations.
STALL_ITERS = 8
STALL_SHRINK = 0.9


class NewtonProgress:
    """One Newton solve's iterate and its damping, convergence and stall
    tests — the single definition shared by :func:`newton_solve` and
    the batched engine's lockstep loop."""

    __slots__ = ("x", "max_move", "stall_check", "best", "since", "stalled")

    def __init__(self, x: np.ndarray, stall_check: bool) -> None:
        self.x = x
        self.max_move = 0.0
        self.stall_check = stall_check
        self.best = np.inf
        self.since = 0
        self.stalled = False

    def step(self, x_new: np.ndarray) -> bool:
        """Move toward the linear solve ``x_new`` (clamped to
        ``MAX_STEP_V``); True once the move is below ``VTOL``.  Raises
        :class:`NewtonError` when the solve has stalled."""
        x = self.x
        delta = x_new - x
        max_move = float(np.max(np.abs(delta))) if len(x) else 0.0
        self.max_move = max_move
        if max_move > MAX_STEP_V:
            self.x = x + delta * (MAX_STEP_V / max_move)
        else:
            self.x = x_new
        if max_move < VTOL:
            return True
        if self.stall_check:
            if max_move < STALL_SHRINK * self.best:
                self.best = max_move
                self.since = 0
            else:
                self.since += 1
                if self.since >= STALL_ITERS:
                    self.stalled = True
                    raise NewtonError(
                        f"Newton stalled: best move {self.best:.3g} V not "
                        f"improved in {STALL_ITERS} iterations (last move "
                        f"{max_move:.3g} V)")
        return False

    def budget_error(self, max_iter: int) -> NewtonError:
        """The failure of a solve that used up its iteration budget."""
        return NewtonError(f"Newton failed to converge in {max_iter} "
                           f"iterations (last move {self.max_move:.3g} V)")


def note_retry(strategy: str, **fields) -> None:
    """Record one escalation rung: a ``solver.retry`` event plus
    aggregate and per-strategy counters (no-op when observability is
    off)."""
    if not OBS.enabled:
        return
    OBS.metrics.counter("solver.retries").inc()
    OBS.metrics.counter(f"solver.retries.{strategy}").inc()
    event("solver.retry", level="warning", strategy=strategy, **fields)


def checked_solve(solve, sys: MNASystem) -> np.ndarray:
    """One linear solve of a built system; singular or non-finite
    results surface as :class:`NewtonError`."""
    try:
        x_new = solve(sys)
    except np.linalg.LinAlgError as exc:
        raise NewtonError(f"singular MNA matrix: {exc}") from exc
    if not np.all(np.isfinite(x_new)):
        raise NewtonError("non-finite solution from linear solve")
    return x_new


def note_solve(assembler: Assembler, state: SimState, iterations: int,
               error: Optional[NewtonError] = None,
               stalled: bool = False) -> None:
    """Account one finished Newton solve: the run's deterministic
    ``state.stats`` and, when observing, the ambient metrics (plus a
    ``solver.newton_nonconvergence`` event on failure)."""
    state.stats["newton_solves"] += 1
    state.stats["newton_iterations"] += iterations
    if not OBS.enabled:
        return
    m = OBS.metrics
    m.counter("solver.newton_solves").inc()
    m.counter("solver.newton_iterations").inc(iterations)
    if error is None:
        return
    m.counter("solver.convergence_failures").inc()
    if stalled:
        m.counter("solver.newton_stalls").inc()
    event("solver.newton_nonconvergence", level="warning",
          circuit=assembler.circuit.name, iterations=iterations,
          t=state.t, dt=state.dt, gmin=state.gmin, stalled=stalled,
          reason=str(error))


def newton_solve(assembler: Assembler, state: SimState,
                 max_iter: int = 120,
                 x0: Optional[np.ndarray] = None) -> np.ndarray:
    """Damped Newton iteration on the MNA system for the present state.

    Returns the converged solution vector.  Raises :class:`NewtonError`
    on failure: a singular matrix, the ``max_iter`` budget exhausted,
    or — for a transient timepoint — a stall (see :data:`STALL_ITERS`).
    """
    x = np.zeros(assembler.n) if x0 is None else np.array(x0, dtype=float)
    state.x = x
    if assembler.fast_path and assembler.is_linear:
        # Linear circuits: the matrix is constant for this configuration,
        # so Newton collapses to a single solve, which reuses the
        # factorization of the bit-identical matrix the previous call
        # presented (see :meth:`MNASystem.solve_fast`).
        sys = assembler.build(state)
        x_new = checked_solve(MNASystem.solve_fast, sys)
        state.x = x_new
        state.stats["linear_solves"] += 1
        note_solve(assembler, state, 1)
        if OBS.enabled:
            OBS.metrics.counter("solver.linear_solves").inc()
        return x_new
    solve = MNASystem.solve_fast if assembler.fast_path else MNASystem.solve
    progress = NewtonProgress(x, stall_check=state.dt is not None)
    iteration = 0
    try:
        for iteration in range(1, max_iter + 1):
            if DEADLINE.active is not None:
                DEADLINE.active.check("newton_solve")
            converged = progress.step(
                checked_solve(solve, assembler.build(state)))
            state.x = progress.x
            if converged:
                note_solve(assembler, state, iteration)
                return progress.x
        raise progress.budget_error(max_iter)
    except NewtonError as exc:
        note_solve(assembler, state, iteration, exc, progress.stalled)
        raise


def dc_operating_point(circuit: Circuit, t: float = 0.0,
                       x0: Optional[np.ndarray] = None,
                       fast_path: bool = True,
                       validate: bool = True) -> Tuple[Dict[str, float], np.ndarray]:
    """Solve the DC operating point at time ``t``.

    Capacitors are open (except those carrying explicit initial
    conditions, which are weakly enforced).  Returns
    ``(node_voltages, solution_vector)``.  ``fast_path=False`` runs the
    reference stamp-everything engine (used by the equivalence tests).
    A failed Newton solve escalates through the fixed retry ladder
    (:data:`GMIN_LADDER`, then :data:`SOURCE_STEPS` of source stepping).
    ``validate=False`` skips the pre-flight deck checks (floating nodes,
    voltage-source loops).
    """
    if validate:
        validate_deck(circuit)
    assembler = Assembler(circuit, fast_path=fast_path)
    state = assembler.new_state()
    state.dt = None
    state.t = t

    with obs_span("dc_operating_point", circuit=circuit.name,
                  fast_path=fast_path) as sp:
        it0 = counter_value("solver.newton_iterations")
        x = _solve_with_homotopy(assembler, state, x0=x0)
        sp.set(newton_iterations=counter_value("solver.newton_iterations") - it0)
    return assembler.voltages(x), x


def _solve_with_homotopy(assembler: Assembler, state: SimState,
                         x0: Optional[np.ndarray] = None,
                         max_iter: int = 120) -> np.ndarray:
    """Plain Newton, then the retry ladder: gmin stepping, then source
    stepping.  Each escalation emits a ``solver.retry`` event."""
    # Strategy 1: plain Newton.
    state.gmin = 1e-12
    state.source_scale = 1.0
    try:
        return newton_solve(assembler, state, max_iter=max_iter, x0=x0)
    except NewtonError:
        pass

    # Strategy 2: gmin stepping.
    if OBS.enabled:
        OBS.metrics.counter("solver.homotopy_gmin_escalations").inc()
        event("solver.homotopy_escalation", strategy="gmin_stepping",
              circuit=assembler.circuit.name)
    note_retry("gmin_stepping", circuit=assembler.circuit.name,
               steps=len(GMIN_LADDER))
    x = x0
    try:
        for gmin in GMIN_LADDER:
            state.gmin = gmin
            x = newton_solve(assembler, state, max_iter=max_iter, x0=x)
        return x
    except NewtonError:
        pass

    # Strategy 3: source stepping (with a safety gmin floor).
    if OBS.enabled:
        OBS.metrics.counter("solver.homotopy_source_escalations").inc()
        event("solver.homotopy_escalation", strategy="source_stepping",
              circuit=assembler.circuit.name)
    note_retry("source_stepping", circuit=assembler.circuit.name,
               steps=SOURCE_STEPS)
    x = None
    state.gmin = SOURCE_GMIN
    try:
        for scale in np.linspace(0.0, 1.0, SOURCE_STEPS):
            state.source_scale = float(scale)
            x = newton_solve(assembler, state, max_iter=max_iter, x0=x)
        state.source_scale = 1.0
        state.gmin = 1e-12
        return newton_solve(assembler, state, max_iter=max_iter, x0=x)
    except NewtonError as exc:
        raise NewtonError(
            f"operating point failed for circuit "
            f"{assembler.circuit.name!r}: {exc}") from exc
