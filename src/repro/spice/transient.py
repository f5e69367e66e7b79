"""Fixed-step transient analysis with local step subdivision.

The engine walks a uniform output grid (``dt``), solving the nonlinear
companion-model system at each point with Newton.  If a step refuses to
converge (typical at switching edges), the step is recursively halved up
to ``MAX_SUBDIVISIONS`` levels — the output grid is unchanged, only the
internal march is refined.

This module is the march core of both transient engines: a
:class:`MarchGrid` (grid and step policy) and one :class:`CircuitMarch`
per circuit (set-up, Newton step, linear route, recording, result).
:func:`transient` drives one march; :mod:`repro.spice.batched` drives K.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.core import OBS, counter_value, event
from repro.resilience.deadline import DEADLINE
from repro.signals.waveform import Waveform
from repro.spice.elements import (Capacitor, CurrentSource, Inductor,
                                  VoltageSource)
from repro.spice.fastpath import LinearMarch, linear_march_supported
from repro.spice.mna import Assembler, SimState
from repro.spice.netlist import Circuit, GROUND
from repro.spice.solver import (NewtonError, _solve_with_homotopy,
                                newton_solve, note_retry)
from repro.spice.validate import validate_deck


class GridMismatchWarning(UserWarning):
    """``t_stop`` is not an integer multiple of ``dt``: the final sample
    lands on ``round(t_stop / dt) * dt``, not on ``t_stop``."""


class TransientResult:
    """Node waveforms (and source branch currents) from :func:`transient`."""

    def __init__(self, times: np.ndarray, samples: Dict[str, np.ndarray],
                 circuit_name: str = "",
                 branch_samples: Optional[Dict[str, np.ndarray]] = None
                 ) -> None:
        self.times = times
        self._samples = samples
        self._branches = branch_samples or {}
        self.circuit_name = circuit_name
        #: trace span of the run that produced this result (set when an
        #: observation scope was active; part of the RunResult protocol).
        self.trace: Optional[Any] = None
        #: deterministic solver accounting for the run — engine route,
        #: Newton iteration counts, subdivisions.  Always populated
        #: (independent of the observability switch) so the verification
        #: harness can report which code path produced each waveform.
        self.stats: Dict[str, Any] = {}

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def nodes(self) -> List[str]:
        return list(self._samples)

    def __contains__(self, node: str) -> bool:
        return node in self._samples

    def __getitem__(self, node: str) -> Waveform:
        if node not in self._samples:
            raise KeyError(f"node {node!r} was not recorded "
                           f"(available: {sorted(self._samples)})")
        return Waveform(self._samples[node], self.dt,
                        t0=float(self.times[0]), name=node)

    def array(self, node: str) -> np.ndarray:
        return self._samples[node]

    def final(self, node: str) -> float:
        return float(self._samples[node][-1])

    def branches(self) -> List[str]:
        return list(self._branches)

    def branch_current(self, source_name: str) -> Waveform:
        """Current through a recorded voltage source (positive into its
        + terminal) — the dynamic-Idd observation point."""
        if source_name not in self._branches:
            raise KeyError(
                f"branch current for {source_name!r} was not recorded "
                f"(available: {sorted(self._branches)})")
        return Waveform(self._branches[source_name], self.dt,
                        t0=float(self.times[0]), name=f"I({source_name})")

    # -- RunResult protocol --------------------------------------------
    def summary(self) -> str:
        span = (float(self.times[-1]) - float(self.times[0])
                if len(self.times) else 0.0)
        return (f"transient {self.circuit_name or '<circuit>'}: "
                f"{max(len(self.times) - 1, 0)} steps of {self.dt:g} s "
                f"({span:g} s), {len(self._samples)} nodes, "
                f"{len(self._branches)} branch currents")

    def to_dict(self, include_samples: bool = False) -> Dict[str, Any]:
        """Machine-readable shape.  Waveform arrays are large, so by
        default only the final value per node/branch is included; pass
        ``include_samples=True`` for the full arrays (as lists)."""
        out: Dict[str, Any] = {
            "kind": "transient",
            "circuit": self.circuit_name,
            "n_steps": max(len(self.times) - 1, 0),
            "dt_s": self.dt,
            "nodes": self.nodes(),
            "branches": self.branches(),
            "final": {node: self.final(node) for node in self._samples},
        }
        if include_samples:
            out["times"] = [float(t) for t in self.times]
            out["samples"] = {n: [float(v) for v in a]
                              for n, a in self._samples.items()}
            out["branch_samples"] = {n: [float(v) for v in a]
                                     for n, a in self._branches.items()}
        if self.stats:
            out["stats"] = dict(self.stats)
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out

    def report(self) -> str:
        """Terminal report: summary plus the run's span profile (when
        the run executed under an observation scope)."""
        from repro.obs.report import result_report
        return result_report(self)


#: counters whose per-run deltas are attached to the ``transient`` span
_SPAN_COUNTERS = ("solver.newton_iterations", "mna.lu_factorizations",
                  "mna.lu_reuses", "mna.static_reuses",
                  "transient.subdivisions")

#: subdivision count within one march at which a single
#: ``transient.subdivision_storm`` warning event is emitted.
_SUBDIVISION_STORM = 16

#: gmin shunt every transient march (and its linear recurrence) runs at
_GMIN = 1e-12

#: Newton iteration budget of one timepoint solve; the march's DC seed
#: gets twice this.  A timepoint's solve also stops early when it stalls
#: (see :data:`repro.spice.solver.STALL_ITERS`).
MAX_NEWTON = 60

#: levels of local step halving a failed timepoint may try before its
#: Newton error surfaces
MAX_SUBDIVISIONS = 8


class MarchGrid:
    """The uniform output grid and step policy that one march — or a
    batch of them — walks: ``n_steps`` steps of ``dt`` (``times``), the
    integration ``method``, and each step's Newton budget and
    subdivision depth.  Construction validates the arguments and reads
    the budget and depth from :data:`MAX_NEWTON` and
    :data:`MAX_SUBDIVISIONS`."""

    def __init__(self, t_stop: float, dt: float, method: str) -> None:
        if t_stop <= 0:
            raise ValueError("t_stop must be positive")
        if dt <= 0 or dt > t_stop:
            raise ValueError("dt must lie in (0, t_stop]")
        if method not in ("be", "trap"):
            raise ValueError(f"unknown method {method!r}")
        self.t_stop = t_stop
        self.dt = dt
        self.method = method
        self.newton_budget = MAX_NEWTON
        self.max_depth = MAX_SUBDIVISIONS
        self.n_steps = int(round(t_stop / dt))
        self.times = dt * np.arange(self.n_steps + 1)
        #: id(source value) -> (value, its samples at ``times``)
        self._levels: Dict[int, Tuple[Any, np.ndarray]] = {}

    def levels(self, value: Any) -> Optional[np.ndarray]:
        """A Waveform source ``value`` sampled at every grid time with
        one vector call, kept for every march on this grid (a batch's
        variants, their DC points, Newton steps and linear recurrences);
        ``None`` for any other source, which is evaluated per point.
        A scalar Waveform call costs O(len(values)), so sampling one
        per grid point would make a march quadratic."""
        if not isinstance(value, Waveform):
            return None
        hit = self._levels.get(id(value))
        if hit is None:
            hit = self._levels[id(value)] = (value, value(self.times))
        return hit[1]

    def check_end(self, circuit_name: str) -> None:
        """Warn, and log a ``transient.grid_mismatch`` event, when
        ``t_stop`` is not an integer multiple of ``dt``.  Called from
        one level below a public entry point, so the warning names the
        line that called :func:`transient` or :func:`batched_transient`."""
        t_end = self.n_steps * self.dt
        if abs(t_end - self.t_stop) <= 1e-9 * max(abs(self.t_stop), self.dt):
            return
        warnings.warn(
            f"t_stop={self.t_stop:g} is not an integer multiple of "
            f"dt={self.dt:g}; the march covers {self.n_steps} steps ending "
            f"at t={t_end:g}, not t_stop", GridMismatchWarning, stacklevel=4)
        if OBS.enabled:
            event("transient.grid_mismatch", level="warning",
                  circuit=circuit_name, t_stop=self.t_stop, dt=self.dt,
                  t_end=t_end)

    def step_span(self, k: int) -> Tuple[float, float]:
        """``(t_from, t_to)`` of the step that ends at grid point ``k``."""
        t_to = float(self.times[k])
        return t_to - self.dt, t_to


class CircuitMarch:
    """One circuit's march over a :class:`MarchGrid`: its assembler and
    Newton state, the current solution ``x`` and the recorded samples.

    :func:`transient` drives one; :class:`~repro.spice.batched.BatchedMarch`
    drives K in lockstep (``slot`` is the circuit's position in the
    batch).  Raises :class:`KeyError` for an unknown ``record`` node and
    :class:`TypeError` for a ``record_branches`` element that carries no
    branch current.
    """

    def __init__(self, circuit: Circuit, grid: MarchGrid,
                 record: Optional[Sequence[str]],
                 record_branches: Optional[Sequence[str]],
                 fast_path: bool = True, slot: int = 0) -> None:
        asm = self.assembler = Assembler(circuit, fast_path=fast_path)
        self.circuit = circuit
        self.grid = grid
        self.fast_path = fast_path
        self.slot = slot
        self.state = asm.new_state()
        self.state.method = grid.method
        self.capacitors = circuit.elements_of_type(Capacitor)
        #: time-varying independent sources, sampled once per timepoint
        #: (the reference engine samples them per build)
        self.sources = [
            e for e in circuit.elements
            if isinstance(e, (VoltageSource, CurrentSource))
            and not isinstance(e.value, (int, float))] if fast_path else []
        self.x: Optional[np.ndarray] = None
        self.record_nodes = (list(record) if record is not None
                             else asm.node_names)
        for node in self.record_nodes:
            if node != GROUND and node not in asm.index:
                raise KeyError(f"cannot record unknown node {node!r}")
        branches: Dict[str, int] = {}
        for name in (record_branches or ()):
            elem = circuit.element(name)
            if getattr(elem, "n_branches", 0) < 1:
                raise TypeError(f"{name!r} carries no branch current "
                                f"(not a voltage source)")
            branches[name] = elem.branch_index()
        self.branch_names = list(branches)
        self.branch_idx = np.array(list(branches.values()), dtype=np.intp)
        # Vectorised capture: every sample is a fancy-indexed gather
        # (ground indices, -1, are redirected to a zero slot appended to
        # the solution vector).
        rec_raw = np.array([asm.index.get(node, -1)
                            for node in self.record_nodes], dtype=np.intp)
        self.rec_idx = np.where(rec_raw < 0, asm.n, rec_raw)
        self.trace_mat = np.empty((len(self.record_nodes), grid.n_steps + 1))
        self.branch_mat = np.empty((len(self.branch_names), grid.n_steps + 1))
        self._ext = np.zeros(asm.n + 1)

    def start(self, x0: Optional[np.ndarray] = None, uic: bool = False
              ) -> None:
        """Seed and record the solution at t = 0: ``x0`` when given,
        else the initial conditions (``uic``), else the DC operating
        point."""
        asm, state = self.assembler, self.state
        if x0 is not None:
            x = np.array(x0, dtype=float)
        elif uic:
            x = np.zeros(asm.n)
            # Seed capacitor initial conditions as node-voltage guesses.
            for cap in self.capacitors:
                if cap.ic is not None:
                    a, b = cap._idx
                    if a >= 0 and b < 0:
                        x[a] = cap.ic
            # Inductor initial currents seed the branch unknowns directly.
            for ind in self.circuit.elements_of_type(Inductor):
                if ind.ic is not None:
                    x[ind.branch_index()] = ind.ic
        else:
            state.dt = None
            self.set_time(0.0)
            x = _solve_with_homotopy(asm, state,
                                     max_iter=self.grid.newton_budget * 2)
        self.x = x
        self.capture(0, x)
        state.gmin = _GMIN
        state.source_scale = 1.0

    def capture(self, k: int, vec: np.ndarray) -> None:
        """Record solution ``vec`` as grid point ``k``."""
        self._ext[:self.assembler.n] = vec
        self.trace_mat[:, k] = self._ext[self.rec_idx]
        if len(self.branch_names):
            self.branch_mat[:, k] = vec[self.branch_idx]

    def capture_all(self, x_all: np.ndarray) -> None:
        """Record a whole trajectory at once (one row per grid point)."""
        x_ext = np.hstack([x_all, np.zeros((len(x_all), 1))])
        self.trace_mat[:, :] = x_ext[:, self.rec_idx].T
        if len(self.branch_names):
            self.branch_mat[:, :] = x_all[:, self.branch_idx].T

    def step(self, k: int) -> None:
        """Newton-advance to grid point ``k`` and record it; raises
        :class:`NewtonError` once :data:`MAX_SUBDIVISIONS` halvings fail."""
        grid, state = self.grid, self.state
        # Trapezoidal integration needs a consistent initial capacitor
        # current; a backward-Euler start-up step provides it even when
        # sources are discontinuous at t = 0 (the SPICE convention).
        state.method = "be" if (grid.method == "trap" and k == 1) else grid.method
        t_from, t_to = grid.step_span(k)
        self.x = self._advance(self.x, t_from, t_to, grid.max_depth)
        self.capture(k, self.x)

    def _advance(self, x: np.ndarray, t_from: float, t_to: float,
                 depth: int) -> np.ndarray:
        """Advance the solution from ``t_from`` to ``t_to``; subdivide on
        Newton failure."""
        self.begin_step(x, t_from, t_to)
        try:
            x_new = newton_solve(self.assembler, self.state,
                                 max_iter=self.grid.newton_budget, x0=x)
        except NewtonError as exc:
            return self.subdivide(x, t_from, t_to, depth, exc)
        self.end_step(x_new)
        return x_new

    def begin_step(self, x: np.ndarray, t_from: float, t_to: float) -> None:
        """Point the state at the step ``t_from -> t_to`` from solution ``x``."""
        state = self.state
        state.dt = t_to - t_from
        self.set_time(t_to)
        state.x_prev = x

    def set_time(self, t: float) -> None:
        """Point the state at time ``t`` and sample each time-varying
        source there once, for every build at ``t`` to read: a grid time
        reads the grid's presampled levels, any other time (a
        subdivision midpoint) calls the source."""
        self.state.t = t
        if not self.sources:
            return
        grid = self.grid
        k = int(round(t / grid.dt))
        on_grid = 0 <= k <= grid.n_steps and grid.times[k] == t
        levels = {}
        for src in self.sources:
            samples = grid.levels(src.value) if on_grid else None
            levels[src] = (src.level(t) if samples is None
                           else float(samples[k]))
        self.state.levels = levels

    def end_step(self, x_new: np.ndarray) -> None:
        """Commit a converged step's capacitor integration state."""
        for cap in self.capacitors:
            cap.record_state(self.state, x_new)

    def subdivide(self, x: np.ndarray, t_from: float, t_to: float,
                  depth: int, error: NewtonError) -> np.ndarray:
        """March ``t_from -> t_to`` as two half steps after its Newton
        solve failed with ``error`` (re-raised once ``depth`` is
        exhausted)."""
        if depth <= 0:
            raise error
        state = self.state
        state.stats["subdivisions"] += 1
        note_retry("timestep_halving", t_from=t_from, t_to=t_to,
                   depth_remaining=depth)
        if OBS.enabled:
            OBS.metrics.counter("transient.subdivisions").inc()
            event("transient.subdivision",
                  level="info" if depth > 2 else "warning",
                  t_from=t_from, t_to=t_to, depth_remaining=depth)
            # A storm — many halvings inside one march — usually means
            # dt is far too coarse for the circuit's fastest edge; flag
            # it once, at the threshold crossing.
            if state.stats["subdivisions"] == _SUBDIVISION_STORM:
                event("transient.subdivision_storm", level="warning",
                      subdivisions=_SUBDIVISION_STORM, t=t_to)
        aux_backup = dict(state.aux)
        t_mid = t_from + (t_to - t_from) / 2.0
        try:
            x_mid = self._advance(x, t_from, t_mid, depth - 1)
            return self._advance(x_mid, t_mid, t_to, depth - 1)
        except NewtonError:
            state.aux = aux_backup
            raise

    def recurrence(self) -> Optional[Any]:
        """The circuit's one-factorisation linear recurrence, or
        ``None`` when ``G`` is singular."""
        try:
            return LinearMarch(self.assembler, dt=self.grid.dt, gmin=_GMIN)
        except np.linalg.LinAlgError:
            return None

    def march_linear(self) -> bool:
        """March and record the whole grid through :meth:`recurrence`;
        ``False`` when the recurrence is singular or breaks down
        (nothing is recorded past t = 0)."""
        rec = self.recurrence()
        x_all = rec.run(self.x, self.grid) if rec is not None else None
        if x_all is None:
            return False
        self.capture_all(x_all)
        return True

    def result(self, engine: str, **stats: Any) -> TransientResult:
        """The recorded waveforms, ``stats`` tagged with ``engine``."""
        grid = self.grid
        traces = {node: self.trace_mat[i]
                  for i, node in enumerate(self.record_nodes)}
        branch_traces = {name: self.branch_mat[i]
                         for i, name in enumerate(self.branch_names)}
        result = TransientResult(grid.times, traces,
                                 circuit_name=self.circuit.name,
                                 branch_samples=branch_traces)
        result.stats = dict(self.state.stats, engine=engine,
                            n_steps=grid.n_steps, method=grid.method,
                            fast_path=self.fast_path, **stats)
        return result


def transient(circuit: Circuit, t_stop: float, dt: float,
              record: Optional[Sequence[str]] = None,
              record_branches: Optional[Sequence[str]] = None,
              method: str = "be",
              x0: Optional[np.ndarray] = None,
              uic: bool = False,
              fast_path: bool = True,
              validate: bool = True) -> TransientResult:
    """Run a transient analysis from t = 0 to ``t_stop``.

    Each timepoint's Newton solve gets :data:`MAX_NEWTON` iterations
    (the DC seed twice this) and stops early when it stalls (see
    :data:`repro.spice.solver.STALL_ITERS`); a failed step is halved up
    to :data:`MAX_SUBDIVISIONS` levels before its error surfaces.

    Parameters
    ----------
    circuit:
        The netlist.  Time-varying independent sources (callables or
        Waveforms) are evaluated along the march.
    t_stop, dt:
        Simulation span and output timestep.
    record:
        Node names to record; default all non-ground nodes.
    record_branches:
        Names of voltage sources whose branch currents to record (the
        MNA solves for them anyway; this exposes them, e.g. the supply
        current for dynamic-Idd testing).
    method:
        ``"be"`` (backward Euler, default, robust for switching circuits)
        or ``"trap"`` (trapezoidal, second order).
    x0:
        Initial MNA solution vector; when omitted the DC operating point
        at t = 0 seeds the march (unless ``uic``).
    uic:
        "Use initial conditions": skip the OP solve and start from zero /
        capacitor ``ic`` values, as SPICE's ``UIC`` does.
    fast_path:
        Enable the partitioned/cached engine and, for fully linear
        backward-Euler circuits, the one-factorization linear march.
        ``False`` runs the reference stamp-everything engine (the
        equivalence tests compare the two).
    validate:
        Run pre-flight deck validation (floating nodes, voltage-source
        loops) before simulating; raises
        :class:`~repro.errors.DeckError` naming the offender.
    """
    grid = MarchGrid(t_stop, dt, method)
    if validate:
        validate_deck(circuit)
    if not OBS.enabled:
        return _transient_impl(circuit, grid, record, record_branches, x0,
                               uic, fast_path)

    before = {name: counter_value(name) for name in _SPAN_COUNTERS}
    with OBS.tracer.span("transient", circuit=circuit.name, t_stop=t_stop,
                         dt=dt, method=method, fast_path=fast_path) as sp:
        result = _transient_impl(circuit, grid, record, record_branches, x0,
                                 uic, fast_path)
        deltas = {name.split(".", 1)[1]: counter_value(name) - before[name]
                  for name in _SPAN_COUNTERS}
        sp.set(n_steps=grid.n_steps, engine=result.stats["engine"], **deltas)
        result.trace = sp
    m = OBS.metrics
    m.counter("transient.runs").inc()
    m.counter("transient.steps").inc(grid.n_steps)
    return result


def _transient_impl(circuit: Circuit, grid: MarchGrid,
                    record: Optional[Sequence[str]],
                    record_branches: Optional[Sequence[str]],
                    x0: Optional[np.ndarray], uic: bool,
                    fast_path: bool) -> TransientResult:
    """The uninstrumented march (see :func:`transient` for semantics)."""
    grid.check_end(circuit.name)
    march = CircuitMarch(circuit, grid, record, record_branches, fast_path)
    march.start(x0, uic)
    # Fully linear circuit + backward Euler: one factorisation, then a
    # matrix-vector recurrence over the whole grid.
    if (fast_path and linear_march_supported(circuit, grid.method)
            and march.march_linear()):
        return march.result("linear_march")
    for k in range(1, grid.n_steps + 1):
        if DEADLINE.active is not None:
            DEADLINE.active.check("transient march")
        march.step(k)
    return march.result("newton")
