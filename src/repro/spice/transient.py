"""Fixed-step transient analysis with local step subdivision.

The engine walks a uniform output grid (``dt``), solving the nonlinear
companion-model system at each point with Newton.  If a step refuses to
converge (typical at switching edges), the step is recursively halved up
to ``max_subdivisions`` levels — the output grid is unchanged, only the
internal march is refined.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.obs.core import OBS, counter_value, event
from repro.resilience.deadline import DEADLINE
from repro.resilience.retry import RetryPolicy, active_policy, note_retry
from repro.signals.waveform import Waveform
from repro.spice.elements import Capacitor, Inductor
from repro.spice.fastpath import (LinearMarch, SparseLinearMarch,
                                  linear_march_supported)
from repro.spice.mna import Assembler, SimState
from repro.spice.netlist import Circuit, GROUND
from repro.spice.solver import NewtonError, newton_solve, _solve_with_homotopy
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


def transient(circuit: Circuit, t_stop: float, dt: float,
              record: Optional[Sequence[str]] = None,
              record_branches: Optional[Sequence[str]] = None,
              method: str = "be",
              x0: Optional[np.ndarray] = None,
              uic: bool = False,
              max_newton: int = 60,
              max_subdivisions: Optional[int] = None,
              fast_path: bool = True,
              retry_policy: Optional[RetryPolicy] = None,
              validate: bool = True) -> TransientResult:
    """Run a transient analysis from t = 0 to ``t_stop``.

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
    max_newton:
        Newton iteration budget per solve (the operating point gets
        twice this).  A transient timepoint's solve also stops early,
        and has its step halved, when it stalls: its best move has not
        shrunk by 10% in 8 iterations (see
        :data:`repro.spice.solver.STALL_ITERS`).
    max_subdivisions:
        Levels of local step halving tried on Newton failure.  Default:
        the retry policy's ``max_timestep_halvings`` (historically 8).
    fast_path:
        Enable the partitioned/cached engine and, for fully linear
        backward-Euler circuits, the one-factorization linear march.
        ``False`` runs the reference stamp-everything engine (the
        equivalence tests compare the two).
    retry_policy:
        Escalation ladder for non-convergence recovery (default: the
        ambient policy; see :mod:`repro.resilience.retry`).
    validate:
        Run pre-flight deck validation (floating nodes, voltage-source
        loops) before simulating; raises
        :class:`~repro.errors.DeckError` naming the offender.
    """
    if t_stop <= 0:
        raise ValueError("t_stop must be positive")
    if dt <= 0 or dt > t_stop:
        raise ValueError("dt must lie in (0, t_stop]")
    if method not in ("be", "trap"):
        raise ValueError(f"unknown method {method!r}")
    if validate:
        validate_deck(circuit)
    policy = retry_policy if retry_policy is not None else active_policy()
    if max_subdivisions is None:
        max_subdivisions = policy.max_timestep_halvings

    if not OBS.enabled:
        return _transient_impl(circuit, t_stop, dt, record, record_branches,
                               method, x0, uic, max_newton, max_subdivisions,
                               fast_path)

    before = {name: counter_value(name) for name in _SPAN_COUNTERS}
    march0 = counter_value("fastpath.linear_march_runs")
    sparse0 = counter_value("fastpath.sparse_march_runs")
    with OBS.tracer.span("transient", circuit=circuit.name, t_stop=t_stop,
                         dt=dt, method=method, fast_path=fast_path) as sp:
        result = _transient_impl(circuit, t_stop, dt, record, record_branches,
                                 method, x0, uic, max_newton,
                                 max_subdivisions, fast_path)
        deltas = {name.split(".", 1)[1]: counter_value(name) - before[name]
                  for name in _SPAN_COUNTERS}
        if counter_value("fastpath.linear_march_runs") > march0:
            engine = "linear_march"
        elif counter_value("fastpath.sparse_march_runs") > sparse0:
            engine = "sparse_linear_march"
        else:
            engine = "newton"
        sp.set(n_steps=max(len(result.times) - 1, 0), engine=engine, **deltas)
        result.trace = sp
    m = OBS.metrics
    m.counter("transient.runs").inc()
    m.counter("transient.steps").inc(max(len(result.times) - 1, 0))
    return result


def _transient_impl(circuit: Circuit, t_stop: float, dt: float,
                    record: Optional[Sequence[str]],
                    record_branches: Optional[Sequence[str]],
                    method: str,
                    x0: Optional[np.ndarray],
                    uic: bool,
                    max_newton: int,
                    max_subdivisions: int,
                    fast_path: bool) -> TransientResult:
    """The uninstrumented march (see :func:`transient` for semantics)."""
    assembler = Assembler(circuit, fast_path=fast_path)
    state = assembler.new_state()
    state.method = method
    capacitors = circuit.elements_of_type(Capacitor)

    # --- initial point ------------------------------------------------
    if x0 is not None:
        x = np.array(x0, dtype=float)
    elif uic:
        x = np.zeros(assembler.n)
        # Seed capacitor initial conditions as node-voltage guesses.
        for cap in capacitors:
            if cap.ic is not None:
                a, b = cap._idx
                if a >= 0 and b < 0:
                    x[a] = cap.ic
        # Inductor initial currents seed the branch unknowns directly.
        for ind in circuit.elements_of_type(Inductor):
            if ind.ic is not None:
                x[ind.branch_index()] = ind.ic
    else:
        state.dt = None
        state.t = 0.0
        x = _solve_with_homotopy(assembler, state, max_iter=max_newton * 2)

    n_steps = int(round(t_stop / dt))
    if abs(n_steps * dt - t_stop) > 1e-9 * max(abs(t_stop), dt):
        warnings.warn(
            f"t_stop={t_stop:g} is not an integer multiple of dt={dt:g}; "
            f"the march covers {n_steps} steps ending at t={n_steps * dt:g}, "
            f"not t_stop", GridMismatchWarning, stacklevel=3)
        if OBS.enabled:
            event("transient.grid_mismatch", level="warning",
                  circuit=circuit.name, t_stop=t_stop, dt=dt,
                  t_end=n_steps * dt)
    record_nodes = list(record) if record is not None else assembler.node_names
    for node in record_nodes:
        if node != GROUND and node not in assembler.index:
            raise KeyError(f"cannot record unknown node {node!r}")
    branch_indices: Dict[str, int] = {}
    for name in (record_branches or ()):
        elem = circuit.element(name)
        if getattr(elem, "n_branches", 0) < 1:
            raise TypeError(f"{name!r} carries no branch current "
                            f"(not a voltage source)")
        branch_indices[name] = elem.branch_index()
    times = dt * np.arange(n_steps + 1)

    # Vectorised capture: node/branch index arrays are computed once and
    # every sample is a fancy-indexed gather (ground indices, -1, are
    # redirected to a zero slot appended to the solution vector).
    rec_raw = np.array([assembler.index.get(node, -1) for node in record_nodes],
                       dtype=np.intp)
    rec_idx = np.where(rec_raw < 0, assembler.n, rec_raw)
    branch_names = list(branch_indices)
    branch_idx = np.array([branch_indices[name] for name in branch_names],
                          dtype=np.intp)
    trace_mat = np.empty((len(record_nodes), n_steps + 1))
    branch_mat = np.empty((len(branch_names), n_steps + 1))
    ext = np.empty(assembler.n + 1)
    ext[assembler.n] = 0.0

    def capture(k: int, vec: np.ndarray) -> None:
        ext[:assembler.n] = vec
        trace_mat[:, k] = ext[rec_idx]
        if len(branch_names):
            branch_mat[:, k] = vec[branch_idx]

    capture(0, x)

    # --- march ----------------------------------------------------------
    state.gmin = 1e-12
    state.source_scale = 1.0

    # Fully linear circuit + backward Euler: one factorisation, then a
    # matrix-vector recurrence over the whole grid.
    if fast_path and linear_march_supported(circuit, method):
        x_all = _run_linear_march(assembler, x, times)
        if x_all is not None:
            x_ext = np.hstack([x_all, np.zeros((n_steps + 1, 1))])
            trace_mat[:, :] = x_ext[:, rec_idx].T
            if len(branch_names):
                branch_mat[:, :] = x_all[:, branch_idx].T
            traces = {node: trace_mat[i] for i, node in enumerate(record_nodes)}
            branch_traces = {name: branch_mat[i]
                             for i, name in enumerate(branch_names)}
            result = TransientResult(times, traces, circuit_name=circuit.name,
                                     branch_samples=branch_traces)
            engine = ("sparse_linear_march" if assembler.use_sparse
                      else "linear_march")
            result.stats = dict(state.stats, engine=engine,
                                n_steps=n_steps, method=method,
                                fast_path=fast_path)
            return result

    for k in range(1, n_steps + 1):
        if DEADLINE.active is not None:
            DEADLINE.active.check("transient march")
        # Trapezoidal integration needs a consistent initial capacitor
        # current; a backward-Euler start-up step provides it even when
        # sources are discontinuous at t = 0 (the SPICE convention).
        state.method = "be" if (method == "trap" and k == 1) else method
        t_target = float(times[k])
        x = _advance(assembler, state, capacitors, x,
                     t_from=t_target - dt, t_to=t_target,
                     max_newton=max_newton, depth=max_subdivisions)
        capture(k, x)

    traces = {node: trace_mat[i] for i, node in enumerate(record_nodes)}
    branch_traces = {name: branch_mat[i] for i, name in enumerate(branch_names)}
    result = TransientResult(times, traces, circuit_name=circuit.name,
                             branch_samples=branch_traces)
    result.stats = dict(state.stats, engine="newton", n_steps=n_steps,
                        method=method, fast_path=fast_path)
    return result


def _run_linear_march(assembler: Assembler, x0: np.ndarray,
                      times: np.ndarray) -> Optional[np.ndarray]:
    """Try the linear-march fast path; ``None`` means fall back.

    Large systems (``assembler.use_sparse``) march through the
    SuperLU-factorised :class:`~repro.spice.fastpath.SparseLinearMarch`
    instead of the dense ``G^-1`` recurrence.
    """
    if len(times) < 2:
        return None
    march_cls = SparseLinearMarch if assembler.use_sparse else LinearMarch
    try:
        march = march_cls(assembler, dt=float(times[1] - times[0]),
                          gmin=1e-12)
    except np.linalg.LinAlgError:
        return None
    return march.run(x0, times)


def _advance(assembler: Assembler, state: SimState,
             capacitors: Iterable[Capacitor], x: np.ndarray,
             t_from: float, t_to: float, max_newton: int,
             depth: int) -> np.ndarray:
    """Advance the solution from ``t_from`` to ``t_to``; subdivide on
    Newton failure."""
    _begin_step(state, x, t_from, t_to)
    try:
        x_new = newton_solve(assembler, state, max_iter=max_newton, x0=x)
    except NewtonError as exc:
        return _subdivide(assembler, state, capacitors, x, t_from, t_to,
                          max_newton, depth, exc)
    _end_step(state, capacitors, x_new)
    return x_new


def _begin_step(state: SimState, x: np.ndarray, t_from: float,
                t_to: float) -> None:
    """Point the state at the step ``t_from -> t_to`` from solution ``x``."""
    state.dt = t_to - t_from
    state.t = t_to
    state.x_prev = x


def _end_step(state: SimState, capacitors: Iterable[Capacitor],
              x_new: np.ndarray) -> None:
    """Commit a converged step's capacitor integration state."""
    for cap in capacitors:
        cap.record_state(state, x_new)


def _subdivide(assembler: Assembler, state: SimState,
               capacitors: Iterable[Capacitor], x: np.ndarray,
               t_from: float, t_to: float, max_newton: int, depth: int,
               error: NewtonError) -> np.ndarray:
    """March ``t_from -> t_to`` as two half steps after its Newton solve
    failed with ``error`` (re-raised once ``depth`` is exhausted)."""
    if depth <= 0:
        raise error
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
        x_mid = _advance(assembler, state, capacitors, x, t_from, t_mid,
                         max_newton, depth - 1)
        return _advance(assembler, state, capacitors, x_mid, t_mid, t_to,
                        max_newton, depth - 1)
    except NewtonError:
        state.aux = aux_backup
        raise
