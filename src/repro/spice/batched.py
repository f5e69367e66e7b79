"""Batched K-variant transient marching for fault dictionaries.

A fault-dictionary campaign simulates K nearly identical circuits — the
same base netlist with one injected fault apiece — through the same
stimulus on the same time grid.  :class:`BatchedMarch` exploits that
structure: the K variants walk the grid in lockstep, sharing the step
loop, the deadline bookkeeping and (for linear circuits) the per-step
source evaluation and the recurrence arithmetic, which is stacked into a
``(K, n, n)`` tensor and applied with one :func:`numpy.matmul` per step
instead of K Python-level marches.  MOSFET circuits share each Newton
iteration's device evaluation: one stacked
:class:`~repro.spice.fastpath.MOSFETGroup` call over all K variants'
transistors instead of K.

Exactness contract
------------------
Results are **bitwise identical** to running :func:`repro.spice.transient.transient`
on each variant individually:

* the batched linear recurrence evaluates ``matmul((K, n, n), (K, n, 1))``,
  which LAPACK/BLAS computes per slice exactly as the serial march's
  ``np.dot((n, n), (n,))`` (verified empirically in the test suite);
  per-source columns are added in the same element order with the same
  scalar levels;
* Newton lockstep groups stamp every variant's transistors through one
  stacked :class:`~repro.spice.fastpath.MOSFETGroup` whose per-variant
  tables are the serial K = 1 tables at an offset, so each ``G``/``b``
  entry sums the same values in the same order as the serial build
  (:func:`numpy.add.at` is unbuffered and applies repeated indices in
  order); each variant then solves through its own
  :meth:`~repro.spice.mna.MNASystem.solve_fast` (LU reuse included),
  applies the serial :class:`~repro.spice.solver.NewtonProgress`
  damping, convergence and stall tests, and on failure halves its step
  through the serial ``_subdivide``.  The step length is computed as
  ``t_to - t_from`` exactly as ``_advance`` does, because it keys the
  static-G cache and scales the gate-cap companions;
* every other nonlinear variant advances through the *same*
  :func:`repro.spice.transient._advance` /
  :func:`repro.spice.solver.newton_solve` code as the serial engine;
  either way Newton damping, LU reuse, homotopy escalation, timestep
  subdivision and the ``stats`` counts behave identically per variant;
* any variant the batch cannot finish (deck validation failure, Newton
  breakdown, linear-march breakdown) is *evicted* — its slot returns
  ``None`` and the caller re-runs that variant through the serial path,
  reproducing the serial outcome (including the serial exception)
  exactly.

Grouping rules
--------------
Variants are grouped by MNA system size ``n`` (a stuck-at fault adds an
internal node and a source branch, a bridging fault adds nothing, so a
homogeneous fault universe usually lands in one or two groups).  Within
a size group, linear backward-Euler variants whose time-varying sources
are the *same value objects* (the normal case: faulty copies share the
base circuit's stimulus) form a lockstep tensor group.  Dense
backward-Euler variants whose only nonlinear elements are plain MOSFETs
form a Newton lockstep group; everything else marches per-variant in
the shared step loop.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.core import OBS, event
from repro.resilience.deadline import DEADLINE
from repro.resilience.retry import RetryPolicy, active_policy
from repro.spice.elements import Capacitor, evaluate_source
from repro.spice.fastpath import (LinearMarch, MOSFETGroup,
                                  linear_march_supported)
from repro.spice.mna import Assembler, MNASystem
from repro.spice.netlist import Circuit, GROUND
from repro.spice.solver import (
    VTOL,
    NewtonError,
    NewtonProgress,
    _solve_with_homotopy,
    checked_solve,
    note_solve,
)
from repro.spice.transient import (
    GridMismatchWarning,
    TransientResult,
    _advance,
    _begin_step,
    _end_step,
    _run_linear_march,
    _subdivide,
)
from repro.spice.validate import validate_deck

__all__ = ["BatchedMarch", "batched_transient"]


class _Variant:
    """One circuit's march state inside a batch."""

    __slots__ = ("slot", "circuit", "assembler", "state", "capacitors", "x",
                 "record_nodes", "rec_idx", "branch_names", "branch_idx",
                 "trace_mat", "branch_mat", "_ext", "march")

    def __init__(self, slot: int, circuit: Circuit) -> None:
        self.slot = slot
        self.circuit = circuit
        self.assembler: Optional[Assembler] = None
        self.march = None

    def bind(self, record: Optional[Sequence[str]],
             record_branches: Optional[Sequence[str]], method: str,
             n_steps: int) -> None:
        """Mirror the serial engine's assembler/capture setup."""
        asm = Assembler(self.circuit, fast_path=True)
        self.assembler = asm
        self.state = asm.new_state()
        self.state.method = method
        self.capacitors = self.circuit.elements_of_type(Capacitor)
        record_nodes = (list(record) if record is not None
                        else asm.node_names)
        for node in record_nodes:
            if node != GROUND and node not in asm.index:
                raise KeyError(f"cannot record unknown node {node!r}")
        self.record_nodes = record_nodes
        branch_indices: Dict[str, int] = {}
        for name in (record_branches or ()):
            elem = self.circuit.element(name)
            if getattr(elem, "n_branches", 0) < 1:
                raise TypeError(f"{name!r} carries no branch current "
                                f"(not a voltage source)")
            branch_indices[name] = elem.branch_index()
        rec_raw = np.array([asm.index.get(node, -1) for node in record_nodes],
                           dtype=np.intp)
        self.rec_idx = np.where(rec_raw < 0, asm.n, rec_raw)
        self.branch_names = list(branch_indices)
        self.branch_idx = np.array(
            [branch_indices[name] for name in self.branch_names],
            dtype=np.intp)
        self.trace_mat = np.empty((len(record_nodes), n_steps + 1))
        self.branch_mat = np.empty((len(self.branch_names), n_steps + 1))
        self._ext = np.empty(asm.n + 1)
        self._ext[asm.n] = 0.0

    def capture(self, k: int, vec: np.ndarray) -> None:
        n = self.assembler.n
        self._ext[:n] = vec
        self.trace_mat[:, k] = self._ext[self.rec_idx]
        if len(self.branch_names):
            self.branch_mat[:, k] = vec[self.branch_idx]

    def capture_all(self, x_all: np.ndarray) -> None:
        """Vectorised capture of a full linear-march trajectory (mirrors
        the serial engine's gather, values and all)."""
        n_pts = x_all.shape[0]
        x_ext = np.hstack([x_all, np.zeros((n_pts, 1))])
        self.trace_mat[:, :] = x_ext[:, self.rec_idx].T
        if len(self.branch_names):
            self.branch_mat[:, :] = x_all[:, self.branch_idx].T

    def result(self, times: np.ndarray, n_steps: int, method: str,
               engine: str, batch_k: int) -> TransientResult:
        traces = {node: self.trace_mat[i]
                  for i, node in enumerate(self.record_nodes)}
        branch_traces = {name: self.branch_mat[i]
                         for i, name in enumerate(self.branch_names)}
        result = TransientResult(times, traces,
                                 circuit_name=self.circuit.name,
                                 branch_samples=branch_traces)
        result.stats = dict(self.state.stats, engine=engine,
                            n_steps=n_steps, method=method, fast_path=True,
                            batch_k=batch_k)
        return result


class BatchedMarch:
    """March K faulty circuit variants in lockstep over one time grid.

    Parameters mirror :func:`repro.spice.transient.transient` (with the
    initial point always seeded from each variant's DC operating point —
    the fault-campaign convention).  :meth:`run` returns one
    :class:`~repro.spice.transient.TransientResult` per input circuit,
    or ``None`` for variants the batch had to evict; :attr:`failures`
    maps evicted slots to a reason string.  Callers are expected to
    re-run ``None`` slots through the serial engine, which reproduces
    the serial outcome (or the serial exception) exactly.
    """

    def __init__(self, circuits: Sequence[Circuit], t_stop: float, dt: float,
                 record: Optional[Sequence[str]] = None,
                 record_branches: Optional[Sequence[str]] = None,
                 method: str = "be",
                 max_newton: int = 60,
                 max_subdivisions: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 validate: bool = True) -> None:
        if t_stop <= 0:
            raise ValueError("t_stop must be positive")
        if dt <= 0 or dt > t_stop:
            raise ValueError("dt must lie in (0, t_stop]")
        if method not in ("be", "trap"):
            raise ValueError(f"unknown method {method!r}")
        policy = retry_policy if retry_policy is not None else active_policy()
        if max_subdivisions is None:
            max_subdivisions = policy.max_timestep_halvings
        self.t_stop = t_stop
        self.dt = dt
        self.record = record
        self.record_branches = record_branches
        self.method = method
        self.max_newton = max_newton
        self.max_subdivisions = max_subdivisions
        self.validate = validate
        #: evicted slot -> reason (the serial re-run owns the real error)
        self.failures: Dict[int, str] = {}

        self.n_steps = int(round(t_stop / dt))
        if abs(self.n_steps * dt - t_stop) > 1e-9 * max(abs(t_stop), dt):
            warnings.warn(
                f"t_stop={t_stop:g} is not an integer multiple of dt={dt:g}; "
                f"the march covers {self.n_steps} steps ending at "
                f"t={self.n_steps * dt:g}, not t_stop",
                GridMismatchWarning, stacklevel=3)
        self.times = dt * np.arange(self.n_steps + 1)
        self.variants: List[_Variant] = [
            _Variant(slot, circuit) for slot, circuit in enumerate(circuits)]

    # ------------------------------------------------------------------
    def _evict(self, variant: _Variant, reason: str) -> None:
        self.failures[variant.slot] = reason
        if OBS.enabled:
            OBS.metrics.counter("batched.evictions").inc()
            event("batched.eviction", level="info",
                  circuit=variant.circuit.name, reason=reason)

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[TransientResult]]:
        """March every variant; see the class docstring for semantics."""
        results: List[Optional[TransientResult]] = [None] * len(self.variants)
        if OBS.enabled:
            m = OBS.metrics
            m.counter("batched.march_runs").inc()
            m.counter("batched.march_variants").inc(len(self.variants))

        # --- per-variant setup + DC operating point -------------------
        live: List[_Variant] = []
        for v in self.variants:
            try:
                if self.validate:
                    validate_deck(v.circuit)
                v.bind(self.record, self.record_branches, self.method,
                       self.n_steps)
                state = v.state
                state.dt = None
                state.t = 0.0
                v.x = _solve_with_homotopy(v.assembler, state,
                                           max_iter=self.max_newton * 2)
            except Exception as exc:  # noqa: BLE001 - evict, serial re-runs
                self._evict(v, f"{type(exc).__name__}: {exc}")
                continue
            v.capture(0, v.x)
            state.gmin = 1e-12
            state.source_scale = 1.0
            live.append(v)

        # --- route split ----------------------------------------------
        lockstep_groups, solo_linear, newton_route = self._route(live)

        for group in lockstep_groups:
            self._run_linear_group(group, results)
        for v in solo_linear:
            self._run_solo_linear(v, results)
        if newton_route:
            self._run_newton_route(newton_route, results)
        return results

    # ------------------------------------------------------------------
    def _route(self, live: List[_Variant]):
        """Split live variants into dense lockstep linear groups, solo
        (sparse) linear marches, and the generic Newton route."""
        newton_route: List[_Variant] = []
        solo_linear: List[_Variant] = []
        linear: List[_Variant] = []
        for v in live:
            if not linear_march_supported(v.circuit, self.method):
                newton_route.append(v)
            elif v.assembler.use_sparse:
                solo_linear.append(v)
            else:
                try:
                    v.march = LinearMarch(v.assembler, dt=self.dt, gmin=1e-12)
                except np.linalg.LinAlgError:
                    # serial falls back to the generic Newton loop here
                    newton_route.append(v)
                    continue
                linear.append(v)
        groups: Dict[Tuple, List[_Variant]] = {}
        for v in linear:
            sig = (v.march.n, tuple(id(value) for _c, value in v.march._tv))
            groups.setdefault(sig, []).append(v)
        return list(groups.values()), solo_linear, newton_route

    # ------------------------------------------------------------------
    def _run_linear_group(self, group: List[_Variant],
                          results: List[Optional[TransientResult]]) -> None:
        """Lockstep the linear recurrence over a same-size group.

        Per step the serial march computes ``np.dot(A_i, x_i)`` per
        variant; here one ``matmul`` applies every variant's ``A`` at
        once — slice-for-slice the same LAPACK arithmetic, so the
        trajectories are bitwise identical to K serial marches.
        """
        k_var = len(group)
        n = group[0].march.n
        n_pts = self.n_steps + 1
        a = np.stack([v.march._a_mat for v in group])
        const = np.stack([v.march._const for v in group])
        tv_values = [value for _c, value in group[0].march._tv]
        tv_cols = [np.stack([v.march._tv[j][0] for v in group])
                   for j in range(len(tv_values))]
        x_all = np.empty((k_var, n_pts, n))
        x = np.stack([v.x for v in group])
        x_all[:, 0] = x
        times = self.times
        for k in range(1, n_pts):
            if DEADLINE.active is not None and not (k & 0xFF):
                DEADLINE.active.check("batched linear march")
            x_new = np.matmul(a, x[:, :, None])[:, :, 0]
            x_new += const
            if tv_values:
                t = times[k]
                for j, value in enumerate(tv_values):
                    x_new += evaluate_source(value, t) * tv_cols[j]
            x_all[:, k] = x_new
            x = x_new
        if OBS.enabled:
            OBS.metrics.counter("batched.lockstep_groups").inc()
            OBS.metrics.counter("batched.lockstep_steps").inc(
                k_var * (n_pts - 1))
        for i, v in enumerate(group):
            if not np.all(np.isfinite(x_all[i])):
                # serial would fall back to the generic Newton loop;
                # the serial re-run reproduces that path exactly
                if OBS.enabled:
                    OBS.metrics.counter(
                        "fastpath.linear_march_breakdowns").inc()
                self._evict(v, "linear march breakdown (non-finite)")
                continue
            if OBS.enabled:
                m = OBS.metrics
                m.counter("fastpath.linear_march_runs").inc()
                m.counter("fastpath.linear_march_steps").inc(n_pts - 1)
                m.counter("mna.lu_reuses").inc(n_pts - 1)
                m.counter("transient.runs").inc()
                m.counter("transient.steps").inc(n_pts - 1)
            v.capture_all(x_all[i])
            results[v.slot] = v.result(self.times, self.n_steps, self.method,
                                       engine="batched_linear_march",
                                       batch_k=k_var)

    # ------------------------------------------------------------------
    def _run_solo_linear(self, v: _Variant,
                         results: List[Optional[TransientResult]]) -> None:
        """March one sparse-route linear variant individually (the dense
        tensor lockstep does not apply, but the variant still rides in
        the batch for campaign chunking/timeout purposes)."""
        x_all = _run_linear_march(v.assembler, v.x, self.times)
        if x_all is None:
            self._evict(v, "sparse linear march unavailable")
            return
        if OBS.enabled:
            OBS.metrics.counter("transient.runs").inc()
            OBS.metrics.counter("transient.steps").inc(self.n_steps)
        v.capture_all(x_all)
        results[v.slot] = v.result(self.times, self.n_steps, self.method,
                                   engine="sparse_linear_march", batch_k=1)

    # ------------------------------------------------------------------
    def _run_newton_route(self, variants: List[_Variant],
                          results: List[Optional[TransientResult]]) -> None:
        """Step-synchronised generic route, one grid point at a time
        across the batch.  Lockstep-eligible variants (see
        :meth:`_newton_groups`) advance per same-size group through
        :class:`_NewtonGroup`; the rest advance one by one through the
        serial engine's own ``_advance`` (Newton damping, LU reuse,
        subdivision recursion and all)."""
        groups, solo = self._newton_groups(variants)
        times = self.times
        for k in range(1, self.n_steps + 1):
            if not (solo or any(group.live for group in groups)):
                break
            if DEADLINE.active is not None:
                DEADLINE.active.check("batched transient march")
            t_target = float(times[k])
            t_from = t_target - self.dt
            for group in groups:
                group.advance(self, k, t_from, t_target)
            for v in list(solo):
                state = v.state
                state.method = ("be" if (self.method == "trap" and k == 1)
                                else self.method)
                try:
                    v.x = _advance(v.assembler, state, v.capacitors, v.x,
                                   t_from=t_from, t_to=t_target,
                                   max_newton=self.max_newton,
                                   depth=self.max_subdivisions)
                except NewtonError as exc:
                    self._evict(v, f"NewtonError: {exc}")
                    solo.remove(v)
                    continue
                v.capture(k, v.x)
        for v in variants:
            if v.slot in self.failures:
                continue
            if OBS.enabled:
                OBS.metrics.counter("transient.runs").inc()
                OBS.metrics.counter("transient.steps").inc(self.n_steps)
            results[v.slot] = v.result(self.times, self.n_steps, self.method,
                                       engine="batched_newton",
                                       batch_k=len(variants))

    def _newton_groups(self, variants: List[_Variant]
                       ) -> Tuple[List["_NewtonGroup"], List[_Variant]]:
        """Split Newton-route variants into lockstep groups and the
        per-variant rest.  A variant can lockstep when it marches by
        backward Euler on the dense route and its only nonlinear
        elements are plain MOSFETs (the vectorised group); groups share
        the MNA size ``n``."""
        by_size: Dict[int, List[_Variant]] = {}
        solo: List[_Variant] = []
        for v in variants:
            asm = v.assembler
            if (self.method == "be" and not asm.use_sparse
                    and asm._mosfet_group is not None
                    and not asm._nonlinear_elems):
                by_size.setdefault(asm.n, []).append(v)
            else:
                solo.append(v)
        groups = [_NewtonGroup(group) for group in by_size.values()]
        if OBS.enabled and groups:
            OBS.metrics.counter("batched.lockstep_groups").inc(len(groups))
        return groups, solo


class _NewtonGroup:
    """Newton lockstep over same-size MOSFET variants.

    Each Newton iteration builds every pending variant's linear part
    into its own assembler scratch system — rebound here to one slice of
    a ``(K, n, n)`` matrix stack — then evaluates and stamps all K
    variants' devices with one stacked :class:`MOSFETGroup`, and solves
    each variant through its own :meth:`MNASystem.solve_fast`.  Damping,
    convergence and stall tests are the serial
    :class:`~repro.spice.solver.NewtonProgress`, per variant; a variant
    whose solve fails leaves the lockstep for this grid point and
    halves its step through the serial ``_subdivide``.
    """

    def __init__(self, variants: List[_Variant]) -> None:
        n = variants[0].assembler.n
        k_var = len(variants)
        self.live = list(variants)
        self.row = {v.slot: i for i, v in enumerate(variants)}
        self.g = np.zeros((k_var, n, n))
        self.b = np.zeros((k_var, n))
        self.x = np.zeros((k_var, n))
        self.x_prev = np.zeros((k_var, n))
        for i, v in enumerate(variants):
            sys = v.assembler._scratch
            sys.g, sys.b = self.g[i], self.b[i]
        self.mosfets = MOSFETGroup(
            [v.assembler._mosfet_group.devices for v in variants], n)

    def advance(self, march: BatchedMarch, k: int, t_from: float,
                t_to: float) -> None:
        """Advance every live variant to grid point ``k`` (``t_to``)."""
        live = self.live
        if not live:
            return
        for v in live:
            _begin_step(v.state, v.x, t_from, t_to)
            self.x_prev[self.row[v.slot]] = v.x
        outcomes = self._newton(live, march.max_newton)
        for v, out in zip(list(live), outcomes):
            if isinstance(out, NewtonError):
                try:
                    v.x = _subdivide(v.assembler, v.state, v.capacitors, v.x,
                                     t_from, t_to, march.max_newton,
                                     march.max_subdivisions, out)
                except NewtonError as exc:
                    march._evict(v, f"NewtonError: {exc}")
                    live.remove(v)
                    continue
            else:
                _end_step(v.state, v.capacitors, out)
                v.x = out
            v.capture(k, v.x)
        if OBS.enabled:
            OBS.metrics.counter("batched.lockstep_steps").inc(len(outcomes))

    def _newton(self, live: List[_Variant], max_iter: int) -> list:
        """One Newton solve per live variant, in lockstep; returns each
        variant's solution or its :class:`NewtonError`."""
        progress = []
        for v in live:
            x = np.array(v.x, dtype=float)
            v.state.x = x
            progress.append(NewtonProgress(x, stall_check=True))
        outcomes: list = [None] * len(live)
        pending = list(range(len(live)))
        dt = live[0].state.dt
        iteration = 0
        for iteration in range(1, max_iter + 1):
            if not pending:
                return outcomes
            if DEADLINE.active is not None:
                DEADLINE.active.check("newton_solve")
            for j in pending:
                v = live[j]
                v.assembler.build(v.state, mosfets=False)
                self.x[self.row[v.slot]] = progress[j].x
            self.mosfets.stamp(self.g, self.b, self.x, self.x_prev, dt)
            still = []
            for j in pending:
                v, p = live[j], progress[j]
                try:
                    converged = p.step(checked_solve(MNASystem.solve_fast,
                                                     v.assembler._scratch),
                                       VTOL)
                except NewtonError as exc:
                    note_solve(v.assembler, v.state, iteration, exc, p.stalled)
                    outcomes[j] = exc
                    continue
                v.state.x = p.x
                if converged:
                    note_solve(v.assembler, v.state, iteration)
                    outcomes[j] = p.x
                else:
                    still.append(j)
            pending = still
        for j in pending:
            exc = progress[j].budget_error(max_iter)
            note_solve(live[j].assembler, live[j].state, iteration, exc)
            outcomes[j] = exc
        return outcomes


def batched_transient(circuits: Sequence[Circuit], t_stop: float, dt: float,
                      record: Optional[Sequence[str]] = None,
                      record_branches: Optional[Sequence[str]] = None,
                      method: str = "be",
                      max_newton: int = 60,
                      max_subdivisions: Optional[int] = None,
                      retry_policy: Optional[RetryPolicy] = None,
                      validate: bool = True
                      ) -> List[Optional[TransientResult]]:
    """Run K transients in lockstep; results align with ``circuits``.

    Entries are ``None`` for variants the batch evicted (see
    :class:`BatchedMarch`); callers re-run those through
    :func:`repro.spice.transient.transient` for the exact serial
    verdict.
    """
    march = BatchedMarch(circuits, t_stop, dt, record=record,
                         record_branches=record_branches, method=method,
                         max_newton=max_newton,
                         max_subdivisions=max_subdivisions,
                         retry_policy=retry_policy, validate=validate)
    return march.run()
