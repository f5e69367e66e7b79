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
on each variant individually, because both engines share one march
core: each variant is a :class:`~repro.spice.transient.CircuitMarch` on
the same :class:`~repro.spice.transient.MarchGrid` (set-up, recording,
step span, subdivision and result build are the serial code), and

* the batched linear recurrence runs the serial
  :func:`~repro.spice.fastpath.recur` loop over a ``(K, n)`` stack whose
  coupling term is ``matmul((K, n, n), (K, n, 1))``, which LAPACK/BLAS
  computes per slice exactly as the serial march's
  ``np.dot((n, n), (n,))`` (verified empirically in the test suite);
* Newton lockstep groups stamp every variant's transistors through one
  stacked :class:`~repro.spice.fastpath.MOSFETGroup` whose per-variant
  tables are the serial K = 1 tables at an offset, so each ``G``/``b``
  entry sums the same values in the same order as the serial build
  (:func:`numpy.add.at` is unbuffered and applies repeated indices in
  order); each variant then solves through its own
  :meth:`~repro.spice.mna.MNASystem.solve_fast` (LU reuse included),
  applies the serial :class:`~repro.spice.solver.NewtonProgress`
  damping, convergence and stall tests, and on failure halves its step
  through the serial :meth:`~repro.spice.transient.CircuitMarch.subdivide`;
* every other nonlinear variant advances through the serial
  :meth:`~repro.spice.transient.CircuitMarch.step` itself;
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
base circuit's stimulus) form a lockstep tensor group.  Backward-Euler
variants whose only nonlinear elements are plain MOSFETs
form a Newton lockstep group; everything else marches per-variant in
the shared step loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.core import OBS, event
from repro.resilience.deadline import DEADLINE
from repro.spice.fastpath import (MOSFETGroup, count_march,
                                  linear_march_supported, recur)
from repro.spice.mna import MNASystem
from repro.spice.netlist import Circuit
from repro.spice.solver import (
    NewtonError,
    NewtonProgress,
    checked_solve,
    note_solve,
)
from repro.spice.transient import (
    CircuitMarch,
    MarchGrid,
    TransientResult,
)
from repro.spice.validate import validate_deck

__all__ = ["BatchedMarch", "batched_transient"]


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
                 validate: bool = True) -> None:
        self.circuits = list(circuits)
        self.grid = MarchGrid(t_stop, dt, method)
        self.grid.check_end(self.circuits[0].name if self.circuits else "")
        self.record = record
        self.record_branches = record_branches
        self.validate = validate
        #: evicted slot -> reason (the serial re-run owns the real error)
        self.failures: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def _evict(self, slot: int, reason: str) -> None:
        self.failures[slot] = reason
        if OBS.enabled:
            OBS.metrics.counter("batched.evictions").inc()
            event("batched.eviction", level="info",
                  circuit=self.circuits[slot].name, reason=reason)

    def _finish(self, results: List[Optional[TransientResult]],
                v: CircuitMarch, engine: str, batch_k: int) -> None:
        if OBS.enabled:
            OBS.metrics.counter("transient.runs").inc()
            OBS.metrics.counter("transient.steps").inc(self.grid.n_steps)
        results[v.slot] = v.result(engine, batch_k=batch_k)

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[TransientResult]]:
        """March every variant; see the class docstring for semantics."""
        results: List[Optional[TransientResult]] = [None] * len(self.circuits)
        if OBS.enabled:
            m = OBS.metrics
            m.counter("batched.march_runs").inc()
            m.counter("batched.march_variants").inc(len(self.circuits))

        # --- per-variant setup + DC operating point -------------------
        live: List[CircuitMarch] = []
        for slot, circuit in enumerate(self.circuits):
            try:
                if self.validate:
                    validate_deck(circuit)
                v = CircuitMarch(circuit, self.grid, self.record,
                                 self.record_branches, slot=slot)
                v.start()
            except Exception as exc:  # noqa: BLE001 - evict, serial re-runs
                self._evict(slot, f"{type(exc).__name__}: {exc}")
                continue
            live.append(v)

        # --- route split ----------------------------------------------
        lockstep_groups, newton_route = self._route(live)

        for group in lockstep_groups:
            self._run_linear_group(group, results)
        if newton_route:
            self._run_newton_route(newton_route, results)
        return results

    # ------------------------------------------------------------------
    def _route(self, live: List[CircuitMarch]):
        """Split live variants into lockstep linear groups (of
        ``(variant, recurrence)`` pairs) and the generic Newton route."""
        newton_route: List[CircuitMarch] = []
        groups: Dict[Tuple, List[Tuple[CircuitMarch, object]]] = {}
        for v in live:
            rec = (v.recurrence()
                   if linear_march_supported(v.circuit, self.grid.method)
                   else None)
            if rec is None:
                # serial runs the generic Newton loop here too
                newton_route.append(v)
                continue
            sig = (rec.n, tuple(id(value) for _c, value in rec._tv))
            groups.setdefault(sig, []).append((v, rec))
        return list(groups.values()), newton_route

    # ------------------------------------------------------------------
    def _run_linear_group(self, group: List[Tuple[CircuitMarch, object]],
                          results: List[Optional[TransientResult]]) -> None:
        """Lockstep the linear recurrence over a same-size group.

        Per step the serial march computes ``np.dot(A_i, x_i)`` per
        variant; here one ``matmul`` applies every variant's ``A`` at
        once — slice-for-slice the same LAPACK arithmetic, so the
        trajectories are bitwise identical to K serial marches.
        """
        k_var = len(group)
        recs = [rec for _v, rec in group]
        a = np.stack([rec._a_mat for rec in recs])
        const = np.stack([rec._const for rec in recs])
        tv = [(np.stack([rec._tv[j][0] for rec in recs]), value)
              for j, (_col, value) in enumerate(recs[0]._tv)]
        n_pts = self.grid.n_steps + 1
        x_all = np.empty((n_pts, k_var, recs[0].n))
        x_all[0] = np.stack([v.x for v, _rec in group])

        def step(x, out):
            np.matmul(a, x[:, :, None], out=out[:, :, None])

        recur(step, x_all, const, tv, self.grid, "batched linear march")
        if OBS.enabled:
            OBS.metrics.counter("batched.lockstep_groups").inc()
            OBS.metrics.counter("batched.lockstep_steps").inc(
                k_var * (n_pts - 1))
        for i, (v, _rec) in enumerate(group):
            if not count_march(x_all[:, i]):
                # serial would fall back to the generic Newton loop;
                # the serial re-run reproduces that path exactly
                self._evict(v.slot, "linear march breakdown (non-finite)")
                continue
            v.capture_all(x_all[:, i])
            self._finish(results, v, "batched_linear_march", batch_k=k_var)

    # ------------------------------------------------------------------
    def _run_newton_route(self, variants: List[CircuitMarch],
                          results: List[Optional[TransientResult]]) -> None:
        """Step-synchronised generic route, one grid point at a time
        across the batch.  Lockstep-eligible variants (see
        :meth:`_newton_groups`) advance per same-size group through
        :class:`_NewtonGroup`; the rest advance one by one through the
        serial engine's own :meth:`CircuitMarch.step` (Newton damping,
        LU reuse, subdivision recursion and all)."""
        groups, solo = self._newton_groups(variants)
        for k in range(1, self.grid.n_steps + 1):
            if not (solo or any(group.live for group in groups)):
                break
            if DEADLINE.active is not None:
                DEADLINE.active.check("batched transient march")
            for group in groups:
                group.advance(self, k)
            for v in list(solo):
                try:
                    v.step(k)
                except NewtonError as exc:
                    self._evict(v.slot, f"NewtonError: {exc}")
                    solo.remove(v)
        for v in variants:
            if v.slot not in self.failures:
                self._finish(results, v, "batched_newton",
                             batch_k=len(variants))

    def _newton_groups(self, variants: List[CircuitMarch]
                       ) -> Tuple[List["_NewtonGroup"], List[CircuitMarch]]:
        """Split Newton-route variants into lockstep groups and the
        per-variant rest.  A variant can lockstep when it marches by
        backward Euler and its only nonlinear elements are plain MOSFETs
        (the vectorised group); groups share the MNA size ``n``."""
        by_size: Dict[int, List[CircuitMarch]] = {}
        solo: List[CircuitMarch] = []
        for v in variants:
            asm = v.assembler
            if (self.grid.method == "be"
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
    halves its step through the serial :meth:`CircuitMarch.subdivide`.
    """

    def __init__(self, variants: List[CircuitMarch]) -> None:
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

    def advance(self, march: BatchedMarch, k: int) -> None:
        """Advance every live variant to grid point ``k``."""
        live = self.live
        if not live:
            return
        t_from, t_to = march.grid.step_span(k)
        for v in live:
            v.begin_step(v.x, t_from, t_to)
            self.x_prev[self.row[v.slot]] = v.x
        outcomes = self._newton(live, march.grid.newton_budget)
        for v, out in zip(list(live), outcomes):
            if isinstance(out, NewtonError):
                try:
                    v.x = v.subdivide(v.x, t_from, t_to,
                                      march.grid.max_depth, out)
                except NewtonError as exc:
                    march._evict(v.slot, f"NewtonError: {exc}")
                    live.remove(v)
                    continue
            else:
                v.end_step(out)
                v.x = out
            v.capture(k, v.x)
        if OBS.enabled:
            OBS.metrics.counter("batched.lockstep_steps").inc(len(outcomes))

    def _newton(self, live: List[CircuitMarch], max_iter: int) -> list:
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
                                                     v.assembler._scratch))
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
                         validate=validate)
    return march.run()
