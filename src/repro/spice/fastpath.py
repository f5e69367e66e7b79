"""Fast-path machinery for the MNA engine.

Everything here reproduces the reference engine to within
floating-point reassociation (the equivalence suite pins it at 1e-9 V):

* :class:`MOSFETGroup` — vectorised square-law evaluation and scatter
  stamping for the level-1 MOSFETs of one circuit (the assembler's
  Newton stamp) or of K same-size circuits (the batched engine's Newton
  lockstep).  One set of numpy operations per Newton iteration replaces
  the per-device Python ``stamp()`` loop; the state-independent
  gate-capacitance conductances are hoisted into the assembler's cached
  static matrix.
* the linear transient march — under backward Euler a fully linear
  circuit's per-step solve ``G x_k = E x_{k-1} + b_src(t_k)`` has a
  constant ``G``, so one factorisation serves the whole march.
  :class:`LinearMarch` pre-multiplies by a dense ``G^-1``
  (``x_k = A x_{k-1} + sum_s level_s(t_k) c_s``, one BLAS-2 matvec per
  step); :func:`recur` is the step loop it shares with the batched
  engine's stacked march, and :func:`count_march` checks and counts
  every finished march.
* :func:`linear_march_supported` — the eligibility test the march core
  in :mod:`repro.spice.transient` uses to pick the linear route.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.core import OBS
from repro.resilience.deadline import DEADLINE
from repro.spice.elements import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
    evaluate_source,
)


class MOSFETGroup:
    """Vectorised Newton stamping for the level-1 MOSFETs of K circuits.

    The group pre-computes device-parameter arrays and scatter index
    arrays at assembly time; each Newton iteration is then a fixed
    sequence of numpy operations over all devices at once.  The device
    equations mirror :meth:`repro.spice.mosfet.MOSFET._small_signal`
    operation for operation so the per-device values are bitwise
    identical to the scalar path — only the order in which contributions
    are summed into shared matrix entries differs.

    ``variants`` holds one device list per circuit, all of MNA size
    ``n``.  An assembler stamps its own circuit through a K = 1 group;
    the batched engine stacks K same-size circuits into one group whose
    tables address a ``(K, n, n)`` matrix stack with per-variant
    offsets.  Each variant's entries keep their serial order, and
    :func:`numpy.add.at` sums repeated indices in table order, so every
    stacked ``G``/``b`` entry is bitwise the K = 1 sum.
    """

    def __init__(self, variants: Sequence[Sequence], n: int) -> None:
        self.devices = [dev for devices in variants for dev in devices]
        self.n = n
        k_var = len(variants)
        devices = self.devices
        nd = len(devices)
        self.pol = np.array([d.params.polarity for d in devices], dtype=float)
        self.vto = np.array([d.params.vto for d in devices])
        self.beta = np.array([d.beta for d in devices])
        self.lam = np.array([d.params.lam for d in devices])
        self.g_leak = np.array([d.params.g_leak for d in devices])
        # Per-device variant offsets into the flattened stacks: solution
        # vectors extended by a ground slot (n + 1 each), matrices (n*n)
        # and right-hand sides (n).
        var = np.repeat(np.arange(k_var),
                        [len(devices) for devices in variants])
        x_off, g_off, b_off = var * (n + 1), var * (n * n), var * n

        idx = np.array([d._idx for d in devices],
                       dtype=np.intp).reshape(nd, 3)  # d, g, s
        # Gather indices: ground (-1) is redirected to a zero slot at
        # position n of each extended solution vector.  The transposed
        # flat layout [all d | all g | all s] lets one fancy-index pull
        # every terminal voltage at once.
        gather = np.where(idx < 0, n, idx) + x_off[:, None]
        self._gather_t = gather.T.copy().ravel()
        self._xext = np.zeros((k_var, n + 1))
        self._pext = np.zeros((k_var, n + 1))
        self._jbuf = np.empty(3 * nd)

        # --- Jacobian scatter table -----------------------------------
        # Per device, the scalar stamp adds, for col in (d, g, s):
        #   G[d, col] += dI/dcol ;  G[s, col] -= dI/dcol
        # kind 0/1/2 selects dI/dvd, dI/dvg, dI/dvs.
        g_flat, kinds, devs, signs = [], [], [], []
        for i, (d, g, s) in enumerate(idx):
            for kind, col in enumerate((d, g, s)):
                for row, sign in ((d, 1.0), (s, -1.0)):
                    if row >= 0 and col >= 0:
                        g_flat.append(g_off[i] + row * n + col)
                        kinds.append(kind)
                        devs.append(i)
                        signs.append(sign)
        self._g_flat = np.array(g_flat, dtype=np.intp)
        # J is laid out as concatenate((dI/dvd, dI/dvg, dI/dvs)).
        self._j_gather = np.array(kinds, dtype=np.intp) * nd + np.array(devs, dtype=np.intp)
        self._j_signs = np.array(signs)

        # --- RHS scatter table (companion current d -> s) --------------
        # add_current(d, s, ieq):  b[d] -= ieq ;  b[s] += ieq
        b_idx, b_signs, b_devs = [], [], []
        for i, (d, _g, s) in enumerate(idx):
            for row, sign in ((d, -1.0), (s, 1.0)):
                if row >= 0:
                    b_idx.append(b_off[i] + row)
                    b_signs.append(sign)
                    b_devs.append(i)
        self._b_idx = np.array(b_idx, dtype=np.intp)
        self._b_signs = np.array(b_signs)
        self._b_devs = np.array(b_devs, dtype=np.intp)

        # --- Gate capacitances ----------------------------------------
        # Two linear capacitors per device: (g, s, Cgs) and (g, d, Cgd).
        # Their conductance geq = C/dt is state-independent (static for a
        # fixed dt); their companion current depends on x_prev (per step).
        cap_a, cap_b, cap_c, cap_dev = [], [], [], []
        for i, dev in enumerate(devices):
            d, g, s = idx[i]
            for a, b, c in ((g, s, dev.params.cgs_per_area * dev.w * dev.l),
                            (g, d, dev.params.cgd_overlap * dev.w)):
                if c > 0.0:
                    cap_a.append(a)
                    cap_b.append(b)
                    cap_c.append(c)
                    cap_dev.append(i)
        self._cap_c = np.array(cap_c)
        cap_x_off = x_off[np.array(cap_dev, dtype=np.intp)]
        for name, nodes in (("_cap_ga", cap_a), ("_cap_gb", cap_b)):
            nodes = np.array(nodes, dtype=np.intp)
            setattr(self, name, np.where(nodes < 0, n, nodes) + cap_x_off)
        # Conductance scatter: (a,a)+, (b,b)+, (a,b)-, (b,a)-.
        cg_flat, cg_signs, cg_caps = [], [], []
        for k in range(len(cap_c)):
            a, b, off = cap_a[k], cap_b[k], g_off[cap_dev[k]]
            for r, c, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                if r >= 0 and c >= 0:
                    cg_flat.append(off + r * n + c)
                    cg_signs.append(sign)
                    cg_caps.append(k)
        self._cg_flat = np.array(cg_flat, dtype=np.intp)
        self._cg_signs = np.array(cg_signs)
        self._cg_caps = np.array(cg_caps, dtype=np.intp)
        # Companion-current scatter: add_current(a, b, -geq*v_prev) puts
        # +geq*v_prev at a and -geq*v_prev at b.
        cb_idx, cb_signs, cb_caps = [], [], []
        for k in range(len(cap_c)):
            for node, sign in ((cap_a[k], 1.0), (cap_b[k], -1.0)):
                if node >= 0:
                    cb_idx.append(b_off[cap_dev[k]] + node)
                    cb_signs.append(sign)
                    cb_caps.append(k)
        self._cb_idx = np.array(cb_idx, dtype=np.intp)
        self._cb_signs = np.array(cb_signs)
        self._cb_caps = np.array(cb_caps, dtype=np.intp)

    # ------------------------------------------------------------------
    def stamp_static(self, g_mat: np.ndarray, state) -> None:
        """Stamp the gate-capacitance conductances (transient only)."""
        if state.dt is None or len(self._cap_c) == 0:
            return
        geq = self._cap_c / state.dt
        np.add.at(g_mat.ravel(), self._cg_flat, self._cg_signs * geq[self._cg_caps])

    def stamp_newton(self, sys, state) -> None:
        """Stamp one circuit's square-law Jacobian/companions plus
        gate-cap RHS into its system (a K = 1 group)."""
        self.stamp(sys.g, sys.b, state.x, state.x_prev, state.dt)

    def stamp(self, g: np.ndarray, b: np.ndarray, x: np.ndarray,
              x_prev: np.ndarray, dt) -> None:
        """Stamp every variant at once: ``g`` is the C-contiguous
        ``(K, n, n)`` (or, for K = 1, ``(n, n)``) matrix stack, ``b``
        and ``x``/``x_prev`` the matching right-hand sides and Newton
        estimates; ``dt is None`` means DC (no gate-cap companions)."""
        nd = len(self.devices)
        xext = self._xext
        xext[:, :self.n] = x
        v_all = xext.ravel()[self._gather_t]
        vd, vg, vs = v_all[:nd], v_all[nd:2 * nd], v_all[2 * nd:]
        i0, di_dd, di_dg, di_ds = self._small_signal(vd, vg, vs)
        jac = np.concatenate((di_dd, di_dg, di_ds), out=self._jbuf)
        np.add.at(g.reshape(-1), self._g_flat,
                  self._j_signs * jac[self._j_gather])
        ieq = i0 - (di_dd * vd + di_dg * vg + di_ds * vs)
        b_flat = b.reshape(-1)
        np.add.at(b_flat, self._b_idx, self._b_signs * ieq[self._b_devs])
        if dt is not None and len(self._cap_c):
            pext = self._pext
            pext[:, :self.n] = x_prev
            pext_flat = pext.ravel()
            v_prev = pext_flat[self._cap_ga] - pext_flat[self._cap_gb]
            flow = (self._cap_c / dt) * v_prev
            np.add.at(b_flat, self._cb_idx, self._cb_signs * flow[self._cb_caps])

    def _small_signal(self, vd, vg, vs):
        """Vectorised mirror of ``MOSFET._small_signal``.

        The triode/saturation branches collapse into one expression via
        the effective drain swing ``vde = min(vds, vov)``: with
        ``vde = vds`` the formulas are the triode ones, with
        ``vde = vov`` they reduce to the saturation ones (the
        channel-length-modulation factor uses the true ``vds`` in both
        regions, as the scalar model does).
        """
        pol = self.pol
        vd_n, vg_n, vs_n = pol * vd, pol * vg, pol * vs
        swapped = vd_n < vs_n
        d = np.maximum(vd_n, vs_n)
        s = np.minimum(vd_n, vs_n)
        vgs = vg_n - s
        vds = d - s
        vov = vgs - self.vto
        beta, lam = self.beta, self.lam
        vde = np.minimum(vds, vov)
        one_lam = lam * vds
        one_lam += 1.0
        parab = (vov - 0.5 * vde) * vde
        bparab = beta * parab
        ids = bparab * one_lam
        gm = beta * vde * one_lam
        gds = beta * (vov - vde) * one_lam + bparab * lam
        active = vov > 0.0
        ids *= active
        gm *= active
        gds *= active
        ids += self.g_leak * vds
        gds += self.g_leak
        # Terminal-frame Jacobian; `swapped` devices see the external
        # drain as internal source (see MOSFET._small_signal).
        sgn = 1.0 - 2.0 * swapped
        gm_gds = gm + gds
        di_dd = gds + swapped * gm
        di_dg = sgn * gm
        di_ds = -(gm_gds - swapped * gm)
        i0 = (pol * sgn) * ids
        return i0, di_dd, di_dg, di_ds


# ----------------------------------------------------------------------
# Linear transient march
# ----------------------------------------------------------------------

#: Element classes whose semantics the linear march reproduces exactly.
#: Exact-type matching is deliberate: a subclass may override ``stamp``
#: with behaviour the recurrence does not model.
_MARCH_TYPES = (Resistor, Capacitor, Inductor, VoltageSource, CurrentSource,
                VCVS, VCCS)


def linear_march_supported(circuit, method: str) -> bool:
    """True when :class:`LinearMarch` reproduces the generic engine."""
    if method != "be":
        return False
    return all(type(e) in _MARCH_TYPES for e in circuit.elements)


def recur(step: Callable[[np.ndarray, np.ndarray], Any],
          x_all: np.ndarray, const: np.ndarray,
          tv: Sequence[Tuple[np.ndarray, object]], grid: Any,
          label: str) -> None:
    """Fill ``x_all[1:]`` with ``x_k = step(x_{k-1}) + const +
    sum_s level_s(t_k) c_s`` from ``x_all[0]`` over the
    :class:`~repro.spice.transient.MarchGrid` ``grid``, where
    ``step(x, out)`` writes the coupling term into ``out``.  One loop
    serves the K = 1 march and the batched ``(K, n)`` stack, so each
    grid point adds the same terms in the same order on both routes.
    Each Waveform source is read from the grid's one vector sampling
    (:meth:`~repro.spice.transient.MarchGrid.levels`); other callables
    are evaluated per point."""
    times = grid.times
    sources = [(col, value, grid.levels(value)) for col, value in tv]
    # Cooperative cancellation: once after the march's setup (its
    # factorisation may have used up the budget), then amortised to one
    # clock read per 256 recurrence steps so the hot loop stays hot.
    if DEADLINE.active is not None:
        DEADLINE.active.check(label)
    x = x_all[0]
    for k in range(1, len(times)):
        if DEADLINE.active is not None and not (k & 0xFF):
            DEADLINE.active.check(label)
        row = x_all[k]
        step(x, row)
        row += const
        for col, value, levels in sources:
            level = (evaluate_source(value, times[k]) if levels is None
                     else levels[k])
            row += level * col
        x = row


def count_march(x_all: np.ndarray) -> bool:
    """Count one finished recurrence march of ``len(x_all) - 1`` steps;
    ``False`` means it broke down (a non-finite sample) and the caller
    falls back to the generic engine."""
    if not np.all(np.isfinite(x_all)):
        if OBS.enabled:
            OBS.metrics.counter("fastpath.linear_march_breakdowns").inc()
        return False
    if OBS.enabled:
        m = OBS.metrics
        steps = len(x_all) - 1
        m.counter("fastpath.linear_march_runs").inc()
        m.counter("fastpath.linear_march_steps").inc(steps)
        # Each recurrence step is one application of the march's
        # single factorisation — the fast path's reuse currency.
        m.counter("mna.lu_reuses").inc(steps)
    return True


class LinearMarch:
    """One-factorisation transient recurrence for linear circuits.

    Backward-Euler companion models make each step a solve of
    ``G x_k = E x_{k-1} + b_src(t_k)`` with constant ``G`` and ``E``
    collecting the capacitor/inductor companion coupling to the previous
    solution.  Pre-multiplying by ``G^-1`` once turns the march into a
    matrix-vector recurrence ``x_k = A x_{k-1} + sum_s level_s(t_k) c_s``
    with ``A = G^-1 E`` and source columns ``c_s = G^-1 e_s``.

    Raises :class:`numpy.linalg.LinAlgError` at construction when ``G``
    is singular — callers fall back to the generic engine, which raises
    the same :class:`~repro.spice.solver.NewtonError` the reference
    engine would.
    """

    def __init__(self, assembler, dt: float, gmin: float) -> None:
        n = self.n = assembler.n
        circuit = assembler.circuit
        state = assembler.new_state()
        state.dt, state.method, state.gmin = dt, "be", gmin
        g_inv = np.linalg.inv(assembler.static_matrix(state))
        if not np.all(np.isfinite(g_inv)):
            raise np.linalg.LinAlgError("singular MNA matrix")
        if OBS.enabled:
            OBS.metrics.counter("mna.lu_factorizations").inc()
        # E: a capacitor's companion add_current(a, b, -geq * v_prev)
        # puts the conductance pattern of geq on x_prev; an inductor's
        # branch row j carries -(L/dt) * I_prev on its own current.
        e_mat = np.zeros((n, n))
        for cap in circuit.elements_of_type(Capacitor):
            a, b = cap._idx
            geq = cap.capacitance / dt
            for r, c, sign in ((a, a, 1.0), (b, b, 1.0),
                               (a, b, -1.0), (b, a, -1.0)):
                if r >= 0 and c >= 0:
                    e_mat[r, c] += sign * geq
        for ind in circuit.elements_of_type(Inductor):
            j = ind.branch_index()
            e_mat[j, j] += -ind.inductance / dt
        self._a_mat = g_inv @ e_mat
        # c_s for e_s = +1 on a voltage source's branch row, or -1/+1 on
        # the nodes a current source drives from/into; constant sources
        # fold into one summed column.
        self._const = np.zeros(n)
        self._tv: List[Tuple[np.ndarray, object]] = []
        for elem in circuit.elements:
            if isinstance(elem, VoltageSource):
                pattern = ((elem.branch_index(), 1.0),)
            elif isinstance(elem, CurrentSource):
                pattern = zip(elem._idx, (-1.0, 1.0))
            else:
                continue
            col = np.zeros(n)
            for i, sign in pattern:
                if i >= 0:
                    col += sign * g_inv[:, i]
            if isinstance(elem.value, (int, float)):
                self._const += float(elem.value) * col
            else:
                self._tv.append((col, elem.value))

    def run(self, x0: np.ndarray, grid: Any) -> Optional[np.ndarray]:
        """March the recurrence over the
        :class:`~repro.spice.transient.MarchGrid` ``grid``; rows of the
        result are the solutions at ``grid.times``.  Returns ``None`` on
        numerical breakdown (caller falls back to the generic engine)."""
        x_all = np.empty((len(grid.times), self.n))
        x_all[0] = x0
        recur(functools.partial(np.dot, self._a_mat), x_all, self._const,
              self._tv, grid, "linear march")
        return x_all if count_march(x_all) else None
