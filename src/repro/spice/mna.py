"""MNA matrix assembly and simulation state shared by DC and transient.

The :class:`Assembler` carries the engine's central performance
optimisation: at construction every element is partitioned by its
``partition`` class attribute into *static* (stamps constant for a fixed
``(dt, method, gmin)`` configuration), *split* (a static G part plus a
per-step RHS part), *dynamic* (restamped every build) and *nonlinear*
(restamped every Newton iteration) groups.  The static portion of ``G``
— resistors, companion conductances, controlled-source patterns, the
gmin diagonal — is stamped once per configuration and memcpy'd into the
scratch system on every subsequent build, so a Newton iteration only
pays for sources, capacitor companion currents and the nonlinear
devices.  MOSFETs are additionally batched into a vectorised
:class:`~repro.spice.fastpath.MOSFETGroup`.

``Assembler(circuit, fast_path=False)`` disables all of this and
reproduces the original stamp-everything-per-iteration engine — the
reference the equivalence test suite compares against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import lapack as _lapack

from repro.obs.core import OBS
from repro.spice.netlist import Circuit, GROUND


class MNASystem:
    """The linear system ``G x = b`` rebuilt every Newton iteration.

    Row/column indices are MNA unknown indices; ``-1`` denotes ground and
    is silently skipped by the stamping helpers.  The matrices are
    allocated once and zeroed per iteration (:meth:`reset`) — the
    allocation, not the arithmetic, dominates small-circuit solves.
    """

    __slots__ = ("n", "g", "b", "_last_g", "_last_lu", "_last_piv")

    def __init__(self, n: int) -> None:
        self.n = n
        self.g = np.zeros((n, n))
        self.b = np.zeros(n)
        self._last_g: Optional[bytes] = None
        self._last_lu: Optional[np.ndarray] = None
        self._last_piv: Optional[np.ndarray] = None

    def reset(self) -> None:
        self.g[:] = 0.0
        self.b[:] = 0.0

    def add_g(self, i: int, j: int, value: float) -> None:
        if i >= 0 and j >= 0:
            self.g[i, j] += value

    def add_conductance(self, a: int, b: int, g: float) -> None:
        """Stamp a two-terminal conductance between unknowns a and b."""
        self.add_g(a, a, g)
        self.add_g(b, b, g)
        self.add_g(a, b, -g)
        self.add_g(b, a, -g)

    def add_transconductance(self, out_p: int, out_m: int,
                             in_p: int, in_m: int, gm: float) -> None:
        """Stamp a VCCS: current gm*(v_inp - v_inm) flowing out_p → out_m."""
        self.add_g(out_p, in_p, gm)
        self.add_g(out_p, in_m, -gm)
        self.add_g(out_m, in_p, -gm)
        self.add_g(out_m, in_m, gm)

    def add_b(self, i: int, value: float) -> None:
        if i >= 0:
            self.b[i] += value

    def add_current(self, a: int, b: int, current: float) -> None:
        """Stamp an independent current flowing from node a to node b."""
        self.add_b(a, -current)
        self.add_b(b, current)

    def solve(self) -> np.ndarray:
        return np.linalg.solve(self.g, self.b)

    def solve_fast(self) -> np.ndarray:
        """Solve through LAPACK ``dgesv`` directly, skipping the numpy
        wrapper overhead (a ~2x win on sub-50-unknown systems).

        The factorization ``dgesv`` computes anyway is kept; when the
        next call presents a bit-identical matrix — a transient sitting
        at a numeric steady state rebuilds the same Jacobian every step
        — the solve reuses it through ``dgetrs`` (identical arithmetic
        to what ``dgesv`` would run, so results are unchanged)."""
        if self._last_lu is not None and self.g.tobytes() == self._last_g:
            x, info = _lapack.dgetrs(self._last_lu, self._last_piv, self.b)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dgetrs failed (info={info}) on reused factorization")
            if OBS.enabled:
                OBS.metrics.counter("mna.lu_reuses").inc()
            return x
        lu, piv, x, info = _lapack.dgesv(self.g, self.b)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dgesv failed (info={info}): singular MNA matrix")
        self._last_g = self.g.tobytes()
        self._last_lu, self._last_piv = lu, piv
        if OBS.enabled:
            OBS.metrics.counter("mna.lu_factorizations").inc()
        return x


class SimState:
    """Context handed to every element's ``stamp`` call.

    Carries the present Newton estimate ``x``, the previous-timestep
    solution ``x_prev``, timing information (``dt is None`` means DC
    analysis: capacitors open), the global ``gmin``, the source
    scaling factor used during source-stepping homotopy, and the
    time-varying sources' ``levels`` at ``t`` when a march has sampled
    them.
    """

    __slots__ = ("index", "x", "x_prev", "t", "dt", "gmin", "source_scale",
                 "method", "aux", "stats", "levels")

    def __init__(self, index: Dict[str, int], n: int) -> None:
        self.index = index
        self.x = np.zeros(n)
        self.x_prev = np.zeros(n)
        self.t = 0.0
        self.dt: Optional[float] = None
        self.gmin = 1e-12
        self.source_scale = 1.0
        self.method = "be"
        #: scratch storage for element integration state (e.g. trapezoidal
        #: capacitor currents), keyed by element name.
        self.aux: Dict[str, float] = {}
        #: deterministic per-run solver accounting (always collected,
        #: independent of the observability switch — the verification
        #: harness relies on these being available and reproducible).
        self.stats: Dict[str, int] = {
            "newton_solves": 0,
            "newton_iterations": 0,
            "linear_solves": 0,
            "subdivisions": 0,
        }
        #: source element -> its level at ``t``, set once per timepoint
        #: by a transient march (see :meth:`source_level`)
        self.levels: Dict[object, float] = {}

    def source_level(self, source) -> float:
        """``source``'s level at ``t``: the value the march sampled for
        this timepoint, else a fresh evaluation (DC analyses and the
        reference engine evaluate per build)."""
        level = self.levels.get(source)
        return source.level(self.t) if level is None else level

    def voltage(self, i: int) -> float:
        """Present Newton-estimate voltage of unknown ``i`` (ground = 0)."""
        return 0.0 if i < 0 else float(self.x[i])

    def voltage_prev(self, i: int) -> float:
        return 0.0 if i < 0 else float(self.x_prev[i])


class Assembler:
    """Binds a circuit's elements to MNA indices and builds systems.

    ``fast_path=True`` (default) enables stamp partitioning, the cached
    static matrix, the vectorised MOSFET group and LU reuse;
    ``fast_path=False`` restamps every element through its Python
    ``stamp()`` on every build, exactly as the original engine did.
    Every circuit solves through dense LAPACK.
    """

    def __init__(self, circuit: Circuit, fast_path: bool = True) -> None:
        self.circuit = circuit
        self.fast_path = fast_path
        self.index = circuit.node_index()
        self.n_nodes = len(circuit.nodes())
        offset = self.n_nodes
        for elem in circuit.elements:
            branches = getattr(elem, "n_branches", 0)
            if branches:
                elem.bind(self.index, branch_offset=offset)
                offset += branches
            else:
                elem.bind(self.index)
        self.n = offset
        self.node_names = circuit.nodes()
        self._scratch = MNASystem(self.n)
        self._node_diag = np.arange(self.n_nodes)

        # --- stamp partition ------------------------------------------
        from repro.spice.elements import (
            PARTITION_NONLINEAR, PARTITION_SPLIT, PARTITION_STATIC)
        from repro.spice.fastpath import MOSFETGroup
        from repro.spice.mosfet import MOSFET

        from repro.spice.elements import CurrentSource, VoltageSource

        self._static_elems: List = []    # full stamp lives in the cache
        self._split_elems: List = []     # stamp_static cached, stamp_dynamic per build
        self._dynamic_elems: List = []   # full stamp every build
        self._nonlinear_elems: List = []  # full stamp every Newton iteration
        self._const_rhs_elems: List = []  # constant-valued sources: b cached
        self._rhs_split_elems: List = []  # split elements restamped per build
        mosfets: List = []

        def _const_source(elem) -> bool:
            return (type(elem) in (VoltageSource, CurrentSource)
                    and isinstance(elem.value, (int, float)))

        for elem in circuit.elements:
            part = getattr(elem, "partition", None)
            if part == PARTITION_STATIC:
                self._static_elems.append(elem)
            elif part == PARTITION_SPLIT:
                self._split_elems.append(elem)
                if fast_path and _const_source(elem):
                    self._const_rhs_elems.append(elem)
                else:
                    self._rhs_split_elems.append(elem)
            elif part == PARTITION_NONLINEAR:
                # Plain level-1 MOSFETs are claimed by the vectorised
                # group; subclasses and other nonlinear elements keep
                # their scalar stamp.
                if fast_path and type(elem) is MOSFET:
                    mosfets.append(elem)
                else:
                    self._nonlinear_elems.append(elem)
            elif fast_path and _const_source(elem):
                self._const_rhs_elems.append(elem)
            else:
                self._dynamic_elems.append(elem)
        self._mosfet_group = (MOSFETGroup([mosfets], self.n) if mosfets
                              else None)
        self._static_key: Optional[Tuple] = None
        self._g_static: Optional[np.ndarray] = None
        self._b_const = np.zeros(self.n)
        self._b_key: Optional[Tuple] = None

    @property
    def is_linear(self) -> bool:
        """True when no element's G stamp depends on the Newton estimate
        (the per-configuration matrix is constant across iterations and
        timesteps)."""
        return not self._nonlinear_elems and self._mosfet_group is None

    def new_state(self) -> SimState:
        return SimState(self.index, self.n)

    def invalidate(self) -> None:
        """Drop cached matrices (call after mutating an element's value
        in place)."""
        self._static_key = None
        self._g_static = None
        self._b_key = None

    def _refresh_static(self, state: SimState) -> None:
        """Restamp the static portion of G for the present configuration."""
        sys = self._scratch
        sys.reset()
        for elem in self._static_elems:
            elem.stamp(sys, state)
        for elem in self._split_elems:
            elem.stamp_static(sys, state)
        if self._mosfet_group is not None:
            self._mosfet_group.stamp_static(sys.g, state)
        if state.gmin > 0.0:
            sys.g[self._node_diag, self._node_diag] += state.gmin
        if self._g_static is None:
            self._g_static = sys.g.copy()
        else:
            np.copyto(self._g_static, sys.g)
        self._static_key = (state.dt, state.method, state.gmin)
        if OBS.enabled:
            OBS.metrics.counter("mna.static_refreshes").inc()

    def static_matrix(self, state: SimState) -> np.ndarray:
        """The cached static-G for the state's configuration (read-only)."""
        key = (state.dt, state.method, state.gmin)
        if key != self._static_key:
            self._refresh_static(state)
        return self._g_static

    def build(self, state: SimState, mosfets: bool = True) -> MNASystem:
        """Assemble ``G x = b`` for the present state (one Newton step).

        Returns the assembler's scratch system — callers must not hold a
        reference across iterations.  ``mosfets=False`` leaves out the
        vectorised MOSFET group's stamp, for a caller that stamps a
        stacked group over several assemblers' systems itself.
        """
        sys = self._scratch
        if not self.fast_path:
            sys.reset()
            for elem in self.circuit.elements:
                elem.stamp(sys, state)
            # gmin from every node (not branch) to ground keeps the matrix
            # nonsingular for floating nodes and helps Newton convergence.
            if state.gmin > 0.0:
                sys.g[self._node_diag, self._node_diag] += state.gmin
            return sys

        key = (state.dt, state.method, state.gmin)
        if key != self._static_key:
            self._refresh_static(state)
        elif OBS.enabled:
            OBS.metrics.counter("mna.static_reuses").inc()
        bkey = (self._static_key, state.source_scale)
        if bkey != self._b_key:
            self._refresh_b_const(state, bkey)
        np.copyto(sys.g, self._g_static)
        np.copyto(sys.b, self._b_const)
        for elem in self._rhs_split_elems:
            elem.stamp_dynamic(sys, state)
        for elem in self._dynamic_elems:
            elem.stamp(sys, state)
        for elem in self._nonlinear_elems:
            elem.stamp(sys, state)
        if mosfets and self._mosfet_group is not None:
            self._mosfet_group.stamp_newton(sys, state)
        return sys

    def _refresh_b_const(self, state: SimState, bkey: Tuple) -> None:
        """Re-cache the RHS of constant-valued independent sources (their
        contribution changes only with the homotopy source scale)."""
        sys = self._scratch
        sys.b[:] = 0.0
        from repro.spice.elements import VoltageSource
        for elem in self._const_rhs_elems:
            # Both paths touch only b: VoltageSource via its dynamic
            # part, CurrentSource via its full (b-only) stamp.
            if isinstance(elem, VoltageSource):
                elem.stamp_dynamic(sys, state)
            else:
                elem.stamp(sys, state)
        np.copyto(self._b_const, sys.b)
        self._b_key = bkey

    def voltages(self, x: np.ndarray) -> Dict[str, float]:
        """Translate a solution vector into a node-voltage dict."""
        result = {GROUND: 0.0}
        for name, idx in self.index.items():
            if idx >= 0:
                result[name] = float(x[idx])
        return result
