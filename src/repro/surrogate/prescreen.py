"""Surrogate prescreen: classify the obvious faults, escalate the rest.

The campaign-side consumer of :mod:`repro.surrogate.vectorfit`.  For
each fault the prescreen

1. injects the fault and linearises the faulty circuit at its DC
   operating point (``small_signal_matrices``),
2. samples the input→output transfer function on a log frequency grid
   through one :class:`~repro.spice.linearize.FrequencyPencil`
   factorisation,
3. vector-fits a stable :class:`~repro.surrogate.vectorfit.SurrogateModel`
   and marches the technique's stimulus through the pole-wise recurrence
   (O(steps · poles) instead of a full MNA transient),
4. post-processes the surrogate response exactly the way the technique
   post-processes a real one and scores it with the campaign's detector
   against the surrogate *reference* (the fault-free circuit through the
   same pipeline, so systematic fit error largely cancels).

A fault is decided by the surrogate only when its score clears the
detection threshold by more than the configured **margin** on either
side; scores inside the band — and every fault whose operating point,
fit or error bound fails — fall through to the full MNA transient.
Escalation is always safe: the surrogate never invents a verdict, it
only skips work whose outcome is not in doubt.

Techniques opt in by exposing ``surrogate_workload(target)`` returning a
:class:`SurrogateWorkload`.  Every configuration of
:class:`~repro.core.transient_test.TransientRecipe` derives it from the
same stimulus, observed node, grid and post-processing its serial and
batched routes use.  Techniques without the hook simply escalate
everything (the campaign behaves exactly as if no prescreen were
configured).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from repro.errors import SurrogateError
from repro.obs.core import OBS
from repro.obs.core import span as obs_span
from repro.signals.waveform import Waveform
from repro.spice.linearize import (
    FrequencyPencil,
    _input_vector,
    _output_vector,
    small_signal_matrices,
)
from repro.surrogate.vectorfit import SurrogateModel, VectorFitter


@dataclass(frozen=True)
class PrescreenConfig:
    """Tunables of the surrogate prescreen (frozen: participates in
    cache/checkpoint content keys via :meth:`describe`).

    ``margin`` is the half-width of the escalation band around the
    campaign threshold: a surrogate score within ``threshold ± margin``
    is never trusted.  ``max_fit_rms`` bounds the relative rms residual
    of an acceptable fit — a worse fit escalates the fault instead of
    classifying through a model that does not even match its own
    frequency samples.
    """

    margin: float = 0.1
    n_poles: int = 10
    n_iterations: int = 12
    n_samples: int = 60
    max_fit_rms: float = 1e-3
    f_min: Optional[float] = None
    f_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.margin < 0.0:
            raise ValueError("margin must be non-negative")
        if self.n_poles < 1 or self.n_iterations < 1:
            raise ValueError("n_poles and n_iterations must be >= 1")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.max_fit_rms <= 0.0:
            raise ValueError("max_fit_rms must be positive")
        for name in ("f_min", "f_max"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive")

    def describe(self) -> str:
        """Canonical text identity (cache/checkpoint key component)."""
        return ("surrogate-prescreen/1:"
                f"margin={self.margin:g},n_poles={self.n_poles},"
                f"n_iterations={self.n_iterations},"
                f"n_samples={self.n_samples},"
                f"max_fit_rms={self.max_fit_rms:g},"
                f"f_min={'auto' if self.f_min is None else f'{self.f_min:g}'},"
                f"f_max={'auto' if self.f_max is None else f'{self.f_max:g}'}")

    def fitter(self) -> VectorFitter:
        return VectorFitter(n_poles=self.n_poles,
                            n_iterations=self.n_iterations)


@dataclass
class SurrogateWorkload:
    """What a technique must describe for the surrogate to stand in.

    ``prepare`` maps a faulty circuit copy to the circuit the technique
    actually simulates (e.g. wiring the PRBS into the input source);
    ``postprocess`` maps the simulated output waveform to the
    measurement object the campaign's detector consumes (e.g. the
    windowed correlation, or the raw sample array).  ``method`` names
    the integration method the technique's transient uses ("be" or
    "trap"): the surrogate marches the *same* companion recurrence per
    pole, so its numerical damping matches the reference simulation it
    stands in for — critical on ringing (underdamped) paths, where an
    exact-ZOH surrogate would out-simulate the MNA march and skew
    detector scores.
    """

    source_name: str
    output_node: str
    dt: float
    t_stop: float
    stimulus: Waveform
    postprocess: Callable[[Waveform], Any]
    prepare: Callable[[Any], Any]
    method: str = "be"


def sample_grid(config: PrescreenConfig, dt: float,
                t_stop: float) -> np.ndarray:
    """The ``jω`` sample points for a workload's time grid: log-spaced
    from well below ``1/t_stop`` up to just under Nyquist."""
    f_max = config.f_max if config.f_max is not None else 0.45 / dt
    f_min = config.f_min if config.f_min is not None else \
        max(1.0 / (20.0 * t_stop), f_max * 1e-9)
    if f_min >= f_max:
        raise SurrogateError(
            f"degenerate frequency band [{f_min:g}, {f_max:g}] Hz")
    freqs = np.logspace(np.log10(f_min), np.log10(f_max), config.n_samples)
    return 2j * np.pi * freqs


def fit_circuit(circuit: Any, input_source: str, output_node: str,
                config: Optional[PrescreenConfig] = None,
                fitter: Optional[VectorFitter] = None,
                s_points: Optional[np.ndarray] = None,
                dt: float = 1e-6, t_stop: float = 1e-3) -> SurrogateModel:
    """Fit a surrogate to one circuit's input→output small-signal path.

    Linearises at the DC operating point, samples the transfer function
    through one :class:`FrequencyPencil` factorisation and vector-fits.
    Raises :class:`~repro.errors.SurrogateError` when the fit residual
    exceeds ``config.max_fit_rms`` (escalation, never a bad model).
    """
    config = config or PrescreenConfig()
    model, _ = _fit_path(circuit, input_source, output_node, config,
                         fitter or config.fitter(),
                         s_points if s_points is not None
                         else sample_grid(config, dt, t_stop))
    return model


def _fit_path(circuit: Any, source_name: str, output_node: str,
              config: PrescreenConfig, fitter: VectorFitter,
              s_points: np.ndarray):
    """(model, y_op) for one circuit, or raise :class:`SurrogateError`.

    Any failure along the way — a Newton OP that will not bias, a
    degenerate sweep, a fit over budget — surfaces as
    :class:`SurrogateError` so the caller escalates uniformly.
    """
    try:
        assembler, g, c, op_vector = small_signal_matrices(circuit)
        b = _input_vector(assembler, source_name)
        c_vec = _output_vector(assembler, output_node)
        pencil = FrequencyPencil(g, c)
        response = pencil.transfer(b, c_vec, s_points)
    except SurrogateError:
        raise
    except Exception as exc:  # noqa: BLE001 - uniform escalation signal
        raise SurrogateError(
            f"small-signal sampling failed: "
            f"{type(exc).__name__}: {exc}") from exc
    model = fitter.fit(s_points, response)
    rms = model.report.rms_error if model.report is not None else np.inf
    if rms > config.max_fit_rms:
        raise SurrogateError(
            f"fit residual {rms:.3e} exceeds the declared bound "
            f"{config.max_fit_rms:g}")
    return model, float(np.real(c_vec @ op_vector))


def surrogate_measurement(circuit: Any, workload: SurrogateWorkload,
                          config: PrescreenConfig, fitter: VectorFitter,
                          s_points: np.ndarray,
                          u: Optional[np.ndarray] = None) -> Any:
    """The technique-equivalent measurement via the surrogate.

    The full response is the small-signal superposition
    ``y(t) = y_op + (h * (u - u(0)))(t)``: the operating point the MNA
    transient starts from, plus the fitted model's response to the
    stimulus deviation — marched through the pole-wise recurrence.
    ``u`` accepts the pre-sampled stimulus (every fault shares it, so
    the prescreen samples once per campaign instead of once per fault).
    """
    prepared = workload.prepare(circuit)
    model, y_op = _fit_path(prepared, workload.source_name,
                            workload.output_node, config, fitter, s_points)
    if u is None:
        u = sample_stimulus(workload)
    y = y_op + model.transient(u - u[0], workload.dt,
                               method=workload.method)
    return workload.postprocess(Waveform(y, workload.dt, t0=0.0,
                                         name=workload.output_node))


def sample_stimulus(workload: SurrogateWorkload) -> np.ndarray:
    """The stimulus on the workload's uniform time grid."""
    n = int(round(workload.t_stop / workload.dt)) + 1
    times = workload.dt * np.arange(n)
    return np.asarray(workload.stimulus(times), dtype=float)


def waveform_source(circuit: Any, dt: float, t_stop: float):
    """The unique time-varying voltage source of a circuit, as
    ``(name, Waveform)`` — how signature-style techniques whose stimulus
    is baked into the netlist recover it for the surrogate.

    Callable source values are sampled onto the ``(dt, t_stop)`` grid;
    a circuit with zero or several time-varying sources raises
    :class:`SurrogateError` (escalate, do not guess).
    """
    from repro.spice.elements import VoltageSource
    candidates = []
    for elem in circuit.elements:
        if isinstance(elem, VoltageSource) \
                and not isinstance(elem.value, (int, float)):
            candidates.append(elem)
    if len(candidates) != 1:
        raise SurrogateError(
            f"expected exactly one time-varying voltage source, found "
            f"{len(candidates)} in {getattr(circuit, 'name', circuit)!r}")
    elem = candidates[0]
    value = elem.value
    if isinstance(value, Waveform):
        return elem.name, value
    return elem.name, Waveform.from_function(
        lambda t: np.asarray([value(float(ti)) for ti in np.atleast_1d(t)]),
        dt, t_stop, name=elem.name)


class SurrogatePrescreen:
    """The campaign stage: split a fault universe into surrogate-decided
    verdicts and escalations.

    :meth:`classify` returns one slot per fault — a finished
    :class:`~repro.faults.campaign.FaultOutcome` with
    ``decided_by="surrogate"`` for faults whose surrogate score clears
    the margin band, ``None`` for everything that must run through the
    full MNA transient.  A campaign runs it as its job's first shard,
    before the reference simulation and any fault shard.
    """

    def __init__(self, technique: Callable[[Any], Any],
                 detector: Callable[[Any, Any], float],
                 threshold: float,
                 config: Optional[PrescreenConfig] = None) -> None:
        self.technique = technique
        self.detector = detector
        self.threshold = threshold
        self.config = config or PrescreenConfig()

    # ------------------------------------------------------------------
    def classify(self, target: Any, faults: List[Any]
                 ) -> List[Optional[Any]]:
        from repro.faults.campaign import FaultOutcome
        from repro.faults.injector import inject

        verdicts: List[Optional[Any]] = [None] * len(faults)
        hook = getattr(self.technique, "surrogate_workload", None)
        if hook is None:
            if OBS.enabled:
                OBS.metrics.counter("surrogate.prescreen.unsupported").inc()
            return verdicts

        config = self.config
        threshold = self.threshold
        with obs_span("surrogate.prescreen", n_faults=len(faults),
                      margin=config.margin) as sp:
            try:
                workload = hook(target)
                s_points = sample_grid(config, workload.dt,
                                       workload.t_stop)
                fitter = config.fitter()
                u = sample_stimulus(workload)
                reference = surrogate_measurement(target, workload, config,
                                                  fitter, s_points, u=u)
            except Exception:  # noqa: BLE001 - no reference, no verdicts
                if OBS.enabled:
                    OBS.metrics.counter(
                        "surrogate.prescreen.reference_failures").inc()
                return verdicts

            n_decided = n_margin = n_failed = 0
            for i, fault in enumerate(faults):
                t0 = time.perf_counter()
                try:
                    faulty = inject(target, fault)
                    measurement = surrogate_measurement(
                        faulty, workload, config, fitter, s_points, u=u)
                    score = float(self.detector(reference, measurement))
                    score = min(1.0, max(0.0, score))
                except Exception:  # noqa: BLE001 - transient owns it
                    n_failed += 1
                    continue
                if abs(score - threshold) <= config.margin:
                    # inside the band: the surrogate is not trusted here
                    n_margin += 1
                    continue
                n_decided += 1
                verdicts[i] = FaultOutcome(
                    fault=fault,
                    detection=score,
                    detected=score >= threshold,
                    elapsed_s=time.perf_counter() - t0,
                    worker_pid=os.getpid(),
                    decided_by="surrogate",
                )
            sp.set(decided=n_decided, escalated_margin=n_margin,
                   escalated_failures=n_failed)
            if OBS.enabled:
                m = OBS.metrics
                m.counter("surrogate.prescreen.decided").inc(n_decided)
                m.counter("surrogate.prescreen.escalated").inc(
                    n_margin + n_failed)
                if n_failed:
                    m.counter("surrogate.prescreen.failures").inc(n_failed)
        return verdicts


__all__ = ["PrescreenConfig", "SurrogateWorkload", "SurrogatePrescreen",
           "fit_circuit", "surrogate_measurement", "sample_grid",
           "sample_stimulus", "waveform_source"]
