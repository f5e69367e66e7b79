"""Transient response testing — the paper's second technique.

"A transient stimulus vector, propagating in a mixed signal circuit, can
be described as the applied stimulus vector, convolved with the impulse
response h(t) of each circuit block ... minor changes to the signal
spectrum, indicative of circuit faults, can be detected in the presence
of the composite noise signal yn(t) by correlating the transient signal
y(t) with the specific correlation signal p(t), which was derived from
the applied stimulus vector set.  This operation produces a correlation
function R(y,p) that is identical to the composite impulse response of
the IC signal path currently propagating the stimulus vector."

:class:`TransientRecipe` writes that method once: stimulus in, one
node observed, post-processed; the serial, batched and surrogate routes
derive from it.  :class:`TransientResponseTester` drives a PRBS and
produces R(y, p) scaled by the stimulus energy, so it approximates the composite
impulse response *with amplitude preserved* (a dead output correlates to
zero rather than re-normalising to unity — essential for detecting
catastrophic faults).  The detection-instances metric is evaluated over
the correlation window around zero lag where the impulse response lives.

Note on stimulus levels: the paper drives 0–5 V.  Our 5 µm OP1 substitute
clips outside roughly 1.6–3.8 V in unity feedback, which would mask
mid-scale faults behind identical rail clipping; the circuit-1 experiment
therefore uses 2.0/3.5 V chips (documented in DESIGN.md).  The 0/5 V
default remains available for the clipping ablation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.signals.correlation import normalized_cross_correlation
from repro.signals.prbs import prbs_waveform
from repro.signals.waveform import Waveform
from repro.spice.elements import VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientResult, transient


@dataclass(frozen=True)
class TransientTestConfig:
    """Stimulus and measurement parameters.

    Defaults follow the paper's circuit-1 experiment: a 15-chip PRBS
    (order-4 maximal LFSR) with 250 µs chips.
    """

    prbs_order: int = 4
    chip_time_s: float = 250e-6
    low_v: float = 0.0
    high_v: float = 5.0
    sim_dt_s: float = 5e-6
    seed: int = 1
    repeats: int = 1
    noise_sigma_v: float = 0.0
    noise_seed: int = 7
    #: correlation-lag window (in chips) the detection metric evaluates
    window_chips: Tuple[float, float] = (-1.0, 1.0)

    def stimulus(self) -> Waveform:
        """The PRBS stimulus x(t)."""
        return prbs_waveform(order=self.prbs_order,
                             chip_time=self.chip_time_s,
                             low=self.low_v, high=self.high_v,
                             dt=self.sim_dt_s, seed=self.seed,
                             repeats=self.repeats)


@dataclass
class TransientMeasurement:
    """What one transient test run produces."""

    response: Waveform          # y(t) at the observed node
    correlation: Waveform       # R(y, p)/E_p — the impulse-response view
    normalized: Waveform        # classic unit-peak normalised correlation
    stimulus: Waveform          # x(t) actually applied

    def correlation_peak(self) -> float:
        return float(np.max(np.abs(self.correlation.values)))


class TransientRecipe:
    """One transient measurement: wire the stimulus into ``source_name``
    (``None``: the netlist's own time-varying source drives it), march
    on the ``dt``/``t_stop``/``method`` grid (``t_stop=None``: the
    stimulus's duration), observe ``output_node``, :meth:`postprocess`.

    A technique is a configuration of these fields.  The serial
    ``__call__``, the campaign's lockstep :meth:`evaluate_batch` and the
    prescreen's :meth:`surrogate_workload` all derive from them; each
    builds the stimulus once and shares that one object, so batched
    variants group into one lockstep tensor.
    """

    source_name: Optional[str] = None
    output_node: Optional[str] = None
    t_stop: Optional[float] = None
    method: str = "be"
    dt: float

    def stimulus(self) -> Optional[Waveform]:
        """x(t), or ``None`` when the netlist's own source drives it."""
        return None

    def postprocess(self, y: Waveform, stimulus: Optional[Waveform]) -> Any:
        """The measurement a detector scores, from the observed y(t)."""
        raise NotImplementedError

    def recorded(self) -> Dict[str, List[str]]:
        """What the march records (keyword arguments of both engines)."""
        return {"record": [self.output_node]}

    def observe(self, result: TransientResult) -> Waveform:
        """y(t) out of a finished march."""
        return result[self.output_node]

    # ------------------------------------------------------------------
    def prepare(self, circuit: Circuit,
                stimulus: Optional[Waveform]) -> Circuit:
        """``circuit`` with the stimulus wired into ``source_name`` (a
        copy), or ``circuit`` itself when it carries its own source."""
        if self.source_name is None:
            return circuit
        prepared = circuit.copy()
        elem = prepared.element(self.source_name)
        if not isinstance(elem, VoltageSource):
            raise TypeError(f"{self.source_name!r} is not a voltage source")
        elem.value = stimulus
        return prepared

    def _grid(self, stimulus: Optional[Waveform]) -> Dict[str, Any]:
        t_stop = stimulus.duration if self.t_stop is None else self.t_stop
        return dict(t_stop=t_stop, dt=self.dt, method=self.method,
                    **self.recorded())

    def simulate(self, circuit: Circuit,
                 stimulus: Optional[Waveform]) -> Waveform:
        """y(t) of one circuit through the serial engine."""
        return self.observe(transient(self.prepare(circuit, stimulus),
                                      **self._grid(stimulus)))

    def __call__(self, circuit: Circuit) -> Any:
        stimulus = self.stimulus()
        return self.postprocess(self.simulate(circuit, stimulus), stimulus)

    def evaluate_batch(self, target: Circuit, faults) -> list:
        """Campaign batch protocol: one measurement per fault, bitwise
        equal to calling the technique on ``inject(target, fault)``.

        The variants share one stimulus object, so the batched engine
        marches them as one lockstep tensor.  A slot the batch cannot
        serve (injection failure, evicted march) is ``None``; the
        campaign re-evaluates it serially, which owns the real error.
        """
        from repro.faults.injector import inject
        from repro.spice.batched import batched_transient

        stimulus = self.stimulus()
        out: list = [None] * len(faults)
        variants: List[Circuit] = []
        slots: List[int] = []
        for i, fault in enumerate(faults):
            try:
                variants.append(self.prepare(inject(target, fault), stimulus))
            except Exception:  # noqa: BLE001 - serial re-run owns the error
                continue
            slots.append(i)
        if not variants:
            return out
        results = batched_transient(variants, **self._grid(stimulus))
        for slot, result in zip(slots, results):
            if result is None:
                continue
            try:
                out[slot] = self.postprocess(self.observe(result), stimulus)
            except Exception:  # noqa: BLE001 - serial re-run owns the error
                continue
        return out

    def surrogate_workload(self, target: Circuit):
        """Surrogate-prescreen protocol: this recipe's stimulus, observed
        node, grid and post-processing, around a fitted model instead of
        the MNA march."""
        from repro.surrogate.prescreen import SurrogateWorkload, waveform_source

        stimulus = self.stimulus()
        grid = self._grid(stimulus)
        if self.source_name is None:
            source_name, applied = waveform_source(target, self.dt,
                                                   grid["t_stop"])
        else:
            source_name, applied = self.source_name, stimulus
        return SurrogateWorkload(
            source_name=source_name, output_node=self.output_node,
            dt=self.dt, t_stop=grid["t_stop"], stimulus=applied,
            postprocess=functools.partial(self.postprocess,
                                          stimulus=stimulus),
            prepare=functools.partial(self.prepare, stimulus=stimulus),
            method=self.method)


class TransientResponseTester(TransientRecipe):
    """Applies the PRBS test to a netlist and correlates the response.

    Parameters
    ----------
    config:
        Stimulus/measurement configuration.
    source_name:
        The independent voltage source inside the target circuit whose
        value the tester replaces with the PRBS (the stimulus entry
        point).
    output_node:
        The node whose voltage is the observed transient signal y(t).
    """

    def __init__(self, config: Optional[TransientTestConfig] = None,
                 source_name: str = "VIN", output_node: str = "3") -> None:
        self.config = config or TransientTestConfig()
        self.source_name = source_name
        self.output_node = output_node

    @property
    def dt(self) -> float:
        return self.config.sim_dt_s

    def stimulus(self) -> Waveform:
        return self.config.stimulus()

    def postprocess(self, y: Waveform, stimulus: Waveform) -> Waveform:
        """The campaign measurement: the windowed R(yn, p)/E_p, where p
        is the applied stimulus itself."""
        return self._correlate(self._with_noise(y), stimulus)

    # ------------------------------------------------------------------
    def _with_noise(self, y: Waveform) -> Waveform:
        """yn(t): y plus the configured composite measurement noise."""
        cfg = self.config
        if cfg.noise_sigma_v > 0.0:
            y = y.with_noise(cfg.noise_sigma_v, seed=cfg.noise_seed)
        return y

    def _correlate(self, y: Waveform, p: Waveform) -> Waveform:
        """R(y, p) / E_p with both signals mean-removed, over the lag
        window — amplitude carries through, so attenuation faults stay
        visible."""
        yc = y.values - np.mean(y.values)
        pc = p.values - np.mean(p.values)
        energy = float(np.sum(pc ** 2)) * p.dt
        if energy <= 0.0:
            raise ValueError("degenerate correlation signal")
        r = np.correlate(yc, pc, mode="full") * p.dt / energy
        lag0 = -(len(pc) - 1)
        return self.windowed(Waveform(r, p.dt, t0=lag0 * p.dt,
                                      name="R(y,p)/Ep"))

    def measure(self, circuit: Circuit) -> TransientMeasurement:
        """Run the transient test on a (fault-free or faulty) circuit,
        keeping the response and the normalised correlation too."""
        stimulus = self.stimulus()
        y = self._with_noise(self.simulate(circuit, stimulus))
        return TransientMeasurement(
            response=y,
            correlation=self._correlate(y, stimulus),
            normalized=normalized_cross_correlation(y, stimulus),
            stimulus=stimulus,
        )

    def windowed(self, r: Waveform) -> Waveform:
        """Trim a correlation to the configured lag window."""
        lo_chips, hi_chips = self.config.window_chips
        if hi_chips <= lo_chips:
            raise ValueError("window_chips must be increasing")
        chip = self.config.chip_time_s
        return r.slice_time(lo_chips * chip, hi_chips * chip)

    def technique(self) -> "TransientTechnique":
        """The measurement callable a fault campaign consumes: the
        windowed impulse-response-scaled correlation."""
        return TransientTechnique(self)


class TransientTechnique:
    """Campaign technique wrapping a :class:`TransientResponseTester`:
    every route is the tester's recipe."""

    def __init__(self, tester: TransientResponseTester) -> None:
        self.tester = tester

    def __call__(self, circuit: Circuit) -> Waveform:
        return self.tester(circuit)

    def evaluate_batch(self, target: Circuit, faults) -> list:
        return self.tester.evaluate_batch(target, faults)

    def surrogate_workload(self, target: Circuit):
        return self.tester.surrogate_workload(target)
