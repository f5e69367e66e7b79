"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed (the program
only ever sees the generated inputs), runs one *pass* at a time and
checks the outputs of every pass it ran:

* ``e7_fig4``              — the paper's Figure 4 (E7), in-process.
* ``service_stream``       — a closed-loop client of the campaign service.
* ``bist_lot``             — E5's quick BIST over a seeded device lot.
* ``dictionary_prescreen`` — the 64-fault dictionary, surrogate prescreen.

A pass returns a :class:`PassResult`; :meth:`Workload.check` returns a
list of mismatch descriptions (empty when every output is correct).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import multiprocessing
import pickle
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import Session, obs
from repro.adc.dual_slope import DualSlopeADC
from repro.circuits.op1 import op1_follower
from repro.core import detection
from repro.core.bist import BISTController
from repro.core.transient_test import TransientResponseTester
from repro.experiments import e5_batch10 as e5
from repro.experiments import e7_fig4_detection as e7
from repro.faults.campaign import FaultCampaign
from repro.faults.dictionary import (
    SignatureDetector,
    TransientSignatureTechnique,
    dictionary_faults,
    dictionary_ladder,
)
from repro.faults.universe import paper_circuit1_faults
from repro.process.batch import Batch
from repro.process.variation import VariationModel
from repro.service.cache import ResultCache
from repro.service.spec import CampaignSpec
from repro.signals.prbs import prbs_waveform
from repro.verify.goldens import normalize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: committed full-transient verdicts of the prescreened dictionary.
PRESCREEN_REFERENCE = HERE / "reference" / "prescreen_verdicts.json"
E7_GOLDEN = ROOT / "tests" / "goldens" / "e7.json"

#: the campaign service's worker processes (sized for a 2-core host).
SERVICE_WORKERS = 2
#: jobs the closed-loop client keeps in flight.
SERVICE_IN_FLIGHT = 4
#: span around each pass's timed region (the traced pass's root).
ROOT_SPAN = "bench.pass"


@dataclass
class PassResult:
    """One pass: its wall time, verdict units and what the checks read."""

    wall_s: float
    #: verdicts delivered (fault verdicts, or device verdicts).
    units: int
    #: units attempted: faults, jobs or devices.
    attempted: int
    #: attempted units that raised, timed out or were lost.
    failed: int
    #: one latency per job (service) or the pass wall (batch workloads).
    latencies: List[float]
    #: normalised outputs compared by :meth:`Workload.check`.
    payload: Any = None
    #: workload-specific extras for the traced pass.
    extras: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: what one verdict unit is (printed next to the throughput).
    unit = ""
    #: the throughput's name in this workload's unit (printed as an alias
    #: of verdicts_per_s).
    throughput_name = "faults_per_s"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def describe_seed(self) -> str:
        raise NotImplementedError

    def build(self) -> None:
        """Generate the inputs from the seed (repeated during set-up)."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, passes: List[PassResult]) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything the workload holds (files, processes)."""


def _same_payloads(passes: List[PassResult], what: str) -> List[str]:
    first = passes[0].payload
    return [f"{what}: pass {i} differs from pass 0"
            for i, p in enumerate(passes[1:], start=1) if p.payload != first]


# ---------------------------------------------------------------------------
# e7_fig4


class Circuit1Detector:
    """E7's circuit-1 detector (detection instances against a 2 % band).

    A class rather than E7's lambda so the call resolves
    ``detection.detection_instances`` at call time, where the traced
    pass's entry-point wrapper sits."""

    def __call__(self, reference, measurement) -> float:
        return detection.detection_instances(
            reference, measurement, rel_threshold=e7.CIRCUIT1_REL_THRESHOLD)


class E7Fig4(Workload):
    """Figure 4: the 16-fault OP1 PRBS campaign (``batch_size=16``,
    in-process) plus the 12-fault impulse-method campaigns on circuits
    2 and 3.  The seed picks the order-4 LFSR seed from
    :data:`LFSR_SEEDS`; seed 0 is the paper's (LFSR seed 1), whose
    output must equal the E7 golden."""

    name = "e7_fig4"
    unit = "fault"
    #: the paper's LFSR seed and the three whose circuit-1 campaign
    #: needs within 2 % of its Newton iterations (36.6k-37.2k), so runs
    #: at different seeds do the same work; the other eleven of the 15
    #: range from 29.6k to 39.9k.
    LFSR_SEEDS = (1, 5, 9, 13)
    #: faults of circuit 1 in the smoke run.
    SMOKE_FAULTS = 4

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.lfsr_seed = self.LFSR_SEEDS[seed % len(self.LFSR_SEEDS)]

    def describe_seed(self) -> str:
        return f"PRBS LFSR seed {self.lfsr_seed} (paper: 1)"

    def build(self) -> None:
        config = dataclasses.replace(e7.CIRCUIT1_CONFIG, seed=self.lfsr_seed)
        tester = TransientResponseTester(config)
        faults = tuple(paper_circuit1_faults())
        if self.smoke:
            faults = faults[:self.SMOKE_FAULTS]
        self.campaign = FaultCampaign(tester.technique(), Circuit1Detector(),
                                      threshold=0.05)
        self.spec = CampaignSpec(target=op1_follower(input_value=2.5),
                                 faults=faults, batch_size=len(faults))

    def run_pass(self) -> PassResult:
        with obs.span(ROOT_SPAN):
            t0 = time.perf_counter()
            circuit1 = self.campaign.run(spec=self.spec)
            c2, c3, names = e7.run_circuits23()
            wall = time.perf_counter() - t0
        fig4 = e7.Fig4Result(circuit1=circuit1, circuit2_detections=c2,
                             circuit3_detections=c3, fault_names_23=names)
        failed = sum(1 for o in circuit1.outcomes
                     if o.error is not None or o.timed_out or o.quarantined)
        units = circuit1.n_faults + len(names)
        return PassResult(wall_s=wall, units=units,
                          attempted=len(self.spec.faults) + len(names),
                          failed=failed, latencies=[wall],
                          payload=normalize(fig4.to_dict()))

    def check(self, passes: List[PassResult]) -> List[str]:
        bad = _same_payloads(passes, "e7_fig4")
        payload = passes[0].payload
        if self.lfsr_seed == 1:
            golden = json.loads(E7_GOLDEN.read_text())["result"]
            if self.smoke:
                want = golden["circuit1_campaign"]["outcomes"][
                    :self.SMOKE_FAULTS]
                got = payload["circuit1_campaign"]["outcomes"]
                if got != want:
                    bad.append("e7_fig4: circuit-1 outcomes differ from "
                               "the E7 golden")
            elif payload != golden:
                bad.append("e7_fig4: result differs from the E7 golden")
        series = payload["series"]
        if not all(min(s) >= 5.0 for s in series.values() if s):
            bad.append("e7_fig4: a fault is not detected")
        low = [v for v in series["circuit1"] if v < 90.0]
        if low:
            bad.append(f"e7_fig4: circuit-1 detection below 90 %: {low}")
        return bad


# ---------------------------------------------------------------------------
# bist_lot


class BistLot(Workload):
    """E5's quick BIST screening of a seeded lot: good, process-varied
    ``DualSlopeADC`` devices plus defective ones (E5's integrator-gain
    defect).  The seed feeds ``VariationModel`` (seed 0 is E5's 1996)."""

    name = "bist_lot"
    unit = "device"
    throughput_name = "devices_per_s"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.variation_seed = 1996 + seed
        self.n_good = self.n_defective = 1 if smoke else 2

    def describe_seed(self) -> str:
        return (f"VariationModel seed {self.variation_seed}, "
                f"{self.n_good} good + {self.n_defective} defective")

    def build(self) -> None:
        self.controller = BISTController()
        self.variation = VariationModel(e5.GOOD_VARIATION,
                                        seed=self.variation_seed)

    def run_pass(self) -> PassResult:
        reports = []
        failed = 0
        with obs.span(ROOT_SPAN):
            t0 = time.perf_counter()
            lots = (("good", Batch(DualSlopeADC, self.variation)
                     .fabricate(self.n_good)),
                    ("defective", Batch(e5._defective_factory,
                                        self.variation)
                     .fabricate(self.n_defective)))
            for group, devices in lots:
                for dev in devices:
                    # run_all is what quick_pass runs; the report is
                    # kept for the check
                    try:
                        reports.append((group, dev.index,
                                        self.controller.run_all(dev.model)))
                    except Exception as exc:  # noqa: BLE001 - counted
                        failed += 1
                        reports.append((group, dev.index, exc))
            wall = time.perf_counter() - t0
        reports = [(group, index, report.passed,
                    normalize(dataclasses.asdict(report)))
                   if not isinstance(report, Exception)
                   else (group, index, repr(report), None)
                   for group, index, report in reports]
        n = self.n_good + self.n_defective
        return PassResult(wall_s=wall, units=n - failed, attempted=n,
                          failed=failed, latencies=[wall], payload=reports)

    def check(self, passes: List[PassResult]) -> List[str]:
        bad = _same_payloads(passes, "bist_lot")
        for group, index, passed, _ in passes[0].payload:
            if passed is not (group == "good"):
                bad.append(f"bist_lot: {group} device {index} "
                           f"{'passed' if passed is True else 'failed'}")
        return bad


# ---------------------------------------------------------------------------
# dictionary_prescreen


def prescreen_workload(prbs_seed: int):
    """(target, technique, faults) of the prescreened dictionary: the
    10-section RC ladder under a 127-chip PRBS (12.7 ms, 1 µs steps)."""
    stimulus = prbs_waveform(order=7, chip_time=100e-6, low=0.0, high=5.0,
                             dt=1e-6, seed=prbs_seed)
    target = dictionary_ladder(n_sections=10, stimulus=stimulus)
    technique = TransientSignatureTechnique(t_stop=stimulus.duration,
                                            dt=1e-6, node="n9")
    faults = tuple(dictionary_faults(n_sections=10, n_faults=64))
    return target, technique, faults


class DictionaryPrescreen(Workload):
    """The 64-fault dictionary with ``prescreen="surrogate"``,
    in-process.  The seed picks the PRBS seed from
    :data:`PRBS_SEEDS`, whose full-transient verdicts are committed in
    ``reference/prescreen_verdicts.json``."""

    name = "dictionary_prescreen"
    unit = "fault"
    #: PRBS seeds with committed reference verdicts; seed 0 picks 3,
    #: the stimulus of the repository's surrogate benchmark.
    PRBS_SEEDS = (3, 1, 2, 4, 5, 6, 7, 8)
    #: the smoke run's faults; fault 44 is the one the surrogate
    #: escalates, so the smoke run still marches a transient.
    SMOKE_FAULTS = slice(40, 56)

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.prbs_seed = self.PRBS_SEEDS[seed % len(self.PRBS_SEEDS)]
        self.faults = self.SMOKE_FAULTS if smoke else slice(0, 64)

    def describe_seed(self) -> str:
        return (f"PRBS seed {self.prbs_seed}, "
                f"{self.faults.stop - self.faults.start} faults")

    def build(self) -> None:
        target, technique, faults = prescreen_workload(self.prbs_seed)
        faults = faults[self.faults]
        self.campaign = FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                                      threshold=0.05)
        self.spec = CampaignSpec(target=target, faults=faults,
                                 prescreen="surrogate")

    def run_pass(self) -> PassResult:
        with obs.span(ROOT_SPAN):
            t0 = time.perf_counter()
            result = self.campaign.run(spec=self.spec)
            wall = time.perf_counter() - t0
        failed = sum(1 for o in result.outcomes
                     if o.error is not None or o.timed_out or o.quarantined)
        doc = normalize(result.to_dict())
        return PassResult(wall_s=wall, units=result.n_faults,
                          attempted=len(self.spec.faults), failed=failed,
                          latencies=[wall], payload=doc,
                          extras={"decided": result.n_prescreened})

    def check(self, passes: List[PassResult]) -> List[str]:
        bad = _same_payloads(passes, "dictionary_prescreen")
        reference = json.loads(PRESCREEN_REFERENCE.read_text())
        want = reference["verdicts"][str(self.prbs_seed)][self.faults]
        got = [o["detected"] for o in passes[0].payload["outcomes"]]
        names = [o["fault"] for o in passes[0].payload["outcomes"]]
        if names != reference["faults"][self.faults]:
            bad.append("dictionary_prescreen: fault universe differs from "
                       "the reference")
        for name, g, w in zip(names, got, want):
            if g != w:
                bad.append(f"dictionary_prescreen: {name} detected={g}, "
                           f"full transient says {w}")
        return bad


# ---------------------------------------------------------------------------
# service_stream


class ServiceStream(Workload):
    """A closed loop over the real service path: one client keeps
    :data:`SERVICE_IN_FLIGHT` jobs in flight through
    ``Session(workers=2, cache=ResultCache(path=...), queue_path=...)``.

    Each job is an 8-fault window (stride 4, wrapping) of a 64-fault
    RC-ladder dictionary at ``batch_size=8``, so within one dictionary
    every fault appears in two jobs and each job reads what its
    neighbours wrote.  A pass streams the 16 windows of each of
    :data:`LADDER_OHMS` dictionaries (112 jobs); the ladders differ in
    their section resistance, so their cache contexts differ too.  The
    seed picks each dictionary's window offset (0-3) and permutes the
    job order.  Every pass opens a fresh session over a cold cache
    directory and a fresh journal."""

    name = "service_stream"
    unit = "fault"
    #: section resistance of each dictionary's RC ladder.
    LADDER_OHMS = (1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0, 1600.0)
    WINDOW = 8
    STRIDE = 4

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.ladders = self.LADDER_OHMS[:1] if smoke else self.LADDER_OHMS
        self._pass_no = 0
        self._references: Dict[str, Any] = {}

    def describe_seed(self) -> str:
        return (f"job order and window offsets from seed {self.seed}, "
                f"{len(self.specs)} jobs over {len(self.ladders)} "
                f"dictionaries")

    def build(self) -> None:
        # a 15-chip PRBS (1.5 ms, 1500 steps): each job's simulation
        # stays a short linear march, so the service carries the cost
        stimulus = prbs_waveform(order=4, chip_time=100e-6, low=0.0,
                                 high=5.0, dt=1e-6, seed=3)
        technique = TransientSignatureTechnique(
            t_stop=stimulus.duration, dt=1e-6, node="n9")
        detector = SignatureDetector(abs_v=0.05)
        faults = dictionary_faults(n_sections=10, n_faults=64)
        rng = random.Random(self.seed)
        specs = []
        for k, r_ohm in enumerate(self.ladders):
            target = dictionary_ladder(n_sections=10, stimulus=stimulus,
                                       r_ohm=r_ohm)
            offset = rng.randrange(self.STRIDE)
            for start in range(offset, len(faults) + offset, self.STRIDE):
                window = tuple(faults[(start + i) % len(faults)]
                               for i in range(self.WINDOW))
                specs.append(CampaignSpec(
                    technique=technique, detector=detector, target=target,
                    faults=window, batch_size=self.WINDOW, threshold=0.05,
                    name=f"ladder{k}/window{start % len(faults)}"))
        rng.shuffle(specs)
        self.specs = specs
        self.distinct_faults = len(self.ladders) * len(faults)

    def run_pass(self) -> PassResult:
        self._pass_no += 1
        pass_dir = self.workdir / f"service-pass{self._pass_no}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        cache = ResultCache(path=str(pass_dir / "cache"))
        session = Session(workers=SERVICE_WORKERS, obs=False, cache=cache,
                          queue_path=pass_dir / "journal.jsonl")
        results: List[Any] = [None] * len(self.specs)
        latencies: List[float] = []
        failed = 0
        # waiter threads block on job.result() so the client wakes the
        # moment any in-flight job finishes
        waiters = concurrent.futures.ThreadPoolExecutor(
            max_workers=SERVICE_IN_FLIGHT, thread_name_prefix="bench-client")
        inflight: Dict[concurrent.futures.Future, tuple] = {}
        pending = iter(enumerate(self.specs))
        try:
            with obs.span(ROOT_SPAN):
                t0 = time.perf_counter()
                while True:
                    while len(inflight) < SERVICE_IN_FLIGHT:
                        nxt = next(pending, None)
                        if nxt is None:
                            break
                        idx, spec = nxt
                        t_submit = time.perf_counter()
                        job = session.submit(spec)
                        inflight[waiters.submit(job.result)] = (idx,
                                                                t_submit)
                    if not inflight:
                        break
                    with obs.span("service.wait"):
                        done, _ = concurrent.futures.wait(
                            inflight,
                            return_when=concurrent.futures.FIRST_COMPLETED)
                    now = time.perf_counter()
                    for fut in done:
                        idx, t_submit = inflight.pop(fut)
                        latencies.append(now - t_submit)
                        try:
                            results[idx] = fut.result()
                        except Exception:  # noqa: BLE001 - counted
                            failed += 1
                wall = time.perf_counter() - t0
        finally:
            waiters.shutdown(wait=True)
            session.shutdown()
            _reap_children()
        delivered = [r for r in results if r is not None]
        failed += sum(1 for r in delivered if r.n_errors or r.partial)
        extras = {
            "simulated": sum(1 for r in delivered for o in r.outcomes
                             if not o.from_cache),
            "distinct_faults": self.distinct_faults,
        }
        if obs.enabled():
            extras["ipc_bytes"] = [ipc_bytes(spec, r) for spec, r
                                   in zip(self.specs, results)
                                   if r is not None]
        return PassResult(
            wall_s=wall, units=sum(r.n_faults for r in delivered),
            attempted=len(self.specs), failed=failed, latencies=latencies,
            payload=[None if r is None else _service_doc(r)
                     for r in results],
            extras=extras)

    def reference(self, spec: CampaignSpec) -> Any:
        """In-process ``FaultCampaign`` run of the same spec."""
        if spec.name not in self._references:
            campaign = FaultCampaign(spec.technique, spec.detector)
            self._references[spec.name] = _service_doc(
                campaign.run(spec=spec))
        return self._references[spec.name]

    def check(self, passes: List[PassResult]) -> List[str]:
        bad = []
        for n, p in enumerate(passes):
            for spec, doc in zip(self.specs, p.payload):
                if doc is None:
                    bad.append(f"service_stream: pass {n} {spec.name} "
                               f"delivered no result")
                elif doc != self.reference(spec):
                    bad.append(f"service_stream: pass {n} {spec.name} "
                               f"differs from the in-process campaign")
        return bad

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _service_doc(result) -> Any:
    """A job's ``to_dict()`` as compared: normalised (wall times
    dropped) and without ``workers``, which records where the job ran
    (the session's pool) rather than what it computed."""
    doc = normalize(result.to_dict())
    doc.pop("workers", None)
    return doc


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every child process (the session's pool) has ended.

    The scheduler shuts its pool down without waiting; the executor's
    management thread joins the workers shortly after."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return
        time.sleep(0.01)


def ipc_bytes(spec: CampaignSpec, result) -> tuple:
    """Pickled sizes of what one service job ships to and from its
    workers, *computed* from the job's spec and result (the pool's
    own pickles are not intercepted): the reference task (technique,
    target) and its returned measurement, then per fault batch the
    task (technique, detector, target, reference, faults) and the
    returned outcomes.  Jobs served wholly from the cache ship
    nothing."""
    fresh = [o for o in result.outcomes if not o.from_cache]
    if not fresh:
        return 0, 0
    task = len(pickle.dumps((spec.technique, spec.target)))
    back = len(pickle.dumps(result.reference))
    task += len(pickle.dumps((spec.technique, spec.detector, spec.target,
                              result.reference,
                              [o.fault for o in fresh])))
    back += len(pickle.dumps([dataclasses.replace(o, metrics=None,
                                                  events=None, spans=None)
                              for o in fresh]))
    return task, back


WORKLOADS = {w.name: w for w in (E7Fig4, ServiceStream, BistLot,
                                 DictionaryPrescreen)}


def get(name: str, seed: int, smoke: bool,
        workdir: Optional[Path] = None) -> Workload:
    return WORKLOADS[name](seed, smoke, workdir or HERE / ".work")
