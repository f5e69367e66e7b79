"""The benchmark's own test: every workload once at reduced size.

Runs ``perfbench/run.py --smoke`` per workload, untraced and traced,
and asserts that every metric in ``perfbench/metrics.json`` prints with
its unit, that the output checks pass, and that ``BENCHMARK.json``
names the same metrics.  Run from the checkout root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(METRICS["workloads"])


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            value, unit = rest.split()[:2]
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    printed, result = _run(workload, trace=0)
    expected = {m["name"]: m["unit"]
                for m in METRICS["end_to_end"] + METRICS["printed_not_gated"]}
    alias = "devices_per_s" if workload == "bist_lot" else "faults_per_s"
    expected[alias] = "1/s"
    for name, unit in expected.items():
        assert name in printed, f"{name} not printed"
        assert printed[name][1] == unit, (name, printed[name])
    assert printed["verdict_mismatches"][0] == 0
    assert printed["failed_frac"][0] == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in METRICS["end_to_end"]}
    for name, doc in result["metrics"].items():
        assert doc["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_print_with_units(workload):
    printed, result = _run(workload, trace=1)
    for m in METRICS["per_layer"]:
        assert m["name"] in printed, f"{m['name']} not printed"
        assert printed[m["name"]][1] == m["unit"], m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in METRICS["per_layer"]}
    assert result["correct"] is True
    # every layer the workload names shows up in its trace
    layers = set(METRICS["workloads"][workload]["layers"])
    for m in METRICS["per_layer"]:
        if m["layer"] in layers and m["name"].endswith(".self_s") \
                and workload in m["moves"]:
            assert printed[m["name"]][0] > 0, m["name"]


def test_benchmark_json_matches_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in METRICS["end_to_end"]]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in METRICS["per_layer"]]
