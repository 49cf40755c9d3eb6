"""Self-tests of the benchmark: its contract, smoke runs and mutation checks.

The smoke runs use the workloads' tiny sizes where they have them; the
mutation checks show that each correctness check rejects a wrong output.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from perfbench import bench
from perfbench.workloads import (
    WORKLOADS,
    ExploreSweep,
    FleetDeploy,
    PaperVsc,
    ServeStream,
    recheck_certified,
)

SPEC = bench.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def _printed_result(capsys, monkeypatch, tmp_path, trace: int) -> dict:
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    code = bench.main(
        ["--workload", "fleet-deploy", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert json.loads(lines[-2])["provenance"]["seed"] == 3
    return json.loads(lines[-1])


def test_printed_end_to_end_metrics_match_the_spec(capsys, monkeypatch, tmp_path):
    result = _printed_result(capsys, monkeypatch, tmp_path, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _spec_units("end_to_end")
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(math.isfinite(value) and value > 0 for value in values)


def test_printed_per_layer_metrics_match_the_spec(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(bench.TRACED_OPS, "fleet-deploy", 1)
    result = _printed_result(capsys, monkeypatch, tmp_path, trace=1)
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _spec_units("per_layer")
    assert result["metrics"]["fleet.noise_sample_calls"]["value"] == 4000
    assert len(list((tmp_path / "spans").glob("spans-*.jsonl"))) == 1


def test_traced_counts_repeat_and_patches_are_restored(monkeypatch):
    monkeypatch.setitem(bench.TRACED_OPS, "fleet-deploy", 2)
    runs = []
    for _ in range(2):
        errors: list = []
        metrics, outcomes, recorder = bench.traced(FleetDeploy(3, tiny=True), "test", errors)
        assert errors == [] and recorder.missing == []
        runs.append(metrics)
    assert runs[0]["fleet.noise_sample_calls"] == 2 * 400 == runs[1]["fleet.noise_sample_calls"]
    assert runs[0]["fleet.loop_s"] > 0 and runs[0]["fleet.detector_step_s"] > 0
    assert runs[0]["lp.linprog_calls"] == 0 and runs[0]["serve.ingest_calls"] == 0
    assert not hasattr(repro.run_fleet, "__wrapped__")
    assert not hasattr(repro.core.session.SynthesisSession.solve, "__wrapped__")


def test_fleet_smoke():
    workload = FleetDeploy(5, tiny=True)
    workload.setup()
    outcome = workload.op(0)
    assert workload.check(outcome) == []
    outcome.data["report"].detectors["static"].detection_rate = 0.9
    assert workload.check(outcome)


# ----------------------------------------------------------------------
# paper-vsc
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_vsc():
    workload = PaperVsc(7)
    workload.setup()
    outcome = workload.op(0)
    return workload, outcome


def test_paper_vsc_smoke(paper_vsc):
    workload, outcome = paper_vsc
    assert workload.check(outcome) == []
    assert outcome.failed == 0 and outcome.attempted == 3
    assert workload.final_check() == []


def test_paper_vsc_reference_check_catches_a_changed_threshold(paper_vsc):
    workload, outcome = paper_vsc
    threshold = outcome.data["report"].synthesis["stepwise"].threshold
    original = threshold.values.copy()
    try:
        threshold.values[3] *= 1.0 + 1e-9
        assert any("reference" in error for error in workload.check(outcome))
    finally:
        threshold.values[:] = original


def test_fresh_session_recheck_catches_a_perturbed_threshold(paper_vsc):
    workload, outcome = paper_vsc
    certified = PaperVsc.certified_vectors(outcome.data["report"])
    assert set(certified) == {"pivot", "stepwise", "static"}
    stepwise = certified["stepwise"]
    # Lifting the near-zero tail to 1.0 is the uncertified floor of the
    # relaxation stage: a stealthy attack exists against it.
    perturbed = type(stepwise)(
        values=np.maximum(stepwise.values, 1.0), norm=stepwise.norm, weights=stepwise.weights
    )
    errors = recheck_certified(workload.problem, {"stepwise": perturbed})
    assert len(errors) == 1 and "admits an attack" in errors[0]


# ----------------------------------------------------------------------
# explore-sweep
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def explore(tmp_path_factory):
    workload = ExploreSweep(11, work_dir=tmp_path_factory.mktemp("explore"))
    workload.setup()
    return workload, workload.op(0)


def test_explore_smoke(explore):
    workload, outcome = explore
    assert workload.check(outcome) == []
    assert outcome.data["cold_calls"] > 0 and outcome.data["warm_calls"] == 0


def test_explore_store_check_catches_a_changed_warm_row(explore):
    workload, outcome = explore
    row = outcome.data["warm"].rows[0]
    original = row["false_alarm_rate"]
    try:
        row["false_alarm_rate"] = original + 0.5
        assert any("warm rows" in error for error in workload.check(outcome))
    finally:
        row["false_alarm_rate"] = original
    outcome.data["warm_calls"] = 1
    assert any("solver calls" in error for error in workload.check(outcome))
    outcome.data["warm_calls"] = 0


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve():
    workload = ServeStream(13, tiny=True)
    workload.setup()
    return workload, workload.op(0)


def test_serve_smoke(serve):
    workload, outcome = serve
    assert workload.check(outcome) == []
    labels = {event[2] for event in outcome.data["events"]}
    assert labels == {"static", "cusum"}
    assert outcome.data["stats"]["swaps_applied"] == len(workload.schedule)


def test_serve_offline_check_catches_a_dropped_alarm(serve):
    workload, outcome = serve
    events = outcome.data["events"]
    dropped = events.pop(len(events) // 2)
    try:
        assert any("offline" in error for error in workload.check(outcome))
    finally:
        events.insert(len(events) // 2, dropped)
    assert workload.check(outcome) == []


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def test_run_fails_without_the_program(tmp_path):
    root = Path(bench.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-deploy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
