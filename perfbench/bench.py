"""Runner logic behind ``perfbench/run.py``: set-up, timed loop, traced replay.

See ``perfbench/run.py`` for the command line and ``perfbench/README.md``
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.stats

import repro
from perfbench.layers import layer_metrics
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Seconds of operations per set-up: an end-to-end run sets up again
#: between operations, about this often, and reports the median as
#: ``setup_s``.  Spread over the whole run, the set-ups see the same phases
#: of a shared machine's speed as the operations do; a burst of set-ups at
#: the start would catch one phase only.
SETUP_EVERY_S = 1.0
#: Operations a traced run replays, per workload (fixed, so counts are exact).
TRACED_OPS = {"paper-vsc": 2, "explore-sweep": 3, "fleet-deploy": 10, "serve-stream": 2}


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """What is needed to compare this run's figures across machines."""
    sha, dirty = None, None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": getattr(repro, "__version__", None),
    }


def run_ops(workload, count, seconds, errors, outcomes, recorder=None, before_op=None) -> float:
    """Run ``count`` operations, or as many as fit in ``seconds``.

    Without a count, operations run back to back until the next one, at the
    median duration so far, would end past ``seconds``; at least one runs.
    A run thus measures at most about ``seconds`` even when one operation
    takes seconds.  Returns the wall clock of the operations alone: the
    checks after each operation run outside it.  With a ``recorder``, each
    operation is one ``bench.op`` span and its spans carry the operation
    index.  ``before_op``, if given, is called with the seconds measured so
    far before each operation, outside the measured time.
    """
    measured = 0.0
    durations: list[float] = []
    index = 0
    while (
        index < count
        if count is not None
        else (index == 0 or measured + statistics.median(durations) <= seconds)
    ):
        if before_op is not None:
            before_op(measured)
        if recorder is not None:
            recorder.current_op = index
        started = time.perf_counter()
        if recorder is None:
            outcome = workload.op(index)
        else:
            with recorder.span("bench.op"):
                outcome = workload.op(index)
        durations.append(time.perf_counter() - started)
        measured += durations[-1]
        errors.extend(workload.check(outcome))
        outcome.data.clear()
        outcomes.append(outcome)
        index += 1
    return measured


def end_to_end(workload, seconds: float, errors: list) -> tuple[dict, list]:
    setups: list[float] = []

    def set_up(measured: float) -> None:
        while len(setups) < 1 + measured / SETUP_EVERY_S:
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)

    outcomes: list = []
    run_ops(workload, None, seconds, errors, outcomes, before_op=set_up)
    latencies = np.array([value for o in outcomes for value in o.latencies_s])
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_iqm_ms": 1e3 * float(scipy.stats.trim_mean(latencies, 0.25)),
        "op_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "items_per_s": sum(o.items for o in outcomes) / sum(o.busy_s for o in outcomes),
    }
    return metrics, outcomes


def traced(workload, run_id: str, errors: list) -> tuple[dict, list, SpanRecorder]:
    workload.setup()
    count = TRACED_OPS[workload.name]
    outcomes: list = []
    untraced_s = run_ops(workload, count, 0.0, errors, outcomes)
    recorder = SpanRecorder(run_id)
    workload.recorder = recorder
    try:
        with recorder:
            traced_s = run_ops(workload, count, 0.0, errors, outcomes, recorder)
    finally:
        workload.recorder = None
    return layer_metrics(recorder, traced_s / untraced_s), outcomes, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work_dir = OUT_DIR / "work" / run_id
    work_dir.mkdir(parents=True, exist_ok=True)
    record = provenance(args.workload, args.seed, args.seconds, args.trace)
    errors: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir=work_dir)
        if args.trace:
            metrics, outcomes, recorder = traced(workload, run_id, errors)
            record["spans"] = len(recorder)
            record["spans_file"] = str(recorder.write(OUT_DIR / "spans").relative_to(OUT_DIR))
            record["missing_targets"] = recorder.missing
        else:
            metrics, outcomes = end_to_end(workload, args.seconds, errors)
        errors.extend(workload.final_check())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not errors and failed == 0 and attempted > 0
    record.update(
        {"operations": len(outcomes), "errors": errors, "metrics": metrics}
    )
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"provenance": {k: v for k, v in record.items() if k != "metrics"}}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def load_spec() -> dict:
    """``BENCHMARK.json``, the source of every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
