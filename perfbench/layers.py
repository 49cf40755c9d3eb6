"""Per-layer metrics computed from the spans of a traced phase.

A span's self time is its duration minus the durations of its direct
children (children run nested and sequentially on the one benchmark
thread, so they never overlap).  Spans are attributed to a layer by name
and, where one call serves several layers, by an enclosing span: a
``spawn_rngs`` under ``FalseAlarmEvaluator.evaluate`` is FAR stream set-up,
under a top-level ``run_fleet`` it is fleet stream set-up.  Every metric is
reported on every workload; a layer the workload bypasses reads 0.
"""

from __future__ import annotations

import numpy as np

_VALIDATE = (
    "SynthesisProblem.simulate",
    "SynthesisProblem.pfc_satisfied",
    "SynthesisProblem.mdc_alarm",
    "SynthesisProblem.detector_alarm",
)
_FILTER = ("SynthesisProblem.pfc_satisfied", "SynthesisProblem.mdc_alarm")


class SpanTable:
    """Columnar view of a recorder's spans with durations, self times and ancestry."""

    def __init__(self, recorder):
        self.names = list(recorder.families)
        self.name = np.frombuffer(recorder.name, dtype=np.int32).copy()
        start = np.frombuffer(recorder.start, dtype=np.int64)
        end = np.frombuffer(recorder.end, dtype=np.int64)
        self.parent = np.frombuffer(recorder.parent, dtype=np.int32).copy()
        self.duration = (end - start).astype(float) * 1e-9
        children = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - children
        self._ids = {}
        for index, family in enumerate(self.names):
            self._ids.setdefault(family, []).append(index)
        # Outermost library span above every span (parents precede their
        # children); the benchmark's own ``bench.*`` spans are not roots.
        bench = np.array([family.startswith("bench.") for family in self.names], dtype=bool)
        root = np.arange(self.name.size)
        for index in np.flatnonzero(has_parent):
            parent = self.parent[index]
            if not bench[self.name[parent]]:
                root[index] = root[parent]
        self.root_name = np.array([self.names[i] for i in self.name[root]]) if root.size else root

    def mask(self, *families: str) -> np.ndarray:
        ids = [i for family in families for i in self._ids.get(family, [])]
        return np.isin(self.name, ids)

    def under(self, family: str) -> np.ndarray:
        """Spans with an ancestor (or themselves) of the given family."""
        target = self.mask(family)
        inside = target.copy()
        for index in np.flatnonzero(self.parent >= 0):
            if inside[self.parent[index]]:
                inside[index] = True
        return inside

    def rooted(self, family: str) -> np.ndarray:
        return self.root_name == family if self.name.size else np.zeros(0, dtype=bool)

    def child_of(self, family: str) -> np.ndarray:
        parents = self.parent
        valid = parents >= 0
        result = np.zeros(self.name.size, dtype=bool)
        result[valid] = self.mask(family)[parents[valid]]
        return result


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(recorder, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced phase."""
    t = SpanTable(recorder)
    counts = recorder.counts

    def total(selector) -> float:
        return float(t.duration[selector].sum())

    def own(selector) -> float:
        return float(t.self_time[selector].sum())

    def calls(selector) -> int:
        return int(np.count_nonzero(selector))

    linprog = t.mask("linprog")
    solve = t.mask("SynthesisSession.solve")
    backend = t.mask("BackendSession.solve")
    solve_with_backend = np.zeros_like(solve)
    solve_with_backend[t.parent[backend & (t.parent >= 0)]] = True
    validate = t.mask(*_VALIDATE) & t.child_of("SynthesisSession.solve")
    in_far = t.under("FalseAlarmEvaluator.evaluate")
    in_fleet = t.rooted("run_fleet")
    in_serve = (
        t.rooted("MonitorService.ingest")
        | t.rooted("MonitorService.attach")
        | t.rooted("MonitorService.detach")
        | t.rooted("MonitorService.swap_thresholds")
    ) & ~t.under("bench.serve_build")
    in_explore = t.under("Explorer.run")
    cold_explore = in_explore & ~t.under("bench.explore_warm")
    ingest = t.mask("MonitorService.ingest")
    sample = t.mask("NoiseModel.sample")
    lookups = counts.get("store.lookups", 0)
    loop_s = counts.get("fleet.loop_s", 0.0)
    units = counts.get("explore.units_executed", 0)

    metrics = {
        "lp.linprog_s": total(linprog),
        "lp.linprog_calls": calls(linprog),
        "lp.linprog_ms_per_call": 1e3 * _ratio(total(linprog), calls(linprog)),
        "lp.assemble_s": own(backend),
        "core.session_open_s": total(t.mask("SynthesisSession.__init__")),
        "core.solve_calls": calls(solve),
        "core.memo_hits": calls(solve & ~solve_with_backend),
        "core.validate_s": total(validate),
        "core.validate_calls": calls(validate & t.mask("SynthesisProblem.simulate")),
        "core.relax_s": total(t.mask("ThresholdRelaxer.relax")),
        "far.rng_spawn_s": total(in_far & t.mask("spawn_rngs")),
        "far.noise_sample_s": total(in_far & sample),
        "far.simulate_s": total(in_far & t.mask("batch_simulate")),
        "far.filter_s": total(in_far & t.mask(*_FILTER)),
        "far.evaluate_s": own(t.mask("FalseAlarmEvaluator.evaluate")),
        "far.kept_frac": _ratio(counts.get("far.kept", 0), counts.get("far.generated", 0)),
        "fleet.bank_s": total(in_fleet & t.mask("build_detector_bank")),
        "fleet.rng_spawn_s": total(in_fleet & t.mask("spawn_rngs")),
        "fleet.noise_sample_s": total(in_fleet & sample),
        "fleet.noise_sample_calls": calls(in_fleet & sample),
        "fleet.loop_s": float(loop_s),
        "fleet.loop_steps_per_s": _ratio(counts.get("fleet.instance_steps", 0), loop_s),
        "fleet.detector_step_s": total(in_fleet & t.mask("BatchDetector.step")),
        "fleet.report_s": total(in_fleet & t.mask("build_detector_stats")),
        "serve.ingest_self_s": own(ingest),
        "serve.ingest_calls": calls(ingest),
        "serve.log_append_s": total(in_serve & t.mask("ServiceLog.append")),
        "serve.log_events_per_sample": _ratio(
            calls(in_serve & t.mask("ServiceLog.append")), calls(ingest)
        ),
        "serve.observer_s": total(in_serve & t.mask("BatchObserver.step")),
        "serve.detect_s": total(in_serve & t.mask("service_round")),
        "serve.sink_emit_s": total(in_serve & t.mask("EventSink.emit")),
        "serve.attach_s": total(in_serve & t.mask("MonitorService.attach")),
        "serve.detach_s": total(in_serve & t.mask("MonitorService.detach")),
        "serve.swap_s": total(in_serve & t.mask("MonitorService.swap_thresholds")),
        "explore.units": units,
        "explore.solver_calls_per_unit": _ratio(calls(cold_explore & solve), units),
        "explore.pipeline_s": total(in_explore & t.mask("run_pipeline")),
        "explore.probe_s": total(in_explore & t.mask("FleetSimulator.run")),
        "explore.store_get_s": total(in_explore & t.mask("ResultStore.get", "ResultStore.peek")),
        "explore.store_put_s": total(in_explore & t.mask("ResultStore.put")),
        "explore.store_hit_frac": _ratio(counts.get("store.hits", 0), lookups),
        "explore.warm_s": total(t.mask("bench.explore_warm")),
        "trace.overhead_frac": float(overhead_ratio),
    }
    return metrics
