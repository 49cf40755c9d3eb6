"""Fleet execution engines: ``legacy`` (streaming) and ``fused`` (kernel).

Engines are the registry-resolved execution strategies behind
:class:`~repro.runtime.fleet.FleetSimulator` runs and
:class:`~repro.serve.service.MonitorService` rounds:

* :class:`LegacyEngine` (``engine="legacy"``, the default) — the original
  per-step ``(N, ·)`` pipeline, streaming and ``O(N)`` in memory.
* :class:`FusedEngine` (``engine="fused"``) — the fused kernel of
  :mod:`repro.runtime.kernel.core` in its single configuration: float64, one
  full-width GEMM per step, detector lanes over pre-stacked residues.

Equivalence gate: each fused run first consults
:func:`~repro.runtime.kernel.core.probe_fused_equivalence`; a failed probe
downgrades the state recursion to the legacy stepper (the probe fallback)
while keeping the lane/bookkeeping machinery — bit-identical output either
way.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.events import AlarmEvent
from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence
from repro.runtime.kernel.lanes import build_lanes
from repro.runtime.kernel.serve import FusedServicePlan
from repro.runtime.report import FleetReport, build_detector_stats
from repro.utils.rng import ensure_rng, spawn_rngs


class _LegacyShard:
    """Probe fallback: the legacy stepper behind the fused interface."""

    def __init__(self, system, x0_t, xhat0_t):
        from repro.runtime.fleet import _BatchStepper

        self._stepper = _BatchStepper(system, x0_t.T.copy(), xhat0_t.T.copy())

    def step(self, vk, wk, att, res_out=None):
        y, ya, res = self._stepper.step(
            vk.T,
            None if wk is None else wk.T,
            None if att is None else att.T,
        )
        return y.T, ya.T, res.T

    @property
    def X(self):
        return self._stepper.X.T

    @property
    def Xhat(self):
        return self._stepper.Xhat.T

    @property
    def U(self):
        return self._stepper.U.T


@ENGINES.register("legacy")
class LegacyEngine:
    """The original streaming fleet execution path (the default engine).

    Delegates straight to the per-step ``(N, ·)`` numpy pipeline of
    :mod:`repro.runtime.fleet` and :mod:`repro.runtime.batch`; it is the
    bit-for-bit reference every fused run is gated against.
    """

    name = "legacy"

    def run_fleet(self, sim) -> FleetReport:
        """Run a :class:`~repro.runtime.fleet.FleetSimulator` to completion."""
        return sim._run()

    def service_round(
        self,
        cores: Mapping[str, BatchDetector],
        residues: np.ndarray,
        measurements: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Step every deployed core once; label → ``(N,)`` alarms, bank order."""
        return {
            label: core.step(
                residues if core.consumes == "residues" else measurements
            )
            for label, core in cores.items()
        }


@ENGINES.register("fused")
class FusedEngine:
    """The fused fleet kernel (``engine="fused"``): opt-in fast path.

    One configuration only: float64, the whole fleet advanced by one GEMM
    per step.  Gated bit-identical to :class:`LegacyEngine` by the
    differential probe, which falls back to the legacy stepper when the
    local BLAS would perturb a bit.
    """

    name = "fused"

    def __init__(self):
        self._service_plan: FusedServicePlan | None = None

    # ------------------------------------------------------------------
    def _simulate(
        self,
        system,
        X0: np.ndarray,
        Xhat0: np.ndarray,
        Vt: np.ndarray,
        Wt: np.ndarray | None,
        schedule: Sequence[tuple[np.ndarray, np.ndarray]],
        *,
        fused_ok: bool,
        res_out: np.ndarray,
        ya_out: np.ndarray | None,
        recorder: dict | None,
    ) -> None:
        """State recursion over the whole horizon.

        Consumes transposed ``(T, ·, N)`` noise stacks and writes the
        transposed residue/measurement stacks and/or the instance-major
        recorder arrays.
        """
        n, m = system.plant.n_states, system.plant.n_outputs
        N = X0.shape[0]
        T = Vt.shape[0]
        # A lone fused instance rides a zero discard column: keeps the BLAS
        # on its GEMM path, exactly as the probe exercised it.
        cols = 2 if N == 1 and fused_ok else N

        def widen(block_t):
            if block_t is None or cols == N:
                return block_t
            padded = np.zeros(block_t.shape[:2] + (cols,))
            padded[:, :, :N] = block_t
            return padded

        x0_t = np.zeros((n, cols))
        x0_t[:, :N] = X0.T
        xh0_t = np.zeros((n, cols))
        xh0_t[:, :N] = Xhat0.T
        if fused_ok:
            stepper = FusedStepper(system, x0_t, xh0_t)
        else:
            stepper = _LegacyShard(system, x0_t, xh0_t)

        Vs = widen(Vt)
        Ws = widen(Wt)
        As = None
        if schedule:
            # Pre-stack the schedule into one dense (T, m, cols) block: each
            # (step, instance) cell receives the same entry-ordered
            # accumulation the legacy per-step build performs.
            As = np.zeros((T, m, cols))
            for indices, values in schedule:
                As[:, :, indices] += values[:, :, None]

        att = None
        # A full-width fused run emits residues straight into the stack row
        # (contiguous, same layout as the internal buffer).
        direct_res = fused_ok and cols == N
        for k in range(T):
            if As is not None:
                att = As[k]
            y, ya, res = stepper.step(
                Vs[k],
                None if Ws is None else Ws[k],
                att,
                res_out=res_out[k] if direct_res else None,
            )
            if not direct_res:
                res_out[k] = res[:, :N]
            if ya_out is not None:
                ya_out[k] = ya[:, :N]
            if recorder is not None:
                recorder["true_outputs"][:, k] = y[:, :N].T
                recorder["measurements"][:, k] = ya[:, :N].T
                recorder["residues"][:, k] = res[:, :N].T
                if att is not None:
                    recorder["attacks"][:, k] = att[:, :N].T
                recorder["states"][:, k + 1] = stepper.X[:, :N].T
                recorder["estimates"][:, k + 1] = stepper.Xhat[:, :N].T
                recorder["inputs"][:, k + 1] = stepper.U[:, :N].T

    # ------------------------------------------------------------------
    def run_fleet(self, sim) -> FleetReport:
        """Fused replica of the legacy fleet run (same report, same events)."""
        plant = sim.system.plant
        T, N = sim.horizon, sim.n_instances
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs

        rngs = spawn_rngs(sim.seed, N + 1)
        scheduler_rng = ensure_rng(rngs[-1])
        V, W, X0 = sim._draw_streams(rngs[:N])
        schedule = sim._resolve_schedule(scheduler_rng)

        attacked_mask = np.zeros(N, dtype=bool)
        attack_start = np.full(N, T, dtype=int)
        for (indices, values), entry in zip(schedule, sim.attacks):
            if indices.size and np.any(values):
                attacked_mask[indices] = True
                attack_start[indices] = np.minimum(attack_start[indices], entry.start)

        for detector in sim.detectors.values():
            detector.reset()
        lanes = build_lanes(sim.detectors)

        first_alarm = {label: np.full(N, -1, dtype=int) for label in sim.detectors}
        first_detection = {label: np.full(N, -1, dtype=int) for label in sim.detectors}
        alarm_counts = {label: 0 for label in sim.detectors}
        benign_alarm_steps = {label: 0 for label in sim.detectors}
        benign_mask = ~attacked_mask

        recorder = None
        if sim.record_traces:
            recorder = {
                "states": np.zeros((N, T + 1, n)),
                "estimates": np.zeros((N, T + 1, n)),
                "inputs": np.zeros((N, T + 1, p)),
                "measurements": np.zeros((N, T, m)),
                "true_outputs": np.zeros((N, T, m)),
                "residues": np.zeros((N, T, m)),
                "attacks": np.zeros((N, T, m)),
            }
            recorder["states"][:, 0] = X0
            recorder["estimates"][:, 0] = sim.xhat0

        registry = None
        alarms_counter = None
        fused_ok = probe_fused_equivalence(sim.system, N)
        if sim.metrics is not False:
            registry = (
                sim.metrics
                if isinstance(sim.metrics, MetricsRegistry)
                else get_registry()
            )
            alarms_counter = registry.counter(
                "fleet_alarms_total", help="Detector alarms fired during fleet runs."
            )
            registry.counter(
                "fleet_kernel_runs_total",
                help="Fused-engine fleet runs by chosen path.",
            ).inc(path="fused" if fused_ok else "legacy")

        needs_measurements = any(
            lane.consumes != "residues" for lane in lanes.values()
        )

        # Instance-major (N, T, ·) draws → contiguous (T, ·, N) stacks: pure
        # layout preparation, done before the measured stepping window (the
        # legacy engine's window likewise starts after its inputs exist).
        Vt = np.ascontiguousarray(V.transpose(1, 2, 0))
        Wt = None if W is None else np.ascontiguousarray(W.transpose(1, 2, 0))
        started = Stopwatch()
        res_stack = np.empty((T, m, N))
        ya_stack = np.empty((T, m, N)) if needs_measurements else None
        self._simulate(
            sim.system,
            X0,
            sim.xhat0.copy(),
            Vt,
            Wt,
            schedule,
            fused_ok=fused_ok,
            res_out=res_stack,
            ya_out=ya_stack,
            recorder=recorder,
        )

        lane_alarms = {
            label: lane.alarms(res_stack, ya_stack) for label, lane in lanes.items()
        }
        for lane in lanes.values():
            lane.finalize()

        if not sim.sinks and sim.scraper is None:
            # No step-ordered consumers: fold the whole horizon's bookkeeping
            # into vectorized reductions (identical counts, first-alarm and
            # first-detection indices, and final counter values).
            step_axis = np.arange(T)
            for label in lanes:
                alarms = lane_alarms[label]
                total = int(np.count_nonzero(alarms))
                if not total:
                    continue
                alarm_counts[label] = total
                if alarms_counter is not None:
                    alarms_counter.inc(total, detector=label)
                benign_alarm_steps[label] = int(
                    np.count_nonzero(alarms & benign_mask[None, :])
                )
                any_alarm = alarms.any(axis=0)
                first_alarm[label][any_alarm] = alarms.argmax(axis=0)[any_alarm]
                detected = (
                    alarms
                    & attacked_mask[None, :]
                    & (step_axis[:, None] >= attack_start[None, :])
                )
                any_detected = detected.any(axis=0)
                first_detection[label][any_detected] = detected.argmax(axis=0)[
                    any_detected
                ]
        else:
            for k in range(T):
                for label in lanes:
                    alarms = lane_alarms[label][k]
                    fired = int(np.count_nonzero(alarms))
                    if not fired:
                        continue
                    alarm_counts[label] += fired
                    if alarms_counter is not None:
                        alarms_counter.inc(fired, detector=label)
                    benign_alarm_steps[label] += int(
                        np.count_nonzero(alarms & benign_mask)
                    )
                    newly = alarms & (first_alarm[label] < 0)
                    first_alarm[label][newly] = k
                    detected = (
                        alarms
                        & attacked_mask
                        & (k >= attack_start)
                        & (first_detection[label] < 0)
                    )
                    first_detection[label][detected] = k
                    if sim.sinks:
                        events = [
                            AlarmEvent(int(i), k, label, first=bool(newly[i]))
                            for i in np.flatnonzero(alarms)
                        ]
                        for sink in sim.sinks:
                            sink.emit(events)
                if sim.scraper is not None:
                    sim.scraper.maybe_scrape()
        elapsed = started.elapsed()

        if registry is not None:
            registry.counter(
                "fleet_steps_total", help="Instance-steps executed by fleet runs."
            ).inc(N * T)
            registry.counter(
                "fleet_runs_total", help="Completed FleetSimulator.run calls."
            ).inc()
            registry.histogram(
                "fleet_run_seconds", help="Wall time per FleetSimulator.run call."
            ).observe(elapsed, system=sim.system.name)
            if elapsed > 0:
                registry.gauge(
                    "fleet_throughput_steps_per_s",
                    help="Instance-steps per second of the last fleet run.",
                ).set(N * T / elapsed, system=sim.system.name)

        if sim.scraper is not None:
            sim.scraper.scrape()

        if recorder is not None:
            from repro.runtime.fleet import FleetTrace

            sim.trace = FleetTrace(
                **recorder,
                process_noise=W if W is not None else np.zeros((N, T, n)),
                measurement_noise=V,
                dt=sim.system.dt,
                metadata={"system": sim.system.name},
            )

        report = FleetReport(
            n_instances=N,
            horizon=T,
            n_attacked=int(np.sum(attacked_mask)),
            elapsed_seconds=elapsed,
            metadata={
                "system": sim.system.name,
                "seed": sim.seed,
                "engine": {"name": self.name, "fused_path": bool(fused_ok)},
                "attacks": [
                    {
                        "label": entry.label or f"attack-{index}",
                        "start": entry.start,
                        "instances": int(indices.size),
                        "template": type(entry.template).__name__,
                    }
                    for index, ((indices, _), entry) in enumerate(
                        zip(schedule, sim.attacks)
                    )
                ],
            },
        )
        for label in sim.detectors:
            report.detectors[label] = build_detector_stats(
                label=label,
                first_alarm=first_alarm[label],
                first_detection=first_detection[label],
                alarm_count=alarm_counts[label],
                benign_alarm_steps=benign_alarm_steps[label],
                attacked_mask=attacked_mask,
                attack_start=attack_start,
                horizon=T,
            )
        return report

    # ------------------------------------------------------------------
    def service_round(
        self,
        cores: Mapping[str, BatchDetector],
        residues: np.ndarray,
        measurements: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """One fused service round: shared norms over a version-keyed plan."""
        key = FusedServicePlan.cache_key(cores)
        plan = self._service_plan
        if plan is None or plan.key != key:
            plan = self._service_plan = FusedServicePlan(cores)
        return plan.round(residues, measurements)


__all__ = ["LegacyEngine", "FusedEngine"]
