"""Fleet execution engines: a choice of stepper for the one fleet run body.

Engines are the registry-resolved strategies behind
:class:`~repro.runtime.fleet.FleetSimulator` runs and
:class:`~repro.serve.service.MonitorService` rounds.  A fleet run has one
body (stream set-up, per-step detector cores, sinks, scraper, recorder and
report, all in :mod:`repro.runtime.fleet`); an engine only chooses the
closed-loop stepper that body drives:

* :class:`LegacyEngine` (``engine="legacy"``, the default) — the per-step
  ``(N, ·)`` products of :class:`~repro.runtime.fleet._BatchStepper`.
* :class:`FusedEngine` (``engine="fused"``) — the one-GEMM-per-step
  :class:`~repro.runtime.kernel.core.FusedStepper`, when
  :func:`~repro.runtime.kernel.core.probe_fused_equivalence` accepts it at
  the run's width; otherwise the legacy stepper (the probe fallback).
  Output is bit-identical either way.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.lti.simulate import ClosedLoopSystem
from repro.obs.metrics import MetricsRegistry
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.fleet import _BatchStepper
from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence
from repro.runtime.kernel.serve import FusedServicePlan


@ENGINES.register("legacy")
class LegacyEngine:
    """The per-step ``(N, ·)`` stepper (the default engine).

    It is the bit-for-bit reference every fused run is gated against.
    """

    name = "legacy"

    def make_stepper(
        self,
        system: ClosedLoopSystem,
        x0: np.ndarray,
        xhat0: np.ndarray,
        registry: MetricsRegistry | None = None,
    ) -> tuple[_BatchStepper, dict]:
        """The legacy stepper over ``(N, n)`` initial states; no report metadata."""
        return _BatchStepper(system, x0, xhat0), {}

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

    def make_stepper(
        self,
        system: ClosedLoopSystem,
        x0: np.ndarray,
        xhat0: np.ndarray,
        registry: MetricsRegistry | None = None,
    ) -> tuple[FusedStepper | _BatchStepper, dict]:
        """The fused stepper if the probe accepts the run's width, else legacy.

        Returns the stepper and the report's ``engine`` metadata (``name``
        and ``fused_path``); the choice is also counted in ``registry``.
        """
        fused_path = probe_fused_equivalence(system, x0.shape[0])
        if registry is not None:
            registry.counter(
                "fleet_kernel_runs_total",
                help="Fused-engine fleet runs by chosen path.",
            ).inc(path="fused" if fused_path else "legacy")
        stepper_class = FusedStepper if fused_path else _BatchStepper
        metadata = {"engine": {"name": self.name, "fused_path": bool(fused_path)}}
        return stepper_class(system, x0, xhat0), metadata

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
