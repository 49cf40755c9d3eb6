"""Fused monitor-service rounds: version-keyed plans over the detector bank.

A :class:`~repro.serve.service.MonitorService` round steps every deployed
core on one ``(N, m)`` residue/measurement block.  The fused plan
pre-inspects the bank once and then, per round:

* computes each distinct residue-norm *signature* ``(norm, weights)`` only
  once and shares the resulting ``(N,)`` norm vector across every threshold
  and CUSUM core with that signature,
* applies threshold comparisons with the *per-instance* step index (service
  instances attach mid-run, so there is no lockstep assumption), mutating
  the cores' own counters/accumulators in place,
* steps anything else (chi-square, plant monitors, custom cores) directly.

All detector state lives in the cores, never in the plan, so rebuilding the
plan can never reset a surviving instance.  The plan is keyed on each core's
``version`` counter (see :class:`~repro.runtime.batch.BatchDetector`):
``grow``/``compact`` (attach/detach) and ``rebind`` (threshold hot-swap)
bump it, which invalidates the cached stacks and rebuilds them against the
new membership/parameters — the fix for the latent grow-mid-run edge where a
fused service would otherwise keep applying stale pre-stacked matrices.

Norm values are computed by the detectors' *own* expressions
(:meth:`ThresholdVector.residue_norms` / :meth:`CusumDetector._norms`), so a
fused round is bit-identical to stepping the cores one by one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.detectors.threshold import alarm_comparison
from repro.runtime.batch import BatchCusum, BatchDetector, BatchThresholdDetector


class FusedServicePlan:
    """Pre-inspected execution plan for one detector-bank composition."""

    def __init__(self, cores: Mapping[str, BatchDetector]):
        self.key = self.cache_key(cores)
        self._norm_specs: list[tuple[tuple, object]] = []
        self._steps: list[tuple[str, str, tuple]] = []
        for label, core in cores.items():
            if type(core) is BatchThresholdDetector:
                vector = core.threshold
                index = self._norm_index(vector.norm, vector.weights, vector)
                self._steps.append(("threshold", label, (core, index)))
            elif type(core) is BatchCusum:
                detector = core.detector
                index = self._norm_index(detector.norm, None, detector)
                self._steps.append(("cusum", label, (core, index)))
            else:
                self._steps.append(("generic", label, (core,)))

    @staticmethod
    def cache_key(cores: Mapping[str, BatchDetector]) -> tuple:
        """Plan identity: bank labels plus every core's cache epoch."""
        return tuple((label, core.version) for label, core in cores.items())

    def _norm_index(self, norm, weights, computer) -> int:
        signature = (norm, None if weights is None else weights.tobytes())
        for index, (existing, _) in enumerate(self._norm_specs):
            if existing == signature:
                return index
        self._norm_specs.append((signature, computer))
        return len(self._norm_specs) - 1

    def round(
        self, residues: np.ndarray, measurements: np.ndarray
    ) -> dict[str, np.ndarray]:
        """One service round; label → ``(N,)`` alarm flags, bank order."""
        norms_cache: list[np.ndarray | None] = [None] * len(self._norm_specs)

        def norms_for(index: int) -> np.ndarray:
            norms = norms_cache[index]
            if norms is None:
                _, computer = self._norm_specs[index]
                if hasattr(computer, "residue_norms"):
                    norms = computer.residue_norms(residues)
                else:
                    norms = computer._norms(residues)
                norms_cache[index] = norms
            return norms

        alarms: dict[str, np.ndarray] = {}
        for kind, label, payload in self._steps:
            if kind == "threshold":
                core, index = payload
                alarms[label] = alarm_comparison(norms_for(index), core._advance())
            elif kind == "cusum":
                core, index = payload
                alarms[label] = core._accumulate(norms_for(index))
            else:
                (core,) = payload
                values = residues if core.consumes == "residues" else measurements
                alarms[label] = core.step(values)
        return alarms


__all__ = ["FusedServicePlan"]
