"""Detector lanes: the fleet detector bank folded over pre-stacked residues.

The legacy fleet loop calls every :class:`~repro.runtime.batch.BatchDetector`
once per step on an ``(N, m)`` block.  The fused engine instead records the
whole horizon's residues (and, when needed, measurements) as transposed
``(T, m, N)`` stacks during the state recursion and then runs each detector
as a *lane* over the stack:

* :class:`ThresholdLane` — fully vectorized: one ``(T, N)`` norm block and a
  single broadcast comparison against the per-step threshold vector.
* :class:`CusumLane` — vectorized norms, then the 3-op per-step recurrence
  ``S = max(0, S + ||z|| - bias)`` (the clamp makes it inherently serial).
* :class:`GenericLane` — any other core (chi-square, plant monitors, custom
  detectors): stepped per sample on a C-contiguous float64 copy of the
  block, exactly the layout the legacy loop feeds it.

Exactness contract (float64): every inline expression replicates the numpy
ops of the legacy path operation for operation — ``np.max(np.abs(·))`` over
the channel axis for the infinity norm, ``sqrt(x0*x0 [+ x1*x1])`` /
``abs(x0) [+ abs(x1)]`` for the 2-/1-norms at ``m <= 2`` (the expansions of
``np.linalg.norm``'s reductions), the same weighted division, and the same
threshold/CUSUM comparisons — so lane alarms are bit-identical to the legacy
per-step calls.  Anything outside that envelope (``m > 2`` p-norms,
non-lockstep step counters) silently routes through :class:`GenericLane`,
which is bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.threshold import ALARM_TOLERANCE
from repro.runtime.batch import BatchCusum, BatchDetector, BatchThresholdDetector


def _norms_block(res: np.ndarray, norm, weights) -> np.ndarray | None:
    """Vectorized ``(T, N)`` residue norms over a ``(T, m, N)`` stack.

    Returns ``None`` when the norm cannot be replicated exactly inline
    (callers then fall back to the generic per-step path).
    """
    m = res.shape[1]
    if norm not in ("inf", 1, 2):
        return None
    if norm != "inf" and m > 2:
        return None
    rw = res if weights is None else res / weights[None, :, None]
    if norm == "inf":
        # A single channel makes the max a pass-through — same bits, one
        # fewer full-stack reduction.
        return np.abs(rw[:, 0, :]) if m == 1 else np.max(np.abs(rw), axis=1)
    if m == 1:
        r0 = rw[:, 0, :]
        if norm != 2:
            return np.abs(r0)
        squared = r0 * r0
        return np.sqrt(squared, out=squared)
    r0 = rw[:, 0, :]
    r1 = rw[:, 1, :]
    if norm == 2:
        summed = r0 * r0
        summed += r1 * r1
        return np.sqrt(summed, out=summed)
    total = np.abs(r0)
    total += np.abs(r1)
    return total


def _generic_alarms(core: BatchDetector, src: np.ndarray) -> np.ndarray:
    """Step ``core`` over a ``(T, m, N)`` stack exactly like the legacy loop."""
    T, N = src.shape[0], src.shape[2]
    out = np.empty((T, N), dtype=bool)
    for k in range(T):
        out[k] = core.step(np.ascontiguousarray(src[k].T))
    return out


class DetectorLane:
    """Base lane: wraps one core; default behaviour is the generic path."""

    def __init__(self, core: BatchDetector):
        self.core = core
        self._consumed = 0

    @property
    def consumes(self) -> str:
        """Which stack the lane reads: ``"residues"`` or ``"measurements"``."""
        return self.core.consumes

    def alarms(self, res: np.ndarray, measurements: np.ndarray | None) -> np.ndarray:
        """``(T, N)`` alarm flags over the whole horizon."""
        src = res if self.core.consumes == "residues" else measurements
        return _generic_alarms(self.core, src)

    def finalize(self) -> None:
        """Write inline-advanced state back into the core (no-op when generic)."""


class GenericLane(DetectorLane):
    """Per-step fallback lane: correct for every :class:`BatchDetector`."""


class ThresholdLane(DetectorLane):
    """Vectorized lane for :class:`BatchThresholdDetector` (fleet lockstep)."""

    def alarms(self, res: np.ndarray, measurements: np.ndarray | None) -> np.ndarray:
        core = self.core
        vector = core.threshold
        # Inline evaluation assumes the whole fleet shares one threshold
        # timeline (true after the engine's reset); otherwise fall through.
        if np.any(core._steps):
            return _generic_alarms(core, res)
        norms = _norms_block(res, vector.norm, vector.weights)
        if norms is None:
            return _generic_alarms(core, res)
        T = res.shape[0]
        index = np.minimum(np.arange(T), vector.length - 1)
        adjusted = vector.values[index] - ALARM_TOLERANCE
        self._consumed = T
        out = np.empty(norms.shape, dtype=bool)
        np.greater_equal(norms, adjusted[:, None], out=out)
        return out

    def finalize(self) -> None:
        if self._consumed:
            self.core._steps += self._consumed
            self.core._step_index += self._consumed


class CusumLane(DetectorLane):
    """Vectorized-norm lane for :class:`BatchCusum`."""

    def __init__(self, core: BatchCusum):
        super().__init__(core)
        self._statistic: np.ndarray | None = None

    def alarms(self, res: np.ndarray, measurements: np.ndarray | None) -> np.ndarray:
        detector = self.core.detector
        norms = _norms_block(res, detector.norm, None)
        if norms is None:
            return _generic_alarms(self.core, res)
        T, N = norms.shape
        out = np.empty((T, N), dtype=bool)
        statistic = np.array(self.core._statistic, dtype=np.float64)
        scratch = np.empty(N, dtype=np.float64)
        for k in range(T):
            np.add(statistic, norms[k], out=scratch)
            np.subtract(scratch, detector.bias, out=scratch)
            np.maximum(0.0, scratch, out=statistic)
            np.greater_equal(statistic, detector.threshold, out=out[k])
        self._statistic = statistic
        self._consumed = T
        return out

    def finalize(self) -> None:
        if self._consumed:
            self.core._statistic = self._statistic
            self.core._step_index += self._consumed


def build_lane(core: BatchDetector) -> DetectorLane:
    """The fastest exact lane for ``core``."""
    if type(core) is BatchThresholdDetector:
        return ThresholdLane(core)
    if type(core) is BatchCusum:
        return CusumLane(core)
    return GenericLane(core)


def build_lanes(cores: dict[str, BatchDetector]) -> dict[str, DetectorLane]:
    """One lane per deployed detector, in bank order."""
    return {label: build_lane(core) for label, core in cores.items()}


__all__ = [
    "DetectorLane",
    "ThresholdLane",
    "CusumLane",
    "GenericLane",
    "build_lane",
    "build_lanes",
]
