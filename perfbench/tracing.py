"""Outside-in span recording around the library's public entry points.

The benchmark never edits the library to measure it.  Instead
:class:`SpanRecorder` wraps the public functions and methods named in
:data:`SPAN_TARGETS` for the duration of a traced phase and restores the
originals afterwards.  Each call becomes one span: name, start, end, parent
span and the operation (request) id it belongs to; the run id is carried by
the recorder and written with the spans.  Spans are kept in compact typed
arrays in memory and written out once, when the run ends.

Module-level functions are patched wherever the library bound them (a
``from x import f`` copies the binding into the importing module), so every
``repro.*`` module global that *is* the original function is replaced.
Methods are patched on the named class and on every subclass that overrides
them, so ``NoiseModel.sample`` also covers ``BoundedUniformNoise.sample``.

:class:`CallCounter` is the untraced sibling: it counts calls at one
boundary (no clocks, no spans) for the correctness checks that need an
exact count, such as "the warm re-run makes zero solver calls".
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: ``(span name, module, attribute path)`` of every wrapped call.  A dotted
#: attribute path names a method; the span name of an overriding subclass
#: method is ``<Subclass>.<method>``.
SPAN_TARGETS = (
    # core
    ("run_pipeline", "repro.api.execute", "run_pipeline"),
    ("SynthesisSession.__init__", "repro.core.session", "SynthesisSession.__init__"),
    ("SynthesisSession.solve", "repro.core.session", "SynthesisSession.solve"),
    ("SynthesisProblem.simulate", "repro.core.problem", "SynthesisProblem.simulate"),
    ("SynthesisProblem.pfc_satisfied", "repro.core.problem", "SynthesisProblem.pfc_satisfied"),
    ("SynthesisProblem.mdc_alarm", "repro.core.problem", "SynthesisProblem.mdc_alarm"),
    ("SynthesisProblem.detector_alarm", "repro.core.problem", "SynthesisProblem.detector_alarm"),
    ("ThresholdRelaxer.relax", "repro.core.relaxation", "ThresholdRelaxer.relax"),
    ("FalseAlarmEvaluator.evaluate", "repro.core.far", "FalseAlarmEvaluator.evaluate"),
    # falsification
    ("BackendSession.solve", "repro.falsification.base", "BackendSession.solve"),
    ("linprog", "scipy.optimize", "linprog"),
    # lti / noise / utils.rng
    ("batch_simulate", "repro.runtime.fleet", "batch_simulate"),
    ("spawn_rngs", "repro.utils.rng", "spawn_rngs"),
    ("NoiseModel.sample", "repro.noise.models", "NoiseModel.sample"),
    # runtime
    ("run_fleet", "repro.runtime.engine", "run_fleet"),
    ("build_detector_bank", "repro.runtime.engine", "build_detector_bank"),
    ("FleetSimulator.run", "repro.runtime.fleet", "FleetSimulator.run"),
    ("BatchDetector.step", "repro.runtime.batch", "BatchDetector.step"),
    ("build_detector_stats", "repro.runtime.report", "build_detector_stats"),
    # serve
    ("MonitorService.ingest", "repro.serve.service", "MonitorService.ingest"),
    ("MonitorService.attach", "repro.serve.service", "MonitorService.attach"),
    ("MonitorService.detach", "repro.serve.service", "MonitorService.detach"),
    ("MonitorService.swap_thresholds", "repro.serve.service", "MonitorService.swap_thresholds"),
    ("ServiceLog.append", "repro.serve.log", "ServiceLog.append"),
    ("BatchObserver.step", "repro.serve.observer", "BatchObserver.step"),
    ("service_round", "repro.runtime.kernel.runner", "LegacyEngine.service_round"),
    ("service_round", "repro.runtime.kernel.runner", "FusedEngine.service_round"),
    ("EventSink.emit", "repro.runtime.events", "EventSink.emit"),
    # explore / api.runner
    ("Explorer.run", "repro.explore.engine", "Explorer.run"),
    ("ResultStore.get", "repro.explore.store", "ResultStore.get"),
    ("ResultStore.peek", "repro.explore.store", "ResultStore.peek"),
    ("ResultStore.put", "repro.explore.store", "ResultStore.put"),
)

_NO_PARENT = -1


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(
        owner, attribute, None
    )
    if original is None:
        return None
    return owner, attribute, original


def _subclasses(cls: type) -> list[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


class _Patches:
    """Replaced bindings, restored in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _install(targets, make_wrapper) -> tuple[_Patches, list[str]]:
    """Wrap every resolvable target; returns the patches and the missing names."""
    patches = _Patches()
    missing: list[str] = []
    for name, module_name, path in targets:
        resolved = _resolve(module_name, path)
        if resolved is None:
            missing.append(f"{module_name}:{path}")
            continue
        owner, attribute, original = resolved
        if isinstance(owner, type):
            patches.set(owner, attribute, make_wrapper(name, original))
            for sub in _subclasses(owner):
                override = sub.__dict__.get(attribute)
                if override is not None:
                    sub_name = f"{sub.__name__}.{attribute}"
                    patches.set(sub, attribute, make_wrapper(sub_name, override, name))
            continue
        wrapper = make_wrapper(name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "") or "").split(".")[0] not in ("repro", "scipy"):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    patches.set(module, key, wrapper)
    return patches, missing


class SpanRecorder:
    """Records one span per wrapped call into compact in-memory columns.

    Parameters
    ----------
    run_id:
        Identifier written with the spans (workload, seed and process id).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        #: Per name id, the wrapped target the span belongs to: an overriding
        #: subclass method (``LPBackendSession.solve``) belongs to the target
        #: it overrides (``BackendSession.solve``).
        self.families: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = {}
        self.current_op = 0
        self._stack: list[int] = []
        self._patches: _Patches | None = None
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str, family: str | None = None) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.families.append(family or name)
        return index

    @contextmanager
    def span(self, name: str):
        """Record one span opened by the benchmark itself (``bench.*``)."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrapper(self, name: str, original, family: str | None = None):
        name_id = self._name_id(name, family)
        counter = _COUNTERS.get(family or name)
        recorder = self

        def traced(*args, **kwargs):
            index = recorder._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if counter is not None:
                for key, value in counter(result).items():
                    recorder.counts[key] = recorder.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in :data:`SPAN_TARGETS`."""
        self._patches, self.missing = _install(SPAN_TARGETS, self._wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name)

    def write(self, directory: Path) -> Path:
        """Write the spans (one JSON header line, then one line per span)."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{self.run_id}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                        "spans": len(self),
                        "missing_targets": self.missing,
                    }
                )
                + "\n"
            )
            names = self.names
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                handle.write(f'["{names[row[0]]}",{row[1]},{row[2]},{row[3]},{row[4]}]\n')
        return path


def _far_counts(study) -> dict:
    return {"far.generated": study.generated, "far.kept": study.kept}


def _fleet_counts(report) -> dict:
    return {
        "fleet.loop_s": report.elapsed_seconds,
        "fleet.instance_steps": report.instance_steps,
    }


def _store_counts(row) -> dict:
    return {"store.lookups": 1, "store.hits": int(row is not None)}


def _explore_counts(report) -> dict:
    return {"explore.units_executed": report.stats["units_executed"]}


#: Counters fed from a wrapped call's return value, keyed by span name.
_COUNTERS = {
    "FalseAlarmEvaluator.evaluate": _far_counts,
    "run_fleet": _fleet_counts,
    "ResultStore.get": _store_counts,
    "ResultStore.peek": _store_counts,
    "Explorer.run": _explore_counts,
}


class CallCounter:
    """Counts calls to one method without timing them (untraced runs)."""

    def __init__(self, module_name: str, path: str):
        self.calls = 0
        self._target = (("", module_name, path),)
        self._patches: _Patches | None = None

    def _wrapper(self, _name, original, _family=None):
        counter = self

        def counted(*args, **kwargs):
            counter.calls += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def take(self) -> int:
        """The count since the last :meth:`take`, then reset."""
        calls, self.calls = self.calls, 0
        return calls

    def __enter__(self) -> "CallCounter":
        self._patches, missing = _install(self._target, self._wrapper)
        if missing:
            raise RuntimeError(f"cannot count calls to {missing[0]}")
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()
