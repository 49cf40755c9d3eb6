"""Benchmark-trajectory store: parse ``BENCH_*.json`` into watchable series.

``benchmarks/conftest.py`` appends one record per benchmark run to
``BENCH_<test>.json`` (a JSON array, newest last, capped).  The schema has
drifted benignly over the repo's history and this parser tolerates every
variant in the wild:

* timed records carry ``elapsed`` (pytest-benchmark wall total) *and*
  whatever JSON-native numbers the test stuffed into ``extra_info``
  (``throughput``, ``elapsed_s``, ``instance_steps``, ...);
* ``--benchmark-disable`` smoke records have ``timing_disabled: true`` and
  may omit ``elapsed`` entirely;
* records written since the provenance stamp may carry ``git_sha`` /
  ``git_dirty``; older ones don't.

Every *numeric, non-provenance* key becomes its own metric series, so a
test contributes e.g. ``(test, "throughput")`` and ``(test, "elapsed")``
independently and a record missing a metric simply contributes no point to
that series.

:class:`BenchHistory` also reads/appends crash-tolerant JSONL (one raw
record per line) in the ``ResultStore``/``ServiceLog`` style — a truncated
trailing line (killed mid-append) is dropped silently, a corrupt interior
line raises — and supports first-write-wins :meth:`BenchHistory.merge` so
CI can accumulate history across runs from cached artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.runtime.events import _stripped_lines

#: Keys that are provenance/metadata, never metric values.  ``cpu_affinity``
#: (an int) must be listed or it would read as a metric series.
_PROVENANCE_KEYS = frozenset(
    {
        "name",
        "timestamp",
        "timing_disabled",
        "git_sha",
        "git_dirty",
        "cpu_affinity",
        "blas",
        "blas_threads",
    }
)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation: a test name, a timestamp, and its metrics.

    ``metrics`` maps metric name to value for every numeric non-provenance
    key of the raw record (bools excluded).  ``git_sha`` is ``""`` and
    ``git_dirty`` is ``False`` when the record predates the provenance
    stamp or was produced outside a git checkout.
    """

    test: str
    timestamp: float
    timing_disabled: bool = False
    git_sha: str = ""
    git_dirty: bool = False
    metrics: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_raw(cls, raw: Mapping[str, object]) -> "BenchRecord":
        """Build a record from one raw BENCH dict, tolerating schema drift."""
        metrics = {
            key: float(value)
            for key, value in raw.items()
            if key not in _PROVENANCE_KEYS
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        return cls(
            test=str(raw.get("name", "")),
            timestamp=float(raw.get("timestamp", 0.0)),  # type: ignore[arg-type]
            timing_disabled=bool(raw.get("timing_disabled", False)),
            git_sha=str(raw.get("git_sha", "")),
            git_dirty=bool(raw.get("git_dirty", False)),
            metrics=metrics,
        )

    def to_raw(self) -> dict:
        """Inverse of :meth:`from_raw`: the flat BENCH-file dict form."""
        raw: dict = {
            "name": self.test,
            "timestamp": self.timestamp,
            "timing_disabled": self.timing_disabled,
        }
        if self.git_sha:
            raw["git_sha"] = self.git_sha
            raw["git_dirty"] = self.git_dirty
        raw.update(self.metrics)
        return raw

    def key(self) -> str:
        """Canonical content address used for first-write-wins dedupe."""
        return json.dumps(self.to_raw(), sort_keys=True)


@dataclass(frozen=True)
class BenchSeries:
    """One (test, metric) time series, ordered by record timestamp."""

    test: str
    metric: str
    values: tuple[float, ...]
    timestamps: tuple[float, ...]
    shas: tuple[str, ...]

    @property
    def key(self) -> str:
        """Display key, e.g. ``test_fleet_throughput/throughput``."""
        return f"{self.test}/{self.metric}"

    def __len__(self) -> int:
        return len(self.values)


class BenchHistory:
    """In-memory collection of :class:`BenchRecord` with dedupe and series views."""

    def __init__(self, records: Iterable[BenchRecord] = ()) -> None:
        self._records: list[BenchRecord] = []
        self._seen: set[str] = set()
        self.skipped_files: list[str] = []
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BenchRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[BenchRecord, ...]:
        """All records in insertion order (dedupe already applied)."""
        return tuple(self._records)

    def add(self, record: BenchRecord) -> bool:
        """Add one record; returns False (and keeps the first copy) on a dupe."""
        key = record.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._records.append(record)
        return True

    # -- loading --------------------------------------------------------

    def load_file(self, path: str | Path) -> int:
        """Load one ``BENCH_*.json`` array file; returns records added.

        Mirrors the writer's own tolerance: an unreadable / non-array file
        (e.g. truncated by a crash mid-rewrite) is recorded in
        :attr:`skipped_files` and contributes nothing, matching how
        ``benchmarks/conftest.py`` restarts such a history from scratch.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.skipped_files.append(str(path))
            return 0
        if not isinstance(payload, list):
            self.skipped_files.append(str(path))
            return 0
        added = 0
        for raw in payload:
            if isinstance(raw, dict):
                added += self.add(BenchRecord.from_raw(raw))
        return added

    def load_dir(self, directory: str | Path, pattern: str = "BENCH_*.json") -> int:
        """Load every matching trajectory file in ``directory``; returns records added."""
        directory = Path(directory)
        added = 0
        for path in sorted(directory.glob(pattern)):
            added += self.load_file(path)
        return added

    # -- JSONL append/merge (ResultStore/ServiceLog style) --------------

    def load_jsonl(self, path: str | Path) -> int:
        """Load an accumulated JSONL history; returns records added.

        Crash-tolerant in the ``ServiceLog`` style: a truncated *trailing*
        line is dropped silently; a corrupt *interior* line raises
        ``ValueError`` because it means the file was damaged, not merely
        cut short by a crash mid-append.
        """
        path = Path(path)
        if not path.exists():
            return 0
        lines = _stripped_lines(path)
        added = 0
        for i, line in enumerate(lines):
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break
                raise ValueError(f"corrupt interior line {i + 1} in {path}") from None
            if isinstance(raw, dict):
                added += self.add(BenchRecord.from_raw(raw))
        return added

    def append_jsonl(self, path: str | Path) -> int:
        """Append records not yet present in ``path``; returns lines written.

        Reads the existing file first (crash-tolerantly) so repeated
        appends of overlapping histories stay idempotent.
        """
        path = Path(path)
        existing = BenchHistory()
        existing.load_jsonl(path)
        fresh = [r for r in self._records if r.key() not in existing._seen]
        if not fresh:
            return 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            for record in fresh:
                handle.write(json.dumps(record.to_raw(), sort_keys=True) + "\n")
        return len(fresh)

    def merge(self, other: "BenchHistory") -> int:
        """First-write-wins merge of another history; returns records added."""
        added = 0
        for record in other:
            added += self.add(record)
        return added

    # -- series views ---------------------------------------------------

    def tests(self) -> tuple[str, ...]:
        """Distinct test names, sorted."""
        return tuple(sorted({r.test for r in self._records}))

    def metrics(self, test: str) -> tuple[str, ...]:
        """Distinct metric names recorded for ``test``, sorted."""
        names: set[str] = set()
        for record in self._records:
            if record.test == test:
                names.update(record.metrics)
        return tuple(sorted(names))

    def series(self, test: str, metric: str) -> BenchSeries:
        """The (test, metric) series ordered by timestamp (stable on ties)."""
        points = sorted(
            (
                (r.timestamp, r.metrics[metric], r.git_sha)
                for r in self._records
                if r.test == test and metric in r.metrics
            ),
            key=lambda point: point[0],
        )
        return BenchSeries(
            test=test,
            metric=metric,
            values=tuple(p[1] for p in points),
            timestamps=tuple(p[0] for p in points),
            shas=tuple(p[2] for p in points),
        )

    def all_series(self) -> tuple[BenchSeries, ...]:
        """Every non-empty (test, metric) series, sorted by display key."""
        out = [
            self.series(test, metric)
            for test in self.tests()
            for metric in self.metrics(test)
        ]
        return tuple(s for s in out if len(s))
