"""Tests for the benchmark-trajectory store (`repro.obs.watch.history`)."""

import json
from pathlib import Path

import pytest

from repro.obs.watch import BenchHistory, BenchRecord

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_bench(path, records):
    path.write_text(json.dumps(records, indent=2) + "\n")


class TestBenchRecord:
    def test_timed_variant_parses_metrics_and_provenance(self):
        raw = {
            "name": "test_x",
            "timestamp": 100.5,
            "timing_disabled": False,
            "git_sha": "abc123",
            "git_dirty": True,
            "elapsed": 1.25,
            "throughput": 9.5e6,
            "elapsed_s": 1.3,
            "instance_steps": 12_000_000,
            "label": "not-a-metric",
        }
        record = BenchRecord.from_raw(raw)
        assert record.test == "test_x"
        assert record.timestamp == 100.5
        assert record.git_sha == "abc123" and record.git_dirty
        assert record.metrics == {
            "elapsed": 1.25,
            "throughput": 9.5e6,
            "elapsed_s": 1.3,
            "instance_steps": 12_000_000.0,
        }

    def test_disabled_variant_without_elapsed_or_provenance(self):
        record = BenchRecord.from_raw(
            {"name": "test_y", "timestamp": 7.0, "timing_disabled": True}
        )
        assert record.timing_disabled
        assert record.git_sha == "" and not record.git_dirty
        assert record.metrics == {}

    def test_host_provenance_keys_are_not_metrics(self):
        # benchmarks/conftest.py stamps every record with the host's CPU
        # affinity and BLAS settings; cpu_affinity is an int, so without
        # the provenance list it would read as a metric series.
        from benchmarks.conftest import _host_provenance

        host = _host_provenance()
        assert set(host) == {"cpu_affinity", "blas", "blas_threads"}
        assert host["cpu_affinity"] >= 1
        raw = {"name": "t", "timestamp": 1.0, "elapsed": 0.5, **host}
        assert BenchRecord.from_raw(raw).metrics == {"elapsed": 0.5}
        history = BenchHistory()
        history.add(BenchRecord.from_raw(raw))
        assert [series.key for series in history.all_series()] == ["t/elapsed"]

    def test_bools_are_not_metrics(self):
        record = BenchRecord.from_raw({"name": "t", "timestamp": 1.0, "ok": True})
        assert record.metrics == {}

    def test_to_raw_round_trips(self):
        raw = {
            "name": "test_z",
            "timestamp": 3.0,
            "timing_disabled": False,
            "git_sha": "beef",
            "git_dirty": False,
            "throughput": 2.0,
        }
        assert BenchRecord.from_raw(BenchRecord.from_raw(raw).to_raw()) == BenchRecord.from_raw(raw)


class TestLoading:
    def test_load_dir_builds_series_ordered_by_timestamp(self, tmp_path):
        _write_bench(
            tmp_path / "BENCH_test_a.json",
            [
                {"name": "test_a", "timestamp": 2.0, "timing_disabled": False, "throughput": 20.0},
                {"name": "test_a", "timestamp": 1.0, "timing_disabled": False, "throughput": 10.0},
                {"name": "test_a", "timestamp": 3.0, "timing_disabled": True},
            ],
        )
        history = BenchHistory()
        assert history.load_dir(tmp_path) == 3
        series = history.series("test_a", "throughput")
        assert series.values == (10.0, 20.0)  # timestamp order, disabled record absent
        assert series.key == "test_a/throughput"

    def test_corrupt_file_is_skipped_like_the_writer_restarts_it(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text('[{"name": "x", "times')
        (tmp_path / "BENCH_obj.json").write_text('{"not": "a list"}')
        history = BenchHistory()
        assert history.load_dir(tmp_path) == 0
        assert len(history.skipped_files) == 2

    def test_duplicate_records_are_deduped_first_write_wins(self, tmp_path):
        raw = {"name": "t", "timestamp": 1.0, "timing_disabled": False, "elapsed": 0.5}
        _write_bench(tmp_path / "BENCH_t.json", [raw, raw])
        history = BenchHistory()
        assert history.load_dir(tmp_path) == 1
        assert len(history) == 1

    def test_real_repo_trajectory_parses_every_record(self):
        bench_files = sorted(REPO_ROOT.glob("BENCH_*.json"))
        if not bench_files:
            pytest.skip("no BENCH_*.json trajectory in this checkout")
        history = BenchHistory()
        history.load_dir(REPO_ROOT)
        assert history.skipped_files == []
        seen = {record.key() for record in history}
        variants = set()
        for path in bench_files:
            for raw in json.loads(path.read_text()):
                record = BenchRecord.from_raw(raw)
                assert record.key() in seen, f"{path.name}: record not parsed"
                variants.add("disabled" if record.timing_disabled else "timed")
                if not record.timing_disabled:
                    assert "elapsed" in record.metrics
        # The committed trajectory exercises both schema variants.
        assert "timed" in variants


class TestJsonl:
    def test_append_and_load_round_trip(self, tmp_path):
        history = BenchHistory(
            [
                BenchRecord("t", 1.0, metrics={"elapsed": 0.1}),
                BenchRecord("t", 2.0, metrics={"elapsed": 0.2}, git_sha="aa", git_dirty=True),
            ]
        )
        path = tmp_path / "history.jsonl"
        assert history.append_jsonl(path) == 2
        loaded = BenchHistory()
        assert loaded.load_jsonl(path) == 2
        assert loaded.records == history.records

    def test_append_is_idempotent(self, tmp_path):
        history = BenchHistory([BenchRecord("t", 1.0, metrics={"elapsed": 0.1})])
        path = tmp_path / "history.jsonl"
        assert history.append_jsonl(path) == 1
        assert history.append_jsonl(path) == 0
        history.add(BenchRecord("t", 2.0, metrics={"elapsed": 0.2}))
        assert history.append_jsonl(path) == 1
        assert len(path.read_text().splitlines()) == 2

    def test_truncated_trailing_line_is_dropped_silently(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps({"name": "t", "timestamp": 1.0, "timing_disabled": False}) + "\n"
            + '{"name": "t", "timesta'
        )
        history = BenchHistory()
        assert history.load_jsonl(path) == 1

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            "garbage not json\n"
            + json.dumps({"name": "t", "timestamp": 1.0, "timing_disabled": False}) + "\n"
        )
        with pytest.raises(ValueError, match="interior"):
            BenchHistory().load_jsonl(path)

    def test_missing_file_loads_nothing(self, tmp_path):
        assert BenchHistory().load_jsonl(tmp_path / "absent.jsonl") == 0

    def test_merge_is_first_write_wins(self):
        a = BenchHistory([BenchRecord("t", 1.0, metrics={"elapsed": 0.1})])
        b = BenchHistory(
            [
                BenchRecord("t", 1.0, metrics={"elapsed": 0.1}),  # duplicate
                BenchRecord("t", 2.0, metrics={"elapsed": 0.2}),
            ]
        )
        assert a.merge(b) == 1
        assert len(a) == 2


class TestSeriesViews:
    def test_tests_metrics_and_all_series(self):
        history = BenchHistory(
            [
                BenchRecord("b", 1.0, metrics={"elapsed": 0.1, "throughput": 5.0}),
                BenchRecord("a", 1.0, metrics={"elapsed": 0.4}),
            ]
        )
        assert history.tests() == ("a", "b")
        assert history.metrics("b") == ("elapsed", "throughput")
        assert [s.key for s in history.all_series()] == [
            "a/elapsed",
            "b/elapsed",
            "b/throughput",
        ]

    def test_series_carries_sha_provenance(self):
        history = BenchHistory(
            [BenchRecord("t", 1.0, git_sha="cafe", metrics={"elapsed": 0.1})]
        )
        assert history.series("t", "elapsed").shas == ("cafe",)
