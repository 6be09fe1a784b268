"""Unit tests for sweep sharding, stale-tmp sweeping, and the
shared-memory trace transport."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from repro.errors import ConfigError
from repro.harness import runner
from repro.harness.runner import (
    _seed_memo_from_shm,
    _sweep_stale_tmp,
    load_trace,
    run_matrix,
    shard_bounds,
)
from repro.harness.scale import Scale
from repro.harness.systems import TABLE3_SYSTEMS, SystemConfig
from repro.telemetry import TELEMETRY
from repro.trace.columns import ColumnarTrace, SharedTrace

_BY_NAME = {cfg.name: cfg for cfg in TABLE3_SYSTEMS}


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Isolate the worker-local trace memo per test."""
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())


class TestShardBounds:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 22, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_disjoint_and_covering(self, count, n):
        spans = [shard_bounds(count, (k, n)) for k in range(1, n + 1)]
        # Contiguous in shard order, covering [0, count) exactly once.
        assert spans[0][0] == 0
        assert spans[-1][1] == count
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start == prev_end
        # Balanced: sizes differ by at most one.
        sizes = [end - start for start, end in spans]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        for bad in [(0, 4), (5, 4), (1, 0), (-1, 3)]:
            with pytest.raises(ConfigError):
                shard_bounds(10, bad)

    def test_single_shard_is_identity(self):
        assert shard_bounds(13, (1, 1)) == (0, 13)

    def test_matrix_sharding_partitions_results(self, tiny_spec):
        scale = Scale(name="t", branches_per_workload=1200, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"],
                   _BY_NAME["forward-walk-coalesce"]]
        full = run_matrix([tiny_spec], systems, scale, workers=1)
        sharded = [
            result
            for k in (1, 2)
            for result in run_matrix(
                [tiny_spec], systems, scale, workers=1, shard=(k, 2)
            )
        ]
        assert sharded == full


class TestStaleTmpSweep:
    def _dead_pid(self) -> int:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_dead_writer_tmp_removed(self, tmp_path):
        stale = tmp_path / f"w-1-100.trace.{self._dead_pid()}.tmp"
        stale.write_bytes(b"partial")
        _sweep_stale_tmp(tmp_path)
        assert not stale.exists()

    def test_live_and_own_tmp_kept(self, tmp_path):
        own = tmp_path / f"w-1-100.trace.{os.getpid()}.tmp"
        own.write_bytes(b"mine")
        live = tmp_path / "w-2-100.trace.1.tmp"  # PID 1 is always alive
        live.write_bytes(b"theirs")
        _sweep_stale_tmp(tmp_path)
        assert own.exists()
        assert live.exists()

    def test_writer_unique_names_swept_by_pid(self, tmp_path):
        stale = tmp_path / f"w-1-100.trace.{self._dead_pid()}.140211.3.tmp"
        stale.write_bytes(b"partial")
        live = tmp_path / "w-2-100.trace.1.140211.0.tmp"
        live.write_bytes(b"theirs")
        _sweep_stale_tmp(tmp_path)
        assert not stale.exists()
        assert live.exists()

    def test_malformed_names_kept(self, tmp_path):
        odd = tmp_path / "not-a-writer.tmp"
        odd.write_bytes(b"?")
        noise = tmp_path / "w.trace.notapid.tmp"
        noise.write_bytes(b"?")
        _sweep_stale_tmp(tmp_path)
        assert odd.exists()
        assert noise.exists()

    def test_swept_before_cache_write(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        stale = tmp_path / f"x-1-1.trace.{self._dead_pid()}.tmp"
        stale.write_bytes(b"partial")
        load_trace(tiny_spec, 500)
        assert not stale.exists()
        assert (tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-500.trace").exists()


class TestConcurrentTraceWrites:
    def test_threads_writing_one_trace_never_collide(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        # The server's worker threads share a PID: each writer needs a
        # temp file of its own, or one thread's rename steals another's.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def load() -> None:
            barrier.wait()
            try:
                load_trace(tiny_spec, 2000)
            except BaseException as exc:  # simlint: ignore[ERR001] -- collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=load) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert (tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-2000.trace").exists()


class TestShmTransport:
    def test_worker_path_does_zero_decodes(self, tiny_spec):
        """A shm-seeded worker never decodes or generates a trace.

        Runs the worker-side path in this process so the telemetry
        counters are observable: after seeding the memo from the
        shared segment, ``load_trace`` must be served entirely from
        the memo (``trace.decodes`` stays 0) off a single attach.
        """
        n = 800
        records = load_trace(tiny_spec, n)  # parent-side decode
        shared = ColumnarTrace.from_records(records).publish()
        try:
            runner._TRACE_MEMO.clear()  # become a "fresh worker"
            TELEMETRY.enable()
            try:
                registry = TELEMETRY.registry
                ref = (shared.name, len(records))
                _seed_memo_from_shm(tiny_spec, n, ref)
                assert load_trace(tiny_spec, n) == records
                _seed_memo_from_shm(tiny_spec, n, ref)  # memo hit, no re-attach
                assert registry.counter("trace.decodes").value == 0
                assert registry.counter("trace.shm_attaches").value == 1
            finally:
                TELEMETRY.disable()
        finally:
            shared.unlink()

    def test_parallel_matches_serial(self, tiny_spec):
        scale = Scale(name="t", branches_per_workload=1200, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"]]
        serial = run_matrix([tiny_spec], systems, scale, workers=1)
        parallel = run_matrix([tiny_spec], systems, scale, workers=2, parallel=True)
        assert parallel == serial

    def test_segments_cleaned_up_on_worker_failure(self, tiny_spec, monkeypatch):
        """The finally-unlink must run even when a worker job raises."""
        published: list[SharedTrace] = []
        original = ColumnarTrace.publish

        def tracking_publish(self: ColumnarTrace) -> SharedTrace:
            shared = original(self)
            published.append(shared)
            return shared

        monkeypatch.setattr(ColumnarTrace, "publish", tracking_publish)
        scale = Scale(name="t", branches_per_workload=600, workloads_per_category=1)
        bad = SystemConfig(name="doomed", tage="no-such-preset")
        with pytest.raises(ConfigError):
            run_matrix(
                [tiny_spec],
                [_BY_NAME["baseline-tage"], bad],
                scale,
                workers=2,
                parallel=True,
            )
        assert published, "parallel sweep should have published a segment"
        for shared in published:
            with pytest.raises(FileNotFoundError):
                SharedTrace.attach(shared.name, 1)

    def test_shm_disabled_by_env(self, tiny_spec, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SHM", "off")
        published: list[SharedTrace] = []
        original = ColumnarTrace.publish

        def tracking_publish(self: ColumnarTrace) -> SharedTrace:
            shared = original(self)
            published.append(shared)
            return shared

        monkeypatch.setattr(ColumnarTrace, "publish", tracking_publish)
        scale = Scale(name="t", branches_per_workload=600, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"]]
        serial = run_matrix([tiny_spec], systems, scale, workers=1)
        parallel = run_matrix([tiny_spec], systems, scale, workers=2, parallel=True)
        assert parallel == serial
        assert not published


class TestCorruptTraceCache:
    def test_corrupt_cached_file_regenerated(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        fresh = load_trace(tiny_spec, 500)
        path = tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-500.trace"
        assert path.exists()
        path.write_bytes(path.read_bytes()[:-7])  # truncate the cached file
        runner._TRACE_MEMO.clear()
        again = load_trace(tiny_spec, 500)
        assert again == fresh
        assert path.exists()  # rewritten intact
