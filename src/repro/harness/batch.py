"""Batch-sweep policy and executor: when and how the kernel engages.

The kernel itself (:mod:`repro.pipeline.batch`) is pure — it takes a
columnar trace and predictor specs and returns predictions.  Everything
environmental lives here:

* :func:`batch_enabled` — the ``REPRO_BATCH`` gate composed with the
  explicit ``--batch`` flag (env ``off`` always wins, env ``on``
  auto-enables sweeps that never passed the flag);
* :func:`mark_batch_jobs` — plan-time grouping: jobs the kernel
  supports (table-indexed predictor, no sampling) are marked when at
  least :data:`BATCH_MIN_CONFIGS` of them share one workload, so the
  fixed cost of building index streams amortises;
* :class:`BatchExecutor` — an :class:`~repro.harness.executors.Executor`
  wrapper that runs each marked group through the kernel once (one
  trace materialisation, one pass) and forwards every unmarked job to
  its inner executor unchanged, preserving result order.

Batch results are *functional*: exact predictions, mispredictions and
MPKI, but no pipeline timing — ``ipc`` is 0.0 and ``cycles`` 0, and the
manifest (and therefore the result-cache key) carries ``engine:
"batch"`` so they can never masquerade as exact-timing results.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.harness.executors import Executor, InlineExecutor
from repro.harness.result_cache import active_cache
from repro.harness.systems import table_predictor_spec
from repro.pipeline.batch import DEFAULT_INTERVAL, BatchResult, run_batch
from repro.telemetry import TELEMETRY
from repro.trace.columns import ColumnarTrace, SharedTrace, load_columnar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult
    from repro.harness.scheduler import SimJob

__all__ = [
    "BATCH_ENV",
    "BATCH_MIN_CONFIGS",
    "batch_enabled",
    "mark_batch_jobs",
    "BatchExecutor",
]

#: Gate for the batch sweep kernel: ``on``/``1`` auto-enables batching
#: for every eligible sweep, ``off``/``0`` forces it off even when
#: ``--batch`` was passed, unset defers to the explicit flag.
BATCH_ENV = "REPRO_BATCH"

_OFF_VALUES = ("off", "0", "none", "false")
_ON_VALUES = ("on", "1", "true", "yes")

#: Minimum table-indexed configs sharing a workload before the batch
#: kernel engages; below this the per-sweep fixed costs (index-stream
#: builds, sort buffers) are not reliably worth it.
BATCH_MIN_CONFIGS = 4


def batch_enabled(explicit: bool | None = None) -> bool:
    """Resolve the batch gate from the flag and ``REPRO_BATCH``.

    ``explicit`` is the tri-state flag value: True (``--batch``), False
    (caller forcing off), None (not specified).  The environment can
    veto (``off``) or volunteer (``on``); it never overrides an
    explicit False.
    """
    value = os.environ.get(BATCH_ENV)
    normalized = value.strip().lower() if value is not None else None
    if normalized in _OFF_VALUES:
        return False
    if explicit is not None:
        return explicit
    return normalized in _ON_VALUES


def mark_batch_jobs(jobs: "Sequence[SimJob]") -> "list[SimJob]":
    """Mark kernel-supported jobs that group well, leave the rest alone.

    A job is *eligible* when its system is a bare table-indexed
    predictor (see :func:`~repro.harness.systems.table_predictor_spec`)
    and it is not sampled — the kernel is exact-functional, and a
    sampled estimate is neither.  Eligible jobs are grouped per
    workload trace and marked only when the group reaches
    :data:`BATCH_MIN_CONFIGS`; everything else (TAGE, repair schemes,
    sampled runs, small groups) keeps ``batch=False`` and runs on the
    exact engine.
    """
    groups: dict[tuple[str, int, int], list[int]] = {}
    for index, job in enumerate(jobs):
        if job.sampling is not None and job.sampling.enabled:
            continue
        if table_predictor_spec(job.system) is None:
            continue
        key = (job.spec.name, job.spec.seed, job.n_branches)
        groups.setdefault(key, []).append(index)
    marked = list(jobs)
    for indices in groups.values():
        if len(indices) < BATCH_MIN_CONFIGS:
            continue
        for index in indices:
            # The engine is part of the manifest: drop any planned one.
            marked[index] = replace(marked[index], batch=True, planned_manifest=None)
    return marked


class BatchExecutor(Executor):
    """Routes batch-marked jobs through the kernel, the rest inward.

    Marked jobs are grouped by workload trace; each group pays one
    trace materialisation and one kernel pass for *all* its configs,
    and each result is stored in the result cache like a scalar run's
    (cached jobs never get here: the scheduler answers them first).
    Unmarked jobs go to ``inner`` — so one sweep can batch its
    table-predictor sizings while its TAGE rows fan out over the
    process pool, composing with shared-memory traces and sharding.
    """

    name = "batch"

    def __init__(
        self, inner: Executor | None = None, interval: int = DEFAULT_INTERVAL
    ) -> None:
        self.inner = inner if inner is not None else InlineExecutor()
        self.interval = interval
        # Delegate the scheduler's shm pre-generation decision to the
        # inner executor: batch groups run in this process and read the
        # published segments directly when present.
        self.wants_shared_traces = self.inner.wants_shared_traces

    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        results: "list[RunResult | None]" = [None] * len(jobs)
        groups: "OrderedDict[tuple[str, int, int], list[tuple[int, SimJob]]]" = (
            OrderedDict()
        )
        forwarded: "list[tuple[int, SimJob]]" = []
        for index, job in enumerate(jobs):
            if job.batch and table_predictor_spec(job.system) is not None:
                key = (job.spec.name, job.spec.seed, job.n_branches)
                groups.setdefault(key, []).append((index, job))
            else:
                forwarded.append((index, job))
        for group in groups.values():
            group_results = self._run_group([job for _, job in group])
            for (index, _), result in zip(group, group_results):
                results[index] = result
        if forwarded:
            inner_results = self.inner.execute([job for _, job in forwarded])
            for (index, _), result in zip(forwarded, inner_results):
                results[index] = result
        return [result for result in results if result is not None]

    # ------------------------------------------------------------- #
    # one workload group

    def _materialise_trace(self, job: "SimJob") -> ColumnarTrace:
        """The group's trace as columns, cheapest available source.

        Preference order: the scheduler's shared-memory segment (zero
        decode — the kernel copies the two columns it needs before the
        handle closes), the on-disk trace cache via the memoized
        columnar loader, and finally record generation.
        """
        from repro.harness.runner import load_trace, trace_cache_path

        if job.shm_ref is not None:
            name, count = job.shm_ref
            shared = SharedTrace.attach(name, count)
            try:
                # Copy out of the segment: the scheduler unlinks it
                # when execute() returns, results must not dangle.
                return ColumnarTrace(shared.trace().array.copy())
            finally:
                shared.close()
        path = trace_cache_path(job.spec, job.n_branches)
        if path is not None and path.exists():
            return load_columnar(path)
        return ColumnarTrace.from_records(load_trace(job.spec, job.n_branches))

    def _run_group(self, jobs: "list[SimJob]") -> "list[RunResult]":
        """Kernel-evaluate one workload's batch jobs, storing each result."""
        cache = active_cache(jobs[0].use_result_cache)
        trace = self._materialise_trace(jobs[0])
        specs = [table_predictor_spec(job.system) for job in jobs]
        assert all(spec is not None for spec in specs)
        t0 = perf_counter()
        batch = run_batch(trace, [spec for spec in specs if spec is not None], self.interval)
        wall = perf_counter() - t0
        registry = TELEMETRY.registry
        registry.counter("sched.batch_groups").inc()
        registry.counter("sched.batch_configs").inc(len(jobs))
        results = []
        for lane, job in enumerate(jobs):
            result = self._lane_result(job, job.manifest(), batch, lane, wall)
            if cache is not None:
                cache.store(result)
            results.append(result)
        return results

    def _lane_result(
        self,
        job: "SimJob",
        manifest: dict[str, Any],
        batch: BatchResult,
        lane: int,
        wall: float,
    ) -> "RunResult":
        """One config's :class:`RunResult` from the group evaluation."""
        from repro.harness.runner import RunResult

        manifest["wall_s"] = wall / len(batch.specs)
        return RunResult(
            workload=job.spec.name,
            category=job.spec.category,
            system=job.system.name,
            ipc=0.0,
            mpki=batch.mpki(lane),
            instructions=batch.instructions,
            cycles=0,
            mispredictions=batch.mispredictions(lane),
            extra={
                "batch": {
                    "engine": "columnar",
                    "configs": len(batch.specs),
                    "interval": self.interval,
                    "cond_branches": batch.cond_branches,
                    "taken_branches": batch.taken_branches,
                    "accuracy": batch.accuracy(lane),
                }
            },
            manifest=manifest,
        )
