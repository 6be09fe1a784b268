"""Sweep scheduling: one planning/dispatch path for CLI and service.

Historically :func:`repro.harness.runner.run_matrix` mixed four
concerns — enumerating the (workload x system) job list, consulting the
persistent result cache, pre-generating traces into shared memory, and
driving a process pool.  The simulation service needs the same
behaviour behind a concurrent API, so those concerns now live here:

* :class:`SimJob` — one declarative, picklable (workload, system)
  simulation unit, with its provenance manifest available *before* the
  run (that manifest is the result-cache key and the service's dedup
  key);
* :class:`Scheduler` — plans job lists (including ``--shard K/N``
  slicing), answers jobs the persistent result cache holds in this
  process, prepares shared-memory traces for pool executors, and
  dispatches the rest to a pluggable
  :class:`~repro.harness.executors.Executor`.

Each planned job carries its manifest, built once at plan time with
one :class:`~repro.telemetry.manifest.ManifestBuilder` per plan; the
cache split, the shared-trace preparation, the service's request key,
the batch executor and the run itself all read that one manifest.

``run_matrix`` is now a thin wrapper over this module and is
bit-identical to its pre-refactor behaviour; the service submits the
same :class:`SimJob` lists through the same :meth:`Scheduler.run`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.harness.executors import (
    Executor,
    InlineExecutor,
    ProcessPoolExecutorBackend,
)
from repro.harness.result_cache import ResultCache, active_cache
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import SystemConfig
from repro.pipeline.config import PipelineConfig
from repro.telemetry.manifest import ManifestBuilder, RunManifest
from repro.trace.columns import ColumnarTrace, SharedTrace
from repro.workloads.spec import WorkloadSpec

__all__ = ["SimJob", "Scheduler", "execute_job", "default_executor"]


@dataclass(frozen=True)
class SimJob:
    """One schedulable (workload, system) simulation.

    Frozen and picklable so any executor — inline, process pool, or a
    future remote transport — can carry it unchanged.  ``shm_ref`` is
    ``(segment name, record count)`` when the scheduler published the
    workload's trace to shared memory, else None.
    """

    spec: WorkloadSpec
    system: SystemConfig
    n_branches: int
    pipeline: PipelineConfig | None = None
    use_result_cache: bool | None = None
    sampling: SamplingConfig | None = None
    shm_ref: tuple[str, int] | None = None
    #: Planned for the batch sweep kernel.  Set at *plan* time (not
    #: execute time) so the manifest hash and the engine that actually
    #: runs can never diverge — a batch job's cache entry is keyed with
    #: ``engine: "batch"`` and is invisible to exact-timing requests.
    batch: bool = False
    #: The provenance manifest, built once by :meth:`Scheduler.plan`
    #: and read by every consumer through :meth:`manifest`.  None on a
    #: hand-built job, whose :meth:`manifest` builds one on demand.
    planned_manifest: RunManifest | None = field(default=None, compare=False, repr=False)

    def manifest(self) -> dict[str, Any]:
        """The provenance manifest this job's run would carry.

        A fresh dict on every call, so no consumer can change what the
        next one reads.
        """
        planned = self.planned_manifest
        if planned is None:
            planned = _build_job_manifest(self, ManifestBuilder(), PipelineConfig())
        return planned.as_dict()


def _build_job_manifest(
    job: SimJob, builder: ManifestBuilder, default_pipeline: PipelineConfig
) -> RunManifest:
    return builder.build(
        job.spec,
        job.system,
        job.n_branches,
        job.pipeline if job.pipeline is not None else default_pipeline,
        sampling=job.sampling,
        engine="batch" if job.batch else None,
    )


def execute_job(job: SimJob) -> Any:
    """Run one job in the current process (the executor entry point).

    Module-level (not a method) so :class:`ProcessPoolExecutorBackend`
    can pickle it to workers.  Seeds the worker-local trace memo from
    the job's shared-memory ref when present, then takes the same
    simulation path as :func:`repro.harness.runner.run_single`, keyed
    by the job's planned manifest.  The result cache is written, not
    read: :meth:`Scheduler.run` answers cached jobs before dispatch.
    """
    from repro.harness.runner import _seed_memo_from_shm, _simulate

    if job.shm_ref is not None:
        _seed_memo_from_shm(job.spec, job.n_branches, job.shm_ref)
    return _simulate(
        job.spec,
        job.system,
        job.n_branches,
        job.pipeline,
        job.sampling,
        job.manifest(),
        active_cache(job.use_result_cache),
    )


def default_executor(
    n_jobs: int,
    n_systems: int,
    parallel: bool | None = None,
    workers: int | None = None,
) -> Executor:
    """The executor ``run_matrix`` historically picked.

    ``workers`` pins the process count (1 forces inline), ``parallel``
    is the explicit toggle, and ``None`` auto-enables fan-out at 8+
    jobs — exactly the pre-refactor thresholds.
    """
    from repro.harness.runner import _worker_count

    if workers is not None:
        parallel = workers > 1
    elif parallel is None:
        parallel = n_jobs >= 8
    if not parallel or n_jobs <= 1:
        return InlineExecutor()
    n_workers = _worker_count(n_jobs, override=workers)
    # Chunk so one worker handles all systems of a workload in
    # sequence: its worker-local trace memo then materialises each
    # trace exactly once.
    chunksize = max(1, min(n_systems, -(-n_jobs // n_workers)))
    return ProcessPoolExecutorBackend(workers=n_workers, chunksize=chunksize)


class Scheduler:
    """Plans and dispatches simulation jobs against an executor."""

    def __init__(self, use_result_cache: bool | None = None) -> None:
        #: Tri-state persistent-cache override applied to every job
        #: this scheduler plans (None = defer to ``REPRO_RESULT_CACHE``).
        self.use_result_cache = use_result_cache

    # ------------------------------------------------------------- #
    # planning

    def plan(
        self,
        workloads: Sequence[WorkloadSpec],
        systems: Sequence[SystemConfig],
        n_branches: int,
        pipeline: PipelineConfig | None = None,
        sampling: SamplingConfig | None = None,
        shard: tuple[int, int] | None = None,
        batch: bool = False,
    ) -> list[SimJob]:
        """The workload-major job list, optionally shard-sliced.

        With ``batch=True``, jobs that the batch sweep kernel supports
        are marked ``batch=True`` whenever enough of them share one
        workload (see :func:`mark_batch_jobs`); marking happens *after*
        shard slicing so each shard makes its own grouping decision
        from the jobs it will actually run.

        Every returned job carries its manifest.  One
        :class:`~repro.telemetry.manifest.ManifestBuilder` serves the
        whole plan, so each configuration and each workload is hashed
        once and the ``REPRO_*`` environment is read once; nothing is
        memoised beyond this call.
        """
        from repro.harness.runner import shard_bounds

        jobs = [
            SimJob(
                spec=spec,
                system=system,
                n_branches=n_branches,
                pipeline=pipeline,
                use_result_cache=self.use_result_cache,
                sampling=sampling,
            )
            for spec in workloads
            for system in systems
        ]
        if shard is not None:
            start, end = shard_bounds(len(jobs), shard)
            jobs = jobs[start:end]
        if batch:
            from repro.harness.batch import mark_batch_jobs

            jobs = mark_batch_jobs(jobs)
        builder = ManifestBuilder()
        default_pipeline = PipelineConfig()
        return [
            replace(
                job,
                planned_manifest=_build_job_manifest(job, builder, default_pipeline),
            )
            for job in jobs
        ]

    # ------------------------------------------------------------- #
    # cache interaction

    def split_cached(
        self, jobs: Sequence[SimJob]
    ) -> tuple[dict[int, Any], list[SimJob]]:
        """Partition jobs into cache-answered results and work to run.

        Returns ``(hits, misses)`` where ``hits`` maps each job's index
        in ``jobs`` to its cached
        :class:`~repro.harness.runner.RunResult` and ``misses`` is the
        remaining jobs in order.  Each job is looked up under its own
        cache policy (``SimJob.use_result_cache``, the one it runs
        under); with no active cache a job is a miss.  This is how the
        service answers repeat queries without re-simulation while
        still counting exactly what it skipped.
        """
        caches: dict[bool | None, ResultCache | None] = {}
        hits: dict[int, Any] = {}
        misses: list[SimJob] = []
        for index, job in enumerate(jobs):
            policy = job.use_result_cache
            if policy not in caches:
                caches[policy] = active_cache(policy)
            cache = caches[policy]
            cached = cache.load(job.manifest()) if cache is not None else None
            if cached is not None:
                hits[index] = cached
            else:
                misses.append(job)
        return hits, misses

    # ------------------------------------------------------------- #
    # dispatch

    def run(
        self,
        jobs: Sequence[SimJob],
        executor: Executor | None = None,
        shm: bool = True,
    ) -> list[Any]:
        """Results of ``jobs`` in order: cached ones read, the rest run.

        Jobs the persistent result cache holds are answered here, in
        this process, so an executor only ever receives work that needs
        simulating: a fully cached pooled sweep starts no worker and
        publishes no shared-memory trace.
        """
        hits, misses = self.split_cached(jobs)
        fresh = iter(self.dispatch(misses, executor, shm) if misses else ())
        return [hits[i] if i in hits else next(fresh) for i in range(len(jobs))]

    def dispatch(
        self,
        jobs: Sequence[SimJob],
        executor: Executor | None = None,
        shm: bool = True,
    ) -> list[Any]:
        """Execute ``jobs`` on ``executor`` (default inline), in order.

        No cache split happens here; callers that already split (the
        service counts its cache hits) dispatch the misses directly.
        For executors that want shared traces (the local process pool),
        each workload's trace is generated once in this process and
        published to a shared-memory segment that workers attach
        instead of decoding.  Segments are unlinked on the way out even
        when a worker dies.
        """
        if executor is None:
            executor = InlineExecutor()
        if not jobs:
            return []
        if not (shm and executor.wants_shared_traces):
            return executor.execute(list(jobs))
        prepared, segments = self._prepare_shared_traces(jobs)
        try:
            return executor.execute(prepared)
        finally:
            for shared in segments:
                shared.unlink()

    def _prepare_shared_traces(
        self, jobs: Sequence[SimJob]
    ) -> tuple[list[SimJob], list[SharedTrace]]:
        """Pre-generate traces serially and publish them to shm.

        Serial generation means workers never race on producing the
        same trace (they would all write identical files, but the work
        would be duplicated).  Returns the jobs with ``shm_ref`` filled
        in plus the live segments the caller must unlink.
        """
        from repro.harness.runner import _shm_enabled, load_trace

        by_spec: OrderedDict[str, tuple[WorkloadSpec, list[SimJob]]] = OrderedDict()
        for job in jobs:
            by_spec.setdefault(job.spec.name, (job.spec, []))[1].append(job)
        shm_refs: dict[str, tuple[str, int]] = {}
        segments: list[SharedTrace] = []
        use_shm = _shm_enabled()
        try:
            for spec, spec_jobs in by_spec.values():
                records = load_trace(spec, spec_jobs[0].n_branches)
                if use_shm:
                    shared = ColumnarTrace.from_records(records).publish()
                    segments.append(shared)
                    shm_refs[spec.name] = (shared.name, len(records))
        except BaseException:
            for shared in segments:
                shared.unlink()
            raise
        prepared = [
            replace(job, shm_ref=shm_refs.get(job.spec.name)) for job in jobs
        ]
        return prepared, segments
