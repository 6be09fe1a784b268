"""``sweep-warm``: re-running a wide sweep that the result cache mostly holds.

Every workload of the 202-workload suite x two Table 3 systems at short
traces.  Set-up simulates the grid once into a fresh result cache,
except for a fixed slice (the first :data:`SLICE_WORKLOADS` workloads of
:data:`SLICE_CATEGORY`), which each iteration simulates and stores while
the rest is read back.  Before every iteration the result cache and the
trace cache are restored to their set-up state, so every iteration does
the same reads and the same writes.

Iterations run the sweep in this process (``workers=1``).  With the
process pool each mostly-cached job is a round trip to a worker, and on
a 2-vCPU host the pooled sweep measured slower and several times
noisier: it timed pool IPC rather than the cache.  ``table3-cold`` and
``fast-tiers`` measure the pool path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from common import Check, Context, Iteration, cpu_s, fanout, reset_process_memos, seeded

NAME = "sweep-warm"
BRANCHES = 300
SYSTEMS = ("baseline-tage", "forward-walk-coalesce")
SLICE_CATEGORY = "server"
SLICE_WORKLOADS = 5


@dataclass
class State:
    workloads: list[Any]
    slice_names: set[str]
    result_dir: Path
    trace_dir: Path
    #: File names present in each cache directory right after set-up.
    snapshot: dict[Path, set[str]]


def specs(seed: int) -> tuple[list[Any], set[str]]:
    """The seeded suite, and the names of the slice left uncached."""
    from repro.workloads.suite import build_suite

    workloads = [seeded(spec, seed) for spec in build_suite()]
    in_category = [spec.name for spec in workloads if spec.category == SLICE_CATEGORY]
    return workloads, set(in_category[:SLICE_WORKLOADS])


def sweep(workloads: list[Any], workers: int, cached: bool = True) -> list[Any]:
    from repro.harness.runner import run_matrix
    from repro.harness.scale import Scale
    from repro.harness.systems import resolve_system

    return run_matrix(
        workloads,
        [resolve_system(name) for name in SYSTEMS],
        Scale(name=NAME, branches_per_workload=BRANCHES, workloads_per_category=None),
        workers=workers,
        use_result_cache=cached,
        batch=False,
        specialize=False,
    )


def setup(ctx: Context) -> State:
    workloads, slice_names = specs(ctx.seed)
    result_dir = ctx.fresh_dir("results")
    trace_dir = ctx.fresh_dir("traces")
    os.environ["REPRO_RESULT_CACHE"] = str(result_dir)
    os.environ["REPRO_TRACE_CACHE"] = str(trace_dir)
    sweep([spec for spec in workloads if spec.name not in slice_names], fanout())
    reset_process_memos()
    snapshot = {path: set(os.listdir(path)) for path in (result_dir, trace_dir)}
    return State(workloads, slice_names, result_dir, trace_dir, snapshot)


def restore(state: State) -> None:
    """Delete what an iteration added to the caches."""
    for path, names in state.snapshot.items():
        for name in set(os.listdir(path)) - names:
            (path / name).unlink()


def iteration(ctx: Context, state: State, check: Check) -> Iteration:
    restore(state)
    reset_process_memos()
    os.environ["REPRO_RESULT_CACHE"] = str(state.result_dir)
    os.environ["REPRO_TRACE_CACHE"] = str(state.trace_dir)
    c0, t0 = cpu_s(), perf_counter()
    results = sweep(state.workloads, 1)
    wall = perf_counter() - t0
    cpu = cpu_s() - c0
    check.results(results, ctx.refs["sets"][str(ctx.input_set)], NAME)
    stored = len(set(os.listdir(state.result_dir)) - state.snapshot[state.result_dir])
    expected = len(state.slice_names) * len(SYSTEMS)
    check.record(
        stored == expected,
        f"{NAME}: iteration stored {stored} results, expected the {expected} "
        "of the uncached slice",
    )
    return Iteration(
        wall_s=wall,
        latencies=[wall],
        results=results,
        cpu_s=cpu,
        sim_branches=expected * BRANCHES,
    )


def record(k: int) -> dict[str, str]:
    """Reference digests of input set ``k`` (cache off: real simulations)."""
    from common import digest

    results = sweep(specs(k)[0], fanout(), cached=False)
    return {f"{r.workload}|{r.system}": digest(r) for r in results}
