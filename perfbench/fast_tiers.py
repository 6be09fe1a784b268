"""``fast-tiers``: the opt-in engine tiers, each on the sweep it serves.

Two workloads at long traces (set-up generates them into the trace
cache), then per iteration three user-level requests:

* the 16-spec ``BATCH_SWEEP_SPECS`` grid with ``batch=True``;
* ``baseline-tage`` and ``forward-walk-coalesce`` with ``specialize=True``;
* the same two systems under the ``SamplingConfig`` ``repro perf`` uses.

Specialized results must match the generic engine's reference digests;
batch and sampled results are checked against their own references.
In-process memos (decoded traces, compiled engines) are dropped before
each iteration, so each one pays codegen and trace decode as a fresh
process does.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any

from common import Check, Context, Iteration, cpu_s, fanout, reset_process_memos, seeded

NAME = "fast-tiers"
BRANCHES = 20_000
WORKLOADS = ("hpc-fft", "fspec-bwaves")
SYSTEMS = ("baseline-tage", "forward-walk-coalesce")


def specs(seed: int) -> list[Any]:
    from repro.workloads.suite import get_workload

    return [seeded(get_workload(name), seed) for name in WORKLOADS]


def _scale() -> Any:
    from repro.harness.scale import Scale

    return Scale(name=NAME, branches_per_workload=BRANCHES, workloads_per_category=None)


def batch_sweep(workloads: list[Any]) -> list[Any]:
    from repro.harness.perf import BATCH_SWEEP_SPECS
    from repro.harness.runner import run_matrix
    from repro.harness.systems import resolve_system

    return run_matrix(
        workloads,
        [resolve_system(name) for name in BATCH_SWEEP_SPECS],
        _scale(),
        workers=1,
        use_result_cache=False,
        batch=True,
        specialize=False,
    )


def exact_sweep(workloads: list[Any], specialize: bool, sampled: bool) -> list[Any]:
    from repro.harness.runner import run_matrix
    from repro.harness.sampling import SamplingConfig
    from repro.harness.systems import resolve_system

    return run_matrix(
        workloads,
        [resolve_system(name) for name in SYSTEMS],
        _scale(),
        workers=fanout(),
        use_result_cache=False,
        batch=False,
        specialize=specialize,
        sampling=SamplingConfig(mode="periodic") if sampled else None,
    )


def setup(ctx: Context) -> list[Any]:
    from repro.harness.runner import load_trace

    os.environ["REPRO_TRACE_CACHE"] = str(ctx.fresh_dir("traces"))
    workloads = specs(ctx.seed)
    for spec in workloads:
        load_trace(spec, BRANCHES)
    reset_process_memos()
    return workloads


def _detailed_branches(results: list[Any]) -> int:
    total = 0
    for result in results:
        info = result.extra.get("sampling", {})
        total += round(info.get("detailed_fraction", 1.0) * BRANCHES)
    return total


def iteration(ctx: Context, workloads: list[Any], check: Check) -> Iteration:
    refs = ctx.refs["sets"][str(ctx.input_set)]
    reset_process_memos()
    c0, t0 = cpu_s(), perf_counter()
    batched = batch_sweep(workloads)
    t1 = perf_counter()
    special = exact_sweep(workloads, specialize=True, sampled=False)
    t2 = perf_counter()
    sampled = exact_sweep(workloads, specialize=False, sampled=True)
    t3 = perf_counter()
    cpu = cpu_s() - c0
    check.results(batched, refs["batch"], f"{NAME} batch")
    check.results(special, refs["generic"], f"{NAME} specialize")
    check.results(sampled, refs["sampled"], f"{NAME} sampled")
    return Iteration(
        wall_s=t3 - t0,
        latencies=[t1 - t0, t2 - t1, t3 - t2],
        results=batched + special + sampled,
        cpu_s=cpu,
        sim_branches=(len(batched) + len(special)) * BRANCHES + _detailed_branches(sampled),
    )


def layer_extras(rows: list[Any]) -> dict[str, float]:
    """Sampling share, read from the sampled results."""
    fractions = [
        row.extra["sampling"]["detailed_fraction"]
        for row in rows
        if "sampling" in row.extra
    ]
    return {
        "harness.sampling.detailed_fraction": (
            sum(fractions) / len(fractions) if fractions else 0.0
        )
    }


def record(k: int) -> dict[str, dict[str, str]]:
    """Reference digests of input set ``k``: generic exact, batch, sampled."""
    from common import digest

    workloads = specs(k)

    def table(results: list[Any]) -> dict[str, str]:
        return {f"{r.workload}|{r.system}": digest(r) for r in results}

    generic = exact_sweep(workloads, specialize=False, sampled=False)
    return {
        "generic": table(generic),
        "batch": table(batch_sweep(workloads)),
        "sampled": table(exact_sweep(workloads, specialize=False, sampled=True)),
    }
