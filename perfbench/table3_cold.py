"""``table3-cold``: the paper's Table 3 sweep from an empty trace cache.

All 11 Table 3 systems x the first workload of each of the 7 categories,
on the generic exact engine (batch, specialize, sampling and the result
cache off), fanned out over at most two processes.  Each iteration
starts with an empty trace-cache directory and forgets the in-process
trace memo, so trace generation and the cache write are measured too.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter
from typing import Any

from common import Check, Context, Iteration, cpu_s, fanout, reset_process_memos, seeded

NAME = "table3-cold"
BRANCHES = 1_000


def specs(seed: int) -> list[Any]:
    from repro.harness.runner import select_workloads
    from repro.harness.scale import SCALES

    return [seeded(spec, seed) for spec in select_workloads(SCALES["smoke"])]


def sweep(workloads: list[Any], workers: int) -> list[Any]:
    """The Table 3 sweep exactly as the benchmark runs it."""
    from repro.harness.runner import run_matrix
    from repro.harness.scale import Scale
    from repro.harness.systems import TABLE3_SYSTEMS

    return run_matrix(
        workloads,
        TABLE3_SYSTEMS,
        Scale(name=NAME, branches_per_workload=BRANCHES, workloads_per_category=1),
        workers=workers,
        use_result_cache=False,
        batch=False,
        specialize=False,
        sampling=None,
    )


def setup(ctx: Context) -> list[Any]:
    return specs(ctx.seed)


def iteration(ctx: Context, workloads: list[Any], check: Check) -> Iteration:
    reset_process_memos()
    traces = ctx.fresh_dir("traces")
    os.environ["REPRO_TRACE_CACHE"] = str(traces)
    c0, t0 = cpu_s(), perf_counter()
    results = sweep(workloads, fanout())
    wall = perf_counter() - t0
    cpu = cpu_s() - c0
    shutil.rmtree(traces, ignore_errors=True)
    check.results(results, ctx.refs["sets"][str(ctx.input_set)], NAME)
    return Iteration(
        wall_s=wall,
        latencies=[wall],
        results=results,
        cpu_s=cpu,
        sim_branches=len(results) * BRANCHES,
    )


def paper_gap(results: list[Any]) -> dict[str, Any]:
    """Model vs paper Table 3: ungated diagnostics, never a target.

    The model is validated against no hardware and runs on synthetic
    traces, so these gaps describe the reproduction, not a defect.
    """
    from repro.harness.figures.common import overall_row, retained_fraction
    from repro.harness.runner import pair_results
    from repro.harness.systems import PAPER_TABLE3

    paired = pair_results(results, "baseline-tage")
    rows: dict[str, Any] = {}
    ipc_gaps: list[float] = []
    retained_gaps: list[float] = []
    for system, paper in PAPER_TABLE3.items():
        if system not in paired:
            continue
        mpki_red = overall_row(paired[system], "mpki") * 100.0
        ipc_gain = overall_row(paired[system], "ipc") * 100.0
        retained = retained_fraction(paired, system) * 100.0
        rows[system] = {
            "mpki_reduction_pct": mpki_red,
            "ipc_gain_pct": ipc_gain,
            "retained_pct": retained,
            "paper": {"mpki_reduction_pct": paper[0], "ipc_gain_pct": paper[1],
                      "retained_pct": paper[2]},
        }
        ipc_gaps.append(abs(ipc_gain - paper[1]))
        retained_gaps.append(abs(retained - paper[2]))
    return {
        "model.table3_ipc_gain_gap_pp": sum(ipc_gaps) / max(1, len(ipc_gaps)),
        "model.table3_retained_gap_pp": sum(retained_gaps) / max(1, len(retained_gaps)),
        "systems": rows,
        "caveat": "ungated: the model is unvalidated against hardware and runs on "
        "synthetic traces; it is never tuned toward the paper",
    }


def record(k: int) -> dict[str, str]:
    """Reference digests of input set ``k`` (see ``record_refs.py``)."""
    from common import digest

    return {f"{r.workload}|{r.system}": digest(r) for r in sweep(specs(k), fanout())}
