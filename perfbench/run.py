#!/usr/bin/env python3
"""The repository benchmark: Table 3 sweeps, fast tiers and serve latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``table3-cold``, ``sweep-warm``, ``fast-tiers`` and ``serve-mixed``.

With ``--trace 0`` the run sets the workload up several times (the
median is ``setup_s``), measures it for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it does the same untraced
measurement, then a separate traced measurement with the layer wrappers
of :mod:`tracer` installed, and prints the per-layer metrics, including
``tracing_overhead_ratio`` (traced / untraced ``cpu_ms_per_request``).
Gated timings are in reference seconds: host seconds scaled by a
calibration loop timed beside them (see :class:`common.HostSpeed`).

Every simulated result is checked against the reference digests in
``refs/``; a mismatch, an exception or a failed request counts as a
failed operation and the command exits 1.  The last line of standard
output is the result object; the line before it holds the host record
and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    Check,
    Context,
    HostSpeed,
    Measurement,
    adopt_orphans,
    calibration_s,
    clean_program_env,
    cpu_ms_per_request,
    end_to_end,
    host_record,
    load_refs,
    reap_children,
    request_latency,
    run_iterations,
    summarize,
)
from tracer import LAYERS, LayerTotals, Tracer, write_spans  # noqa: E402

WORKLOADS = ("table3-cold", "sweep-warm", "fast-tiers", "serve-mixed")

#: Set-ups per run; ``setup_s`` is the median.  ``sweep-warm`` fills a
#: 400-entry result cache by simulation, so it is set up once.
SETUP_REPEATS = {"table3-cold": 3, "sweep-warm": 1, "fast-tiers": 3, "serve-mixed": 3}

#: Fresh-interpreter imports per run; their median is part of ``setup_s``.
IMPORT_REPEATS = 3

#: Minimum measured iterations of the iterated workloads.
MIN_ITERATIONS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_branches_per_s", "1/s"),
    ("results_per_s", "1/s"),
    ("completed_per_s", "1/s"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
)

_T3 = "sim_branches_per_s on table3-cold"
_FT = "wall_s on fast-tiers"
_SERVE = "cpu_ms_per_request and request_mean_ms on serve-mixed"

#: Per-layer metrics not derived from a wrapped function's calls/time:
#: (name, unit, better, the end-to-end metric and workload it moves).
#: The request latencies come from the untraced measurement and are
#: reported here, ungated: on a shared host they swing with its speed
#: far more than the bounds allow (see README.md).
_DERIVED = (
    ("request_mean_ms", "ms", "lower", "ungated mean latency; serve-mixed above all"),
    ("request_p50_ms", "ms", "lower", "ungated latency percentile; serve-mixed above all"),
    ("request_p95_ms", "ms", "lower", "ungated latency percentile; serve-mixed above all"),
    ("harness.runner.trace_memo_hit_ratio", "ratio", "higher", "wall_s on table3-cold"),
    ("pipeline.PipelineModel.run.self_s", "s", "lower", _T3),
    ("pipeline.ns_per_branch", "ns", "lower", _T3),
    ("harness.result_cache.hit_ratio", "ratio", "higher",
     "wall_s and results_per_s on sweep-warm"),
    ("harness.batch.configs_batched", "count", "higher", _FT),
    ("harness.batch.configs_forwarded", "count", "lower", _FT),
    ("pipeline.specialize.specialized_branch_ratio", "ratio", "higher", _FT),
    ("pipeline.specialize.aborts", "count", "lower", _FT),
    ("harness.sampling.detailed_fraction", "ratio", "lower", _FT),
    ("service.post_ms_p50", "ms", "lower", _SERVE),
    ("service.queue_wait_ms_p95", "ms", "lower", _SERVE),
    ("service.execute_ms_p95", "ms", "lower", _SERVE),
    ("service.dedup_ratio", "ratio", "higher", _SERVE),
    ("service.cache_hit_ratio", "ratio", "higher", _SERVE),
    ("service.sim_runs", "count", "lower", _SERVE),
    ("service.rate_limited", "count", "lower", "failed operations on serve-mixed"),
    ("core.repair.events", "count", "lower", "none: simulated, must stay identical"),
    ("core.repair.bht_writes", "count", "lower", "none: simulated, must stay identical"),
    ("core.repair.busy_cycles", "cycles", "lower", "none: simulated, must stay identical"),
    ("core.unit.useful_ratio", "ratio", "higher", "none: simulated, must stay identical"),
    ("memory.l1_hit_ratio", "ratio", "higher", "none: simulated, must stay identical"),
    ("pipeline.btb_miss_rate", "ratio", "lower", "none: simulated, must stay identical"),
    ("loadgen.lag_p95_ms", "ms", "lower", "request_p95_ms on serve-mixed (generator health)"),
    ("tracing_overhead_ratio", "ratio", "lower", "none: cost of the traced run itself"),
)


def per_layer_table() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, what it moves) of every per-layer metric."""
    table: list[tuple[str, str, str, str]] = []
    for layer in LAYERS:
        table.append((f"{layer.name}.calls", "count", "lower", layer.moves))
        table.append((f"{layer.name}.busy_s", "s", "lower", layer.moves))
    return table + list(_DERIVED)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(name, unit, better) for name, unit, better, _ in per_layer_table()]


def _module(name: str) -> Any:
    import fast_tiers
    import serve_mixed
    import sweep_warm
    import table3_cold

    return {
        "table3-cold": table3_cold,
        "sweep-warm": sweep_warm,
        "fast-tiers": fast_tiers,
        "serve-mixed": serve_mixed,
    }[name]


# ------------------------------------------------------------------- #
# per-layer metrics


def _simulated_counts(rows: list[Any]) -> dict[str, float]:
    """Component counts from ``RunResult.extra``: reported, never timed."""
    events = writes = busy = saves = damages = 0.0
    l1_access = l1_miss = 0.0
    btb: list[float] = []
    for row in rows:
        extra = getattr(row, "extra", None) or {}
        repair = extra.get("repair", {})
        events += repair.get("events", 0)
        writes += repair.get("bht_writes", 0)
        busy += repair.get("busy_cycles", 0)
        unit = extra.get("unit", {})
        saves += unit.get("saves", 0)
        damages += unit.get("damages", 0)
        memory = extra.get("memory", {})
        accesses = memory.get("l1_accesses", 0)
        l1_access += accesses
        l1_miss += accesses * memory.get("l1_miss_rate", 0.0)
        if "btb_miss_rate" in extra:
            btb.append(extra["btb_miss_rate"])
    return {
        "core.repair.events": events,
        "core.repair.bht_writes": writes,
        "core.repair.busy_cycles": busy,
        "core.unit.useful_ratio": saves / (saves + damages) if saves + damages else 0.0,
        "memory.l1_hit_ratio": 1.0 - l1_miss / l1_access if l1_access else 0.0,
        "pipeline.btb_miss_rate": sum(btb) / len(btb) if btb else 0.0,
    }


def layer_metrics(
    totals: LayerTotals | None, traced: Measurement, untraced: Measurement
) -> dict[str, float]:
    values: dict[str, float] = {name: 0.0 for name, _, _ in per_layer_specs()}
    if totals is not None:
        for i, name in enumerate(totals.names):
            values[f"{name}.calls"] = float(totals.calls[i])
            values[f"{name}.busy_s"] = totals.busy[i]
        run = totals.index("pipeline.PipelineModel.run")
        values["pipeline.PipelineModel.run.self_s"] = totals.self_s[run]
        counters = totals.counters
        branches = counters.get("pipeline.PipelineModel.run:branches", 0.0)
        if branches:
            values["pipeline.ns_per_branch"] = totals.busy[run] * 1e9 / branches
        hits, calls = totals.memo_hits(
            "harness.runner.load_trace",
            ("workloads.generators.generate_trace", "trace.read_trace"),
        )
        values["harness.runner.trace_memo_hit_ratio"] = hits / calls if calls else 0.0
        loads = totals.calls[totals.index("harness.result_cache.ResultCache.load")]
        if loads:
            values["harness.result_cache.hit_ratio"] = (
                counters.get("harness.result_cache.ResultCache.load:hits", 0.0) / loads
            )
        values["harness.batch.configs_batched"] = counters.get(
            "harness.batch.BatchExecutor.execute:batched", 0.0)
        values["harness.batch.configs_forwarded"] = counters.get(
            "harness.batch.BatchExecutor.execute:forwarded", 0.0)
        total = counters.get("pipeline.specialize.run_specialized:total", 0.0)
        if total:
            values["pipeline.specialize.specialized_branch_ratio"] = counters.get(
                "pipeline.specialize.run_specialized:specialized", 0.0) / total
        values["pipeline.specialize.aborts"] = counters.get(
            "pipeline.specialize.run_specialized:aborts", 0.0)
    values.update(_simulated_counts(traced.rows))
    for name, value in traced.layer.items():
        values[name] = value
    # CPU per request, not wall_s: serve-mixed's wall_s is fixed by its
    # schedule, whatever the wrappers cost.
    values["tracing_overhead_ratio"] = cpu_ms_per_request(traced) / cpu_ms_per_request(untraced)
    latency = request_latency(untraced)
    values["request_mean_ms"] = latency["request_mean_ms"]
    values["request_p50_ms"] = latency["request_p50_ms"]
    values["request_p95_ms"] = latency["request_p95_ms"]
    return values


# ------------------------------------------------------------------- #
# running one workload


def _setup(name: str, module: Any, ctx: Context,
           speed: HostSpeed) -> tuple[Any, list[float]]:
    """Set the workload up SETUP_REPEATS times; keep the last state.

    The calibration loop is timed beside each set-up, into ``speed``.
    """
    times: list[float] = []
    state = None
    for _ in range(SETUP_REPEATS[name]):
        if state is not None and hasattr(module, "teardown"):
            module.teardown(state)
        with speed.beside():
            t0 = perf_counter()
            state = module.setup(ctx)
            times.append(perf_counter() - t0)
    return state, times


#: Times, inside a fresh interpreter, the imports a ``repro`` run pays.
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import repro.harness.runner; "
    "print(time.perf_counter() - t0)"
)


def _import_times(speed: HostSpeed) -> list[float]:
    """Seconds a fresh interpreter takes to import the harness, IMPORT_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: list[float] = []
    for _ in range(IMPORT_REPEATS):
        with speed.beside():
            probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                                   capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return times


def run_workload(name: str, ctx: Context, seconds: float, trace: bool,
                 check: Check, detail: dict[str, Any]) -> dict[str, float]:
    # The first import also compiles the sources; the timed ones do not.
    import repro.harness.runner  # noqa: F401
    module = _module(name)
    setup_speed = HostSpeed()
    import_times = _import_times(setup_speed)
    state, setup_times = _setup(name, module, ctx, setup_speed)
    setup_s = (statistics.median(import_times) + statistics.median(setup_times)
               ) * setup_speed.scale
    detail["setup"] = {"import_s": import_times, "runs_s": setup_times,
                       "host_speed": setup_speed.record()}
    spans_path = ROOT / ".perfbench-work" / "spans" / f"{name}.jsonl"
    try:
        if name == "serve-mixed":
            untraced = module.measure(ctx, state, seconds, check)
        else:
            untraced = summarize(*run_iterations(
                lambda: module.iteration(ctx, state, check), seconds, MIN_ITERATIONS))
            if name == "table3-cold":
                detail["diagnostics"] = module.paper_gap(untraced.rows)
        detail["host_speed"] = untraced.speed.record()
        detail["latency"] = request_latency(untraced)
        detail["latency"].update(untraced.layer)
        if not trace:
            # Stop and reap every child (the measured server among them)
            # first, so that peak_rss_mb counts it.  Teardown may run twice.
            _teardown(module, state)
            return end_to_end(setup_s, untraced)
        if name == "serve-mixed":
            _teardown(module, state)
            traced, raw = module.traced_measure(ctx, state, seconds, check)
            totals = LayerTotals(**raw)
        else:
            tracer = Tracer(ctx.work / "spans")
            tracer.install()
            try:
                traced = summarize(*run_iterations(
                    lambda: module.iteration(ctx, state, check), seconds, 1))
            finally:
                tracer.uninstall()
            if name == "fast-tiers":
                traced.layer.update(module.layer_extras(traced.rows))
            totals = tracer.collect()
        write_spans(totals, spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        return layer_metrics(totals, traced, untraced)
    finally:
        _teardown(module, state)


def _teardown(module: Any, state: Any) -> None:
    if hasattr(module, "teardown"):
        module.teardown(state)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    adopt_orphans()

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    clean_program_env(work)
    ctx = Context(seed=args.seed, work=work, refs=load_refs(args.workload))
    check = Check()
    detail: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": ctx.input_set,
        "host": host_record(),
    }
    metrics: dict[str, float] = {}
    try:
        metrics = run_workload(args.workload, ctx, args.seconds, bool(args.trace),
                               check, detail)
    except Exception as exc:  # the whole measurement failed: report it
        traceback.print_exc(file=sys.stderr)
        check.fail(1, f"{type(exc).__name__}: {exc}")
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    # Host speed drifts on shared machines: the loop again, after the run.
    detail["host"]["calibration_loop_s_after"] = calibration_s()
    detail["errors"] = check.errors
    if not metrics:
        print(json.dumps({"detail": detail}))
        return 1
    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in per_layer_specs()}
    result = {
        "correct": check.failed == 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
