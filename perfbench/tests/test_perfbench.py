"""The benchmark's own tests, at tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

They take a few minutes: every workload runs for real, briefly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
import sweep_warm  # noqa: E402
from tracer import Tracer  # noqa: E402


#: Runs a command as a child of a process that adopts orphans, then
#: prints, as the last line of its standard error, the pids of every
#: process the command left behind (running or unreaped) and stops them.
_LEAK_WATCH = """
import json, subprocess, sys
sys.path.insert(0, sys.argv[1])
import common
common.adopt_orphans()
proc = subprocess.run(sys.argv[2:], capture_output=True, text=True)
left = common.child_pids()
common.reap_children(grace_s=0.0)
sys.stdout.write(proc.stdout)
sys.stderr.write(proc.stderr + "\\n" + json.dumps(left) + "\\n")
sys.exit(proc.returncode)
"""


def _run(root: Path, workload: str, trace: int, seconds: str = "0.5") -> tuple[int, str]:
    """Run the benchmark; fail if it leaves any process behind."""
    proc = subprocess.run(
        [sys.executable, "-c", _LEAK_WATCH, str(BENCH),
         sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    left = json.loads(proc.stderr.strip().splitlines()[-1])
    assert left == [], f"processes left behind: {left}"
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", autouse=True)
def _stop_helpers():
    """Stop what the in-process tests start (the resource tracker)."""
    yield
    common.reap_children()


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    def make(workload: str, seed: int = 3) -> common.Context:
        for name in common._PROGRAM_ENV + ("REPRO_TRACE_CACHE",):
            monkeypatch.setenv(name, "")
        common.clean_program_env(tmp_path)
        return common.Context(seed=seed, work=tmp_path, refs=common.load_refs(workload))
    return make


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        run.per_layer_specs())


def test_readme_says_what_each_per_layer_metric_moves():
    readme = (BENCH / "README.md").read_text()
    for name, _, _, moves in run.per_layer_table():
        assert f"| `{name}` |" in readme and moves in readme, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_completes_with_zero_failures(workload, trace):
    code, stdout = _run(ROOT, workload, trace)
    result = _result(stdout)
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if not trace else run.per_layer_specs()
    assert set(result["metrics"]) == {spec[0] for spec in expected}
    if trace:
        assert result["metrics"]["tracing_overhead_ratio"]["value"] > 0


def test_tampered_reference_is_a_failed_operation(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    refs_path = tmp_path / "perfbench" / "refs" / "fast-tiers.json"
    refs = json.loads(refs_path.read_text())
    generic = refs["sets"]["3"]["generic"]
    key = sorted(generic)[0]
    generic[key] = "0" * 12
    refs_path.write_text(json.dumps(refs))
    code, stdout = _run(tmp_path, "fast-tiers", 0)
    result = _result(stdout)
    assert code != 0
    assert result["correct"] is False
    # One specialized job per iteration reads the tampered digest.
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def _row(workload: str) -> SimpleNamespace:
    return SimpleNamespace(workload=workload, system="baseline-tage", ipc=1.5, mpki=2.0,
                           instructions=1000, cycles=667, mispredictions=2, extra={})


def test_dropped_or_duplicated_results_are_failed_operations():
    rows = [_row(name) for name in ("hpc-fft", "fspec-bwaves", "mm-animation")]
    refs = {f"{row.workload}|{row.system}": common.digest(row) for row in rows}
    whole = common.Check()
    whole.results(rows, refs, "grid")
    assert (whole.attempted, whole.failed) == (3, 0)
    dropped = common.Check()
    dropped.results(rows[:2], refs, "grid")
    assert dropped.failed == 1
    assert "mm-animation|baseline-tage missing" in dropped.errors[0]
    doubled = common.Check()
    doubled.results(rows + rows[:1], refs, "grid")
    assert doubled.failed == 1
    assert "more than once" in doubled.errors[0]


def test_missing_program_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, stdout = _run(tmp_path, "table3-cold", 0)
    assert code != 0
    assert stdout.strip() == ""


def test_sweep_warm_restore_repeats_the_hit_ratio(ctx, tmp_path):
    context = ctx("sweep-warm")
    state = sweep_warm.setup(context)
    ratios = []
    for round_ in range(2):
        tracer = Tracer(tmp_path / f"spans-{round_}")
        tracer.install()
        check = common.Check()
        try:
            sweep_warm.iteration(context, state, check)
        finally:
            tracer.uninstall()
        assert check.failed == 0, check.errors
        totals = tracer.collect()
        loads = totals.calls[totals.index("harness.result_cache.ResultCache.load")]
        hits = totals.counters["harness.result_cache.ResultCache.load:hits"]
        ratios.append(hits / loads)
    grid = len(state.workloads) * len(sweep_warm.SYSTEMS)
    uncached = len(state.slice_names) * len(sweep_warm.SYSTEMS)
    assert ratios[0] == ratios[1] == (grid - uncached) / grid


def test_serve_generator_reports_lag_and_counts_429_as_failure(ctx):
    context = ctx("serve-mixed")
    state = serve_mixed.setup(context, extra_args=["--rate", "1", "--burst", "1"])
    try:
        check = common.Check()
        measurement = serve_mixed.measure(context, state, 1.0, check)
    finally:
        serve_mixed.teardown(state)
    assert measurement.layer["loadgen.lag_p95_ms"] >= 0.0
    assert measurement.layer["service.rate_limited"] > 0
    assert check.failed >= measurement.layer["service.rate_limited"]
    assert any("HTTP 429" in error for error in check.errors)
