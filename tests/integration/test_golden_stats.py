"""Golden-stats pin for the generic exact engine.

Every other identity test compares a fast tier against the generic
engine, so a semantic change to the generic engine itself would pass
them all.  This test pins the generic engine's full ``SimStats`` (every
counter plus the ``extra`` payload) on a fixed grid against digests
recorded in ``tests/data/golden_stats.json``:

* all Table 3 systems x the first workload of each category;
* the Figure 14 kb9/kb64 systems on the same workloads;
* the ``imli`` unit and the generic two-level local predictor;
* a TAGE+SC baseline.

A legitimate model change (one that is *meant* to move the numbers)
re-records the file with::

    PYTHONPATH=src python -m tests.integration.test_golden_stats

and says so in its change notes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterator
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import pytest

from repro.harness.figures.fig14 import _PART_A, _PART_B, _PART_B_BASE
from repro.harness.systems import TABLE3_SYSTEMS, SystemConfig, build_system
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import PipelineModel
from repro.pipeline.stats import SimStats
from repro.predictors.statistical_corrector import ScTagePredictor
from repro.trace.records import BranchRecord
from repro.workloads.generators.engine import generate_trace
from repro.workloads.suite import suite_by_category

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_stats.json"
BRANCHES = 1000

_EXTRA_SYSTEMS = (
    *(cfg for cfg in (*_PART_A, _PART_B_BASE, *_PART_B) if cfg.tage != "kb8"),
    SystemConfig(name="imli", scheme="imli"),
    SystemConfig(name="generic-local-forward", generic_local=True, scheme="forward"),
)


def stats_digest(stats: SimStats) -> str:
    """Digest over every SimStats counter and the extra payload."""
    payload = {f.name: getattr(stats, f.name) for f in fields(SimStats)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _workloads() -> tuple[tuple[str, tuple[BranchRecord, ...]], ...]:
    return tuple(
        (specs[0].name, tuple(generate_trace(specs[0], BRANCHES)))
        for specs in suite_by_category().values()
    )


def _system_case(config: SystemConfig) -> Callable[[list[BranchRecord]], SimStats]:
    def run(records: list[BranchRecord]) -> SimStats:
        baseline, unit = build_system(config)
        model = PipelineModel(baseline, unit=unit, hierarchy=CacheHierarchy())
        return model.run(records)

    return run


def _sc_case(records: list[BranchRecord]) -> SimStats:
    return PipelineModel(ScTagePredictor(), hierarchy=CacheHierarchy()).run(records)


def cases() -> Iterator[tuple[str, str, Callable[[list[BranchRecord]], SimStats]]]:
    """(workload, system, runner) for every pinned cell."""
    runners = [(cfg.name, _system_case(cfg)) for cfg in (*TABLE3_SYSTEMS, *_EXTRA_SYSTEMS)]
    runners.append(("tage-sc", _sc_case))
    for workload, _records in _workloads():
        for system, runner in runners:
            yield workload, system, runner


def _records(workload: str) -> list[BranchRecord]:
    return list(dict(_workloads())[workload])


def record() -> None:
    """Re-record the golden file from the current generic engine."""
    golden = {
        f"{workload}|{system}": stats_digest(runner(_records(workload)))
        for workload, system, runner in cases()
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def test_golden_grid_is_complete():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{w}|{s}" for w, s, _ in cases())
    assert len(golden) == 7 * (len(TABLE3_SYSTEMS) + len(_EXTRA_SYSTEMS) + 1)


@pytest.mark.parametrize(
    "workload,system,runner",
    list(cases()),
    ids=[f"{w}|{s}" for w, s, _ in cases()],
)
def test_generic_engine_matches_golden(workload, system, runner):
    golden = json.loads(GOLDEN.read_text())
    assert stats_digest(runner(_records(workload))) == golden[f"{workload}|{system}"]


if __name__ == "__main__":
    record()
