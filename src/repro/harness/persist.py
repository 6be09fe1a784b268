"""Persistence of experiment results.

Sweeps at ``full`` scale take hours; persisting their raw per-run
measurements lets analyses (and EXPERIMENTS.md updates) re-aggregate
without re-simulating.  Plain JSON, one document per sweep, with enough
metadata to detect staleness.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import repro
from repro.errors import ExperimentError
from repro.harness.atomic import atomic_write_text
from repro.harness.runner import RunResult
from repro.harness.scale import Scale

__all__ = ["save_results", "load_results"]

_FORMAT_VERSION = 1


def save_results(
    path: str | Path,
    results: Sequence[RunResult],
    scale: Scale | None = None,
    label: str = "",
) -> None:
    """Write a sweep's results (plus metadata) as JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "repro_version": repro.__version__,
        "label": label,
        "scale": asdict(scale) if scale is not None else None,
        "results": [
            {
                "workload": r.workload,
                "category": r.category,
                "system": r.system,
                "ipc": r.ipc,
                "mpki": r.mpki,
                "instructions": r.instructions,
                "cycles": r.cycles,
                "mispredictions": r.mispredictions,
                "extra": r.extra,
                "manifest": r.manifest,
            }
            for r in results
        ],
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(target, json.dumps(payload, indent=1, sort_keys=True))


def load_results(path: str | Path) -> list[RunResult]:
    """Read a sweep previously written by :func:`save_results`.

    Rows come back as :class:`RunResult` dataclasses, never raw dicts.
    Files written before manifests existed load with ``manifest=None``
    (the backward-compatible default); an unknown ``format_version``
    raises :class:`ExperimentError` naming the offending file.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot load results from {path}: {exc}") from exc
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ExperimentError(
            f"results file {path} has format version {version}, "
            f"expected {_FORMAT_VERSION}"
        )
    try:
        return [
            RunResult(
                workload=row["workload"],
                category=row["category"],
                system=row["system"],
                ipc=row["ipc"],
                mpki=row["mpki"],
                instructions=row["instructions"],
                cycles=row["cycles"],
                mispredictions=row["mispredictions"],
                extra=row.get("extra", {}),
                manifest=row.get("manifest"),
            )
            for row in payload["results"]
        ]
    except (KeyError, TypeError) as exc:
        raise ExperimentError(
            f"results file {path} has a malformed row: {exc!r}"
        ) from exc
