#!/usr/bin/env python3
"""Record the reference digests the benchmark checks results against.

Usage (from the repository root)::

    python3 perfbench/record_refs.py [--workload NAME ...]

For every input set (``--seed n`` maps to input set ``n % 8``) and
every job a workload can run, this simulates the job on the generic
exact engine (batch and sampled jobs on their own engines) and writes
``refs/<workload>.json``.  Run it only on a commit whose results are
trusted: the references define what "correct" means for later changes.
Specialized results are checked against the generic digests here too.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import INPUT_SETS, clean_program_env, digest, write_refs  # noqa: E402

WORKLOADS = ("table3-cold", "sweep-warm", "fast-tiers", "serve-mixed")


def _specialize_matches(k: int, generic: dict[str, str]) -> None:
    import fast_tiers

    special = fast_tiers.exact_sweep(fast_tiers.specs(k), specialize=True, sampled=False)
    for result in special:
        key = f"{result.workload}|{result.system}"
        if digest(result) != generic[key]:
            raise SystemExit(f"specialized {key} differs from the generic engine")


def record(name: str, work: Path) -> dict[str, Any]:
    import fast_tiers
    import serve_mixed
    import sweep_warm
    import table3_cold

    sets: dict[str, Any] = {}
    for k in range(INPUT_SETS):
        os.environ["REPRO_TRACE_CACHE"] = str(work / f"traces-{name}-{k}")
        if name == "table3-cold":
            sets[str(k)] = table3_cold.record(k)
        elif name == "sweep-warm":
            sets[str(k)] = sweep_warm.record(k)
        elif name == "fast-tiers":
            sets[str(k)] = fast_tiers.record(k)
            _specialize_matches(k, sets[str(k)]["generic"])
        else:
            sets[str(k)] = serve_mixed.record(k, work / "serve")
        print(f"{name}: input set {k} recorded", file=sys.stderr)
    payload: dict[str, Any] = {"input_sets": INPUT_SETS, "sets": sets}
    if name == "serve-mixed":
        payload["suite"] = serve_mixed.record_suite()
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    work = ROOT / ".perfbench-work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    clean_program_env(work)
    try:
        for name in args.workload or WORKLOADS:
            write_refs(name, record(name, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
