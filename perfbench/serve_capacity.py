#!/usr/bin/env python3
"""Saturating throughput of ``repro serve`` on the ``serve-mixed`` mix.

Usage (from the repository root)::

    python3 perfbench/serve_capacity.py --seed 1 --connections 4

Boots the server as ``serve-mixed``'s set-up does, but with the
per-client rate limit lifted: this measures how fast the service
processes the mix, not its admission limiter.  It then sends the exact
schedule one ``serve-mixed`` run sends, in a **closed loop**: each
connection sends the next request as soon as its previous job is
terminal.  It prints the completed requests per second, the capacity
that ``serve_mixed.RATE`` is a stated fraction of, and the mean time of
each request kind.  Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import serve_mixed  # noqa: E402
from common import Context, clean_program_env, load_refs  # noqa: E402


def kind_of(request: serve_mixed.Request, seen: set[str]) -> str:
    """``sweep``; ``fresh`` or ``cached`` the first time a key is asked;
    ``repeat`` after that."""
    if request.payload["kind"] == "sweep":
        return "sweep"
    key = request.expect[0]
    if key in seen:
        return "repeat"
    seen.add(key)
    return "fresh" if request.table == "imported" else "cached"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length whose schedule is sent (as serve-mixed)")
    parser.add_argument("--connections", type=int, default=4)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench-work" / "capacity"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clean_program_env(work)
    ctx = Context(seed=args.seed, work=work, refs=load_refs(serve_mixed.NAME))
    state = serve_mixed.setup(ctx, extra_args=["--rate", "1000000", "--burst", "1000000"])
    try:
        requests = serve_mixed.schedule(max(1, round(serve_mixed.RATE * args.seconds)))
        seen: set[str] = set()
        kinds = [kind_of(request, seen) for request in requests]
        times: list[float] = [0.0] * len(requests)
        errors: list[str] = []
        lock = threading.Lock()
        pending = iter(range(len(requests)))

        def connection(lane: int) -> None:
            client = f"capacity-{lane}"
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                t0 = time.monotonic()
                status, body = serve_mixed._post(state.server.url, requests[index].payload,
                                                 client)
                if "job" not in body:
                    errors.append(f"HTTP {status}: {body}")
                    continue
                job = body["job"]
                if job["state"] not in ("done", "failed", "cancelled"):
                    _, answer = serve_mixed._get(
                        f"{state.server.url}/v1/jobs/{job['id']}?wait=60", timeout=90.0)
                    job = answer["job"] if "job" in answer else answer
                if job["state"] != "done":
                    errors.append(f"job {job['id']} ended {job['state']}")
                times[index] = time.monotonic() - t0

        threads = [threading.Thread(target=connection, args=(lane,))
                   for lane in range(args.connections)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
    finally:
        serve_mixed.teardown(state)
        shutil.rmtree(work, ignore_errors=True)

    per_kind = {
        kind: {"count": kinds.count(kind),
               "mean_ms": statistics.fmean(t for t, k in zip(times, kinds) if k == kind) * 1e3}
        for kind in sorted(set(kinds))
    }
    print(json.dumps({
        "requests": len(requests),
        "connections": args.connections,
        "elapsed_s": elapsed,
        "capacity_per_s": len(requests) / elapsed,
        "rate_per_s": serve_mixed.RATE,
        "utilisation": serve_mixed.RATE * elapsed / len(requests),
        "kinds": per_kind,
        "errors": errors[:5],
    }, indent=1))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
