"""``serve-mixed``: an open loop of mixed requests against ``repro serve``.

``repro serve`` runs as a subprocess with its default configuration
(port 0 aside), a fresh state directory and a fresh result cache.  Set-up
generates seeded traces and imports them into a trace store the server
reads, so the program only ever receives specs and traces.

One generator process drives an **open loop** at :data:`RATE` requests
per second, as two independent users with one connection each: each
request is sent when it is due, whatever the state of earlier ones.  A
request is timed from when it was due until its job is terminal, using
the server's ``finished_at`` stamp (same host clock).  Set-up ends with
one small warm-up job, so the server's lazy imports are not billed to
the first requests.  The mix:

* fresh ``run`` requests on the imported traces, which are simulated;
* repeated ``run`` requests, answered by in-flight dedup or the
  completed-job index;
* ``run`` requests for a job an earlier sweep computed, answered by the
  result cache;
* a few ``sweep`` requests over the suite's default workloads.

Failures: an HTTP error, a 429 (rate limit or backpressure), a job not
done by the deadline, a failed job, or a result row whose digest
differs from the reference.

The loop's rate and length are fixed, so ``wall_s``,
``completed_per_s``, ``results_per_s`` and ``sim_branches_per_s``
follow from the schedule: they only show a service that falls behind
it.  The gated figure the service sets is ``cpu_ms_per_request``: the
server's CPU time over the loop, per request.  Request latencies are
reported too, ungated (see README.md).
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import HERE, ROOT, Check, Context, HostSpeed, Measurement, percentile, seeded

NAME = "serve-mixed"
#: Open-loop arrival rate (requests/s), set from the service's measured
#: capacity on this mix.  ``serve_capacity.py`` sends one run's schedule
#: closed-loop with the rate limit lifted.  On a 2-vCPU Xeon host it
#: cleared 93-98 req/s at the host's usual speed, and 42-46 req/s while
#: the host ran at half speed (a fixed CPU loop took twice as long).
#: RATE is about a third of the slow figure, so the loop stays under
#: capacity through such swings and through a service twice as slow:
#: a slower service shows in ``cpu_ms_per_request`` and the latencies,
#: not as late jobs.  Each user sends 7.5 req/s, under the default
#: per-client limit of 20.
RATE = 15.0
CLIENTS = ("bench-user-a", "bench-user-b")
TRACE_BRANCHES = 400
RUN_BRANCHES = (200, 400)
SWEEP_BRANCHES = 300
#: Length of the set-up warm-up job (not a length the schedule uses).
WARM_BRANCHES = 64
#: "A few" sweeps: four per run, spread over it, each one shard (about
#: four jobs) of a 7-workload x 2-system grid, so one sweep costs a few
#: fresh runs and never holds both workers for long.
SWEEP_AT = (0.05, 0.3, 0.55, 0.8)
SWEEP_SHARDS = 4
#: The mix repeats every len(CYCLE) slots.  It is synthetic: the
#: repository keeps no request log.  The shares:
#:
#: * ``fresh`` 4/20: a new run, simulated.  The only kind that costs
#:   much; four in twenty puts about 60 simulations in a 20 s run,
#:   enough that the execute-time percentiles rest on real samples.
#: * ``inflight`` 2/20: the fresh run just sent, again (a retry or a
#:   second user), so in-flight dedup attaches to a running job.
#: * ``done`` 11/20: a run sent at least REPEAT_AFTER_S earlier,
#:   answered from the completed-job index.  Most requests re-ask for
#:   known results, as when figures are re-made after a code-neutral
#:   change (the premise of ``sweep-warm``).
#: * ``cached`` 3/20: one job an earlier sweep computed, answered by the
#:   result cache the sweep wrote (then by the index once asked).
CYCLE = ("fresh", "inflight", "done", "cached", "done", "done", "fresh", "done",
         "done", "cached", "fresh", "inflight", "done", "done", "cached", "done",
         "fresh", "done", "done", "done")
REPEAT_AFTER_S = 1.0
#: Seed of the schedule's own random choices (the same in every run).
SCHEDULE_SEED = 0
#: A cache-answered run targets a sweep due at least this long before.
CACHE_AFTER_S = 3.0
#: Seconds after the last due time before unfinished jobs count as failed.
DEADLINE_S = 30.0
POLL_S = 0.2
#: Seconds between timings of the calibration loop during the open loop.
SPEED_PERIOD_S = 0.5


@dataclass
class Request:
    due: float
    payload: dict[str, Any]
    #: Reference keys of the result rows, in order.
    expect: list[str]
    #: Result-row reference table: ``imported`` or ``suite``.
    table: str


@dataclass
class Server:
    proc: subprocess.Popen[str]
    url: str
    spans_out: Path | None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


@dataclass
class State:
    server: Server
    store: Path
    extra_args: list[str] = field(default_factory=list)


def imported_name(spec: Any) -> str:
    return f"pb-{spec.name}"


def trace_specs(seed: int) -> list[Any]:
    from repro.harness.runner import select_workloads
    from repro.harness.scale import SCALES

    return [seeded(spec, seed) for spec in select_workloads(SCALES["smoke"])]


def import_traces(seed: int, store: Path, scratch: Path) -> list[str]:
    """Generate the seeded traces and import them into ``store``."""
    from repro.harness.tracestore import import_trace
    from repro.trace.io import write_trace
    from repro.workloads.generators.engine import generate_trace

    names = []
    scratch.mkdir(parents=True, exist_ok=True)
    for spec in trace_specs(seed):
        path = scratch / f"{imported_name(spec)}.trace"
        write_trace(path, generate_trace(spec, TRACE_BRANCHES))
        import_trace(path, name=imported_name(spec), store=store)
        names.append(imported_name(spec))
    return names


def start_server(base: Path, store: Path, traced: bool, extra: list[str],
                 warm_workload: str) -> Server:
    """Boot ``repro serve`` in ``base``, wait until it answers, warm it up."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_TRACE_STORE"] = str(store)
    env["REPRO_TRACE_CACHE"] = str(base / "traces")
    # As docs/service.md runs it.  Without this variable the service
    # reads its default result cache but never writes it (run jobs carry
    # no cache override), so the cache could never answer a request.
    env["REPRO_RESULT_CACHE"] = str(base / "results")
    serve_args = ["serve", "--port", "0", *extra]
    spans_out = None
    if traced:
        spans_out = base / "server-layers.json"
        cmd = [sys.executable, str(HERE / "serve_child.py"), "--span-dir",
               str(base / "server-spans"), "--out", str(spans_out), *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro.cli", *serve_args]
    proc = subprocess.Popen(cmd, cwd=base, env=env, stdout=subprocess.PIPE, text=True)
    server = Server(proc, "", spans_out)
    try:
        assert proc.stdout is not None
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        if "listening on " not in line:
            raise RuntimeError(f"repro serve did not start (said {line!r})")
        server.url = line.split("listening on ", 1)[1].strip()
        deadline = time.monotonic() + 30.0
        while True:
            try:
                status, _ = _get(server.url + "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.05)
        warm = {"kind": "run", "workload": warm_workload, "system": "forward-walk-coalesce",
                "branches": WARM_BRANCHES}
        status, body = _post(server.url, warm, "bench-warm-up")
        if status not in (200, 202):
            raise RuntimeError(f"warm-up request refused: HTTP {status} {body}")
        _get(f"{server.url}/v1/jobs/{body['job']['id']}?wait=60", timeout=90.0)
        return server
    except BaseException:
        server.stop()
        raise


def setup(ctx: Context, extra_args: list[str] | None = None) -> State:
    base = ctx.fresh_dir("serve")
    store = base / "store"
    import_traces(ctx.seed, store, base / "imports")
    extra = list(extra_args or [])
    server = start_server(base, store, False, extra, imported_name(trace_specs(ctx.seed)[0]))
    return State(server, store, extra)


def teardown(state: State) -> None:
    state.server.stop()


# ------------------------------------------------------------------- #
# the request schedule


def schedule(n_requests: int) -> list[Request]:
    """The open-loop schedule: due times, payloads, expectations.

    The kinds follow :data:`CYCLE`; a fixed random stream picks the
    systems, lengths, sweep shards and which earlier request a repeat
    copies, so every run asks for the same work and the benchmark seed
    only picks the traces (as in the other workloads' grids).  A kind whose
    precondition does not hold yet (no sweep old enough, nothing old
    enough to repeat) falls back to a repeat of the latest run, so the
    first seconds do not turn into a burst of fresh simulations.
    """
    from repro.harness.runner import select_workloads, shard_bounds
    from repro.harness.scale import SCALES
    from repro.harness.systems import TABLE3_SYSTEMS

    rng = random.Random(SCHEDULE_SEED)
    systems = [cfg.name for cfg in TABLE3_SYSTEMS]
    imported = [imported_name(spec) for spec in trace_specs(0)]
    suite = [spec.name for spec in select_workloads(SCALES["smoke"])]
    fresh = [(w, s) for w in imported for s in systems]
    rng.shuffle(fresh)
    sweep_slots = {min(n_requests - 1, int(n_requests * f)) for f in SWEEP_AT}

    requests: list[Request] = []
    runs: list[Request] = []
    sweeps: list[tuple[float, list[tuple[str, str]]]] = []
    fresh_sent = 0
    for slot in range(n_requests):
        due = slot / RATE
        if slot in sweep_slots:
            pair = rng.sample(systems, 2)
            shard = (rng.randint(1, SWEEP_SHARDS), SWEEP_SHARDS)
            jobs = [(w, s) for w in suite for s in pair]
            start, end = shard_bounds(len(jobs), shard)
            payload = {"kind": "sweep", "branches": SWEEP_BRANCHES, "per_category": 1,
                       "systems": pair, "shard": f"{shard[0]}/{shard[1]}"}
            keys = [f"{w}|{s}|{SWEEP_BRANCHES}" for w, s in jobs[start:end]]
            requests.append(Request(due, payload, keys, "suite"))
            sweeps.append((due, jobs[start:end]))
            continue
        kind = CYCLE[slot % len(CYCLE)]
        old_sweeps = [jobs for when, jobs in sweeps if when <= due - CACHE_AFTER_S]
        old_runs = [r for r in runs if r.due <= due - REPEAT_AFTER_S]
        if kind == "cached" and not old_sweeps:
            kind = "done"
        if kind == "done" and not old_runs:
            kind = "inflight"
        if kind == "inflight" and not runs:
            kind = "fresh"
        if kind == "fresh":
            w, s = fresh[fresh_sent % len(fresh)]
            b = RUN_BRANCHES[fresh_sent % len(RUN_BRANCHES)]
            fresh_sent += 1
            request = Request(due, {"kind": "run", "workload": w, "system": s,
                                    "branches": b}, [f"{w}|{s}|{b}"], "imported")
        elif kind == "cached":
            w, s = rng.choice(rng.choice(old_sweeps))
            request = Request(due, {"kind": "run", "workload": w, "system": s,
                                    "branches": SWEEP_BRANCHES},
                              [f"{w}|{s}|{SWEEP_BRANCHES}"], "suite")
        else:
            original = runs[-1] if kind == "inflight" else rng.choice(old_runs)
            request = Request(due, dict(original.payload), list(original.expect),
                              original.table)
        requests.append(request)
        runs.append(request)
    return requests


# ------------------------------------------------------------------- #
# HTTP


def _get(url: str, timeout: float = 30.0) -> tuple[int, Any]:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        body = resp.read().decode()
        ctype = resp.headers.get("Content-Type", "")
        return resp.status, json.loads(body) if "json" in ctype else body


def _post(url: str, payload: dict[str, Any], client: str) -> tuple[int, Any]:
    req = urllib.request.Request(
        url + "/v1/jobs",
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json", "X-Client-Id": client},
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read().decode())
        except ValueError:
            body = {}
        return exc.code, body


@dataclass
class Sent:
    request: Request
    due: float
    sent: float = 0.0
    answered: float = 0.0
    status: int = 0
    job_id: str | None = None
    error: str | None = None


def server_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) the server has used."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _scrape(url: str) -> dict[str, float]:
    _, text = _get(url + "/metrics")
    values: dict[str, float] = {}
    for line in str(text).splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                continue
    return values


def drive(url: str, requests: list[Request]) -> tuple[list[Sent], dict[str, dict[str, Any]], float]:
    """Run the open loop; returns (per-request records, job snapshots, t0).

    Each user submits its own slots on its own connection, so a slow
    answer delays only that user's next request.  Nothing polls while
    requests go out: the server's timestamps time each job, and the job
    list is read once the last request is sent.
    """
    sent = [Sent(request, 0.0) for request in requests]
    t0 = time.monotonic() + 0.2

    def submit(lane: int) -> None:
        for record in sent[lane::len(CLIENTS)]:
            record.due = t0 + record.request.due
            delay = record.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record.sent = time.monotonic()
            try:
                record.status, body = _post(url, record.request.payload, CLIENTS[lane])
                if isinstance(body, dict) and "job" in body:
                    record.job_id = body["job"]["id"]
                else:
                    record.error = f"HTTP {record.status}: {body.get('error')}"
            except OSError as exc:
                record.error = f"{type(exc).__name__}: {exc}"
            record.answered = time.monotonic()

    threads = [threading.Thread(target=submit, args=(lane,), name=f"perfbench-user-{lane}")
               for lane in range(len(CLIENTS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    jobs: dict[str, dict[str, Any]] = {}
    wanted = {r.job_id for r in sent if r.job_id is not None}
    deadline = t0 + (requests[-1].due if requests else 0.0) + DEADLINE_S
    while True:
        try:
            _, body = _get(url + "/v1/jobs")
            jobs = {snap["id"]: snap for snap in body["jobs"]}
        except OSError:
            pass
        terminal = ("done", "failed", "cancelled")
        if all(jobs.get(j, {}).get("state") in terminal for j in wanted):
            break
        if time.monotonic() > deadline:
            break
        time.sleep(POLL_S)
    return sent, jobs, t0


def measure(ctx: Context, state: State, seconds: float, check: Check) -> Measurement:
    """One open-loop phase against ``state.server``, verified."""
    url = state.server.url
    requests = schedule(max(1, round(RATE * seconds)))
    before = _scrape(url)
    # The server's CPU time is reported in reference seconds, against
    # the calibration loop timed while the requests go out.
    speed = HostSpeed()
    with speed.beside(SPEED_PERIOD_S):
        cpu_before = server_cpu_s(state.server.proc.pid)
        sent, jobs, t0 = drive(url, requests)
        cpu = server_cpu_s(state.server.proc.pid) - cpu_before
    offset = time.time() - time.monotonic()

    refs = {"imported": ctx.refs["sets"][str(ctx.input_set)], "suite": ctx.refs["suite"]}
    rows_by_job: dict[str, list[dict[str, Any]]] = {}
    for job_id, snap in jobs.items():
        if snap["state"] == "done":
            _, body = _get(f"{url}/v1/jobs/{job_id}/result")
            rows_by_job[job_id] = body["job"]["results"]
    metrics = _scrape(url)

    from common import digest

    latencies: list[float] = []
    lags: list[float] = []
    finished: list[float] = []
    delivered = 0
    for record in sent:
        lags.append(record.sent - record.due)
        what = f"{NAME}: {record.request.payload}"
        if record.error is not None or record.job_id is None:
            check.record(False, f"{what}: {record.error or 'no job id'}")
            continue
        snap = jobs.get(record.job_id)
        if snap is None or snap["state"] != "done":
            state_name = snap["state"] if snap else "unknown"
            reason = snap.get("error") if snap else None
            check.record(False, f"{what}: job {record.job_id} ended {state_name}: {reason}")
            continue
        rows = rows_by_job.get(record.job_id, [])
        table = refs[record.request.table]
        got = [digest(row, with_extra=False) for row in rows]
        want = [table.get(key) for key in record.request.expect]
        check.record(got == want, f"{what}: rows {got} != references {want}")
        done_at = max(snap["finished_at"] - offset, record.answered)
        finished.append(done_at)
        latencies.append(done_at - record.due)
        delivered += len(rows)

    ours = {record.job_id for record in sent}
    new_jobs = [snap for job_id, snap in jobs.items() if job_id in ours
                and snap.get("started_at") is not None and snap["state"] == "done"]
    sim_branches = sum(snap["sim_runs"] * snap["request"]["branches"] for snap in new_jobs)
    wall = (max(finished) if finished else time.monotonic()) - t0

    def counter(name: str) -> float:
        key = f"repro_service_{name}_total"
        return metrics.get(key, 0.0) - before.get(key, 0.0)

    requests_seen = counter("requests")
    cache_hits = counter("cache_hits")
    sim_runs = counter("sim_runs")
    layer = {
        "service.post_ms_p50": percentile([r.answered - r.sent for r in sent], 0.5) * 1e3,
        "service.queue_wait_ms_p95": percentile(
            [s["started_at"] - s["submitted_at"] for s in new_jobs], 0.95) * 1e3,
        "service.execute_ms_p95": percentile(
            [s["finished_at"] - s["started_at"] for s in new_jobs], 0.95) * 1e3,
        "service.dedup_ratio": (
            (counter("dedup_inflight") + counter("dedup_completed")) / requests_seen
            if requests_seen else 0.0),
        "service.cache_hit_ratio": (
            cache_hits / (cache_hits + sim_runs) if cache_hits + sim_runs else 0.0),
        "service.sim_runs": sim_runs,
        "service.rate_limited": counter("rate_limited") + counter("backpressure"),
        "loadgen.lag_p95_ms": percentile(lags, 0.95) * 1e3,
    }
    return Measurement(
        wall_s=wall,
        latencies=latencies,
        completed_per_s=len(latencies) / wall if wall > 0 else 0.0,
        results=delivered,
        sim_branches=sim_branches,
        cpu_s=cpu * speed.scale,
        speed=speed,
        layer=layer,
    )


def traced_measure(ctx: Context, state: State, seconds: float, check: Check) -> tuple[
        Measurement, dict[str, Any]]:
    """The same open loop against a fresh server whose layers are wrapped."""
    base = ctx.fresh_dir("serve-traced")
    server = start_server(base, state.store, True, state.extra_args,
                          imported_name(trace_specs(ctx.seed)[0]))
    try:
        measurement = measure(ctx, State(server, state.store), seconds, check)
    finally:
        server.stop()
    assert server.spans_out is not None
    return measurement, json.loads(server.spans_out.read_text())


# ------------------------------------------------------------------- #
# references


def record(k: int, scratch: Path) -> dict[str, str]:
    """Digests of every fresh-run row input set ``k`` can request."""
    from common import digest
    from repro.harness.runner import run_single
    from repro.harness.systems import TABLE3_SYSTEMS
    from repro.harness.tracestore import load_spec

    store = scratch / f"store-{k}"
    names = import_traces(k, store, scratch / f"imports-{k}")
    table: dict[str, str] = {}
    for name in names:
        spec = load_spec(name, store)
        for system in TABLE3_SYSTEMS:
            for branches in RUN_BRANCHES:
                row = run_single(spec, system, branches, use_result_cache=False)
                table[f"{name}|{system.name}|{branches}"] = digest(row, with_extra=False)
    return table


def record_suite() -> dict[str, str]:
    """Digests of every sweep and cache-answered row (default seeds)."""
    from common import digest
    from repro.harness.runner import run_single, select_workloads
    from repro.harness.scale import SCALES
    from repro.harness.systems import TABLE3_SYSTEMS

    table: dict[str, str] = {}
    for spec in select_workloads(SCALES["smoke"]):
        for system in TABLE3_SYSTEMS:
            row = run_single(spec, system, SWEEP_BRANCHES, use_result_cache=False)
            table[f"{spec.name}|{system.name}|{SWEEP_BRANCHES}"] = digest(
                row, with_extra=False)
    return table
