"""Shared pieces of the benchmark: seeding, digests, host record, stats.

Nothing here imports ``repro`` at module level: ``run.py`` checks that
the program's sources are present before anything touches them.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Iterator, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS_DIR = HERE / "refs"

#: Reference digests exist for this many input sets; ``--seed n`` picks
#: input set ``n % INPUT_SETS``, so every run can be checked exactly.
INPUT_SETS = 8

#: Added to a suite workload's own seed per input set.  Input set 0 is
#: the suite's default seed; the stride keeps every seeded workload's
#: seed distinct from every other suite seed (suite seeds are < 100000).
SEED_STRIDE = 100_000

#: Environment variables of the program that would change what a run
#: measures; the benchmark sets each one explicitly or removes it.
_PROGRAM_ENV = (
    "REPRO_TELEMETRY",
    "REPRO_RESULT_CACHE",
    "REPRO_BATCH",
    "REPRO_SPECIALIZE",
    "REPRO_SPECIALIZE_PROFILE",
    "REPRO_SPECIALIZE_CHECKPOINT",
    "REPRO_SPECIALIZE_FORCE_ABORT",
    "REPRO_WORKERS",
    "REPRO_SCALE",
    "REPRO_TRACE_SHM",
    "REPRO_TRACE_STORE",
)


def input_set(seed: int) -> int:
    """The reference input set a benchmark seed maps to."""
    return seed % INPUT_SETS


def seeded(spec: Any, seed: int) -> Any:
    """``spec`` with the benchmark seed applied (input set 0 = default)."""
    return replace(spec, seed=spec.seed + SEED_STRIDE * input_set(seed))


def clean_program_env(work: Path) -> None:
    """Point the program's caches into ``work`` and drop other knobs."""
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_TRACE_CACHE"] = str(work / "traces")
    os.environ["REPRO_TRACE_STORE"] = str(work / "store")


def fanout() -> int:
    """Worker processes for parallel sweeps: at most 2, at most nproc."""
    return max(1, min(2, os.cpu_count() or 1))


def reset_process_memos() -> None:
    """Forget the program's in-process memos, as a fresh process would.

    Each measured iteration then pays what a new ``repro`` invocation
    pays.  The disk caches the workload set up are kept.  Memos that a
    later version of the program no longer has are skipped.
    """
    for module_name, attr in (
        ("repro.harness.runner", "_TRACE_MEMO"),
        ("repro.trace.columns", "_COLUMN_CACHE"),
        ("repro.pipeline.specialize", "_ENGINE_MEMO"),
    ):
        module = sys.modules.get(module_name)
        memo = getattr(module, attr, None) if module is not None else None
        if memo is not None:
            memo.clear()


# ------------------------------------------------------------------- #
# processes the run starts

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process that outlives its parent (the resource tracker of a pool
    or of the served process, for one) is then re-parented here, not to
    init, so :func:`reap_children` can stop it before the run ends.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids of this process's children, exited-but-unreaped ones too."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # The command name is in parentheses and may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker runs until its pipe from this
    process closes, so it is stopped first; any other child still alive
    after ``grace_s`` gets SIGTERM, and SIGKILL a few seconds later.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + grace_s
    signals = [signal.SIGTERM, signal.SIGKILL]
    while True:
        pids = child_pids()
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        pids = child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            if not signals:
                return
            sig = signals.pop(0)
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


# ------------------------------------------------------------------- #
# digests and references


def digest(row: Any, with_extra: bool = True) -> str:
    """Stable digest of one result's simulated statistics.

    ``row`` is a ``RunResult`` or a service result row (a dict without
    ``extra``, hence ``with_extra=False`` for those).
    """
    fields = ("ipc", "mpki", "instructions", "cycles", "mispredictions")
    if isinstance(row, dict):
        payload = {name: row[name] for name in fields}
        extra = row.get("extra")
    else:
        payload = {name: getattr(row, name) for name in fields}
        extra = row.extra
    if with_extra:
        payload["extra"] = extra
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_refs(name: str) -> dict[str, Any]:
    """Recorded reference digests of one workload (``refs/<name>.json``)."""
    return json.loads((REFS_DIR / f"{name}.json").read_text())


def write_refs(name: str, payload: dict[str, Any]) -> None:
    REFS_DIR.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    (REFS_DIR / f"{name}.json").write_text(text)


@dataclass
class Check:
    """Tally of operations attempted and failed, with the first errors."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def fail(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)

    def results(self, results: Iterable[Any], refs: dict[str, str], tag: str) -> None:
        """Check that the results are exactly the grid ``refs`` describes.

        Each result's digest is compared with ``refs[workload|system]``;
        a key returned twice, and each key of ``refs`` never returned,
        is one more failed operation.
        """
        seen: set[str] = set()
        for result in results:
            key = f"{result.workload}|{result.system}"
            if key in seen:
                self.record(False, f"{tag}: {key} returned more than once")
                continue
            seen.add(key)
            expected = refs.get(key)
            self.record(
                expected is not None and digest(result) == expected,
                f"{tag}: {key} digest {digest(result)} != reference {expected}",
            )
        for key in sorted(set(refs) - seen):
            self.record(False, f"{tag}: {key} missing from the results")


# ------------------------------------------------------------------- #
# host record and statistics


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def loop_s(n: int = 200_000) -> float:
    """Time of one pass of a fixed pure-Python loop of ``n`` steps."""
    t0 = perf_counter()
    total = 0
    for i in range(n):
        total += i * i & 7
    return perf_counter() - t0


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop (per-host calibration)."""
    return statistics.median(loop_s(1_000_000) for _ in range(3))


#: Time of ``loop_s()`` that defines a reference second.  Timings are
#: reported in reference seconds: host seconds x REFERENCE_LOOP_S / the
#: loop's mean time during the phase measured.  On a host where the
#: loop takes 20 ms they are host seconds.
REFERENCE_LOOP_S = 0.020


class HostSpeed:
    """The calibration loop, timed beside a measured phase.

    A shared host's speed drifts by tens of percent over minutes (on a
    2-vCPU VM the loop's median over a run ranged from 15 to 35 ms within
    one hour), far more than a run's own noise.  The program's time
    relative to the loop, timed in the same minutes, barely moves, so
    that is what the gated timings report: :attr:`scale` turns host
    seconds into reference seconds.  It uses the mean sample, as the
    iterated workloads report the mean iteration, so that a change of
    speed within a run moves both alike.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, loops: int = 1) -> None:
        """Time the loop ``loops`` times and keep the median as one sample.

        With three loops, one the host preempted does not count.
        """
        self.samples.append(statistics.median(loop_s() for _ in range(loops)))

    @contextmanager
    def beside(self, period_s: float = 0.5) -> Iterator[None]:
        """Time the loop before, every ``period_s`` during, and after a block."""
        self.sample(3)
        stop = threading.Event()

        def sample_until_stopped() -> None:
            while not stop.wait(period_s):
                self.sample()

        sampler = threading.Thread(target=sample_until_stopped, name="perfbench-host-speed")
        sampler.start()
        try:
            yield
        finally:
            stop.set()
            sampler.join()
        self.sample(3)

    @property
    def scale(self) -> float:
        """Reference seconds per host second during the samples."""
        if not self.samples:
            self.sample(3)
        return REFERENCE_LOOP_S / statistics.fmean(self.samples)

    def record(self) -> dict[str, float]:
        return {"loop_mean_s": REFERENCE_LOOP_S / self.scale, "scale": self.scale,
                "samples": float(len(self.samples))}


def host_record() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "calibration_loop_s": calibration_s(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_s() -> float:
    """CPU seconds of this process and every child it has waited for.

    Unlike wall time, this leaves out the time the host gave to other
    tenants, so it measures the program's own work far more steadily.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class Measurement:
    """What one measured phase of a workload produced."""

    #: Seconds of the measured phase (mean per iteration for iterated
    #: workloads, in reference seconds; the whole open loop, in host
    #: seconds, for the service, whose schedule sets it).
    wall_s: float
    #: Per-request latencies, seconds.
    latencies: list[float]
    #: Requests completed per second of measured time.
    completed_per_s: float
    #: (workload, system) results delivered per ``wall_s``.
    results: int
    #: Committed branches actually simulated per ``wall_s``.
    sim_branches: int
    #: CPU seconds (user + system, in reference seconds) the program
    #: spent on all ``latencies`` requests together.
    cpu_s: float
    #: The loop timed beside the phase (see :class:`HostSpeed`).
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Result rows, for simulated-count metrics (iterated workloads).
    rows: list[Any] = field(default_factory=list)
    #: Per-layer extras only this workload measures.
    layer: dict[str, float] = field(default_factory=dict)


def end_to_end(setup_s: float, m: Measurement) -> dict[str, float]:
    """The end-to-end metric values of one measurement."""
    return {
        "setup_s": setup_s,
        "wall_s": m.wall_s,
        "sim_branches_per_s": m.sim_branches / m.wall_s,
        "results_per_s": m.results / m.wall_s,
        "completed_per_s": m.completed_per_s,
        "cpu_ms_per_request": cpu_ms_per_request(m),
        "peak_rss_mb": peak_rss_mb(),
    }


def cpu_ms_per_request(m: Measurement) -> float:
    """CPU milliseconds the program spent per measured request."""
    return m.cpu_s / max(1, len(m.latencies)) * 1000.0


def request_latency(m: Measurement) -> dict[str, float]:
    """Mean, median and 95th-percentile request latency (ms), with the count."""
    return {
        "request_mean_ms": statistics.fmean(m.latencies) * 1000.0 if m.latencies else 0.0,
        "request_p50_ms": percentile(m.latencies, 0.50) * 1000.0,
        "request_p95_ms": percentile(m.latencies, 0.95) * 1000.0,
        "requests": float(len(m.latencies)),
    }


# ------------------------------------------------------------------- #
# iterated workloads


@dataclass
class Context:
    """One benchmark run: its seed, scratch directory and references."""

    seed: int
    work: Path
    refs: dict[str, Any]

    @property
    def input_set(self) -> int:
        return input_set(self.seed)

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory under the run's scratch directory."""
        index = 0
        while (self.work / f"{name}-{index}").exists():
            index += 1
        path = self.work / f"{name}-{index}"
        path.mkdir(parents=True)
        return path


@dataclass
class Iteration:
    """One measured pass of an iterated workload."""

    wall_s: float
    #: Wall time of each user-level request (``run_matrix`` call).
    latencies: list[float]
    results: list[Any]
    sim_branches: int
    #: CPU seconds of the timed calls (see :func:`cpu_s`).
    cpu_s: float


def run_iterations(
    step: Any, seconds: float, min_iterations: int = 1
) -> tuple[list[Iteration], float, HostSpeed]:
    """Call ``step()`` until ``seconds`` have passed.

    Returns the iterations, the seconds they took and the calibration
    loop timed after each one (left out of the seconds).
    """
    done: list[Iteration] = []
    speed = HostSpeed()
    elapsed = 0.0
    while len(done) < min_iterations or elapsed < seconds:
        if done:
            # Only the last iteration's rows are reported; keeping every
            # iteration's would grow memory with the host's speed.
            done[-1].results = []
        t0 = perf_counter()
        done.append(step())
        elapsed += perf_counter() - t0
        speed.sample(3)
    return done, elapsed, speed


def summarize(iterations: list[Iteration], elapsed: float, speed: HostSpeed) -> Measurement:
    """Measurement of an iterated workload: the mean iteration.

    The mean, not the median: on a shared host the speed drifts over
    seconds, and the mean of a run's iterations averages that drift
    where the median picks whichever speed the run happened to see most.
    Times are in reference seconds (see :class:`HostSpeed`).
    """
    scale = speed.scale
    wall = statistics.fmean(it.wall_s for it in iterations) * scale
    last = iterations[-1]
    return Measurement(
        wall_s=wall,
        latencies=[lat * scale for it in iterations for lat in it.latencies],
        completed_per_s=sum(len(it.latencies) for it in iterations) / (elapsed * scale),
        results=len(last.results),
        sim_branches=last.sim_branches,
        cpu_s=sum(it.cpu_s for it in iterations) * scale,
        speed=speed,
        rows=last.results,
    )
