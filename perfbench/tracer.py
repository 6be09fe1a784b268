"""Layer tracer: timed wrappers around the simulator's public functions.

The traced run installs a wrapper on every function in :data:`LAYERS`
*before* any predictor, unit or pipeline is built, because
``PipelineModel._bind_hot_paths`` captures bound methods at
construction.  Wrapping is done from the outside, on class attributes
and module globals, so the program itself is unchanged.

Each wrapper keeps, per thread, call counts, inclusive busy time and
self time (busy time minus the time of wrapped calls made inside it).
Coarse layers (per job or per sweep) additionally record a span
``(id, layer, start, end, parent)``.  Per-branch layers (``hot``) are
aggregated only: millions of span records per run would cost more
memory than the measurement is worth, and their parent's self time
already accounts for them.

Worker processes forked by the process pool inherit the wrappers.  A
fork hook gives each child a fresh store; the child writes its data to
``<span_dir>/<pid>.jsonl`` each time its outermost wrapped call
returns, and :meth:`Tracer.collect` merges those files with the
parent's stores.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Layer", "Tracer", "LayerTotals", "write_spans"]


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the end-to-end metric it moves."""

    #: Metric prefix: ``<module under repro>.<qualified name>``.
    name: str
    #: Defining module.
    module: str
    #: ``function`` or ``Class.method``.
    attr: str
    #: Called per branch: aggregated only, no span records.
    hot: bool
    #: The end-to-end metric and workload this layer should move.
    moves: str


def _count_branches(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    return {"branches": float(len(args[1]))}


def _count_hits(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    return {"hits": 1.0 if result is not None else 0.0}


def _count_batched(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    jobs = args[1]
    batched = sum(1 for job in jobs if getattr(job, "batch", False))
    return {"batched": float(batched), "forwarded": float(len(jobs) - batched)}


def _count_specialized(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    info = result[1]
    return {
        "specialized": float(info.get("specialized_branches", 0)),
        "total": float(info.get("total_branches", 0)),
        "aborts": float(info.get("aborts", 0)),
    }


_T3 = "on table3-cold"
_SIM = "sim_branches_per_s on table3-cold; should not move sweep-warm"
_UNIT = "sim_branches_per_s on table3-cold (10 of 11 systems); ~0 for baseline-tage"
_WARM = ("wall_s and results_per_s on sweep-warm, cpu_ms_per_request on serve-mixed; "
         "should not move table3-cold")

#: Every wrapped function, in report order.
LAYERS: tuple[Layer, ...] = (
    Layer("workloads.generators.generate_trace", "repro.workloads.generators.engine",
          "generate_trace", False, f"wall_s {_T3}"),
    Layer("trace.read_trace", "repro.trace.io", "read_trace", False,
          "wall_s on fast-tiers"),
    Layer("trace.write_trace", "repro.trace.io", "write_trace", False, f"wall_s {_T3}"),
    Layer("trace.load_columnar", "repro.trace.columns", "load_columnar", False,
          "wall_s on fast-tiers"),
    Layer("harness.runner.load_trace", "repro.harness.runner", "load_trace", False,
          f"wall_s {_T3}"),
    Layer("harness.scheduler.execute_job", "repro.harness.scheduler", "execute_job",
          False, f"wall_s {_T3} (job boundary)"),
    Layer("predictors.TagePredictor.lookup", "repro.predictors.tage",
          "TagePredictor.lookup", True, _SIM),
    Layer("predictors.TagePredictor.train", "repro.predictors.tage",
          "TagePredictor.train", True, _SIM),
    Layer("predictors.GlobalHistory.push", "repro.predictors.history",
          "GlobalHistory.push", True, _SIM),
    Layer("predictors.GlobalPredictor.recover", "repro.predictors.base",
          "GlobalPredictor.recover", True, _SIM),
    Layer("core.LocalBranchUnit.predict", "repro.core.unit", "LocalBranchUnit.predict",
          True, _UNIT),
    Layer("core.LocalBranchUnit.resolve", "repro.core.unit", "LocalBranchUnit.resolve",
          True, _UNIT),
    Layer("core.LocalBranchUnit.retire", "repro.core.unit", "LocalBranchUnit.retire",
          True, _UNIT),
    Layer("memory.CacheHierarchy.load_latency", "repro.memory.hierarchy",
          "CacheHierarchy.load_latency", True, _SIM),
    Layer("pipeline.PipelineModel.run", "repro.pipeline.core", "PipelineModel.run",
          False, _SIM),
    Layer("telemetry.manifest.build_manifest", "repro.telemetry.manifest",
          "build_manifest", False, _WARM),
    Layer("harness.result_cache.ResultCache.load", "repro.harness.result_cache",
          "ResultCache.load", False, _WARM),
    Layer("harness.result_cache.ResultCache.store", "repro.harness.result_cache",
          "ResultCache.store", False, _WARM),
    Layer("harness.scheduler.Scheduler.plan", "repro.harness.scheduler",
          "Scheduler.plan", False, _WARM),
    Layer("harness.scheduler.Scheduler.split_cached", "repro.harness.scheduler",
          "Scheduler.split_cached", False, _WARM),
    Layer("harness.scheduler.Scheduler.run", "repro.harness.scheduler",
          "Scheduler.run", False, _WARM),
    Layer("harness.batch.BatchExecutor.execute", "repro.harness.batch",
          "BatchExecutor.execute", False, "wall_s on fast-tiers"),
    Layer("pipeline.specialize.run_specialized", "repro.pipeline.specialize",
          "run_specialized", False, "wall_s on fast-tiers"),
    Layer("pipeline.specialize.load_engine", "repro.pipeline.specialize",
          "load_engine", False, "wall_s on fast-tiers; setup_s if codegen moves there"),
    Layer("harness.sampling.run_sampled", "repro.harness.sampling", "run_sampled",
          False, "wall_s on fast-tiers"),
)

#: Layers whose return value or arguments feed a derived counter.
_OBSERVERS: dict[str, Callable[[tuple[Any, ...], Any], dict[str, float]]] = {
    "pipeline.PipelineModel.run": _count_branches,
    "harness.result_cache.ResultCache.load": _count_hits,
    "harness.batch.BatchExecutor.execute": _count_batched,
    "pipeline.specialize.run_specialized": _count_specialized,
}

#: Modules imported before wrapping, so that every module-level alias
#: of a wrapped function (``from x import f``) exists and is patched.
_PRELOAD = (
    "repro.harness.runner",
    "repro.harness.scheduler",
    "repro.harness.executors",
    "repro.harness.batch",
    "repro.harness.sampling",
    "repro.harness.tracestore",
    "repro.harness.systems",
    "repro.pipeline.specialize",
    "repro.pipeline.fastforward",
    "repro.core.imli",
    "repro.core.repair.multistage",
    "repro.service.server",
    "repro.service.api",
    "repro.cli",
)


class _Store:
    """One thread's counters, span stack and span records."""

    def __init__(self, n_layers: int) -> None:
        self.calls = [0] * n_layers
        self.busy = [0.0] * n_layers
        self.self_s = [0.0] * n_layers
        self.counters: dict[str, float] = {}
        #: Open frames: [time spent in wrapped children, span id].
        self.stack: list[list[Any]] = []
        self.spans: list[tuple[int, int, float, float, int]] = []

    def dump(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "busy": self.busy,
            "self": self.self_s,
            "counters": self.counters,
            "spans": self.spans,
        }

    def clear(self) -> None:
        n = len(self.calls)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_s = [0.0] * n
        self.counters = {}
        self.spans = []


@dataclass
class LayerTotals:
    """Merged data of every thread and process of one traced run."""

    names: list[str]
    calls: list[int]
    busy: list[float]
    self_s: list[float]
    counters: dict[str, float]
    #: (span id, layer name, start, end, parent id); parent 0 = root.
    spans: list[tuple[int, str, float, float, int]]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def memo_hits(self, layer: str, children: tuple[str, ...]) -> tuple[int, int]:
        """(calls of ``layer`` with no child span in ``children``, calls)."""
        parents = {span[4] for span in self.spans if span[1] in children}
        own = [span for span in self.spans if span[1] == layer]
        return sum(1 for span in own if span[0] not in parents), len(own)


class Tracer:
    """Installs layer wrappers and collects what they measured."""

    def __init__(self, span_dir: Path, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.names = [layer.name for layer in layers]
        self.span_dir = span_dir
        self._tls = threading.local()
        self._stores: list[_Store] = []
        self._lock = threading.Lock()
        #: One span-id counter per process, shared by its threads, so
        #: ids stay unique in the threaded service.
        self._ids = itertools.count(1)
        self._in_child = False
        self._undo: list[tuple[Any, str, Any]] = []
        self._registered_fork_hook = False

    # ------------------------------------------------------------- #
    # stores

    def _store(self) -> _Store:
        store = _Store(len(self.layers))
        self._tls.store = store
        with self._lock:
            self._stores.append(store)
        return store

    def _after_fork_in_child(self) -> None:
        # Only the forking thread survives a fork: dropping its store
        # and the inherited list gives the child a clean slate.
        self._tls.store = None
        self._stores = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._in_child = True

    def _flush_child(self, store: _Store) -> None:
        path = self.span_dir / f"{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(store.dump()) + "\n")
        store.clear()

    # ------------------------------------------------------------- #
    # wrapping

    def _wrap(self, fn: Callable[..., Any], index: int, layer: Layer) -> Callable[..., Any]:
        tracer = self
        hot = layer.hot
        observe = _OBSERVERS.get(layer.name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            store = getattr(tracer._tls, "store", None)
            if store is None:
                store = tracer._store()
            stack = store.stack
            if hot:
                frame = [0.0, stack[-1][1] if stack else 0]
            else:
                frame = [0.0, (os.getpid() << 32) | next(tracer._ids)]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                store.calls[index] += 1
                store.busy[index] += elapsed
                store.self_s[index] += elapsed - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += elapsed
                if not hot:
                    store.spans.append(
                        (frame[1], index, t0, t1, parent[1] if parent else 0)
                    )
                if observe is not None and returned:
                    counters = store.counters
                    for key, value in observe(args, result).items():
                        full = f"{layer.name}:{key}"
                        counters[full] = counters.get(full, 0.0) + value
                if parent is None and tracer._in_child:
                    tracer._flush_child(store)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer that exists in the imported program.

        A layer whose module or attribute is missing (a tier deleted by
        a later change) is skipped and reports zero calls.
        """
        self.span_dir.mkdir(parents=True, exist_ok=True)
        for module in _PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                continue
        if not self._registered_fork_hook:
            os.register_at_fork(after_in_child=self._after_fork_in_child)
            self._registered_fork_hook = True
        for index, layer in enumerate(self.layers):
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                continue
            if "." in layer.attr:
                cls_name, method = layer.attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for owner in _with_subclasses(cls):
                    fn = owner.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(owner, method, self._wrap(fn, index, layer))
            else:
                fn = getattr(module, layer.attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, index, layer)
                for name, loaded in list(sys.modules.items()):
                    if not name.startswith("repro") or loaded is None:
                        continue
                    if loaded.__dict__.get(layer.attr) is fn:
                        self._patch(loaded, layer.attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # ------------------------------------------------------------- #
    # collection

    def collect(self) -> LayerTotals:
        """Merge this process's stores with the children's span files."""
        n = len(self.layers)
        totals = LayerTotals(
            names=list(self.names),
            calls=[0] * n,
            busy=[0.0] * n,
            self_s=[0.0] * n,
            counters={},
            spans=[],
        )
        dumps = [store.dump() for store in self._stores]
        for path in sorted(self.span_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                if line.strip():
                    dumps.append(json.loads(line))
        for dump in dumps:
            for i in range(n):
                totals.calls[i] += dump["calls"][i]
                totals.busy[i] += dump["busy"][i]
                totals.self_s[i] += dump["self"][i]
            for key, value in dump["counters"].items():
                totals.counters[key] = totals.counters.get(key, 0.0) + value
            for span_id, index, t0, t1, parent in dump["spans"]:
                totals.spans.append((span_id, self.names[index], t0, t1, parent))
        return totals


def write_spans(totals: LayerTotals, path: Path) -> None:
    """Write merged spans, one JSON object a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span_id, name, t0, t1, parent in totals.spans:
            record = {"id": span_id, "name": name, "start": t0, "end": t1, "parent": parent}
            handle.write(json.dumps(record) + "\n")


def _with_subclasses(cls: type) -> list[type]:
    """``cls`` and every (transitive) subclass, each once."""
    seen: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.append(current)
        pending.extend(current.__subclasses__())
    return seen
