"""Cycle-level out-of-order pipeline model.

A trace-driven timing model of the paper's Skylake-like core, built for
one purpose: faithfully reproduce the *pipeline dynamics around branch
mispredictions* that make local-predictor repair hard —

* predictions (and speculative BHT updates) happen at fetch, deep in
  front of execution;
* branches resolve out of order, many cycles later, with tens of
  instructions (and their speculative updates) in flight behind them;
* on a misprediction the front end has already run down the wrong path,
  polluting predictor state that must now be repaired while the machine
  restarts;
* the ROB bound and retirement pace determine how long OBQ/snapshot
  entries stay live.

The model processes the committed branch stream sequentially.  Timing
per record: fetch bandwidth (taken-branch BTB misses insert bubbles) →
allocation after ``frontend_depth`` cycles, gated by ROB occupancy →
resolution after scheduling plus execution (plus load latency for
load-dependent branches) → in-order retirement.  On a misprediction the
front end replays the recent committed window as wrong-path fetch until
resolution, then flushes, repairs, and resteers.

Wrong-path fetch replays recent committed records because real wrong
paths after loop-exit mispredictions re-execute the loop body — the
first-order effect being extra speculative bumps of the very counters
the repair schemes must restore.  Wrong-path instructions are not
charged against the ROB (they would be flushed before mattering) but do
consume fetch bandwidth, predictor state, and checkpoint entries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from repro.core.inflight import InflightBranch
from repro.core.unit import LocalBranchUnit
from repro.errors import SimulationError
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats
from repro.predictors.base import GlobalPredictor
from repro.telemetry import TELEMETRY, EpisodeEvent, PredictEvent, RetireEvent
from repro.trace.records import BranchKind, BranchRecord
from repro.trace.stream import TraceStream

__all__ = ["PipelineModel"]

_COND = BranchKind.COND


class PipelineModel:
    """One simulated core: baseline predictor + optional local unit.

    Args:
        baseline: The global predictor (TAGE in all paper experiments).
        unit: Local predictor + repair scheme, or None for the baseline
            system.
        config: Core timing parameters.
        hierarchy: Cache model for load latencies; None disables memory
            modelling (loads cost L1 latency).
    """

    def __init__(
        self,
        baseline: GlobalPredictor,
        unit: LocalBranchUnit | None = None,
        config: PipelineConfig | None = None,
        hierarchy: CacheHierarchy | None = None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.baseline = baseline
        self.unit = unit
        self.hierarchy = hierarchy
        self.btb = BranchTargetBuffer(self.config.btb_entries, self.config.btb_ways)
        self.stats = SimStats()

        self._fe_cycle = 0
        self._last_alloc = 0
        self._last_retire = 0
        self._rob_occupancy = 0
        #: (retire_cycle, group_size, branch or None) in program order.
        self._rob: deque[tuple[int, int, InflightBranch | None]] = deque()
        self._next_uid = 0
        #: Telemetry handle; the disabled path costs one attribute check
        #: per instrumentation site (see repro.telemetry).
        self._tel = TELEMETRY
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """(Re)derive the per-branch bound methods and hoisted constants.

        Hot-path bindings: the baseline, unit, hierarchy and BTB never
        change after construction, so the per-branch calls go through
        pre-bound methods instead of two-level attribute lookups, and a
        unit's no-op base ``at_alloc`` is skipped entirely.  Bound at
        init so subclass overrides still apply;
        checkpoint/spec_push skip the GlobalPredictor delegation layer
        only when the predictor has not overridden them.  The
        specialized-engine driver (:mod:`repro.pipeline.specialize`)
        calls this again after restoring a checkpoint, because a restore
        replaces ``baseline``/``btb`` with deep copies the old bound
        methods no longer point at.
        """
        baseline = self.baseline
        self._base_lookup = baseline.lookup
        base_type = type(baseline)
        if base_type.checkpoint is GlobalPredictor.checkpoint:
            self._base_checkpoint = baseline.history.checkpoint
        else:
            self._base_checkpoint = baseline.checkpoint
        if base_type.spec_push is GlobalPredictor.spec_push:
            self._base_spec_push = baseline.history.push
        else:
            self._base_spec_push = baseline.spec_push
        self._btb_lookup = self.btb.lookup
        self._btb_install = self.btb.install
        self._base_train = baseline.train
        self._base_recover = baseline.recover
        hierarchy = self.hierarchy
        self._load_latency: Callable[[int], int] | None = (
            hierarchy.load_latency if hierarchy is not None else None
        )
        unit = self.unit
        self._unit_predict: Callable[[InflightBranch, bool, int], bool] | None = None
        self._unit_resolve: (
            Callable[[InflightBranch, Sequence[InflightBranch], int], None] | None
        ) = None
        self._unit_at_alloc: Callable[[InflightBranch, int], bool] | None = None
        if unit is not None:
            self._unit_predict = unit.predict
            self._unit_resolve = unit.resolve
            # The base hook returns the fetch-stage direction unchanged;
            # only units that override it pay a call per branch.
            if type(unit).at_alloc is not LocalBranchUnit.at_alloc:
                self._unit_at_alloc = unit.at_alloc
        # Immutable timing parameters hoisted out of the per-branch path
        # (PipelineConfig is frozen, so these can never drift).
        cfg = self.config
        self._fetch_width = cfg.fetch_width
        self._frontend_depth = cfg.frontend_depth
        self._sched_to_exec = cfg.sched_to_exec
        self._branch_exec_latency = cfg.branch_exec_latency
        self._nonbranch_base_latency = cfg.nonbranch_base_latency
        self._exec_jitter = cfg.exec_jitter
        self._retire_width = cfg.retire_width
        self._btb_miss_penalty = cfg.btb_miss_penalty
        self._rob_entries = cfg.rob_entries

    # ------------------------------------------------------------- #
    # public API

    def run(self, records: Sequence[BranchRecord]) -> SimStats:
        """Simulate the committed branch stream; returns the statistics."""
        self.run_segment(records)
        return self.finalize()

    def run_segment(self, records: Sequence[BranchRecord]) -> None:
        """Simulate one contiguous span, accumulating into ``stats``.

        The sampled two-speed engine (``repro.harness.sampling``) calls
        this once per detailed interval, with predictor state warmed by
        functional fast-forward between calls; timing state (cycles,
        ROB, retirement) carries over from segment to segment.  Call
        :meth:`finalize` once after the last segment.  The wrong-path
        replay window starts empty at each segment boundary, so the
        first few mispredictions of a segment replay a shorter wrong
        path — a boundary effect sampling accepts by design.
        """
        stream = TraceStream(records, window=self.config.wrong_path_window)
        self.run_stream(stream)

    def run_stream(self, stream: TraceStream, limit: int | None = None) -> int:
        """Consume up to ``limit`` records from an externally-owned stream.

        Identical per-record behaviour to :meth:`run_segment`, but the
        stream (and with it the wrong-path replay window) survives the
        call — which is what lets the specialized-engine driver
        (:mod:`repro.pipeline.specialize`) interleave generic prefix
        simulation, specialized spans, and post-abort generic replay over
        one uninterrupted window.  Records are read from
        :attr:`TraceStream.records` directly (appending each to the replay
        window); the stream seeks past them at the end.  Returns the
        number of records consumed.
        """
        records = stream.records
        start = stream.position
        stop = len(records) if limit is None else min(len(records), start + limit)
        window_append = stream.window.append
        rob = self._rob
        retire_up_to = self._retire_up_to
        issue = self._issue
        mispredict_episode = self._mispredict_episode
        base_train = self._base_train
        unit_resolve = self._unit_resolve
        for pos in range(start, stop):
            record = records[pos]
            window_append(record)
            if rob and rob[0][0] <= self._fe_cycle:
                retire_up_to(self._fe_cycle)
            branch = issue(record, False)
            if branch is None:
                continue
            if branch.predicted_taken != record.taken:
                mispredict_episode(branch, stream)
            else:
                # Correctly predicted branch: train everything, no flush.
                base_train(branch.tage_pred, record.taken)
                if unit_resolve is not None:
                    unit_resolve(branch, (), branch.resolve_cycle)
        stream.seek(stop)
        return stop - start

    def current_cycle(self) -> int:
        """Front-end/retirement high-water mark, for per-segment deltas.

        Work still in the ROB has not retired yet, so consecutive
        readings slightly undercount each segment's cycles — uniformly,
        which is what the sampling extrapolation needs.
        """
        return max(self._fe_cycle, self._last_retire)

    def finalize(self) -> SimStats:
        """Drain in-flight work and close the run; returns the stats."""
        self._drain()
        return self.stats

    # ------------------------------------------------------------- #
    # per-record issue: fetch, predict, allocate, schedule

    def _issue(self, record: BranchRecord, wrong_path: bool) -> InflightBranch | None:
        """Advance fetch over one instruction group; predict the branch.

        Returns the InflightBranch for conditional branches, None for
        other control flow (which only consumes bandwidth and BTB slots).
        """
        stats = self.stats
        group = record.inst_gap + 1
        fetch_cycles = -(-group // self._fetch_width)
        fetch_cycle = self._fe_cycle + fetch_cycles - 1
        taken = record.taken

        btb_bubble = 0
        if wrong_path:
            alloc_cycle = fetch_cycle + self._frontend_depth
        else:
            # Taken control flow needs a BTB target; a miss stalls fetch.
            if taken and self._btb_lookup(record.pc) is None:
                self._btb_install(record.pc, record.target)
                btb_bubble = self._btb_miss_penalty
                stats.btb_misses += 1
            alloc_cycle = fetch_cycle + self._frontend_depth
            if alloc_cycle < self._last_alloc:
                alloc_cycle = self._last_alloc
            if self._rob_occupancy + group > self._rob_entries:
                alloc_cycle = self._stall_for_rob(alloc_cycle, group)
            self._last_alloc = alloc_cycle

        load_latency = 0
        if record.load_addr:
            hier_load = self._load_latency
            load_latency = hier_load(record.load_addr) if hier_load is not None else 5

        uid = self._next_uid
        self._next_uid = uid + 1
        exec_jitter = self._exec_jitter
        jitter = ((uid * 2654435761) >> 13) % exec_jitter if exec_jitter else 0
        sched_to_exec = self._sched_to_exec
        resolve_cycle = (
            alloc_cycle
            + sched_to_exec
            + self._branch_exec_latency
            + jitter
            + (load_latency if record.depends_on_load else 0)
        )
        base_latency = self._nonbranch_base_latency
        completion = alloc_cycle + sched_to_exec + (
            load_latency if load_latency > base_latency else base_latency
        )

        branch: InflightBranch | None = None
        if record.kind is _COND:
            # Positional: uid, record, wrong_path, squashed, fetch_cycle,
            # alloc_cycle, resolve_cycle (cheaper than keywords per branch).
            branch = InflightBranch(
                uid, record, wrong_path, False, fetch_cycle, alloc_cycle, resolve_cycle
            )
            # Fetch-stage prediction: baseline lookup, history checkpoint,
            # unit override, speculative history push.
            pc = record.pc
            base_pred = self._base_lookup(pc)
            branch.tage_pred = base_pred
            branch.hist_ckpt = self._base_checkpoint()
            final = base_pred.taken
            unit_predict = self._unit_predict
            if unit_predict is not None:
                final = unit_predict(branch, final, fetch_cycle)
            branch.predicted_taken = final
            self._base_spec_push(pc, final)
            at_alloc = self._unit_at_alloc
            if at_alloc is not None:
                # Alloc-stage (deferred) hook.
                final = at_alloc(branch, alloc_cycle)
                if branch.early_resteer and not wrong_path:
                    # Deferred override: squash the younger front-end
                    # contents and restart fetch behind this branch.
                    stats.early_resteers += 1
                    restart = alloc_cycle + self.config.early_resteer_penalty
                    if restart > self._fe_cycle:
                        self._fe_cycle = restart
                branch.predicted_taken = final
            if not wrong_path:
                stats.cond_branches += 1
                if taken:
                    stats.taken_branches += 1
                if base_pred.taken != taken:
                    stats.base_wrong += 1
            else:
                stats.wrong_path_branches += 1

        # Single boolean check on the (default) disabled-telemetry path;
        # everything telemetry-related lives behind it.
        tel = self._tel
        if tel.enabled:
            reg = tel.registry
            reg.counter("pipeline.fetch_cycles").inc(fetch_cycles)
            if btb_bubble:
                reg.counter("pipeline.btb_bubble_cycles").inc(btb_bubble)
            if tel.tracing and branch is not None:
                tel.emit(
                    PredictEvent(
                        cycle=fetch_cycle,
                        pc=record.pc,
                        predicted=branch.predicted_taken,
                        actual=taken,
                        wrong_path=wrong_path,
                    )
                )

        self._fe_cycle += fetch_cycles + btb_bubble
        retire_cycle = completion if completion > resolve_cycle else resolve_cycle
        if not wrong_path:
            stats.branches += 1
            stats.instructions += group
            pace = self._last_retire + -(-group // self._retire_width)
            if pace > retire_cycle:
                retire_cycle = pace
            self._last_retire = retire_cycle
            self._rob_occupancy += group
            self._rob.append((retire_cycle, group, branch))
        if branch is not None:
            branch.retire_cycle = retire_cycle
        return branch

    def _stall_for_rob(self, alloc_cycle: int, group: int) -> int:
        """Retire ROB groups until ``group`` fits; the stalled alloc cycle."""
        while self._rob_occupancy + group > self._rob_entries:
            if not self._rob:
                raise SimulationError(
                    f"instruction group of {group} exceeds ROB capacity"
                )
            retire_cycle, size, retired = self._rob.popleft()
            self._rob_occupancy -= size
            if retired is not None:
                if self.unit is not None:
                    self.unit.retire(retired, retire_cycle)
                if self._tel.tracing:
                    self._tel.emit(RetireEvent(cycle=retire_cycle, pc=retired.pc))
            if retire_cycle > alloc_cycle:
                self.stats.rob_stall_cycles += retire_cycle - alloc_cycle
                alloc_cycle = retire_cycle
        return alloc_cycle

    # ------------------------------------------------------------- #
    # resolution

    def _mispredict_episode(self, branch: InflightBranch, stream: TraceStream) -> None:
        """Wrong-path fetch, nested wrong-path repairs, flush, resteer."""
        cfg = self.config
        stats = self.stats
        unit_resolve = self._unit_resolve
        recover = self._base_recover
        resolve = branch.resolve_cycle
        episode: list[InflightBranch] = []
        pending: list[InflightBranch] = []
        episode_start_fe = self._fe_cycle
        wp_mispredicts_before = stats.wrong_path_mispredicts

        if cfg.wrong_path:
            replay = stream.recent(cfg.wrong_path_window)
            n_replay = len(replay)
            max_branches = cfg.wrong_path_max_branches
            fetch_width = self._fetch_width
            rob = self._rob
            retire_up_to = self._retire_up_to
            issue = self._issue
            index = 0
            produced = 0
            while n_replay and produced < max_branches:
                # The back end keeps retiring older correct-path work
                # while the front end runs down the wrong path.
                fe_cycle = self._fe_cycle
                if rob and rob[0][0] <= fe_cycle:
                    retire_up_to(fe_cycle)
                record = replay[index % n_replay]
                index += 1
                group_cycles = -(-(record.inst_gap + 1) // fetch_width)
                if fe_cycle + group_cycles - 1 >= resolve:
                    break
                wp_branch = issue(record, True)
                if wp_branch is not None:
                    episode.append(wp_branch)
                    produced += 1
                    if (
                        wp_branch.predicted_taken != record.taken
                        and wp_branch.resolve_cycle < resolve
                    ):
                        pending.append(wp_branch)

        # Wrong-path branches can resolve mispredicted before the real
        # (older) branch does — each triggers its own flush and repair,
        # later superseded when the older branch resolves (§2.5c).
        for wp_branch in sorted(pending, key=lambda b: b.resolve_cycle):
            if wp_branch.squashed:
                continue
            flushed = [
                b for b in episode if b.uid > wp_branch.uid and not b.squashed
            ]
            stats.wrong_path_mispredicts += 1
            if wp_branch.hist_ckpt is not None:
                recover(wp_branch.hist_ckpt, wp_branch.pc, wp_branch.actual_taken)
            if unit_resolve is not None:
                unit_resolve(wp_branch, flushed, wp_branch.resolve_cycle)
            for squashed in flushed:
                squashed.squashed = True

        # The real resolution: flush everything younger, restore the
        # global history, train, repair, resteer.
        flushed = [b for b in episode if not b.squashed]
        stats.mispredictions += 1
        actual = branch.record.taken
        recover(branch.hist_ckpt, branch.record.pc, actual)
        self._base_train(branch.tage_pred, actual)
        if unit_resolve is not None:
            unit_resolve(branch, flushed, resolve)
        for squashed in flushed:
            squashed.squashed = True
        self._fe_cycle = resolve + cfg.resteer_penalty

        tel = self._tel
        if tel.enabled:
            reg = tel.registry
            reg.counter("pipeline.episodes").inc()
            reg.counter("pipeline.resteer_cycles").inc(cfg.resteer_penalty)
            if resolve > episode_start_fe:
                reg.counter("pipeline.wrong_path_cycles").inc(
                    resolve - episode_start_fe
                )
            reg.histogram("episode.wrong_path_branches").observe(len(episode))
            if tel.tracing:
                tel.emit(
                    EpisodeEvent(
                        pc=branch.pc,
                        fetch_cycle=branch.fetch_cycle,
                        resolve_cycle=resolve,
                        wrong_path_branches=len(episode),
                        wrong_path_mispredicts=(
                            stats.wrong_path_mispredicts - wp_mispredicts_before
                        ),
                        flushed=len(flushed),
                    )
                )

    # ------------------------------------------------------------- #
    # retirement

    def _retire_up_to(self, cycle: int) -> None:
        """Release ROB groups whose retirement time has passed."""
        rob = self._rob
        if not rob or rob[0][0] > cycle:
            return
        tel = self._tel
        tracing = tel.tracing
        unit = self.unit
        popleft = rob.popleft
        freed = 0
        while rob and rob[0][0] <= cycle:
            retire_cycle, size, branch = popleft()
            freed += size
            if branch is not None:
                if unit is not None:
                    unit.retire(branch, retire_cycle)
                if tracing:
                    tel.emit(RetireEvent(cycle=retire_cycle, pc=branch.pc))
        self._rob_occupancy -= freed

    def _drain(self) -> None:
        """Retire everything left in flight and close the run."""
        final_cycle = self._fe_cycle
        tel = self._tel
        while self._rob:
            retire_cycle, size, branch = self._rob.popleft()
            self._rob_occupancy -= size
            if branch is not None:
                if self.unit is not None:
                    self.unit.retire(branch, retire_cycle)
                if tel.tracing:
                    tel.emit(RetireEvent(cycle=retire_cycle, pc=branch.pc))
            if retire_cycle > final_cycle:
                final_cycle = retire_cycle
        self.stats.cycles = max(final_cycle, self._last_retire, 1)
        if tel.enabled:
            # Mirror the stall total accumulated during allocation so
            # the stage breakdown is complete without touching the
            # ROB-bound inner loop.
            tel.registry.counter("pipeline.rob_stall_cycles").inc(
                self.stats.rob_stall_cycles
            )
        self._attach_extra()

    def _attach_extra(self) -> None:
        """Pull component statistics into the run's extra payload."""
        extra = self.stats.extra
        extra["btb_miss_rate"] = self.btb.miss_rate
        if self.hierarchy is not None:
            extra["memory"] = self.hierarchy.stats()
        if self.unit is not None:
            unit_stats = self.unit.stats
            extra["unit"] = {
                "lookups": unit_stats.lookups,
                "local_predictions": unit_stats.local_predictions,
                "overrides": unit_stats.overrides,
                "saves": unit_stats.saves,
                "damages": unit_stats.damages,
                "denied_busy": unit_stats.denied_busy,
                "blocked_updates": unit_stats.blocked_updates,
                "early_resteers": unit_stats.early_resteers,
            }
            scheme = getattr(self.unit, "scheme", None)
            if scheme is not None:
                repair = scheme.stats
                extra["repair"] = {
                    "events": repair.events,
                    "restarts": repair.restarts,
                    "entries_walked": repair.entries_walked,
                    "bht_writes": repair.bht_writes,
                    "busy_cycles": repair.busy_cycles,
                    "uncheckpointed": repair.uncheckpointed,
                    "unrepaired": repair.unrepaired,
                    "skipped_events": repair.skipped_events,
                    "mean_writes_per_event": repair.mean_writes_per_event,
                    "max_writes_per_event": repair.writes_per_event_max,
                }
