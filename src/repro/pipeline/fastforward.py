"""Functional fast-forward: predictor state without a timing model.

SMARTS/SimPoint-style sampled simulation only measures short detailed
intervals; everything between them must still flow through the
*predictor* state — BHT counts, PT trip tables, TAGE tables, global
history — or the detailed intervals would start cold and measure
warmup transients instead of steady-state behaviour.  This module
streams the non-sampled records through exactly those state updates,
skipping the ROB, ports, wrong-path synthesis, and cycle accounting
that make detailed simulation expensive.

Two speeds are provided:

``skip``
    The cheapest stream: per committed conditional branch, one
    :meth:`~repro.predictors.base.GlobalPredictor.fast_update` (for
    TAGE: a bimodal counter touch) and one
    :meth:`~repro.core.unit.LocalBranchUnit.warm` (architectural
    BHT advance + PT train).  Global history is *not* maintained per
    branch; instead the youngest ``max_length + 1`` conditional
    outcomes of the span are replayed through ``history.push`` at the
    end, which reconstructs GHIST/PHIST and every registered fold
    exactly (folds are pure functions of the history registers).

``warm``
    The detailed warmup window run just before each measured interval:
    full TAGE lookup + train with per-branch history pushes, unit
    warmup, BTB installs, and cache-hierarchy touches.  This re-warms
    the history-indexed tagged tables that ``skip`` leaves untouched.

Neither speed touches :class:`~repro.pipeline.stats.SimStats` — the
fast-forwarded records contribute no instructions, cycles, or
mispredictions; they exist only to keep state warm.  The committed
history after a fast-forwarded span is bit-identical to what a full
detailed run would leave (speculative pushes plus misprediction
recovery net out to the actual outcomes), so the approximation lives
entirely in table contents, never in the history registers.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.unit import LocalBranchUnit
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.btb import BranchTargetBuffer
from repro.predictors.base import GlobalPredictor
from repro.trace.records import BranchKind, BranchRecord

__all__ = ["FastForwardEngine"]


class FastForwardEngine:
    """State-only execution of trace spans between detailed intervals."""

    __slots__ = ("baseline", "unit", "btb", "hierarchy", "_history_tail")

    def __init__(
        self,
        baseline: GlobalPredictor,
        unit: LocalBranchUnit | None = None,
        btb: BranchTargetBuffer | None = None,
        hierarchy: CacheHierarchy | None = None,
    ) -> None:
        self.baseline = baseline
        self.unit = unit
        self.btb = btb
        self.hierarchy = hierarchy
        # GHIST keeps one spare bit above max_length (see GlobalHistory),
        # so max_length + 1 pushes fully determine every history register
        # and, through them, every fold.
        self._history_tail = baseline.history.max_length + 1

    # ------------------------------------------------------------- #

    def skip(self, records: Sequence[BranchRecord], start: int, end: int) -> int:
        """Cheapest state stream over ``records[start:end]``.

        Returns the number of conditional branches processed.  The
        global history is reconstructed exactly at the end of the span
        by replaying its youngest conditional outcomes.
        """
        if end <= start:
            return 0
        # Find the span index from which the last `tail` conditional
        # records run, so the forward pass can push them as it goes.
        tail_start = end
        remaining = self._history_tail
        cond = BranchKind.COND
        while tail_start > start and remaining > 0:
            tail_start -= 1
            if records[tail_start].kind is cond:
                remaining -= 1

        fast_update = self.baseline.fast_update
        push = self.baseline.history.push
        unit = self.unit
        warm_unit = unit.warm if unit is not None else None
        hierarchy = self.hierarchy
        # Cache touches are pure state writes — nothing in a skip span
        # reads them back — so they are collected and applied in one
        # LRU-equivalent batch at the end (see Cache.touch_batch).  The
        # (much smaller) BTB is deliberately *not* touched here — the
        # warm window re-installs its working set at a fraction of the
        # cost of 1 install per taken branch over the whole span, with
        # no measurable IPC effect.
        loads: list[int] | None = [] if hierarchy is not None else None
        processed = 0
        for i in range(start, end):
            record = records[i]
            if loads is not None and record.load_addr:
                loads.append(record.load_addr)
            if record.kind is not cond:
                continue
            processed += 1
            taken = record.taken
            fast_update(record.pc, taken)
            if warm_unit is not None:
                warm_unit(record)
            if i >= tail_start:
                push(record.pc, taken)
        if hierarchy is not None and loads:
            # Keeps the hierarchy continuously warm: it is a
            # capacity-limited structure whose miss rates feed straight
            # into detailed-interval cycle counts.
            hierarchy.warm_load_batch(loads)
        return processed

    def warm(self, records: Sequence[BranchRecord], start: int, end: int) -> int:
        """Full functional warmup over ``records[start:end]``.

        Trains the complete baseline predictor (history-correct tagged
        lookups included), the local unit, the BTB, and the cache
        hierarchy.  Returns the number of conditional branches
        processed.
        """
        if end <= start:
            return 0
        warm_update = self.baseline.warm_update
        unit = self.unit
        warm_unit = unit.warm if unit is not None else None
        btb = self.btb
        hierarchy = self.hierarchy
        cond = BranchKind.COND
        processed = 0
        for i in range(start, end):
            record = records[i]
            pc = record.pc
            if record.taken and btb is not None:
                # install() updates in place on a hit; probing through
                # lookup() would skew the reported hit/miss counters,
                # which only measure the detailed intervals.
                btb.install(pc, record.target)
            if hierarchy is not None and record.load_addr:
                hierarchy.load_latency(record.load_addr)
            if record.kind is not cond:
                continue
            processed += 1
            # The warm update looks up with the pre-push history (as at
            # fetch) and pushes the actual outcome before training — the
            # committed state a detailed run converges to after recovery.
            warm_update(pc, record.taken)
            if warm_unit is not None:
                warm_unit(record)
        return processed
