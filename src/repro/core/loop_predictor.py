"""CBPw-Loop: the loop predictor of the CBP-2016 winner, as a two-level
BHT + PT design (paper §2.3, Figure 1).

The predictor targets branches whose behaviour is a long run of one
direction terminated by a single flip — backward loop branches
(``TTT...N``) and forward if-then-else branches (``NNN...T``).  Per PC
it tracks:

* BHT state: the *current* iteration count plus the dominant direction,
  updated speculatively after every prediction (and therefore the state
  repair schemes must restore);
* PT entry: the learned *final* trip count and a confidence counter,
  updated only after the branch executes.

State encoding: ``state = (count << 1) | dir`` with ``dir = 1`` when the
dominant direction is taken.  Count saturates at the PT's trip width.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bht import BhtConfig, BranchHistoryTable
from repro.core.local_base import LocalPrediction, LocalPredictorCore, SpecUpdate
from repro.core.pattern_table import LoopPatternTable, PatternTableConfig

__all__ = ["LoopPredictorConfig", "LoopPredictor", "pack_state", "unpack_state"]


def pack_state(count: int, dominant_taken: bool) -> int:
    """Encode (iteration count, dominant direction) into a BHT state."""
    return (count << 1) | (1 if dominant_taken else 0)


def unpack_state(state: int) -> tuple[int, bool]:
    """Decode a BHT state into (iteration count, dominant direction)."""
    return state >> 1, bool(state & 1)


@dataclass(frozen=True)
class LoopPredictorConfig:
    """Sizing bundle for one CBPw-Loop instance.

    The three paper configurations (Table 2) are exposed as the
    :func:`entries` constructor: ``CBPw-Loop64/128/256`` use an 8-way
    BHT of that many entries with a PT of equal entry count.
    """

    bht: BhtConfig = BhtConfig(entries=128, ways=8)
    pt: PatternTableConfig = PatternTableConfig(entries=128, ways=8)

    @classmethod
    def entries(cls, count: int, confidence_threshold: int = 3) -> "LoopPredictorConfig":
        """The paper's CBPw-Loop<count> configuration (64, 128 or 256)."""
        ways = 8 if count >= 8 else count
        return cls(
            bht=BhtConfig(entries=count, ways=ways),
            pt=PatternTableConfig(
                entries=count, ways=ways, confidence_threshold=confidence_threshold
            ),
        )

    def storage_bits(self) -> int:
        return self.bht.storage_bits() + self.pt.storage_bits()


class LoopPredictor(LocalPredictorCore):
    """Two-level loop predictor with externally repairable BHT state."""

    name = "cbpw-loop"

    def __init__(
        self,
        config: LoopPredictorConfig | None = None,
        pt: LoopPatternTable | None = None,
    ) -> None:
        """Args:
        config: Sizing; defaults to CBPw-Loop128.
        pt: Optional externally owned pattern table — the multi-stage
            split-BHT design shares one PT between two BHT stages
            (paper §3.2.1).
        """
        self.config = config = config if config is not None else LoopPredictorConfig()
        self.bht = BranchHistoryTable(config.bht)
        self.pt = pt if pt is not None else LoopPatternTable(config.pt)
        self._shared_pt = pt is not None
        self._max_count = self.pt.config.max_trip
        self.name = f"cbpw-loop{config.bht.entries}"

    # ------------------------------------------------------------- #
    # prediction

    def lookup(self, pc: int) -> LocalPrediction | None:
        bht = self.bht
        slot = bht._slot_by_pc.get(pc, -1)
        if slot < 0 or not bht._valid[slot]:
            return None
        trip = self.pt.confident_trip(pc)
        if trip < 0:
            return None
        state = bht._state[slot]
        bht._tick += 1
        bht._lru[slot] = bht._tick
        count = state >> 1
        dominant = bool(state & 1)
        taken = dominant if count < trip else not dominant
        return LocalPrediction(pc, taken, trip, count)

    # ------------------------------------------------------------- #
    # speculative state

    def next_state(self, state: int, taken: bool) -> int:
        count, dominant = unpack_state(state)
        if taken == dominant:
            if count < self._max_count:
                count += 1
            return pack_state(count, dominant)
        if count == 0:
            # Two consecutive anti-dominant outcomes: the dominant
            # direction was learned wrong (e.g. allocated from a
            # misprediction); relearn it.
            return pack_state(1, taken)
        return pack_state(0, dominant)

    def initial_state(self, taken: bool) -> int:
        return pack_state(1, taken)

    def spec_update(self, pc: int, taken: bool) -> SpecUpdate:
        # Once per predicted branch: next_state, pack/unpack and the BHT
        # accessors are inlined (same arithmetic and table writes).
        bht = self.bht
        bit = 1 if taken else 0
        slot = bht._slot_by_pc.get(pc, -1)
        if slot < 0:
            state = 2 | bit  # pack_state(1, taken)
            return SpecUpdate(pc, bht.allocate(pc, state), None, False, state)
        states = bht._state
        valid = bht._valid
        pre_state = states[slot]
        pre_valid = valid[slot]
        count = pre_state >> 1
        dominant = pre_state & 1
        if bit == dominant:
            if count < self._max_count:
                count += 1
            post_state = (count << 1) | dominant
            # A count of at most one means the run just restarted.
            revalidate = count <= 1
        else:
            # A direction flip re-initialises the counter: from here the
            # state is right again regardless of earlier corruption, so
            # the entry becomes trustworthy (paper §3.1, §3.2.1).  Two
            # anti-dominant outcomes in a row relearn the direction.
            post_state = (2 | bit) if count == 0 else dominant
            revalidate = True
        states[slot] = post_state
        if revalidate:
            valid[slot] = True
        bht._tick += 1
        bht._lru[slot] = bht._tick
        return SpecUpdate(pc, slot, pre_state, pre_valid, post_state)

    # ------------------------------------------------------------- #
    # training

    def train(
        self,
        pc: int,
        pre_state: int | None,
        taken: bool,
        predicted: bool | None = None,
    ) -> None:
        """PT update after the branch executes (paper §2.4 step 6).

        Only *exit events* — the branch leaving its dominant direction —
        teach the PT a trip count.  The carried ``pre_state`` supplies
        the iteration the exit happened at.  A wrong own-prediction
        collapses the entry's confidence (the CBPw policy).
        """
        if predicted is not None and predicted != taken:
            self.pt.penalize(pc)
        if pre_state is None:
            return
        if taken != bool(pre_state & 1):  # left the dominant direction
            self.pt.train_exit(pc, pre_state >> 1)

    def storage_bits(self) -> int:
        if self._shared_pt:
            # A shared PT is accounted for once, by its owner.
            return self.config.bht.storage_bits()
        return self.config.storage_bits()
