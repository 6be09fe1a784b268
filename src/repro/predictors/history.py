"""Global branch history registers and folded-history machinery.

Global predictors (gshare, TAGE) consult two speculative registers:

``GHIST``
    direction history, one bit per branch, newest bit at position 0.

``PHIST``
    path history, a few PC bits per branch.

Both are updated *speculatively at prediction time* and must be restored
when a branch turns out mispredicted.  Each in-flight branch therefore
carries a :class:`HistoryCheckpoint` taken before its own update — this
is the cheap, constant-cost repair the paper contrasts with the BHT
repair problem of local predictors (§2.3.1).

:class:`FoldedHistory` implements Seznec's incremental folding, which
compresses an ``original_length``-bit history into ``compressed_length``
bits in O(1) per branch instead of O(length).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "DERIVED_MAX_LENGTH",
    "FoldedHistory",
    "GlobalHistory",
    "HistoryCheckpoint",
    "fold_value",
]

#: Folds over at most this many history bits are *derived*: a
#: registered short fold has no maintained state, its value is computed
#: from the low GHIST bits when read (:func:`fold_value`, or a table
#: memoized per geometry as TAGE does).  Only longer folds are updated
#: on every push and copied into every checkpoint.
DERIVED_MAX_LENGTH = 13


def fold_value(ghist: int, original_length: int, compressed_length: int) -> int:
    """Chunk-XOR fold of the youngest ``original_length`` bits of ``ghist``.

    This is the value the incremental :meth:`FoldedHistory.update`
    maintains, computed from scratch.
    """
    window = ghist & ((1 << original_length) - 1)
    mask = (1 << compressed_length) - 1
    comp = 0
    while window:
        comp ^= window & mask
        window >>= compressed_length
    return comp


class FoldedHistory:
    """Folded view of the most recent history bits.

    The fold is the XOR of consecutive ``compressed_length``-bit chunks of
    the youngest ``original_length`` bits of GHIST, maintained in O(1) per
    inserted bit.

    A standalone fold stores its own value (:meth:`update`,
    :meth:`rebuild`).  Once registered on a :class:`GlobalHistory`,
    :attr:`comp` becomes a read-only view: a long fold reads its slot of
    the owner's flat ``fold_comps`` list (shared by every fold with the
    same lengths), a short fold (``original_length <=``
    :data:`DERIVED_MAX_LENGTH`) is derived from the owner's GHIST.
    """

    __slots__ = (
        "_comp",
        "compressed_length",
        "original_length",
        "_outpoint",
        "_mask",
        "_owner",
        "_slot",
    )

    def __init__(self, original_length: int, compressed_length: int) -> None:
        if original_length <= 0 or compressed_length <= 0:
            raise ConfigError("history lengths must be positive")
        self._comp = 0
        self.compressed_length = compressed_length
        self.original_length = original_length
        self._outpoint = original_length % compressed_length
        self._mask = (1 << compressed_length) - 1
        self._owner: GlobalHistory | None = None
        #: Slot in the owner's ``fold_comps``; -1 for a derived fold.
        self._slot = -1

    @property
    def comp(self) -> int:
        """Current folded value (live view once registered)."""
        owner = self._owner
        if owner is None:
            return self._comp
        if self._slot < 0:
            return fold_value(owner.ghist, self.original_length, self.compressed_length)
        return owner.fold_comps[self._slot]

    def update(self, ghist_after_insert: int, new_bit: int) -> None:
        """Fold in ``new_bit`` and fold out the bit leaving the window.

        Args:
            ghist_after_insert: GHIST *after* the new bit was shifted in
                at position 0 (so the evicted bit sits at
                ``original_length``).
            new_bit: The bit just inserted (0 or 1).
        """
        comp = (self._comp << 1) | new_bit
        comp ^= ((ghist_after_insert >> self.original_length) & 1) << self._outpoint
        comp ^= comp >> self.compressed_length
        self._comp = comp & self._mask

    def rebuild(self, ghist: int) -> None:
        """Recompute the fold from scratch (used after restore)."""
        self._comp = fold_value(ghist, self.original_length, self.compressed_length)


@dataclass(slots=True)
class HistoryCheckpoint:
    """Pre-update snapshot carried by each in-flight branch.

    ``folds`` is a copy of the owner's maintained fold values (one per
    distinct long fold, in registration order) — a single C-level
    ``list.copy`` per branch.  Derived folds need no saving: they follow
    ``ghist``.  Not frozen: a frozen dataclass pays an
    ``object.__setattr__`` per field on construction, once per branch.
    """

    ghist: int
    phist: int
    folds: list[int]


class GlobalHistory:
    """Speculative GHIST/PHIST with per-branch checkpoint/restore.

    Folded histories are registered by predictors (one or more per TAGE
    table).  Only *maintained* folds — distinct ``(original_length,
    compressed_length)`` pairs over more than :data:`DERIVED_MAX_LENGTH`
    bits — are updated on every push; their values live in
    :attr:`fold_comps`, a flat list the per-branch checkpoint copies and
    predictors read by slot.  Shorter folds are derived from GHIST when
    read.  (One packed integer for all maintained folds would make a
    push cheaper but every read a wide shift; on kb8 that nets out even.)
    """

    __slots__ = (
        "ghist",
        "phist",
        "max_length",
        "path_bits",
        "fold_comps",
        "_fold_params",
        "_slots",
        "_ghist_mask",
        "_phist_mask",
    )

    def __init__(self, max_length: int = 256, path_bits: int = 16) -> None:
        if max_length <= 0:
            raise ConfigError(f"max_length must be positive, got {max_length}")
        self.ghist = 0
        self.phist = 0
        self.max_length = max_length
        self.path_bits = path_bits
        #: Live values of the maintained folds, one per slot.
        self.fold_comps: list[int] = []
        #: Per maintained fold: (slot, original_length, outpoint,
        #: compressed_length, mask), unpacked in the push loop.
        self._fold_params: list[tuple[int, int, int, int, int]] = []
        #: (original_length, compressed_length) -> maintained slot.
        self._slots: dict[tuple[int, int], int] = {}
        # Keep one spare bit above max_length so folds can observe the
        # evicted bit before truncation.
        self._ghist_mask = (1 << (max_length + 1)) - 1
        self._phist_mask = (1 << path_bits) - 1

    def register_fold(self, fold: FoldedHistory) -> FoldedHistory:
        """Attach a folded history; it will track future pushes.

        Returns the fold.  Its ``_slot`` is its index in
        :attr:`fold_comps`, shared with any earlier fold of the same
        lengths, or -1 when the fold is derived.
        """
        olen, clen = fold.original_length, fold.compressed_length
        if olen > self.max_length:
            raise ConfigError(
                f"fold window {olen} exceeds max history {self.max_length}"
            )
        fold._owner = self
        if olen <= DERIVED_MAX_LENGTH:
            fold._slot = -1
            return fold
        slot = self._slots.get((olen, clen))
        if slot is None:
            slot = self._slots[(olen, clen)] = len(self.fold_comps)
            self.fold_comps.append(fold_value(self.ghist, olen, clen))
            self._fold_params.append((slot, olen, fold._outpoint, clen, fold._mask))
        fold._slot = slot
        return fold

    def checkpoint(self) -> HistoryCheckpoint:
        """Snapshot taken before this branch's speculative update."""
        return HistoryCheckpoint(self.ghist, self.phist, self.fold_comps.copy())

    def push(self, pc: int, taken: bool) -> None:
        """Speculatively insert one branch outcome.

        The per-fold update is inlined (same arithmetic as
        :meth:`FoldedHistory.update`) over the maintained folds only.
        """
        ghist = ((self.ghist << 1) | (1 if taken else 0)) & self._ghist_mask
        self.ghist = ghist
        self.phist = ((self.phist << 1) | (pc & 1)) & self._phist_mask
        bit = ghist & 1
        comps = self.fold_comps
        for slot, olen, outpoint, clen, cmask in self._fold_params:
            comp = (comps[slot] << 1) | bit
            comp ^= ((ghist >> olen) & 1) << outpoint
            comp ^= comp >> clen
            comps[slot] = comp & cmask

    def restore(self, ckpt: HistoryCheckpoint) -> None:
        """Rewind to a carried checkpoint (misprediction recovery)."""
        self.ghist = ckpt.ghist
        self.phist = ckpt.phist
        self.fold_comps[:] = ckpt.folds

    def restore_and_push(self, ckpt: HistoryCheckpoint, pc: int, taken: bool) -> None:
        """Standard misprediction repair: rewind then insert the truth."""
        self.restore(ckpt)
        self.push(pc, taken)
