"""Property tests: maintained and derived folds against a plain rebuild.

``GlobalHistory`` maintains only the long, distinct folds on every push
and derives the short ones from GHIST when read (TAGE reads its short
tables' folds from a memoized per-geometry table).  Whatever sequence of
pushes, checkpoints, restores and repairs a predictor sees, every
registered fold must read as the fold rebuilt bit by bit from GHIST, and
TAGE's lookup must hash exactly as a plain reference built from those
rebuilt values.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.statistical_corrector import ScTagePredictor
from repro.predictors.tage import TageConfig, TagePredictor

PRESETS = {"kb8": TageConfig.kb8, "kb9": TageConfig.kb9, "kb64": TageConfig.kb64}

pcs = st.integers(0, 2**20).map(lambda v: v * 4)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), pcs, st.booleans()),
        st.tuples(st.just("train"), pcs, st.booleans()),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore"), st.integers(0, 15)),
        st.tuples(st.just("restore_and_push"), st.integers(0, 15), pcs, st.booleans()),
    ),
    max_size=80,
)


def naive_fold(ghist: int, original_length: int, compressed_length: int) -> int:
    """Bit i of the window lands on bit i mod compressed_length."""
    comp = 0
    for i in range(original_length):
        comp ^= ((ghist >> i) & 1) << (i % compressed_length)
    return comp


def reference_scan(tage: TagePredictor, pc: int) -> tuple[list[int], list[int], int]:
    """Indices, tags and provider from rebuilt folds.

    Scans top-down and stops at the alternate provider, as ``lookup``
    does, so tables below it keep zero index and tag.
    """
    history = tage.history
    n = len(tage.config.tables)
    indices, tags = [0] * n, [0] * n
    provider = -1
    pc_bits = pc >> 2
    for t in range(n - 1, -1, -1):
        cfg = tage.config.tables[t]
        length, log = cfg.history_length, cfg.log_entries
        index_fold = naive_fold(history.ghist, length, log)
        tag0 = naive_fold(history.ghist, length, cfg.tag_bits)
        tag1 = naive_fold(history.ghist, length, max(cfg.tag_bits - 1, 1))
        path = history.phist & ((1 << min(length, 16)) - 1)
        path ^= path >> log
        indices[t] = (
            pc_bits ^ (pc_bits >> (log - (t % 3) - 1)) ^ index_fold ^ path
        ) & (cfg.entries - 1)
        tags[t] = (pc_bits ^ tag0 ^ (tag1 << 1)) & ((1 << cfg.tag_bits) - 1)
        if tage._tag[t][indices[t]] == tags[t]:
            if provider >= 0:
                break
            provider = t
    return indices, tags, provider


def drive(predictor, tage: TagePredictor, warm_seed: int, warm: int, sequence) -> None:
    """Apply a warm-up prefix, then the drawn operation sequence."""
    history = tage.history
    rng = random.Random(warm_seed)
    for _ in range(warm):
        pc = rng.randrange(1 << 16) * 4
        prediction = predictor.lookup(pc)
        taken = rng.random() < 0.6
        history.push(pc, taken)
        predictor.train(prediction, taken)
    checkpoints = [history.checkpoint()]
    for op in sequence:
        kind = op[0]
        if kind == "push":
            history.push(op[1], op[2])
        elif kind == "train":
            prediction = predictor.lookup(op[1])
            history.push(op[1], prediction.taken)
            predictor.train(prediction, op[2])
        elif kind == "checkpoint":
            checkpoints.append(history.checkpoint())
        elif kind == "restore":
            history.restore(checkpoints[op[1] % len(checkpoints)])
        else:
            history.restore_and_push(checkpoints[op[1] % len(checkpoints)], op[2], op[3])


def assert_folds_match(folds) -> None:
    for fold in folds:
        ghist = fold._owner.ghist
        expected = naive_fold(ghist, fold.original_length, fold.compressed_length)
        assert fold.comp == expected, (fold.original_length, fold.compressed_length)


def assert_lookup_matches(tage: TagePredictor, pc: int) -> None:
    indices, tags, provider, *_ = tage.lookup(pc).meta
    ref_indices, ref_tags, ref_provider = reference_scan(tage, pc)
    assert (indices, tags, provider) == (ref_indices, ref_tags, ref_provider)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(PRESETS)),
    st.integers(0, 2**32),
    st.integers(0, 450),
    ops,
    pcs,
)
def test_tage_folds_and_lookup_match_rebuild(preset, warm_seed, warm, sequence, probe):
    tage = TagePredictor(PRESETS[preset]())
    drive(tage, tage, warm_seed, warm, sequence)
    assert_folds_match(fold for folds in tage.table_folds for fold in folds)
    assert_lookup_matches(tage, probe)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 200), ops, pcs)
def test_sc_folds_match_rebuild(warm_seed, warm, sequence, probe):
    sc = ScTagePredictor()
    drive(sc, sc.tage, warm_seed, warm, sequence)
    assert_folds_match(sc._folds)
    assert_folds_match(fold for folds in sc.tage.table_folds for fold in folds)
    assert_lookup_matches(sc.tage, probe)
    ghist = sc.history.ghist
    bits = probe >> 2
    mask = (1 << sc.sc_config.log_entries) - 1
    _, gehl_indices = sc._indices(probe, True)
    assert gehl_indices == [
        (bits ^ naive_fold(ghist, fold.original_length, fold.compressed_length) ^ (bits >> 6))
        & mask
        for fold in sc._folds
    ]
