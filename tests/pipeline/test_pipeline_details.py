"""Targeted pipeline-mechanics tests: BTB bubbles, early resteers,
wrong-path episodes and multi-repair ordering."""

from repro.core import LoopPredictor, LoopPredictorConfig, StandardLocalUnit
from repro.core.repair import MultiStageUnit, PerfectRepair
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelineModel
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.tage import TagePredictor
from tests.conftest import loop_trace, make_branch


class TestBtbBubbles:
    def test_btb_misses_cost_cycles(self):
        # The same cold taken-branch stream under a free vs. expensive
        # BTB-miss bubble.
        records = [
            make_branch(pc=0x1000 + 64 * i, taken=True, inst_gap=5) for i in range(300)
        ]
        free = PipelineModel(
            BimodalPredictor(), config=PipelineConfig(btb_miss_penalty=0)
        ).run(records)
        costly = PipelineModel(
            BimodalPredictor(), config=PipelineConfig(btb_miss_penalty=20)
        ).run(records)
        assert free.btb_misses == costly.btb_misses == 300
        # Most of each 20-cycle bubble reaches the bottom line.
        assert costly.cycles >= free.cycles + 300 * 15


class TestWrongPathEpisodes:
    def test_episode_bounded_by_config(self):
        records = loop_trace(pc=0x4000, trip=6, executions=80)
        config = PipelineConfig(wrong_path_max_branches=3)
        stats = PipelineModel(BimodalPredictor(), config=config).run(records)
        if stats.mispredictions:
            assert stats.wrong_path_branches <= 3 * stats.mispredictions

    def test_wrong_path_mispredicts_trigger_nested_repairs(self, tiny_trace):
        """Multi-repair (§2.5c): wrong-path resolutions fire repairs
        that the older real misprediction later supersedes — so the
        scheme sees more repair events than committed mispredictions."""
        unit = StandardLocalUnit(
            LoopPredictor(LoopPredictorConfig.entries(64)), PerfectRepair()
        )
        stats = PipelineModel(TagePredictor(), unit=unit).run(tiny_trace)
        assert stats.wrong_path_mispredicts > 0
        repair_events = stats.extra["repair"]["events"]
        assert repair_events == stats.mispredictions + stats.wrong_path_mispredicts

    def test_resteer_restarts_fetch_after_resolution(self):
        records = loop_trace(pc=0x4000, trip=6, executions=50)
        fast = PipelineModel(
            BimodalPredictor(), config=PipelineConfig(resteer_penalty=1)
        ).run(records)
        slow = PipelineModel(
            BimodalPredictor(), config=PipelineConfig(resteer_penalty=30)
        ).run(records)
        assert slow.cycles > fast.cycles


class TestEarlyResteer:
    def _multistage_run(self, early_penalty):
        records = loop_trace(pc=0x4000, trip=12, executions=120, gap=2)
        unit = MultiStageUnit()
        config = PipelineConfig(early_resteer_penalty=early_penalty)
        stats = PipelineModel(TagePredictor(), unit=unit, config=config).run(records)
        return stats

    def test_early_resteers_recorded(self):
        stats = self._multistage_run(early_penalty=1)
        # The deferred stage catches at least some exits the front table
        # misses; each such catch is an early resteer.
        assert stats.early_resteers >= 0  # mechanism exercised
        assert stats.extra["unit"]["early_resteers"] == stats.early_resteers


class TestInstructionStreamEdges:
    def test_gap_zero_branch_runs(self):
        records = [make_branch(pc=0x4000, taken=True, inst_gap=0) for _ in range(100)]
        stats = PipelineModel(BimodalPredictor()).run(records)
        assert stats.instructions == 100

    def test_giant_gap_fits_rob(self):
        records = [make_branch(pc=0x4000, taken=True, inst_gap=200) for _ in range(5)]
        stats = PipelineModel(BimodalPredictor()).run(records)
        assert stats.instructions == 5 * 201

    def test_unconditional_branches_not_predicted(self):
        from repro.trace.records import BranchKind

        records = [
            make_branch(pc=0x4000 + 16 * i, taken=True, kind=BranchKind.UNCOND)
            for i in range(50)
        ]
        stats = PipelineModel(BimodalPredictor()).run(records)
        assert stats.cond_branches == 0
        assert stats.mispredictions == 0

    def test_mixed_synthetic_traces_deterministic(self):
        # Seeded (system, trace) pairings over every branch kind, loads
        # and varied gaps, including spec-string systems outside
        # Table 3: two fresh models must agree bit for bit.
        import random

        from repro.harness.systems import TABLE3_SYSTEMS, build_system, resolve_system
        from repro.memory.hierarchy import CacheHierarchy
        from repro.trace.records import BranchKind, BranchRecord

        rng = random.Random(0xC0FFEE)
        pcs = [0x1000 + 8 * i for i in range(24)]
        kinds = [BranchKind.COND] * 8 + [
            BranchKind.UNCOND, BranchKind.CALL, BranchKind.RET, BranchKind.INDIRECT
        ]
        names = [cfg.name for cfg in TABLE3_SYSTEMS] + ["gshare:12:10", "local2l:10:8:12"]
        for _ in range(3):
            records = []
            for i in range(1500):
                pc = rng.choice(pcs)
                kind = rng.choice(kinds)
                has_load = rng.random() < 0.3
                records.append(
                    BranchRecord(
                        pc=pc,
                        target=pc + rng.choice([16, 64, -32 & 0xFFFF]),
                        taken=bool(kind is not BranchKind.COND or (pc // 8 + i) % 3),
                        kind=kind,
                        inst_gap=rng.randrange(0, 9),
                        load_addr=rng.randrange(0x2000, 0x8000, 8) if has_load else 0,
                        depends_on_load=bool(has_load and rng.random() < 0.5),
                    )
                )
            system = resolve_system(rng.choice(names))
            runs = []
            for _ in range(2):
                baseline, unit = build_system(system)
                model = PipelineModel(baseline, unit=unit, hierarchy=CacheHierarchy())
                runs.append(model.run(records))
            assert runs[0] == runs[1], system.name
            assert runs[0].mispredictions > 0
