"""Unit tests for run manifests and content hashes."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import repro
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import TABLE3_SYSTEMS
from repro.pipeline.config import PipelineConfig
from repro.telemetry.manifest import (
    ManifestBuilder,
    RunManifest,
    build_manifest,
    stable_hash,
)
from repro.workloads.suite import get_workload

_SYSTEM = TABLE3_SYSTEMS[0]

_HASH_SCRIPT = """\
from repro.harness.systems import TABLE3_SYSTEMS
from repro.pipeline.config import PipelineConfig
from repro.telemetry.manifest import build_manifest
from repro.workloads.suite import get_workload

m = build_manifest(
    get_workload("hpc-fft"), TABLE3_SYSTEMS[0], 5000, PipelineConfig()
)
print(m.config_hash, m.workload_hash)
"""


def _manifest(branches: int = 5000) -> RunManifest:
    return build_manifest(
        get_workload("hpc-fft"), _SYSTEM, branches, PipelineConfig()
    )


class TestStableHash:
    def test_insensitive_to_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_short_hex(self):
        h = stable_hash({"x": 1})
        assert len(h) == 16
        int(h, 16)  # valid hex


class TestManifest:
    def test_identity_fields(self):
        m = _manifest()
        assert m.workload == "hpc-fft"
        assert m.system == _SYSTEM.name
        assert m.branches == 5000
        assert m.repro_version
        assert m.python
        assert m.manifest_version == 1
        assert m.wall_s is None  # stamped by the runner, not here

    def test_same_inputs_same_hashes(self):
        a, b = _manifest(), _manifest()
        assert a.config_hash == b.config_hash
        assert a.workload_hash == b.workload_hash

    def test_workload_hash_tracks_branch_count(self):
        assert _manifest(5000).workload_hash != _manifest(6000).workload_hash

    def test_config_hash_tracks_system(self):
        other = build_manifest(
            get_workload("hpc-fft"), TABLE3_SYSTEMS[1], 5000, PipelineConfig()
        )
        assert other.config_hash != _manifest().config_hash

    def test_env_capture_only_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("UNRELATED_VAR", "nope")
        env = _manifest().env
        assert env.get("REPRO_SCALE") == "smoke"
        assert "UNRELATED_VAR" not in env

    def test_dict_round_trip(self):
        m = _manifest()
        assert RunManifest.from_dict(m.as_dict()) == m

    def test_as_dict_matches_the_asdict_layout(self):
        sampled = build_manifest(
            get_workload("hpc-fft"),
            _SYSTEM,
            5000,
            PipelineConfig(),
            sampling=SamplingConfig(mode="periodic"),
            engine="batch",
        )
        for m in (_manifest(), sampled):
            legacy = {
                key: value
                for key, value in asdict(m).items()
                if not (key in ("sampling", "engine") and value is None)
            }
            assert json.dumps(m.as_dict()) == json.dumps(legacy)

    def test_as_dict_copies_mutable_fields(self):
        m = build_manifest(
            get_workload("hpc-fft"),
            _SYSTEM,
            5000,
            PipelineConfig(),
            sampling=SamplingConfig(mode="periodic"),
        )
        payload = m.as_dict()
        payload["env"]["REPRO_INJECTED"] = "1"
        payload["sampling"]["interval"] = -1
        assert "REPRO_INJECTED" not in m.env
        assert m.sampling is not None and m.sampling["interval"] != -1

    def test_from_dict_ignores_unknown_keys(self):
        payload = _manifest().as_dict()
        payload["future_field"] = "whatever"
        assert RunManifest.from_dict(payload).workload == "hpc-fft"

    def test_hashes_stable_across_processes(self):
        """The hashes must not depend on PYTHONHASHSEED or process state."""
        m = _manifest()
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            src_dir = str(Path(repro.__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), src_dir) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.split())
        assert outputs[0] == outputs[1] == [m.config_hash, m.workload_hash]


class TestManifestBuilder:
    def test_reused_builder_matches_build_manifest(self):
        builder = ManifestBuilder()
        pipeline = PipelineConfig()
        sampling = SamplingConfig(mode="periodic")
        for name in ("hpc-fft", "mm-animation"):
            spec = get_workload(name)
            for system in TABLE3_SYSTEMS[:3]:
                for kwargs in ({}, {"sampling": sampling}, {"engine": "batch"}):
                    built = builder.build(spec, system, 4000, pipeline, **kwargs)
                    assert built == build_manifest(spec, system, 4000, pipeline, **kwargs)

    def test_equal_values_that_serialise_differently_are_not_merged(self):
        # 0 == 0.0, but their JSON (and so their hash) differs: the memo
        # keys on identity so neither borrows the other's hash.
        spec = get_workload("hpc-fft")
        params = replace(spec.params, trip_entropy=0)
        as_int = replace(spec, params=params)
        as_float = replace(spec, params=replace(params, trip_entropy=0.0))
        assert as_int == as_float
        builder = ManifestBuilder()
        pipeline = PipelineConfig()
        for variant in (as_int, as_float):
            assert (
                builder.build(variant, _SYSTEM, 5000, pipeline).workload_hash
                == build_manifest(variant, _SYSTEM, 5000, pipeline).workload_hash
            )

    def test_environment_read_when_the_builder_is_made(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        builder = ManifestBuilder()
        monkeypatch.setenv("REPRO_SCALE", "full")
        spec = get_workload("hpc-fft")
        assert builder.build(spec, _SYSTEM, 5000, PipelineConfig()).env["REPRO_SCALE"] == "smoke"
        assert ManifestBuilder().build(spec, _SYSTEM, 5000, PipelineConfig()).env[
            "REPRO_SCALE"
        ] == "full"
