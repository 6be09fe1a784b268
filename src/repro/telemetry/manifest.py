"""Run provenance: what exactly produced a persisted result.

A manifest answers "can I trust / reproduce this number?" without
re-running anything: stable content hashes of the system + pipeline
configuration and of the workload recipe, the trace length, the library
version, and the environment knobs that change behaviour (every
``REPRO_*`` variable).  Hashes are SHA-256 over canonical JSON
(sorted keys, no whitespace), so they are stable across processes,
platforms, and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any

import repro

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.sampling import SamplingConfig
    from repro.harness.systems import SystemConfig
    from repro.pipeline.config import PipelineConfig
    from repro.workloads.spec import WorkloadSpec

__all__ = ["ManifestBuilder", "RunManifest", "build_manifest", "stable_hash"]

#: Bump when the hashed payload layout changes.
_MANIFEST_VERSION = 1


def _canonical(payload: Any) -> Any:
    """Reduce dataclasses to plain JSON-able structures."""
    if is_dataclass(payload) and not isinstance(payload, type):
        return asdict(payload)
    return payload


def stable_hash(payload: Any) -> str:
    """Short process-stable content hash (first 16 hex of SHA-256)."""
    canonical = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class RunManifest:
    """Provenance attached to every :class:`~repro.harness.runner.RunResult`."""

    config_hash: str
    workload_hash: str
    workload: str
    system: str
    branches: int
    repro_version: str
    manifest_version: int = _MANIFEST_VERSION
    scale: str | None = None
    python: str = ""
    platform: str = ""
    env: dict[str, str] = field(default_factory=dict)
    #: Sampled-simulation parameters, present only when sampling is
    #: enabled — exact runs keep their historical manifest shape (and
    #: therefore their result-cache keys).
    sampling: dict[str, Any] | None = None
    #: Evaluation engine, present only for non-default engines (the
    #: batch sweep kernel records ``"batch"``) — exact scalar runs keep
    #: their historical manifest shape and result-cache keys.
    engine: str | None = None
    #: Filled in by the runner after the simulation finishes.
    wall_s: float | None = None

    def as_dict(self) -> dict[str, Any]:
        """A fresh JSON-able dict; the mutable fields are copied.

        ``env`` and ``sampling`` hold only scalar values, so one shallow
        copy each gives the same independence as a deep copy.
        """
        payload = {name: getattr(self, name) for name in _FIELD_NAMES}
        payload["env"] = dict(self.env)
        if self.sampling is None:
            del payload["sampling"]
        else:
            payload["sampling"] = dict(self.sampling)
        if self.engine is None:
            del payload["engine"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


_FIELD_NAMES = tuple(f.name for f in fields(RunManifest))


def _captured_env() -> dict[str, str]:
    return dict(
        sorted(item for item in os.environ.items() if item[0].startswith("REPRO_"))
    )


class ManifestBuilder:
    """Builds many manifests, hashing each distinct input once.

    A sweep plan repeats the same few configurations across hundreds of
    workloads and the same workload across every system, so hashing
    each ``(system, pipeline, sampling, engine)`` and each
    ``(spec, n_branches)`` once per builder, and reading the
    ``REPRO_*`` environment once, removes nearly all of the work of a
    per-job :func:`build_manifest`.

    The memo is keyed by object identity (and holds the objects, so an
    id is never reused while the builder lives): equal-comparing values
    can still serialise differently (``0`` vs ``0.0``), and identity
    keeps every manifest exactly what :func:`build_manifest` returns.
    A builder's scope is one plan — create a fresh one per sweep, so a
    changed environment or a new process state is always seen.
    """

    def __init__(self) -> None:
        self.env = _captured_env()
        self.python = platform.python_version()
        self.platform = f"{sys.platform}-{platform.machine()}"
        self._configs: dict[tuple[Any, ...], tuple[Any, str, dict[str, Any] | None]] = {}
        self._workloads: dict[tuple[int, int], tuple[Any, str]] = {}

    def _config(
        self,
        system: "SystemConfig",
        pipeline: "PipelineConfig",
        sampling: "SamplingConfig | None",
        engine: str | None,
    ) -> tuple[str, dict[str, Any] | None]:
        key = (id(system), id(pipeline), id(sampling), engine)
        entry = self._configs.get(key)
        if entry is None:
            config_payload: dict[str, Any] = {
                "system": asdict(system),
                "pipeline": asdict(pipeline),
            }
            sampling_payload: dict[str, Any] | None = None
            if sampling is not None and sampling.enabled:
                sampling_payload = sampling.to_payload()
                config_payload["sampling"] = sampling_payload
            if engine is not None:
                config_payload["engine"] = engine
            pins = (system, pipeline, sampling)
            entry = (pins, stable_hash(config_payload), sampling_payload)
            self._configs[key] = entry
        return entry[1], entry[2]

    def _workload(self, spec: "WorkloadSpec", n_branches: int) -> str:
        key = (id(spec), n_branches)
        entry = self._workloads.get(key)
        if entry is None:
            # Specs may carry a content-addressed identity hook
            # (imported traces hash their normalised payload, not their
            # local path); synthetic specs keep the historical asdict()
            # payload and hashes.
            payload_fn = getattr(spec, "workload_hash_payload", None)
            spec_payload: Any = payload_fn() if callable(payload_fn) else asdict(spec)
            entry = (spec, stable_hash({"spec": spec_payload, "branches": n_branches}))
            self._workloads[key] = entry
        return entry[1]

    def build(
        self,
        spec: "WorkloadSpec",
        system: "SystemConfig",
        n_branches: int,
        pipeline: "PipelineConfig",
        scale: str | None = None,
        sampling: "SamplingConfig | None" = None,
        engine: str | None = None,
    ) -> RunManifest:
        """The manifest :func:`build_manifest` returns for these inputs.

        Its ``env`` and ``sampling`` dicts are shared with this builder;
        :meth:`RunManifest.as_dict` gives a caller its own copies.
        """
        config_hash, sampling_payload = self._config(system, pipeline, sampling, engine)
        return RunManifest(
            config_hash=config_hash,
            workload_hash=self._workload(spec, n_branches),
            workload=spec.name,
            system=system.name,
            branches=n_branches,
            repro_version=repro.__version__,
            scale=scale,
            python=self.python,
            platform=self.platform,
            env=self.env,
            sampling=sampling_payload,
            engine=engine,
        )


def build_manifest(
    spec: "WorkloadSpec",
    system: "SystemConfig",
    n_branches: int,
    pipeline: "PipelineConfig",
    scale: str | None = None,
    sampling: "SamplingConfig | None" = None,
    engine: str | None = None,
) -> RunManifest:
    """Assemble the provenance record for one (workload, system) run.

    An *enabled* sampling configuration is folded into ``config_hash``
    (a sampled estimate must never alias an exact result, or a cache
    hit could silently swap one for the other) and recorded verbatim in
    the ``sampling`` field.  Sampling off is indistinguishable from the
    pre-sampling manifest — same payload, same hash.  A non-default
    ``engine`` (the batch kernel's functional results carry no timing)
    is folded in the same way, for the same reason: a batch result must
    never be served from the cache for an exact-timing request.
    """
    return ManifestBuilder().build(
        spec, system, n_branches, pipeline, scale=scale, sampling=sampling, engine=engine
    )
