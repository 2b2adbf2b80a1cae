"""Declarative experiment configs: datasets x pipelines x backends x workers.

An :class:`ExperimentConfig` is to the experiment engine what
:class:`~repro.core.config.BlastConfig` is to one pipeline: a frozen,
eagerly validated dataclass.  Configs load from TOML or JSON files
(:func:`load_config`); every component name is resolved against the live
registries at load time, so a config that references a renamed blocker,
weighting, pruning, backend or reporter fails with a full listing before
any work runs — drifted configs die in tier-1, not mid-benchmark.

Unknown keys are rejected everywhere (a typoed ``tolerence`` must not
silently disable a gate, and a key an older config format accepted
fails the same way instead of being ignored).
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.config import SERIAL_BACKENDS, BlastConfig
from repro.experiments.comparator import Tolerance

__all__ = [
    "CompareSpec",
    "DatasetSpec",
    "ExperimentConfig",
    "MonitorSpec",
    "PipelineSpec",
    "load_config",
]


def _require_keys(mapping: Mapping[str, Any], allowed: Sequence[str],
                  where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class DatasetSpec:
    """One workload of the grid: a built-in dataset at a chosen size.

    ``profiles`` translates to a generator scale through the recorded
    base sizes (see ``runutils.BASE_PROFILES``); ``scale`` sets it
    directly.  Setting both is rejected — two sources of truth for one
    size invite silent drift.
    """

    name: str
    kind: str = "clean"
    scale: float | None = None
    profiles: int | None = None
    label: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        from repro.datasets.benchmarks import CLEAN_CLEAN_DATASETS
        from repro.datasets.dirty import DIRTY_DATASETS

        if self.kind not in ("clean", "dirty"):
            raise ValueError(
                f"dataset {self.name!r}: kind must be 'clean' or 'dirty', "
                f"got {self.kind!r}"
            )
        known = CLEAN_CLEAN_DATASETS if self.kind == "clean" else DIRTY_DATASETS
        if self.name not in known:
            raise ValueError(
                f"unknown {self.kind} dataset {self.name!r}; "
                f"choose from {', '.join(sorted(known))}"
            )
        if self.scale is not None and self.profiles is not None:
            raise ValueError(
                f"dataset {self.name!r}: set scale or profiles, not both"
            )
        if self.scale is not None and not self.scale > 0:
            raise ValueError(
                f"dataset {self.name!r}: scale must be positive, got {self.scale}"
            )
        if self.profiles is not None and self.profiles < 1:
            raise ValueError(
                f"dataset {self.name!r}: profiles must be positive, "
                f"got {self.profiles}"
            )

    @property
    def display_label(self) -> str:
        return self.label or self.name

    def effective_scale(self, smoke_profiles: int | None = None) -> float:
        """The generator scale, after an optional smoke-size cap."""
        from repro.experiments.runutils import scale_for_profiles

        if self.profiles is not None:
            scale = scale_for_profiles(self.name, self.profiles)
        else:
            scale = self.scale if self.scale is not None else 1.0
        if smoke_profiles is not None:
            scale = min(scale, scale_for_profiles(self.name, smoke_profiles))
        return scale

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "DatasetSpec":
        _require_keys(data, [f.name for f in fields(cls)],
                      f"dataset {data.get('name', '?')!r}")
        return cls(**data)


@dataclass(frozen=True)
class PipelineSpec:
    """One pipeline of the grid, named by registry components.

    ``config`` holds :class:`BlastConfig` field overrides (validated via
    :meth:`BlastConfig.from_mapping`, so a typoed knob fails at load).
    """

    label: str
    blocker: str = "token"
    weighting: str = "chi_h"
    pruning: str = "blast"
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.core.registry import BLOCKERS, PRUNERS, WEIGHTINGS

        if not self.label:
            raise ValueError("pipeline label must be non-empty")
        for registry, value in (
            (BLOCKERS, self.blocker),
            (WEIGHTINGS, self.weighting),
            (PRUNERS, self.pruning),
        ):
            if value not in registry:
                raise ValueError(
                    f"pipeline {self.label!r}: unknown {registry.kind} "
                    f"{value!r}; registered: {', '.join(registry.names())}"
                )
        # Reject unknown/forbidden BlastConfig overrides eagerly; the
        # execution knobs come from the grid, not per-pipeline overrides.
        for knob in ("backend", "workers", "weighting"):
            if knob in self.config:
                raise ValueError(
                    f"pipeline {self.label!r}: set {knob!r} through the "
                    "grid (backends/workers/weighting fields), not the "
                    "config overrides"
                )
        BlastConfig.from_mapping({"weighting": self.weighting, **self.config})

    def blast_config(self, backend: str, workers: int | None,
                     seed: int) -> BlastConfig:
        """The per-cell :class:`BlastConfig` for one grid point."""
        overrides: dict[str, Any] = dict(self.config)
        overrides.setdefault("seed", seed)
        if workers is not None and backend not in SERIAL_BACKENDS:
            overrides["workers"] = workers
        return BlastConfig.from_mapping(
            {"weighting": self.weighting, "backend": backend, **overrides}
        )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        _require_keys(data, [f.name for f in fields(cls)],
                      f"pipeline {data.get('label', '?')!r}")
        return cls(**data)


@dataclass(frozen=True)
class MonitorSpec:
    """Per-run process monitoring options.

    ``subprocess=True`` runs every cell in a fresh interpreter so peak
    RSS is the cell's own high-water mark (``ru_maxrss`` is a lifetime
    maximum); in-process monitoring (the default) reports wall and CPU
    time exactly but an RSS ceiling shared with earlier cells.
    """

    subprocess: bool = False

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "MonitorSpec":
        _require_keys(data, [f.name for f in fields(cls)], "monitor")
        return cls(**data)


@dataclass(frozen=True)
class CompareSpec:
    """The comparator section: which engine report to diff against, and how.

    Every cell of either report is gated (see
    :func:`repro.experiments.engine.cell_metric_specs`): PC/PQ/F1
    higher-is-better, comparisons lower-is-better, and retained blocks,
    profiles, per-stage counts and the pair digest must match.
    """

    baseline: str
    tolerance: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if not self.baseline:
            raise ValueError(
                "compare section gates nothing: baseline must be a file path"
            )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "CompareSpec":
        _require_keys(data, ["baseline", "tolerance"], "compare")
        tolerance = data.get("tolerance", {})
        _require_keys(tolerance, ["relative", "absolute"], "compare.tolerance")
        return cls(baseline=data["baseline"], tolerance=Tolerance(**tolerance))


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative experiment: the full grid plus its gates."""

    name: str
    datasets: tuple[DatasetSpec, ...]
    pipelines: tuple[PipelineSpec, ...]
    description: str = ""
    seed: int = 42
    repeats: int = 1
    backends: tuple[str, ...] = ("vectorized",)
    workers: tuple[int | None, ...] = (None,)
    monitor: MonitorSpec = field(default_factory=MonitorSpec)
    compare: CompareSpec | None = None
    reporters: tuple[str, ...] = ("json", "markdown")

    def __post_init__(self) -> None:
        from repro.core.registry import BACKENDS
        from repro.experiments.reporters import REPORTERS

        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if not self.datasets:
            raise ValueError(f"experiment {self.name!r}: no datasets")
        if not self.pipelines:
            raise ValueError(f"experiment {self.name!r}: no pipelines")
        if not self.backends:
            raise ValueError(f"experiment {self.name!r}: no backends")
        if self.repeats < 1:
            raise ValueError(
                f"experiment {self.name!r}: repeats must be positive, "
                f"got {self.repeats}"
            )
        for backend in self.backends:
            if backend not in BACKENDS:
                raise ValueError(
                    f"experiment {self.name!r}: unknown backend {backend!r}; "
                    f"registered: {', '.join(BACKENDS.names())}"
                )
        for count in self.workers:
            if count is not None and count < 1:
                raise ValueError(
                    f"experiment {self.name!r}: worker counts must be "
                    f"positive, got {count}"
                )
        for reporter in self.reporters:
            if reporter not in REPORTERS:
                raise ValueError(
                    f"experiment {self.name!r}: unknown reporter "
                    f"{reporter!r}; registered: {', '.join(REPORTERS.names())}"
                )
        labels = [d.display_label for d in self.datasets]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"experiment {self.name!r}: duplicate dataset labels"
            )
        pipeline_labels = [p.label for p in self.pipelines]
        if len(set(pipeline_labels)) != len(pipeline_labels):
            raise ValueError(
                f"experiment {self.name!r}: duplicate pipeline labels"
            )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        _require_keys(data, [f.name for f in fields(cls)],
                      f"experiment {data.get('name', '?')!r}")
        workers = tuple(
            None if count == 0 else count for count in data.get("workers", (None,))
        )
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            seed=data.get("seed", 42),
            repeats=data.get("repeats", 1),
            datasets=tuple(
                DatasetSpec.from_mapping(entry)
                for entry in data.get("datasets", ())
            ),
            pipelines=tuple(
                PipelineSpec.from_mapping(entry)
                for entry in data.get("pipelines", ())
            ),
            backends=tuple(data.get("backends", ("vectorized",))),
            workers=workers,
            monitor=MonitorSpec.from_mapping(data.get("monitor", {})),
            compare=(
                CompareSpec.from_mapping(data["compare"])
                if "compare" in data
                else None
            ),
            reporters=tuple(data.get("reporters", ("json", "markdown"))),
        )


def _load_toml(path: Path) -> dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python 3.10: tomllib landed in 3.11
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise ValueError(
                f"cannot read {path}: TOML support needs Python >= 3.11 "
                "(tomllib) or the tomli package; use a .json config instead"
            ) from None
    with path.open("rb") as handle:
        return tomllib.load(handle)


def load_config(path: Path | str) -> ExperimentConfig:
    """Load and validate an experiment config from a TOML or JSON file."""
    path = Path(path)
    if path.suffix == ".toml":
        data = _load_toml(path)
    elif path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        raise ValueError(
            f"unsupported config suffix {path.suffix!r} for {path}; "
            "use .toml or .json"
        )
    try:
        return ExperimentConfig.from_mapping(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
