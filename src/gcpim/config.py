"""Versioned run configuration: one JSON file drives every tool entry point.

Sections map one-to-one onto the dataclasses they configure.  Every
section and every key is optional (defaults apply), but unknown keys are
rejected so a typo cannot silently fall back to a default.  The few keys
in ``gcpim.charge.RETIRED_KEYS`` that older version-1 files carry are
read and dropped.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace

from gcpim.charge import ConfigError, ModelConfig, known_keys
from gcpim.compiler.program import CompilerConfig
from gcpim.compiler.simulate import MODES
from gcpim.montecarlo import VariationConfig
from gcpim.subarray import TimingEnergyConfig

__all__ = ["CONFIG_VERSION", "RunConfig", "RunSection", "load_config"]

CONFIG_VERSION = 1


@dataclass(frozen=True)
class RunSection:
    """Knobs that belong to a run rather than to the device model."""

    trials: int = 1000
    mode: str = "nominal"
    success_floor: float = 0.99

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown run mode {self.mode!r}")
        if not 0.0 < self.success_floor <= 1.0:
            raise ConfigError("success_floor must be in (0, 1]")


_SECTIONS = {
    "model": ModelConfig,
    "timing_energy": TimingEnergyConfig,
    "variation": VariationConfig,
    "compiler": CompilerConfig,
    "run": RunSection,
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    timing_energy: TimingEnergyConfig = field(default_factory=TimingEnergyConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    compiler: CompilerConfig = field(default_factory=CompilerConfig)
    run: RunSection = field(default_factory=RunSection)

    def to_json_dict(self) -> dict:
        out: dict = {"version": CONFIG_VERSION}
        for section, _ in _SECTIONS.items():
            out[section] = dataclasses.asdict(getattr(self, section))
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def from_json_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        if "version" not in data:
            raise ConfigError("config is missing the version key")
        if data["version"] != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config version {data['version']!r} "
                f"(this tool reads version {CONFIG_VERSION})"
            )
        unknown = set(data) - set(_SECTIONS) - {"version"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {}
        for section, cls in _SECTIONS.items():
            if section not in data:
                continue
            body = data[section]
            if not isinstance(body, dict):
                raise ConfigError(f"section {section!r} must be a JSON object")
            kwargs[section] = cls(**known_keys(section, cls, body))
        return RunConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return RunConfig.from_json_dict(data)


def load_config(path=None, seed: int | None = None) -> RunConfig:
    """Config file (or defaults) with an optional seed override."""
    cfg = RunConfig.from_json(path) if path is not None else RunConfig()
    if seed is not None:
        cfg = replace(cfg, variation=replace(cfg.variation, seed=seed))
    return cfg
