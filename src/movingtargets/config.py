"""Run configuration: YAML file plus command-line overrides.

Paths in the file are resolved relative to the file's directory. API keys
are never part of the file; they come from the environment
(``MOVINGTARGETS_EXTRACTOR_API_KEY`` / ``MOVINGTARGETS_ENCODER_API_KEY``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .score import DIRECTION_MISSING, DIRECTION_RETENTION, DEFAULT_TAU
from .score import EMPTY_CURRENT_PENALIZE, EMPTY_CURRENT_ZERO

EXTRACTOR_API_KEY_ENV = "MOVINGTARGETS_EXTRACTOR_API_KEY"
ENCODER_API_KEY_ENV = "MOVINGTARGETS_ENCODER_API_KEY"

DEFAULT_EXTRACTOR_MODEL = "gemini-2.5-pro"
DEFAULT_ENCODER_MODEL = "text-embedding-3-large"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class ExtractorSettings:
    model_id: str = DEFAULT_EXTRACTOR_MODEL
    endpoint: str | None = None
    recordings_dir: Path | None = None
    parallelism: int = 4
    rate_limit: float | None = None


@dataclass(frozen=True)
class EncoderSettings:
    model_id: str = DEFAULT_ENCODER_MODEL
    endpoint: str | None = None
    cache_dir: Path | None = None
    batch_size: int = 128


@dataclass(frozen=True)
class RunConfig:
    transcripts_dir: Path
    returns_file: Path
    factors_file: Path
    out_dir: Path
    tau: float = DEFAULT_TAU
    direction: str | None = None
    empty_current: str = EMPTY_CURRENT_PENALIZE
    offline: bool = False
    extractor: ExtractorSettings = ExtractorSettings()
    encoder: EncoderSettings = EncoderSettings()

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau!r}")
        if self.direction not in (None, DIRECTION_RETENTION, DIRECTION_MISSING):
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.empty_current not in (EMPTY_CURRENT_PENALIZE, EMPTY_CURRENT_ZERO):
            raise ConfigError(f"unknown empty_current rule {self.empty_current!r}")
        if self.extractor.parallelism < 1:
            raise ConfigError("extractor parallelism must be at least 1")
        if self.extractor.rate_limit is not None and self.extractor.rate_limit <= 0:
            raise ConfigError("extractor rate_limit must be positive")
        if self.encoder.batch_size < 1:
            raise ConfigError("encoder batch_size must be at least 1")

    def with_overrides(
        self,
        *,
        out_dir: Path | None = None,
        tau: float | None = None,
        direction: str | None = None,
        offline: bool | None = None,
    ) -> "RunConfig":
        overrides = {"out_dir": out_dir, "tau": tau, "direction": direction, "offline": offline}
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def _expect_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _path(base: Path, value: object, key: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty path string")
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML run configuration."""

    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping: {path}")

    base = path.resolve().parent
    _expect_keys(
        doc,
        {
            "transcripts_dir",
            "returns_file",
            "factors_file",
            "out_dir",
            "tau",
            "direction",
            "empty_current",
            "offline",
            "extractor",
            "encoder",
        },
        "config",
    )
    for required in ("transcripts_dir", "returns_file", "factors_file"):
        if required not in doc:
            raise ConfigError(f"missing required config key {required!r}")

    extractor_doc = doc.get("extractor") or {}
    if not isinstance(extractor_doc, dict):
        raise ConfigError("extractor section must be a mapping")
    _expect_keys(
        extractor_doc,
        {"model_id", "endpoint", "recordings_dir", "parallelism", "rate_limit"},
        "extractor",
    )
    encoder_doc = doc.get("encoder") or {}
    if not isinstance(encoder_doc, dict):
        raise ConfigError("encoder section must be a mapping")
    _expect_keys(encoder_doc, {"model_id", "endpoint", "cache_dir", "batch_size"}, "encoder")

    try:
        extractor = ExtractorSettings(
            model_id=str(extractor_doc.get("model_id", DEFAULT_EXTRACTOR_MODEL)),
            endpoint=extractor_doc.get("endpoint"),
            recordings_dir=(
                _path(base, extractor_doc["recordings_dir"], "extractor.recordings_dir")
                if "recordings_dir" in extractor_doc
                else None
            ),
            parallelism=int(extractor_doc.get("parallelism", 4)),
            rate_limit=(
                float(extractor_doc["rate_limit"])
                if extractor_doc.get("rate_limit") is not None
                else None
            ),
        )
        encoder = EncoderSettings(
            model_id=str(encoder_doc.get("model_id", DEFAULT_ENCODER_MODEL)),
            endpoint=encoder_doc.get("endpoint"),
            cache_dir=(
                _path(base, encoder_doc["cache_dir"], "encoder.cache_dir")
                if "cache_dir" in encoder_doc
                else None
            ),
            batch_size=int(encoder_doc.get("batch_size", 128)),
        )
        return RunConfig(
            transcripts_dir=_path(base, doc["transcripts_dir"], "transcripts_dir"),
            returns_file=_path(base, doc["returns_file"], "returns_file"),
            factors_file=_path(base, doc["factors_file"], "factors_file"),
            out_dir=_path(base, doc.get("out_dir", "out"), "out_dir"),
            tau=float(doc.get("tau", DEFAULT_TAU)),
            direction=doc.get("direction"),
            empty_current=str(doc.get("empty_current", EMPTY_CURRENT_PENALIZE)),
            offline=bool(doc.get("offline", False)),
            extractor=extractor,
            encoder=encoder,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config value: {exc}") from exc
