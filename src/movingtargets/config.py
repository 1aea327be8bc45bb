"""Run configuration: YAML file plus command-line overrides.

Paths in the file are resolved relative to the file's directory. API keys
are never part of the file; they come from the environment
(``MOVINGTARGETS_EXTRACTOR_API_KEY`` / ``MOVINGTARGETS_ENCODER_API_KEY``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

# The values that configure extraction and scoring. They live here, beside
# the settings, so that loading a config imports neither the extractor nor
# the scorer and numpy; ``extract`` and ``score`` import them from this module.
METHOD_LLM = "llm"
METHOD_BASELINE = "baseline"
METHOD_SEMANTIC = "semantic"
METHOD_DISCRETE = "discrete"
DIRECTION_RETENTION = "retention"
DIRECTION_MISSING = "missing"
EMPTY_CURRENT_PENALIZE = "penalize"
EMPTY_CURRENT_ZERO = "zero"
DEFAULT_TAU = 0.65

EXTRACTOR_API_KEY_ENV = "MOVINGTARGETS_EXTRACTOR_API_KEY"
ENCODER_API_KEY_ENV = "MOVINGTARGETS_ENCODER_API_KEY"


def default_direction(method: str) -> str:
    """The direction a method reads in as written: semantic retention, discrete missing."""

    return DIRECTION_RETENTION if method == METHOD_SEMANTIC else DIRECTION_MISSING


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class ExtractorSettings:
    model_id: str = "gemini-2.5-pro"
    endpoint: str | None = None
    recordings_dir: Path | None = None
    parallelism: int = 4
    rate_limit: float | None = None


@dataclass(frozen=True)
class EncoderSettings:
    model_id: str = "text-embedding-3-large"
    endpoint: str | None = None
    cache_dir: Path | None = None
    batch_size: int = 128


@dataclass(frozen=True)
class RunConfig:
    transcripts_dir: Path
    returns_file: Path
    factors_file: Path
    out_dir: Path = Path("out")
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


def _path(base: Path, value: object, key: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty path string")
    path = Path(value)
    return path if path.is_absolute() else base / path


# ``_load`` prefixes the key to a scalar parser's error. ``bool`` is an
# ``int`` in Python, so the parsers reject ``true``/``false`` where a number
# or a name is meant.


def _flag(value: Any) -> bool:
    # YAML reads ``"false"`` as a string, which ``bool`` would take as true.
    if not isinstance(value, int) or value not in (0, 1):
        raise ConfigError(f"must be true, false, 0 or 1, got {value!r}")
    return bool(value)


def _real(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"must be a number, got {value!r}")
    return float(value)


def _count(value: Any) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"must be a whole number, got {value!r}")
    return int(value)


def _name(value: Any) -> str:
    # A number is taken as written (``model_id: 7`` is the model "7").
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"must be a string, got {value!r}")
    return str(value)


# How each field is read; a field named nowhere is taken as written. A
# ``Path`` field, and its default, is resolved against the config file's
# directory.
_PARSE: dict[str, Callable[[Any], Any]] = {
    "transcripts_dir": Path,
    "returns_file": Path,
    "factors_file": Path,
    "out_dir": Path,
    "tau": _real,
    "empty_current": _name,
    "offline": _flag,
    "model_id": _name,
    "endpoint": lambda value: None if value is None else _name(value),
    "recordings_dir": Path,
    "parallelism": _count,
    "rate_limit": lambda value: None if value is None else _real(value),
    "cache_dir": Path,
    "batch_size": _count,
}


def _load(cls: type, doc: dict, base: Path, section: str | None = None) -> Any:
    """Build ``cls`` from ``doc``: its fields are the allowed keys, the fields
    without a default the required ones, and the dataclass holds the defaults.

    A field whose default is a dataclass is a nested section; sections are
    checked before the values of the fields around them are parsed.
    """

    fields = sorted(dataclasses.fields(cls), key=lambda f: not dataclasses.is_dataclass(f.default))
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} keys: {', '.join(sorted(unknown))}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in doc:
            raise ConfigError(f"missing required config key {f.name!r}")

    values: dict[str, Any] = {}
    for f in fields:
        parse = _PARSE.get(f.name, lambda value: value)
        key = f"{section}.{f.name}" if section else f.name
        if dataclasses.is_dataclass(f.default):
            nested = doc.get(f.name) or {}
            if not isinstance(nested, dict):
                raise ConfigError(f"{f.name} section must be a mapping")
            values[f.name] = _load(type(f.default), nested, base, f.name)
        elif parse is Path and (f.name in doc or f.default is not None):
            values[f.name] = _path(base, doc.get(f.name, str(f.default)), key)
        elif f.name in doc:
            try:
                values[f.name] = parse(doc[f.name])
            except ValueError as exc:  # a ConfigError, or a string that is no number
                raise ConfigError(f"{key}: {exc}") from None
    return cls(**values)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML run configuration."""

    # Imported here, so that importing this module, as ``transport`` does for
    # ``ConfigError``, needs no third-party package.
    import yaml

    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    try:
        return _load(RunConfig, doc, path.resolve().parent)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
