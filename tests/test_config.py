from __future__ import annotations

from pathlib import Path

import pytest

from movingtargets.config import (
    ConfigError,
    EncoderSettings,
    ExtractorSettings,
    RunConfig,
    load_config,
)


def write_config(tmp_path, body):
    path = tmp_path / "config.yaml"
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = "transcripts_dir: transcripts\nreturns_file: r.csv\nfactors_file: f.csv\n"


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        assert config.tau == 0.65
        assert config.direction is None
        assert config.offline is False
        assert config.extractor.model_id == "gemini-2.5-pro"
        assert config.encoder.model_id == "text-embedding-3-large"
        assert config.encoder.batch_size == 128

    def test_minimal_file_is_the_dataclass_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        assert config == RunConfig(
            transcripts_dir=tmp_path / "transcripts",
            returns_file=tmp_path / "r.csv",
            factors_file=tmp_path / "f.csv",
            out_dir=tmp_path / "out",
        )

    def test_every_key_is_parsed(self, tmp_path):
        body = MINIMAL + (
            "out_dir: /abs/out\ntau: '0.5'\ndirection: missing\nempty_current: zero\n"
            "offline: 1\nextractor:\n  model_id: 7\n  endpoint: http://x\n"
            "  recordings_dir: rec\n  parallelism: '2'\n  rate_limit: '3'\n"
            "encoder:\n  model_id: enc\n  endpoint: http://y\n  cache_dir: cache\n"
            "  batch_size: '16'\n"
        )
        config = load_config(write_config(tmp_path, body))
        assert config == RunConfig(
            transcripts_dir=tmp_path / "transcripts",
            returns_file=tmp_path / "r.csv",
            factors_file=tmp_path / "f.csv",
            out_dir=Path("/abs/out"),
            tau=0.5,
            direction="missing",
            empty_current="zero",
            offline=True,
            extractor=ExtractorSettings("7", "http://x", tmp_path / "rec", 2, 3.0),
            encoder=EncoderSettings("enc", "http://y", tmp_path / "cache", 16),
        )
        assert config.offline is True

    def test_paths_resolve_relative_to_config_file(self, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        config = load_config(write_config(nested, MINIMAL))
        assert config.transcripts_dir == nested / "transcripts"
        assert config.out_dir == nested / "out"

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="returns_file"):
            load_config(write_config(tmp_path, "transcripts_dir: t\nfactors_file: f.csv\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(write_config(tmp_path, MINIMAL + "mystery: 1\n"))

    def test_unknown_nested_key_rejected(self, tmp_path):
        body = MINIMAL + "encoder:\n  cache_dir: cache\n  turbo: true\n"
        with pytest.raises(ConfigError, match="turbo"):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("offline: 'false'\n", "offline"),
            ("offline: 2\n", "offline"),
            ("offline: 1.0\n", "offline"),
            ("offline:\n", "offline"),
            ("extractor:\n  model_id: null\n", "model_id"),
            ("encoder:\n  model_id:\n", "model_id"),
        ],
        ids=["quoted-false", "two", "float-one", "null-offline", "null-extractor", "null-encoder"],
    )
    def test_loose_scalars_rejected(self, tmp_path, body, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, MINIMAL + body))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("tau: true\n", "tau: must be a number"),
            ("extractor:\n  parallelism: true\n", "extractor.parallelism: must be a whole"),
            ("extractor:\n  rate_limit: false\n", "extractor.rate_limit: must be a number"),
            ("encoder:\n  batch_size: 2.7\n", "encoder.batch_size: must be a whole"),
            ("encoder:\n  batch_size: '2.7'\n", "encoder.batch_size: invalid literal"),
            ("extractor:\n  model_id: [a, b]\n", "extractor.model_id: must be a string"),
            ("encoder:\n  model_id: {a: 1}\n", "encoder.model_id: must be a string"),
            ("empty_current: [zero]\n", "empty_current: must be a string"),
            ("extractor:\n  endpoint: [a, b]\n", "extractor.endpoint: must be a string"),
        ],
        ids=[
            "bool-tau",
            "bool-parallelism",
            "bool-rate-limit",
            "fractional-batch-size",
            "quoted-fractional-batch-size",
            "list-model-id",
            "mapping-model-id",
            "list-empty-current",
            "list-endpoint",
        ],
    )
    def test_loose_numbers_and_names_rejected(self, tmp_path, body, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, MINIMAL + body))

    def test_integral_float_counts_load_as_ints(self, tmp_path):
        body = MINIMAL + "extractor:\n  parallelism: 2.0\nencoder:\n  batch_size: 16.0\n"
        config = load_config(write_config(tmp_path, body))
        assert (config.extractor.parallelism, config.encoder.batch_size) == (2, 16)
        assert isinstance(config.encoder.batch_size, int)

    def test_tau_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="tau"):
            load_config(write_config(tmp_path, MINIMAL + "tau: 0.0\n"))
        with pytest.raises(ConfigError, match="tau"):
            load_config(write_config(tmp_path, MINIMAL + "tau: 1.5\n"))

    def test_direction_values(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL + "direction: missing\n"))
        assert config.direction == "missing"
        with pytest.raises(ConfigError, match="direction"):
            load_config(write_config(tmp_path, MINIMAL + "direction: sideways\n"))

    def test_parallelism_and_rate_limit_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="parallelism"):
            load_config(write_config(tmp_path, MINIMAL + "extractor:\n  parallelism: 0\n"))
        with pytest.raises(ConfigError, match="rate_limit"):
            load_config(write_config(tmp_path, MINIMAL + "extractor:\n  rate_limit: -1\n"))

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"\xe5" + MINIMAL.encode("utf-8"))
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)

    def test_unparseable_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(write_config(tmp_path, "transcripts_dir: [unclosed\n"))


class TestOverrides:
    def test_overrides_replace_fields(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        updated = config.with_overrides(tau=0.8, direction="missing", offline=True)
        assert updated.tau == 0.8
        assert updated.direction == "missing"
        assert updated.offline is True
        # original untouched
        assert config.tau == 0.65

    def test_override_validation_still_applies(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match="tau"):
            config.with_overrides(tau=2.0)
