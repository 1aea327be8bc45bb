from __future__ import annotations

import math

import numpy as np
import pytest

from movingtargets.embed import (
    DimensionMismatchError,
    EmbeddingCache,
    EmbeddingError,
    EmbeddingVector,
    EncoderTransportError,
    HashingEncoderClient,
    HttpEncoderClient,
    MissingEmbeddingError,
    embed_labels,
)


def vec(*values, model_id="m"):
    return EmbeddingVector(tuple(float(v) for v in values), model_id)


class TestEmbeddingVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmbeddingVector((), "m")

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            EmbeddingVector((0.0, 0.0), "m")


class TestEmbeddingCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        values = (0.1 + 0.2, 1.0 / 3.0, -7.25e-12, math.pi)
        cache.put(EmbeddingVector(values, "enc"), "gross margin")
        restored = cache.get("enc", "gross margin")
        assert restored.values == values
        assert restored.model_id == "enc"

    def test_miss_returns_none(self, tmp_path):
        assert EmbeddingCache(tmp_path).get("enc", "nothing") is None

    def test_key_separates_models_and_labels(self):
        assert EmbeddingCache.key("a", "x") != EmbeddingCache.key("b", "x")
        assert EmbeddingCache.key("a", "x") != EmbeddingCache.key("a", "y")

    def test_corrupt_entry_detected(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        cache.put(EmbeddingVector((1.0, 2.0), "enc"), "label")
        path = tmp_path / f"{EmbeddingCache.key('enc', 'label')}.txt"
        path.write_text("wrong-model\nlabel\n1.0 2.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="corrupt"):
            cache.get("enc", "label")

    def test_put_ignores_the_shared_temp_name(self, tmp_path):
        # Another process's leftover (or in-flight) "<key>.tmp" must not
        # block a write: every process uses its own temp name.
        cache = EmbeddingCache(tmp_path)
        (tmp_path / f"{EmbeddingCache.key('enc', 'label')}.tmp").mkdir()
        cache.put(EmbeddingVector((1.0, 2.0), "enc"), "label")
        assert cache.get("enc", "label").values == (1.0, 2.0)


class CountingClient:
    def __init__(self, dim=4, model_id="enc"):
        self.model_id = model_id
        self.dim = dim
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        out = []
        for text in texts:
            raw = np.random.default_rng(abs(hash(text)) % 2**32).standard_normal(self.dim)
            out.append(EmbeddingVector(tuple(float(v) for v in raw), self.model_id))
        return out


class TestEmbedLabels:
    def test_second_call_served_entirely_from_cache(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        client = CountingClient()
        first = embed_labels(["market share"], client, cache)
        second = embed_labels(["market share"], client, cache)
        assert len(client.batches) == 1
        assert first == second

    def test_only_missing_labels_sent_to_client(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        client = CountingClient()
        embed_labels(["alpha"], client, cache)
        embed_labels(["alpha", "beta"], client, cache)
        assert client.batches == [["alpha"], ["beta"]]

    def test_order_preserved_with_repeats(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        client = CountingClient()
        out = embed_labels(["b", "a", "b"], client, cache)
        assert out[0] == out[2]
        assert out[0] != out[1]

    def test_batching_respects_batch_size(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        client = CountingClient()
        embed_labels(["l1", "l2", "l3", "l4", "l5"], client, cache, batch_size=2)
        assert [len(b) for b in client.batches] == [2, 2, 1]

    def test_dimension_mismatch_against_cached_vectors(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        cache.put(EmbeddingVector((1.0, 2.0, 3.0), "enc"), "cached")
        client = CountingClient(dim=4)
        with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
            embed_labels(["cached", "fresh"], client, cache)

    def test_offline_miss_raises(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        with pytest.raises(MissingEmbeddingError):
            embed_labels(["nothing"], None, cache, model_id="enc")

    def test_offline_hit_works_without_client(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        cache.put(EmbeddingVector((1.0, 2.0), "enc"), "cached")
        (out,) = embed_labels(["cached"], None, cache, model_id="enc")
        assert out.values == (1.0, 2.0)

    def test_empty_label_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            embed_labels([""], CountingClient(), EmbeddingCache(tmp_path))


class TestHashingEncoder:
    def test_deterministic_unit_vectors(self):
        encoder = HashingEncoderClient(dim=32)
        (a1,) = encoder.embed(["gross margin"])
        (a2,) = encoder.embed(["gross margin"])
        (b,) = encoder.embed(["revenue growth"])
        assert a1 == a2
        assert a1 != b
        assert np.linalg.norm(a1.values) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_texts_near_orthogonal(self):
        encoder = HashingEncoderClient(dim=256)
        a, b = encoder.embed(["alpha metric", "beta metric"])
        assert abs(float(np.dot(a.values, b.values))) < 0.4


class StubResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, **kwargs):
        self.requests.append((url, kwargs))
        outcome = self.responses.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpEncoderClient:
    def test_parses_openai_style_payload(self):
        payload = {
            "data": [
                {"index": 1, "embedding": [0.0, 1.0]},
                {"index": 0, "embedding": [1.0, 0.0]},
            ]
        }
        session = StubSession([StubResponse(200, payload)])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        vectors = client.embed(["first", "second"])
        assert vectors[0].values == (1.0, 0.0)
        assert vectors[1].values == (0.0, 1.0)

    def test_server_errors_retried_then_raised(self):
        session = StubSession([StubResponse(500)] * 3)
        client = HttpEncoderClient("http://enc", "enc-model", session=session, max_attempts=3)
        with pytest.raises(EncoderTransportError, match="after 3 attempts"):
            client.embed(["x"])
        assert len(session.requests) == 3

    def test_client_error_not_retried(self):
        session = StubSession([StubResponse(401, text="no auth")])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        with pytest.raises(EmbeddingError, match="401"):
            client.embed(["x"])
        assert len(session.requests) == 1
