from __future__ import annotations

import io
import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingtargets import fileio, transport
from movingtargets.embed import (
    DimensionMismatchError,
    EmbeddingCache,
    EmbeddingError,
    EmbeddingVector,
    EncoderTransportError,
    HttpEncoderClient,
    MissingEmbeddingError,
    embed_labels,
)

from corpusgen import HashingEncoderClient, write_cache_entry
from test_transport import StubResponse, StubSession


def vec(*values, model_id="m"):
    return EmbeddingVector(tuple(float(v) for v in values), model_id)


class TestEmbeddingVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmbeddingVector((), "m")

    def test_values_dim_equality_hash_and_repr_are_those_of_the_tuple(self):
        v = EmbeddingVector(values=(1.0, -0.0, 2.5), model_id="m")
        assert v.values == (1.0, -0.0, 2.5)
        assert all(type(x) is float for x in v.values)
        assert math.copysign(1.0, v.values[1]) == -1.0
        assert v.dim == 3
        assert v == EmbeddingVector([1, 0.0, 2.5], "m")
        assert v != EmbeddingVector((1.0, 0.0, 2.5), "other")
        assert v != EmbeddingVector((1.0, 0.0), "m")
        assert hash(v) == hash(((1.0, -0.0, 2.5), "m"))
        assert repr(v) == "EmbeddingVector(values=(1.0, -0.0, 2.5), model_id='m')"
        nan = EmbeddingVector((math.nan, 1.0), "m")
        assert nan == nan

    def test_row_is_read_only_and_not_shared_with_a_writeable_source(self):
        source = np.array([1.0, 2.0])
        v = EmbeddingVector(source, "m")
        source[0] = 9.0
        assert v.values == (1.0, 2.0)
        assert v.row.dtype == np.float64 and not v.row.flags.writeable
        with pytest.raises(ValueError):
            v.row[0] = 3.0
        with pytest.raises(AttributeError):
            v.model_id = "other"

    def test_read_only_float64_row_is_held_as_given(self):
        row = np.frombuffer(struct.pack("<2d", 1.0, 2.0), "<f8")
        assert EmbeddingVector(row, "m").row is row

    @pytest.mark.parametrize(
        "values", [np.empty(0), [[1.0, 2.0]], 1.0], ids=["empty-row", "matrix", "scalar"]
    )
    def test_rejects_anything_but_a_non_empty_row(self, values):
        with pytest.raises(ValueError, match="non-empty row"):
            EmbeddingVector(values, "m")


ONE_TWO = struct.pack("<2d", 1.0, 2.0)

# Entries of the key ("enc", "label"), each broken in one way: (suffix, content).
# A legacy entry of the wrong model is test_corrupt_entry_detected's.
CORRUPT_ENTRIES = {
    "f64-wrong-model": (".f64", b"wrong-model\nlabel\n" + ONE_TWO),
    "f64-wrong-label": (".f64", b"enc\nother label\n" + ONE_TWO),
    "f64-bad-utf8-header": (".f64", b"enc\nlab\xffel\n" + ONE_TWO),
    "f64-truncated-header": (".f64", b"enc\nlab"),
    "f64-empty-vector": (".f64", b"enc\nlabel\n"),
    "f64-length-not-a-multiple-of-8": (".f64", b"enc\nlabel\n" + ONE_TWO[:-3]),
    "txt-wrong-label": (".txt", b"enc\nother label\n1.0 2.0\n"),
    "txt-bad-utf8-header": (".txt", b"enc\nlab\xffel\n1.0 2.0\n"),
    "txt-empty-vector": (".txt", b"enc\nlabel\n\n"),
    "txt-non-numeric": (".txt", b"enc\nlabel\n1.0 abc\n"),
}


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
        path = tmp_path / f"{EmbeddingCache.key('enc', 'label')}.txt"
        path.write_text("wrong-model\nlabel\n1.0 2.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="corrupt"):
            cache.get("enc", "label")

    def test_undecodable_entry_detected(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        path = write_cache_entry(tmp_path, "label", "1.0 2.0", model_id="enc")
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        with pytest.raises(EmbeddingError, match="corrupt"):
            cache.get("enc", "label")

    @pytest.mark.parametrize("case", sorted(CORRUPT_ENTRIES))
    def test_corrupt_entry_of_either_form_names_its_file(self, tmp_path, case):
        suffix, content = CORRUPT_ENTRIES[case]
        path = tmp_path / f"{EmbeddingCache.key('enc', 'label')}{suffix}"
        path.write_bytes(content)
        with pytest.raises(EmbeddingError, match=re.escape(f"corrupt cache entry {path}: ")):
            EmbeddingCache(tmp_path).get("enc", "label")
        assert list(tmp_path.iterdir()) == [path]

    def test_legacy_text_entry_is_read(self, tmp_path):
        values = (0.1 + 0.2, 1.0 / 3.0, -7.25e-12, math.pi)
        write_cache_entry(tmp_path, "label", " ".join(map(repr, values)), model_id="enc")
        assert EmbeddingCache(tmp_path).get("enc", "label") == EmbeddingVector(values, "enc")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(-1e150, 1e150, allow_subnormal=True)
            | st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0]),
            max_size=15,
        ),
        st.floats(1e-150, 1e150),
    )
    def test_legacy_entry_read_once_is_upgraded_to_the_same_bits(
        self, tmp_path_factory, values, large
    ):
        root = tmp_path_factory.mktemp("cache")
        values = [large, *values]
        legacy = write_cache_entry(root, "label", " ".join(map(repr, values)), model_id="enc")
        bits = np.array(values).view(np.int64)
        cache = EmbeddingCache(root)
        first = cache.get("enc", "label")
        np.testing.assert_array_equal(first.row.view(np.int64), bits)
        binary = root / f"{EmbeddingCache.key('enc', 'label')}.f64"
        assert legacy.is_file()
        body = np.frombuffer(binary.read_bytes(), "<f8", offset=len(b"enc\nlabel\n"))
        np.testing.assert_array_equal(body.view(np.int64), bits)
        legacy.unlink()
        np.testing.assert_array_equal(cache.get("enc", "label").row.view(np.int64), bits)

    @pytest.mark.parametrize(
        "line", ["0.0 0.0", "nan 1.0", "1.0 -inf", "1e-200 1e-200", "1e200 1e200"],
        ids=["zero", "nan", "infinite", "norm-underflows", "norm-overflows"],
    )
    def test_unusable_legacy_vector_is_read_but_not_upgraded(self, tmp_path, line):
        legacy = write_cache_entry(tmp_path, "label", line, model_id="enc")
        cache = EmbeddingCache(tmp_path)
        expected = np.array([float(x) for x in line.split()]).view(np.int64)
        for _ in range(2):
            np.testing.assert_array_equal(cache.get("enc", "label").row.view(np.int64), expected)
            assert list(tmp_path.iterdir()) == [legacy]

    @pytest.mark.parametrize("step", ["replace", "rename"])
    def test_failed_upgrade_write_still_returns_the_vector(self, tmp_path, monkeypatch, step):
        def refuse(*args, **options):
            raise PermissionError("read-only cache")

        # "replace" fails before any file is opened; "rename" after the temp file is written.
        monkeypatch.setattr(fileio if step == "replace" else fileio.os, "replace", refuse)
        legacy = write_cache_entry(tmp_path, "label", "1.0 2.0", model_id="enc")
        cache = EmbeddingCache(tmp_path)
        for _ in range(2):
            assert cache.get("enc", "label") == EmbeddingVector((1.0, 2.0), "enc")
            assert list(tmp_path.iterdir()) == [legacy]

    def test_binary_entry_wins_over_a_legacy_one(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        write_cache_entry(tmp_path, "label", "3.0 4.0", model_id="enc")
        cache.put(EmbeddingVector((1.0, 2.0), "enc"), "label")
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".f64", ".txt"]
        assert cache.get("enc", "label").values == (1.0, 2.0)

    def test_put_writes_one_binary_entry_and_no_text(self, tmp_path):
        EmbeddingCache(tmp_path).put(EmbeddingVector((1.0, -2.5), "enc"), "label")
        (path,) = tmp_path.iterdir()
        assert path.name == f"{EmbeddingCache.key('enc', 'label')}.f64"
        assert path.read_bytes() == b"enc\nlabel\n" + struct.pack("<2d", 1.0, -2.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.sampled_from([-0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
                # A signalling NaN and a negative quiet NaN, each with a payload.
                st.sampled_from([0x7FF0_0000_0000_0001, 0xFFF8_DEAD_BEEF_0001]).map(
                    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
                ),
                # Any bit pattern, NaN payloads included.
                st.binary(min_size=8, max_size=8).map(lambda raw: struct.unpack("<d", raw)[0]),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, values):
        root = tmp_path_factory.mktemp("cache")
        cache = EmbeddingCache(root)
        cache.put(EmbeddingVector(tuple(values), "enc"), "label")
        restored = np.array(cache.get("enc", "label").values)
        np.testing.assert_array_equal(restored.view(np.int64), np.array(values).view(np.int64))

    def test_put_ignores_the_shared_temp_name(self, tmp_path):
        # Another process's leftover (or in-flight) "<key>.tmp" must not
        # block a write: every process uses its own temp name.
        cache = EmbeddingCache(tmp_path)
        (tmp_path / f"{EmbeddingCache.key('enc', 'label')}.tmp").mkdir()
        cache.put(EmbeddingVector((1.0, 2.0), "enc"), "label")
        assert cache.get("enc", "label").values == (1.0, 2.0)

    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch, step):
        replace = fileio.replace

        def write_part(path, write, **options):
            def write_three_bytes(handle):
                data = io.BytesIO()
                write(data)
                handle.write(data.getvalue()[:3])
                raise OSError("write failed")

            replace(path, write_three_bytes, **options)

        def fail_rename(*args):
            raise OSError("rename failed")

        if step == "write":
            monkeypatch.setattr(fileio, "replace", write_part)
        else:
            monkeypatch.setattr(fileio.os, "replace", fail_rename)
        cache = EmbeddingCache(tmp_path)
        with pytest.raises(OSError, match=f"{step} failed"):
            cache.put(EmbeddingVector((1.0, 2.0), "enc"), "label")
        assert list(tmp_path.iterdir()) == []


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
        assert cache.get("enc", "fresh") is None

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.0, 0.0)])
    def test_bad_cached_vector_beside_a_fresh_label_is_named(self, tmp_path, bad):
        cache = EmbeddingCache(tmp_path)
        cache.put(EmbeddingVector(bad, "enc"), "cached")
        with pytest.raises(EmbeddingError, match="'cached' of model 'enc'"):
            embed_labels(["cached", "fresh"], CountingClient(dim=2), cache)
        assert cache.get("enc", "fresh") is None

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

    @pytest.mark.parametrize(
        "bad", [(math.nan, 1.0), (1.0, -math.inf), (1e-200, 1e-200), (0.0, 0.0)]
    )
    def test_non_finite_or_zero_norm_vector_is_not_cached(self, tmp_path, bad):
        class BadClient:
            model_id = "enc"

            def embed(self, texts):
                good = (1.0, 0.0)
                return [EmbeddingVector(bad if t == "bad label" else good, "enc") for t in texts]

        with pytest.raises(EmbeddingError, match="'bad label' of model 'enc'"):
            embed_labels(["good label", "bad label"], BadClient(), EmbeddingCache(tmp_path))
        assert list(tmp_path.rglob("*")) == []


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

    def test_server_errors_retried_then_raised(self, monkeypatch):
        monkeypatch.setattr(transport.time, "sleep", lambda seconds: None)
        session = StubSession([StubResponse(500)] * 3)
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        with pytest.raises(EncoderTransportError, match="after 3 attempts"):
            client.embed(["x"])
        assert len(session.requests) == 3

    @pytest.mark.parametrize(
        "codes, waits", [([429, 200], [0.5]), ([429, 503, 200], [0.5, 1.0])]
    )
    def test_rate_limit_retried_with_backoff(self, monkeypatch, codes, waits):
        slept = []
        monkeypatch.setattr(transport.time, "sleep", slept.append)
        payload = {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}
        session = StubSession(StubResponse(c, payload if c == 200 else None) for c in codes)
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        assert [v.values for v in client.embed(["x"])] == [(1.0, 0.0)]
        assert len(session.requests) == len(codes)
        assert slept == waits

    def test_client_error_not_retried(self):
        session = StubSession([StubResponse(401, text="no auth")])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        with pytest.raises(EmbeddingError, match="401"):
            client.embed(["x"])
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "indices",
        [[1, 1], [5, 7], [0, 2], [1], [0, 1, 2]],
        ids=["duplicate", "out-of-range", "gap", "missing", "extra"],
    )
    def test_indices_must_be_zero_to_n_and_nothing_is_cached(self, tmp_path, indices):
        payload = {
            "data": [{"index": i, "embedding": [1.0, float(i)]} for i in indices]
        }
        session = StubSession([StubResponse(200, payload)])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        cache = EmbeddingCache(tmp_path)
        with pytest.raises(EmbeddingError, match="unexpected embeddings payload"):
            embed_labels(["first", "second"], client, cache)
        assert len(session.requests) == 1
        assert list(tmp_path.rglob("*")) == []

    def test_integer_components_are_numbers(self):
        payload = {"data": [{"index": 0, "embedding": [1, 0, -2]}]}
        session = StubSession([StubResponse(200, payload)])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        assert client.embed(["x"])[0].values == (1.0, 0.0, -2.0)

    @pytest.mark.parametrize(
        "component",
        ["0.5", True, None, [0.5], {"x": 0.5}, 10**400],
        ids=["string", "bool", "null", "list", "object", "int-beyond-float64"],
    )
    def test_non_number_component_is_rejected_and_nothing_is_cached(self, tmp_path, component):
        payload = {"data": [{"index": 0, "embedding": [1.0, component]}]}
        session = StubSession([StubResponse(200, payload)])
        client = HttpEncoderClient("http://enc", "enc-model", session=session)
        with pytest.raises(EmbeddingError, match="unexpected embeddings payload"):
            embed_labels(["x"], client, EmbeddingCache(tmp_path))
        assert len(session.requests) == 1
        assert list(tmp_path.rglob("*")) == []
