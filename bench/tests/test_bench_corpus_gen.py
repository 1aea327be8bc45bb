"""The benchmark's corpus generator: determinism and label hygiene."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import corpus_gen
from movingtargets import corpus, embed, extract
from movingtargets.config import load_config
from run import SPEC

SMALL = corpus_gen.CorpusSpec(
    firms=3, quarters=6, vocabulary=32, targets_per_call=8, dim=8, seed=3, universe=5
)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("warm", [True, False])
def test_two_builds_from_one_seed_are_byte_identical(tmp_path, warm):
    spec = corpus_gen.CorpusSpec(**{**SMALL.__dict__, "warm_cache": warm})
    corpus_gen.build(tmp_path / "a", spec)
    corpus_gen.build(tmp_path / "b", spec)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def test_another_seed_gives_another_corpus(tmp_path):
    corpus_gen.build(tmp_path / "a", SMALL)
    corpus_gen.build(tmp_path / "b", corpus_gen.CorpusSpec(**{**SMALL.__dict__, "seed": 4}))
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_every_workload_label_is_valid(name):
    params = SPEC["workloads"][name]
    labels, _ = corpus_gen._vocabulary(np.random.default_rng(0), params["vocabulary"])
    assert len(set(labels)) == params["vocabulary"]
    assert all(extract.validate_target_label(label) == [] for label in labels)
    assert all(extract.normalize_label(label) == label for label in labels)


def test_generated_corpus_replays_without_drops(tmp_path):
    built = corpus_gen.build(tmp_path, SMALL)
    store = extract.RecordingStore(tmp_path / "recordings")
    client = extract.ReplayExtractorClient(store, corpus_gen.EXTRACTOR_MODEL)
    cache = embed.EmbeddingCache(tmp_path / "embedding_cache")
    paths = sorted((tmp_path / "transcripts").glob("*.json"))
    assert len(paths) == built.transcripts == SMALL.firms * SMALL.quarters

    labels: set[str] = set()
    for path in paths:
        transcript = corpus.load_transcript(path)
        result = extract.extract_targets_llm(transcript, client)
        assert not result.violations
        assert len(result.target_set.labels) == SMALL.targets_per_call
        labels.update(extract.merged_texts(result.target_set))
        assert extract.extract_targets_baseline(transcript).labels

    assert len(labels) == built.unique_labels == SMALL.vocabulary
    vectors = embed.embed_labels(
        sorted(labels), None, cache, model_id=corpus_gen.ENCODER_MODEL
    )
    assert {v.dim for v in vectors} == {SMALL.dim}

    returns = corpus.load_returns(tmp_path / "returns.csv")
    assert len({row.firm for row in returns.rows}) == SMALL.universe
    corpus.load_factors(tmp_path / "factors.csv")


def test_cold_corpus_has_stub_vectors_and_no_cache(tmp_path):
    built = corpus_gen.build(tmp_path, corpus_gen.CorpusSpec(**{**SMALL.__dict__, "warm_cache": False}))
    assert not (tmp_path / "embedding_cache").exists()
    labels = (tmp_path / "stub_labels.txt").read_text(encoding="utf-8").splitlines()
    assert len(labels) == built.unique_labels == SMALL.vocabulary
    assert np.load(tmp_path / "stub_vectors.npy").shape == (len(labels), SMALL.dim)


def test_vector_texts_round_trip_as_reprs():
    vectors = np.array([[0.5, -0.25, 1.0 / 65536], [3.0, 0.5, -0.25]])
    texts = corpus_gen.vector_texts(vectors)
    assert texts == [" ".join(repr(v) for v in row) for row in vectors.tolist()]
    assert [float(v) for v in texts[0].split()] == vectors[0].tolist()


def test_config_is_offline_without_endpoint(tmp_path):
    corpus_gen.build(tmp_path, SMALL)
    offline = load_config(corpus_gen.write_config(tmp_path, Path("out")))
    assert offline.offline and offline.extractor.endpoint is None
    online = load_config(
        corpus_gen.write_config(tmp_path, Path("out"), endpoint="http://127.0.0.1:1")
    )
    assert not online.offline
    assert online.encoder.endpoint == "http://127.0.0.1:1/v1/embeddings"
    assert online.out_dir == tmp_path.resolve() / "out"
