"""Round trip through the program's HTTP clients against the localhost stub."""

from __future__ import annotations

import threading

import numpy as np

import corpus_gen
import stub_server
from movingtargets import corpus, embed, extract


def test_stub_serves_recordings_and_vectors(tmp_path):
    spec = corpus_gen.CorpusSpec(
        firms=2, quarters=8, vocabulary=32, targets_per_call=8, dim=6, seed=9, warm_cache=False
    )
    corpus_gen.build(tmp_path, spec)
    server = stub_server.make_server(tmp_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    chat = extract.HttpChatCompletionClient(
        f"{url}/v1/chat/completions", corpus_gen.EXTRACTOR_MODEL
    )
    encoder = embed.HttpEncoderClient(f"{url}/v1/embeddings", corpus_gen.ENCODER_MODEL)
    try:
        store = extract.RecordingStore(tmp_path / "recordings")
        paths = sorted((tmp_path / "transcripts").glob("*.json"))
        for path in paths:
            prompt = extract.build_extraction_prompt(corpus.load_transcript(path))
            assert chat.complete(prompt) == store.get(corpus_gen.EXTRACTOR_MODEL, prompt)

        labels = (tmp_path / "stub_labels.txt").read_text(encoding="utf-8").splitlines()
        expected = np.load(tmp_path / "stub_vectors.npy")
        order = [3, 0, 2]
        vectors = encoder.embed([labels[i] for i in order])
        assert [v.values for v in vectors] == [tuple(expected[i].tolist()) for i in order]

        assert server.RequestHandlerClass.state.snapshot() == {
            "chat": len(paths),
            "embeddings": 1,
        }
    finally:
        chat.session.close()
        encoder.session.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
