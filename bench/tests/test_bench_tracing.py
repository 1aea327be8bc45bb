"""Span recorder: self-time arithmetic, thread attachment, wrapper lifetime."""

from __future__ import annotations

import threading

import pytest

import tracing
from movingtargets import backtest, corpus, embed, extract
from tracing import Recorder, Span, self_time_by_name, self_times


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, float(start), float(end), "run")


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, None, "cli.extract", 0, 10),
        _span(2, 1, "corpus.load_transcript", 1, 3),
        _span(3, 2, "inner", 1.5, 2),
        # Two worker-thread spans that overlap each other and one that runs
        # past the command's end.
        _span(4, 1, "extract.extract_targets_llm", 2, 6),
        _span(5, 1, "extract.extract_targets_llm", 5, 8),
        _span(6, 1, "late", 9, 12),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (8 - 1) - (10 - 9))
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(4)
    by_name = self_time_by_name(spans)
    assert by_name["extract.extract_targets_llm"] == pytest.approx(7)


def test_worker_thread_spans_attach_to_the_command_span():
    rec = Recorder("run-1")

    def work():
        with rec.span("extract.complete"):
            pass

    with rec.command("cli.extract"):
        with rec.span("corpus.load_transcript"):
            pass
        workers = [threading.Thread(target=work) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
    with rec.span("after"):
        pass

    command = next(s for s in rec.spans if s.name == "cli.extract")
    assert command.parent_id is None
    children = [s for s in rec.spans if s.parent_id == command.span_id]
    assert sorted(s.name for s in children) == [
        "corpus.load_transcript", "extract.complete", "extract.complete"
    ]
    assert next(s for s in rec.spans if s.name == "after").parent_id is None
    assert {s.run_id for s in rec.spans} == {"run-1"}


def test_instrumented_counts_calls_and_restores_originals(tmp_path):
    before = (corpus.load_transcript, embed.EmbeddingCache.get, backtest.ols,
              corpus.ReturnsTable.latest_at_or_before, extract.build_extraction_prompt)
    rec = Recorder("run")
    table = corpus.ReturnsTable.from_rows(
        [corpus.ReturnRow("AB", corpus.Month(2020, 1), 0.01, 10.0, 0.5)]
    )
    with tracing.instrumented(rec):
        assert corpus.load_transcript is not before[0]
        with rec.command("cli.backtest"):
            assert table.latest_at_or_before("AB", corpus.Month(2020, 3)) is not None
            assert embed.EmbeddingCache(tmp_path).get("m", "label") is None
    after = (corpus.load_transcript, embed.EmbeddingCache.get, backtest.ols,
             corpus.ReturnsTable.latest_at_or_before, extract.build_extraction_prompt)
    assert after == before

    metrics = tracing.layer_metrics(rec)
    assert metrics["corpus.latest_at_or_before.calls"] == 1
    assert metrics["embed.cache_get.calls"] == 1
    assert metrics["embed.cache.hit_ratio"] == 0.0
    # Counted-only calls open no span.
    assert [s.name for s in rec.spans] == ["embed.cache_get", "cli.backtest"]
