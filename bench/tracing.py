"""Span recorder and the timing wrappers of the traced benchmark run.

The wrappers are set from outside the program, on module attributes and
class methods that ``cli.py`` reaches every layer through. All of them are
listed in ``_SPANNED`` and ``_COUNTED`` below, so an in-program stage timer
can later replace this module in one place.

A span records its name, start, end, parent span and run id. Spans of one
thread nest through a thread-local stack; a thread with no open span (an
extraction worker) attaches its spans to the open command span. Spans stay
in memory until the run ends. A span's self time is its duration minus the
part of it that its children cover; children from worker threads may
overlap, so coverage is the length of the union of their intervals.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from movingtargets import backtest, corpus, embed, extract, score


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    run_id: str


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    @contextmanager
    def command(self, name: str) -> Iterator[None]:
        """A top-level span that worker-thread spans attach to."""

        with self.span(name):
            self._command = self._stack()[-1]
            try:
                yield
            finally:
                self._command = None

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""

    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.span_id], key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


# -- what the traced run observes ------------------------------------------

def _on_load_returns(rec: Recorder, result) -> None:
    rec.add("corpus.load_returns.rows", len(result.rows))


def _on_build_panel(rec: Recorder, result) -> None:
    rec.add("corpus.build_panel.rows", len(result.rows))


def _on_extract_llm(rec: Recorder, result) -> None:
    rec.add("extract.sets")
    rec.add("extract.attempts", result.attempts)
    rec.add("extract.labels_dropped", sum(result.violations.values()))


def _on_cache_get(rec: Recorder, result) -> None:
    rec.add("embed.cache_get.hits", result is not None)


def _on_score_corpus(rec: Recorder, result) -> None:
    scored = [r for r in result.records if r.value is not None]
    rec.add("score.pairs", len(scored))
    if result.summary.method == score.METHOD_SEMANTIC:
        rec.add("score.similarity_cells", sum(r.n_prev * r.n_curr for r in scored))


def _on_build_assignments(rec: Recorder, result) -> None:
    rec.add("backtest.assignments", len(result.assignments))


def _on_fama_macbeth(rec: Recorder, result) -> None:
    rec.add("backtest.fm_months", result.n_months)


def _score_corpus_name(args: tuple, kwargs: dict) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return f"score.score_corpus.{method}"


Observer = Callable[[Recorder, object], None]

# (owner, attribute, span name or namer, observer). Every call is a span and
# is counted under "<name>.calls".
_SPANNED: list[tuple[object, str, str | Callable[[tuple, dict], str], Observer | None]] = [
    (corpus, "load_transcript", "corpus.load_transcript", None),
    (corpus, "load_returns", "corpus.load_returns", _on_load_returns),
    (corpus, "build_panel", "corpus.build_panel", _on_build_panel),
    (extract, "build_extraction_prompt", "extract.build_extraction_prompt", None),
    (extract, "parse_extraction_response", "extract.parse_extraction_response", None),
    (extract, "extract_targets_llm", "extract.extract_targets_llm", _on_extract_llm),
    (extract, "extract_targets_baseline", "extract.extract_targets_baseline", None),
    (extract.ReplayExtractorClient, "complete", "extract.complete", None),
    (extract.HttpChatCompletionClient, "complete", "extract.complete", None),
    (embed, "embed_labels", "embed.embed_labels", None),
    (embed.EmbeddingCache, "get", "embed.cache_get", _on_cache_get),
    (embed.EmbeddingCache, "put", "embed.cache_put", None),
    (embed.HttpEncoderClient, "embed", "embed.encoder", None),
    (score, "score_corpus", _score_corpus_name, _on_score_corpus),
    (backtest, "build_assignments", "backtest.build_assignments", _on_build_assignments),
    (backtest, "calendar_time_returns", "backtest.calendar_time_returns", None),
    (backtest, "factor_alpha", "backtest.factor_alpha", None),
    (backtest, "fama_macbeth", "backtest.fama_macbeth", _on_fama_macbeth),
]

# Counted only: no span, so their time stays in the caller's self time.
_COUNTED: list[tuple[object, str, str]] = [
    (corpus.ReturnsTable, "latest_at_or_before", "corpus.latest_at_or_before.calls"),
    (backtest, "ols", "backtest.ols.calls"),
]


@contextmanager
def instrumented(rec: Recorder) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""

    originals: list[tuple[object, str, object]] = []

    def spanned(fn, name, observer):
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            rec.add(f"{span_name}.calls")
            with rec.span(span_name):
                result = fn(*args, **kwargs)
            if observer is not None:
                observer(rec, result)
            return result

        return wrapper

    def counted(fn, counter):
        def wrapper(*args, **kwargs):
            rec.add(counter)
            return fn(*args, **kwargs)

        return wrapper

    try:
        for owner, attr, name, observer in _SPANNED:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, spanned(fn, name, observer))
        for owner, attr, counter in _COUNTED:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, counted(fn, counter))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced pipeline pass.

    ``<span>.s`` is the summed self time of the spans so named,
    ``cli.<command>.self_s`` that of the command span, and the rest are
    counters or ratios of counters.
    """

    own = self_time_by_name(rec.spans)
    c = rec.counts
    metrics: dict[str, float] = {
        f"{name}.s": own.get(name, 0.0)
        for name in (
            "corpus.load_transcript",
            "corpus.load_returns",
            "corpus.build_panel",
            "extract.build_extraction_prompt",
            "extract.complete",
            "extract.parse_extraction_response",
            "extract.extract_targets_baseline",
            "embed.embed_labels",
            "embed.cache_get",
            "embed.cache_put",
            "embed.encoder",
            "score.score_corpus.semantic",
            "score.score_corpus.discrete",
            "backtest.build_assignments",
            "backtest.calendar_time_returns",
            "backtest.factor_alpha",
            "backtest.fama_macbeth",
        )
    }
    for name, seconds in own.items():
        if name.startswith("cli."):
            metrics[f"{name}.self_s"] = seconds
    for name in (
        "corpus.load_transcript.calls",
        "corpus.load_returns.rows",
        "corpus.build_panel.rows",
        "corpus.latest_at_or_before.calls",
        "extract.complete.calls",
        "extract.attempts",
        "extract.labels_dropped",
        "embed.cache_get.calls",
        "embed.cache_put.calls",
        "score.pairs",
        "score.similarity_cells",
        "backtest.assignments",
        "backtest.ols.calls",
        "backtest.fm_months",
    ):
        metrics[name] = c[name]
    metrics["embed.encoder.batches"] = c["embed.encoder.calls"]
    metrics["extract.useful_ratio"] = (
        c["extract.sets"] / c["extract.attempts"] if c["extract.attempts"] else 0.0
    )
    metrics["embed.cache.hit_ratio"] = (
        c["embed.cache_get.hits"] / c["embed.cache_get.calls"] if c["embed.cache_get.calls"] else 0.0
    )
    return metrics
