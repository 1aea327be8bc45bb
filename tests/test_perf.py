"""Timings of the two hottest offline layers, with pytest-benchmark.

Deselected by default; run with ``pytest -m perf``. The inputs match the
benchmark's semantic-wide scoring (24 firms x 20 quarters x 16 labels from
720 distinct labels at 3,072 dimensions) and its history-long backtest
(16 firms x 48 quarters of scores).
"""

from __future__ import annotations

import numpy as np
import pytest

from movingtargets.backtest import build_assignments
from movingtargets.corpus import YearQuarter, shift_quarters
from movingtargets.embed import EmbeddingVector
from movingtargets.extract import TargetLabel, TargetSet
from movingtargets.score import METHOD_SEMANTIC, MovingTargetsScore, score_corpus

pytestmark = pytest.mark.perf

START = YearQuarter(2015, 1)


@pytest.fixture(scope="module")
def semantic_wide():
    rng = np.random.default_rng(1)
    labels = [f"target {i:03d}" for i in range(720)]
    vectors = {
        label: EmbeddingVector(tuple(float(v) for v in rng.standard_normal(3072)), "m")
        for label in labels
    }
    target_sets = [
        TargetSet(
            firm=f"F{firm:02d}",
            period=shift_quarters(START, quarter),
            labels=tuple(
                TargetLabel(labels[i], "presentation", 0)
                for i in rng.choice(len(labels), size=16, replace=False)
            ),
            method="llm",
        )
        for firm in range(24)
        for quarter in range(20)
    ]
    return target_sets, vectors


def test_score_corpus_semantic(benchmark, semantic_wide):
    target_sets, vectors = semantic_wide
    result = benchmark(
        score_corpus,
        target_sets,
        0.65,
        METHOD_SEMANTIC,
        embedder=lambda texts: [vectors[text] for text in texts],
    )
    assert result.summary.scoreable == 24 * 16


def test_build_assignments(benchmark):
    rng = np.random.default_rng(2)
    records = [
        MovingTargetsScore(
            firm=f"F{firm:02d}",
            period=shift_quarters(START, quarter),
            value=float(rng.uniform()) if quarter >= 4 else None,
            method=METHOD_SEMANTIC,
            tau=0.65,
            n_prev=12 if quarter >= 4 else None,
            n_curr=12,
            direction="retention",
        )
        for firm in range(16)
        for quarter in range(48)
    ]
    result = benchmark(build_assignments, records)
    assert len(result.assignments) == 16 * 40
