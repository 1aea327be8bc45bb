"""Timings of the hottest offline layers and of start-up, with pytest-benchmark.

Deselected by default; run with ``pytest -m perf``. The inputs match the
benchmark's semantic-wide scoring (24 firms x 20 quarters x 16 labels from
720 distinct labels at 3,072 dimensions), its history-long discrete scoring
(16 firms x 48 quarters x 12 labels from 480) and its history-long backtest
(16 firms x 48 quarters of scores), the cold-online cache fill (240
labels at 3,072 dimensions put into and read back from the embedding cache)
and semantic-wide's warm legacy text cache (720 labels at 3,072 dimensions,
read twice: the first read upgrades every entry, the second reads binary).
The start-up timings run a child process: ``import movingtargets.cli``, and
one offline ``report-frequencies`` on the fixture corpus, which imports
neither numpy nor ``http.client``. ``extract --method both`` also runs offline on
the fixture corpus as a child process, into a new output directory each
round, so that no round overwrites or follows the deletion of the last
round's files. ``backtest --method both`` runs as a child process on the
fixture corpus's scores, after one ``extract`` and one ``score``.

The scaling gate runs the backtest's layers (quintile assignment,
calendar-time returns, panel assembly and Fama-MacBeth) on in-memory
records of 500, 1,000 and 5,000 firms over eight quarters, and holds the
time per firm-quarter at 5,000 firms within 3x of that at 500: a step that
grows with the square of the firms would read about 10x.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from corpusgen import write_cache_entry

from movingtargets.backtest import build_assignments, calendar_time_returns, fama_macbeth
from movingtargets.cli import main
from movingtargets.corpus import ReturnsTable, YearQuarter, build_panel, call_month, shift_quarters
from movingtargets.embed import EmbeddingCache, EmbeddingVector, embed_labels
from movingtargets.extract import TargetLabel, TargetSet
from movingtargets.score import (
    METHOD_DISCRETE,
    METHOD_SEMANTIC,
    MovingTargetsScore,
    score_corpus,
)

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


def test_score_corpus_discrete(benchmark):
    rng = np.random.default_rng(3)
    labels = [f"target {i:03d}" for i in range(480)]
    target_sets = [
        TargetSet(
            firm=f"F{firm:02d}",
            period=shift_quarters(START, quarter),
            labels=tuple(
                TargetLabel(labels[i], "presentation", 0)
                for i in rng.choice(len(labels), size=12, replace=False)
            ),
            method="baseline",
        )
        for firm in range(16)
        for quarter in range(48)
    ]
    result = benchmark(score_corpus, target_sets, 0.65, METHOD_DISCRETE)
    assert result.summary.scoreable == 16 * 44


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


def test_embedding_cache_fill_and_read(benchmark, tmp_path):
    rng = np.random.default_rng(4)
    labels = [f"target {i:03d}" for i in range(240)]
    vectors = [EmbeddingVector(tuple(rng.standard_normal(3072).tolist()), "m") for _ in labels]
    cache = EmbeddingCache(tmp_path)

    def fill_and_read():
        for label, vector in zip(labels, vectors):
            cache.put(vector, label)
        return [cache.get("m", label) for label in labels]

    assert benchmark(fill_and_read) == vectors


def test_legacy_cache_upgrade_and_reread(benchmark, tmp_path):
    rng = np.random.default_rng(5)
    labels = [f"target {i:03d}" for i in range(720)]
    # Multiples of 2^-16, as the benchmark's generated cache holds.
    rows = rng.integers(-(2**16), 2**16, size=(len(labels), 3072)) / 2**16
    lines = [" ".join(map(repr, row)) for row in rows.tolist()]
    caches = (tmp_path / f"cache-{n}" for n in itertools.count())

    def legacy_cache():
        root = next(caches)
        root.mkdir()
        for label, line in zip(labels, lines):
            write_cache_entry(root, label, line, model_id="m")
        return (EmbeddingCache(root),), {}

    def upgrade_then_reread(cache):
        return [embed_labels(labels, None, cache, model_id="m") for _ in range(2)]

    first, second = benchmark.pedantic(upgrade_then_reread, setup=legacy_cache, rounds=2)
    assert first == second
    np.testing.assert_array_equal(np.stack([vector.row for vector in second]), rows)


def test_cli_import(benchmark, run_python):
    result = benchmark(run_python, "-c", "import movingtargets.cli")
    assert result.returncode == 0, result.stderr


def test_report_frequencies_offline(benchmark, run_python, full_corpus, tmp_path):
    out = tmp_path / "out"
    args = ["--config", str(full_corpus.config_file), "--out-dir", str(out)]
    for command in ("extract", "score"):
        assert CliRunner().invoke(main, [command, *args]).exit_code == 0
    result = benchmark(run_python, "-m", "movingtargets.cli", "report-frequencies", *args)
    assert result.returncode == 0, result.stderr


def test_extract_offline(benchmark, run_python, full_corpus, tmp_path):
    outs = (tmp_path / f"out-{n}" for n in itertools.count())

    def fresh_out():
        args = ["--config", str(full_corpus.config_file), "--out-dir", str(next(outs))]
        return ("-m", "movingtargets.cli", "extract", "--method", "both", *args), {}

    result = benchmark.pedantic(run_python, setup=fresh_out, rounds=5)
    assert result.returncode == 0, result.stderr


def test_backtest_offline(benchmark, run_python, full_corpus, tmp_path):
    args = ["--config", str(full_corpus.config_file), "--out-dir", str(tmp_path / "out")]
    for command in ("extract", "score"):
        assert CliRunner().invoke(main, [command, *args]).exit_code == 0
    result = benchmark(run_python, "-m", "movingtargets.cli", "backtest", "--method", "both", *args)
    assert result.returncode == 0, result.stderr


def scaled_backtest_inputs(n_firms: int, quarters: int = 8):
    """Score records of ``n_firms`` over ``quarters``, and their returns from a year before."""

    rng = np.random.default_rng(n_firms)
    firms = [f"F{firm:05d}" for firm in range(n_firms)]
    records = [
        MovingTargetsScore(
            firm=firm,
            period=shift_quarters(START, quarter),
            value=float(value),
            method=METHOD_SEMANTIC,
            tau=0.65,
            n_prev=12,
            n_curr=12,
            direction="retention",
        )
        for firm, values in zip(firms, rng.uniform(size=(n_firms, quarters)))
        for quarter, value in enumerate(values)
    ]
    first = call_month(START).index - 14
    months = list(range(first, call_month(shift_quarters(START, quarters - 1)).index + 4))
    returns = ReturnsTable(
        [firm for firm in firms for _ in months],
        months * n_firms,
        rng.normal(0.01, 0.05, n_firms * len(months)),
        np.exp(rng.normal(8.0, 1.0, n_firms * len(months))),
        np.exp(rng.normal(-0.5, 0.3, n_firms * len(months))),
    )
    return records, returns


def backtest_layers(records, returns):
    assignments = build_assignments(records).assignments
    calendar_time_returns(assignments, returns)
    fama_macbeth(build_panel(records, returns).table, min_months=1)


def test_backtest_layers_scale_linearly_in_firms():
    per_firm_quarter = {}
    for n_firms in (500, 1_000, 5_000):
        records, returns = scaled_backtest_inputs(n_firms)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            backtest_layers(records, returns)
            best = min(best, time.perf_counter() - start)
        per_firm_quarter[n_firms] = best / len(records)
    assert per_firm_quarter[5_000] <= 3 * per_firm_quarter[500], per_firm_quarter
