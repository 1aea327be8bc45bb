"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is asserted here exactly as pinned.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from movingtargets.backtest import (
    MonthlySeries,
    QuintileAssignment,
    calendar_time_returns,
    factor_alpha,
    fama_macbeth,
    long_short_spread,
    ols,
)
from movingtargets.cli import main
from movingtargets.corpus import (
    FactorRow,
    FactorSeries,
    Month,
    PanelObservation,
    ReturnRow,
    ReturnsTable,
    YearQuarter,
    load_transcript,
)
from movingtargets.embed import EmbeddingVector
from movingtargets.extract import (
    RecordingStore,
    TargetLabel,
    TargetSet,
    build_extraction_prompt,
    extract_targets_baseline,
    merged_texts,
    parse_extraction_response,
    serialize_target_set,
)
from movingtargets.score import (
    EMPTY_CURRENT_ZERO,
    METHOD_DISCRETE,
    EmbeddedTargets,
    apply_threshold,
    discrete_mt_score,
    score_corpus,
    semantic_mt_score,
    unit_rows,
)
from oracles import random_unit_vectors, semantic_retention_oracle

GOLDEN = Path(__file__).parent / "data" / "prompt_golden.txt"
INPUT_SLOT = "<inputs>earnings-call transcript as indexed JSON dialog</inputs>"

Q = YearQuarter(2021, 2)
Q_PREV = YearQuarter(2020, 2)


def embedded(rows, period=Q, prefix="t"):
    texts = tuple(f"{prefix}{i}" for i in range(len(rows)))
    vectors = tuple(EmbeddingVector(tuple(map(float, row)), "m") for row in rows)
    return EmbeddedTargets(firm="F", period=period, texts=texts, units=unit_rows(vectors))


def label_set(texts, period=Q, firm="F", section="presentation"):
    labels = tuple(TargetLabel(t, section, 0) for t in texts)
    return TargetSet(firm=firm, period=period, labels=labels, method="llm")


def test_criterion_1_scoring_oracle_equivalence():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    for _ in range(1000):
        n_prev = int(rng.integers(1, 7))
        n_cur = int(rng.integers(0, 7))
        tau = float(rng.choice([0.5, 0.65, 0.8]))
        prev = random_unit_vectors(rng, n_prev, 8)
        cur = random_unit_vectors(rng, n_cur, 8)
        expected = semantic_retention_oracle(cur, prev, tau)
        actual, _ = semantic_mt_score(embedded(cur), embedded(prev, period=Q_PREV), tau)
        assert abs(actual.value - expected) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (scoring oracle equivalence, {elapsed:.2f}s): PASS")


def test_criterion_2_threshold_boundary_and_tau_monotonicity():
    assert apply_threshold(0.65, 0.65) == 1.0
    rng = np.random.default_rng(203)
    taus = [float(t) for t in np.linspace(0.05, 1.0, 20)]
    for _ in range(100):
        prev = embedded(random_unit_vectors(rng, int(rng.integers(1, 7)), 8), period=Q_PREV)
        cur = embedded(random_unit_vectors(rng, int(rng.integers(0, 7)), 8))
        values = [semantic_mt_score(cur, prev, tau)[0].value for tau in taus]
        for lower_tau_value, higher_tau_value in zip(values, values[1:]):
            assert higher_tau_value <= lower_tau_value + 1e-12
    print("ACCEPTANCE 2 (threshold boundary and tau monotonicity): PASS")


def test_criterion_3_discrete_score_identity():
    rng = np.random.default_rng(204)
    pool = [f"metric {chr(97 + i)} {chr(110 + i % 10)}" for i in range(16)]
    for _ in range(1000):
        prev_texts = list(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
        cur_texts = list(rng.choice(pool, size=int(rng.integers(0, 9)), replace=False))
        previous = label_set(prev_texts, period=Q_PREV)
        current = label_set(cur_texts)
        score, _ = discrete_mt_score(current, previous)
        expected = 1.0 - len(set(prev_texts) & set(cur_texts)) / len(set(prev_texts))
        assert score.value == expected
    print("\nACCEPTANCE 3 (discrete score identity): PASS")


def test_criterion_4_identity_and_degenerate_cases():
    rows = [(0.3, -1.2, 0.4), (1.0, 0.2, 0.0), (-0.5, 0.5, 2.0)]
    identical, _ = semantic_mt_score(embedded(rows), embedded(rows, period=Q_PREV), 0.65)
    assert identical.value == 1.0

    empty_current = EmbeddedTargets(firm="F", period=Q, texts=(), units=unit_rows(()))
    previous = embedded([(1.0, 0.0), (0.0, 1.0)], period=Q_PREV)
    penalized, _ = semantic_mt_score(empty_current, previous, 0.65)
    assert penalized.value == -1.0
    zeroed, _ = semantic_mt_score(
        empty_current, previous, 0.65, empty_current=EMPTY_CURRENT_ZERO
    )
    assert zeroed.value == 0.0

    sets = [
        label_set([], period=YearQuarter(2020, 1)),
        label_set(["gross margin"], period=YearQuarter(2021, 1)),
        label_set(["gross margin"], period=YearQuarter(2021, 2)),
    ]
    result = score_corpus(sets, 0.65, METHOD_DISCRETE)
    skipped = {r.period: r.skipped_reason for r in result.records if r.value is None}
    assert skipped[YearQuarter(2021, 1)] == "empty_previous_targets"
    assert skipped[YearQuarter(2020, 1)] == "missing_previous_call"
    assert result.summary.skipped == 3 and result.summary.scoreable == 0
    print("ACCEPTANCE 4 (identity and degenerate cases): PASS")


def test_criterion_5_prompt_fidelity(small_corpus):
    golden = GOLDEN.read_text(encoding="utf-8")
    assert INPUT_SLOT in golden
    prefix, suffix = golden.split(INPUT_SLOT)
    transcript = load_transcript(sorted(small_corpus.transcripts_dir.glob("*.json"))[0])
    prompt = build_extraction_prompt(transcript)
    assert prompt.startswith(prefix)
    assert prompt.endswith(suffix)
    assert "No numbers, units, currency symbols, or percent signs anywhere" in prompt
    assert '"presentation": List[Dict]' in prompt
    assert '"analyst_qa": List[Dict]' in prompt
    print("\nACCEPTANCE 5 (prompt fidelity): PASS")


def test_criterion_6_parser_validation_and_round_trip():
    response = json.dumps(
        {
            "presentation": [
                {"target": "gross margin", "index": 0},
                {"target": "free cash flow", "index": 1},
                {"target": "margin of 5", "index": 0},
                {"target": "growth of 7", "index": 1},
            ],
            "analyst_qa": [
                {"target": "market share", "index": 2},
                {"target": "% of market", "index": 2},
            ],
        }
    )
    parsed = parse_extraction_response(response, 3, firm="F", period=Q)
    assert len(parsed.target_set.labels) == 3
    assert dict(parsed.violations) == {"digit": 2, "percent": 1}

    reparsed = parse_extraction_response(
        serialize_target_set(parsed.target_set), 3, firm="F", period=Q
    )
    assert reparsed.target_set == parsed.target_set
    print("\nACCEPTANCE 6 (parser validation and round trip): PASS")


def test_criterion_7_econometrics_oracles():
    # ols on a noiseless plane
    rng = np.random.default_rng(205)
    x1 = rng.normal(size=50)
    x2 = rng.normal(size=50)
    y = 0.5 - 1.25 * x1 + 0.75 * x2
    fit = ols(y, np.column_stack([np.ones(50), x1, x2]))
    assert fit.coefficients == pytest.approx((0.5, -1.25, 0.75), abs=1e-10)

    # zero-noise cross-sections recover the injected drift coefficient
    coeffs = {
        "moving_targets": -0.05,
        "log_size": 0.0,
        "log_bm": 0.0,
        "ret_1_0": 0.0,
        "ret_12_1": 0.0,
        "constant": 0.0,
    }
    panel = []
    month = Month(2015, 1)
    for _ in range(30):
        for f in range(10):
            mt = float(rng.uniform(0, 1))
            ls = float(rng.normal(10, 1))
            lb = float(rng.normal(-0.5, 0.4))
            r10 = float(rng.normal(0.01, 0.05))
            r121 = float(rng.normal(0.1, 0.2))
            panel.append(
                PanelObservation(
                    firm=f"F{f}",
                    month=month,
                    ret=coeffs["moving_targets"] * mt,
                    score=mt,
                    log_size=ls,
                    log_bm=lb,
                    ret_1_0=r10,
                    ret_12_1=r121,
                )
            )
        month = month.shift(1)
    fm = fama_macbeth(panel)
    by_name = dict(zip(fm.regressors, fm.mean_coefficients))
    assert abs(by_name["moving_targets"] - (-0.05)) <= 1e-8
    for name in ("log_size", "log_bm", "ret_1_0", "ret_12_1", "constant"):
        assert abs(by_name[name]) < 1e-8

    # injected alpha through the factor regression
    mkt = [float(v) for v in rng.normal(0.005, 0.03, size=30)]
    factor_rows = []
    month = Month(2020, 1)
    for i in range(30):
        factor_rows.append(
            FactorRow(
                month=month,
                mkt_rf=mkt[i],
                smb=float(rng.normal(0, 0.02)),
                hml=float(rng.normal(0, 0.02)),
                mom=float(rng.normal(0, 0.02)),
                liq=float(rng.normal(0, 0.02)),
                rf=0.0,
            )
        )
        month = month.shift(1)
    factors = FactorSeries.from_rows(factor_rows)
    months = tuple(r.month for r in factor_rows)
    series = MonthlySeries(months=months, values=tuple(0.002 + 1.0 * m for m in mkt))
    estimate = factor_alpha(series, factors, "ff3")
    assert abs(estimate.alpha - 0.002) <= 1e-10
    print("\nACCEPTANCE 7 (econometrics oracles): PASS")


def test_criterion_8_portfolio_construction():
    entry, exit_ = Month(2020, 1), Month(2022, 6)
    assignments = []
    rows = []
    for firm, quintile, ret in (
        ("LOW1", 1, 0.01),
        ("LOW2", 1, 0.01),
        ("HIGH1", 5, -0.01),
        ("HIGH2", 5, -0.01),
    ):
        assignments.append(
            QuintileAssignment(
                firm=firm,
                period=YearQuarter(2019, 4),
                quintile=quintile,
                entry_month=entry,
                exit_month=exit_,
            )
        )
        month = entry
        while month <= exit_:
            rows.append(ReturnRow(firm=firm, month=month, ret=ret, mktcap=100.0, bm=0.5))
            month = month.shift(1)
    returns = ReturnsTable.from_rows(rows)
    result = calendar_time_returns(assignments, returns)
    spread = long_short_spread(result.series[5], result.series[1])
    assert len(spread) == 30
    assert all(value == -0.02 for value in spread.values)

    factor_rows = []
    month = entry
    while month <= exit_:
        factor_rows.append(
            FactorRow(month=month, mkt_rf=0.0, smb=0.0, hml=0.0, mom=0.0, liq=0.0, rf=0.0)
        )
        month = month.shift(1)
    estimate = factor_alpha(
        spread, FactorSeries.from_rows(factor_rows), "excess", subtract_rf=False
    )
    assert estimate.alpha == pytest.approx(-0.02, abs=1e-12)
    assert estimate.t_stat == 0.0
    assert estimate.degenerate
    print("\nACCEPTANCE 8 (portfolio construction): PASS")


def run_pipeline(corpus, out_dir):
    runner = CliRunner()
    for args in (
        ["extract", "--method", "both"],
        ["score", "--method", "both"],
        ["backtest", "--method", "both"],
        ["report-frequencies", "--method", "both", "--top-k", "10"],
    ):
        result = runner.invoke(
            main, [*args, "--config", str(corpus.config_file), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 0, f"{args}: {result.output}"


def test_criterion_9_end_to_end_offline_determinism(full_corpus, tmp_path):
    started = time.monotonic()
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    run_pipeline(full_corpus, out_a)
    run_pipeline(full_corpus, out_b)
    elapsed = time.monotonic() - started

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert files_a, "pipeline produced no outputs"
    for relative in files_a:
        assert (out_a / relative).read_bytes() == (out_b / relative).read_bytes(), relative
    assert elapsed < 60.0, f"two pipeline runs took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 9 (end-to-end offline determinism, "
        f"{len(files_a)} files, {elapsed:.1f}s): PASS"
    )


def test_criterion_10_baseline_failure_modes(small_corpus):
    aapl = load_transcript(sorted(small_corpus.transcripts_dir.glob("AAPL_*.json"))[0])
    aapl_labels = set(merged_texts(extract_targets_baseline(aapl)))
    assert aapl_labels & {"year", "units"}, "expected a generic fragment"

    nvda_path = sorted(small_corpus.transcripts_dir.glob("NVDA_*.json"))[0]
    nvda = load_transcript(nvda_path)
    nvda_labels = set(merged_texts(extract_targets_baseline(nvda)))
    assert "revenue" in nvda_labels
    assert not any("data center" in label for label in nvda_labels)

    store = RecordingStore(small_corpus.recordings_dir)
    prompt = build_extraction_prompt(nvda)
    recorded = store.get("fixture-recorder", prompt)
    assert recorded is not None
    assert "Quarterly Data Center revenue" in recorded
    parsed = parse_extraction_response(
        recorded, len(nvda), firm=nvda.firm, period=nvda.period
    )
    parsed_texts = set(merged_texts(parsed.target_set))
    assert "quarterly compute revenue growth" in parsed_texts
    print("\nACCEPTANCE 10 (baseline failure modes vs recorded extraction): PASS")
