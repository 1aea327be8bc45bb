from __future__ import annotations

import json
import math

import numpy as np
import pytest

from movingtargets.corpus import (
    CorpusError,
    FactorRow,
    FactorSeries,
    Month,
    ReturnRow,
    ReturnsTable,
    ScoreColumns,
    YearQuarter,
    build_panel,
    call_month,
    compound_return,
    load_factors,
    load_returns,
    load_transcript,
    shift_quarters,
)
from movingtargets.score import METHOD_SEMANTIC, MovingTargetsScore


def write_transcript(path, firm="AAPL", year=2020, quarter=1, utterances=None):
    if utterances is None:
        utterances = [
            {"index": 0, "speaker": "Tim Lane - Executives", "text": "Welcome to the call."},
            {"index": 1, "speaker": "Operator", "text": "[Operator Instructions]"},
            {"index": 2, "speaker": "Amy Noor - Analysts", "text": "Question on margins."},
        ]
    doc = {"firm": firm, "year": year, "quarter": quarter, "utterances": utterances}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def score_record(firm, year, quarter, value, **kwargs):
    defaults = dict(
        method=METHOD_SEMANTIC, tau=0.65, n_prev=5, n_curr=5, direction="retention"
    )
    defaults.update(kwargs)
    return MovingTargetsScore(
        firm=firm, period=YearQuarter(year, quarter), value=value, **defaults
    )


class TestYearQuarter:
    def test_ordering_is_lexicographic(self):
        assert YearQuarter(2020, 4) < YearQuarter(2021, 1)
        assert YearQuarter(2021, 2) > YearQuarter(2021, 1)

    def test_invalid_quarter_rejected(self):
        with pytest.raises(ValueError):
            YearQuarter(2020, 5)

    def test_shift_back_four_quarters_is_one_year(self):
        assert shift_quarters(YearQuarter(2025, 2), -4) == YearQuarter(2024, 2)

    def test_shift_carries_over_year_boundary(self):
        assert shift_quarters(YearQuarter(2010, 1), -1) == YearQuarter(2009, 4)

    def test_shift_forward_carry(self):
        assert shift_quarters(YearQuarter(2024, 3), 2) == YearQuarter(2025, 1)

    def test_shift_round_trip(self):
        for year in (1999, 2010, 2024):
            for quarter in (1, 2, 3, 4):
                t = YearQuarter(year, quarter)
                for k in range(-9, 10):
                    assert shift_quarters(shift_quarters(t, k), -k) == t


class TestMonth:
    def test_parse_and_format(self):
        assert str(Month.parse("2020-03")) == "2020-03"

    def test_parse_rejects_bad_format(self):
        with pytest.raises(CorpusError):
            Month.parse("2020/03")

    def test_shift_wraps_years(self):
        assert Month(2020, 1).shift(-1) == Month(2019, 12)
        assert Month(2020, 11).shift(3) == Month(2021, 2)

    def test_call_month_is_quarter_end(self):
        assert call_month(YearQuarter(2020, 1)) == Month(2020, 3)
        assert call_month(YearQuarter(2020, 4)) == Month(2020, 12)


class TestLoadTranscript:
    def test_parses_fixture_with_roles(self, tmp_path):
        path = write_transcript(tmp_path / "t.json")
        transcript = load_transcript(path)
        assert len(transcript) == 3
        assert [u.role for u in transcript.utterances] == ["executive", "operator", "analyst"]
        assert transcript.period == YearQuarter(2020, 1)

    def test_non_contiguous_indices_rejected(self, tmp_path):
        path = write_transcript(
            tmp_path / "t.json",
            utterances=[
                {"index": 0, "speaker": "Tim Lane - Executives", "text": "Hello."},
                {"index": 2, "speaker": "Amy Noor - Analysts", "text": "Question."},
            ],
        )
        with pytest.raises(CorpusError, match="non-contiguous"):
            load_transcript(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = write_transcript(
            tmp_path / "t.json",
            utterances=[
                {"index": 0, "speaker": "Tim Lane - Executives", "text": "Hello."},
                {"index": 0, "speaker": "Amy Noor - Analysts", "text": "Question."},
            ],
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_transcript(path)

    def test_empty_text_rejected(self, tmp_path):
        path = write_transcript(
            tmp_path / "t.json",
            utterances=[{"index": 0, "speaker": "Tim Lane - Executives", "text": "  "}],
        )
        with pytest.raises(CorpusError, match="empty utterance"):
            load_transcript(path)

    def test_unknown_speaker_tag_rejected(self, tmp_path):
        path = write_transcript(
            tmp_path / "t.json",
            utterances=[{"index": 0, "speaker": "Mystery Guest", "text": "Hi."}],
        )
        with pytest.raises(CorpusError, match="role"):
            load_transcript(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed"):
            load_transcript(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = write_transcript(tmp_path / "t.json")
        path.write_bytes(b"\xfb" + path.read_bytes()[1:])
        with pytest.raises(CorpusError, match="malformed"):
            load_transcript(path)

    @pytest.mark.parametrize("firm", ["../../escaped", "A/B", "A\\B", "AA\0PL"])
    def test_firm_id_with_path_separator_or_nul_rejected(self, tmp_path, firm):
        path = write_transcript(tmp_path / "t.json", firm=firm)
        with pytest.raises(CorpusError, match="path separator or NUL"):
            load_transcript(path)

    def test_infinite_year_or_index_rejected(self, tmp_path):
        path = write_transcript(tmp_path / "t.json", year=math.inf)
        with pytest.raises(CorpusError, match="malformed transcript header"):
            load_transcript(path)
        utterances = [{"index": math.inf, "speaker": "Operator", "text": "Hello."}]
        path = write_transcript(tmp_path / "u.json", utterances=utterances)
        with pytest.raises(CorpusError, match="malformed utterance"):
            load_transcript(path)

    def test_requires_at_least_one_utterance(self, tmp_path):
        path = write_transcript(tmp_path / "t.json", utterances=[])
        with pytest.raises(CorpusError):
            load_transcript(path)

    def test_nvda_fixture_mentions_data_center_revenue(self, small_corpus):
        path = next(small_corpus.transcripts_dir.glob("NVDA_*.json"))
        transcript = load_transcript(path)
        joined = " ".join(u.text for u in transcript.utterances)
        assert "Data Center revenue" in joined


class TestLoadReturns:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "firm,month,ret,mktcap,bm\nAAPL,2020-01,0.02,1000,0.5\nAAPL,2020-02,-0.01,990,0.52\n",
            encoding="utf-8",
        )
        table = load_returns(path)
        assert len(table.rows) == 2
        row = table.locate(np.array([table.code("AAPL")]), np.array([Month(2020, 2).index]))
        assert table.rets[row].tolist() == [-0.01]

    def test_duplicate_firm_month_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "firm,month,ret,mktcap,bm\nAAPL,2020-03,0.02,1000,0.5\nAAPL,2020-03,0.01,1000,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_returns(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("firm,month,ret,mktcap\nAAPL,2020-03,0.02,1000\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="bm"):
            load_returns(path)

    def test_unparseable_number_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "firm,month,ret,mktcap,bm\nAAPL,2020-03,abc,1000,0.5\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="unparseable"):
            load_returns(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"firm,month,ret,mktcap,bm\nAAPL,2020-03,0.02,1000,0.5\xe5\n")
        with pytest.raises(CorpusError, match="cannot read"):
            load_returns(path)

    def test_return_must_exceed_minus_one(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "firm,month,ret,mktcap,bm\nAAPL,2020-03,-1.0,1000,0.5\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="exceed -1"):
            load_returns(path)

    def test_nonpositive_characteristics_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "firm,month,ret,mktcap,bm\nAAPL,2020-03,0.01,1000,-0.5\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="positive"):
            load_returns(path)

    @pytest.mark.parametrize(
        "row, fields", [("AAPL,2020-03,0.01", 3), ("AAPL,2020-03,0.01,1000,0.5,7", 6)]
    )
    def test_row_without_a_field_per_column_rejected(self, tmp_path, row, fields):
        path = tmp_path / "returns.csv"
        path.write_text(
            f"firm,month,ret,mktcap,bm\nAAPL,2020-02,0.01,1000,0.5\n{row}\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match=f"line 3: expected 5 fields, got {fields}"):
            load_returns(path)

    def test_extra_columns_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text(
            "permno,firm,month,ret,mktcap,bm\n\n1,AAPL,2020-03,0.02,1000,0.5\n\n", encoding="utf-8"
        )
        assert load_returns(path).rows == (ReturnRow("AAPL", Month(2020, 3), 0.02, 1000.0, 0.5),)

    @pytest.mark.parametrize("month", ["2020-00", "2020-13"])
    def test_month_outside_the_year_rejected(self, tmp_path, month):
        path = tmp_path / "returns.csv"
        path.write_text(f"firm,month,ret,mktcap,bm\nAAPL,{month},0.01,1000,0.5\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="YYYY-MM"):
            load_returns(path)


class TestLoadFactors:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(
            "month,mkt_rf,smb,hml,mom,liq,rf\n"
            "2020-01,0.01,0.001,0.002,0.003,0.004,0.0002\n"
            "2020-02,-0.02,0.002,0.001,0.000,0.001,0.0002\n",
            encoding="utf-8",
        )
        factors = load_factors(path)
        assert factors.get(Month(2020, 2)).mkt_rf == -0.02

    def test_missing_liq_column_named(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(
            "month,mkt_rf,smb,hml,mom,rf\n2020-01,0.01,0.001,0.002,0.003,0.0002\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="liq"):
            load_factors(path)

    def test_duplicate_month_rejected(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(
            "month,mkt_rf,smb,hml,mom,liq,rf\n"
            "2020-01,0.01,0,0,0,0,0.0002\n2020-01,0.02,0,0,0,0,0.0002\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_factors(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text("month,mkt_rf,smb,hml,mom,liq,rf\n2020-01,0.01,0\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2: expected 7 fields, got 3"):
            load_factors(path)

    def test_month_gap_rejected(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(
            "month,mkt_rf,smb,hml,mom,liq,rf\n"
            "2020-01,0.01,0,0,0,0,0.0002\n2020-03,0.02,0,0,0,0,0.0002\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="contiguous"):
            load_factors(path)


def factor_row(month):
    return FactorRow(month, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0002)


class TestFactorSeries:
    def test_duplicate_month_rejected(self):
        rows = (factor_row(Month(2020, 1)), factor_row(Month(2020, 1)))
        with pytest.raises(CorpusError, match="duplicate factor row for 2020-01"):
            FactorSeries(rows)

    def test_gap_rejected(self):
        rows = (factor_row(Month(2020, 1)), factor_row(Month(2020, 3)))
        with pytest.raises(CorpusError, match="gap after 2020-01"):
            FactorSeries(rows)

    def test_get_finds_each_covered_month_and_no_other(self):
        months = [Month(2019, 11).shift(k) for k in range(4)]
        factors = FactorSeries.from_rows(reversed([factor_row(m) for m in months]))
        assert [factors.get(m).month for m in months] == months
        for outside in (Month(2019, 10), Month(2020, 3), Month(1, 1), Month(9999, 12)):
            assert factors.get(outside) is None
        assert FactorSeries.from_rows([]).get(Month(2020, 1)) is None


def make_returns(firm, start: Month, rets, mktcap=1000.0, bm=0.5):
    rows = []
    month = start
    for r in rets:
        rows.append(ReturnRow(firm=firm, month=month, ret=r, mktcap=mktcap, bm=bm))
        month = month.shift(1)
    return ReturnsTable.from_rows(rows)


def window_months(period, calendar):
    """``period``'s window, as Months, for a firm that calls in ``calendar``."""

    quarters = [p.year * 4 + p.quarter - 1 for p in calendar]
    columns = ScoreColumns(["AAPL"] * len(calendar), quarters, [0.5] * len(calendar))
    record, entry, exit_ = columns.holdings()
    i = record.tolist().index(calendar.index(period))
    return Month.from_index(int(entry[i])), Month.from_index(int(exit_[i]))


class TestHoldingWindow:
    def test_window_runs_to_next_call(self):
        entry, exit_ = window_months(
            YearQuarter(2020, 1), [YearQuarter(2020, 1), YearQuarter(2020, 2)]
        )
        assert entry == Month(2020, 4)
        assert exit_ == Month(2020, 6)

    def test_without_next_call_holds_three_months(self):
        entry, exit_ = window_months(YearQuarter(2020, 1), [YearQuarter(2020, 1)])
        assert entry == Month(2020, 4)
        assert exit_ == Month(2020, 6)

    def test_gap_to_next_call_extends_window(self):
        entry, exit_ = window_months(
            YearQuarter(2020, 1), [YearQuarter(2020, 1), YearQuarter(2020, 3)]
        )
        assert entry == Month(2020, 4)
        assert exit_ == Month(2020, 9)


class TestBuildPanel:
    def test_window_months_enumerated_by_holding_rule(self):
        # Call in March 2020, next call in June: rows for Apr, May, Jun.
        records = [
            score_record("AAPL", 2020, 1, 0.8),
            score_record("AAPL", 2020, 2, None, skipped_reason="missing_previous_call"),
        ]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24)
        result = build_panel(records, returns)
        months = [str(row.month) for row in result.rows]
        assert months == ["2020-04", "2020-05", "2020-06"]
        assert all(row.score == 0.8 for row in result.rows)

    def test_log_size_of_exp_ten_is_ten(self):
        records = [score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24, mktcap=math.exp(10.0))
        result = build_panel(records, returns)
        assert result.rows[0].log_size == pytest.approx(10.0, abs=1e-12)

    def test_controls_measured_at_call_month(self):
        rows = [
            ReturnRow("AAPL", Month(2020, 2), 0.01, mktcap=500.0, bm=0.4),
            ReturnRow("AAPL", Month(2020, 3), 0.01, mktcap=800.0, bm=0.6),
            ReturnRow("AAPL", Month(2020, 4), 0.02, mktcap=900.0, bm=0.7),
            ReturnRow("AAPL", Month(2020, 5), 0.02, mktcap=950.0, bm=0.7),
            ReturnRow("AAPL", Month(2020, 6), 0.02, mktcap=990.0, bm=0.7),
        ]
        returns = ReturnsTable.from_rows(rows)
        result = build_panel([score_record("AAPL", 2020, 1, 0.5)], returns)
        assert result.rows[0].log_size == pytest.approx(math.log(800.0))
        assert result.rows[0].log_bm == pytest.approx(math.log(0.6))

    def test_missing_lagged_history_flags_row_but_keeps_it(self):
        # Returns start 3 months before the first window month: Ret(-12,-1)
        # cannot be built and Ret(-1,0) can.
        records = [score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2020, 1), [0.01] * 8)
        result = build_panel(records, returns)
        assert len(result.rows) == 3
        assert result.rows[0].ret_12_1 is None
        assert result.rows[0].ret_1_0 == pytest.approx(0.01)
        assert result.diagnostics["rows_missing_controls"] == 3

    def test_trailing_controls_match_hand_computation(self):
        rets = [0.01 * (i + 1) for i in range(15)]
        returns = make_returns("AAPL", Month(2019, 4), rets)
        result = build_panel([score_record("AAPL", 2020, 1, 0.5)], returns)
        april = result.rows[0]
        assert str(april.month) == "2020-04"
        # months -12..-1 relative to April 2020 are Apr 2019..Mar 2020
        expected = compound_return(rets[0:12])
        assert april.ret_12_1 == pytest.approx(expected, abs=1e-12)
        assert april.ret_1_0 == pytest.approx(rets[11], abs=1e-12)

    def test_missing_return_rows_are_skipped_and_tallied(self):
        records = [score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2020, 4), [0.01, 0.02])  # no June return
        result = build_panel(records, returns)
        assert len(result.rows) == 2
        assert result.diagnostics["rows_skipped_no_return"] == 1
        assert (
            result.diagnostics["rows_emitted"] + result.diagnostics["rows_skipped_no_return"]
            == result.diagnostics["expected_rows"]
        )

    def test_emitted_logs_are_finite(self):
        records = [score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24)
        result = build_panel(records, returns)
        for row in result.rows:
            assert math.isfinite(row.log_size)
            assert math.isfinite(row.log_bm)

    def test_empty_returns_table_skips_every_month(self):
        result = build_panel([score_record("AAPL", 2020, 1, 0.5)], ReturnsTable.from_rows([]))
        assert result.rows == ()
        assert result.diagnostics == {
            "rows_emitted": 0,
            "rows_skipped_no_return": 3,
            "rows_missing_controls": 0,
            "months_without_factors": 0,
            "expected_rows": 3,
        }

    def test_firm_without_return_rows_gives_no_rows(self):
        records = [score_record("MSFT", 2020, 1, 0.9), score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24)
        result = build_panel(records, returns)
        assert [(row.firm, str(row.month)) for row in result.rows] == [
            ("AAPL", "2020-04"), ("AAPL", "2020-05"), ("AAPL", "2020-06")
        ]
        assert result.diagnostics["rows_skipped_no_return"] == 3

    def test_repeated_firm_quarter_holds_each_record_to_the_next_call(self):
        records = [
            score_record("AAPL", 2020, 1, 0.5),
            score_record("AAPL", 2020, 1, 0.7),
            score_record("AAPL", 2020, 2, None, skipped_reason="missing_previous_call"),
        ]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24)
        result = build_panel(records, returns)
        assert [(str(row.month), row.score) for row in result.rows] == [
            ("2020-04", 0.5), ("2020-05", 0.5), ("2020-06", 0.5),
            ("2020-04", 0.7), ("2020-05", 0.7), ("2020-06", 0.7),
        ]

    def test_skipped_call_between_scored_calls_closes_the_earlier_window(self):
        records = [
            score_record("AAPL", 2020, 3, 0.6),
            score_record("AAPL", 2020, 2, None, skipped_reason="empty_previous_targets"),
            score_record("AAPL", 2020, 1, 0.8),
        ]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 36)
        result = build_panel(records, returns)
        assert [(str(row.month), row.score) for row in result.rows] == [
            ("2020-04", 0.8), ("2020-05", 0.8), ("2020-06", 0.8),
            ("2020-10", 0.6), ("2020-11", 0.6), ("2020-12", 0.6),
        ]

    def test_factor_coverage_gap_counted(self, tmp_path):
        records = [score_record("AAPL", 2020, 1, 0.5)]
        returns = make_returns("AAPL", Month(2019, 1), [0.01] * 24)
        factors = FactorSeries.from_rows([])
        result = build_panel(records, returns, factors)
        assert result.diagnostics["months_without_factors"] == 3
