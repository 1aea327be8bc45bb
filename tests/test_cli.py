from __future__ import annotations

import csv
import json
import math
import shutil
import struct

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import (
    ENCODER_MODEL,
    EXTRACTOR_MODEL,
    cache_entry_vector,
    float_reprs,
    to_legacy_cache,
    write_cache_entry,
)
from movingtargets import backtest
from movingtargets import corpus as mt_corpus
from movingtargets import extract
from movingtargets.cli import PORTFOLIO_METRICS, SCORES_CSV_HEADER, _render_target_set, main
from movingtargets.embed import EmbeddingCache
from test_extract import JSON_TEXT


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, corpus, *args, out_dir):
    return runner.invoke(
        main, [*args, "--config", str(corpus.config_file), "--out-dir", str(out_dir)]
    )


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def written_files(root):
    """Each file under ``root``: its bytes, and the inode and mtime a rewrite would change."""

    return {
        path: (path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


# One of the small corpus's 3 x 8 transcripts fails.
PARTIAL_EXTRACTION_LINE = (
    "error: partial-extraction: 1 of 24 transcripts failed; see extract_diagnostics.json"
)


class TestExtractCommand:
    def test_offline_llm_extraction_writes_one_file_per_call(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        result = invoke(runner, small_corpus, "extract", "--method", "llm", out_dir=out)
        assert result.exit_code == 0, result.output
        files = sorted((out / "targets").glob("*.llm.json"))
        assert len(files) == 24  # 3 firms x 8 quarters
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert diagnostics["errors"] == []
        assert diagnostics["written"] == 24

    def test_both_methods_double_the_files(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        result = invoke(runner, small_corpus, "extract", "--method", "both", out_dir=out)
        assert result.exit_code == 0
        assert len(list((out / "targets").glob("*.json"))) == 48
        assert len(list((out / "targets").glob("*.baseline.json"))) == 24

    def test_corrupt_transcript_skipped_and_reported(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        bad = root / "transcripts" / "AAPL_2019Q1.json"
        bad.write_text("{broken", encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["extract", "--method", "llm", "--config", str(root / "config.yaml"), "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines()[-1] == PARTIAL_EXTRACTION_LINE
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert any(e["file"] == "AAPL_2019Q1.json" for e in diagnostics["errors"])
        assert len(list((out / "targets").glob("*.llm.json"))) == 23

    def test_lone_surrogate_in_transcript_is_per_file_error(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        bad = root / "transcripts" / "AAPL_2019Q1.json"
        doc = json.loads(bad.read_text(encoding="utf-8"))
        doc["utterances"][0]["text"] += " \ud800"
        # json.dumps writes the escape \ud800, which json.loads reads back as a lone surrogate.
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["extract", "--method", "both", "--config", str(root / "config.yaml"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [PARTIAL_EXTRACTION_LINE]
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert [e["file"] for e in diagnostics["errors"]] == ["AAPL_2019Q1.json"]
        assert "lone surrogate" in diagnostics["errors"][0]["error"]
        assert len(list((out / "targets").glob("*.llm.json"))) == 23
        assert len(list((out / "targets").glob("*.baseline.json"))) == 23

    def test_missing_recording_is_per_file_error(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        recordings = sorted((root / "recordings").glob("*.txt"))
        recordings[0].unlink()
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["extract", "--method", "llm", "--config", str(root / "config.yaml"), "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines()[-1] == PARTIAL_EXTRACTION_LINE
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert len(diagnostics["errors"]) == 1
        assert "no recorded response" in diagnostics["errors"][0]["error"]

    def test_oversized_index_in_recording_is_per_file_error(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        transcript = mt_corpus.load_transcript(root / "transcripts" / "AAPL_2020Q4.json")
        prompt = extract.build_extraction_prompt(transcript)
        key = extract.RecordingStore.key(EXTRACTOR_MODEL, prompt)
        index = "1" + "0" * 5000
        (root / "recordings" / f"{key}.txt").write_text(
            f'{{"presentation": [{{"target": "margins", "index": {index}}}], "analyst_qa": []}}',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["extract", "--config", str(root / "config.yaml"), "--out-dir", str(out)]
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines()[-1] == PARTIAL_EXTRACTION_LINE
        assert sum(line.startswith("error:") for line in result.stderr.splitlines()) == 1
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert [e["file"] for e in diagnostics["errors"]] == ["AAPL_2020Q4"]
        assert len(list((out / "targets").glob("*.llm.json"))) == 23
        assert len(list((out / "targets").glob("*.baseline.json"))) == 24

    def test_lone_surrogate_label_in_recording_is_dropped(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        transcript = mt_corpus.load_transcript(root / "transcripts" / "AAPL_2020Q4.json")
        prompt = extract.build_extraction_prompt(transcript)
        key = extract.RecordingStore.key(EXTRACTOR_MODEL, prompt)
        recording = root / "recordings" / f"{key}.txt"
        clean = tmp_path / "clean"
        result = invoke(runner, small_corpus, "extract", "--method", "llm", out_dir=clean)
        assert result.exit_code == 0, result.output
        response = json.loads(recording.read_text(encoding="utf-8"))
        response["presentation"].insert(0, {"target": "gross \ud800 margin", "index": 0})
        recording.write_text(json.dumps(response), encoding="utf-8")
        out = tmp_path / "out"
        config = ["--config", str(root / "config.yaml"), "--out-dir", str(out)]
        for command in ("extract", "score"):
            result = runner.invoke(main, [command, "--method", "llm", *config])
            assert result.exit_code == 0, result.output
        dropped = [
            json.loads((run / "extract_diagnostics.json").read_text())
            ["dropped_label_violations"]["llm"].get("malformed_item", 0)
            for run in (clean, out)
        ]
        assert dropped[1] == dropped[0] + 1
        name = "targets/AAPL_2020Q4.llm.json"
        assert (out / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("firm", ["../../escaped", "AA\0PL"])
    def test_firm_id_that_is_no_file_name_is_per_file_error(
        self, runner, small_corpus, tmp_path, firm
    ):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        bad = root / "transcripts" / "AAPL_2019Q1.json"
        doc = json.loads(bad.read_text(encoding="utf-8"))
        bad.write_text(json.dumps({**doc, "firm": firm}), encoding="utf-8")
        run = tmp_path / "run"
        out = run / "out"
        result = runner.invoke(
            main,
            ["extract", "--method", "baseline", "--config", str(root / "config.yaml"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [PARTIAL_EXTRACTION_LINE]
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert [e["file"] for e in diagnostics["errors"]] == ["AAPL_2019Q1.json"]
        written = [p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()]
        targets = [name for name in written if name.startswith("out/targets/")]
        assert len(targets) == 23
        assert sorted(set(written) - set(targets)) == ["out/extract_diagnostics.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "run"]

    def test_repeated_firm_quarter_keeps_the_first_file(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        transcripts = root / "transcripts"
        doc = json.loads((transcripts / "AAPL_2019Q1.json").read_text(encoding="utf-8"))
        for utterance in doc["utterances"]:
            utterance["text"] = "Thank you."
        (transcripts / "AAPL_2019Q1_copy.json").write_text(json.dumps(doc), encoding="utf-8")
        clean = tmp_path / "clean"
        result = invoke(runner, small_corpus, "extract", "--method", "baseline", out_dir=clean)
        assert result.exit_code == 0
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["extract", "--method", "baseline", "--config", str(root / "config.yaml"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "error: partial-extraction: 1 of 25 transcripts failed; see extract_diagnostics.json"
        ]
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        assert diagnostics["errors"] == [
            {"file": "AAPL_2019Q1_copy.json",
             "error": "repeats the firm-quarter of AAPL_2019Q1.json"}
        ]
        counts = [diagnostics[key] for key in ("transcripts", "parsed", "written")]
        assert counts == [25, 24, 24]
        name = "AAPL_2019Q1.baseline.json"
        assert (out / "targets" / name).read_bytes() == (clean / "targets" / name).read_bytes()

    def test_an_extractor_config_error_writes_nothing(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        out = tmp_path / "out"
        config = ["--config", str(root / "config.yaml"), "--out-dir", str(out)]
        assert runner.invoke(main, ["extract", "--method", "both", *config]).exit_code == 0
        before = written_files(out)
        (root / "transcripts" / "AAPL_2019Q1.json").unlink()
        doc = yaml.safe_load((root / "config.yaml").read_text(encoding="utf-8"))
        doc["offline"] = False
        doc["extractor"]["endpoint"] = "ftp://x"
        (root / "config.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
        result = runner.invoke(main, ["extract", "--method", "both", *config])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "error: invalid-config: endpoint must be an http(s)://host URL, got 'ftp://x'"
        ]
        assert written_files(out) == before

    def test_rerun_removes_sets_of_vanished_transcripts(self, runner, small_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus.root, root)
        config = str(root / "config.yaml")
        out = tmp_path / "out"
        for command in ("extract", "score"):
            result = runner.invoke(main, [command, "--config", config, "--out-dir", str(out)])
            assert result.exit_code == 0, result.output
        assert len(list((out / "targets").glob("*.json"))) == 48
        (root / "transcripts" / "AAPL_2020Q4.json").unlink()
        for command in ("extract", "score"):
            result = runner.invoke(main, [command, "--config", config, "--out-dir", str(out)])
            assert result.exit_code == 0, result.output
        assert len(list((out / "targets").glob("*.json"))) == 46
        assert not list((out / "targets").glob("AAPL_2020Q4.*"))
        rows = read_csv(out / "scores.csv")
        assert len(rows) == 46
        assert ("AAPL", "2020", "4") not in {(r["firm"], r["year"], r["quarter"]) for r in rows}

    def test_dropped_label_violations_tallied(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        invoke(runner, small_corpus, "extract", "--method", "llm", out_dir=out)
        diagnostics = json.loads((out / "extract_diagnostics.json").read_text())
        tallies = diagnostics["dropped_label_violations"]["llm"]
        # AAPL responses carry two digit items and one percent item per call
        assert tallies["digit"] == 2 * 8
        assert tallies["percent"] == 1 * 8

    def test_unusable_out_dir_is_one_io_error_line(self, runner, small_corpus, tmp_path):
        regular_file = tmp_path / "file"
        regular_file.write_text("", encoding="utf-8")
        result = invoke(runner, small_corpus, "extract", out_dir=regular_file / "sub")
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io-error: "), result.stderr


def run_extract_and_score(runner, corpus, out, *score_args, method="both"):
    result = invoke(runner, corpus, "extract", "--method", method, out_dir=out)
    assert result.exit_code == 0, result.output
    result = invoke(runner, corpus, "score", "--method", method, *score_args, out_dir=out)
    return result


class TestScoreCommand:
    def test_score_table_has_scored_and_skipped_rows(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        result = run_extract_and_score(runner, small_corpus, out)
        assert result.exit_code == 0, result.output
        header = (out / "scores.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "firm,year,quarter,method,tau,value,n_prev,n_curr,skipped_reason"
        rows = read_csv(out / "scores.csv")
        assert len(rows) == 48  # 24 calls x 2 methods
        semantic = [r for r in rows if r["method"] == "semantic"]
        scored = [r for r in semantic if r["value"]]
        skipped = [r for r in semantic if not r["value"]]
        assert len(scored) == 12 and len(skipped) == 12
        assert {r["skipped_reason"] for r in skipped} == {"missing_previous_call"}
        assert all(r["tau"] == "0.65" for r in semantic)

    def test_summary_written_per_method(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        summary = json.loads((out / "score_summary.json").read_text())
        assert set(summary) == {"semantic", "discrete"}
        assert summary["semantic"]["direction"] == "retention"
        assert summary["discrete"]["direction"] == "missing"
        assert summary["semantic"]["scoreable"] == 12

    def test_higher_tau_never_raises_semantic_scores(self, runner, small_corpus, tmp_path):
        out_lo = tmp_path / "lo"
        out_hi = tmp_path / "hi"
        run_extract_and_score(runner, small_corpus, out_lo, method="llm")
        run_extract_and_score(runner, small_corpus, out_hi, "--tau", "0.8", method="llm")

        def scored_map(out):
            return {
                (r["firm"], r["year"], r["quarter"]): float(r["value"])
                for r in read_csv(out / "scores.csv")
                if r["value"]
            }

        lo, hi = scored_map(out_lo), scored_map(out_hi)
        assert lo.keys() == hi.keys()
        for key in lo:
            assert hi[key] <= lo[key] + 1e-12

    def test_direction_override_flips_semantic_scores(self, runner, small_corpus, tmp_path):
        out_ret = tmp_path / "ret"
        out_mis = tmp_path / "mis"
        run_extract_and_score(runner, small_corpus, out_ret, method="llm")
        run_extract_and_score(
            runner, small_corpus, out_mis, "--direction", "missing", method="llm"
        )
        retention = {
            (r["firm"], r["year"], r["quarter"]): float(r["value"])
            for r in read_csv(out_ret / "scores.csv")
            if r["value"]
        }
        missing = {
            (r["firm"], r["year"], r["quarter"]): float(r["value"])
            for r in read_csv(out_mis / "scores.csv")
            if r["value"]
        }
        for key in retention:
            assert missing[key] == pytest.approx(1.0 - retention[key], abs=1e-12)

    def test_match_records_written(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        rows = read_csv(out / "score_matches.csv")
        assert rows, "expected per-target match records"
        semantic = [r for r in rows if r["method"] == "semantic"]
        assert all(r["best_similarity"] for r in semantic)
        assert {r["retained"] for r in rows} <= {"0", "1"}

    def test_score_without_extract_fails(self, runner, small_corpus, tmp_path):
        result = invoke(runner, small_corpus, "score", out_dir=tmp_path / "out")
        assert result.exit_code == 1
        assert "missing-target-sets" in result.output


class TestBacktestCommand:
    def test_full_pipeline_reports(self, runner, full_corpus, tmp_path):
        out = tmp_path / "out"
        assert run_extract_and_score(runner, full_corpus, out).exit_code == 0
        result = invoke(runner, full_corpus, "backtest", out_dir=out)
        assert result.exit_code == 0, result.output

        portfolios = read_csv(out / "backtest_portfolios.csv")
        methods = {r["method"] for r in portfolios}
        assert methods == {"semantic", "discrete"}
        metrics = {r["metric"] for r in portfolios}
        assert metrics == {"excess_return", "ff3_alpha", "five_factor_alpha"}
        assert len(portfolios) == 2 * 3 * 2  # methods x metrics x (value, t)
        assert all(r["Q5_Q1"] for r in portfolios)

        fm = read_csv(out / "backtest_fama_macbeth.csv")
        regressors = [r["regressor"] for r in fm if r["stat"] == "value"]
        assert regressors == [
            "moving_targets", "log_size", "log_bm", "ret_1_0", "ret_12_1",
            "constant", "r_squared", "n_obs", "n_months",
        ]

        plot = read_csv(out / "backtest_plot_data.csv")
        assert {r["model"] for r in plot} == {"llm", "baseline"}
        assert len(plot) == 6

        meta = json.loads((out / "backtest_meta.json").read_text())
        assert meta["semantic"]["direction"] == "retention"
        assert meta["discrete"]["extraction_method"] == "baseline"
        assert "Q5-Q1" in meta["semantic"]["spread_convention"]

    def test_single_method_omits_comparison_plot(self, runner, full_corpus, tmp_path):
        out = tmp_path / "out"
        plot = out / "backtest_plot_data.csv"
        assert run_extract_and_score(runner, full_corpus, out).exit_code == 0
        assert invoke(runner, full_corpus, "backtest", out_dir=out).exit_code == 0
        assert plot.exists()
        # One method requested: the two-method plot of the run before is removed.
        result = invoke(runner, full_corpus, "backtest", "--method", "llm", out_dir=out)
        assert result.exit_code == 0, result.output
        assert "comparison plot omitted" in result.output
        assert not plot.exists()

        assert invoke(runner, full_corpus, "backtest", out_dir=out).exit_code == 0
        assert plot.exists()
        # Both requested, but one scored: the plot is removed as well.
        assert run_extract_and_score(runner, full_corpus, out, method="llm").exit_code == 0
        result = invoke(runner, full_corpus, "backtest", out_dir=out)
        assert result.exit_code == 0, result.output
        assert "comparison plot omitted" in result.output
        assert not plot.exists()

    # Each firm scores its index in every quarter, so CRGO (firm 4) alone is
    # in Q3; its returns end at ``last_month``, leaving Q3 short of 24 months.
    @pytest.mark.parametrize("last_month, q3_months", [("2020-12", 9), ("2018-12", 0)])
    def test_quintile_short_of_factor_months_has_blank_cells(
        self, full_corpus, tmp_path, last_month, q3_months
    ):
        root = tmp_path / "corpus"
        shutil.copytree(full_corpus.root, root)
        rewrite_lines(root / "returns.csv", lambda lines: [
            line for line in lines
            if not (line.startswith("CRGO,") and line.split(",")[1] > last_month)
        ])
        out = tmp_path / "out"
        out.mkdir()
        with (out / "scores.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(SCORES_CSV_HEADER)
            for i, firm in enumerate(full_corpus.firms):
                for p in full_corpus.periods:
                    writer.writerow([firm, p.year, p.quarter, "semantic", 0.65, i, 10, 10, ""])
        args = ["--config", str(root / "config.yaml"), "--out-dir", str(out)]
        result = CliRunner().invoke(main, ["backtest", "--method", "llm", *args])
        assert result.exit_code == 0, result.output

        months = json.loads((out / "backtest_meta.json").read_text())["semantic"]["quintile_months"]
        assert months["3"] == q3_months
        assert min(months[q] for q in "1245") >= backtest.MIN_OVERLAP_MONTHS
        portfolios = read_csv(out / "backtest_portfolios.csv")
        assert len(portfolios) == 3 * 2
        for row in portfolios:
            assert row["Q3"] == ""
            assert all(row[column] for column in ("Q1", "Q2", "Q4", "Q5", "Q5_Q1"))

    def test_missing_returns_file_fails_cleanly(self, runner, full_corpus, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(full_corpus.root, root)
        (root / "returns.csv").unlink()
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["backtest", "--config", str(root / "config.yaml"), "--out-dir", str(out)]
        )
        assert result.exit_code == 1
        assert "missing-returns-data" in result.output

    def test_backtest_without_scores_fails(self, runner, full_corpus, tmp_path):
        result = invoke(runner, full_corpus, "backtest", out_dir=tmp_path / "out")
        assert result.exit_code == 1
        assert "missing-score-table" in result.output

    def test_insufficient_history_with_short_sample(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        result = invoke(runner, small_corpus, "backtest", out_dir=out)
        assert result.exit_code == 1
        assert "error:" in result.output


class TestReportFrequenciesCommand:
    def test_top_k_rows_per_method(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        result = invoke(runner, small_corpus, "report-frequencies", "--top-k", "1", out_dir=out)
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "frequencies.csv")
        assert len(rows) == 2  # one row per method
        assert all(r["rank"] == "1" for r in rows)

    def test_counts_sorted_descending(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        invoke(runner, small_corpus, "report-frequencies", out_dir=out)
        rows = read_csv(out / "frequencies.csv")
        for method in ("semantic", "discrete"):
            counts = [int(r["count"]) for r in rows if r["method"] == method]
            assert counts == sorted(counts, reverse=True)

    def test_repeated_row_is_an_error_naming_its_line(self, runner, small_corpus, tmp_path):
        out = tmp_path / "out"
        run_extract_and_score(runner, small_corpus, out)
        path = out / "score_matches.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([*lines, lines[-1]]), encoding="utf-8")
        result = invoke(runner, small_corpus, "report-frequencies", out_dir=out)
        assert result.exit_code == 1
        assert f"malformed-match-records: score_matches.csv: line {len(lines) + 1}: " in result.output
        assert not (out / "frequencies.csv").exists()

    def test_requires_match_records(self, runner, small_corpus, tmp_path):
        result = invoke(runner, small_corpus, "report-frequencies", out_dir=tmp_path / "out")
        assert result.exit_code == 1
        assert "missing-match-records" in result.output


class TestConfigValidation:
    def test_invalid_tau_exits_two(self, runner, small_corpus, tmp_path):
        result = invoke(
            runner, small_corpus, "score", "--tau", "1.5", out_dir=tmp_path / "out"
        )
        assert result.exit_code == 2
        assert "invalid-config" in result.output

    def test_unknown_config_key_exits_two(self, runner, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "transcripts_dir: t\nreturns_file: r.csv\nfactors_file: f.csv\nbogus: 1\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["extract", "--config", str(config)])
        assert result.exit_code == 2
        assert "invalid-config" in result.output

    def test_offline_extract_requires_recordings_dir(self, runner, small_corpus, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            f"transcripts_dir: {small_corpus.transcripts_dir}\n"
            f"returns_file: {small_corpus.returns_file}\n"
            f"factors_file: {small_corpus.factors_file}\n"
            "offline: true\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(
            main,
            ["extract", "--method", "llm", "--config", str(config), "--out-dir", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "recordings_dir" in result.output


@st.composite
def target_sets(draw):
    """Sets of any texts, sections and indices the set accepts, empty ones included."""

    labels = draw(
        st.lists(
            st.builds(
                extract.TargetLabel,
                JSON_TEXT.filter(extract.normalize_label),
                st.sampled_from(extract.SECTIONS),
                st.integers(0, 2**40),
            ),
            max_size=5,
            unique_by=lambda label: (label.section, extract.normalize_label(label.text)),
        )
    )
    period = mt_corpus.YearQuarter(draw(st.integers(0, 9999)), draw(st.integers(1, 4)))
    return extract.TargetSet(draw(JSON_TEXT), period, tuple(labels), draw(JSON_TEXT))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(target_sets())
def test_target_set_file_is_the_sorted_indented_json_dump(target_set):
    payload = {
        "firm": target_set.firm,
        "year": target_set.period.year,
        "quarter": target_set.period.quarter,
        "method": target_set.method,
        "labels": [
            {"text": label.text, "section": label.section, "source_index": label.source_index}
            for label in target_set.labels
        ],
    }
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _render_target_set(target_set) == expected


def test_portfolio_metrics_name_every_alpha_model():
    assert tuple(model for _, model in PORTFOLIO_METRICS) == backtest.ALPHA_MODELS


@pytest.fixture(scope="module")
def pipeline_out(full_corpus, tmp_path_factory):
    """A complete set of outputs: extract, score, backtest and report-frequencies."""

    out = tmp_path_factory.mktemp("pipeline") / "out"
    runner = CliRunner()
    for command in ("extract", "score", "backtest", "report-frequencies"):
        result = invoke(runner, full_corpus, command, out_dir=out)
        assert result.exit_code == 0, result.output
    return out


def rewrite_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def swap_last_two_fields(lines):
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    return lines[:1] + [",".join(row[:-2] + [row[-1], row[-2]]) + "\n" for row in rows]


def year_not_a_number(lines):
    firm, _, rest = lines[1].split(",", 2)
    return [lines[0], f"{firm},20x9,{rest}", *lines[2:]]


def rename_label_column(lines):
    return [lines[0].replace("label", "target"), *lines[1:]]


def short_row(lines):
    return [lines[0], ",".join(lines[1].split(",")[:2]) + "\n", *lines[2:]]


def set_field(column, value, **match):
    """A corruption that sets ``column`` to ``value`` in the first CSV row that holds ``match``."""

    def corrupt(path):
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        row = next(r for r in rows if match.items() <= r.items())
        row[column] = value
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    return corrupt


def extra_field(lines):
    return [lines[0], lines[1].rstrip("\n") + ",7\n", *lines[2:]]


def edit_json(edit):
    """A corruption that applies ``edit`` to the parsed document and writes it back."""

    def corrupt(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return corrupt


# (file, corruption, command, error code). The file is named relative to a
# copy of the pipeline's outputs, which also holds the copy of the corpus
# that the command runs on, under ``corpus/``.
CORRUPT_INPUTS = {
    "corrupt-summary": (
        "score_summary.json", lambda path: path.write_text("{not json", encoding="utf-8"),
        "backtest", "malformed-score-summary",
    ),
    "summary-root-is-a-list": (
        "score_summary.json", lambda path: path.write_text("[]\n", encoding="utf-8"),
        "backtest", "malformed-score-summary",
    ),
    "summary-direction-unknown": (
        "score_summary.json", edit_json(lambda doc: doc["semantic"].update(direction="up")),
        "backtest", "malformed-score-summary",
    ),
    "summary-direction-absent": (
        "score_summary.json", edit_json(lambda doc: doc["discrete"].pop("direction")),
        "backtest", "malformed-score-summary",
    ),
    "summary-direction-is-a-list": (
        "score_summary.json",
        edit_json(lambda doc: doc["semantic"].update(direction=["retention"])),
        "backtest", "malformed-score-summary",
    ),
    "matches-columns-swapped": (
        "score_matches.csv", lambda path: rewrite_lines(path, swap_last_two_fields),
        "report-frequencies", "malformed-match-records",
    ),
    "matches-empty": (
        "score_matches.csv", lambda path: path.write_text("", encoding="utf-8"),
        "report-frequencies", "malformed-match-records",
    ),
    "matches-wrong-header": (
        "score_matches.csv", lambda path: rewrite_lines(path, rename_label_column),
        "report-frequencies", "malformed-match-records",
    ),
    # ``score`` writes each row after the one before it, so a repeat would be
    # counted twice.
    "matches-repeated-row": (
        "score_matches.csv",
        lambda path: rewrite_lines(path, lambda lines: [*lines[:3], lines[2], *lines[3:]]),
        "report-frequencies", "malformed-match-records",
    ),
    "matches-rows-out-of-order": (
        "score_matches.csv",
        lambda path: rewrite_lines(path, lambda lines: [lines[0], lines[2], lines[1], *lines[3:]]),
        "report-frequencies", "malformed-match-records",
    ),
    "scores-year-not-a-number": (
        "scores.csv", lambda path: rewrite_lines(path, year_not_a_number),
        "backtest", "malformed-score-table",
    ),
    "scores-short-row": (
        "scores.csv", lambda path: rewrite_lines(path, short_row),
        "backtest", "malformed-score-table",
    ),
    "scores-value-nan": (
        "scores.csv", set_field("value", "nan", method="semantic", firm="AAPL", year="2021"),
        "backtest", "malformed-score-table",
    ),
    "scores-value-inf": (
        "scores.csv", set_field("value", "inf", method="semantic", firm="AAPL", year="2021"),
        "backtest", "malformed-score-table",
    ),
    "returns-short-row": (
        "corpus/returns.csv", lambda path: rewrite_lines(path, short_row),
        "backtest", "malformed-input",
    ),
    "returns-extra-field": (
        "corpus/returns.csv", lambda path: rewrite_lines(path, extra_field),
        "backtest", "malformed-input",
    ),
    "returns-month-13": (
        "corpus/returns.csv", set_field("month", "2019-13", firm="AAPL", month="2019-06"),
        "backtest", "malformed-input",
    ),
    # A Q3 2021 holding month: the variance of its portfolio's series overflows.
    "returns-huge-holding-month": (
        "corpus/returns.csv", set_field("ret", "1e200", firm="AAPL", month="2021-06"),
        "backtest", "backtest-error",
    ),
    # Before any holding month: only the trailing 12-month return of later rows
    # overflows, to an infinite regressor of the cross-sectional regressions.
    "returns-huge-trailing-months": (
        "corpus/returns.csv",
        lambda path: [
            set_field("ret", "1e200", firm="AAPL", month=month)(path)
            for month in ("2019-04", "2019-05")
        ],
        "backtest", "backtest-error",
    ),
    "factors-short-row": (
        "corpus/factors.csv", lambda path: rewrite_lines(path, short_row),
        "backtest", "malformed-input",
    ),
    # A fifth field is a planted value: the error must end with its file and line.
    "returns-month-00-names-its-line": (
        "corpus/returns.csv", set_field("month", "2020-00", firm="NVDA", month="2020-02"),
        "backtest", "malformed-input", "2020-00",
    ),
    "factors-month-13-names-its-line": (
        "corpus/factors.csv", set_field("month", "2019-13", month="2019-06"),
        "backtest", "malformed-input", "2019-13",
    ),
    # The second row of a month is the repeated one.
    "returns-duplicate-row-names-its-line": (
        "corpus/returns.csv",
        lambda path: [
            set_field("ret", "0.0424242", firm="NVDA", month="2020-03")(path),
            set_field("month", "2020-02", firm="NVDA", ret="0.0424242")(path),
        ],
        "backtest", "malformed-input", "0.0424242",
    ),
    "factors-duplicate-row-names-its-line": (
        "corpus/factors.csv",
        lambda path: [
            set_field("liq", "0.0424242", month="2019-07")(path),
            set_field("month", "2019-06", liq="0.0424242")(path),
        ],
        "backtest", "malformed-input", "0.0424242",
    ),
    # The later of two rows for one firm-quarter and method is named.
    "scores-repeated-row-names-its-line": (
        "scores.csv",
        lambda path: [
            set_field(
                "tau", "0.6542424", firm="AAPL", year="2021", quarter="2", method="semantic"
            )(path),
            set_field("quarter", "1", tau="0.6542424")(path),
        ],
        "backtest", "malformed-score-table", "0.6542424",
    ),
    # The first row after the gap is named.
    "factors-gap-names-its-line": (
        "corpus/factors.csv",
        lambda path: rewrite_lines(path, lambda lines: [
            line for line in lines if not line.startswith("2019-06,")
        ]),
        "backtest", "malformed-input", "2019-07",
    ),
    "target-set-repeats-firm-quarter": (
        "targets/AAPL_2019Q1.llm.json",
        lambda path: shutil.copy(path, path.with_name("copy.llm.json")),
        "score", "malformed-target-set",
    ),
    "target-set-blank-label": (
        "targets/AAPL_2019Q1.llm.json",
        edit_json(lambda doc: doc["labels"][0].update(text="   ")),
        "score", "malformed-target-set",
    ),
    "target-set-label-lone-surrogate": (
        "targets/AAPL_2019Q1.llm.json",
        edit_json(lambda doc: doc["labels"][0].update(text="gross \ud800 margin")),
        "score", "malformed-target-set",
    ),
    "target-set-firm-is-an-int": (
        "targets/AAPL_2019Q1.llm.json", edit_json(lambda doc: doc.update(firm=7)),
        "score", "malformed-target-set",
    ),
    "target-set-firm-is-a-list": (
        "targets/AAPL_2019Q1.llm.json", edit_json(lambda doc: doc.update(firm=["AAPL"])),
        "score", "malformed-target-set",
    ),
    "target-set-method-not-the-files": (
        "targets/AAPL_2019Q1.llm.json", edit_json(lambda doc: doc.update(method="baseline")),
        "score", "malformed-target-set",
    ),
    "target-set-year-is-infinite": (
        "targets/AAPL_2019Q1.llm.json", edit_json(lambda doc: doc.update(year=math.inf)),
        "score", "malformed-target-set",
    ),
    # No other set holds 1990Q1.
    "target-set-quarter-not-the-files": (
        "targets/AAPL_2019Q1.llm.json", edit_json(lambda doc: doc.update(year=1990)),
        "score", "malformed-target-set",
    ),
}


def snapshot(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def copy_outputs_and_corpus(full_corpus, pipeline_out, out):
    """Copy the pipeline's outputs to ``out`` and the corpus to ``out / "corpus"``.

    No command reads a subdirectory of the outputs but ``targets/``.
    """

    shutil.copytree(pipeline_out, out)
    shutil.copytree(full_corpus.root, out / "corpus")
    return ["--config", str(out / "corpus" / "config.yaml"), "--out-dir", str(out)]


@pytest.mark.parametrize("case", sorted(CORRUPT_INPUTS))
def test_malformed_input_gives_one_error_line_and_keeps_outputs(
    full_corpus, pipeline_out, tmp_path, case
):
    name, corrupt, command, code, *planted = CORRUPT_INPUTS[case]
    out = tmp_path / "out"
    options = copy_outputs_and_corpus(full_corpus, pipeline_out, out)
    corrupt(out / name)
    before = snapshot(out)
    result = CliRunner().invoke(main, [command, *options])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: {code}: ")
    for value in planted:
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        line = next(n for n, text in enumerate(lines, 1) if value in text)
        assert result.stderr.endswith(f" at {out / name}:{line}\n"), result.stderr
    assert snapshot(out) == before


# Corruptions of the cache entry of a label that ``score`` reads. Each of
# CORRUPT_CACHE_VECTORS edits the vector's float reprs into the vector line of
# a legacy text entry, which replaces the binary entry; each of
# CORRUPT_CACHE_BYTES edits the vector bytes of the binary entry.
CORRUPT_CACHE_VECTORS = {
    "non-numeric-token": lambda tokens: ["abc", *tokens[1:]],
    "empty-vector-line": lambda tokens: [],
    "all-zero-vector": lambda tokens: ["0.0"] * len(tokens),
    "nan-component": lambda tokens: ["nan", *tokens[1:]],
}
CORRUPT_CACHE_BYTES = {
    "f64-empty-vector": lambda data: b"",
    "f64-all-zero-vector": lambda data: bytes(len(data)),
    "f64-nan-component": lambda data: struct.pack("<d", math.nan) + data[8:],
    "f64-length-not-a-multiple-of-8": lambda data: data[:-3],
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CACHE_VECTORS | CORRUPT_CACHE_BYTES))
def test_corrupt_cache_entry_gives_one_error_line_and_keeps_outputs(
    full_corpus, pipeline_out, tmp_path, case
):
    root = tmp_path / "corpus"
    shutil.copytree(full_corpus.root, root)
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    label = next(r["label"] for r in read_csv(out / "score_matches.csv") if r["method"] == "semantic")
    vector = cache_entry_vector(root / "embedding_cache", label)
    if case in CORRUPT_CACHE_BYTES:
        corrupted = CORRUPT_CACHE_BYTES[case](vector)
    else:
        corrupted = " ".join(CORRUPT_CACHE_VECTORS[case](float_reprs(vector).split()))
    write_cache_entry(root / "embedding_cache", label, corrupted)
    before = snapshot(out)
    result = CliRunner().invoke(
        main, ["score", "--config", str(root / "config.yaml"), "--out-dir", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: embedding-error: "), result.stderr
    assert snapshot(out) == before
    if case in CORRUPT_CACHE_VECTORS:
        # The broken legacy entry was not upgraded to a binary one.
        key = EmbeddingCache.key(ENCODER_MODEL, label)
        assert not (root / "embedding_cache" / f"{key}.f64").exists()


def test_score_outputs_are_byte_identical_from_a_legacy_text_cache(
    full_corpus, pipeline_out, tmp_path
):
    root = tmp_path / "corpus"
    shutil.copytree(full_corpus.root, root)
    cache_dir = root / "embedding_cache"
    entries = to_legacy_cache(cache_dir)
    assert entries > 0
    assert not list(cache_dir.glob("*.f64"))
    out = tmp_path / "out"
    shutil.copytree(pipeline_out / "targets", out / "targets")
    # The first run reads every text entry and upgrades it. The second reads
    # the binary entries alone, with the text entries gone.
    for run in ("text", "upgraded"):
        if run == "upgraded":
            assert len(list(cache_dir.glob("*.f64"))) == entries
            for path in cache_dir.glob("*.txt"):
                path.unlink()
        result = CliRunner().invoke(
            main, ["score", "--config", str(root / "config.yaml"), "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        for name in ("scores.csv", "score_matches.csv", "score_summary.json"):
            assert (out / name).read_bytes() == (pipeline_out / name).read_bytes(), (run, name)


def assert_clean_exit(result, exits=(0, 1)):
    """The exit contract: an allowed code and, on failure, one ``error:`` line."""

    assert isinstance(result.exception, (type(None), SystemExit)), result.exception
    assert result.exit_code in exits
    if result.exit_code:
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def mutations(original):
    """Truncations and single-byte flips of ``original``."""

    index = st.integers(0, len(original) - 1)
    truncated = index.map(lambda n: original[:n])
    flipped = st.tuples(index, st.integers(1, 255)).map(
        lambda flip: original[: flip[0]]
        + bytes([original[flip[0]] ^ flip[1]])
        + original[flip[0] + 1 :]
    )
    return truncated | flipped


# (file, command), the file named as in CORRUPT_INPUTS. A mutated config may
# also exit 2, ``invalid-config``.
FUZZED_INPUTS = [
    ("scores.csv", ["backtest"]),
    ("score_matches.csv", ["report-frequencies"]),
    ("score_summary.json", ["backtest"]),
    ("targets/*.llm.json", ["score", "--method", "llm"]),
    ("corpus/config.yaml", ["score", "--method", "baseline"]),
    ("corpus/transcripts/*.json", ["extract", "--method", "baseline"]),
    ("corpus/returns.csv", ["backtest"]),
    ("corpus/factors.csv", ["backtest"]),
]


@pytest.mark.parametrize("pattern, command", FUZZED_INPUTS)
def test_mutated_input_exits_cleanly(full_corpus, pipeline_out, tmp_path, pattern, command):
    out = tmp_path / "out"
    args = [*command, *copy_outputs_and_corpus(full_corpus, pipeline_out, out)]
    path = sorted(out.glob(pattern))[0]
    exits = (0, 1, 2) if path.name == "config.yaml" else (0, 1)
    original = path.read_bytes()
    runner = CliRunner()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(mutations(original))
    def check(mutated):
        path.write_bytes(mutated)
        assert_clean_exit(runner.invoke(main, args), exits)

    check()


JSON_VALUES = (
    st.integers()
    | st.floats()
    | st.booleans()
    | st.none()
    | st.text()
    | st.lists(st.integers() | st.text(), max_size=3)
)

def set_target_set_field(key):
    return lambda doc, value: doc.update({key: value})


# case -> (file, command, function that puts a value into the parsed file)
REPLACED_FIELDS = {
    **{
        f"target-set-{key}": (
            "targets/AAPL_2019Q1.llm.json", ["score", "--method", "llm"], set_target_set_field(key)
        )
        for key in ("firm", "year", "quarter", "method")
    },
    "summary-direction": (
        "score_summary.json", ["backtest"],
        lambda doc, value: doc["semantic"].update(direction=value),
    ),
}


@pytest.mark.parametrize("case", sorted(REPLACED_FIELDS))
def test_replaced_field_exits_cleanly(full_corpus, pipeline_out, tmp_path, case):
    name, command, replace = REPLACED_FIELDS[case]
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = out / name
    original = path.read_text(encoding="utf-8")
    runner = CliRunner()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def check(value):
        path.write_text(original, encoding="utf-8")
        edit_json(lambda doc: replace(doc, value))(path)
        assert_clean_exit(invoke(runner, full_corpus, *command, out_dir=out))

    check()
