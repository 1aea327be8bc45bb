from __future__ import annotations

import csv
import json
import shutil

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import ENCODER_MODEL
from movingtargets.cli import main
from movingtargets.embed import EmbeddingCache


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
        run_extract_and_score(runner, full_corpus, out, method="llm")
        result = invoke(runner, full_corpus, "backtest", "--method", "llm", out_dir=out)
        assert result.exit_code == 0, result.output
        assert "comparison plot omitted" in result.output
        assert not (out / "backtest_plot_data.csv").exists()

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


CORRUPT_INPUTS = {
    "corrupt-summary": (
        "score_summary.json", lambda path: path.write_text("{not json", encoding="utf-8"),
        "backtest", "malformed-score-summary",
    ),
    "summary-root-is-a-list": (
        "score_summary.json", lambda path: path.write_text("[]\n", encoding="utf-8"),
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
    "scores-year-not-a-number": (
        "scores.csv", lambda path: rewrite_lines(path, year_not_a_number),
        "backtest", "malformed-score-table",
    ),
    "scores-short-row": (
        "scores.csv", lambda path: rewrite_lines(path, short_row),
        "backtest", "malformed-score-table",
    ),
}


def snapshot(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CORRUPT_INPUTS))
def test_malformed_input_gives_one_error_line_and_keeps_outputs(
    full_corpus, pipeline_out, tmp_path, case
):
    name, corrupt, command, code = CORRUPT_INPUTS[case]
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    corrupt(out / name)
    before = snapshot(out)
    result = invoke(CliRunner(), full_corpus, command, out_dir=out)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: {code}: ")
    assert snapshot(out) == before


CORRUPT_CACHE_VECTORS = {
    "non-numeric-token": lambda tokens: ["abc", *tokens[1:]],
    "empty-vector-line": lambda tokens: [],
    "all-zero-vector": lambda tokens: ["0.0"] * len(tokens),
    "nan-component": lambda tokens: ["nan", *tokens[1:]],
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CACHE_VECTORS))
def test_corrupt_cache_entry_gives_one_error_line_and_keeps_outputs(
    full_corpus, pipeline_out, tmp_path, case
):
    root = tmp_path / "corpus"
    shutil.copytree(full_corpus.root, root)
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    label = next(r["label"] for r in read_csv(out / "score_matches.csv") if r["method"] == "semantic")
    entry = root / "embedding_cache" / f"{EmbeddingCache.key(ENCODER_MODEL, label)}.txt"
    model_id, cached_label, vector = entry.read_text(encoding="utf-8").splitlines()
    tokens = CORRUPT_CACHE_VECTORS[case](vector.split())
    entry.write_text("\n".join([model_id, cached_label, " ".join(tokens)]) + "\n", encoding="utf-8")
    before = snapshot(out)
    result = CliRunner().invoke(
        main, ["score", "--config", str(root / "config.yaml"), "--out-dir", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: embedding-error: "), result.stderr
    assert snapshot(out) == before


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


FUZZED_INPUTS = [
    ("scores.csv", ["backtest"]),
    ("score_matches.csv", ["report-frequencies"]),
    ("score_summary.json", ["backtest"]),
    ("targets/*.llm.json", ["score", "--method", "llm"]),
]


@pytest.mark.parametrize("pattern, command", FUZZED_INPUTS)
def test_mutated_input_exits_cleanly(full_corpus, pipeline_out, tmp_path, pattern, command):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = sorted(out.glob(pattern))[0]
    original = path.read_bytes()
    runner = CliRunner()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(mutations(original))
    def check(mutated):
        path.write_bytes(mutated)
        result = invoke(runner, full_corpus, *command, out_dir=out)
        assert isinstance(result.exception, (type(None), SystemExit)), result.exception
        assert result.exit_code in (0, 1)
        if result.exit_code:
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr

    check()
