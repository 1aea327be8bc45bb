"""Pipeline commands: extract, score, backtest, report-frequencies.

Commands compose via files under the configured output directory so the
expensive extraction stage never reruns while iterating on tau or backtest
settings:

    extract  -> targets/<firm>_<period>.<method>.json, extract_diagnostics.json
    score    -> scores.csv, score_matches.csv, score_summary.json
    backtest -> backtest_portfolios.csv, backtest_fama_macbeth.csv,
                backtest_plot_data.csv, backtest_meta.json
    report-frequencies -> frequencies.csv

Outputs carry no timestamps; two offline runs over identical inputs write
byte-identical files. Each output file is replaced atomically (written to
``<name>.<pid>.tmp``, then renamed), so a crash leaves the old file or
none, never a partial one.

Exit codes: 0 success, 1 (partial) failure, 2 invalid configuration. Every
error path prints a single line ``error: <code>: <detail>`` to stderr.
Exit 2: ``invalid-config``. Exit 1: ``missing-transcripts``,
``missing-target-sets``, ``malformed-target-set``, ``zero-scoreable``,
``missing-returns-data``, ``missing-factors-data``, ``missing-score-table``,
``malformed-score-table``, ``malformed-score-summary``,
``insufficient-history``, ``insufficient-quintile-coverage``,
``insufficient-month-overlap``, ``insufficient-months``,
``missing-match-records``, ``malformed-match-records``, and for errors
raised below the CLI ``malformed-input``, ``extraction-error``,
``embedding-error`` and ``backtest-error`` (see ``_ERRORS``).
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, Sequence, TextIO, TypeVar

import click

from . import backtest as bt
from . import corpus, embed, extract, score
from .config import (
    ENCODER_API_KEY_ENV,
    EXTRACTOR_API_KEY_ENV,
    ConfigError,
    RunConfig,
    load_config,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

EXTRACTION_TO_SCORING = {
    extract.METHOD_LLM: score.METHOD_SEMANTIC,
    extract.METHOD_BASELINE: score.METHOD_DISCRETE,
}
SCORING_TO_EXTRACTION = {v: k for k, v in EXTRACTION_TO_SCORING.items()}

SCORES_CSV_HEADER = (
    "firm",
    "year",
    "quarter",
    "method",
    "tau",
    "value",
    "n_prev",
    "n_curr",
    "skipped_reason",
)
MATCHES_CSV_HEADER = ("firm", "year", "quarter", "method", "label", "best_similarity", "retained")

PORTFOLIO_METRICS = (
    ("excess_return", bt.MODEL_EXCESS),
    ("ff3_alpha", bt.MODEL_FF3),
    ("five_factor_alpha", bt.MODEL_FIVE_FACTOR),
)

SPREAD_CONVENTION = (
    "alpha of the monthly Q5-Q1 spread series; the spread is treated as "
    "self-financing, so no risk-free rate is deducted from it"
)
DIRECTION_NOTE = (
    "direction determines the economic reading of a sort: retention means "
    "high values = targets kept, missing means high values = targets dropped; "
    "compare methods only under a common direction"
)


class CliError(Exception):
    """Pipeline failure with a machine-parseable code."""

    def __init__(self, code: str, detail: str, exit_code: int = EXIT_FAILURE) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.exit_code = exit_code


def _fail(error: CliError) -> NoReturn:
    detail = " ".join(str(error.detail).split())
    click.echo(f"error: {error.code}: {detail}", err=True)
    sys.exit(error.exit_code)


def _resolve_methods(flag: str) -> list[str]:
    if flag == "both":
        return [extract.METHOD_BASELINE, extract.METHOD_LLM]
    return [flag]


def _period_tag(period: corpus.YearQuarter) -> str:
    return f"{period.year:04d}Q{period.quarter}"


def _targets_dir(config: RunConfig) -> Path:
    return config.out_dir / "targets"


def _target_set_path(targets_dir: Path, firm: str, period: corpus.YearQuarter, method: str) -> Path:
    return targets_dir / f"{firm}_{_period_tag(period)}.{method}.json"


# ---------------------------------------------------------------------------
# file layer: every output goes through _atomic_write, every input through
# _read_csv or _read_json


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    """Let ``write`` fill a temp file, then rename it over ``path``."""

    # The temp name is per process, so concurrent runs never share it, and it
    # does not end in ".json", so target-set globs never match it. ``write``
    # streams rows into the file, so a large CSV is never held in memory.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: object) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, lambda handle: handle.write(text))


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


T = TypeVar("T")

# What a malformed input file can raise while it is read or parsed; decode
# errors are ValueErrors.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, csv.Error)


def _read_csv(
    path: Path, header: Sequence[str], code: str, parse: Callable[[dict[str, str]], T]
) -> list[T]:
    """Parse every row of a CSV that has exactly ``header`` as its columns."""

    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != list(header):
                raise ValueError(f"expected header {','.join(header)}")
            records = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                records.append(parse(dict(zip(header, row))))
            return records
    except _READ_ERRORS as exc:
        raise CliError(code, f"{path.name}: {exc}") from exc


def _read_json(path: Path, code: str, parse: Callable[[Any], T]) -> T:
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except _READ_ERRORS as exc:
        raise CliError(code, f"{path.name}: {exc}") from exc


def _write_target_set(path: Path, target_set: extract.TargetSet) -> None:
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
    _write_json(path, payload)


def _parse_target_set(doc: Any) -> extract.TargetSet:
    labels = tuple(
        extract.TargetLabel(item["text"], item["section"], int(item["source_index"]))
        for item in doc["labels"]
    )
    return extract.TargetSet(
        firm=doc["firm"],
        period=corpus.YearQuarter(int(doc["year"]), int(doc["quarter"])),
        labels=labels,
        method=doc["method"],
    )


# ---------------------------------------------------------------------------
# extract


def _build_extractor_client(config: RunConfig) -> extract.ExtractorClient:
    settings = config.extractor
    if config.offline:
        if settings.recordings_dir is None:
            raise ConfigError("offline extraction requires extractor.recordings_dir")
        store = extract.RecordingStore(settings.recordings_dir)
        return extract.ReplayExtractorClient(store, settings.model_id)
    if not settings.endpoint:
        raise ConfigError("online extraction requires extractor.endpoint")
    client: extract.ExtractorClient = extract.HttpChatCompletionClient(
        settings.endpoint,
        settings.model_id,
        api_key=os.environ.get(EXTRACTOR_API_KEY_ENV),
    )
    if settings.rate_limit is not None:
        client = extract.RateLimitedExtractorClient(
            client, extract.TokenBucket(settings.rate_limit)
        )
    return client


def cmd_extract(config: RunConfig, extraction_methods: Sequence[str]) -> int:
    """Extract target sets for every transcript and requested method."""

    transcripts_dir = config.transcripts_dir
    if not transcripts_dir.is_dir():
        raise CliError("missing-transcripts", f"transcripts dir not found: {transcripts_dir}")
    files = sorted(transcripts_dir.glob("*.json"))
    if not files:
        raise CliError("missing-transcripts", f"no transcript files in {transcripts_dir}")

    targets_dir = _targets_dir(config)
    targets_dir.mkdir(parents=True, exist_ok=True)

    errors: list[dict[str, str]] = []
    transcripts: list[corpus.Transcript] = []
    for path in files:
        try:
            transcripts.append(corpus.load_transcript(path))
        except corpus.CorpusError as exc:
            errors.append({"file": path.name, "error": str(exc).replace(str(path), path.name)})

    violations: dict[str, Counter] = {m: Counter() for m in extraction_methods}
    written = 0

    if extract.METHOD_BASELINE in extraction_methods:
        for transcript in transcripts:
            target_set = extract.extract_targets_baseline(transcript)
            _write_target_set(
                _target_set_path(targets_dir, transcript.firm, transcript.period, "baseline"),
                target_set,
            )
            written += 1

    if extract.METHOD_LLM in extraction_methods:
        client = _build_extractor_client(config)

        def run(transcript: corpus.Transcript):
            try:
                return transcript, extract.extract_targets_llm(transcript, client), None
            except (extract.ExtractionError, OSError) as exc:
                return transcript, None, str(exc)

        with ThreadPoolExecutor(max_workers=config.extractor.parallelism) as pool:
            outcomes = list(pool.map(run, transcripts))
        for transcript, outcome, error in outcomes:
            if outcome is None:
                errors.append(
                    {
                        "file": f"{transcript.firm}_{_period_tag(transcript.period)}",
                        "error": error or "extraction failed",
                    }
                )
                continue
            violations[extract.METHOD_LLM].update(outcome.violations)
            _write_target_set(
                _target_set_path(targets_dir, transcript.firm, transcript.period, "llm"),
                outcome.target_set,
            )
            written += 1

    diagnostics = {
        "transcripts": len(files),
        "parsed": len(transcripts),
        "written": written,
        "errors": sorted(errors, key=lambda e: (e["file"], e["error"])),
        "dropped_label_violations": {
            method: dict(sorted(counts.items())) for method, counts in violations.items()
        },
    }
    _write_json(config.out_dir / "extract_diagnostics.json", diagnostics)
    click.echo(
        f"extract: {written} target-set files from {len(transcripts)} transcripts "
        f"({len(errors)} errors)"
    )
    return EXIT_FAILURE if errors else EXIT_OK


# ---------------------------------------------------------------------------
# score


def _build_embedder(config: RunConfig) -> score.Embedder:
    settings = config.encoder
    if settings.cache_dir is None:
        raise ConfigError("semantic scoring requires encoder.cache_dir")
    cache = embed.EmbeddingCache(settings.cache_dir)
    client: embed.EncoderClient | None = None
    if not config.offline:
        if not settings.endpoint:
            raise ConfigError("online scoring requires encoder.endpoint")
        client = embed.HttpEncoderClient(
            settings.endpoint,
            settings.model_id,
            api_key=os.environ.get(ENCODER_API_KEY_ENV),
        )

    def embedder(texts: Sequence[str]) -> list[embed.EmbeddingVector]:
        return embed.embed_labels(
            texts,
            client,
            cache,
            model_id=settings.model_id,
            batch_size=settings.batch_size,
        )

    return embedder


def _format_optional(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_scores_csv(path: Path, directions: dict[str, str]) -> list[score.MovingTargetsScore]:
    def parse(row: dict[str, str]) -> score.MovingTargetsScore:
        method = row["method"]
        return score.MovingTargetsScore(
            firm=row["firm"],
            period=corpus.YearQuarter(int(row["year"]), int(row["quarter"])),
            value=float(row["value"]) if row["value"] else None,
            method=method,
            tau=float(row["tau"]) if row["tau"] else None,
            n_prev=int(row["n_prev"]) if row["n_prev"] else None,
            n_curr=int(row["n_curr"]) if row["n_curr"] else None,
            direction=directions.get(method, _default_direction(method)),
            skipped_reason=row["skipped_reason"] or None,
        )

    return _read_csv(path, SCORES_CSV_HEADER, "malformed-score-table", parse)


def _default_direction(method: str) -> str:
    return score.DIRECTION_RETENTION if method == score.METHOD_SEMANTIC else score.DIRECTION_MISSING


def cmd_score(config: RunConfig, extraction_methods: Sequence[str]) -> int:
    """Score extracted target sets against the year-earlier call."""

    targets_dir = _targets_dir(config)
    all_records: list[score.MovingTargetsScore] = []
    all_matches: list[score.CorpusMatch] = []
    summaries: dict[str, score.ScoreSummary] = {}

    for extraction_method in extraction_methods:
        scoring_method = EXTRACTION_TO_SCORING[extraction_method]
        files = sorted(targets_dir.glob(f"*.{extraction_method}.json"))
        if not files:
            raise CliError(
                "missing-target-sets",
                f"no {extraction_method} target-set files under {targets_dir}; run extract first",
            )
        target_sets = []
        for path in files:
            target_sets.append(_read_json(path, "malformed-target-set", _parse_target_set))

        embedder = None
        if scoring_method == score.METHOD_SEMANTIC:
            embedder = _build_embedder(config)
        result = score.score_corpus(
            target_sets,
            config.tau,
            scoring_method,
            embedder=embedder,
            direction=config.direction,
            empty_current=config.empty_current,
        )
        all_records.extend(result.records)
        all_matches.extend(result.matches)
        summaries[scoring_method] = result.summary

    if all(s.scoreable == 0 for s in summaries.values()):
        raise CliError("zero-scoreable", "no firm-quarter could be scored")

    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        config.out_dir / "scores.csv",
        SCORES_CSV_HEADER,
        (
            [r.firm, r.period.year, r.period.quarter, r.method]
            + [_format_optional(v) for v in (r.tau, r.value, r.n_prev, r.n_curr)]
            + [r.skipped_reason or ""]
            for r in sorted(all_records, key=lambda r: (r.firm, r.period, r.method))
        ),
    )
    _write_csv(
        config.out_dir / "score_matches.csv",
        MATCHES_CSV_HEADER,
        (
            [m.firm, m.period.year, m.period.quarter, m.method, m.label]
            + [_format_optional(m.best_similarity), int(m.retained)]
            for m in sorted(all_matches, key=lambda m: (m.firm, m.period, m.method, m.label))
        ),
    )

    summary_payload = {
        method: {
            "direction": s.direction,
            "tau": s.tau,
            "scoreable": s.scoreable,
            "skipped": s.skipped,
            "mean": s.mean,
            "sd": s.sd,
            "targets_per_call": s.targets_per_call,
            "presentation_per_call": s.presentation_per_call,
            "qa_per_call": s.qa_per_call,
        }
        for method, s in summaries.items()
    }
    _write_json(config.out_dir / "score_summary.json", summary_payload)

    for method in sorted(summaries):
        s = summaries[method]
        mean = "n/a" if s.mean is None else f"{s.mean:.4f}"
        sd = "n/a" if s.sd is None else f"{s.sd:.4f}"
        click.echo(
            f"score[{method}] direction={s.direction} tau={_format_optional(s.tau) or 'n/a'} "
            f"scoreable={s.scoreable} skipped={s.skipped} mean={mean} sd={sd} "
            f"targets/call={s.targets_per_call:.2f} "
            f"(presentation {s.presentation_per_call:.2f}, qa {s.qa_per_call:.2f})"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# backtest


def _try_alpha(
    series: bt.MonthlySeries | None,
    factors: corpus.FactorSeries,
    model: str,
    *,
    subtract_rf: bool,
) -> bt.AlphaEstimate | None:
    if series is None:
        return None
    try:
        return bt.factor_alpha(series, factors, model, subtract_rf=subtract_rf)
    except bt.InsufficientOverlapError:
        return None


def _read_summary_directions(config: RunConfig) -> dict[str, str]:
    path = config.out_dir / "score_summary.json"
    if not path.is_file():
        return {}
    return _read_json(
        path,
        "malformed-score-summary",
        lambda doc: {method: info.get("direction", "") for method, info in doc.items()},
    )


def cmd_backtest(config: RunConfig, extraction_methods: Sequence[str]) -> int:
    """Portfolio sorts, factor alphas, and cross-sectional regressions."""

    if not config.returns_file.is_file():
        raise CliError("missing-returns-data", f"missing returns data: {config.returns_file}")
    if not config.factors_file.is_file():
        raise CliError("missing-factors-data", f"missing factors data: {config.factors_file}")
    scores_path = config.out_dir / "scores.csv"
    if not scores_path.is_file():
        raise CliError("missing-score-table", f"missing score table: {scores_path}; run score first")

    returns = corpus.load_returns(config.returns_file)
    factors = corpus.load_factors(config.factors_file)
    directions = _read_summary_directions(config)
    records = _read_scores_csv(scores_path, directions)
    requested = [EXTRACTION_TO_SCORING[m] for m in extraction_methods]
    methods = [
        m
        for m in (score.METHOD_DISCRETE, score.METHOD_SEMANTIC)
        if m in requested and any(r.method == m for r in records)
    ]
    if not methods:
        raise CliError("missing-score-table", "score table has no rows for the requested methods")

    portfolio_rows: list[list[str]] = []
    fm_results: dict[str, bt.FamaMacbethResult] = {}
    plot_rows: list[tuple[str, str, float]] = []
    meta: dict[str, dict] = {}

    for method in methods:
        method_records = [r for r in records if r.method == method]
        assignment_result = bt.build_assignments(method_records)
        if not assignment_result.assignments:
            raise CliError(
                "insufficient-history",
                f"{method}: no firm-quarter has enough score history for quintile assignment",
            )
        ct = bt.calendar_time_returns(assignment_result.assignments, returns)

        quintile_alphas: dict[int, dict[str, bt.AlphaEstimate | None]] = {}
        for q in range(1, 6):
            series = ct.series.get(q)
            quintile_alphas[q] = {
                model: _try_alpha(series, factors, model, subtract_rf=True)
                for _, model in PORTFOLIO_METRICS
            }

        q5 = ct.series.get(5)
        q1 = ct.series.get(1)
        if q5 is None or q1 is None:
            raise CliError(
                "insufficient-quintile-coverage",
                f"{method}: Q1 or Q5 has no calendar-time months",
            )
        try:
            spread = bt.long_short_spread(q5, q1)
            spread_alphas = {
                model: bt.factor_alpha(spread, factors, model, subtract_rf=False)
                for _, model in PORTFOLIO_METRICS
            }
        except bt.InsufficientOverlapError as exc:
            raise CliError("insufficient-month-overlap", f"{method}: {exc}") from exc

        for metric_name, model in PORTFOLIO_METRICS:
            estimates = [quintile_alphas[q][model] for q in range(1, 6)]
            spread_estimate = spread_alphas[model]
            portfolio_rows.append(
                [method, metric_name, "value"]
                + ["" if e is None else f"{e.alpha:.4f}" for e in estimates]
                + [f"{spread_estimate.alpha:.4f}"]
            )
            portfolio_rows.append(
                [method, metric_name, "t_stat"]
                + ["" if e is None else f"{e.t_stat:.2f}" for e in estimates]
                + [f"{spread_estimate.t_stat:.2f}"]
            )

        panel = corpus.build_panel(method_records, returns, factors)
        try:
            fm_results[method] = bt.fama_macbeth(panel.rows)
        except bt.BacktestError as exc:
            raise CliError("insufficient-months", f"{method}: {exc}") from exc

        for metric_name, model in PORTFOLIO_METRICS:
            plot_rows.append((SCORING_TO_EXTRACTION[method], metric_name, spread_alphas[model].alpha))

        meta[method] = {
            "extraction_method": SCORING_TO_EXTRACTION[method],
            "direction": directions.get(method, _default_direction(method)),
            "direction_note": DIRECTION_NOTE,
            "spread_convention": SPREAD_CONVENTION,
            "spread_months": len(spread),
            "quintile_months": {
                str(q): len(ct.series[q]) if q in ct.series else 0 for q in range(1, 6)
            },
            "unassignable_quarters": assignment_result.unassignable,
            "degenerate_spread_t": sorted(
                metric for metric, model in PORTFOLIO_METRICS if spread_alphas[model].degenerate
            ),
            "panel_diagnostics": dict(panel.diagnostics),
            "fama_macbeth_dropped_months": [str(m) for m in fm_results[method].dropped_months],
            "fama_macbeth_degenerate": list(fm_results[method].degenerate),
        }

    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        config.out_dir / "backtest_portfolios.csv",
        ["method", "metric", "stat", "Q1", "Q2", "Q3", "Q4", "Q5", "Q5_Q1"],
        portfolio_rows,
    )

    fm_rows: list[list[str]] = []
    for i, regressor in enumerate(bt.FM_REGRESSORS):
        fm_rows.append(
            [regressor, "value"] + [f"{fm_results[m].mean_coefficients[i]:.4f}" for m in methods]
        )
        fm_rows.append(
            [regressor, "t_stat"] + [f"{fm_results[m].t_stats[i]:.2f}" for m in methods]
        )
    fm_rows.append(["r_squared", "value"] + [f"{fm_results[m].avg_r_squared:.4f}" for m in methods])
    fm_rows.append(["n_obs", "value"] + [str(fm_results[m].n_obs) for m in methods])
    fm_rows.append(["n_months", "value"] + [str(fm_results[m].n_months) for m in methods])
    _write_csv(
        config.out_dir / "backtest_fama_macbeth.csv", ["regressor", "stat"] + methods, fm_rows
    )

    if len(methods) >= 2:
        _write_csv(
            config.out_dir / "backtest_plot_data.csv",
            ["model", "metric", "value"],
            ([model, metric, f"{value:.4f}"] for model, metric, value in plot_rows),
        )
    else:
        click.echo("notice: comparison plot omitted (single method)")

    _write_json(config.out_dir / "backtest_meta.json", meta)
    for method in methods:
        click.echo(
            f"backtest[{method}] spread_months={meta[method]['spread_months']} "
            f"fm_months={fm_results[method].n_months} fm_n={fm_results[method].n_obs}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report-frequencies


def cmd_report_frequencies(config: RunConfig, extraction_methods: Sequence[str], top_k: int) -> int:
    """Top-K most frequently dropped targets per scoring method."""

    if top_k < 1:
        raise ConfigError("top-k must be at least 1")
    matches_path = config.out_dir / "score_matches.csv"
    if not matches_path.is_file():
        raise CliError(
            "missing-match-records", f"missing match records: {matches_path}; run score first"
        )

    def parse(row: dict[str, str]) -> tuple[str, str, str]:
        if row["retained"] not in ("0", "1"):
            raise ValueError(f"retained must be 0 or 1, got {row['retained']!r}")
        return row["method"], row["label"], row["retained"]

    requested = {EXTRACTION_TO_SCORING[m] for m in extraction_methods}
    counts: dict[str, Counter] = {}
    matches = _read_csv(matches_path, MATCHES_CSV_HEADER, "malformed-match-records", parse)
    for method, label, retained in matches:
        if method in requested and retained == "0":
            counts.setdefault(method, Counter())[label] += 1

    rows: list[list[object]] = []
    for method in sorted(counts):
        ranked = sorted(counts[method].items(), key=lambda item: (-item[1], item[0]))[:top_k]
        rows.extend([method, rank, label, count] for rank, (label, count) in enumerate(ranked, 1))
        click.echo(f"frequencies[{method}]: {len(ranked)} rows")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(config.out_dir / "frequencies.csv", ["method", "rank", "target", "count"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# click wiring


# Exceptions raised below the CLI, most specific first:
# (exception type, error code, exit code).
_ERRORS: tuple[tuple[type[Exception], str, int], ...] = (
    (ConfigError, "invalid-config", EXIT_CONFIG),
    (corpus.CorpusError, "malformed-input", EXIT_FAILURE),
    (extract.ExtractionError, "extraction-error", EXIT_FAILURE),
    (embed.EmbeddingError, "embedding-error", EXIT_FAILURE),
    (bt.BacktestError, "backtest-error", EXIT_FAILURE),
)


def _run(
    command: Callable[..., int],
    config_path: str,
    method: str,
    *args: object,
    out_dir: str | None = None,
    **overrides: object,
) -> None:
    """Load the config, apply the overrides, run ``command`` and exit with its code."""

    try:
        config = load_config(config_path).with_overrides(
            out_dir=Path(out_dir) if out_dir else None, **overrides
        )
        code = command(config, _resolve_methods(method), *args)
    except CliError as exc:
        _fail(exc)
    except tuple(kind for kind, _, _ in _ERRORS) as exc:
        _fail(next(CliError(c, str(exc), x) for kind, c, x in _ERRORS if isinstance(exc, kind)))
    if code != EXIT_OK:
        sys.exit(code)


config_option = click.option(
    "--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False)
)
method_option = click.option(
    "--method", type=click.Choice(["llm", "baseline", "both"]), default="both", show_default=True
)
out_dir_option = click.option("--out-dir", type=click.Path(file_okay=False), default=None)
offline_option = click.option("--offline", is_flag=True, default=False)


@click.group()
def main() -> None:
    """Earnings-call target-drift pipeline."""


@main.command("extract")
@config_option
@method_option
@out_dir_option
@offline_option
def extract_command(config_path: str, method: str, out_dir: str | None, offline: bool) -> None:
    """Extract target sets from every transcript."""

    _run(cmd_extract, config_path, method, out_dir=out_dir, offline=offline or None)


@main.command("score")
@config_option
@method_option
@out_dir_option
@offline_option
@click.option("--tau", type=float, default=None)
@click.option("--direction", type=click.Choice(["retention", "missing"]), default=None)
def score_command(
    config_path: str,
    method: str,
    out_dir: str | None,
    offline: bool,
    tau: float | None,
    direction: str | None,
) -> None:
    """Compute drift scores for extracted target sets."""

    _run(
        cmd_score,
        config_path,
        method,
        out_dir=out_dir,
        tau=tau,
        direction=direction,
        offline=offline or None,
    )


@main.command("backtest")
@config_option
@method_option
@out_dir_option
def backtest_command(config_path: str, method: str, out_dir: str | None) -> None:
    """Run portfolio sorts and cross-sectional regressions on scores."""

    _run(cmd_backtest, config_path, method, out_dir=out_dir)


@main.command("report-frequencies")
@config_option
@method_option
@out_dir_option
@click.option("--top-k", type=int, default=20, show_default=True)
def report_frequencies_command(
    config_path: str, method: str, out_dir: str | None, top_k: int
) -> None:
    """Report the most frequently dropped targets."""

    _run(cmd_report_frequencies, config_path, method, top_k, out_dir=out_dir)


if __name__ == "__main__":
    main()
