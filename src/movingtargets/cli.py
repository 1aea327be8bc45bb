"""Pipeline commands: extract, score, backtest, report-frequencies.

Commands compose via files under the configured output directory so the
expensive extraction stage never reruns while iterating on tau or backtest
settings:

    extract  -> targets/<firm>_<period>.<method>.json, extract_diagnostics.json
    score    -> scores.csv, score_matches.csv, score_summary.json
    backtest -> backtest_portfolios.csv, backtest_fama_macbeth.csv,
                backtest_plot_data.csv, backtest_meta.json
    report-frequencies -> frequencies.csv

Outputs carry no timestamps; two offline runs over identical inputs, with
one BLAS kernel, write byte-identical files. ``fileio`` replaces each output
file atomically (written to ``<name>.<pid>.tmp``, then renamed), so a crash
leaves the old file or none, never a partial one.

Exit codes: 0 success, 1 (partial) failure, 2 invalid configuration. Every
error path prints a single line ``error: <code>: <detail>`` to stderr.
Exit 2: ``invalid-config``. Exit 1: ``missing-transcripts``,
``partial-extraction``, ``missing-target-sets``, ``malformed-target-set``,
``zero-scoreable``, ``missing-returns-data``, ``missing-factors-data``,
``missing-score-table``, ``malformed-score-table``,
``malformed-score-summary``, ``insufficient-history``,
``insufficient-quintile-coverage``, ``insufficient-month-overlap``,
``insufficient-months``, ``missing-match-records``,
``malformed-match-records``, and for errors raised below the CLI
``malformed-input``, ``extraction-error``, ``embedding-error``,
``backtest-error`` and ``io-error`` (see ``_ERRORS``).

Each command imports the stages it runs when it runs, so ``extract`` and
``report-frequencies`` never load numpy, ``backtest`` loads neither the
extractor nor the encoder, and only the online HTTP clients load http.client.
Before any stage loads numpy, the group sets ``OPENBLAS_NUM_THREADS=1``
unless the caller set it: no stage runs a product large enough to gain from
a BLAS thread pool, and starting one costs more than a backtest's numerics.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence, TypeVar

import click

from . import fileio
from .config import (
    DIRECTION_MISSING,
    DIRECTION_RETENTION,
    ENCODER_API_KEY_ENV,
    EXTRACTOR_API_KEY_ENV,
    METHOD_BASELINE,
    METHOD_DISCRETE,
    METHOD_LLM,
    METHOD_SEMANTIC,
    ConfigError,
    RunConfig,
    default_direction,
    load_config,
)

if TYPE_CHECKING:
    from . import backtest as bt
    from . import corpus, embed, extract, score

EXIT_FAILURE = 1
EXIT_CONFIG = 2

# (extraction method, scoring method), in the order every command runs them.
METHODS = (
    (METHOD_BASELINE, METHOD_DISCRETE),
    (METHOD_LLM, METHOD_SEMANTIC),
)

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

# (metric, alpha model). The models are those of ``backtest.ALPHA_MODELS``,
# written out so that this table does not import the backtest and numpy.
PORTFOLIO_METRICS = (
    ("excess_return", "excess"),
    ("ff3_alpha", "ff3"),
    ("five_factor_alpha", "five_factor"),
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


def _resolve_methods(flag: str) -> list[tuple[str, str]]:
    return [pair for pair in METHODS if flag in ("both", pair[0])]


def _targets_dir(config: RunConfig) -> Path:
    return config.out_dir / "targets"


# ---------------------------------------------------------------------------
# input files: ``fileio`` reads them, and a malformed one fails with ``code``

T = TypeVar("T")

# What a malformed input file can raise while it is read or parsed; decode
# errors are ValueErrors, and int() of an infinite float is an OverflowError.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _read_csv(
    path: Path, header: Sequence[str], code: str, visit: Callable[[dict[str, str], int], None]
) -> None:
    """``visit(record, line number)`` of each row, as the file streams; no row is kept."""

    try:
        rows = fileio.read_rows(path, header)
        next(rows)
        for line, row in rows:
            visit(dict(zip(header, row)), line)
    except _READ_ERRORS as exc:
        raise CliError(code, f"{path.name}: {exc}") from exc


def _read_json(path: Path, code: str, parse: Callable[[Any], T]) -> T:
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except _READ_ERRORS as exc:
        raise CliError(code, f"{path.name}: {exc}") from exc


def _target_set_name(target_set: extract.TargetSet) -> str:
    return f"{target_set.firm}_{target_set.period}.{target_set.method}.json"


# A target-set file is ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``
# of {firm, labels: [{section, source_index, text}], method, quarter, year},
# rendered by hand: with an indent, ``json.dumps`` runs its pure-Python encoder.
_TARGET_SET_FILE = (
    '{\n  "firm": %s,\n  "labels": %s,\n  "method": %s,\n  "quarter": %d,\n  "year": %d\n}\n'
)
_TARGET_LABEL = '    {\n      "section": %s,\n      "source_index": %d,\n      "text": %s\n    }'


def _render_target_set(target_set: extract.TargetSet) -> str:
    """The text of ``target_set``'s file, as ``json.dumps`` writes it (see ``_TARGET_SET_FILE``)."""

    quote = encode_basestring_ascii
    labels = ",\n".join(
        _TARGET_LABEL % (quote(label.section), label.source_index, quote(label.text))
        for label in target_set.labels
    )
    return _TARGET_SET_FILE % (
        quote(target_set.firm),
        f"[\n{labels}\n  ]" if labels else "[]",
        quote(target_set.method),
        target_set.period.quarter,
        target_set.period.year,
    )


def _write_target_set(targets_dir: Path, target_set: extract.TargetSet) -> str:
    """Write ``target_set`` under ``targets_dir`` and return the file's name."""

    name = _target_set_name(target_set)
    text = _render_target_set(target_set)
    fileio.replace(targets_dir / name, lambda handle: handle.write(text))
    return name


def _parse_target_set(doc: Any) -> extract.TargetSet:
    from . import corpus, extract

    labels = tuple(
        extract.TargetLabel(item["text"], item["section"], int(item["source_index"]))
        for item in doc["labels"]
    )
    for label in labels:
        if not fileio.encodes_as_utf8(label.text):
            raise ValueError(f"label {label.text!r} holds a lone surrogate, not UTF-8")
    return extract.TargetSet(
        firm=str(doc["firm"]),
        period=corpus.YearQuarter(int(doc["year"]), int(doc["quarter"])),
        labels=labels,
        method=doc["method"],
    )


# ---------------------------------------------------------------------------
# extract


def _build_extractor_client(config: RunConfig) -> extract.ExtractorClient:
    from . import extract

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


def cmd_extract(config: RunConfig, methods: Sequence[tuple[str, str]]) -> None:
    """Extract target sets for every transcript and requested method."""

    from concurrent.futures import ThreadPoolExecutor

    from . import corpus, extract

    extraction_methods = [extraction for extraction, _ in methods]
    transcripts_dir = config.transcripts_dir
    if not transcripts_dir.is_dir():
        raise CliError("missing-transcripts", f"transcripts dir not found: {transcripts_dir}")
    files = sorted(transcripts_dir.glob("*.json"))
    if not files:
        raise CliError("missing-transcripts", f"no transcript files in {transcripts_dir}")

    # A configuration error of the extractor ends the run before anything is written.
    client = _build_extractor_client(config) if METHOD_LLM in extraction_methods else None
    targets_dir = _targets_dir(config)
    targets_dir.mkdir(parents=True, exist_ok=True)

    errors: list[dict[str, str]] = []
    transcripts: list[corpus.Transcript] = []
    # The first file in sorted order holds a firm-quarter; a later one is an error.
    first_file: dict[tuple[str, corpus.YearQuarter], str] = {}
    for path in files:
        try:
            transcript = corpus.load_transcript(path)
        except corpus.CorpusError as exc:
            errors.append({"file": path.name, "error": str(exc).replace(str(path), path.name)})
            continue
        first = first_file.setdefault((transcript.firm, transcript.period), path.name)
        if first != path.name:
            errors.append({"file": path.name, "error": f"repeats the firm-quarter of {first}"})
            continue
        transcripts.append(transcript)

    violations: dict[str, Counter] = {m: Counter() for m in extraction_methods}
    written: set[str] = set()

    if METHOD_BASELINE in extraction_methods:
        for transcript in transcripts:
            target_set = extract.extract_targets_baseline(transcript)
            written.add(_write_target_set(targets_dir, target_set))

    if client is not None:

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
                        "file": f"{transcript.firm}_{transcript.period}",
                        "error": error or "extraction failed",
                    }
                )
                continue
            violations[METHOD_LLM].update(outcome.violations)
            written.add(_write_target_set(targets_dir, outcome.target_set))

    # Sets of transcripts that are gone, or failed this time, must not be scored.
    for method in extraction_methods:
        for path in targets_dir.glob(f"*.{method}.json"):
            if path.name not in written:
                path.unlink()

    diagnostics = {
        "transcripts": len(files),
        "parsed": len(transcripts),
        "written": len(written),
        "errors": sorted(errors, key=lambda e: (e["file"], e["error"])),
        "dropped_label_violations": {
            method: dict(sorted(counts.items())) for method, counts in violations.items()
        },
    }
    fileio.write_json(config.out_dir / "extract_diagnostics.json", diagnostics)
    click.echo(
        f"extract: {len(written)} target-set files from {len(transcripts)} transcripts "
        f"({len(errors)} errors)"
    )
    if errors:
        raise CliError(
            "partial-extraction",
            f"{len(errors)} of {len(files)} transcripts failed; see extract_diagnostics.json",
        )


# ---------------------------------------------------------------------------
# score


def _build_embedder(config: RunConfig) -> score.Embedder:
    from . import embed

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


def _read_scores_csv(
    path: Path, directions: dict[str, str]
) -> dict[str, list[corpus.MovingTargetsScore]]:
    """Each method's score records, in file order; a firm-quarter repeated in a method fails."""

    from . import corpus

    by_method: dict[str, dict[tuple[str, corpus.YearQuarter], corpus.MovingTargetsScore]] = {}

    def parse(row: dict[str, str], line: int) -> None:
        method = row["method"]
        value = row["value"]
        record = corpus.MovingTargetsScore(
            firm=row["firm"],
            period=corpus.YearQuarter(int(row["year"]), int(row["quarter"])),
            value=corpus.finite_float(value, "value", f"line {line}") if value else None,
            method=method,
            tau=float(row["tau"]) if row["tau"] else None,
            n_prev=int(row["n_prev"]) if row["n_prev"] else None,
            n_curr=int(row["n_curr"]) if row["n_curr"] else None,
            direction=directions.get(method, default_direction(method)),
            skipped_reason=row["skipped_reason"] or None,
        )
        held = by_method.setdefault(method, {})
        key = (record.firm, record.period)
        if key in held:
            what = f"{record.firm} {record.period} {method}"
            raise ValueError(f"second row for {what} at {path}:{line}")
        held[key] = record

    _read_csv(path, SCORES_CSV_HEADER, "malformed-score-table", parse)
    return {method: list(held.values()) for method, held in by_method.items()}


def cmd_score(config: RunConfig, methods: Sequence[tuple[str, str]]) -> None:
    """Score extracted target sets against the year-earlier call."""

    from . import score

    targets_dir = _targets_dir(config)
    all_records: list[score.MovingTargetsScore] = []
    all_matches: list[score.CorpusMatch] = []
    summaries: dict[str, score.ScoreSummary] = {}

    for extraction_method, scoring_method in methods:
        files = sorted(targets_dir.glob(f"*.{extraction_method}.json"))
        if not files:
            raise CliError(
                "missing-target-sets",
                f"no {extraction_method} target-set files under {targets_dir}; run extract first",
            )
        target_sets = []
        for path in files:
            target_set = _read_json(path, "malformed-target-set", _parse_target_set)
            # A file's name is that of the set it holds, so no two files hold one set.
            if path.name != _target_set_name(target_set):
                raise CliError(
                    "malformed-target-set",
                    f"{path.name} holds the set of {_target_set_name(target_set)}",
                )
            target_sets.append(target_set)

        embedder = None
        if scoring_method == METHOD_SEMANTIC:
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
    fileio.write_csv(
        config.out_dir / "scores.csv",
        SCORES_CSV_HEADER,
        (
            [r.firm, r.period.year, r.period.quarter, r.method]
            + [_format_optional(v) for v in (r.tau, r.value, r.n_prev, r.n_curr)]
            + [r.skipped_reason or ""]
            for r in sorted(all_records, key=lambda r: (r.firm, r.period, r.method))
        ),
    )
    fileio.write_csv(
        config.out_dir / "score_matches.csv",
        MATCHES_CSV_HEADER,
        (
            [m.firm, m.period.year, m.period.quarter, m.method, m.label]
            + [_format_optional(m.best_similarity), int(m.retained)]
            for m in sorted(all_matches, key=lambda m: (m.firm, m.period, m.method, m.label))
        ),
    )

    fileio.write_json(
        config.out_dir / "score_summary.json",
        {
            method: {k: v for k, v in dataclasses.asdict(s).items() if k != "method"}
            for method, s in summaries.items()
        },
    )

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


# ---------------------------------------------------------------------------
# backtest


def _read_summary_directions(config: RunConfig) -> dict[str, str]:
    path = config.out_dir / "score_summary.json"
    if not path.is_file():
        return {}

    def parse(doc: Any) -> dict[str, str]:
        directions = {method: info.get("direction") for method, info in doc.items()}
        for method, direction in directions.items():
            if direction not in (DIRECTION_RETENTION, DIRECTION_MISSING):
                raise ValueError(f"{method}: direction {direction!r} is not retention or missing")
        return directions

    return _read_json(path, "malformed-score-summary", parse)


def cmd_backtest(config: RunConfig, methods: Sequence[tuple[str, str]]) -> None:
    """Portfolio sorts, factor alphas, and cross-sectional regressions."""

    from . import backtest as bt
    from . import corpus

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
    methods = [(e, m) for e, m in methods if m in records]
    if not methods:
        raise CliError("missing-score-table", "score table has no rows for the requested methods")

    portfolio_rows: list[list[str]] = []
    fm_results: dict[str, bt.FamaMacbethResult] = {}
    plot_rows: list[list[str]] = []
    meta: dict[str, dict] = {}

    for extraction_method, method in methods:
        assignment_result = bt.build_assignments(records[method])
        if not assignment_result.assignments:
            raise CliError(
                "insufficient-history",
                f"{method}: no firm-quarter has enough score history for quintile assignment",
            )
        ct = bt.calendar_time_returns(assignment_result.assignments, returns)

        # model -> alphas of Q1..Q5, then of Q5-Q1. A quintile's is None if it
        # has no months, or fewer than ``bt.MIN_OVERLAP_MONTHS`` with factors.
        alphas: dict[str, list[bt.AlphaEstimate | None]] = {m: [] for _, m in PORTFOLIO_METRICS}
        for q in range(1, 6):
            series = ct.series.get(q, bt.MonthlySeries((), ()))
            for model, row in alphas.items():
                try:
                    row.append(bt.factor_alpha(series, factors, model, subtract_rf=True))
                except bt.InsufficientOverlapError:
                    row.append(None)
        if 1 not in ct.series or 5 not in ct.series:
            raise CliError(
                "insufficient-quintile-coverage",
                f"{method}: Q1 or Q5 has no calendar-time months",
            )
        try:
            spread = bt.long_short_spread(ct.series[5], ct.series[1])
            for model, row in alphas.items():
                row.append(bt.factor_alpha(spread, factors, model, subtract_rf=False))
        except bt.InsufficientOverlapError as exc:
            raise CliError("insufficient-month-overlap", f"{method}: {exc}") from exc

        for metric_name, model in PORTFOLIO_METRICS:
            row = alphas[model]
            for stat, cell in (("value", "{0.alpha:.4f}"), ("t_stat", "{0.t_stat:.2f}")):
                cells = ["" if e is None else cell.format(e) for e in row]
                portfolio_rows.append([method, metric_name, stat, *cells])
            plot_rows.append([extraction_method, metric_name, f"{row[-1].alpha:.4f}"])

        panel = corpus.build_panel(records[method], returns, factors)
        try:
            fm_results[method] = bt.fama_macbeth(panel.table)
        except (bt.InsufficientHistoryError, bt.InsufficientOverlapError) as exc:
            raise CliError("insufficient-months", f"{method}: {exc}") from exc

        meta[method] = {
            "extraction_method": extraction_method,
            "direction": directions.get(method, default_direction(method)),
            "direction_note": DIRECTION_NOTE,
            "spread_convention": SPREAD_CONVENTION,
            "spread_months": len(spread),
            "quintile_months": {str(q): len(ct.series.get(q, ())) for q in range(1, 6)},
            "unassignable_quarters": assignment_result.unassignable,
            "degenerate_spread_t": sorted(
                metric for metric, model in PORTFOLIO_METRICS if alphas[model][-1].degenerate
            ),
            "panel_diagnostics": dict(panel.diagnostics),
            "fama_macbeth_dropped_months": [str(m) for m in fm_results[method].dropped_months],
            "fama_macbeth_degenerate": list(fm_results[method].degenerate),
        }

    config.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_csv(
        config.out_dir / "backtest_portfolios.csv",
        ["method", "metric", "stat", "Q1", "Q2", "Q3", "Q4", "Q5", "Q5_Q1"],
        portfolio_rows,
    )

    fits = list(fm_results.values())
    fm_rows: list[list[str]] = []
    for i, regressor in enumerate(bt.FM_REGRESSORS):
        fm_rows.append([regressor, "value"] + [f"{f.mean_coefficients[i]:.4f}" for f in fits])
        fm_rows.append([regressor, "t_stat"] + [f"{f.t_stats[i]:.2f}" for f in fits])
    fm_rows.append(["r_squared", "value"] + [f"{f.avg_r_squared:.4f}" for f in fits])
    fm_rows.append(["n_obs", "value"] + [str(f.n_obs) for f in fits])
    fm_rows.append(["n_months", "value"] + [str(f.n_months) for f in fits])
    fileio.write_csv(
        config.out_dir / "backtest_fama_macbeth.csv", ["regressor", "stat", *fm_results], fm_rows
    )

    plot_path = config.out_dir / "backtest_plot_data.csv"
    if len(fits) >= 2:
        fileio.write_csv(plot_path, ["model", "metric", "value"], plot_rows)
    else:
        # A plot left by an earlier run would mix another run's methods in.
        plot_path.unlink(missing_ok=True)
        click.echo("notice: comparison plot omitted (single method)")

    fileio.write_json(config.out_dir / "backtest_meta.json", meta)
    for method, fit in fm_results.items():
        click.echo(
            f"backtest[{method}] spread_months={meta[method]['spread_months']} "
            f"fm_months={fit.n_months} fm_n={fit.n_obs}"
        )


# ---------------------------------------------------------------------------
# report-frequencies


def cmd_report_frequencies(
    config: RunConfig, methods: Sequence[tuple[str, str]], top_k: int
) -> None:
    """Top-K most frequently dropped targets per scoring method.

    Rows are counted as ``score_matches.csv`` streams. Each must sort strictly
    after the one before it by (firm, year, quarter, method, label), the order
    ``score`` writes, so a repeated row is an error and is never counted twice.
    """

    if top_k < 1:
        raise ConfigError("top-k must be at least 1")
    matches_path = config.out_dir / "score_matches.csv"
    if not matches_path.is_file():
        raise CliError(
            "missing-match-records", f"missing match records: {matches_path}; run score first"
        )

    requested = {method for _, method in methods}
    counts: dict[str, Counter] = {}
    previous: tuple[str, int, int, str, str] | None = None

    def count(row: dict[str, str], line: int) -> None:
        nonlocal previous
        if row["retained"] not in ("0", "1"):
            raise ValueError(f"line {line}: retained must be 0 or 1, got {row['retained']!r}")
        try:
            key = (row["firm"], int(row["year"]), int(row["quarter"]), row["method"], row["label"])
        except ValueError:
            raise ValueError(f"line {line}: year and quarter must be whole numbers") from None
        if previous is not None and key <= previous:
            raise ValueError(
                f"line {line}: row does not sort after the row before it by "
                "firm, year, quarter, method and label (a repeated or out-of-order row)"
            )
        previous = key
        if row["method"] in requested and row["retained"] == "0":
            counts.setdefault(row["method"], Counter())[row["label"]] += 1

    _read_csv(matches_path, MATCHES_CSV_HEADER, "malformed-match-records", count)

    rows: list[list[object]] = []
    for method in sorted(counts):
        ranked = sorted(counts[method].items(), key=lambda item: (-item[1], item[0]))[:top_k]
        rows.extend([method, rank, label, count] for rank, (label, count) in enumerate(ranked, 1))
        click.echo(f"frequencies[{method}]: {len(ranked)} rows")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_csv(
        config.out_dir / "frequencies.csv", ["method", "rank", "target", "count"], rows
    )


# ---------------------------------------------------------------------------
# click wiring


# Exceptions raised below the CLI, most specific first: (module, exception
# class, error code, exit code). A class is looked up only in a module that
# is already imported: an exception of a module that was never imported
# cannot have been raised, and importing the module to map it would cost
# the start-up that per-command imports save.
_ERRORS: tuple[tuple[str, str, str, int], ...] = (
    (f"{__package__}.config", "ConfigError", "invalid-config", EXIT_CONFIG),
    (f"{__package__}.corpus", "CorpusError", "malformed-input", EXIT_FAILURE),
    (f"{__package__}.extract", "ExtractionError", "extraction-error", EXIT_FAILURE),
    (f"{__package__}.embed", "EmbeddingError", "embedding-error", EXIT_FAILURE),
    (f"{__package__}.backtest", "BacktestError", "backtest-error", EXIT_FAILURE),
    ("builtins", "OSError", "io-error", EXIT_FAILURE),
)


def _run(
    command: Callable[..., None],
    config_path: str,
    method: str,
    *args: object,
    out_dir: str | None = None,
    **overrides: object,
) -> None:
    """Load the config, apply the overrides and run ``command``; fail on its errors."""

    try:
        config = load_config(config_path).with_overrides(
            out_dir=Path(out_dir) if out_dir else None, **overrides
        )
        command(config, _resolve_methods(method), *args)
    except CliError as exc:
        _fail(exc)
    except Exception as exc:
        for module, name, code, exit_code in _ERRORS:
            # A class of a module not imported is the empty tuple, which matches nothing.
            if isinstance(exc, getattr(sys.modules.get(module), name, ())):
                _fail(CliError(code, str(exc), exit_code))
        raise


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

    # OpenBLAS reads the variable when numpy loads it, so it is set only while
    # numpy is not loaded; a value the caller set is kept.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
