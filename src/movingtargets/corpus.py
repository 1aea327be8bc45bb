"""Corpus loading and panel assembly.

Responsibilities:
- Parse and validate earnings-call transcript files (indexed JSON dialog).
- Parse and validate monthly returns and factor tables from delimited text.
- Provide year-quarter and year-month arithmetic for lagging and windowing.
- Assemble the firm-month panel that joins forward returns, drift scores,
  and control characteristics.

Firms are identified by opaque non-empty strings (typically tickers).
All loaders are pure given file contents; loaded tables are immutable.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .score import MovingTargetsScore


class CorpusError(ValueError):
    """Raised when an input file violates its documented format."""


_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

RETURNS_COLUMNS = ("firm", "month", "ret", "mktcap", "bm")
FACTOR_COLUMNS = ("month", "mkt_rf", "smb", "hml", "mom", "liq", "rf")

ROLE_EXECUTIVE = "executive"
ROLE_ANALYST = "analyst"
ROLE_OPERATOR = "operator"


@dataclass(frozen=True, order=True)
class YearQuarter:
    """A calendar year-quarter, totally ordered by (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if self.quarter not in (1, 2, 3, 4):
            raise ValueError(f"quarter must be in 1..4, got {self.quarter!r}")

    def __str__(self) -> str:
        return f"{self.year:04d}Q{self.quarter}"


def shift_quarters(t: YearQuarter, k: int) -> YearQuarter:
    """Advance ``t`` by ``k`` quarters (negative ``k`` moves back)."""

    index = t.year * 4 + (t.quarter - 1) + k
    return YearQuarter(index // 4, index % 4 + 1)


@dataclass(frozen=True, order=True)
class Month:
    """A calendar year-month, totally ordered by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month!r}")

    @classmethod
    def parse(cls, text: str) -> "Month":
        m = _MONTH_RE.match(text)
        if m is None:
            raise CorpusError(f"month must be YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def index(self) -> int:
        return self.year * 12 + (self.month - 1)

    def shift(self, k: int) -> "Month":
        index = self.index + k
        return Month(index // 12, index % 12 + 1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def call_month(period: YearQuarter) -> Month:
    """Month in which the call for ``period`` takes place.

    Calls are dated to the final month of their quarter, so the holding
    window for a Q1 call (March) opens in April.
    """

    return Month(period.year, 3 * period.quarter)


@dataclass(frozen=True)
class Utterance:
    index: int
    speaker: str
    role: str
    text: str


@dataclass(frozen=True)
class Transcript:
    """One firm-quarter call as an ordered list of utterances."""

    firm: str
    period: YearQuarter
    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)


def _infer_role(speaker: str) -> str:
    if speaker.endswith("- Executives"):
        return ROLE_EXECUTIVE
    if speaker.endswith("- Analysts"):
        return ROLE_ANALYST
    if speaker.strip().lower().startswith("operator"):
        return ROLE_OPERATOR
    raise CorpusError(f"cannot infer role from speaker tag {speaker!r}")


def load_transcript(path: str | Path) -> Transcript:
    """Load one transcript file: {firm, year, quarter, utterances:[...]}.

    Utterance indices must run contiguously from zero and every utterance
    text must be non-empty; roles are inferred from the speaker tag.
    """

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"malformed transcript file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorpusError(f"transcript root must be an object in {path}")

    try:
        firm = str(doc["firm"])
        period = YearQuarter(int(doc["year"]), int(doc["quarter"]))
        raw_utterances = doc["utterances"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed transcript header in {path}: {exc}") from exc
    if not firm:
        raise CorpusError(f"empty firm id in {path}")
    if not isinstance(raw_utterances, list) or not raw_utterances:
        raise CorpusError(f"transcript must contain at least one utterance: {path}")

    utterances = []
    seen: set[int] = set()
    for item in raw_utterances:
        if not isinstance(item, dict):
            raise CorpusError(f"utterance entries must be objects in {path}")
        try:
            index = int(item["index"])
            speaker = str(item["speaker"])
            text = str(item["text"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed utterance in {path}: {exc}") from exc
        if index in seen:
            raise CorpusError(f"duplicate utterance index {index} in {path}")
        if not text.strip():
            raise CorpusError(f"empty utterance text at index {index} in {path}")
        seen.add(index)
        utterances.append(Utterance(index, speaker, _infer_role(speaker), text))

    utterances.sort(key=lambda u: u.index)
    if [u.index for u in utterances] != list(range(len(utterances))):
        raise CorpusError(f"non-contiguous indices in {path}")
    return Transcript(firm=firm, period=period, utterances=tuple(utterances))


@dataclass(frozen=True)
class ReturnRow:
    firm: str
    month: Month
    ret: float
    mktcap: float
    bm: float


@dataclass(frozen=True)
class ReturnsTable:
    """Monthly firm returns plus size and book-to-market characteristics."""

    rows: tuple[ReturnRow, ...]
    _by_key: Mapping[tuple[str, Month], ReturnRow] = field(repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows: Iterable[ReturnRow]) -> "ReturnsTable":
        ordered = tuple(sorted(rows, key=lambda r: (r.firm, r.month)))
        by_key: dict[tuple[str, Month], ReturnRow] = {}
        for row in ordered:
            key = (row.firm, row.month)
            if key in by_key:
                raise CorpusError(f"duplicate return row for {row.firm} {row.month}")
            by_key[key] = row
        return cls(rows=ordered, _by_key=by_key)

    def ret(self, firm: str, month: Month) -> float | None:
        row = self._by_key.get((firm, month))
        return None if row is None else row.ret

    def latest_at_or_before(self, firm: str, month: Month) -> ReturnRow | None:
        """Most recent row for ``firm`` dated at or before ``month``."""

        best: ReturnRow | None = None
        for row in self.rows:
            if row.firm != firm or row.month > month:
                continue
            if best is None or row.month > best.month:
                best = row
        return best


def _parse_float(value: str, column: str, where: str) -> float:
    try:
        parsed = float(value)
    except ValueError as exc:
        raise CorpusError(f"unparseable number in column {column!r} at {where}: {value!r}") from exc
    if not math.isfinite(parsed):
        raise CorpusError(f"non-finite number in column {column!r} at {where}")
    return parsed


def _read_csv(path: Path, columns: Sequence[str]) -> list[dict[str, str]]:
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            for column in columns:
                if column not in header:
                    raise CorpusError(f"missing column {column!r} in {path}")
            return list(reader)
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def load_returns(path: str | Path) -> ReturnsTable:
    """Load the returns CSV (``firm,month,ret,mktcap,bm``; month as YYYY-MM)."""

    path = Path(path)
    rows = []
    for i, record in enumerate(_read_csv(path, RETURNS_COLUMNS), start=2):
        where = f"{path}:{i}"
        firm = (record["firm"] or "").strip()
        if not firm:
            raise CorpusError(f"empty firm id at {where}")
        month = Month.parse((record["month"] or "").strip())
        ret = _parse_float(record["ret"], "ret", where)
        mktcap = _parse_float(record["mktcap"], "mktcap", where)
        bm = _parse_float(record["bm"], "bm", where)
        if ret <= -1.0:
            raise CorpusError(f"return must exceed -1 at {where}")
        if mktcap <= 0.0:
            raise CorpusError(f"mktcap must be positive at {where}")
        if bm <= 0.0:
            raise CorpusError(f"bm must be positive at {where}")
        rows.append(ReturnRow(firm=firm, month=month, ret=ret, mktcap=mktcap, bm=bm))
    return ReturnsTable.from_rows(rows)


@dataclass(frozen=True)
class FactorRow:
    month: Month
    mkt_rf: float
    smb: float
    hml: float
    mom: float
    liq: float
    rf: float


@dataclass(frozen=True)
class FactorSeries:
    """Monthly factor returns over a contiguous month span."""

    rows: tuple[FactorRow, ...]
    _by_month: Mapping[Month, FactorRow] = field(repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows: Iterable[FactorRow]) -> "FactorSeries":
        ordered = tuple(sorted(rows, key=lambda r: r.month))
        by_month: dict[Month, FactorRow] = {}
        for row in ordered:
            if row.month in by_month:
                raise CorpusError(f"duplicate factor row for {row.month}")
            by_month[row.month] = row
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.month.index != prev.month.index + 1:
                raise CorpusError(f"factor months not contiguous: gap after {prev.month}")
        return cls(rows=ordered, _by_month=by_month)

    def get(self, month: Month) -> FactorRow | None:
        return self._by_month.get(month)


def load_factors(path: str | Path) -> FactorSeries:
    """Load the factor CSV (``month,mkt_rf,smb,hml,mom,liq,rf``)."""

    path = Path(path)
    rows = []
    for i, record in enumerate(_read_csv(path, FACTOR_COLUMNS), start=2):
        where = f"{path}:{i}"
        month = Month.parse((record["month"] or "").strip())
        values = {
            column: _parse_float(record[column], column, where)
            for column in FACTOR_COLUMNS[1:]
        }
        rows.append(FactorRow(month=month, **values))
    return FactorSeries.from_rows(rows)


@dataclass(frozen=True)
class PanelObservation:
    """One firm-month row of the return-predictability panel.

    Controls are measured as of the call month and may be absent when the
    underlying history is missing; such rows stay in the panel (portfolio
    sorts do not need controls) but are excluded from cross-sectional
    regressions.
    """

    firm: str
    month: Month
    ret: float
    score: float
    log_size: float | None
    log_bm: float | None
    ret_1_0: float | None
    ret_12_1: float | None

    @property
    def has_all_controls(self) -> bool:
        return None not in (self.log_size, self.log_bm, self.ret_1_0, self.ret_12_1)


@dataclass(frozen=True)
class PanelBuildResult:
    rows: tuple[PanelObservation, ...]
    diagnostics: Mapping[str, int]


def holding_window(
    period: YearQuarter, later_periods: Sequence[YearQuarter]
) -> tuple[Month, Month]:
    """Entry and exit months for a call at ``period``.

    The window opens the month after the call and closes in the month of the
    firm's next call; with no later call on record the position is held for
    three months.
    """

    start = call_month(period)
    upcoming = [p for p in later_periods if p > period]
    end = call_month(min(upcoming)) if upcoming else start.shift(3)
    return start.shift(1), end


def compound_return(returns: Sequence[float]) -> float:
    """Compounded simple return over consecutive months."""

    return math.prod(1.0 + r for r in returns) - 1.0


def _trailing_compound(returns: ReturnsTable, firm: str, month: Month) -> float | None:
    window = []
    for k in range(12, 0, -1):
        r = returns.ret(firm, month.shift(-k))
        if r is None:
            return None
        window.append(r)
    return compound_return(window)


def build_panel(
    scores: Sequence["MovingTargetsScore"],
    returns: ReturnsTable,
    factors: FactorSeries | None = None,
) -> PanelBuildResult:
    """Assemble firm-month panel rows from score records and returns.

    ``scores`` may include skipped records (``value is None``); those carry
    no rows of their own but still mark call dates, which delimit the
    holding windows of neighbouring scored quarters. ``factors`` is only
    consulted to count panel months without factor coverage.
    """

    calendar: dict[str, list[YearQuarter]] = {}
    for record in scores:
        calendar.setdefault(record.firm, []).append(record.period)
    for periods in calendar.values():
        periods.sort()

    rows: list[PanelObservation] = []
    diagnostics = {
        "rows_emitted": 0,
        "rows_skipped_no_return": 0,
        "rows_missing_controls": 0,
        "months_without_factors": 0,
        "expected_rows": 0,
    }

    scored = [r for r in scores if r.value is not None]
    scored.sort(key=lambda r: (r.firm, r.period))
    for record in scored:
        entry, exit_ = holding_window(record.period, calendar[record.firm])
        anchor = call_month(record.period)
        latest = returns.latest_at_or_before(record.firm, anchor)
        log_size = None if latest is None else math.log(latest.mktcap)
        log_bm = None if latest is None else math.log(latest.bm)

        month = entry
        while month <= exit_:
            diagnostics["expected_rows"] += 1
            ret = returns.ret(record.firm, month)
            if ret is None:
                diagnostics["rows_skipped_no_return"] += 1
            else:
                row = PanelObservation(
                    firm=record.firm,
                    month=month,
                    ret=ret,
                    score=record.value,
                    log_size=log_size,
                    log_bm=log_bm,
                    ret_1_0=returns.ret(record.firm, month.shift(-1)),
                    ret_12_1=_trailing_compound(returns, record.firm, month),
                )
                if not row.has_all_controls:
                    diagnostics["rows_missing_controls"] += 1
                rows.append(row)
                diagnostics["rows_emitted"] += 1
            if factors is not None and factors.get(month) is None:
                diagnostics["months_without_factors"] += 1
            month = month.shift(1)

    return PanelBuildResult(rows=tuple(rows), diagnostics=diagnostics)
