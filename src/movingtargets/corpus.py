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

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

from . import fileio

if TYPE_CHECKING:
    from .score import MovingTargetsScore

T = TypeVar("T")


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
        if m is None or not 1 <= int(m.group(2)) <= 12:
            raise CorpusError(f"month must be YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def from_index(cls, index: int) -> "Month":
        return cls(index // 12, index % 12 + 1)

    @property
    def index(self) -> int:
        return self.year * 12 + (self.month - 1)

    def shift(self, k: int) -> "Month":
        return Month.from_index(self.index + k)

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


def _check_utf8(text: str, what: str, path: Path) -> None:
    if not fileio.encodes_as_utf8(text):
        raise CorpusError(f"{what} holds a lone surrogate, which UTF-8 cannot encode, in {path}")


def load_transcript(path: str | Path) -> Transcript:
    """Load one transcript file: {firm, year, quarter, utterances:[...]}.

    The firm id names output files, so it may not contain '/', '\\' or NUL.
    Utterance indices must run contiguously from zero and every utterance
    text must be non-empty; roles are inferred from the speaker tag. The
    firm, speakers and texts must encode as UTF-8: a ``\\ud800`` escape in
    the JSON gives a lone surrogate, which no prompt digest or output takes.
    """

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise CorpusError(f"malformed transcript file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorpusError(f"transcript root must be an object in {path}")

    try:
        firm = str(doc["firm"])
        period = YearQuarter(int(doc["year"]), int(doc["quarter"]))
        raw_utterances = doc["utterances"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"malformed transcript header in {path}: {exc}") from exc
    if not firm:
        raise CorpusError(f"empty firm id in {path}")
    _check_utf8(firm, "firm id", path)
    if any(ch in firm for ch in "/\\\0"):
        raise CorpusError(f"firm id {firm!r} contains a path separator or NUL in {path}")
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"malformed utterance in {path}: {exc}") from exc
        if index in seen:
            raise CorpusError(f"duplicate utterance index {index} in {path}")
        if not text.strip():
            raise CorpusError(f"empty utterance text at index {index} in {path}")
        _check_utf8(speaker, f"speaker at index {index}", path)
        _check_utf8(text, f"utterance text at index {index}", path)
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
    """Monthly firm returns plus size and book-to-market characteristics.

    ``rows`` are sorted by (firm, month). Lookups go through one index per
    firm: its sorted month indices (``Month.index``) and the position of its
    first row in ``rows``. ``ret`` and ``span`` take month indices.
    """

    rows: tuple[ReturnRow, ...]
    _by_firm: Mapping[str, tuple[list[int], int]] = field(repr=False, compare=False)

    @classmethod
    def from_rows(
        cls, rows: Iterable[ReturnRow], where: Sequence[str] | None = None
    ) -> "ReturnsTable":
        """``rows``, sorted stably; errors name ``where[i]`` (``path:line``) for ``rows[i]``."""

        rows = tuple(rows)
        order = sorted(range(len(rows)), key=lambda i: (rows[i].firm, rows[i].month.index))
        by_firm: dict[str, tuple[list[int], int]] = {}
        for position, i in enumerate(order):
            row = rows[i]
            months, _ = by_firm.setdefault(row.firm, ([], position))
            if months and months[-1] == row.month.index:
                at = "" if where is None else f" at {where[i]}"
                raise CorpusError(f"duplicate return row for {row.firm} {row.month}{at}")
            months.append(row.month.index)
        return cls(rows=tuple(rows[i] for i in order), _by_firm=by_firm)

    def ret(self, firm: str, month: int) -> float | None:
        span = self.span(firm, month, month)
        return None if span is None else span[0]

    def span(self, firm: str, first: int, last: int) -> list[float] | None:
        """Returns of ``firm`` over months ``first..last``, oldest first.

        None unless every month of the span has a row.
        """

        months, offset = self._by_firm.get(firm, ((), 0))
        start = bisect_left(months, first)
        end = start + last - first
        # The months are distinct and sorted and months[start] >= first, so
        # months[end] == last leaves no room for a gap.
        if end >= len(months) or months[end] != last:
            return None
        return [row.ret for row in self.rows[offset + start : offset + end + 1]]

    def latest_at_or_before(self, firm: str, month: Month) -> ReturnRow | None:
        """Most recent row for ``firm`` dated at or before ``month``."""

        months, offset = self._by_firm.get(firm, ((), 0))
        position = bisect_right(months, month.index)
        return self.rows[offset + position - 1] if position else None


def finite_float(value: str, column: str, where: str) -> float:
    """``value`` as a float; a number that does not parse or is not finite is an error."""

    try:
        parsed = float(value)
    except ValueError as exc:
        raise CorpusError(f"unparseable number in column {column!r} at {where}: {value!r}") from exc
    if not math.isfinite(parsed):
        raise CorpusError(f"non-finite number in column {column!r} at {where}")
    return parsed


def _month_field(value: str, where: str) -> Month:
    """``value`` as a ``Month``; a month that does not parse is an error naming ``where``."""

    try:
        return Month.parse(value.strip())
    except CorpusError as exc:
        raise CorpusError(f"{exc} at {where}") from exc


def _read_table(
    path: Path, columns: Sequence[str], parse: Callable[[dict[str, str], str], T]
) -> tuple[list[T], list[str]]:
    """``parse(record, where)`` of each row, and each row's ``where``: ``<path>:<line>``."""

    places: list[str] = []

    def parse_row(record: dict[str, str], line: int) -> T:
        places.append(f"{path}:{line}")
        return parse(record, places[-1])

    try:
        return fileio.read_table(path, columns, parse_row, extra_columns=True), places
    except CorpusError:
        raise
    except (OSError, ValueError) as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def load_returns(path: str | Path) -> ReturnsTable:
    """Load the returns CSV (``firm,month,ret,mktcap,bm``; month as YYYY-MM)."""

    def parse(record: dict[str, str], where: str) -> ReturnRow:
        firm = record["firm"].strip()
        if not firm:
            raise CorpusError(f"empty firm id at {where}")
        month = _month_field(record["month"], where)
        ret, mktcap, bm = (finite_float(record[c], c, where) for c in RETURNS_COLUMNS[2:])
        if ret <= -1.0:
            raise CorpusError(f"return must exceed -1 at {where}")
        if mktcap <= 0.0:
            raise CorpusError(f"mktcap must be positive at {where}")
        if bm <= 0.0:
            raise CorpusError(f"bm must be positive at {where}")
        return ReturnRow(firm=firm, month=month, ret=ret, mktcap=mktcap, bm=bm)

    return ReturnsTable.from_rows(*_read_table(Path(path), RETURNS_COLUMNS, parse))


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
    """Monthly factor returns, one row per month of a contiguous span, in order.

    Errors name ``where[i]``, if given, as the place of ``rows[i]`` in its file.
    """

    rows: tuple[FactorRow, ...]
    where: InitVar[Sequence[str] | None] = None

    def __post_init__(self, where: Sequence[str] | None) -> None:
        for i, (prev, cur) in enumerate(zip(self.rows, self.rows[1:]), 1):
            if cur.month.index == prev.month.index + 1:
                continue
            at = "" if where is None else f" at {where[i]}"
            if cur.month == prev.month:
                raise CorpusError(f"duplicate factor row for {cur.month}{at}")
            raise CorpusError(f"factor months not contiguous: gap after {prev.month}{at}")

    @classmethod
    def from_rows(
        cls, rows: Iterable[FactorRow], where: Sequence[str] | None = None
    ) -> "FactorSeries":
        """``rows``, sorted stably; errors name ``where[i]`` (``path:line``) for ``rows[i]``."""

        rows = tuple(rows)
        order = sorted(range(len(rows)), key=lambda i: rows[i].month.index)
        places = None if where is None else [where[i] for i in order]
        return cls(tuple(rows[i] for i in order), places)

    def get(self, month: Month) -> FactorRow | None:
        # A month's row sits at the month's offset from the first month.
        offset = month.index - self.rows[0].month.index if self.rows else -1
        return self.rows[offset] if 0 <= offset < len(self.rows) else None


def load_factors(path: str | Path) -> FactorSeries:
    """Load the factor CSV (``month,mkt_rf,smb,hml,mom,liq,rf``)."""

    def parse(record: dict[str, str], where: str) -> FactorRow:
        values = {c: finite_float(record[c], c, where) for c in FACTOR_COLUMNS[1:]}
        return FactorRow(month=_month_field(record["month"], where), **values)

    return FactorSeries.from_rows(*_read_table(Path(path), FACTOR_COLUMNS, parse))


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


def holding_windows(
    calls: Iterable[tuple[str, YearQuarter]],
) -> dict[tuple[str, YearQuarter], tuple[int, int]]:
    """Entry and exit month indices of every ``(firm, period)`` call.

    The window opens the month after the call and closes in the month of the
    firm's next call; with no later call on record the position is held for
    three months.
    """

    calendar: dict[str, set[YearQuarter]] = {}
    for firm, period in calls:
        calendar.setdefault(firm, set()).add(period)
    windows: dict[tuple[str, YearQuarter], tuple[int, int]] = {}
    for firm, periods in calendar.items():
        ordered = sorted(periods)
        months = [call_month(period).index for period in ordered]
        for period, call, end in zip(ordered, months, months[1:] + [months[-1] + 3]):
            windows[(firm, period)] = (call + 1, end)
    return windows


def compound_return(returns: Sequence[float]) -> float:
    """Compounded simple return over consecutive months."""

    return math.prod(1.0 + r for r in returns) - 1.0


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

    windows = holding_windows((record.firm, record.period) for record in scores)
    factor_months = None if factors is None else {row.month.index for row in factors.rows}
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
        entry, exit_ = windows[(record.firm, record.period)]
        latest = returns.latest_at_or_before(record.firm, call_month(record.period))
        log_size = None if latest is None else math.log(latest.mktcap)
        log_bm = None if latest is None else math.log(latest.bm)

        for month in range(entry, exit_ + 1):
            diagnostics["expected_rows"] += 1
            ret = returns.ret(record.firm, month)
            if ret is None:
                diagnostics["rows_skipped_no_return"] += 1
            else:
                trailing = returns.span(record.firm, month - 12, month - 1)
                row = PanelObservation(
                    firm=record.firm,
                    month=Month.from_index(month),
                    ret=ret,
                    score=record.value,
                    log_size=log_size,
                    log_bm=log_bm,
                    ret_1_0=returns.ret(record.firm, month - 1),
                    ret_12_1=None if trailing is None else compound_return(trailing),
                )
                if not row.has_all_controls:
                    diagnostics["rows_missing_controls"] += 1
                rows.append(row)
                diagnostics["rows_emitted"] += 1
            if factor_months is not None and month not in factor_months:
                diagnostics["months_without_factors"] += 1

    return PanelBuildResult(rows=tuple(rows), diagnostics=diagnostics)
