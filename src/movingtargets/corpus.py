"""Corpus loading and panel assembly.

Responsibilities:
- Parse and validate earnings-call transcript files (indexed JSON dialog).
- Parse and validate monthly returns and factor tables from delimited text.
- Provide year-quarter and year-month arithmetic for lagging and windowing.
- Assemble the firm-month panel that joins forward returns, drift scores,
  and control characteristics.

Firms are identified by opaque non-empty strings (typically tickers).
All loaders are pure given file contents; loaded tables are immutable.

The returns table and the panel are held as columns, with months as integer
indices; ``ReturnRow`` and ``PanelObservation`` objects are built only at the
edges. numpy is imported by the code that builds and reads the columns, so
``extract``, which reads transcripts through this module, never loads it.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

from . import fileio

if TYPE_CHECKING:
    import numpy as np

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
        index = _month_index(text)
        if index is None:
            raise CorpusError(f"month must be YYYY-MM, got {text!r}")
        return cls.from_index(index)

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


def _month_index(text: str) -> int | None:
    """``Month.index`` of ``text`` written as YYYY-MM, or None if it is not."""

    m = _MONTH_RE.match(text)
    if m is None or not 1 <= int(m.group(2)) <= 12:
        return None
    return int(m.group(1)) * 12 + int(m.group(2)) - 1


def call_month(period: YearQuarter) -> Month:
    """Month in which the call for ``period`` takes place.

    Calls are dated to the final month of their quarter, so the holding
    window for a Q1 call (March) opens in April.
    """

    return Month(period.year, 3 * period.quarter)


@dataclass(frozen=True)
class MovingTargetsScore:
    """Score record for one firm-quarter; skipped records carry no value.

    ``score`` writes these, and the backtest reads them back from ``scores.csv``.
    """

    firm: str
    period: YearQuarter
    value: float | None
    method: str
    tau: float | None
    n_prev: int | None
    n_curr: int | None
    direction: str
    skipped_reason: str | None = None


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


class ReturnsTable:
    """Monthly firm returns plus size and book-to-market characteristics, as columns.

    Rows are sorted by (firm, month). ``firms`` holds the distinct firm ids in
    order, ``months`` the month indices (``Month.index``) of the rows, and
    ``rets``, ``mktcaps`` and ``bms`` their float64 values; the arrays are
    read-only. ``ret``, ``span`` and ``locate`` take month indices, and
    ``rows`` builds the ``ReturnRow`` objects.
    """

    def __init__(
        self,
        firms: Sequence[str],
        months: Sequence[int],
        rets: Sequence[float],
        mktcaps: Sequence[float],
        bms: Sequence[float],
        where: Callable[[int], str] | None = None,
    ) -> None:
        """Row ``i`` of the columns goes in at its (firm, month), in a stable sort.

        A repeated firm-month is an error naming ``where(i)`` for the later row ``i``.
        """

        import numpy as np

        self.firms = tuple(sorted(set(firms)))
        code_of = {firm: code for code, firm in enumerate(self.firms)}
        codes = np.array([code_of[firm] for firm in firms], dtype=np.int64)
        month_column = np.array(months, dtype=np.int64)
        order = np.lexsort((month_column, codes))
        codes, self.months = codes[order], month_column[order]
        repeats = np.flatnonzero((codes[1:] == codes[:-1]) & (self.months[1:] == self.months[:-1]))
        if len(repeats):
            row = int(repeats[0]) + 1
            at = "" if where is None else f" at {where(int(order[row]))}"
            month = Month.from_index(int(self.months[row]))
            raise CorpusError(f"duplicate return row for {self.firms[codes[row]]} {month}{at}")
        self.rets, self.mktcaps, self.bms = (
            np.array(column, dtype=float)[order] for column in (rets, mktcaps, bms)
        )
        counts = np.bincount(codes, minlength=len(self.firms)).tolist()
        self._code = code_of
        self._starts = [0, *accumulate(counts)]
        # One sorted key per row, code * stride + month offset; a looked-up month
        # is clipped to one below or above the table's span, where no row is.
        self._base = int(self.months.min()) - 1 if len(self.months) else 0
        self._stride = int(self.months.max()) - self._base + 2 if len(self.months) else 1
        self._keys = codes * self._stride + (self.months - self._base)
        for column in (self.months, self.rets, self.mktcaps, self.bms, self._keys):
            column.flags.writeable = False

    @classmethod
    def from_rows(
        cls, rows: Iterable[ReturnRow], where: Sequence[str] | None = None
    ) -> "ReturnsTable":
        """``rows``, sorted stably; errors name ``where[i]`` (``path:line``) for ``rows[i]``."""

        rows = tuple(rows)
        return cls(
            [row.firm for row in rows],
            [row.month.index for row in rows],
            [row.ret for row in rows],
            [row.mktcap for row in rows],
            [row.bm for row in rows],
            None if where is None else where.__getitem__,
        )

    @property
    def rows(self) -> tuple[ReturnRow, ...]:
        """The rows as objects, sorted by (firm, month)."""

        firms = [
            firm
            for code, firm in enumerate(self.firms)
            for _ in range(self._starts[code], self._starts[code + 1])
        ]
        months = map(Month.from_index, self.months.tolist())
        columns = (self.rets.tolist(), self.mktcaps.tolist(), self.bms.tolist())
        return tuple(map(ReturnRow, firms, months, *columns))

    def code(self, firm: str) -> int:
        """The position of ``firm`` in ``firms``, or -1 if it has no rows."""

        return self._code.get(firm, -1)

    def _block(self, firm: str) -> tuple[int, int]:
        """The first and the end row of ``firm``."""

        code = self._code.get(firm)
        return (0, 0) if code is None else (self._starts[code], self._starts[code + 1])

    def locate(self, codes: "np.ndarray", months: "np.ndarray") -> "np.ndarray":
        """The row of each (firm code, month index) pair, or -1 where there is none."""

        import numpy as np

        keys = codes * self._stride + np.clip(months - self._base, 0, self._stride - 1)
        rows = np.searchsorted(self._keys, keys)
        found = (codes >= 0) & (rows < len(self._keys))
        # Keys are compared only where there is a row to compare with.
        found[found] = self._keys[rows[found]] == keys[found]
        return np.where(found, rows, -1)

    def ret(self, firm: str, month: int) -> float | None:
        span = self.span(firm, month, month)
        return None if span is None else span[0]

    def span(self, firm: str, first: int, last: int) -> list[float] | None:
        """Returns of ``firm`` over months ``first..last``, oldest first.

        None unless every month of the span has a row.
        """

        lo, hi = self._block(firm)
        start = bisect_left(self.months, first, lo, hi)
        end = start + last - first
        # The months are distinct and sorted and months[start] >= first, so
        # months[end] == last leaves no room for a gap.
        if not lo <= end < hi or self.months[end] != last:
            return None
        return self.rets[start : end + 1].tolist()

    def latest_at_or_before(self, firm: str, month: Month) -> ReturnRow | None:
        """Most recent row for ``firm`` dated at or before ``month``."""

        lo, hi = self._block(firm)
        row = bisect_right(self.months, month.index, lo, hi) - 1
        if row < lo:
            return None
        return ReturnRow(
            firm,
            Month.from_index(int(self.months[row])),
            float(self.rets[row]),
            float(self.mktcaps[row]),
            float(self.bms[row]),
        )


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


def _floats(texts: Sequence[str]) -> list[float]:
    """``float`` of each text; NaN for one that does not parse."""

    try:
        return list(map(float, texts))
    except ValueError:
        pass

    def parsed(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            return math.nan

    return list(map(parsed, texts))


def _check_return_row(firm: str, month: str, ret: str, mktcap: str, bm: str, where: str) -> None:
    """Raise the error of the first check that one returns row fails."""

    if not firm.strip():
        raise CorpusError(f"empty firm id at {where}")
    _month_field(month, where)
    values = (finite_float(v, c, where) for v, c in zip((ret, mktcap, bm), RETURNS_COLUMNS[2:]))
    ret_value, mktcap_value, bm_value = values
    if ret_value <= -1.0:
        raise CorpusError(f"return must exceed -1 at {where}")
    if mktcap_value <= 0.0:
        raise CorpusError(f"mktcap must be positive at {where}")
    if bm_value <= 0.0:
        raise CorpusError(f"bm must be positive at {where}")


def load_returns(path: str | Path) -> ReturnsTable:
    """Load the returns CSV (``firm,month,ret,mktcap,bm``; month as YYYY-MM).

    The file is read whole and its columns are checked at once. The first row
    that fails a check, if any, is checked again on its own, so the error is
    the one a row-by-row read raises; a file that cannot be read to its end
    fails after the rows before the break are checked.
    """

    import numpy as np

    path = Path(path)
    lines: list[int] = []
    rows: list[list[str]] = []
    failure: Exception | None = None
    try:
        reader = fileio.read_rows(path, RETURNS_COLUMNS, extra_columns=True)
        _, header = next(reader)
        for line, row in reader:
            lines.append(line)
            rows.append(row)
    except (OSError, ValueError) as exc:
        failure = exc

    columns: list[Sequence] = [[] for _ in RETURNS_COLUMNS]
    if rows:
        # A header naming one column twice gives the last of them, as a
        # ``dict`` of the row would.
        position = {name: i for i, name in enumerate(header)}
        by_position = list(zip(*rows))
        texts = [by_position[position[column]] for column in RETURNS_COLUMNS]
        firms = [text.strip() for text in texts[0]]
        month_of = {text: _month_index(text.strip()) for text in set(texts[1])}
        months = [month_of[text] for text in texts[1]]
        ret, mktcap, bm = (np.array(_floats(column)) for column in texts[2:])
        bad = (
            np.array([not firm for firm in firms])
            | np.array([month is None for month in months])
            | ~(np.isfinite(ret) & np.isfinite(mktcap) & np.isfinite(bm))
            | (ret <= -1.0)
            | (mktcap <= 0.0)
            | (bm <= 0.0)
        )
        if bad.any():
            i = int(bad.argmax())
            _check_return_row(*(column[i] for column in texts), f"{path}:{lines[i]}")
        columns = [firms, months, ret, mktcap, bm]
    if failure is not None:
        raise CorpusError(f"cannot read {path}: {failure}") from failure
    return ReturnsTable(*columns, where=lambda i: f"{path}:{lines[i]}")


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


_CONTROLS = ("log_size", "log_bm", "ret_1_0", "ret_12_1")


@dataclass(frozen=True, eq=False)
class PanelTable:
    """The firm-month panel as columns, one entry per row, in row order.

    ``month`` holds month indices and the other arrays are float64. A control
    that is absent is NaN in its column, and ``complete`` marks the rows that
    have all four controls.
    """

    firm: tuple[str, ...]
    month: np.ndarray
    ret: np.ndarray
    score: np.ndarray
    log_size: np.ndarray
    log_bm: np.ndarray
    ret_1_0: np.ndarray
    ret_12_1: np.ndarray
    complete: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[PanelObservation]) -> "PanelTable":
        import numpy as np

        rows = tuple(rows)

        def column(name: str) -> np.ndarray:
            values = (getattr(row, name) for row in rows)
            return np.array([math.nan if v is None else v for v in values], dtype=float)

        return cls(
            firm=tuple(row.firm for row in rows),
            month=np.array([row.month.index for row in rows], dtype=np.int64),
            complete=np.array([row.has_all_controls for row in rows], dtype=bool),
            **{name: column(name) for name in ("ret", "score", *_CONTROLS)},
        )

    @property
    def rows(self) -> tuple[PanelObservation, ...]:
        controls = (
            [None if math.isnan(v) else v for v in getattr(self, name).tolist()]
            for name in _CONTROLS
        )
        months = map(Month.from_index, self.month.tolist())
        return tuple(
            map(PanelObservation, self.firm, months, self.ret.tolist(), self.score.tolist(), *controls)
        )


@dataclass(frozen=True)
class PanelBuildResult:
    table: PanelTable
    diagnostics: Mapping[str, int]

    @property
    def rows(self) -> tuple[PanelObservation, ...]:
        return self.table.rows


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
        ordered = sorted(periods, key=lambda period: (period.year, period.quarter))
        months = [call_month(period).index for period in ordered]
        for period, call, end in zip(ordered, months, months[1:] + [months[-1] + 3]):
            windows[(firm, period)] = (call + 1, end)
    return windows


def window_months(entry: "np.ndarray", exit_: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """(window, month index) of every month of the windows ``entry[i]..exit_[i]``, in order."""

    import numpy as np

    lengths = exit_ - entry + 1
    window = np.repeat(np.arange(len(entry)), lengths)
    offsets = np.arange(len(window)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return window, entry[window] + offsets


def compound_return(returns: Sequence[float]) -> float:
    """Compounded simple return over consecutive months.

    ``returns`` may also be a (months, n) array: the n products are then taken
    at once, month by month in order, with the bits of n separate calls.
    """

    return math.prod(1.0 + r for r in returns) - 1.0


def build_panel(
    scores: Sequence[MovingTargetsScore],
    returns: ReturnsTable,
    factors: FactorSeries | None = None,
) -> PanelBuildResult:
    """Assemble firm-month panel rows from score records and returns.

    ``scores`` may include skipped records (``value is None``); those carry
    no rows of their own but still mark call dates, which delimit the
    holding windows of neighbouring scored quarters. ``factors`` is only
    consulted to count panel months without factor coverage. The rows are
    the holding months of the scored records in (firm, period) order, each
    window oldest first, and each column is looked up in ``returns`` at once.
    """

    import numpy as np

    windows = holding_windows((record.firm, record.period) for record in scores)
    scored = sorted(
        (r for r in scores if r.value is not None),
        key=lambda r: (r.firm, r.period.year, r.period.quarter),
    )
    bounds = np.array([windows[(r.firm, r.period)] for r in scored], dtype=np.int64)
    record, month = window_months(*bounds.reshape(-1, 2).T)
    code = np.array([returns.code(r.firm) for r in scored], dtype=np.int64)[record]
    row = returns.locate(code, month)
    expected = len(month)
    without_factors = 0
    if factors is not None:
        factor_months = [r.month.index for r in factors.rows]
        without_factors = int(np.count_nonzero(~np.isin(month, factor_months)))

    # Size and book-to-market as of each record's call month.
    sized = np.zeros(len(scored), dtype=bool)
    log_size, log_bm = np.full((2, len(scored)), math.nan)
    for i, r in enumerate(scored):
        latest = returns.latest_at_or_before(r.firm, call_month(r.period))
        if latest is not None:
            sized[i] = True
            log_size[i], log_bm[i] = math.log(latest.mktcap), math.log(latest.bm)

    record, month, code, row = (column[row >= 0] for column in (record, month, code, row))
    previous = returns.locate(code, month - 1)
    first = returns.locate(code, month - 12)
    # The months are distinct and sorted per firm, so the twelve before
    # ``month`` are all there when the first is and the last is 11 rows on.
    trailing = (first >= 0) & (previous - first == 11)
    ret_12_1 = np.full(len(row), math.nan)
    with np.errstate(over="ignore"):  # an overflow is inf, as it is in ``math.prod``
        ret_12_1[trailing] = compound_return(returns.rets[first[trailing] + np.arange(12)[:, None]])
    complete = sized[record] & (previous >= 0) & trailing
    table = PanelTable(
        firm=tuple(scored[i].firm for i in record.tolist()),
        month=month,
        ret=returns.rets[row],
        score=np.array([r.value for r in scored], dtype=float)[record],
        log_size=log_size[record],
        log_bm=log_bm[record],
        ret_1_0=np.where(previous >= 0, returns.rets[previous], math.nan),
        ret_12_1=ret_12_1,
        complete=complete,
    )
    diagnostics = {
        "rows_emitted": len(row),
        "rows_skipped_no_return": expected - len(row),
        "rows_missing_controls": int(np.count_nonzero(~complete)),
        "months_without_factors": without_factors,
        "expected_rows": expected,
    }
    return PanelBuildResult(table=table, diagnostics=diagnostics)
