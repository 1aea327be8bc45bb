"""Return-predictability validation of drift scores.

Pipeline: assign each scored firm-quarter to a quintile using breakpoints
from the pooled score distribution of the trailing four quarters, hold the
firm in a calendar-time equal-weighted portfolio from the month after its
call until its next call, then estimate excess returns and factor alphas
per quintile and for the Q5-Q1 spread, plus monthly cross-sectional
regressions of firm returns on the score and standard controls.

Score records arrive as ``corpus.ScoreColumns``; the quintile assignments and
the firm-month panel both hold the windows of ``ScoreColumns.holdings``.

All regressions are ordinary least squares with classical standard errors.
Degenerate t-stats (zero variance) are reported as 0 and flagged instead of
infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    FactorSeries,
    Month,
    MovingTargetsScore,
    PanelObservation,
    PanelTable,
    ReturnsTable,
    ScoreColumns,
    YearQuarter,
    window_months,
)

MODEL_EXCESS = "excess"
MODEL_FF3 = "ff3"
MODEL_FIVE_FACTOR = "five_factor"
ALPHA_MODELS = (MODEL_EXCESS, MODEL_FF3, MODEL_FIVE_FACTOR)

MIN_OVERLAP_MONTHS = 24
MIN_BREAKPOINT_OBSERVATIONS = 5

FM_REGRESSORS = (
    "moving_targets",
    "log_size",
    "log_bm",
    "ret_1_0",
    "ret_12_1",
    "constant",
)


class BacktestError(ValueError):
    """Base class for backtest failures."""


class InsufficientHistoryError(BacktestError):
    """Too few observations to compute breakpoints or regressions."""


class InsufficientOverlapError(BacktestError):
    """Series do not overlap for long enough."""


class RankDeficiencyError(BacktestError):
    """The regressor matrix is not full column rank."""


def _runs(*columns: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of each run of rows that agree on every one of ``columns``."""

    if not len(columns[0]):
        return []
    change = np.zeros(len(columns[0]) - 1, dtype=bool)
    for column in columns:
        change |= column[1:] != column[:-1]
    cuts = (np.flatnonzero(change) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(columns[0])]))


def _degenerate_sd(sd: float, mean: float) -> bool:
    # A constant series accumulates ~1 ulp of rounding in its mean, so the
    # zero-variance rule uses a relative tolerance rather than exact zero.
    return sd <= abs(mean) * 1e-12 + 1e-15


@dataclass(frozen=True)
class MonthlySeries:
    """Sorted monthly observations with unique months."""

    months: tuple[Month, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.months) != len(self.values):
            raise ValueError("months and values must align")
        indices = [month.index for month in self.months]
        if any(later <= earlier for earlier, later in zip(indices, indices[1:])):
            raise ValueError("months must be unique and sorted")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Month, float]]) -> "MonthlySeries":
        ordered = sorted(pairs, key=lambda p: p[0].index)
        return cls(
            months=tuple(m for m, _ in ordered),
            values=tuple(float(v) for _, v in ordered),
        )

    def __len__(self) -> int:
        return len(self.months)


# The quintile breakpoints as fractions, ``np.percentile``'s ``q / 100``.
_QUINTILE_POINTS = (20 / 100, 40 / 100, 60 / 100, 80 / 100)


def quintile_breakpoints(prior_scores: Sequence[float]) -> tuple[float, float, float, float]:
    """20/40/60/80th percentiles of the pooled prior-score distribution.

    Percentiles interpolate linearly between order statistics with
    inclusive endpoints. Each cut is computed by the operations of
    ``np.percentile``'s default method, in its order, so it has the same
    bits; ``np.percentile`` itself would load ``numpy.ma``, which takes
    longer than all the breakpoints of a backtest.
    """

    if len(prior_scores) < MIN_BREAKPOINT_OBSERVATIONS:
        raise InsufficientHistoryError(
            f"insufficient history: need at least {MIN_BREAKPOINT_OBSERVATIONS} "
            f"prior scores, got {len(prior_scores)}"
        )
    ordered = sorted(float(v) for v in prior_scores)
    if any(math.isnan(v) for v in ordered):
        return (math.nan,) * 4
    cuts = []
    for point in _QUINTILE_POINTS:
        position = (len(ordered) - 1) * point
        below = math.floor(position)  # below the last order statistic, as point < 1
        weight = position - below
        low, high = ordered[below], ordered[below + 1]
        step = high - low
        # numpy's lerp: from the nearer end, so that a weight of 1 gives ``high``.
        cuts.append(high - step * (1 - weight) if weight >= 0.5 else low + step * weight)
    return tuple(cuts)


def assign_quintile(score: float, cutoffs: Sequence[float]) -> int:
    """Smallest quintile q with score <= cutoff_q, else 5."""

    if list(cutoffs) != sorted(cutoffs) or len(cutoffs) != 4:
        raise ValueError("cutoffs must be four ascending values")
    for q, cutoff in enumerate(cutoffs, start=1):
        if score <= cutoff:
            return q
    return 5


@dataclass(frozen=True)
class QuintileAssignment:
    firm: str
    period: YearQuarter
    quintile: int
    entry_month: Month
    exit_month: Month

    def __post_init__(self) -> None:
        if not 1 <= self.quintile <= 5:
            raise ValueError(f"quintile must be in 1..5, got {self.quintile}")
        if self.exit_month < self.entry_month:
            raise ValueError("exit month must not precede entry month")


@dataclass(frozen=True)
class AssignmentResult:
    assignments: tuple[QuintileAssignment, ...]
    unassignable: int


def build_assignments(records: ScoreColumns | Sequence[MovingTargetsScore]) -> AssignmentResult:
    """Quintile assignments for every scored record with enough history.

    Breakpoints for period t pool the score values of all firms over the
    trailing four quarters (t-4 .. t-1). The first sample year of scores is
    burn-in: records less than four quarters after the earliest score, or
    with too few pooled prior observations, receive no assignment. The
    assignments follow ``ScoreColumns.holdings``, whose windows they hold;
    ``MovingTargetsScore`` records are taken as ``ScoreColumns`` first.
    """

    if not isinstance(records, ScoreColumns):
        records = ScoreColumns.of_records(records)
    periods, values = records.quarters.tolist(), records.values.tolist()
    values_by_period: dict[int, list[float]] = {}
    for i in np.flatnonzero(records.scored).tolist():
        values_by_period.setdefault(periods[i], []).append(values[i])
    burn_in_end = min(values_by_period, default=0) + 4
    cutoffs_by_period: dict[int, tuple[float, float, float, float]] = {}
    for period in values_by_period:
        pool = [v for k in range(1, 5) for v in values_by_period.get(period - k, ())]
        if period >= burn_in_end and len(pool) >= MIN_BREAKPOINT_OBSERVATIONS:
            cutoffs_by_period[period] = quintile_breakpoints(pool)

    held, entry, exit_ = records.holdings()
    assignments = []
    for i, first, last in zip(held.tolist(), entry.tolist(), exit_.tolist()):
        cutoffs = cutoffs_by_period.get(periods[i])
        if cutoffs is not None:
            assignments.append(
                QuintileAssignment(
                    firm=records.firms[i],
                    period=YearQuarter(periods[i] // 4, periods[i] % 4 + 1),
                    quintile=assign_quintile(values[i], cutoffs),
                    entry_month=Month.from_index(first),
                    exit_month=Month.from_index(last),
                )
            )
    return AssignmentResult(tuple(assignments), unassignable=len(held) - len(assignments))


@dataclass(frozen=True)
class CalendarTimeResult:
    series: Mapping[int, MonthlySeries]
    member_counts: Mapping[tuple[Month, int], int]


def calendar_time_returns(
    assignments: Sequence[QuintileAssignment], returns: ReturnsTable
) -> CalendarTimeResult:
    """Equal-weighted monthly return per quintile over active holdings.

    A firm contributes at most once per month: when holding windows overlap
    (irregular call timing) its most recent assignment wins. Months where a
    quintile has no members with returns are omitted for that quintile.
    The holdings are one table of (assignment, month) rows, and each mean
    sums its members in their firms' order of first appearance.
    """

    rank: dict[str, int] = {}
    for a in assignments:
        rank.setdefault(a.firm, len(rank))
    table = np.array(
        [
            (rank[a.firm], a.quintile, a.entry_month.index, a.exit_month.index,
             a.period.year * 4 + a.period.quarter)
            for a in assignments
        ],
        dtype=np.int64,
    ).reshape(-1, 5)
    firm, quintile, entry, exit_, period = table.T
    held, month = window_months(entry, exit_)
    # A firm's month goes to its assignment with the greatest (entry month,
    # period), and on a tie to the first in input order: the first of its run.
    order = np.lexsort((held, -period[held], -entry[held], month, firm[held]))
    held, month = held[order], month[order]
    first = [start for start, _ in _runs(firm[held], month)]
    held, month = held[first], month[first]

    codes = np.array([returns.code(f) for f in rank], dtype=np.int64)
    row = returns.locate(codes[firm[held]], month)
    held, month, row = held[row >= 0], month[row >= 0], row[row >= 0]
    # The members of each (month, quintile), in firm order.
    order = np.lexsort((firm[held], quintile[held], month))
    month, quintile, rets = month[order], quintile[held][order], returns.rets[row[order]].tolist()

    per_quintile: dict[int, list[tuple[Month, float]]] = {q: [] for q in range(1, 6)}
    member_counts: dict[tuple[Month, int], int] = {}
    for start, end in _runs(month, quintile):
        m, q = Month.from_index(int(month[start])), int(quintile[start])
        per_quintile[q].append((m, sum(rets[start:end]) / (end - start)))
        member_counts[(m, q)] = end - start

    series = {
        q: MonthlySeries.from_pairs(pairs)
        for q, pairs in per_quintile.items()
        if pairs
    }
    return CalendarTimeResult(series=series, member_counts=member_counts)


@dataclass(frozen=True)
class OlsFit:
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    r_squared: float
    n_obs: int


def ols(y: Sequence[float], X: Sequence[Sequence[float]]) -> OlsFit:
    """Least squares of y on X (caller includes the intercept column).

    Standard errors are classical (homoskedastic). Coefficients with a zero
    standard error report t = 0.
    """

    y_arr = np.asarray(y, dtype=float)
    x_arr = np.asarray(X, dtype=float)
    if x_arr.ndim != 2:
        raise ValueError("X must be two-dimensional")
    # lstsq can spin or fail to converge on an infinite or NaN input.
    if not (np.isfinite(y_arr).all() and np.isfinite(x_arr).all()):
        raise BacktestError("regression input is not finite")
    n, k = x_arr.shape
    if len(y_arr) != n:
        raise ValueError("y and X row counts differ")
    if n <= k:
        raise InsufficientHistoryError(f"insufficient observations: {n} rows, {k} regressors")

    # rcond=None cuts singular values at eps * max(n, k) * s_max, the
    # matrix_rank default, so the rank is read off the same SVD.
    beta, _, rank, _ = np.linalg.lstsq(x_arr, y_arr, rcond=None)
    if rank < k:
        raise RankDeficiencyError("regressor matrix is rank deficient")
    residuals = y_arr - x_arr @ beta
    rss = float(residuals @ residuals)
    cov = (rss / (n - k)) * np.linalg.inv(x_arr.T @ x_arr)
    # Python floats divide with the bits of float64 scalars.
    coefficients = tuple(beta.tolist())
    standard_errors = tuple(np.sqrt(np.maximum(np.diag(cov), 0.0)).tolist())
    t_stats = tuple(
        b / s if s > 0.0 else 0.0 for b, s in zip(coefficients, standard_errors)
    )
    tss = float(np.sum((y_arr - y_arr.mean()) ** 2))
    r_squared = 0.0 if tss == 0.0 else min(1.0, max(0.0, 1.0 - rss / tss))
    return OlsFit(
        coefficients=coefficients,
        standard_errors=standard_errors,
        t_stats=t_stats,
        r_squared=r_squared,
        n_obs=n,
    )


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    t_stat: float
    n_months: int
    degenerate: bool


def factor_alpha(
    series: MonthlySeries,
    factors: FactorSeries,
    model: str,
    *,
    subtract_rf: bool = True,
) -> AlphaEstimate:
    """Mean excess return or factor-model intercept of a monthly series.

    ``subtract_rf=False`` is for self-financing series (long-short spreads)
    that are already net of the risk-free rate.
    """

    if model not in ALPHA_MODELS:
        raise ValueError(f"unknown alpha model {model!r}")
    rows = []
    for month, value in zip(series.months, series.values):
        factor_row = factors.get(month)
        if factor_row is None:
            continue
        rows.append((value - factor_row.rf if subtract_rf else value, factor_row))
    if len(rows) < MIN_OVERLAP_MONTHS:
        raise InsufficientOverlapError(
            f"insufficient overlap: {len(rows)} months, need {MIN_OVERLAP_MONTHS}"
        )

    y = [r[0] for r in rows]
    n = len(y)
    if model == MODEL_EXCESS:
        mean = sum(y) / n
        try:
            var = sum((v - mean) ** 2 for v in y) / (n - 1)
        except OverflowError:
            var = math.inf
        if not math.isfinite(var):
            raise BacktestError(f"the variance of the monthly series is not finite (mean {mean})")
        sd = math.sqrt(var)
        if _degenerate_sd(sd, mean):
            return AlphaEstimate(alpha=mean, t_stat=0.0, n_months=n, degenerate=True)
        return AlphaEstimate(
            alpha=mean, t_stat=mean / (sd / math.sqrt(n)), n_months=n, degenerate=False
        )

    if model == MODEL_FF3:
        X = [[1.0, f.mkt_rf, f.smb, f.hml] for _, f in rows]
    else:
        X = [[1.0, f.mkt_rf, f.smb, f.hml, f.mom, f.liq] for _, f in rows]
    fit = ols(y, X)
    degenerate = fit.standard_errors[0] == 0.0
    return AlphaEstimate(
        alpha=fit.coefficients[0],
        t_stat=fit.t_stats[0],
        n_months=n,
        degenerate=degenerate,
    )


def long_short_spread(q5: MonthlySeries, q1: MonthlySeries) -> MonthlySeries:
    """Per-month Q5 minus Q1 over the overlapping months."""

    q1_map = dict(zip(q1.months, q1.values))
    pairs = [
        (month, value - q1_map[month])
        for month, value in zip(q5.months, q5.values)
        if month in q1_map
    ]
    if not pairs:
        raise InsufficientOverlapError("no overlapping months between Q5 and Q1")
    return MonthlySeries.from_pairs(pairs)


@dataclass(frozen=True)
class FamaMacbethResult:
    regressors: tuple[str, ...]
    mean_coefficients: tuple[float, ...]
    t_stats: tuple[float, ...]
    avg_r_squared: float
    n_obs: int
    n_months: int
    dropped_months: tuple[Month, ...]
    degenerate: tuple[str, ...]


def fama_macbeth(
    panel: PanelTable | Sequence[PanelObservation], *, min_months: int = MIN_OVERLAP_MONTHS
) -> FamaMacbethResult:
    """Monthly cross-sectional regressions averaged over time.

    Each month regresses firm returns on the drift score, Log(Size),
    Log(BM), Ret(-1,0), Ret(-12,-1), and a constant; rows with any missing
    control are excluded. Months with too few rows or a rank-deficient
    cross-section are dropped with a diagnostic; t-stats come from the
    time series of monthly coefficients. A month's rows keep their panel
    order; ``PanelObservation`` rows are taken as a ``PanelTable`` first.
    """

    if not isinstance(panel, PanelTable):
        panel = PanelTable.from_rows(panel)
    rows = np.flatnonzero(panel.complete)
    rows = rows[np.argsort(panel.month[rows], kind="stable")]
    months = panel.month[rows]
    y_all = panel.ret[rows]
    X_all = np.column_stack(
        [
            panel.score[rows],
            panel.log_size[rows],
            panel.log_bm[rows],
            panel.ret_1_0[rows],
            panel.ret_12_1[rows],
            np.ones(len(rows)),
        ]
    )

    k = len(FM_REGRESSORS)
    coefficient_rows = []
    r_squareds = []
    dropped: list[Month] = []
    n_obs = 0
    for start, end in _runs(months):
        if end - start <= k:
            dropped.append(Month.from_index(int(months[start])))
            continue
        try:
            # Copies: each month's regression gets arrays of its own, as it
            # would from lists.
            fit = ols(y_all[start:end].copy(), X_all[start:end].copy())
        except RankDeficiencyError:
            dropped.append(Month.from_index(int(months[start])))
            continue
        coefficient_rows.append(fit.coefficients)
        r_squareds.append(fit.r_squared)
        n_obs += end - start

    if not coefficient_rows:
        raise InsufficientHistoryError("all months dropped from cross-sectional regressions")
    n_months = len(coefficient_rows)
    if n_months < min_months:
        raise InsufficientOverlapError(
            f"insufficient months: {n_months} usable, need {min_months}"
        )

    matrix = np.asarray(coefficient_rows, dtype=float)
    means = matrix.mean(axis=0)
    t_stats = []
    degenerate = []
    for j, name in enumerate(FM_REGRESSORS):
        sd = float(matrix[:, j].std(ddof=1)) if n_months > 1 else 0.0
        if _degenerate_sd(sd, float(means[j])):
            t_stats.append(0.0)
            degenerate.append(name)
        else:
            t_stats.append(float(means[j]) / (sd / math.sqrt(n_months)))

    return FamaMacbethResult(
        regressors=FM_REGRESSORS,
        mean_coefficients=tuple(float(m) for m in means),
        t_stats=tuple(t_stats),
        avg_r_squared=float(sum(r_squareds) / n_months),
        n_obs=n_obs,
        n_months=n_months,
        dropped_months=tuple(dropped),
        degenerate=tuple(degenerate),
    )
