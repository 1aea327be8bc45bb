"""Return-predictability validation of drift scores.

Pipeline: assign each scored firm-quarter to a quintile using breakpoints
from the pooled score distribution of the trailing four quarters, hold the
firm in a calendar-time equal-weighted portfolio from the month after its
call until its next call, then estimate excess returns and factor alphas
per quintile and for the Q5-Q1 spread, plus monthly cross-sectional
regressions of firm returns on the score and standard controls.

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
    PanelObservation,
    ReturnsTable,
    YearQuarter,
    holding_windows,
    shift_quarters,
)
from .score import MovingTargetsScore

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
        if list(self.months) != sorted(set(self.months)):
            raise ValueError("months must be unique and sorted")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Month, float]]) -> "MonthlySeries":
        ordered = sorted(pairs, key=lambda p: p[0])
        return cls(
            months=tuple(m for m, _ in ordered),
            values=tuple(float(v) for _, v in ordered),
        )

    def as_dict(self) -> dict[Month, float]:
        return dict(zip(self.months, self.values))

    def __len__(self) -> int:
        return len(self.months)


def quintile_breakpoints(prior_scores: Sequence[float]) -> tuple[float, float, float, float]:
    """20/40/60/80th percentiles of the pooled prior-score distribution.

    Percentiles interpolate linearly between order statistics with
    inclusive endpoints.
    """

    if len(prior_scores) < MIN_BREAKPOINT_OBSERVATIONS:
        raise InsufficientHistoryError(
            f"insufficient history: need at least {MIN_BREAKPOINT_OBSERVATIONS} "
            f"prior scores, got {len(prior_scores)}"
        )
    cuts = np.percentile(np.asarray(prior_scores, dtype=float), [20, 40, 60, 80])
    return tuple(float(c) for c in cuts)


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


def build_assignments(records: Sequence[MovingTargetsScore]) -> AssignmentResult:
    """Quintile assignments for every scored record with enough history.

    Breakpoints for period t pool the score values of all firms over the
    trailing four quarters (t-4 .. t-1). The first sample year of scores is
    burn-in: records less than four quarters after the earliest score, or
    with too few pooled prior observations, receive no assignment.
    """

    windows = holding_windows((record.firm, record.period) for record in records)
    values_by_period: dict[YearQuarter, list[float]] = {}
    for record in records:
        if record.value is not None:
            values_by_period.setdefault(record.period, []).append(record.value)

    assignments = []
    unassignable = 0
    scored = sorted(
        (r for r in records if r.value is not None), key=lambda r: (r.firm, r.period)
    )
    if not scored:
        return AssignmentResult(assignments=(), unassignable=0)
    burn_in_end = shift_quarters(min(values_by_period), 4)
    cutoffs_by_period: dict[YearQuarter, tuple[float, float, float, float]] = {}
    for period in values_by_period:
        if period < burn_in_end:
            continue
        pool: list[float] = []
        for k in range(1, 5):
            pool.extend(values_by_period.get(shift_quarters(period, -k), ()))
        if len(pool) >= MIN_BREAKPOINT_OBSERVATIONS:
            cutoffs_by_period[period] = quintile_breakpoints(pool)
    for record in scored:
        cutoffs = cutoffs_by_period.get(record.period)
        if cutoffs is None:
            unassignable += 1
            continue
        entry, exit_ = windows[(record.firm, record.period)]
        assignments.append(
            QuintileAssignment(
                firm=record.firm,
                period=record.period,
                quintile=assign_quintile(record.value, cutoffs),
                entry_month=Month.from_index(entry),
                exit_month=Month.from_index(exit_),
            )
        )
    return AssignmentResult(assignments=tuple(assignments), unassignable=unassignable)


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
    """

    # firm -> {month index: quintile}. Firms keep their order of first
    # appearance, so each month's mean sums its members in that order.
    held: dict[str, dict[int, int]] = {a.firm: {} for a in assignments}
    # Most recent (entry_month, period) first; setdefault keeps the first
    # writer, and the stable sort breaks ties by input order.
    for a in sorted(assignments, key=lambda a: (a.entry_month, a.period), reverse=True):
        months = held[a.firm]
        for month in range(a.entry_month.index, a.exit_month.index + 1):
            months.setdefault(month, a.quintile)

    pooled: dict[int, dict[int, list[float]]] = {}
    for firm, months in held.items():
        for month, quintile in months.items():
            ret = returns.ret(firm, month)
            if ret is not None:
                pooled.setdefault(month, {}).setdefault(quintile, []).append(ret)

    per_quintile: dict[int, list[tuple[Month, float]]] = {q: [] for q in range(1, 6)}
    member_counts: dict[tuple[Month, int], int] = {}
    for index in sorted(pooled):
        month = Month.from_index(index)
        for quintile, rets in pooled[index].items():
            per_quintile[quintile].append((month, sum(rets) / len(rets)))
            member_counts[(month, quintile)] = len(rets)

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
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    t_stats = tuple(
        float(b / s) if s > 0.0 else 0.0 for b, s in zip(beta, se)
    )
    tss = float(np.sum((y_arr - y_arr.mean()) ** 2))
    r_squared = 0.0 if tss == 0.0 else min(1.0, max(0.0, 1.0 - rss / tss))
    return OlsFit(
        coefficients=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
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
        var = sum((v - mean) ** 2 for v in y) / (n - 1)
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

    q1_map = q1.as_dict()
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
    panel: Sequence[PanelObservation], *, min_months: int = MIN_OVERLAP_MONTHS
) -> FamaMacbethResult:
    """Monthly cross-sectional regressions averaged over time.

    Each month regresses firm returns on the drift score, Log(Size),
    Log(BM), Ret(-1,0), Ret(-12,-1), and a constant; rows with any missing
    control are excluded. Months with too few rows or a rank-deficient
    cross-section are dropped with a diagnostic; t-stats come from the
    time series of monthly coefficients.
    """

    by_month: dict[Month, list[PanelObservation]] = {}
    for row in panel:
        if row.has_all_controls:
            by_month.setdefault(row.month, []).append(row)

    k = len(FM_REGRESSORS)
    coefficient_rows = []
    r_squareds = []
    dropped: list[Month] = []
    n_obs = 0
    for month in sorted(by_month):
        rows = by_month[month]
        if len(rows) <= k:
            dropped.append(month)
            continue
        y = [r.ret for r in rows]
        X = [
            [r.score, r.log_size, r.log_bm, r.ret_1_0, r.ret_12_1, 1.0]
            for r in rows
        ]
        try:
            fit = ols(y, X)
        except RankDeficiencyError:
            dropped.append(month)
            continue
        coefficient_rows.append(fit.coefficients)
        r_squareds.append(fit.r_squared)
        n_obs += len(rows)

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
