from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingtargets.backtest import (
    FM_REGRESSORS,
    InsufficientHistoryError,
    InsufficientOverlapError,
    MonthlySeries,
    QuintileAssignment,
    RankDeficiencyError,
    assign_quintile,
    build_assignments,
    calendar_time_returns,
    factor_alpha,
    fama_macbeth,
    long_short_spread,
    ols,
    quintile_breakpoints,
)
from movingtargets.corpus import (
    FactorRow,
    FactorSeries,
    Month,
    PanelObservation,
    ReturnRow,
    ReturnsTable,
    YearQuarter,
    shift_quarters,
)
from movingtargets.score import METHOD_SEMANTIC, MovingTargetsScore
from oracles import (
    calendar_time_returns_loop,
    latest_at_or_before_scan,
    ols_normal_equations,
    quintiles_per_record,
)


def record(firm, year, quarter, value):
    return MovingTargetsScore(
        firm=firm,
        period=YearQuarter(year, quarter),
        value=value,
        method=METHOD_SEMANTIC,
        tau=0.65,
        n_prev=5,
        n_curr=5,
        direction="retention",
    )


def flat_factors(start: Month, n_months: int, rf=0.0, mkt=None, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    month = start
    for i in range(n_months):
        rows.append(
            FactorRow(
                month=month,
                mkt_rf=mkt[i] if mkt is not None else float(rng.normal(0.005, 0.03)),
                smb=float(rng.normal(0, 0.02)),
                hml=float(rng.normal(0, 0.02)),
                mom=float(rng.normal(0, 0.02)),
                liq=float(rng.normal(0, 0.02)),
                rf=rf,
            )
        )
        month = month.shift(1)
    return FactorSeries.from_rows(rows)


def series(start: Month, values):
    months = []
    month = start
    for _ in values:
        months.append(month)
        month = month.shift(1)
    return MonthlySeries(months=tuple(months), values=tuple(float(v) for v in values))


class TestQuintileBreakpoints:
    def test_hand_computed_percentiles(self):
        cuts = quintile_breakpoints(list(range(1, 11)))
        assert cuts == pytest.approx((2.8, 4.6, 6.4, 8.2), abs=1e-12)

    def test_degenerate_distribution_collapses_to_first_bucket(self):
        cuts = quintile_breakpoints([0.7] * 8)
        assert cuts == (0.7, 0.7, 0.7, 0.7)
        assert assign_quintile(0.7, cuts) == 1

    def test_too_few_observations(self):
        with pytest.raises(InsufficientHistoryError, match="insufficient history"):
            quintile_breakpoints([1.0, 2.0, 3.0, 4.0])


class TestAssignQuintile:
    def test_below_first_cutoff(self):
        assert assign_quintile(0.1, (0.2, 0.4, 0.6, 0.8)) == 1

    def test_above_last_cutoff(self):
        assert assign_quintile(0.9, (0.2, 0.4, 0.6, 0.8)) == 5

    def test_tie_breaks_into_lower_bucket(self):
        assert assign_quintile(0.4, (0.2, 0.4, 0.6, 0.8)) == 2

    def test_rank_invariance_under_monotone_transform_of_pool_members(self):
        rng = np.random.default_rng(19)
        for transform in (lambda x: math.exp(x), lambda x: x**3 + 2 * x):
            pool = [float(v) for v in rng.normal(0, 1, size=40)]
            cuts = quintile_breakpoints(pool)
            transformed_cuts = quintile_breakpoints([transform(v) for v in pool])
            for v in pool:
                assert assign_quintile(v, cuts) == assign_quintile(transform(v), transformed_cuts)


class TestBuildAssignments:
    def make_records(self):
        records = []
        # 8 firms x 6 quarters starting 2020Q1; firm f has stable score f/10
        for f in range(1, 9):
            for q in range(6):
                year = 2020 + (q // 4)
                quarter = q % 4 + 1
                records.append(record(f"F{f}", year, quarter, f / 10))
        return records

    def test_burn_in_quarters_unassignable(self):
        result = build_assignments(self.make_records())
        # 2020Q1..Q4 pools are short of history: 0, 8, 16, 24 prior scores
        assert result.unassignable == 8 * 4
        assigned_periods = {a.period for a in result.assignments}
        assert assigned_periods == {YearQuarter(2021, 1), YearQuarter(2021, 2)}

    def test_window_bounds_follow_call_calendar(self):
        result = build_assignments(self.make_records())
        a = next(x for x in result.assignments if x.firm == "F1" and x.period == YearQuarter(2021, 1))
        assert a.entry_month == Month(2021, 4)
        assert a.exit_month == Month(2021, 6)
        last = next(x for x in result.assignments if x.firm == "F1" and x.period == YearQuarter(2021, 2))
        assert last.exit_month == Month(2021, 9)  # no later call: 3 months

    def test_stable_extremes_land_in_outer_quintiles(self):
        result = build_assignments(self.make_records())
        by_firm = {a.firm: a.quintile for a in result.assignments if a.period == YearQuarter(2021, 1)}
        assert by_firm["F1"] == 1
        assert by_firm["F8"] == 5

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            QuintileAssignment("F", YearQuarter(2020, 1), 6, Month(2020, 4), Month(2020, 6))
        with pytest.raises(ValueError):
            QuintileAssignment("F", YearQuarter(2020, 1), 1, Month(2020, 6), Month(2020, 4))


def assignment(firm, quintile, entry, exit_, year=2020, quarter=1):
    return QuintileAssignment(
        firm=firm,
        period=YearQuarter(year, quarter),
        quintile=quintile,
        entry_month=entry,
        exit_month=exit_,
    )


def returns_table(rows):
    return ReturnsTable.from_rows(
        ReturnRow(firm=f, month=m, ret=r, mktcap=100.0, bm=0.5) for f, m, r in rows
    )


class TestCalendarTimeReturns:
    def test_equal_weighted_mean(self):
        assignments = [
            assignment("A", 5, Month(2020, 4), Month(2020, 4)),
            assignment("B", 5, Month(2020, 4), Month(2020, 4)),
        ]
        returns = returns_table([("A", Month(2020, 4), 0.01), ("B", Month(2020, 4), 0.03)])
        result = calendar_time_returns(assignments, returns)
        assert result.series[5].values == (0.02,)
        assert result.member_counts[(Month(2020, 4), 5)] == 2

    def test_overlapping_windows_use_most_recent_assignment(self):
        assignments = [
            assignment("A", 1, Month(2020, 4), Month(2020, 8), quarter=1),
            assignment("A", 4, Month(2020, 6), Month(2020, 9), quarter=2),
        ]
        returns = returns_table([("A", Month(2020, m), 0.01) for m in range(4, 10)])
        result = calendar_time_returns(assignments, returns)
        # Months 6..8 overlap: the later entry wins, so Q1 holds only Apr-May.
        assert [str(m) for m in result.series[1].months] == ["2020-04", "2020-05"]
        assert [str(m) for m in result.series[4].months] == [
            "2020-06", "2020-07", "2020-08", "2020-09",
        ]

    def test_months_without_members_omitted(self):
        assignments = [assignment("A", 2, Month(2020, 4), Month(2020, 6))]
        returns = returns_table([("A", Month(2020, 4), 0.01), ("A", Month(2020, 6), 0.02)])
        result = calendar_time_returns(assignments, returns)
        assert [str(m) for m in result.series[2].months] == ["2020-04", "2020-06"]

    def test_portfolio_return_within_member_range(self):
        rng = np.random.default_rng(7)
        assignments = []
        rows = []
        for i in range(10):
            assignments.append(assignment(f"F{i}", 3, Month(2020, 4), Month(2020, 6)))
            for m in range(4, 7):
                rows.append((f"F{i}", Month(2020, m), float(rng.normal(0.01, 0.05))))
        returns = returns_table(rows)
        result = calendar_time_returns(assignments, returns)
        by_month = {}
        for f, m, r in rows:
            by_month.setdefault(m, []).append(r)
        for month, value in zip(result.series[3].months, result.series[3].values):
            assert min(by_month[month]) <= value <= max(by_month[month])

    def test_member_counts_sum_to_active_holdings(self):
        assignments = [
            assignment("A", 1, Month(2020, 4), Month(2020, 6)),
            assignment("B", 5, Month(2020, 4), Month(2020, 5)),
            assignment("C", 5, Month(2020, 5), Month(2020, 6)),
        ]
        rows = [
            (f, Month(2020, m), 0.01)
            for f, span in (("A", (4, 5, 6)), ("B", (4, 5)), ("C", (5, 6)))
            for m in span
        ]
        returns = returns_table(rows)
        result = calendar_time_returns(assignments, returns)
        active = {Month(2020, 4): 2, Month(2020, 5): 3, Month(2020, 6): 2}
        for month, expected in active.items():
            total = sum(
                count for (m, _), count in result.member_counts.items() if m == month
            )
            assert total == expected

    def test_empty_assignments(self):
        result = calendar_time_returns([], returns_table([]))
        assert result.series == {}


FIRMS = ("A", "B", "C", "D", "E")
START = Month(2020, 1)
SPAN_MONTHS = 30


@st.composite
def returns_tables(draw):
    """Returns for a few firms over 30 months, with any month missing.

    Returns are decimals, so a mean summed in another firm order differs.
    """

    rows = []
    for firm in FIRMS:
        gaps = draw(st.sets(st.integers(0, SPAN_MONTHS - 1)))
        for offset in (i for i in range(SPAN_MONTHS) if i not in gaps):
            ret = draw(st.integers(-9_000, 20_000)) / 10_000
            rows.append(ReturnRow(firm, START.shift(offset), ret, mktcap=100.0, bm=0.5))
    return ReturnsTable.from_rows(rows)


@st.composite
def assignment_lists(draw):
    """Every firm's assignments, shuffled: windows of one firm overlap, some
    run past the last month with returns, and some tie on (entry, period)."""

    # (period, quintile, entry, months held); two quintiles, so that months
    # often pool three or more firms.
    window = st.tuples(
        st.integers(0, 3), st.integers(1, 2), st.integers(0, SPAN_MONTHS + 2), st.integers(0, 24)
    )
    items = [
        (firm, *drawn)
        for firm in FIRMS
        for drawn in draw(st.lists(window, min_size=1, max_size=3))
    ]
    for _ in range(draw(st.integers(0, 3))):
        firm, period, _, entry, _ = draw(st.sampled_from(items))
        items.append((firm, period, draw(st.integers(1, 2)), entry, draw(st.integers(0, 24))))
    items = draw(st.permutations(items))
    return [
        QuintileAssignment(
            firm=firm,
            period=shift_quarters(YearQuarter(2020, 1), period),
            quintile=quintile,
            entry_month=START.shift(entry),
            exit_month=START.shift(entry + held),
        )
        for firm, period, quintile, entry, held in items
    ]


property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@property_settings
@given(returns_tables(), assignment_lists())
def test_calendar_time_returns_matches_month_by_firm_loop(returns, assignments):
    result = calendar_time_returns(assignments, returns)
    per_quintile, member_counts = calendar_time_returns_loop(assignments, returns.rows)
    assert {q: list(zip(s.months, s.values)) for q, s in result.series.items()} == per_quintile
    assert result.member_counts == member_counts


@property_settings
@given(
    returns_tables(),
    st.sampled_from(FIRMS + ("Z",)),
    st.integers(-3, SPAN_MONTHS + 3),
    st.integers(0, 14),
)
def test_returns_index_matches_row_scan(returns, firm, offset, length):
    month = START.shift(offset)
    assert returns.latest_at_or_before(firm, month) == latest_at_or_before_scan(
        returns.rows, firm, month
    )
    by_month = {(row.firm, row.month.index): row.ret for row in returns.rows}
    wanted = [by_month.get((firm, m)) for m in range(month.index - length, month.index + 1)]
    expected = None if None in wanted else wanted
    assert returns.span(firm, month.index - length, month.index) == expected


@st.composite
def score_records(draw):
    """Scores of five firms over up to 16 quarters, shuffled: any quarter may
    be missing or unscored, and values repeat, so some equal a cutoff."""

    records = []
    for firm in FIRMS:
        for quarter in draw(st.sets(st.integers(0, 15))):
            period = shift_quarters(YearQuarter(2020, 1), quarter)
            value = draw(st.none() | st.integers(0, 10).map(lambda v: v / 10))
            records.append(record(firm, period.year, period.quarter, value))
    return draw(st.permutations(records))


@property_settings
@given(score_records())
def test_build_assignments_matches_per_record_breakpoints(records):
    result = build_assignments(records)
    assigned, unassignable = quintiles_per_record(records)
    assert [(a.firm, a.period, a.quintile) for a in result.assignments] == assigned
    assert result.unassignable == unassignable


class TestOls:
    def test_noiseless_line(self):
        x = np.arange(10, dtype=float)
        y = 2.0 * x + 3.0
        X = np.column_stack([np.ones(10), x])
        fit = ols(y, X)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_constant_target(self):
        x = np.arange(10, dtype=float)
        y = np.full(10, 5.0)
        fit = ols(y, np.column_stack([np.ones(10), x]))
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n, k = 40, 4
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = rng.normal(size=n)
            fit = ols(y, X)
            beta, se, r2 = ols_normal_equations(y, X)
            assert fit.coefficients == pytest.approx(tuple(beta), abs=1e-8)
            assert fit.standard_errors == pytest.approx(tuple(se), abs=1e-8)
            assert fit.r_squared == pytest.approx(r2, abs=1e-8)

    def test_rank_deficiency_detected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(RankDeficiencyError):
            ols(np.arange(10.0), X)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientHistoryError):
            ols([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])


class TestFactorAlpha:
    def test_series_equal_to_rf_is_flat_zero(self):
        factors = flat_factors(Month(2020, 1), 30, rf=0.001)
        s = series(Month(2020, 1), [0.001] * 30)
        estimate = factor_alpha(s, factors, "excess")
        assert estimate.alpha == pytest.approx(0.0, abs=1e-15)
        assert estimate.t_stat == 0.0
        assert estimate.degenerate

    def test_injected_ff3_alpha_recovered(self):
        rng = np.random.default_rng(17)
        mkt = [float(v) for v in rng.normal(0.005, 0.03, size=30)]
        factors = flat_factors(Month(2020, 1), 30, rf=0.0, mkt=mkt)
        s = series(Month(2020, 1), [0.002 + 1.0 * m for m in mkt])
        estimate = factor_alpha(s, factors, "ff3")
        assert estimate.alpha == pytest.approx(0.002, abs=1e-10)

    def test_five_factor_model_uses_momentum_and_liquidity(self):
        factors = flat_factors(Month(2020, 1), 40, rf=0.0, seed=23)
        values = [
            0.001 + 0.7 * f.mkt_rf - 0.2 * f.mom + 0.3 * f.liq for f in factors.rows
        ]
        s = series(Month(2020, 1), values)
        estimate = factor_alpha(s, factors, "five_factor")
        assert estimate.alpha == pytest.approx(0.001, abs=1e-10)
        # the 3-factor model cannot absorb the mom/liq loadings
        ff3 = factor_alpha(s, factors, "ff3")
        assert abs(ff3.alpha - 0.001) > 1e-6

    def test_insufficient_overlap_rejected(self):
        factors = flat_factors(Month(2020, 1), 10)
        s = series(Month(2020, 1), [0.01] * 10)
        with pytest.raises(InsufficientOverlapError):
            factor_alpha(s, factors, "excess")

    def test_spread_mode_skips_rf_deduction(self):
        factors = flat_factors(Month(2020, 1), 30, rf=0.005)
        s = series(Month(2020, 1), [0.01] * 30)
        gross = factor_alpha(s, factors, "excess", subtract_rf=False)
        net = factor_alpha(s, factors, "excess", subtract_rf=True)
        assert gross.alpha == pytest.approx(0.01, abs=1e-15)
        assert net.alpha == pytest.approx(0.005, abs=1e-15)

    def test_unknown_model_rejected(self):
        factors = flat_factors(Month(2020, 1), 30)
        with pytest.raises(ValueError):
            factor_alpha(series(Month(2020, 1), [0.01] * 30), factors, "capm")


class TestLongShortSpread:
    def test_per_month_difference(self):
        q5 = series(Month(2020, 1), [0.01, 0.02])
        q1 = series(Month(2020, 1), [0.02, 0.01])
        spread = long_short_spread(q5, q1)
        assert spread.values == pytest.approx((-0.01, 0.01))

    def test_restricted_to_overlap(self):
        q5 = series(Month(2020, 1), [0.01, 0.02, 0.03])
        q1 = series(Month(2020, 2), [0.01, 0.01])
        spread = long_short_spread(q5, q1)
        assert [str(m) for m in spread.months] == ["2020-02", "2020-03"]

    def test_disjoint_months_rejected(self):
        q5 = series(Month(2020, 1), [0.01])
        q1 = series(Month(2021, 1), [0.01])
        with pytest.raises(InsufficientOverlapError):
            long_short_spread(q5, q1)


TRUE_COEFFS = {
    "moving_targets": -0.05,
    "log_size": 0.002,
    "log_bm": -0.003,
    "ret_1_0": 0.04,
    "ret_12_1": -0.01,
    "constant": 0.01,
}


def synthetic_panel(rng, n_months=30, n_firms=10, noise=0.0, coeffs=TRUE_COEFFS):
    rows = []
    month = Month(2015, 1)
    for _ in range(n_months):
        for f in range(n_firms):
            mt = float(rng.uniform(0, 1))
            ls = float(rng.normal(10, 1))
            lb = float(rng.normal(-0.5, 0.4))
            r10 = float(rng.normal(0.01, 0.05))
            r121 = float(rng.normal(0.1, 0.2))
            ret = (
                coeffs["constant"]
                + coeffs["moving_targets"] * mt
                + coeffs["log_size"] * ls
                + coeffs["log_bm"] * lb
                + coeffs["ret_1_0"] * r10
                + coeffs["ret_12_1"] * r121
                + (float(rng.normal(0, noise)) if noise else 0.0)
            )
            rows.append(
                PanelObservation(
                    firm=f"F{f}",
                    month=month,
                    ret=ret,
                    score=mt,
                    log_size=ls,
                    log_bm=lb,
                    ret_1_0=r10,
                    ret_12_1=r121,
                )
            )
        month = month.shift(1)
    return rows


class TestFamaMacbeth:
    def test_zero_noise_recovers_injected_coefficients(self):
        zeroed = dict.fromkeys(TRUE_COEFFS, 0.0)
        zeroed["moving_targets"] = -0.05
        panel = synthetic_panel(np.random.default_rng(29), coeffs=zeroed)
        fm = fama_macbeth(panel)
        by_name = dict(zip(fm.regressors, fm.mean_coefficients))
        assert by_name["moving_targets"] == pytest.approx(-0.05, abs=1e-8)
        for name in ("log_size", "log_bm", "ret_1_0", "ret_12_1", "constant"):
            assert abs(by_name[name]) < 1e-8

    def test_constant_score_within_month_drops_all_months(self):
        panel = []
        for row in synthetic_panel(np.random.default_rng(31), n_months=4, n_firms=10):
            panel.append(
                PanelObservation(
                    firm=row.firm,
                    month=row.month,
                    ret=row.ret,
                    score=0.5,
                    log_size=row.log_size,
                    log_bm=row.log_bm,
                    ret_1_0=row.ret_1_0,
                    ret_12_1=row.ret_12_1,
                )
            )
        with pytest.raises(InsufficientHistoryError, match="all months dropped"):
            fama_macbeth(panel, min_months=1)

    def test_months_with_too_few_rows_dropped(self):
        panel = synthetic_panel(np.random.default_rng(37), n_months=25, n_firms=10, noise=0.01)
        thin_month = Month(2010, 1)
        panel.append(
            PanelObservation(
                firm="F0",
                month=thin_month,
                ret=0.01,
                score=0.5,
                log_size=10.0,
                log_bm=-0.5,
                ret_1_0=0.0,
                ret_12_1=0.1,
            )
        )
        fm = fama_macbeth(panel)
        assert thin_month in fm.dropped_months
        assert fm.n_months == 25

    def test_rows_missing_controls_excluded(self):
        panel = synthetic_panel(np.random.default_rng(41), n_months=25, n_firms=10, noise=0.01)
        with_missing = panel + [
            PanelObservation(
                firm="FX",
                month=Month(2015, 1),
                ret=9.9,
                score=0.5,
                log_size=None,
                log_bm=-0.5,
                ret_1_0=0.0,
                ret_12_1=0.1,
            )
        ]
        assert fama_macbeth(with_missing).n_obs == fama_macbeth(panel).n_obs

    def test_minimum_month_count_enforced(self):
        panel = synthetic_panel(np.random.default_rng(43), n_months=10, noise=0.01)
        with pytest.raises(InsufficientOverlapError, match="insufficient months"):
            fama_macbeth(panel)

    def test_noisy_recovery_within_three_standard_errors(self):
        master = np.random.default_rng(2024)
        total = 0
        covered = 0
        for _ in range(100):
            rng = np.random.default_rng(int(master.integers(0, 2**63)))
            fm = fama_macbeth(synthetic_panel(rng, n_months=40, n_firms=30, noise=0.02))
            for name, mean, t in zip(fm.regressors, fm.mean_coefficients, fm.t_stats):
                se = abs(mean / t) if t != 0 else float("inf")
                total += 1
                if abs(mean - TRUE_COEFFS[name]) <= 3 * se:
                    covered += 1
        assert covered / total >= 0.99

    def test_reports_average_r_squared_and_n(self):
        panel = synthetic_panel(np.random.default_rng(47), n_months=30, n_firms=12, noise=0.01)
        fm = fama_macbeth(panel)
        assert fm.n_obs == 30 * 12
        assert fm.n_months == 30
        assert 0.0 <= fm.avg_r_squared <= 1.0
        assert fm.regressors == FM_REGRESSORS
