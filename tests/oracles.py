"""Independent reference computations used to check the real implementations.

These deliberately avoid the code paths they verify: the retention oracle
is a pure-Python triple loop, the per-pair similarity reference rebuilds
and normalises each pair's vectors instead of indexing one matrix of unit
rows, the quintile reference recomputes the breakpoints for every record
instead of once per period, the regression oracle solves the normal
equations explicitly instead of using a least-squares routine, and the
returns-join references scan every row and every month instead of using the
per-firm month index.
"""

from __future__ import annotations

import math

import numpy as np


def cosine_loop(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    norm_u = math.sqrt(sum(a * a for a in u))
    norm_v = math.sqrt(sum(b * b for b in v))
    return dot / (norm_u * norm_v)


def semantic_retention_oracle(current, previous, tau) -> float:
    """Triple-loop retention score over raw vector lists."""

    total = 0.0
    for prev_vec in previous:
        best = -1.0
        for cur_vec in current:
            similarity = cosine_loop(cur_vec, prev_vec)
            if similarity > best:
                best = similarity
        total += 1.0 if best >= tau else best
    return total / len(previous)


def similarity_matrix_per_pair(current, previous):
    """Cosine similarities of two lists of ``EmbeddingVector``s, built per pair.

    Both sides are converted from their tuples of floats, normalised by
    their own row norms and multiplied: rows = current, columns = previous.
    """

    if not current or not previous:
        return np.zeros((len(current), len(previous)))
    cur = np.asarray([v.values for v in current], dtype=float)
    prev = np.asarray([v.values for v in previous], dtype=float)
    cur_norm = np.linalg.norm(cur, axis=1, keepdims=True)
    prev_norm = np.linalg.norm(prev, axis=1, keepdims=True)
    return (cur / cur_norm) @ (prev / prev_norm).T


def semantic_pair_per_pair(current, previous, tau, empty_current_zero):
    """(retention, best similarities) of one pair through the per-pair path.

    ``current`` and ``previous`` are lists of ``EmbeddingVector``s; with no
    current vectors, the zero rule gives retention 0 and no similarities,
    and the penalty rule pools every prior target to -1.
    """

    if not current and empty_current_zero:
        return 0.0, [None] * len(previous)
    matrix = similarity_matrix_per_pair(current, previous)
    if not current:
        pooled = [-1.0] * len(previous)
    else:
        pooled = [float(v) for v in matrix.max(axis=0)]
    return sum(1.0 if s >= tau else s for s in pooled) / len(previous), pooled


def quintiles_per_record(records):
    """``([(firm, period, quintile)], unassignable)`` of scored records.

    For every record, pools the score values of the four quarters before its
    own, takes the 20/40/60/80th percentiles of the pool and puts the record
    in the first quintile whose cutoff its value does not exceed. Records in
    the first four quarters after the earliest score, or with fewer than
    five pooled values, are unassignable.
    """

    def index(period):
        return period.year * 4 + period.quarter - 1

    values_by_quarter: dict = {}
    for record in records:
        if record.value is not None:
            values_by_quarter.setdefault(index(record.period), []).append(record.value)
    scored = sorted(
        (r for r in records if r.value is not None), key=lambda r: (r.firm, r.period)
    )
    if not scored:
        return [], 0
    burn_in_end = min(values_by_quarter) + 4
    assigned = []
    unassignable = 0
    for record in scored:
        quarter = index(record.period)
        pool = [v for k in range(1, 5) for v in values_by_quarter.get(quarter - k, ())]
        if quarter < burn_in_end or len(pool) < 5:
            unassignable += 1
            continue
        cutoffs = np.percentile(np.asarray(pool, dtype=float), [20, 40, 60, 80])
        quintile = next((q for q, c in enumerate(cutoffs, start=1) if record.value <= c), 5)
        assigned.append((record.firm, record.period, quintile))
    return assigned, unassignable


def ols_normal_equations(y, X):
    """(beta, se, r_squared) from an explicit normal-equations solve."""

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    dof = len(y) - X.shape[1]
    cov = (rss / dof) * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    tss = float(((y - y.mean()) ** 2).sum())
    r_squared = 0.0 if tss == 0.0 else 1.0 - rss / tss
    return beta, se, r_squared


def random_unit_vectors(rng, count: int, dim: int) -> list[list[float]]:
    vectors = []
    for _ in range(count):
        raw = rng.standard_normal(dim)
        vectors.append([float(v) for v in raw / np.linalg.norm(raw)])
    return vectors


def latest_at_or_before_scan(rows, firm, month):
    """Most recent row for ``firm`` dated at or before ``month``: a linear scan."""

    best = None
    for row in rows:
        if row.firm != firm or row.month > month:
            continue
        if best is None or row.month > best.month:
            best = row
    return best


def calendar_time_returns_loop(assignments, rows):
    """Month-by-firm scan of quintile holdings over ``Month`` objects.

    Returns ``({quintile: [(month, mean return)]}, {(month, quintile): members})``.
    Each month, every firm takes its active assignment with the greatest
    (entry month, period), the first in input order on a tie.
    """

    returns = {(row.firm, row.month): row.ret for row in rows}
    per_quintile: dict = {}
    member_counts: dict = {}
    if not assignments:
        return per_quintile, member_counts
    by_firm: dict = {}
    for assignment in assignments:
        by_firm.setdefault(assignment.firm, []).append(assignment)
    month = min(a.entry_month for a in assignments)
    last = max(a.exit_month for a in assignments)
    while month <= last:
        pooled: dict = {}
        for firm, firm_assignments in by_firm.items():
            active = [a for a in firm_assignments if a.entry_month <= month <= a.exit_month]
            if not active:
                continue
            current = max(active, key=lambda a: (a.entry_month, a.period))
            ret = returns.get((firm, month))
            if ret is None:
                continue
            pooled.setdefault(current.quintile, []).append(ret)
        for quintile, rets in pooled.items():
            per_quintile.setdefault(quintile, []).append((month, sum(rets) / len(rets)))
            member_counts[(month, quintile)] = len(rets)
        month = month.shift(1)
    return per_quintile, member_counts
