"""Independent reference computations used to check the real implementations.

These deliberately avoid the code paths they verify: the retention oracle
is a pure-Python triple loop, the regression oracle solves the normal
equations explicitly instead of using a least-squares routine, and the
returns-join references scan every row and every month instead of using
the per-firm month index.
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
