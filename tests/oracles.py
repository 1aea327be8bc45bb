"""Independent reference computations used to check the real implementations.

These deliberately avoid the code paths they verify: the retention oracle
is a pure-Python triple loop, the per-pair similarity reference rebuilds
and normalises each pair's vectors instead of indexing one matrix of unit
rows, the quintile reference recomputes the breakpoints for every record
instead of once per period, the merge reference scans a list of each
call's normalised texts, the discrete reference takes a set difference of
them, the regression oracle solves the normal equations explicitly instead
of using a least-squares routine, the returns-join references scan every
row and every month instead of using the per-firm month index, the panel
reference walks each holding window month by month through a dict of
return rows instead of looking up whole columns, the cross-sectional
reference groups panel rows by month in a dict instead of sorting a table,
the label rule checks every rule on every label, with no shortcut for
plain words, the extractors' label references harvest every label first
and only then normalise and deduplicate the whole list, and the score-file
reference scores every pair through the per-pair API and sorts every record
and match once, as ``score`` wrote its files before it scored columns.
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


def merged_texts_reference(target_set):
    """A set's texts, normalised and merged over its sections by a list scan.

    Whitespace is collapsed and case folded; presentation texts come first,
    each text once, at its first occurrence.
    """

    ordered = []
    for section in ("presentation", "analyst_qa"):
        for label in target_set.labels:
            text = " ".join(label.text.split()).casefold()
            if label.section == section and text not in ordered:
                ordered.append(text)
    return ordered


def discrete_scores_set_difference(target_sets, direction_missing):
    """``(records, matches)`` of the discrete method, by set difference.

    Each target set's texts are normalised (whitespace collapsed, casefolded)
    and merged over its sections, presentation first. Records are
    ``(firm, period, value, skipped_reason, n_prev, n_curr)`` in (firm,
    period) order; a call is compared with the same firm's call one year
    earlier, and the value is the share of prior texts missing from the
    current call, or one minus it. Matches are ``(firm, period, label,
    retained)`` for every prior text of every scored call.
    """

    by_key = {(ts.firm, ts.period): merged_texts_reference(ts) for ts in target_sets}
    records, matches = [], []
    for firm, period in sorted(by_key):
        current = by_key[(firm, period)]
        previous = by_key.get((firm, type(period)(period.year - 1, period.quarter)))
        if previous is None:
            records.append((firm, period, None, "missing_previous_call", None, len(current)))
        elif not previous:
            records.append((firm, period, None, "empty_previous_targets", 0, len(current)))
        else:
            dropped = set(previous) - set(current)
            missing = len(dropped) / len(previous)
            value = missing if direction_missing else 1.0 - missing
            records.append((firm, period, value, None, len(previous), len(current)))
            matches.extend((firm, period, text, text not in dropped) for text in previous)
    return records, matches


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


def panel_rows_loop(scores, rows):
    """``(panel rows, counts)`` of scored records joined to return ``rows``.

    A panel row is ``(firm, month index, ret, score, log_size, log_bm,
    ret_1_0, ret_12_1)``. Scored records go in (firm, period) order; each
    holds its firm from the month after its call (the quarter's last month)
    to the month of the firm's next call on record, or for three months, and
    every held month with a return is a row. Size and book-to-market come
    from the firm's latest row at or before the call month.
    """

    by_key = {(row.firm, row.month.index): row for row in rows}
    calls: dict = {}
    for record in scores:
        period = record.period
        calls.setdefault(record.firm, set()).add(period.year * 12 + 3 * period.quarter - 1)
    scored = sorted(
        (r for r in scores if r.value is not None),
        key=lambda r: (r.firm, r.period.year, r.period.quarter),
    )
    panel = []
    counts = {"expected_rows": 0, "rows_skipped_no_return": 0, "rows_missing_controls": 0}
    for record in scored:
        call = record.period.year * 12 + 3 * record.period.quarter - 1
        later = [month for month in calls[record.firm] if month > call]
        end = min(later) if later else call + 3
        known = [row for row in rows if row.firm == record.firm and row.month.index <= call]
        latest = max(known, key=lambda row: row.month.index) if known else None
        for month in range(call + 1, end + 1):
            counts["expected_rows"] += 1
            row = by_key.get((record.firm, month))
            if row is None:
                counts["rows_skipped_no_return"] += 1
                continue
            previous = by_key.get((record.firm, month - 1))
            trailing = [by_key.get((record.firm, m)) for m in range(month - 12, month)]
            controls = (
                None if latest is None else math.log(latest.mktcap),
                None if latest is None else math.log(latest.bm),
                None if previous is None else previous.ret,
                None if None in trailing else math.prod(1.0 + t.ret for t in trailing) - 1.0,
            )
            counts["rows_missing_controls"] += None in controls
            panel.append((record.firm, month, row.ret, record.value, *controls))
    return panel, counts


def monthly_regressions_loop(rows, ols, rank_deficient, k=6):
    """``(coefficient rows, dropped month indices, n_obs)`` of one regression a month.

    ``rows`` are panel observations; those with every control go to their
    month in order of appearance, and a month of at most ``k`` rows, or one
    whose ``ols`` raises ``rank_deficient``, is dropped.
    """

    by_month: dict = {}
    for row in rows:
        if None not in (row.log_size, row.log_bm, row.ret_1_0, row.ret_12_1):
            by_month.setdefault(row.month.index, []).append(row)
    coefficients, dropped, n_obs = [], [], 0
    for month in sorted(by_month):
        members = by_month[month]
        if len(members) <= k:
            dropped.append(month)
            continue
        y = [r.ret for r in members]
        X = [[r.score, r.log_size, r.log_bm, r.ret_1_0, r.ret_12_1, 1.0] for r in members]
        try:
            coefficients.append(ols(y, X).coefficients)
        except rank_deficient:
            dropped.append(month)
            continue
        n_obs += len(members)
    return coefficients, dropped, n_obs


def validate_target_label_reference(text: str) -> list[str]:
    """The label rule with every check run on every label: violations in order."""

    violations = []
    if not text.strip():
        violations.append("empty")
    if any(ch.isdigit() for ch in text):
        violations.append("digit")
    if "%" in text:
        violations.append("percent")
    if any(ch in "$€£¥₩¢" for ch in text):
        violations.append("currency")
    return violations


def normalize_and_dedupe(labels):
    """Normalize label texts and drop per-section exact duplicates.

    The first occurrence wins; the same normalized text may appear in both
    sections since deduplication is per section.
    """

    from movingtargets.extract import TargetLabel, normalize_label

    seen: set[tuple[str, str]] = set()
    result = []
    for label in labels:
        normalized = normalize_label(label.text)
        key = (label.section, normalized)
        if key in seen:
            continue
        seen.add(key)
        result.append(TargetLabel(normalized, label.section, label.source_index))
    return result


def baseline_harvest_reference(transcript):
    """Every keyword phrase of the baseline scan, in order, repeats included."""

    from movingtargets.extract import (
        _DETERMINERS,
        _WORD_RE,
        BASELINE_KEYWORDS,
        TargetLabel,
        qa_start_index,
    )

    qa_start = qa_start_index(transcript)
    harvested = []
    for utterance in transcript.utterances:
        in_qa = qa_start is not None and utterance.index >= qa_start
        section = "analyst_qa" if in_qa else "presentation"
        words = _WORD_RE.findall(utterance.text.lower())
        for i, word in enumerate(words):
            if word in BASELINE_KEYWORDS:
                phrase = f"{words[i - 1]} {word}" if i and words[i - 1] in _DETERMINERS else word
                harvested.append(TargetLabel(phrase, section, utterance.index))
    return harvested


def score_files_reference(sets_by_method, tau, embedder, direction, empty_current):
    """``{file name: bytes}`` of ``scores.csv``, ``score_matches.csv`` and
    ``score_summary.json``, or None where ``score`` fails as zero-scoreable.

    ``sets_by_method`` maps each scoring method to its ``TargetSet``s and
    ``embedder`` gives the ``EmbeddingVector``s of a list of texts. Each pair
    is scored through ``semantic_mt_score``, on unit rows of its own sets'
    vectors, or ``discrete_mt_score``; a firm-quarter with no prior-year
    call, or an empty one, gets its skipped record here. Then every record
    and every match is sorted once, by (firm, period, method) and by (firm,
    period, method, label), and written with ``cli._format_optional``.
    """

    import csv
    import io
    import json
    from collections import Counter

    from movingtargets.cli import MATCHES_CSV_HEADER, SCORES_CSV_HEADER, _format_optional
    from movingtargets.config import METHOD_SEMANTIC, default_direction
    from movingtargets.corpus import MovingTargetsScore, shift_quarters
    from movingtargets.score import (
        EmbeddedTargets,
        discrete_mt_score,
        semantic_mt_score,
        unit_rows,
    )

    def embedded(target_set):
        texts = target_set.texts
        units = unit_rows(embedder(list(texts)) if texts else [])
        return EmbeddedTargets(target_set.firm, target_set.period, texts, units)

    records, matches, summaries = [], [], {}
    for method, target_sets in sets_by_method.items():
        method_direction = direction or default_direction(method)
        tau_field = tau if method == METHOD_SEMANTIC else None
        by_key = {(ts.firm, ts.period): ts for ts in target_sets}
        method_records = []
        for firm, period in sorted(by_key):
            current = by_key[(firm, period)]
            previous = by_key.get((firm, shift_quarters(period, -4)))
            if previous is None or not previous.texts:
                missing = previous is None
                record = MovingTargetsScore(
                    firm, period, None, method, tau_field, None if missing else 0,
                    len(current.texts), method_direction,
                    "missing_previous_call" if missing else "empty_previous_targets",
                )
                pair_matches = ()
            elif method == METHOD_SEMANTIC:
                record, pair_matches = semantic_mt_score(
                    embedded(current), embedded(previous), tau,
                    direction=method_direction, empty_current=empty_current,
                )
            else:
                record, pair_matches = discrete_mt_score(
                    current, previous, direction=method_direction
                )
            method_records.append(record)
            matches.extend(pair_matches)
        records.extend(method_records)

        values = [r.value for r in method_records if r.value is not None]
        mean = sd = None
        if values:
            mean = sum(values) / len(values)
            sd = 0.0
            if len(values) > 1:
                sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        calls = len(target_sets)
        sections = Counter(label.section for ts in target_sets for label in ts.labels)
        summaries[method] = {
            "direction": method_direction,
            "tau": tau_field,
            "scoreable": len(values),
            "skipped": len(method_records) - len(values),
            "mean": mean,
            "sd": sd,
            "targets_per_call": sections.total() / calls if calls else 0.0,
            "presentation_per_call": sections["presentation"] / calls if calls else 0.0,
            "qa_per_call": sections["analyst_qa"] / calls if calls else 0.0,
        }

    if all(summary["scoreable"] == 0 for summary in summaries.values()):
        return None

    def table(header, rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        return buffer.getvalue().encode("utf-8")

    return {
        "scores.csv": table(
            SCORES_CSV_HEADER,
            (
                [r.firm, r.period.year, r.period.quarter, r.method]
                + [_format_optional(v) for v in (r.tau, r.value, r.n_prev, r.n_curr)]
                + [r.skipped_reason or ""]
                for r in sorted(records, key=lambda r: (r.firm, r.period, r.method))
            ),
        ),
        "score_matches.csv": table(
            MATCHES_CSV_HEADER,
            (
                [m.firm, m.period.year, m.period.quarter, m.method, m.label]
                + [_format_optional(m.best_similarity), int(m.retained)]
                for m in sorted(matches, key=lambda m: (m.firm, m.period, m.method, m.label))
            ),
        ),
        "score_summary.json": (json.dumps(summaries, sort_keys=True, indent=2) + "\n").encode(),
    }
