"""Target-drift scores per firm-quarter.

Two scoring methods compare a call's targets with the same firm's call
four quarters earlier:

- semantic: embed every target, take for each prior target its best cosine
  match among current targets (max over the similarity matrix column),
  count matches at or above the cutoff tau as fully retained (mapped to 1,
  lower similarities pass through), and average over the prior targets.
  As written this is a retention measure: 1.0 means every prior target has
  a close current counterpart.
- discrete: the share of prior targets whose normalized text does not
  literally reappear, the original set-difference measure. As written this
  is a missing measure: 1.0 means nothing reappeared.

Both directions are available for either method via ``direction``; reports
must carry the direction label because the two conventions sort firms in
opposite economic order.

Semantic scoring embeds each distinct label of the corpus once, stacks the
vectors into one float64 matrix per model and scales every row to unit norm
once (``unit_rows``). Each firm-quarter pair then takes its current and
previous rows from that matrix by index, and its similarity matrix is one
product of unit rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import YearQuarter, shift_quarters
from .embed import DimensionMismatchError, EmbeddingError, EmbeddingVector
from .extract import SECTION_PRESENTATION, SECTION_QA, TargetSet, merged_texts

METHOD_SEMANTIC = "semantic"
METHOD_DISCRETE = "discrete"
DIRECTION_RETENTION = "retention"
DIRECTION_MISSING = "missing"
EMPTY_CURRENT_PENALIZE = "penalize"
EMPTY_CURRENT_ZERO = "zero"

SKIP_MISSING_PREVIOUS = "missing_previous_call"
SKIP_EMPTY_PREVIOUS = "empty_previous_targets"

DEFAULT_TAU = 0.65

_NO_MATCH_SIMILARITY = -1.0


class UndefinedScoreError(ValueError):
    """The score is undefined (no prior-quarter targets to compare against)."""


@dataclass(frozen=True)
class MovingTargetsScore:
    """Score record for one firm-quarter; skipped records carry no value."""

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
class TargetMatch:
    """Best-match outcome of one prior target against the current set."""

    label: str
    best_similarity: float | None
    retained: bool


@dataclass(frozen=True)
class EmbeddedTargets:
    """Merged target texts of one firm-quarter with aligned unit rows."""

    firm: str
    period: YearQuarter
    texts: tuple[str, ...]
    units: np.ndarray

    def __post_init__(self) -> None:
        if self.units.ndim != 2 or len(self.texts) != self.units.shape[0]:
            raise ValueError("texts and units must align")


def unit_rows(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Stack ``vectors`` into one float64 matrix whose rows have unit norm.

    Each row's norm is reduced on its own, so no temporary the size of the
    matrix is made; a row's norm has the same bits as in a norm taken over
    the rows of any set that holds it. Raises ``DimensionMismatchError`` for
    vectors of different lengths and ``EmbeddingError`` for a zero or
    non-finite norm.
    """

    dims = {v.dim for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"inconsistent vector dimensions: {sorted(dims)}")
    matrix = np.empty((len(vectors), dims.pop() if dims else 0))
    norms = np.empty((len(vectors), 1))
    # A norm that overflows is rejected below as not finite.
    with np.errstate(over="ignore"):
        for i, vector in enumerate(vectors):
            matrix[i] = vector.values
            norms[i] = np.linalg.norm(matrix[i : i + 1], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        i = int(bad[0])
        raise EmbeddingError(
            f"embedding vector {i} of {len(vectors)} has norm {float(norms[i, 0])}"
        )
    matrix /= norms
    return matrix


def similarity_matrix(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities of unit rows, rows = current, columns = previous."""

    if not len(current) or not len(previous):
        return np.zeros((len(current), len(previous)))
    if current.shape[1] != previous.shape[1]:
        raise DimensionMismatchError(
            f"inconsistent vector dimensions: {sorted({current.shape[1], previous.shape[1]})}"
        )
    return current @ previous.T


def max_pool(matrix: np.ndarray) -> list[float]:
    """Per prior target (column), the best similarity over current targets.

    With no current targets there is nothing to match, so every prior
    target pools to -1, the cosine minimum.
    """

    n_current, n_previous = matrix.shape
    if n_current == 0:
        return [_NO_MATCH_SIMILARITY] * n_previous
    return [float(v) for v in matrix.max(axis=0)]


def apply_threshold(s: float, tau: float) -> float:
    """Similarities at or above tau count as fully retained (mapped to 1)."""

    return 1.0 if s >= tau else float(s)


def _oriented(retention_value: float, direction: str) -> float:
    if direction == DIRECTION_RETENTION:
        return retention_value
    if direction == DIRECTION_MISSING:
        return 1.0 - retention_value
    raise ValueError(f"unknown direction {direction!r}")


def semantic_mt_score(
    current: EmbeddedTargets,
    previous: EmbeddedTargets,
    tau: float,
    *,
    direction: str = DIRECTION_RETENTION,
    empty_current: str = EMPTY_CURRENT_PENALIZE,
) -> tuple[MovingTargetsScore, tuple[TargetMatch, ...]]:
    """Semantic drift score of ``current`` against ``previous``.

    Requires at least one prior target. When the current call yields no
    targets at all the default rule pools every prior target to -1 (no
    match possible); the ``empty_current="zero"`` alternative pins the
    retention value to 0 instead.
    """

    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau!r}")
    n_prev = len(previous.texts)
    n_curr = len(current.texts)
    if n_prev == 0:
        raise UndefinedScoreError(f"{previous.firm} {previous.period}: no prior targets")

    if n_curr == 0 and empty_current == EMPTY_CURRENT_ZERO:
        retention = 0.0
        matches = tuple(TargetMatch(label, None, False) for label in previous.texts)
    else:
        matrix = similarity_matrix(current.units, previous.units)
        pooled = max_pool(matrix)
        thresholded = [apply_threshold(s, tau) for s in pooled]
        retention = sum(thresholded) / n_prev
        matches = tuple(
            TargetMatch(label, s, s >= tau)
            for label, s in zip(previous.texts, pooled)
        )

    score = MovingTargetsScore(
        firm=current.firm,
        period=current.period,
        value=_oriented(retention, direction),
        method=METHOD_SEMANTIC,
        tau=tau,
        n_prev=n_prev,
        n_curr=n_curr,
        direction=direction,
    )
    return score, matches


def discrete_mt_score(
    current: TargetSet,
    previous: TargetSet,
    *,
    direction: str = DIRECTION_MISSING,
) -> tuple[MovingTargetsScore, tuple[TargetMatch, ...]]:
    """Set-difference drift score: the share of prior targets not reappearing."""

    prev_texts = merged_texts(previous)
    curr_texts = set(merged_texts(current))
    n_prev = len(prev_texts)
    if n_prev == 0:
        raise UndefinedScoreError(f"{previous.firm} {previous.period}: no prior targets")

    retained_count = sum(1 for text in prev_texts if text in curr_texts)
    retention = retained_count / n_prev
    matches = tuple(
        TargetMatch(text, None, text in curr_texts) for text in prev_texts
    )
    score = MovingTargetsScore(
        firm=current.firm,
        period=current.period,
        value=_oriented(retention, direction),
        method=METHOD_DISCRETE,
        tau=None,
        n_prev=n_prev,
        n_curr=len(merged_texts(current)),
        direction=direction,
    )
    return score, matches


@dataclass(frozen=True)
class CorpusMatch:
    firm: str
    period: YearQuarter
    method: str
    label: str
    best_similarity: float | None
    retained: bool


@dataclass(frozen=True)
class ScoreSummary:
    method: str
    direction: str
    tau: float | None
    scoreable: int
    skipped: int
    mean: float | None
    sd: float | None
    targets_per_call: float
    presentation_per_call: float
    qa_per_call: float


@dataclass(frozen=True)
class CorpusScores:
    records: tuple[MovingTargetsScore, ...]
    matches: tuple[CorpusMatch, ...]
    summary: ScoreSummary


Embedder = Callable[[Sequence[str]], list[EmbeddingVector]]


def _embed_sets(
    target_sets: Sequence[TargetSet], embedder: Embedder
) -> tuple[np.ndarray, Mapping[tuple[str, YearQuarter], tuple[tuple[str, ...], np.ndarray]]]:
    """Unit rows of the distinct labels, and each set's texts with their row indices."""

    texts_by_set = {
        (ts.firm, ts.period): merged_texts(ts) for ts in target_sets
    }
    unique_texts = sorted({text for texts in texts_by_set.values() for text in texts})
    units = unit_rows(embedder(unique_texts) if unique_texts else [])
    row_of = {text: i for i, text in enumerate(unique_texts)}
    return units, {
        key: (texts, np.array([row_of[text] for text in texts], dtype=np.intp))
        for key, texts in texts_by_set.items()
    }


def score_corpus(
    target_sets: Sequence[TargetSet],
    tau: float,
    method: str,
    *,
    embedder: Embedder | None = None,
    direction: str | None = None,
    empty_current: str = EMPTY_CURRENT_PENALIZE,
) -> CorpusScores:
    """Score every firm-quarter against the same firm four quarters earlier.

    Firm-quarters without a prior-year call, or whose prior call yielded no
    targets, are recorded as skipped rather than scored. ``embedder`` is
    required for the semantic method and ignored by the discrete one.
    """

    if method not in (METHOD_SEMANTIC, METHOD_DISCRETE):
        raise ValueError(f"unknown scoring method {method!r}")
    if direction is None:
        direction = DIRECTION_RETENTION if method == METHOD_SEMANTIC else DIRECTION_MISSING
    if method == METHOD_SEMANTIC and embedder is None:
        raise ValueError("semantic scoring requires an embedder")

    by_key: dict[tuple[str, YearQuarter], TargetSet] = {}
    for ts in target_sets:
        key = (ts.firm, ts.period)
        if key in by_key:
            raise ValueError(f"duplicate target set for {ts.firm} {ts.period}")
        by_key[key] = ts

    units, rows_by_set = np.empty((0, 0)), {}
    if method == METHOD_SEMANTIC:
        units, rows_by_set = _embed_sets(list(by_key.values()), embedder)

    def embedded(key: tuple[str, YearQuarter]) -> EmbeddedTargets:
        texts, rows = rows_by_set[key]
        return EmbeddedTargets(firm=key[0], period=key[1], texts=texts, units=units[rows])

    records: list[MovingTargetsScore] = []
    matches: list[CorpusMatch] = []
    scored_values: list[float] = []
    for key in sorted(by_key, key=lambda k: (k[0], k[1])):
        firm, period = key
        current = by_key[key]
        prev_key = (firm, shift_quarters(period, -4))
        previous = by_key.get(prev_key)
        tau_field = tau if method == METHOD_SEMANTIC else None

        if previous is None:
            records.append(
                MovingTargetsScore(
                    firm=firm,
                    period=period,
                    value=None,
                    method=method,
                    tau=tau_field,
                    n_prev=None,
                    n_curr=len(merged_texts(current)),
                    direction=direction,
                    skipped_reason=SKIP_MISSING_PREVIOUS,
                )
            )
            continue
        if not merged_texts(previous):
            records.append(
                MovingTargetsScore(
                    firm=firm,
                    period=period,
                    value=None,
                    method=method,
                    tau=tau_field,
                    n_prev=0,
                    n_curr=len(merged_texts(current)),
                    direction=direction,
                    skipped_reason=SKIP_EMPTY_PREVIOUS,
                )
            )
            continue

        if method == METHOD_SEMANTIC:
            record, pair_matches = semantic_mt_score(
                embedded(key),
                embedded(prev_key),
                tau,
                direction=direction,
                empty_current=empty_current,
            )
        else:
            record, pair_matches = discrete_mt_score(current, previous, direction=direction)
        records.append(record)
        scored_values.append(record.value)
        matches.extend(
            CorpusMatch(
                firm=firm,
                period=period,
                method=method,
                label=m.label,
                best_similarity=m.best_similarity,
                retained=m.retained,
            )
            for m in pair_matches
        )

    summary = _summarize(
        list(by_key.values()), records, scored_values, method, direction,
        tau if method == METHOD_SEMANTIC else None,
    )
    return CorpusScores(records=tuple(records), matches=tuple(matches), summary=summary)


def _summarize(
    target_sets: Sequence[TargetSet],
    records: Sequence[MovingTargetsScore],
    values: Sequence[float],
    method: str,
    direction: str,
    tau: float | None,
) -> ScoreSummary:
    calls = len(target_sets)
    section_counts = Counter()
    total_labels = 0
    for ts in target_sets:
        total_labels += len(ts.labels)
        for section in (SECTION_PRESENTATION, SECTION_QA):
            section_counts[section] += len(ts.section_labels(section))

    mean = sd = None
    if values:
        mean = sum(values) / len(values)
        if len(values) > 1:
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            sd = math.sqrt(var)
        else:
            sd = 0.0

    return ScoreSummary(
        method=method,
        direction=direction,
        tau=tau,
        scoreable=len(values),
        skipped=sum(1 for r in records if r.value is None),
        mean=mean,
        sd=sd,
        targets_per_call=total_labels / calls if calls else 0.0,
        presentation_per_call=section_counts[SECTION_PRESENTATION] / calls if calls else 0.0,
        qa_per_call=section_counts[SECTION_QA] / calls if calls else 0.0,
    )
