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

Both methods read each set's merged texts, built once with the set
(``TargetSet.texts``). Semantic scoring embeds the sorted vocabulary of the
corpus once, stacks the vectors into one float64 matrix per model and scales
every row to unit norm once with ``embed.unit_rows``, the one check on
vectors, which also rejects mixed dimensions and zero or non-finite norms.
Each firm-quarter pair then takes its rows from that matrix by index, and
its similarity matrix is one product of unit rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# The scoring vocabulary and each method's default direction are declared
# with the settings, in ``config``. The backtest reads score records too, so
# ``MovingTargetsScore`` lives in ``corpus``. Both stay importable from here.
from .config import (
    DEFAULT_TAU,
    DIRECTION_MISSING,
    DIRECTION_RETENTION,
    EMPTY_CURRENT_PENALIZE,
    EMPTY_CURRENT_ZERO,
    METHOD_DISCRETE,
    METHOD_SEMANTIC,
    default_direction,
)
from .corpus import MovingTargetsScore, YearQuarter, shift_quarters
from .embed import EmbeddingError, EmbeddingVector, NormError, unit_rows
from .extract import SECTION_PRESENTATION, SECTION_QA, TargetSet

SKIP_MISSING_PREVIOUS = "missing_previous_call"
SKIP_EMPTY_PREVIOUS = "empty_previous_targets"

_NO_MATCH_SIMILARITY = -1.0


class UndefinedScoreError(ValueError):
    """The score is undefined (no prior-quarter targets to compare against)."""


@dataclass(frozen=True)
class CorpusMatch:
    """Best-match outcome of one prior target against the current set."""

    firm: str
    period: YearQuarter
    method: str
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


def similarity_matrix(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities of unit rows, rows = current, columns = previous."""

    if not len(current) or not len(previous):
        return np.zeros((len(current), len(previous)))
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


def _pair_score(
    current: TargetSet | EmbeddedTargets,
    previous: TargetSet | EmbeddedTargets,
    method: str,
    tau: float | None,
    direction: str,
    outcomes: Sequence[tuple[float | None, bool, float]],
) -> tuple[MovingTargetsScore, tuple[CorpusMatch, ...]]:
    """Record and matches of one pair from, per prior target, its best
    similarity, whether it is retained and its share of the retention value."""

    n_prev = len(previous.texts)
    if n_prev == 0:
        raise UndefinedScoreError(f"{previous.firm} {previous.period}: no prior targets")
    score = MovingTargetsScore(
        firm=current.firm,
        period=current.period,
        value=_oriented(sum(credit for _, _, credit in outcomes) / n_prev, direction),
        method=method,
        tau=tau,
        n_prev=n_prev,
        n_curr=len(current.texts),
        direction=direction,
    )
    matches = tuple(
        CorpusMatch(current.firm, current.period, method, text, best, retained)
        for text, (best, retained, _) in zip(previous.texts, outcomes)
    )
    return score, matches


def semantic_mt_score(
    current: EmbeddedTargets,
    previous: EmbeddedTargets,
    tau: float,
    *,
    direction: str = DIRECTION_RETENTION,
    empty_current: str = EMPTY_CURRENT_PENALIZE,
) -> tuple[MovingTargetsScore, tuple[CorpusMatch, ...]]:
    """Semantic drift score of ``current`` against ``previous``.

    Requires at least one prior target. When the current call yields no
    targets at all the default rule pools every prior target to -1 (no
    match possible); the ``empty_current="zero"`` alternative pins the
    retention value to 0 instead.
    """

    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau!r}")
    if not current.texts and empty_current == EMPTY_CURRENT_ZERO:
        outcomes = [(None, False, 0.0)] * len(previous.texts)
    else:
        pooled = max_pool(similarity_matrix(current.units, previous.units))
        outcomes = [(s, s >= tau, apply_threshold(s, tau)) for s in pooled]
    return _pair_score(current, previous, METHOD_SEMANTIC, tau, direction, outcomes)


def discrete_mt_score(
    current: TargetSet,
    previous: TargetSet,
    *,
    direction: str = DIRECTION_MISSING,
) -> tuple[MovingTargetsScore, tuple[CorpusMatch, ...]]:
    """Set-difference drift score: the share of prior targets not reappearing."""

    current_texts = set(current.texts)
    retained = [text in current_texts for text in previous.texts]
    outcomes = [(None, kept, float(kept)) for kept in retained]
    return _pair_score(current, previous, METHOD_DISCRETE, None, direction, outcomes)


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
        direction = default_direction(method)
    if method == METHOD_SEMANTIC and embedder is None:
        raise ValueError("semantic scoring requires an embedder")

    by_key: dict[tuple[str, YearQuarter], TargetSet] = {}
    for ts in target_sets:
        key = (ts.firm, ts.period)
        if key in by_key:
            raise ValueError(f"duplicate target set for {ts.firm} {ts.period}")
        by_key[key] = ts

    units, row_of = np.empty((0, 0)), {}
    if method == METHOD_SEMANTIC:
        vocabulary = sorted({text for ts in by_key.values() for text in ts.texts})
        try:
            units = unit_rows(embedder(vocabulary) if vocabulary else [])
        except NormError as exc:
            raise EmbeddingError(f"label {vocabulary[exc.row]!r}: {exc}") from exc
        row_of = {text: i for i, text in enumerate(vocabulary)}

    # Each pair's unit rows are taken into one of two buffers sized by the
    # longest set, so no per-set array is allocated. mode="clip" fills ``out``
    # in place ("raise" buffers it through a temporary); every index comes
    # from ``row_of``, so none is clipped.
    longest = max((len(ts.texts) for ts in by_key.values()), default=0)
    current_rows, previous_rows = (np.empty((longest, units.shape[1])) for _ in range(2))

    def embedded(ts: TargetSet, buffer: np.ndarray) -> EmbeddedTargets:
        rows = np.array([row_of[text] for text in ts.texts], dtype=np.intp)
        out = np.take(units, rows, axis=0, out=buffer[: len(rows)], mode="clip")
        return EmbeddedTargets(firm=ts.firm, period=ts.period, texts=ts.texts, units=out)

    tau_field = tau if method == METHOD_SEMANTIC else None
    records: list[MovingTargetsScore] = []
    matches: list[CorpusMatch] = []
    for key in sorted(by_key, key=lambda k: (k[0], k[1])):
        firm, period = key
        current = by_key[key]
        previous = by_key.get((firm, shift_quarters(period, -4)))

        if previous is None or not previous.texts:
            missing = previous is None
            records.append(
                MovingTargetsScore(
                    firm=firm,
                    period=period,
                    value=None,
                    method=method,
                    tau=tau_field,
                    n_prev=None if missing else 0,
                    n_curr=len(current.texts),
                    direction=direction,
                    skipped_reason=SKIP_MISSING_PREVIOUS if missing else SKIP_EMPTY_PREVIOUS,
                )
            )
            continue

        if method == METHOD_SEMANTIC:
            record, pair_matches = semantic_mt_score(
                embedded(current, current_rows),
                embedded(previous, previous_rows),
                tau,
                direction=direction,
                empty_current=empty_current,
            )
        else:
            record, pair_matches = discrete_mt_score(current, previous, direction=direction)
        records.append(record)
        matches.extend(pair_matches)

    summary = _summarize(list(by_key.values()), records, method, direction, tau_field)
    return CorpusScores(records=tuple(records), matches=tuple(matches), summary=summary)


def _summarize(
    target_sets: Sequence[TargetSet],
    records: Sequence[MovingTargetsScore],
    method: str,
    direction: str,
    tau: float | None,
) -> ScoreSummary:
    calls = len(target_sets)
    section_counts = Counter(label.section for ts in target_sets for label in ts.labels)
    values = [r.value for r in records if r.value is not None]

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
        skipped=len(records) - len(values),
        mean=mean,
        sd=sd,
        targets_per_call=section_counts.total() / calls if calls else 0.0,
        presentation_per_call=section_counts[SECTION_PRESENTATION] / calls if calls else 0.0,
        qa_per_call=section_counts[SECTION_QA] / calls if calls else 0.0,
    )
