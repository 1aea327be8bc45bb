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

``score_corpus`` is the one engine for a corpus. It takes target sets as
``targets.TargetColumns``, maps their merged texts to ids in one sorted
vocabulary and scores each firm-quarter pair through the same per-pair
kernels as ``semantic_mt_score`` and ``discrete_mt_score``. Semantic scoring
embeds the vocabulary once, stacks the vectors into one float64 matrix per
model and scales every row to unit norm once with ``embed.unit_rows``, the
one check on vectors, which also rejects mixed dimensions and zero or
non-finite norms. Each pair then takes its rows from that matrix by id, and
its similarity matrix is one product of unit rows: a similarity's bits
depend on the shape of the product that computes it. The result holds each
pair's outcome as columns; ``CorpusScores.records`` and ``.matches`` build
the record and match objects only when read. Scoring files imports neither
the corpus module nor the extractor: ``MovingTargetsScore`` and
``YearQuarter`` are loaded from ``corpus`` when a record is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

# The scoring vocabulary and each method's default direction are declared
# with the settings, in ``config``. The backtest reads score records too, so
# ``MovingTargetsScore`` lives in ``corpus``; it stays importable from here.
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
from .embed import EmbeddingError, EmbeddingVector, NormError, unit_rows
from .targets import TargetColumns, period_name

if TYPE_CHECKING:
    from .corpus import MovingTargetsScore, YearQuarter
    from .extract import TargetSet

SKIP_MISSING_PREVIOUS = "missing_previous_call"
SKIP_EMPTY_PREVIOUS = "empty_previous_targets"

_NO_MATCH_SIMILARITY = -1.0


def __getattr__(name: str) -> object:
    # Loaded when first asked for, so scoring target-set files loads no corpus module.
    if name == "MovingTargetsScore":
        from .corpus import MovingTargetsScore

        return MovingTargetsScore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# A pair's outcome: per prior target its best similarity (None for the
# discrete method, and under the zero rule with no current targets) and
# whether it is retained, as arrays over the prior targets, and the sum of
# their credits towards the retention value.
Outcome = tuple[np.ndarray | None, np.ndarray, float]


def similarity_matrix(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities of unit rows, rows = current, columns = previous."""

    if not len(current) or not len(previous):
        return np.zeros((len(current), len(previous)))
    return current @ previous.T


def _pool(matrix: np.ndarray) -> np.ndarray:
    n_current, n_previous = matrix.shape
    if n_current == 0:
        return np.full(n_previous, _NO_MATCH_SIMILARITY)
    return matrix.max(axis=0)


def max_pool(matrix: np.ndarray) -> list[float]:
    """Per prior target (column), the best similarity over current targets.

    With no current targets there is nothing to match, so every prior
    target pools to -1, the cosine minimum.
    """

    return _pool(matrix).tolist()


def apply_threshold(s: float, tau: float) -> float:
    """Similarities at or above tau count as fully retained (mapped to 1)."""

    return 1.0 if s >= tau else float(s)


def _semantic_outcome(
    current: np.ndarray, previous: np.ndarray, tau: float, empty_current: str
) -> Outcome:
    """Outcome of one pair's unit rows; each credit is ``apply_threshold`` of a best similarity."""

    if not len(current) and empty_current == EMPTY_CURRENT_ZERO:
        return None, np.zeros(len(previous), dtype=bool), 0.0
    best = _pool(similarity_matrix(current, previous))
    retained = best >= tau
    # Summed left to right, as Python sums floats; np.sum sums pairwise.
    return best, retained, sum(np.where(retained, 1.0, best).tolist())


def _discrete_outcome(current: Sequence[object], previous: Sequence[object]) -> Outcome:
    """Outcome of one pair's texts, or text ids: a prior target is retained if it recurs."""

    present = set(current)
    retained = [item in present for item in previous]
    return None, np.array(retained, dtype=bool), float(sum(retained))


def _oriented(retention_value: float, direction: str) -> float:
    if direction == DIRECTION_RETENTION:
        return retention_value
    if direction == DIRECTION_MISSING:
        return 1.0 - retention_value
    raise ValueError(f"unknown direction {direction!r}")


def _matches(
    firm: str,
    period: YearQuarter,
    method: str,
    labels: Sequence[str],
    best: np.ndarray | None,
    retained: np.ndarray,
) -> list[CorpusMatch]:
    similarities = [None] * len(labels) if best is None else best.tolist()
    return [
        CorpusMatch(firm, period, method, label, similarity, kept)
        for label, similarity, kept in zip(labels, similarities, retained.tolist())
    ]


def _pair_score(
    current: TargetSet | EmbeddedTargets,
    previous: TargetSet | EmbeddedTargets,
    method: str,
    tau: float | None,
    direction: str,
    outcome: Outcome,
) -> tuple[MovingTargetsScore, tuple[CorpusMatch, ...]]:
    """Record and matches of one pair from its outcome."""

    from .corpus import MovingTargetsScore

    n_prev = len(previous.texts)
    if n_prev == 0:
        raise UndefinedScoreError(f"{previous.firm} {previous.period}: no prior targets")
    best, retained, credit = outcome
    score = MovingTargetsScore(
        firm=current.firm,
        period=current.period,
        value=_oriented(credit / n_prev, direction),
        method=method,
        tau=tau,
        n_prev=n_prev,
        n_curr=len(current.texts),
        direction=direction,
    )
    matches = _matches(current.firm, current.period, method, previous.texts, best, retained)
    return score, tuple(matches)


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
    outcome = _semantic_outcome(current.units, previous.units, tau, empty_current)
    return _pair_score(current, previous, METHOD_SEMANTIC, tau, direction, outcome)


def discrete_mt_score(
    current: TargetSet,
    previous: TargetSet,
    *,
    direction: str = DIRECTION_MISSING,
) -> tuple[MovingTargetsScore, tuple[CorpusMatch, ...]]:
    """Set-difference drift score: the share of prior targets not reappearing."""

    outcome = _discrete_outcome(current.texts, previous.texts)
    return _pair_score(current, previous, METHOD_DISCRETE, None, direction, outcome)


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


@dataclass(frozen=True, eq=False)
class CorpusScores:
    """Every firm-quarter of one method, as columns in (firm, period) order.

    Entry ``i`` is the set of firm ``firms[i]`` in period index
    ``quarters[i]`` (``year * 4 + quarter - 1``) with ``n_curr[i]`` texts. A
    skipped set has ``values[i]`` None and its reason in ``skipped[i]``. A
    scored set's prior targets are ``priors[i]``, ids into ``vocabulary`` in
    the prior set's merged order (``n_prev[i]`` of them), with the outcome
    columns ``best[i]`` and ``retained[i]`` over them; a skipped set has None
    in all three. ``tau`` is None for the discrete method. ``records`` and
    ``matches`` are the same as ``MovingTargetsScore`` and ``CorpusMatch``
    objects, built when first read; two results are equal if those and the
    summaries are.
    """

    method: str
    direction: str
    tau: float | None
    vocabulary: list[str]
    firms: list[str]
    quarters: list[int]
    n_curr: list[int]
    n_prev: list[int | None]
    values: list[float | None]
    skipped: list[str | None]
    priors: list[list[int] | None]
    best: list[np.ndarray | None]
    retained: list[np.ndarray | None]
    summary: ScoreSummary

    @cached_property
    def _periods(self) -> list[YearQuarter]:
        from .corpus import YearQuarter

        return [YearQuarter(quarter // 4, quarter % 4 + 1) for quarter in self.quarters]

    @cached_property
    def records(self) -> tuple[MovingTargetsScore, ...]:
        from .corpus import MovingTargetsScore

        return tuple(
            MovingTargetsScore(
                firm=firm,
                period=period,
                value=value,
                method=self.method,
                tau=self.tau,
                n_prev=n_prev,
                n_curr=n_curr,
                direction=self.direction,
                skipped_reason=reason,
            )
            for firm, period, value, n_prev, n_curr, reason in zip(
                self.firms, self._periods, self.values, self.n_prev, self.n_curr, self.skipped
            )
        )

    @cached_property
    def matches(self) -> tuple[CorpusMatch, ...]:
        """Every scored set's matches, in set order, each over its prior targets in merged order."""

        matches: list[CorpusMatch] = []
        for i, prior in enumerate(self.priors):
            if prior is not None:
                labels = [self.vocabulary[label] for label in prior]
                period = self._periods[i]
                best, retained = self.best[i], self.retained[i]
                matches += _matches(self.firms[i], period, self.method, labels, best, retained)
        return tuple(matches)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusScores):
            return NotImplemented
        return (self.records, self.matches, self.summary) == (
            other.records,
            other.matches,
            other.summary,
        )


Embedder = Callable[[Sequence[str]], list[EmbeddingVector]]


def score_corpus(
    target_sets: TargetColumns | Sequence[TargetSet],
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

    sets = target_sets
    if not isinstance(sets, TargetColumns):
        sets = TargetColumns.of_sets(target_sets)
    keys = list(zip(sets.firms, sets.quarters))
    position: dict[tuple[str, int], int] = {}
    for i, (firm, quarter) in enumerate(keys):
        if position.setdefault((firm, quarter), i) != i:
            raise ValueError(f"duplicate target set for {firm} {period_name(quarter)}")

    # Ids follow the sorted vocabulary, so sorting ids sorts the texts.
    vocabulary = sorted({text for texts in sets.texts for text in texts})
    id_of = dict(zip(vocabulary, range(len(vocabulary))))
    ids = [[id_of[text] for text in texts] for texts in sets.texts]

    if method == METHOD_SEMANTIC:
        try:
            units = unit_rows(embedder(vocabulary) if vocabulary else [])
        except NormError as exc:
            raise EmbeddingError(f"label {vocabulary[exc.row]!r}: {exc}") from exc
        # Each pair's unit rows are taken into one of two buffers sized by the
        # longest set, so no matrix is allocated per set. mode="clip" fills
        # ``out`` in place ("raise" buffers it through a temporary); every id
        # indexes the vocabulary, so none is clipped.
        longest = max(map(len, ids), default=0)
        buffers = [np.empty((longest, units.shape[1])) for _ in range(2)]
        rows = [np.array(set_ids, dtype=np.intp) for set_ids in ids]

        def outcome(current: int, previous: int) -> Outcome:
            taken = [
                np.take(units, rows[i], axis=0, out=buffer[: len(rows[i])], mode="clip")
                for i, buffer in zip((current, previous), buffers)
            ]
            return _semantic_outcome(*taken, tau, empty_current)

    else:

        def outcome(current: int, previous: int) -> Outcome:
            return _discrete_outcome(ids[current], ids[previous])

    tau_field = tau if method == METHOD_SEMANTIC else None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    n_prev: list[int | None] = []
    values: list[float | None] = []
    skipped: list[str | None] = []
    priors: list[list[int] | None] = []
    best: list[np.ndarray | None] = []
    retained: list[np.ndarray | None] = []
    for i in order:
        firm, quarter = keys[i]
        previous = position.get((firm, quarter - 4))
        prior = None if previous is None else ids[previous]
        if not prior:
            n_prev.append(None if prior is None else 0)
            values.append(None)
            skipped.append(SKIP_MISSING_PREVIOUS if prior is None else SKIP_EMPTY_PREVIOUS)
            priors.append(None)
            best.append(None)
            retained.append(None)
            continue
        pair_best, pair_retained, credit = outcome(i, previous)
        n_prev.append(len(prior))
        values.append(_oriented(credit / len(prior), direction))
        skipped.append(None)
        priors.append(prior)
        best.append(pair_best)
        retained.append(pair_retained)

    return CorpusScores(
        method=method,
        direction=direction,
        tau=tau_field,
        vocabulary=vocabulary,
        firms=[keys[i][0] for i in order],
        quarters=[keys[i][1] for i in order],
        n_curr=[len(ids[i]) for i in order],
        n_prev=n_prev,
        values=values,
        skipped=skipped,
        priors=priors,
        best=best,
        retained=retained,
        summary=_summarize(sets, values, method, direction, tau_field),
    )


def _summarize(
    sets: TargetColumns,
    values: Sequence[float | None],
    method: str,
    direction: str,
    tau: float | None,
) -> ScoreSummary:
    """Summary of a result's ``values``, in set order, over the sets they were scored from."""

    calls = len(sets.firms)
    presentation, qa = sum(sets.presentation), sum(sets.qa)
    scored = [v for v in values if v is not None]

    mean = sd = None
    if scored:
        mean = sum(scored) / len(scored)
        if len(scored) > 1:
            var = sum((v - mean) ** 2 for v in scored) / (len(scored) - 1)
            sd = math.sqrt(var)
        else:
            sd = 0.0

    return ScoreSummary(
        method=method,
        direction=direction,
        tau=tau,
        scoreable=len(scored),
        skipped=len(values) - len(scored),
        mean=mean,
        sd=sd,
        targets_per_call=(presentation + qa) / calls if calls else 0.0,
        presentation_per_call=presentation / calls if calls else 0.0,
        qa_per_call=qa / calls if calls else 0.0,
    )
