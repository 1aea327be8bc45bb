from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingtargets.corpus import YearQuarter, shift_quarters
from movingtargets.embed import DimensionMismatchError, EmbeddingError, EmbeddingVector
from movingtargets.extract import SECTIONS, TargetLabel, TargetSet, merged_texts
from movingtargets.score import (
    DIRECTION_MISSING,
    DIRECTION_RETENTION,
    EMPTY_CURRENT_PENALIZE,
    EMPTY_CURRENT_ZERO,
    METHOD_DISCRETE,
    METHOD_SEMANTIC,
    EmbeddedTargets,
    UndefinedScoreError,
    apply_threshold,
    discrete_mt_score,
    max_pool,
    score_corpus,
    semantic_mt_score,
    similarity_matrix,
    unit_rows,
)
from corpusgen import HashingEncoderClient
from oracles import (
    discrete_scores_set_difference,
    random_unit_vectors,
    semantic_pair_per_pair,
    semantic_retention_oracle,
)

Q = YearQuarter(2021, 2)
Q_PREV = YearQuarter(2020, 2)


def vectors(rows, model_id="m"):
    return tuple(EmbeddingVector(tuple(float(v) for v in row), model_id) for row in rows)


def units(rows):
    return unit_rows(vectors(rows))


def embedded(rows, firm="F", period=Q, prefix="t"):
    texts = tuple(f"{prefix}{i}" for i in range(len(rows)))
    return EmbeddedTargets(firm=firm, period=period, texts=texts, units=units(rows))


def label_set(texts_by_section, firm="F", period=Q, method="llm"):
    labels = []
    for section, texts in texts_by_section.items():
        for i, text in enumerate(texts):
            labels.append(TargetLabel(text, section, i % 3))
    return TargetSet(firm=firm, period=period, labels=tuple(labels), method=method)


class TestSimilarityMatrix:
    def test_identity_patterned(self):
        basis = [(1.0, 0.0), (0.0, 1.0)]
        matrix = similarity_matrix(units(basis), units(basis))
        assert np.allclose(matrix, np.eye(2), atol=1e-12)

    def test_degenerate_empty_current(self):
        matrix = similarity_matrix(units(()), units([(1, 0), (0, 1)]))
        assert matrix.shape == (0, 2)

    def test_hand_cosine_row(self):
        matrix = similarity_matrix(units([(1, 1)]), units([(1, 0), (0, 1)]))
        assert matrix.shape == (1, 2)
        assert matrix[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert matrix[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_rows_are_current_columns_previous(self):
        matrix = similarity_matrix(units([(1, 0), (0, 1), (1, 1)]), units([(1, 0)]))
        assert matrix.shape == (3, 1)


class TestMaxPool:
    def test_column_maxima(self):
        assert max_pool(np.array([[0.2, 0.9], [0.8, 0.1]])) == [0.8, 0.9]

    def test_empty_current_pools_to_minus_one(self):
        assert max_pool(np.zeros((0, 2))) == [-1.0, -1.0]

    def test_single_cell(self):
        assert max_pool(np.array([[0.5]])) == [0.5]


class TestApplyThreshold:
    def test_above_cutoff_fully_retained(self):
        assert apply_threshold(0.70, 0.65) == 1.0

    def test_boundary_inclusive(self):
        assert apply_threshold(0.65, 0.65) == 1.0

    def test_below_cutoff_passes_through(self):
        assert apply_threshold(0.60, 0.65) == 0.60

    def test_idempotent_on_nonnegative_inputs(self):
        for s in np.linspace(0.0, 1.0, 21):
            once = apply_threshold(float(s), 0.65)
            assert apply_threshold(once, 0.65) == once


class TestSemanticScore:
    def test_identical_sets_score_one(self):
        rows = [(1.0, 2.0, 3.0), (0.0, 1.0, -1.0), (2.0, 0.5, 0.1)]
        score, matches = semantic_mt_score(embedded(rows), embedded(rows, period=Q_PREV), 0.65)
        assert score.value == 1.0
        assert score.method == METHOD_SEMANTIC
        assert score.n_prev == 3 and score.n_curr == 3
        assert all(m.retained for m in matches)

    def test_hand_evaluated_mean(self):
        # pooled similarities (0.9, 0.5) at tau 0.65: mean(1, 0.5) = 0.75
        previous = embedded([(0.9, math.sqrt(1 - 0.81)), (0.5, math.sqrt(0.75))], period=Q_PREV)
        current = embedded([(1.0, 0.0)])
        score, matches = semantic_mt_score(current, previous, 0.65)
        assert score.value == pytest.approx(0.75, abs=1e-12)
        assert matches[0].retained and not matches[1].retained

    def test_empty_current_defaults_to_penalty(self):
        previous = embedded([(1, 0), (0, 1)], period=Q_PREV)
        current = EmbeddedTargets(firm="F", period=Q, texts=(), units=units(()))
        score, matches = semantic_mt_score(current, previous, 0.65)
        assert score.value == -1.0
        assert [m.best_similarity for m in matches] == [-1.0, -1.0]

    def test_empty_current_zero_rule(self):
        previous = embedded([(1, 0), (0, 1)], period=Q_PREV)
        current = EmbeddedTargets(firm="F", period=Q, texts=(), units=units(()))
        score, _ = semantic_mt_score(current, previous, 0.65, empty_current=EMPTY_CURRENT_ZERO)
        assert score.value == 0.0

    def test_missing_direction_flips_value(self):
        rows = [(1.0, 0.0), (0.0, 1.0)]
        retention, _ = semantic_mt_score(embedded(rows), embedded(rows, period=Q_PREV), 0.65)
        missing, _ = semantic_mt_score(
            embedded(rows), embedded(rows, period=Q_PREV), 0.65, direction=DIRECTION_MISSING
        )
        assert missing.value == pytest.approx(1.0 - retention.value, abs=1e-12)
        assert missing.direction == DIRECTION_MISSING

    def test_empty_previous_is_undefined(self):
        previous = EmbeddedTargets(firm="F", period=Q_PREV, texts=(), units=units(()))
        with pytest.raises(UndefinedScoreError):
            semantic_mt_score(embedded([(1, 0)]), previous, 0.65)

    def test_invalid_tau_rejected(self):
        rows = [(1.0, 0.0)]
        with pytest.raises(ValueError):
            semantic_mt_score(embedded(rows), embedded(rows, period=Q_PREV), 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        cur = random_unit_vectors(rng, 5, 8)
        prev = random_unit_vectors(rng, 4, 8)
        base, _ = semantic_mt_score(embedded(cur), embedded(prev, period=Q_PREV), 0.65)
        for seed in range(5):
            perm_rng = np.random.default_rng(seed)
            cur_perm = [cur[i] for i in perm_rng.permutation(len(cur))]
            prev_perm = [prev[i] for i in perm_rng.permutation(len(prev))]
            shuffled, _ = semantic_mt_score(
                embedded(cur_perm), embedded(prev_perm, period=Q_PREV), 0.65
            )
            assert shuffled.value == pytest.approx(base.value, abs=1e-12)

    def test_monotone_nonincreasing_in_tau(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cur = embedded(random_unit_vectors(rng, 4, 8))
            prev = embedded(random_unit_vectors(rng, 3, 8), period=Q_PREV)
            values = [
                semantic_mt_score(cur, prev, float(tau))[0].value
                for tau in np.linspace(0.05, 1.0, 20)
            ]
            for lower, higher in zip(values, values[1:]):
                assert higher <= lower + 1e-12

    def test_duplicate_current_target_absorbed_by_max_pool(self):
        rng = np.random.default_rng(31)
        cur_rows = random_unit_vectors(rng, 3, 8)
        prev = embedded(random_unit_vectors(rng, 4, 8), period=Q_PREV)
        base, _ = semantic_mt_score(embedded(cur_rows), prev, 0.65)
        duplicated, _ = semantic_mt_score(embedded(cur_rows + [cur_rows[0]]), prev, 0.65)
        assert duplicated.value == pytest.approx(base.value, abs=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n_cur = int(rng.integers(0, 7))
            n_prev = int(rng.integers(1, 7))
            tau = float(rng.choice([0.5, 0.65, 0.8]))
            cur = random_unit_vectors(rng, n_cur, 8)
            prev = random_unit_vectors(rng, n_prev, 8)
            expected = semantic_retention_oracle(cur, prev, tau)
            actual, _ = semantic_mt_score(embedded(cur), embedded(prev, period=Q_PREV), tau)
            assert actual.value == pytest.approx(expected, abs=1e-9)


class TestDiscreteScore:
    def test_set_difference_fraction(self):
        previous = label_set({"presentation": ["a", "b", "c"]}, period=Q_PREV)
        current = label_set({"presentation": ["a"]})
        score, matches = discrete_mt_score(current, previous)
        assert score.value == pytest.approx(2 / 3)
        assert score.method == METHOD_DISCRETE
        assert score.direction == DIRECTION_MISSING
        assert sum(1 for m in matches if not m.retained) == 2

    def test_superset_current_scores_zero(self):
        previous = label_set({"presentation": ["a", "b"]}, period=Q_PREV)
        current = label_set({"presentation": ["a", "b", "c"]})
        score, _ = discrete_mt_score(current, previous)
        assert score.value == 0.0

    def test_empty_current_scores_one(self):
        previous = label_set({"presentation": ["x"]}, period=Q_PREV)
        current = label_set({})
        score, _ = discrete_mt_score(current, previous)
        assert score.value == 1.0

    def test_empty_previous_undefined(self):
        with pytest.raises(UndefinedScoreError):
            discrete_mt_score(label_set({"presentation": ["a"]}), label_set({}, period=Q_PREV))

    def test_retention_direction(self):
        previous = label_set({"presentation": ["a", "b", "c", "d"]}, period=Q_PREV)
        current = label_set({"presentation": ["a", "b", "c"]})
        score, _ = discrete_mt_score(current, previous, direction=DIRECTION_RETENTION)
        assert score.value == pytest.approx(3 / 4)

    def test_exact_identity_against_set_oracle(self):
        rng = np.random.default_rng(13)
        pool = [f"label {chr(97 + i)}" for i in range(12)]
        for _ in range(300):
            prev_texts = list(rng.choice(pool, size=int(rng.integers(1, 8)), replace=False))
            curr_texts = list(rng.choice(pool, size=int(rng.integers(0, 8)), replace=False))
            previous = label_set({"presentation": prev_texts}, period=Q_PREV)
            current = label_set({"presentation": curr_texts})
            score, _ = discrete_mt_score(current, previous)
            expected = 1.0 - len(set(prev_texts) & set(curr_texts)) / len(set(prev_texts))
            assert score.value == expected

    def test_cross_section_duplicates_collapse_before_comparison(self):
        previous = label_set(
            {"presentation": ["a", "b"], "analyst_qa": ["a"]}, period=Q_PREV
        )
        current = label_set({"analyst_qa": ["a"]})
        score, _ = discrete_mt_score(current, previous)
        # merged previous = {a, b}: one of two is missing
        assert score.value == pytest.approx(0.5)
        assert score.n_prev == 2


def hash_embedder(texts):
    return HashingEncoderClient(model_id="m", dim=32).embed(texts)


def quarterly_sets(firm, texts_by_quarter, start=YearQuarter(2020, 1)):
    sets = []
    period = start
    for texts in texts_by_quarter:
        sets.append(label_set({"presentation": texts}, firm=firm, period=period))
        period = shift_quarters(period, 1)
    return sets


class TestScoreCorpus:
    def test_skips_first_year_and_scores_the_rest(self):
        sets = quarterly_sets(
            "F", [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b"], ["a", "b"]]
        )
        result = score_corpus(sets, 0.65, METHOD_SEMANTIC, embedder=hash_embedder)
        assert result.summary.scoreable == 1
        assert result.summary.skipped == 4
        scored = [r for r in result.records if r.value is not None]
        assert scored[0].period == YearQuarter(2021, 1)
        assert scored[0].value == 1.0  # identical labels one year apart
        skipped_reasons = {r.skipped_reason for r in result.records if r.value is None}
        assert skipped_reasons == {"missing_previous_call"}

    def test_empty_previous_recorded_as_skipped(self):
        sets = [
            label_set({}, firm="F", period=YearQuarter(2020, 1)),
            label_set({"presentation": ["a"]}, firm="F", period=YearQuarter(2021, 1)),
        ]
        result = score_corpus(sets, 0.65, METHOD_DISCRETE)
        skipped = [r for r in result.records if r.value is None]
        assert any(r.skipped_reason == "empty_previous_targets" for r in skipped)

    def test_discrete_needs_no_embedder(self):
        sets = quarterly_sets("F", [["a", "b"]] * 5)
        result = score_corpus(sets, 0.65, METHOD_DISCRETE)
        scored = [r for r in result.records if r.value is not None]
        assert scored[0].value == 0.0

    def test_matches_recorded_per_prior_target(self):
        sets = quarterly_sets("F", [["a", "b", "c"], ["a"], ["a"], ["a"], ["a", "x"]])
        result = score_corpus(sets, 0.65, METHOD_DISCRETE)
        assert {m.label for m in result.matches} == {"a", "b", "c"}
        assert sum(1 for m in result.matches if not m.retained) == 2

    def test_summary_counts_sections(self):
        sets = [
            TargetSet(
                firm="F",
                period=YearQuarter(2020, 1),
                labels=(
                    TargetLabel("a", "presentation", 0),
                    TargetLabel("b", "presentation", 0),
                    TargetLabel("c", "analyst_qa", 2),
                ),
                method="llm",
            )
        ]
        result = score_corpus(sets, 0.65, METHOD_DISCRETE)
        assert result.summary.targets_per_call == 3.0
        assert result.summary.presentation_per_call == 2.0
        assert result.summary.qa_per_call == 1.0

    def test_duplicate_sets_rejected(self):
        sets = quarterly_sets("F", [["a"]])
        with pytest.raises(ValueError, match="duplicate"):
            score_corpus(sets + sets, 0.65, METHOD_DISCRETE)

    def test_semantic_requires_embedder(self):
        with pytest.raises(ValueError, match="embedder"):
            score_corpus([], 0.65, METHOD_SEMANTIC)

    def test_mean_and_sd_over_scored_values(self):
        sets = quarterly_sets(
            "F",
            [["a", "b"], ["a", "b"], ["a", "b"], ["a", "b"], ["a", "b"], ["a", "x"]],
        )
        result = score_corpus(sets, 0.65, METHOD_DISCRETE)
        values = [r.value for r in result.records if r.value is not None]
        assert values == [0.0, 0.5]
        assert result.summary.mean == pytest.approx(0.25)
        assert result.summary.sd == pytest.approx(np.std(values, ddof=1))


property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

LABEL_POOL = tuple(f"target {chr(97 + i)}" for i in range(8))


@st.composite
def semantic_corpora(draw):
    """Target sets of two firms over up to nine quarters, some missing, with
    vectors of random length for every label of a small pool.

    Labels recur across firm-quarters and between the two sections of one
    set, and some sets are empty, on either side of a pair.
    """

    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = {
        label: EmbeddingVector(
            tuple(float(v) for v in rng.standard_normal(dim) * rng.uniform(0.1, 10.0)), "m"
        )
        for label in LABEL_POOL
    }
    sets = []
    for firm in ("A", "B"):
        for quarter in sorted(draw(st.sets(st.integers(0, 8), min_size=1))):
            labels = tuple(
                TargetLabel(text, section, 0)
                for section in SECTIONS
                for text in draw(st.lists(st.sampled_from(LABEL_POOL), unique=True, max_size=4))
            )
            period = shift_quarters(YearQuarter(2020, 1), quarter)
            sets.append(TargetSet(firm=firm, period=period, labels=labels, method="llm"))
    return draw(st.permutations(sets)), vectors


@property_settings
@given(
    semantic_corpora(),
    st.sampled_from([0.5, 0.65, 0.9]),
    st.sampled_from([EMPTY_CURRENT_PENALIZE, EMPTY_CURRENT_ZERO]),
    st.sampled_from([DIRECTION_RETENTION, DIRECTION_MISSING]),
)
def test_score_corpus_matches_per_pair_reference(corpus, tau, empty_current, direction):
    target_sets, vectors = corpus
    result = score_corpus(
        target_sets,
        tau,
        METHOD_SEMANTIC,
        embedder=lambda texts: [vectors[text] for text in texts],
        direction=direction,
        empty_current=empty_current,
    )
    texts_by_key = {(ts.firm, ts.period): merged_texts(ts) for ts in target_sets}
    assert [(r.firm, r.period) for r in result.records] == sorted(texts_by_key)
    matches = iter(result.matches)
    for record in result.records:
        current = texts_by_key[(record.firm, record.period)]
        previous = texts_by_key.get((record.firm, shift_quarters(record.period, -4)))
        if not previous:
            assert record.value is None
            if previous is None:
                assert record.skipped_reason == "missing_previous_call"
                assert (record.n_prev, record.n_curr) == (None, len(current))
            else:
                assert record.skipped_reason == "empty_previous_targets"
                assert (record.n_prev, record.n_curr) == (0, len(current))
            continue
        cur_vectors = [vectors[text] for text in current]
        prev_vectors = [vectors[text] for text in previous]
        retention, pooled = semantic_pair_per_pair(
            cur_vectors, prev_vectors, tau, empty_current == EMPTY_CURRENT_ZERO
        )
        expected = retention if direction == DIRECTION_RETENTION else 1.0 - retention
        assert record.value == expected
        assert (record.n_prev, record.n_curr) == (len(previous), len(current))
        pair_matches = [next(matches) for _ in previous]
        assert [m.label for m in pair_matches] == list(previous)
        assert [m.best_similarity for m in pair_matches] == pooled
        if current or empty_current == EMPTY_CURRENT_PENALIZE:
            oracle = semantic_retention_oracle(
                [v.values for v in cur_vectors], [v.values for v in prev_vectors], tau
            )
            assert abs(retention - oracle) <= 1e-9
    assert next(matches, None) is None


@property_settings
@given(semantic_corpora(), st.sampled_from([None, DIRECTION_RETENTION, DIRECTION_MISSING]))
def test_discrete_score_corpus_matches_set_difference(corpus, direction):
    target_sets, _ = corpus
    result = score_corpus(target_sets, 0.65, METHOD_DISCRETE, direction=direction)
    records, matches = discrete_scores_set_difference(target_sets, direction != DIRECTION_RETENTION)
    assert len(result.records) == len(records)
    for record, (firm, period, value, reason, n_prev, n_curr) in zip(result.records, records):
        assert (record.firm, record.period, record.skipped_reason) == (firm, period, reason)
        assert (record.n_prev, record.n_curr) == (n_prev, n_curr)
        assert record.value == (None if value is None else pytest.approx(value, abs=1e-12))
    assert [(m.firm, m.period, m.label, m.retained) for m in result.matches] == matches
    assert all(m.best_similarity is None for m in result.matches)


def corpus_embedder(vectors):
    return lambda texts: [vectors[text] for text in texts]


@property_settings
@given(semantic_corpora(), st.sampled_from([METHOD_SEMANTIC, METHOD_DISCRETE]), st.data())
def test_score_corpus_ignores_input_order(corpus, method, data):
    target_sets, vectors = corpus
    shuffled = data.draw(st.permutations(target_sets))
    embedder = corpus_embedder(vectors)
    assert score_corpus(shuffled, 0.65, method, embedder=embedder) == score_corpus(
        target_sets, 0.65, method, embedder=embedder
    )


@property_settings
@given(
    semantic_corpora(),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
    st.sampled_from([EMPTY_CURRENT_PENALIZE, EMPTY_CURRENT_ZERO]),
)
def test_semantic_values_nonincreasing_in_tau(corpus, taus, empty_current):
    target_sets, vectors = corpus
    runs = [
        score_corpus(
            target_sets,
            tau,
            METHOD_SEMANTIC,
            embedder=corpus_embedder(vectors),
            empty_current=empty_current,
        ).records
        for tau in sorted(taus)
    ]
    for lower, higher in zip(runs, runs[1:]):
        for at_lower, at_higher in zip(lower, higher):
            assert (at_lower.value is None) == (at_higher.value is None)
            if at_lower.value is not None:
                assert at_higher.value <= at_lower.value


@property_settings
@given(semantic_corpora(), st.sampled_from([METHOD_SEMANTIC, METHOD_DISCRETE]))
def test_missing_is_one_minus_retention(corpus, method):
    target_sets, vectors = corpus
    retention, missing = (
        score_corpus(
            target_sets, 0.65, method, embedder=corpus_embedder(vectors), direction=direction
        ).records
        for direction in (DIRECTION_RETENTION, DIRECTION_MISSING)
    )
    assert len(retention) == len(missing)
    for kept, lost in zip(retention, missing):
        assert lost.value == (None if kept.value is None else 1.0 - kept.value)


def test_bad_vector_error_names_the_label():
    def embedder(texts):
        return [EmbeddingVector((math.nan, 1.0) if t == "b" else (1.0, 0.0), "m") for t in texts]

    sets = quarterly_sets("F", [["a", "b"], ["a"], ["a"], ["a"], ["a"]])
    with pytest.raises(EmbeddingError, match="label 'b': embedding vector 1 of 2 has norm nan"):
        score_corpus(sets, 0.65, METHOD_SEMANTIC, embedder=embedder)


def integer_vectors(dim, min_size=0):
    component = st.integers(-1000, 1000).map(lambda v: v / 7)
    row = st.lists(component, min_size=dim, max_size=dim).filter(any)
    return st.lists(row.map(lambda r: EmbeddingVector(tuple(r), "m")), min_size=min_size, max_size=6)


@property_settings
@given(st.integers(1, 6).flatmap(integer_vectors))
def test_unit_rows_are_the_per_set_normalised_rows(vectors):
    units = unit_rows(vectors)
    assert units.shape == (len(vectors), vectors[0].dim if vectors else 0)
    assert np.allclose(np.linalg.norm(units, axis=1), 1.0, rtol=0.0, atol=1e-12)
    if vectors:
        stacked = np.asarray([v.values for v in vectors], dtype=float)
        assert np.array_equal(units, stacked / np.linalg.norm(stacked, axis=1, keepdims=True))


@property_settings
@given(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True), st.data())
def test_unit_rows_rejects_mixed_dimensions(dims, data):
    vectors = [v for dim in dims for v in data.draw(integer_vectors(dim, min_size=1))]
    with pytest.raises(DimensionMismatchError):
        unit_rows(data.draw(st.permutations(vectors)))


def bad_row(dim):
    """A row whose norm is 0 (every square underflows) or not finite."""

    underflow = st.just((1e-200,) * dim)
    non_finite = st.tuples(
        st.integers(0, dim - 1), st.sampled_from([math.nan, math.inf, -math.inf, 1e200])
    ).map(lambda bad: tuple(bad[1] if i == bad[0] else 1.0 for i in range(dim)))
    return (underflow | non_finite).map(lambda row: EmbeddingVector(row, "m"))


@property_settings
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(integer_vectors(dim), bad_row(dim))), st.data())
def test_unit_rows_rejects_zero_or_non_finite_norms(vectors_and_bad_row, data):
    vectors, bad = vectors_and_bad_row
    vectors.insert(data.draw(st.integers(0, len(vectors))), bad)
    with pytest.raises(EmbeddingError, match="norm"):
        unit_rows(vectors)
