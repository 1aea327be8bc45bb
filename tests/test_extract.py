from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movingtargets import extract
from movingtargets.corpus import Transcript, Utterance, YearQuarter
from movingtargets.extract import (
    METHOD_LLM,
    ExtractionError,
    HttpChatCompletionClient,
    MissingRecordingError,
    RateLimitedExtractorClient,
    RecordingStore,
    ReplayExtractorClient,
    ResponseFormatError,
    TargetLabel,
    TargetSet,
    TokenBucket,
    TransportError,
    UnextractableError,
    build_extraction_prompt,
    extract_targets_baseline,
    extract_targets_llm,
    merged_texts,
    parse_extraction_response,
    qa_start_index,
    serialize_dialog,
    serialize_target_set,
    validate_target_label,
)

from oracles import (
    baseline_harvest_reference,
    merged_texts_reference,
    normalize_and_dedupe,
    validate_target_label_reference,
)
from test_transport import StubResponse, StubSession

GOLDEN = Path(__file__).parent / "data" / "prompt_golden.txt"
INPUT_SLOT = "<inputs>earnings-call transcript as indexed JSON dialog</inputs>"


def make_transcript(texts=None, firm="AAPL", year=2020, quarter=1):
    if texts is None:
        texts = {
            0: ("Tim Lane - Executives", "We grew revenue and margins this quarter."),
            1: ("Operator", "[Operator Instructions] Q&A begins."),
            2: ("Amy Noor - Analysts", "Can you speak to gross margin drivers?"),
        }
    roles = {"Operator": "operator"}
    utterances = []
    for index, (speaker, text) in sorted(texts.items()):
        if speaker.endswith("- Executives"):
            role = "executive"
        elif speaker.endswith("- Analysts"):
            role = "analyst"
        else:
            role = roles.get(speaker, "operator")
        utterances.append(Utterance(index, speaker, role, text))
    return Transcript(firm=firm, period=YearQuarter(year, quarter), utterances=tuple(utterances))


class TestPromptBuilder:
    def test_template_fixed_parts_match_golden_byte_exact(self):
        golden = GOLDEN.read_text(encoding="utf-8")
        prefix, suffix = golden.split(INPUT_SLOT)
        prompt = build_extraction_prompt(make_transcript())
        assert prompt.startswith(prefix)
        assert prompt.endswith(suffix)

    def test_prompt_contains_required_rule_lines(self):
        prompt = build_extraction_prompt(make_transcript())
        assert "No numbers, units, currency symbols, or percent signs anywhere" in prompt
        assert "Deduplicate near-duplicates to one normalized target per section" in prompt
        assert '"presentation": List[Dict]' in prompt
        assert '"analyst_qa": List[Dict]' in prompt

    def test_prompt_is_byte_stable(self):
        transcript = make_transcript()
        assert build_extraction_prompt(transcript) == build_extraction_prompt(transcript)

    def test_prompt_embeds_serialized_utterances(self):
        transcript = make_transcript()
        prompt = build_extraction_prompt(transcript)
        assert "We grew revenue and margins this quarter." in prompt
        assert '"index": 0' in prompt


class TestValidateTargetLabel:
    def test_clean_label_has_no_violations(self):
        assert validate_target_label("market share") == []

    def test_digit_and_percent_flagged(self):
        assert set(validate_target_label("the 5% range")) == {"digit", "percent"}

    def test_currency_and_digit_flagged(self):
        assert set(validate_target_label("$2 billion buyback")) == {"currency", "digit"}

    def test_blank_label_flagged_empty(self):
        assert validate_target_label("   ") == ["empty"]


class TestNormalizeAndDedupe:
    def test_case_and_whitespace_fold_then_dedupe(self):
        labels = [
            TargetLabel("Gross Margin", "presentation", 0),
            TargetLabel("gross  margin", "presentation", 1),
        ]
        out = normalize_and_dedupe(labels)
        assert [l.text for l in out] == ["gross margin"]
        assert out[0].source_index == 0

    def test_same_text_in_both_sections_kept(self):
        labels = [
            TargetLabel("revenue", "presentation", 0),
            TargetLabel("revenue", "analyst_qa", 2),
        ]
        out = normalize_and_dedupe(labels)
        assert len(out) == 2

    def test_non_duplicates_kept(self):
        labels = [
            TargetLabel("revenue", "presentation", 0),
            TargetLabel("revenue growth", "presentation", 0),
        ]
        assert len(normalize_and_dedupe(labels)) == 2


class TestParseExtractionResponse:
    def test_single_presentation_label(self):
        raw = json.dumps(
            {
                "presentation": [{"target": "Quarterly Data Center revenue", "index": 2}],
                "analyst_qa": [],
            }
        )
        parsed = parse_extraction_response(raw, 3, firm="NVDA", period=YearQuarter(2025, 2))
        assert len(parsed.target_set.labels) == 1
        label = parsed.target_set.labels[0]
        assert label.text == "quarterly data center revenue"
        assert label.section == "presentation"
        assert label.source_index == 2

    def test_rule_violating_items_dropped_and_tallied(self):
        raw = json.dumps(
            {
                "presentation": [
                    {"target": "revenue up 15%", "index": 1},
                    {"target": "gross margin", "index": 0},
                ],
                "analyst_qa": [],
            }
        )
        parsed = parse_extraction_response(raw, 3, firm="AAPL", period=YearQuarter(2020, 1))
        assert [l.text for l in parsed.target_set.labels] == ["gross margin"]
        assert parsed.violations["digit"] == 1
        assert parsed.violations["percent"] == 1

    def test_index_equal_to_transcript_len_dropped(self):
        raw = json.dumps(
            {"presentation": [{"target": "margins", "index": 3}], "analyst_qa": []}
        )
        parsed = parse_extraction_response(raw, 3, firm="AAPL", period=YearQuarter(2020, 1))
        assert parsed.target_set.labels == ()
        assert parsed.violations["index_out_of_range"] == 1

    def test_malformed_items_dropped(self):
        raw = json.dumps(
            {
                "presentation": ["not a dict", {"target": 5, "index": 0}],
                "analyst_qa": [{"target": "margins", "index": "zero"}],
            }
        )
        parsed = parse_extraction_response(raw, 3, firm="AAPL", period=YearQuarter(2020, 1))
        assert parsed.target_set.labels == ()
        assert parsed.violations["malformed_item"] == 3

    def test_missing_top_level_key_raises(self):
        with pytest.raises(ResponseFormatError, match="analyst_qa"):
            parse_extraction_response(
                '{"presentation": []}', 3, firm="AAPL", period=YearQuarter(2020, 1)
            )

    def test_unparseable_document_raises(self):
        with pytest.raises(ResponseFormatError, match="unparseable"):
            parse_extraction_response("{oops", 3, firm="AAPL", period=YearQuarter(2020, 1))

    def test_code_fences_stripped(self):
        raw = '```json\n{"presentation": [], "analyst_qa": []}\n```'
        parsed = parse_extraction_response(raw, 3, firm="AAPL", period=YearQuarter(2020, 1))
        assert parsed.target_set.labels == ()

    def test_duplicates_within_section_collapse(self):
        raw = json.dumps(
            {
                "presentation": [
                    {"target": "Gross Margin", "index": 0},
                    {"target": "gross  margin", "index": 1},
                ],
                "analyst_qa": [{"target": "gross margin", "index": 2}],
            }
        )
        parsed = parse_extraction_response(raw, 3, firm="AAPL", period=YearQuarter(2020, 1))
        assert len(parsed.target_set.labels) == 2


# Any JSON value, nested a few levels deep.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
# Items that look like extractor items, with any shape of value.
items = json_values | st.fixed_dictionaries(
    {"target": json_values | st.text(), "index": json_values | st.integers(-3, 10)}
)
responses = st.dictionaries(
    st.sampled_from(["presentation", "analyst_qa", "other"]),
    st.lists(items, max_size=5) | json_values,
).map(json.dumps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text() | responses)
@example("[" * 100_000)
@example('{"presentation": [{"target": "margins", "index": 1%s}], "analyst_qa": []}' % ("0" * 5000))
def test_parser_returns_or_raises_response_format_error(raw):
    try:
        parsed = parse_extraction_response(raw, 5, firm="AAPL", period=YearQuarter(2020, 1))
    except ResponseFormatError:
        return
    assert all(0 <= label.source_index < 5 for label in parsed.target_set.labels)


class TestSerializeRoundTrip:
    def test_parse_of_serialize_is_identity(self):
        target_set = TargetSet(
            firm="AAPL",
            period=YearQuarter(2020, 1),
            labels=(
                TargetLabel("gross margin", "presentation", 0),
                TargetLabel("revenue growth", "presentation", 1),
                TargetLabel("gross margin", "analyst_qa", 2),
            ),
            method=METHOD_LLM,
        )
        parsed = parse_extraction_response(
            serialize_target_set(target_set), 3, firm="AAPL", period=YearQuarter(2020, 1)
        )
        assert parsed.target_set == target_set
        assert parsed.violations == {}

    def test_per_section_uniqueness_enforced_by_type(self):
        with pytest.raises(ValueError, match="duplicate"):
            TargetSet(
                firm="AAPL",
                period=YearQuarter(2020, 1),
                labels=(
                    TargetLabel("gross margin", "presentation", 0),
                    TargetLabel("Gross  Margin", "presentation", 1),
                ),
                method=METHOD_LLM,
            )


class FakeClient:
    def __init__(self, responses, model_id="fake-model"):
        self.responses = list(responses)
        self.model_id = model_id
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        outcome = self.responses.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


GOOD_RESPONSE = json.dumps(
    {
        "presentation": [{"target": "gross margin", "index": 0}],
        "analyst_qa": [{"target": "revenue growth", "index": 2}],
    }
)


class TestExtractTargetsLlm:
    def test_single_round_trip(self):
        client = FakeClient([GOOD_RESPONSE])
        outcome = extract_targets_llm(make_transcript(), client)
        assert outcome.attempts == 1
        assert [l.text for l in outcome.target_set.labels] == ["gross margin", "revenue growth"]
        assert outcome.target_set.method == "llm"

    def test_transport_retries_with_backoff_then_succeeds(self):
        client = FakeClient([TransportError("boom"), TransportError("boom"), GOOD_RESPONSE])
        waits = []
        outcome = extract_targets_llm(make_transcript(), client, sleep=waits.append)
        assert outcome.attempts == 3
        assert waits == [0.5, 1.0]

    def test_transport_failure_after_three_attempts(self):
        client = FakeClient([TransportError("boom")] * 3)
        with pytest.raises(UnextractableError, match="transport"):
            extract_targets_llm(make_transcript(), client, sleep=lambda _: None)
        assert len(client.prompts) == 3

    def test_each_request_gets_its_own_transport_budget(self):
        boom = TransportError("boom")
        client = FakeClient([boom, boom, "not json", boom, boom, GOOD_RESPONSE])
        waits = []
        outcome = extract_targets_llm(make_transcript(), client, sleep=waits.append)
        assert outcome.attempts == 6
        assert waits == [0.5, 1.0, 0.5, 1.0]

    def test_parse_failure_retried_once(self):
        client = FakeClient(["not json", GOOD_RESPONSE])
        outcome = extract_targets_llm(make_transcript(), client)
        assert outcome.attempts == 2

    def test_parse_failure_twice_is_unextractable(self):
        client = FakeClient(["not json", "still not json"])
        with pytest.raises(UnextractableError, match="unparseable"):
            extract_targets_llm(make_transcript(), client)

    def test_empty_lists_yield_empty_target_set(self):
        client = FakeClient([json.dumps({"presentation": [], "analyst_qa": []})])
        outcome = extract_targets_llm(make_transcript(), client)
        assert outcome.target_set.labels == ()


class TestReplayClient:
    def test_replay_is_deterministic(self, tmp_path):
        transcript = make_transcript()
        prompt = build_extraction_prompt(transcript)
        key = RecordingStore.key("fake-model", prompt)
        (tmp_path / f"{key}.txt").write_text(GOOD_RESPONSE, encoding="utf-8")
        client = ReplayExtractorClient(RecordingStore(tmp_path), "fake-model")
        first = extract_targets_llm(transcript, client).target_set
        second = extract_targets_llm(transcript, client).target_set
        assert first == second

    def test_undecodable_recording_is_extraction_error(self, tmp_path):
        (tmp_path / f"{RecordingStore.key('fake-model', 'prompt')}.txt").write_bytes(b"{\xff}")
        client = ReplayExtractorClient(RecordingStore(tmp_path), "fake-model")
        with pytest.raises(ExtractionError, match="unreadable recording"):
            client.complete("prompt")

    def test_missing_recording_raises(self, tmp_path):
        client = ReplayExtractorClient(RecordingStore(tmp_path), "fake-model")
        with pytest.raises(MissingRecordingError):
            client.complete("never recorded")

    def test_key_depends_on_model_and_prompt(self):
        assert RecordingStore.key("m1", "p") != RecordingStore.key("m2", "p")
        assert RecordingStore.key("m1", "p") != RecordingStore.key("m1", "q")


class TestHttpChatCompletionClient:
    def test_returns_first_choice_content(self):
        payload = {"choices": [{"message": {"content": GOOD_RESPONSE}}]}
        session = StubSession([StubResponse(200, payload)])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        assert client.complete("prompt") == GOOD_RESPONSE
        url, kwargs = session.requests[0]
        assert kwargs["json"]["model"] == "model-x"
        assert kwargs["json"]["messages"][0]["content"] == "prompt"

    def test_api_key_sent_as_bearer(self):
        payload = {"choices": [{"message": {"content": "{}"}}]}
        session = StubSession([StubResponse(200, payload)])
        client = HttpChatCompletionClient(
            "http://llm", "model-x", api_key="sk-test", session=session
        )
        client.complete("prompt")
        _, kwargs = session.requests[0]
        assert kwargs["headers"]["Authorization"] == "Bearer sk-test"

    def test_server_error_is_retryable_transport_error(self):
        session = StubSession([StubResponse(503)])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(TransportError):
            client.complete("prompt")

    def test_rate_limit_is_retryable_transport_error(self):
        session = StubSession([StubResponse(429)])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(TransportError, match="429"):
            client.complete("prompt")

    def test_client_error_is_not_retryable(self):
        session = StubSession([StubResponse(401, text="no auth")])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(ExtractionError, match="401"):
            client.complete("prompt")

    def test_unexpected_payload_rejected(self):
        session = StubSession([StubResponse(200, {"choices": []})])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(ExtractionError, match="payload"):
            client.complete("prompt")

    @pytest.mark.parametrize("content", [None, 42])
    def test_non_string_content_is_response_format_error(self, content):
        payload = {"choices": [{"message": {"content": content}}]}
        session = StubSession([StubResponse(200, payload)])
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(ResponseFormatError, match="must be a string"):
            client.complete("prompt")

    @pytest.mark.parametrize("content", [None, 42])
    def test_non_string_content_makes_transcript_unextractable(self, content):
        payload = {"choices": [{"message": {"content": content}}]}
        session = StubSession([StubResponse(200, payload)] * 2)
        client = HttpChatCompletionClient("http://llm", "model-x", session=session)
        with pytest.raises(UnextractableError, match="unparseable"):
            extract_targets_llm(make_transcript(), client)
        assert len(session.requests) == 2


class TestRateLimiting:
    def test_token_bucket_hands_out_capacity_without_blocking(self, monkeypatch):
        bucket = TokenBucket(rate=3.0)

        def blocked(seconds):
            raise AssertionError(f"acquire blocked for {seconds} s within the burst")

        monkeypatch.setattr(extract.time, "sleep", blocked)
        for _ in range(3):
            bucket.acquire()

    def test_rate_limited_client_draws_token_per_call(self):
        calls = []

        class CountingBucket:
            def acquire(self):
                calls.append(1)

        client = RateLimitedExtractorClient(FakeClient([GOOD_RESPONSE]), CountingBucket())
        client.complete("prompt")
        assert calls == [1]
        assert client.model_id == "fake-model"

    def test_bucket_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)

    def test_exhausted_bucket_blocks_until_refill(self):
        import time

        bucket = TokenBucket(rate=5.0)
        for _ in range(5):
            bucket.acquire()
        started = time.monotonic()
        bucket.acquire()
        assert time.monotonic() - started >= 0.1


class TestBaselineExtractor:
    def test_generic_fragments_from_apple_style_text(self):
        transcript = make_transcript(
            texts={
                0: (
                    "Pat Kim - Executives",
                    "We shipped record iPhone units, growing year over year.",
                ),
            }
        )
        labels = {l.text for l in extract_targets_baseline(transcript).labels}
        assert "units" in labels
        assert "year" in labels

    def test_qualifier_dropped_from_nvda_style_text(self):
        transcript = make_transcript(
            texts={
                0: (
                    "Pat Kim - Executives",
                    "Data Center revenue grew strongly and Compute revenue followed.",
                ),
            }
        )
        labels = {l.text for l in extract_targets_baseline(transcript).labels}
        assert "revenue" in labels
        assert not any("data center" in l for l in labels)

    def test_leading_determiner_kept(self):
        transcript = make_transcript(
            texts={0: ("Pat Kim - Executives", "Results for the quarter were solid.")}
        )
        labels = {l.text for l in extract_targets_baseline(transcript).labels}
        assert "the quarter" in labels

    def test_no_keywords_yields_empty_set(self):
        transcript = make_transcript(
            texts={0: ("Pat Kim - Executives", "Thank you all for joining us today.")}
        )
        assert extract_targets_baseline(transcript).labels == ()

    def test_qa_starts_at_first_analyst(self):
        transcript = make_transcript(
            texts={
                0: ("Pat Kim - Executives", "Revenue grew nicely."),
                1: ("Ann Roy - Analysts", "What about margins?"),
                2: ("Pat Kim - Executives", "Margins expanded."),
            }
        )
        assert qa_start_index(transcript) == 1
        target_set = extract_targets_baseline(transcript)
        by_section = {(l.text, l.section) for l in target_set.labels}
        assert ("revenue", "presentation") in by_section
        assert ("margins", "analyst_qa") in by_section

    def test_operator_instructions_marks_qa_start(self):
        transcript = make_transcript(
            texts={
                0: ("Pat Kim - Executives", "Revenue grew nicely."),
                1: ("Operator", "[Operator Instructions] We begin Q&A."),
                2: ("Pat Kim - Executives", "Margins expanded."),
            }
        )
        assert qa_start_index(transcript) == 1
        target_set = extract_targets_baseline(transcript)
        assert ("margins", "analyst_qa") in {(l.text, l.section) for l in target_set.labels}

    def test_all_emitted_labels_pass_validation(self, small_corpus):
        from movingtargets.corpus import load_transcript

        for path in sorted(small_corpus.transcripts_dir.glob("*.json"))[:6]:
            target_set = extract_targets_baseline(load_transcript(path))
            for label in target_set.labels:
                assert validate_target_label(label.text) == []

    def test_merged_texts_unions_sections(self):
        target_set = TargetSet(
            firm="AAPL",
            period=YearQuarter(2020, 1),
            labels=(
                TargetLabel("revenue", "presentation", 0),
                TargetLabel("margins", "presentation", 0),
                TargetLabel("revenue", "analyst_qa", 2),
            ),
            method="llm",
        )
        assert merged_texts(target_set) == ("revenue", "margins")


def spelling_variants(text):
    """Spellings of ``text`` that differ in case and whitespace."""

    case = st.sampled_from([str.lower, str.upper, str.title])
    gap = st.sampled_from([" ", "  ", "\t", " \n "])
    return st.tuples(case, gap, st.sampled_from(["", " ", "\t"])).map(
        lambda spelling: spelling[2] + spelling[1].join(spelling[0](text).split()) + spelling[2]
    )


@st.composite
def variant_target_sets(draw):
    """Target sets whose texts recur across sections under other spellings,
    with the labels of the two sections interleaved."""

    pool = ("gross margin", "free cash flow", "revenue", "data center revenue", "capex")
    labels = [
        TargetLabel(draw(spelling_variants(text)), section, 0)
        for section in ("presentation", "analyst_qa")
        for text in draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    ]
    return TargetSet("AAPL", YearQuarter(2020, 1), tuple(draw(st.permutations(labels))), "llm")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(variant_target_sets())
def test_texts_are_the_reference_merge(target_set):
    assert target_set.texts == tuple(merged_texts_reference(target_set))
    assert merged_texts(target_set) == target_set.texts


# Text that JSON must escape or may pass through: quotes, backslashes, control
# characters, the line and paragraph separators, non-BMP characters and lone
# surrogates, besides letters, digits, spaces and the label rules' symbols.
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\ufeff\ud800\udfff 5%$€'),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
        st.characters(),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(JSON_TEXT, JSON_TEXT), max_size=6))
def test_dialog_is_the_indented_json_dump(pairs):
    transcript = Transcript(
        "AAPL",
        YearQuarter(2020, 1),
        tuple(Utterance(i, speaker, "executive", text) for i, (speaker, text) in enumerate(pairs)),
    )
    dialog = [
        {"index": u.index, "speaker": u.speaker, "text": u.text} for u in transcript.utterances
    ]
    assert serialize_dialog(transcript) == json.dumps(dialog, ensure_ascii=False, indent=2)


LABEL_TEXT = st.one_of(
    JSON_TEXT,
    st.lists(st.text("abqzABQZ", min_size=1, max_size=5), min_size=1, max_size=3).map(" ".join),
    st.text(st.sampled_from("aZ \t\n0%$£¥₩¢€٣²"), max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(LABEL_TEXT)
@example("market share")
@example(" market share ")
@example("market  share")
@example("")
def test_label_rule_is_the_reference_rule(text):
    assert validate_target_label(text) == validate_target_label_reference(text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.sampled_from(sorted(extract.BASELINE_KEYWORDS | {"The", "OUR", "a", "an"})),
                JSON_TEXT,
            ),
            max_size=12,
        ).map(" ".join),
        min_size=1,
        max_size=4,
    )
)
def test_every_baseline_phrase_passes_the_label_rule(texts):
    transcript = make_transcript(
        texts={i: ("Pat Kim - Executives", text) for i, text in enumerate(texts)}
    )
    for label in extract_targets_baseline(transcript).labels:
        assert validate_target_label_reference(label.text) == []


def labels_kept_reference(doc, transcript_len):
    """The valid items of a response, in order, as labels before normalization."""

    kept = []
    for section in ("presentation", "analyst_qa"):
        for item in doc[section]:
            target, index = item["target"], item["index"]
            try:
                target.encode("utf-8")
            except UnicodeEncodeError:
                continue
            if not validate_target_label_reference(target) and 0 <= index < transcript_len:
                kept.append(TargetLabel(target, section, index))
    return kept


POOL = ("gross margin", "free cash flow", "revenue", "straße", "capex")
ITEM_TARGETS = st.sampled_from(POOL).flatmap(spelling_variants) | LABEL_TEXT


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.fixed_dictionaries(
        {
            section: st.lists(
                st.fixed_dictionaries({"target": ITEM_TARGETS, "index": st.integers(-1, 5)}),
                max_size=10,
            )
            for section in ("presentation", "analyst_qa")
        }
    )
)
def test_parser_labels_are_the_reference_dedupe(doc):
    parsed = parse_extraction_response(
        json.dumps(doc), 5, firm="AAPL", period=YearQuarter(2020, 1)
    )
    expected = normalize_and_dedupe(labels_kept_reference(doc, 5))
    assert parsed.target_set.labels == tuple(expected)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Pat Kim - Executives", "Amy Noor - Analysts", "Operator"]),
            st.lists(
                st.sampled_from(
                    sorted(extract.BASELINE_KEYWORDS | {"The", "OUR", "a", "an", "Revenue"})
                )
                | JSON_TEXT,
                max_size=12,
            ).map(" ".join),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_baseline_labels_are_the_reference_dedupe(utterances):
    transcript = make_transcript(texts=dict(enumerate(utterances)))
    expected = normalize_and_dedupe(baseline_harvest_reference(transcript))
    assert extract_targets_baseline(transcript).labels == tuple(expected)
