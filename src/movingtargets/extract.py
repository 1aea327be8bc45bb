"""Target-label extraction from call transcripts.

Two extractors produce comparable label sets per firm-quarter:

- an LLM extractor that sends one prompt per transcript to a chat-completion
  client and parses the structured two-list response, and
- a rule-based baseline that harvests bare financial keywords, deliberately
  ignoring context so that it reproduces the classic shortcomings of
  entity-style extraction (generic fragments, dropped qualifiers).

Label hygiene is shared: labels must be non-empty and free of digits,
percent signs, and currency symbols; per section, labels are normalized
(trimmed, whitespace-collapsed, case-folded) and exact duplicates removed.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from typing import Callable, Protocol

from . import fileio
from .config import METHOD_BASELINE, METHOD_LLM
from .corpus import ROLE_ANALYST, ROLE_OPERATOR, Transcript, YearQuarter
from .targets import SECTION_PRESENTATION, SECTION_QA, SECTIONS, merge_sections, normalize_label
from .transport import JsonEndpointClient, with_retries

VIOLATION_DIGIT = "digit"
VIOLATION_PERCENT = "percent"
VIOLATION_CURRENCY = "currency"
VIOLATION_EMPTY = "empty"
VIOLATION_MALFORMED = "malformed_item"
VIOLATION_INDEX = "index_out_of_range"

_CURRENCY_CHARS = "$€£¥₩¢"
# ASCII letters and single spaces: such a label can break no label rule.
_PLAIN_LABEL_RE = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*")
_INPUT_SLOT = "<inputs>earnings-call transcript as indexed JSON dialog</inputs>"


class ExtractionError(Exception):
    """Base class for extraction failures."""


class TransportError(ExtractionError):
    """A retryable transport-level failure while calling the extractor."""


class ResponseFormatError(ExtractionError):
    """The extractor response is not a parseable two-list document."""


class MissingRecordingError(ExtractionError):
    """Offline mode found no recorded response for a prompt."""


class UnextractableError(ExtractionError):
    """Extraction for one firm-quarter failed after all retries."""


@dataclass(frozen=True)
class TargetLabel:
    """One extracted target: a short noun phrase tied to an utterance."""

    text: str
    section: str
    source_index: int


@dataclass(frozen=True)
class TargetSet:
    """Validated, per-section-deduplicated labels for one firm-quarter.

    The labels must keep ``targets.merge_sections``'s rule. ``texts`` is
    built once with the set: the normalized texts merged over sections for
    scoring, presentation first, each text once where it first occurs.
    """

    firm: str
    period: YearQuarter
    labels: tuple[TargetLabel, ...]
    method: str
    texts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        texts, _, _ = merge_sections(
            (label.text, label.section, label.source_index) for label in self.labels
        )
        object.__setattr__(self, "texts", texts)


def merged_texts(target_set: TargetSet) -> tuple[str, ...]:
    """The set's texts merged over sections, as scored (``TargetSet.texts``)."""

    return target_set.texts


def validate_target_label(text: str) -> list[str]:
    """Return rule violations for a candidate label; empty means valid."""

    if _PLAIN_LABEL_RE.fullmatch(text):
        return []
    violations = []
    if not text.strip():
        violations.append(VIOLATION_EMPTY)
    if any(ch.isdigit() for ch in text):
        violations.append(VIOLATION_DIGIT)
    if "%" in text:
        violations.append(VIOLATION_PERCENT)
    if any(ch in _CURRENCY_CHARS for ch in text):
        violations.append(VIOLATION_CURRENCY)
    return violations


@lru_cache(maxsize=1)
def _prompt_template() -> str:
    template = (
        resources.files("movingtargets")
        .joinpath("templates")
        .joinpath("extraction_prompt.txt")
        .read_text(encoding="utf-8")
    )
    if _INPUT_SLOT not in template:
        raise RuntimeError("extraction prompt template is missing its inputs slot")
    return template


# The dialog is ``json.dumps([{index, speaker, text}, ...], ensure_ascii=False,
# indent=2)`` of the utterances, rendered by hand: with an indent, ``json.dumps``
# runs its pure-Python encoder. Recordings are keyed by the prompt's digest, so
# every byte of this layout is part of the key.
_DIALOG_ITEM = '  {\n    "index": %d,\n    "speaker": %s,\n    "text": %s\n  }'


def serialize_dialog(transcript: Transcript) -> str:
    """Transcript as an indexed JSON dialog, byte-stable for equal inputs."""

    if not transcript.utterances:
        return "[]"
    items = ",\n".join(
        _DIALOG_ITEM % (u.index, encode_basestring(u.speaker), encode_basestring(u.text))
        for u in transcript.utterances
    )
    return f"[\n{items}\n]"


def build_extraction_prompt(transcript: Transcript) -> str:
    """Render the extraction prompt with the transcript in the inputs slot."""

    filled = "<inputs>" + serialize_dialog(transcript) + "</inputs>"
    return _prompt_template().replace(_INPUT_SLOT, filled)


@dataclass(frozen=True)
class ParsedExtraction:
    target_set: TargetSet
    violations: Counter


def parse_extraction_response(
    raw: str,
    transcript_len: int,
    *,
    firm: str,
    period: YearQuarter,
    method: str = METHOD_LLM,
) -> ParsedExtraction:
    """Parse a two-list extractor response into a validated TargetSet.

    Items that break label rules or carry an out-of-range utterance index
    are dropped and tallied per violation kind rather than repaired.
    """

    text = _strip_code_fences(raw)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ResponseFormatError(f"unparseable response: {exc}") from exc
    if not isinstance(doc, dict):
        raise ResponseFormatError("response root must be an object")
    for section in SECTIONS:
        if section not in doc:
            raise ResponseFormatError(f"missing top-level key {section!r}")
        if not isinstance(doc[section], list):
            raise ResponseFormatError(f"top-level key {section!r} must be a list")

    violations: Counter = Counter()
    labels: list[TargetLabel] = []
    for section in SECTIONS:
        seen: set[str] = set()
        for item in doc[section]:
            target, index, item_violations = _check_item(item, transcript_len)
            if item_violations:
                violations.update(item_violations)
                continue
            # Normalized, and kept where it first occurs in its section.
            text = normalize_label(target)
            if text not in seen:
                seen.add(text)
                labels.append(TargetLabel(text, section, index))

    target_set = TargetSet(firm=firm, period=period, labels=tuple(labels), method=method)
    return ParsedExtraction(target_set=target_set, violations=violations)


def _check_item(item: object, transcript_len: int) -> tuple[str | None, int, list[str]]:
    if not isinstance(item, dict):
        return None, -1, [VIOLATION_MALFORMED]
    target = item.get("target")
    index = item.get("index")
    if not isinstance(target, str) or not isinstance(index, int) or isinstance(index, bool):
        return target if isinstance(target, str) else None, -1, [VIOLATION_MALFORMED]
    if not fileio.encodes_as_utf8(target):
        return target, -1, [VIOLATION_MALFORMED]
    found = validate_target_label(target)
    if not 0 <= index < transcript_len:
        found = found + [VIOLATION_INDEX]
    return target, index, found


def serialize_target_set(target_set: TargetSet) -> str:
    """Serialize a TargetSet back into the two-list response format."""

    doc = {
        section: [
            {"target": label.text, "index": label.source_index}
            for label in target_set.labels
            if label.section == section
        ]
        for section in SECTIONS
    }
    return json.dumps(doc, ensure_ascii=False, indent=2)


def _strip_code_fences(raw: str) -> str:
    text = raw.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-zA-Z0-9_-]*\s*", "", text)
        text = re.sub(r"\s*```$", "", text)
    return text.strip()


class ExtractorClient(Protocol):
    """Chat-completion client used for target extraction."""

    model_id: str

    def complete(self, prompt: str) -> str: ...


class RecordingStore(fileio.KeyedFiles):
    """Directory of recorded responses keyed by digest of (model, prompt)."""

    def get(self, model_id: str, prompt: str) -> str | None:
        try:
            return self.read(model_id, prompt)
        except UnicodeDecodeError as exc:
            name = self.path(model_id, prompt).name
            raise ExtractionError(f"unreadable recording {name}: {exc}") from exc


class ReplayExtractorClient:
    """Serves recorded responses only; any miss is an error."""

    def __init__(self, store: RecordingStore, model_id: str) -> None:
        self.store = store
        self.model_id = model_id

    def complete(self, prompt: str) -> str:
        response = self.store.get(self.model_id, prompt)
        if response is None:
            raise MissingRecordingError(
                f"no recorded response for model {self.model_id!r} "
                f"(key {RecordingStore.key(self.model_id, prompt)})"
            )
        return response


class HttpChatCompletionClient(JsonEndpointClient):
    """Chat-completion client for an OpenAI-style endpoint; one POST per call."""

    role = "extractor"
    payload_kind = "completion"
    transient_error = TransportError
    final_error = ExtractionError

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        content = self.post(payload, lambda doc: doc["choices"][0]["message"]["content"])
        if not isinstance(content, str):
            raise ResponseFormatError(f"completion content must be a string, got {content!r}")
        return content


class TokenBucket:
    """Thread-safe token bucket; acquire() blocks until a token is free."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = max(1.0, rate)
        self._tokens = self.capacity
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class RateLimitedExtractorClient:
    """Wraps a client so completions draw from a shared token bucket."""

    def __init__(self, client: ExtractorClient, bucket: TokenBucket) -> None:
        self._client = client
        self._bucket = bucket

    @property
    def model_id(self) -> str:
        return self._client.model_id

    def complete(self, prompt: str) -> str:
        self._bucket.acquire()
        return self._client.complete(prompt)


@dataclass(frozen=True)
class LlmExtraction:
    target_set: TargetSet
    violations: Counter
    attempts: int


def extract_targets_llm(
    transcript: Transcript,
    client: ExtractorClient,
    *,
    sleep: Callable[[float], None] | None = None,
) -> LlmExtraction:
    """Extract targets for one transcript in a single prompt round trip.

    Each request retries transport failures under ``transport.with_retries``;
    a malformed response is asked for once more, with a fresh transport
    budget, after which the firm-quarter is reported unextractable.
    ``attempts`` counts every ``complete`` call.
    """

    prompt = build_extraction_prompt(transcript)
    where = f"{transcript.firm} {transcript.period}"
    calls = 0

    def complete() -> str:
        nonlocal calls
        calls += 1
        return client.complete(prompt)

    for _ in range(2):
        try:
            raw = with_retries(complete, TransportError, sleep)
            parsed = parse_extraction_response(
                raw, len(transcript), firm=transcript.firm, period=transcript.period
            )
            return LlmExtraction(parsed.target_set, parsed.violations, attempts=calls)
        except TransportError as exc:
            raise UnextractableError(f"{where}: {exc}") from exc
        except ResponseFormatError as exc:
            malformed = exc
    raise UnextractableError(f"{where}: unparseable response") from malformed


# Keyword heads the baseline treats as targets. The scan is deliberately
# context-free: it keeps at most a leading determiner, so qualified phrases
# like "Data Center revenue" collapse to "revenue" and generic nouns such as
# "year" or "units" surface as targets of their own.
BASELINE_KEYWORDS = frozenset(
    {
        "revenue",
        "revenues",
        "sales",
        "earnings",
        "margin",
        "margins",
        "growth",
        "share",
        "shares",
        "units",
        "year",
        "quarter",
        "guidance",
        "dividend",
        "dividends",
        "backlog",
        "bookings",
        "pricing",
        "demand",
        "profitability",
        "buyback",
        "buybacks",
        "eps",
        "income",
        "costs",
        "expenses",
        "cash",
        "capex",
        "volume",
        "volumes",
        "utilization",
        "range",
    }
)

_DETERMINERS = frozenset({"the", "a", "an", "this", "that", "our"})
_WORD_RE = re.compile(r"[a-z]+")


def qa_start_index(transcript: Transcript) -> int | None:
    """Index of the first Q&A utterance, or None if the call has no Q&A."""

    for utterance in transcript.utterances:
        if utterance.role == ROLE_ANALYST:
            return utterance.index
        if utterance.role == ROLE_OPERATOR and "operator instructions" in utterance.text.lower():
            return utterance.index
    return None


def extract_targets_baseline(transcript: Transcript) -> TargetSet:
    """Harvest keyword-style targets with a shallow, context-free scan."""

    qa_start = qa_start_index(transcript)
    labels: list[TargetLabel] = []
    seen: dict[str, set[str]] = {section: set() for section in SECTIONS}
    for utterance in transcript.utterances:
        if qa_start is not None and utterance.index >= qa_start:
            section = SECTION_QA
        else:
            section = SECTION_PRESENTATION
        words = _WORD_RE.findall(utterance.text.lower())
        for i, word in enumerate(words):
            if word not in BASELINE_KEYWORDS:
                continue
            # One or two [a-z]+ words joined by a space: a valid label, and
            # already normalized. Each is kept where it first occurs in its section.
            if i > 0 and words[i - 1] in _DETERMINERS:
                phrase = f"{words[i - 1]} {word}"
            else:
                phrase = word
            if phrase not in seen[section]:
                seen[section].add(phrase)
                labels.append(TargetLabel(phrase, section, utterance.index))

    return TargetSet(
        firm=transcript.firm,
        period=transcript.period,
        labels=tuple(labels),
        method=METHOD_BASELINE,
    )
