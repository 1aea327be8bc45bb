"""Deterministic fixture corpus builder.

Materializes a complete offline pipeline input under one directory:
transcripts, recorded extractor responses, a pre-seeded embedding cache,
returns, factors, and a config file. Everything derives from fixed word
lists and seeded generators, so repeated builds are byte-identical.

Firms are given persistent score levels: firm i keeps a fixed core of
targets every quarter and rotates the rest, so both scoring methods
produce stable, well-separated cross-sectional ranks. Two firms carry
special content: AAPL's calls are full of generic keyword noise ("year",
"units") and NVDA's mention qualified revenue lines ("Data Center
revenue") whose qualifiers only the recorded extractor responses keep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from movingtargets import corpus, extract
from movingtargets.embed import EmbeddingCache, EmbeddingVector

FIRMS = ["AAPL", "NVDA", "OMNI", "BRLT", "CRGO", "DELV", "EPSL", "FLNT"]

EXTRACTOR_MODEL = "fixture-recorder"
ENCODER_MODEL = "fixture-hash"
ENCODER_DIM = 64

# Stable "core" targets the recorded extractor keeps emitting for a firm.
CORE_TARGETS = [
    "Gross margin",
    "Free cash flow",
    "Market share",
    "Revenue growth",
    "Dividend policy",
    "Order backlog",
    "Operating margin",
    "Customer demand",
    "Share repurchases",
    "Pricing power",
    "Net bookings",
    "Unit economics",
]

# Rotating targets are quarter-specific: a per-quarter codeword keeps them
# from ever matching across quarters.
QUARTER_CODEWORDS = [
    "alder", "birch", "cedar", "dogwood", "elder", "fir", "ginkgo", "hazel",
    "ivy", "juniper", "katsura", "larch", "maple", "nutmeg", "oak", "pine",
    "quince", "rowan", "spruce", "tupelo", "umbrella", "viburnum", "willow", "yew",
]
ROTATING_SLOTS = [
    "conversion", "engagement", "adoption", "expansion",
    "efficiency", "productivity", "retention", "penetration",
]

# Keyword pools for the transcript prose the baseline extractor scans.
# Core keywords recur every quarter; rotating ones cycle two slots per
# quarter over a 16-word pool, so the windows at lag 4 never overlap.
BASE_CORE_KEYWORDS = [
    "revenue", "margin", "earnings", "dividend",
    "backlog", "pricing", "demand", "guidance",
]
BASE_ROTATE_KEYWORDS = [
    "sales", "growth", "bookings", "income", "costs", "expenses",
    "capex", "volume", "utilization", "cash", "profitability", "buybacks",
    "shares", "quarter", "dividends", "margins",
]

# Per-firm (core count, rotating window): chosen so every firm's missing
# fraction is a distinct constant and all five quintiles stay populated.
BASELINE_CORE_COUNTS = [3, 4, 5, 6, 4, 3, 4, 3]
BASELINE_WINDOWS = [1, 2, 3, 5, 5, 6, 7, 8]

TARGETS_PER_CALL = 10


class HashingEncoderClient:
    """Deterministic local encoder: unit vectors seeded by the label text.

    No semantic content; identical texts map to identical vectors and
    distinct texts to near-orthogonal ones, which is enough for offline
    fixtures and plumbing tests.
    """

    def __init__(self, model_id: str = "hash-v1", dim: int = 256) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.model_id = model_id
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        vectors = []
        for text in texts:
            digest = hashlib.sha256(f"{self.model_id}\n{text}".encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
            raw = np.random.default_rng(seed).standard_normal(self.dim)
            unit = raw / float(np.linalg.norm(raw))
            vectors.append(EmbeddingVector(tuple(float(v) for v in unit), self.model_id))
        return vectors


@dataclass(frozen=True)
class CorpusPaths:
    root: Path
    config_file: Path
    transcripts_dir: Path
    recordings_dir: Path
    cache_dir: Path
    returns_file: Path
    factors_file: Path
    firms: tuple[str, ...]
    periods: tuple[corpus.YearQuarter, ...]


def _periods(start_year: int, n_quarters: int) -> list[corpus.YearQuarter]:
    start = corpus.YearQuarter(start_year, 1)
    return [corpus.shift_quarters(start, k) for k in range(n_quarters)]


def _llm_targets(firm_idx: int, quarter_idx: int) -> tuple[list[str], list[str]]:
    """(presentation targets, q&a targets) the recorded response will list."""

    core_count = min(2 + firm_idx, TARGETS_PER_CALL - 1)
    core = CORE_TARGETS[:core_count]
    codeword = QUARTER_CODEWORDS[quarter_idx % len(QUARTER_CODEWORDS)]
    rotating = [
        f"{codeword} {slot} index".capitalize()
        for slot in ROTATING_SLOTS[: TARGETS_PER_CALL - core_count]
    ]
    if firm_idx == 1:  # NVDA keeps its qualified revenue lines in every call
        core = ["Quarterly Data Center revenue", "Quarterly Compute revenue growth"] + core
        rotating = rotating[: max(0, TARGETS_PER_CALL - len(core))]
    return core, rotating


def _baseline_keywords(firm_idx: int, quarter_idx: int) -> tuple[list[str], list[str]]:
    """(persistent keywords, rotating keywords) to weave into the prose."""

    core = BASE_CORE_KEYWORDS[: BASELINE_CORE_COUNTS[firm_idx]]
    window = BASELINE_WINDOWS[firm_idx]
    offset = (quarter_idx * 2) % len(BASE_ROTATE_KEYWORDS)
    rotating = [
        BASE_ROTATE_KEYWORDS[(offset + j) % len(BASE_ROTATE_KEYWORDS)] for j in range(window)
    ]
    return core, rotating


def _sentence(keyword: str) -> str:
    return f"We remain focused on {keyword} across the business."


def _transcript_doc(firm: str, firm_idx: int, period: corpus.YearQuarter, quarter_idx: int) -> dict:
    core_kw, rotating_kw = _baseline_keywords(firm_idx, quarter_idx)
    codeword = QUARTER_CODEWORDS[quarter_idx % len(QUARTER_CODEWORDS)]
    opening = [
        f"Good afternoon and welcome to the {firm} earnings conference call.",
        f"Management will walk through the {codeword} program update and then take questions.",
    ]
    if firm_idx == 0:  # AAPL-flavored generic noise
        opening.append(
            "It was a strong close to the year with record iPhone units shipped, "
            "up meaningfully year over year."
        )
    if firm_idx == 1:  # NVDA-flavored qualified revenue lines
        opening.append(
            "Data Center revenue reached another record and Compute revenue "
            "continued to outgrow the platform."
        )
    opening.extend(_sentence(kw) for kw in core_kw)

    detail = ["Turning to the outlook, trends remained broadly healthy."]
    detail.extend(_sentence(kw) for kw in rotating_kw)

    question = (
        "Thanks for taking the question. Could you talk about the drivers of "
        f"{core_kw[0]} and how durable they are?"
    )
    answer = (
        f"Sure. The {core_kw[0]} trajectory reflects execution, and we expect "
        "the same discipline going forward."
    )

    utterances = [
        {"index": 0, "speaker": "Jordan Reyes - Executives", "text": " ".join(opening)},
        {"index": 1, "speaker": "Sam Whitfield - Executives", "text": " ".join(detail)},
        {
            "index": 2,
            "speaker": "Operator",
            "text": "[Operator Instructions] We will now begin the question-and-answer session.",
        },
        {"index": 3, "speaker": "Casey Lin - Analysts", "text": question},
        {"index": 4, "speaker": "Jordan Reyes - Executives", "text": answer},
    ]
    return {
        "firm": firm,
        "year": period.year,
        "quarter": period.quarter,
        "utterances": utterances,
    }


def _response_doc(firm_idx: int, quarter_idx: int) -> dict:
    presentation_targets, qa_targets = _llm_targets(firm_idx, quarter_idx)
    presentation = [
        {"target": target, "index": i % 2} for i, target in enumerate(presentation_targets)
    ]
    analyst_qa = [
        {"target": target, "index": 3 + i % 2} for i, target in enumerate(qa_targets)
    ]
    if firm_idx == 0:
        # Deliberately rule-violating items to exercise the drop tally.
        presentation.append({"target": "revenue up 15%", "index": 1})
        presentation.append({"target": "the 5 handset lineup", "index": 0})
    return {"presentation": presentation, "analyst_qa": analyst_qa}


def build_corpus(
    root: Path,
    *,
    n_firms: int = 3,
    n_quarters: int = 8,
    start_year: int = 2019,
    seed: int = 7,
) -> CorpusPaths:
    if not 1 <= n_firms <= len(FIRMS):
        raise ValueError(f"n_firms must be in 1..{len(FIRMS)}")
    if n_quarters > len(QUARTER_CODEWORDS):
        raise ValueError("n_quarters exceeds the codeword pool")
    unknown = (set(BASE_CORE_KEYWORDS) | set(BASE_ROTATE_KEYWORDS)) - extract.BASELINE_KEYWORDS
    if unknown:
        raise ValueError(f"fixture keywords outside the baseline lexicon: {sorted(unknown)}")

    root = Path(root)
    transcripts_dir = root / "transcripts"
    recordings_dir = root / "recordings"
    cache_dir = root / "embedding_cache"
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    recordings_dir.mkdir(parents=True, exist_ok=True)

    firms = FIRMS[:n_firms]
    periods = _periods(start_year, n_quarters)
    cache = EmbeddingCache(cache_dir)
    encoder = HashingEncoderClient(model_id=ENCODER_MODEL, dim=ENCODER_DIM)

    labels_to_cache: set[str] = set()
    for firm_idx, firm in enumerate(firms):
        for quarter_idx, period in enumerate(periods):
            doc = _transcript_doc(firm, firm_idx, period, quarter_idx)
            path = transcripts_dir / f"{firm}_{period.year:04d}Q{period.quarter}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

            transcript = corpus.load_transcript(path)
            prompt = extract.build_extraction_prompt(transcript)
            response = json.dumps(_response_doc(firm_idx, quarter_idx), indent=2)
            key = extract.RecordingStore.key(EXTRACTOR_MODEL, prompt)
            (recordings_dir / f"{key}.txt").write_text(response, encoding="utf-8")

            parsed = extract.parse_extraction_response(
                response, len(transcript), firm=firm, period=period
            )
            labels_to_cache.update(extract.merged_texts(parsed.target_set))

    for label in sorted(labels_to_cache):
        (vector,) = encoder.embed([label])
        cache.put(vector, label)

    first_month = corpus.Month(start_year, 1)
    last_call = corpus.call_month(periods[-1])
    months = []
    month = first_month
    while month <= last_call.shift(6):
        months.append(month)
        month = month.shift(1)

    rng = np.random.default_rng(seed)
    with (root / "returns.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("firm,month,ret,mktcap,bm\n")
        for firm_idx, firm in enumerate(firms):
            level = float(rng.uniform(8.0, 12.0))
            for month in months:
                ret = float(np.clip(rng.normal(0.01, 0.04), -0.5, 0.6))
                level += float(rng.normal(0.0, 0.05))
                mktcap = float(np.exp(level))
                bm = float(np.exp(rng.normal(-0.5, 0.3)))
                handle.write(f"{firm},{month},{ret:.6f},{mktcap:.2f},{bm:.4f}\n")

    with (root / "factors.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("month,mkt_rf,smb,hml,mom,liq,rf\n")
        for month in months:
            mkt_rf = float(rng.normal(0.005, 0.03))
            smb, hml, mom, liq = (float(rng.normal(0.0, 0.02)) for _ in range(4))
            rf = 0.0002 + float(abs(rng.normal(0.0, 0.0002)))
            handle.write(
                f"{month},{mkt_rf:.6f},{smb:.6f},{hml:.6f},{mom:.6f},{liq:.6f},{rf:.6f}\n"
            )

    config_doc = {
        "transcripts_dir": "transcripts",
        "returns_file": "returns.csv",
        "factors_file": "factors.csv",
        "out_dir": "out",
        "tau": 0.65,
        "offline": True,
        "extractor": {
            "model_id": EXTRACTOR_MODEL,
            "recordings_dir": "recordings",
            "parallelism": 2,
        },
        "encoder": {
            "model_id": ENCODER_MODEL,
            "cache_dir": "embedding_cache",
        },
    }
    config_file = root / "config.yaml"
    config_file.write_text(yaml.safe_dump(config_doc, sort_keys=True), encoding="utf-8")

    return CorpusPaths(
        root=root,
        config_file=config_file,
        transcripts_dir=transcripts_dir,
        recordings_dir=recordings_dir,
        cache_dir=cache_dir,
        returns_file=root / "returns.csv",
        factors_file=root / "factors.csv",
        firms=tuple(firms),
        periods=tuple(periods),
    )


def cache_entry_vector(cache_dir: Path, label: str, model_id: str = ENCODER_MODEL) -> bytes:
    """The float64 bytes of the binary cache entry of (``model_id``, ``label``)."""

    header = f"{model_id}\n{label}\n".encode("utf-8")
    data = (cache_dir / f"{EmbeddingCache.key(model_id, label)}.f64").read_bytes()
    assert data.startswith(header)
    return data[len(header) :]


def write_cache_entry(
    cache_dir: Path, label: str, vector: bytes | str, model_id: str = ENCODER_MODEL
) -> Path:
    """Replace the cache entry of (``model_id``, ``label``) and return its path.

    ``vector`` as bytes becomes the body of a binary ``.f64`` entry; as text,
    the vector line of a legacy ``.txt`` entry, with the ``.f64`` entry removed.
    """

    key = EmbeddingCache.key(model_id, label)
    header = f"{model_id}\n{label}\n"
    binary = cache_dir / f"{key}.f64"
    if isinstance(vector, bytes):
        binary.write_bytes(header.encode("utf-8") + vector)
        return binary
    binary.unlink(missing_ok=True)
    legacy = cache_dir / f"{key}.txt"
    legacy.write_text(f"{header}{vector}\n", encoding="utf-8")
    return legacy


def float_reprs(vector: bytes) -> str:
    """The vector line of a legacy text entry: space-separated float reprs."""

    return " ".join(map(repr, np.frombuffer(vector, "<f8").tolist()))


def to_legacy_cache(cache_dir: Path) -> int:
    """Rewrite every binary entry under ``cache_dir`` as a legacy text entry; returns the count."""

    entries = sorted(cache_dir.glob("*.f64"))
    for path in entries:
        model_id, label, _ = path.read_bytes().split(b"\n", 2)
        label = label.decode("utf-8")
        model_id = model_id.decode("utf-8")
        vector = cache_entry_vector(cache_dir, label, model_id)
        write_cache_entry(cache_dir, label, float_reprs(vector), model_id)
    return len(entries)
