"""Seeded synthetic corpus for the pipeline benchmark.

Writes a complete pipeline input under one directory, in the formats the
README documents, without going through the program's own writers:

    transcripts/<FIRM>_<YYYY>Q<q>.json   one call per firm-quarter
    recordings/<sha256>.txt             extractor responses, keyed by the
                                        SHA-256 of model_id + "\\n" + prompt
    embedding_cache/<sha256>.txt        legacy text cache (warm corpora)
    stub_vectors.npy, stub_labels.txt   vectors the localhost stub serves
                                        (cold corpora)
    returns.csv, factors.csv

Firm names, codewords and labels are made of lowercase letters only, so no
label trips the digit/percent/currency rules and every generated target
survives extraction. Labels are drawn from a Zipf-distributed vocabulary,
each used at least once; each firm keeps a fixed core of targets and draws
the rest afresh every quarter, so drift scores differ across firms. A label's vector is its head
noun's vector plus label-specific noise, so labels that share a noun sit
above the default cutoff and the semantic and discrete scores disagree.

Two builds with the same arguments are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from movingtargets import corpus, extract

EXTRACTOR_MODEL = "bench-recorder"
ENCODER_MODEL = "bench-encoder"
START_YEAR = 2005
EXTRACTOR_PARALLELISM = 1
ENCODER_BATCH_SIZE = 128

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Labels are spoken in the transcripts; a baseline keyword inside one would
# change what the keyword baseline extracts.
_RESERVED = extract.BASELINE_KEYWORDS
_NOISE_SCALE = 0.5
_ZIPF_EXPONENT = 1.1
QUANTUM_BITS = 16

_EXEC_A = "Robin Vale - Executives"
_EXEC_B = "Morgan Hale - Executives"
_ANALYST = "Casey Lund - Analysts"
_OPERATOR = "Operator"


@dataclass(frozen=True)
class CorpusSpec:
    firms: int
    quarters: int
    vocabulary: int
    targets_per_call: int
    dim: int
    seed: int
    warm_cache: bool = True
    # Firms in the returns file; those beyond ``firms`` hold no calls, as in
    # a CRSP-wide returns table joined to a smaller transcript sample.
    universe: int = 0


@dataclass(frozen=True)
class GeneratedCorpus:
    transcripts: int
    unique_labels: int


def _words(rng: np.random.Generator, count: int, syllables: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        picks = rng.integers(0, len(_CONSONANTS) * len(_VOWELS), size=syllables)
        word = "".join(_CONSONANTS[p // len(_VOWELS)] + _VOWELS[p % len(_VOWELS)] for p in picks)
        if word in taken or word in _RESERVED:
            continue
        taken.add(word)
        words.append(word)
    return words


def _vocabulary(rng: np.random.Generator, size: int) -> tuple[list[str], np.ndarray]:
    """``size`` distinct two-word labels and the index of each label's noun."""

    taken: set[str] = set()
    nouns = _words(rng, max(4, size // 8), 3, taken)
    modifiers = _words(rng, max(4, size // 2), 2, taken)
    labels: list[str] = []
    noun_of: list[int] = []
    seen: set[str] = set()
    while len(labels) < size:
        m = int(rng.integers(len(modifiers)))
        n = int(rng.integers(len(nouns)))
        label = f"{modifiers[m]} {nouns[n]}"
        if label in seen:
            continue
        seen.add(label)
        labels.append(label)
        noun_of.append(n)
    return labels, np.asarray(noun_of)


def _label_vectors(rng: np.random.Generator, noun_of: np.ndarray, dim: int) -> np.ndarray:
    """Label vectors as integer multiples of ``2**-QUANTUM_BITS``.

    Few distinct values keep the float reprs cheap to write (see
    ``vector_texts``) without visibly moving any cosine.
    """

    nouns = rng.standard_normal((int(noun_of.max()) + 1, dim))
    nouns /= np.linalg.norm(nouns, axis=1, keepdims=True)
    noise = rng.standard_normal((len(noun_of), dim))
    noise *= _NOISE_SCALE / np.linalg.norm(noise, axis=1, keepdims=True)
    return np.rint((nouns[noun_of] + noise) * 2.0**QUANTUM_BITS) / 2.0**QUANTUM_BITS


def vector_texts(vectors: np.ndarray, sep: str = " ") -> list[str]:
    """Each row as ``sep``-separated float reprs (the cache's line 3 by default).

    ``repr`` runs once per distinct value rather than once per component.
    """

    values, inverse = np.unique(vectors, return_inverse=True)
    reprs = np.array([repr(v) for v in values.tolist()], dtype=object)
    return [sep.join(reprs[row]) for row in inverse.reshape(vectors.shape)]


def _draw(rng: np.random.Generator, probs: np.ndarray, count: int, exclude: set[int]) -> list[int]:
    picked: list[int] = []
    chosen = set(exclude)
    while len(picked) < count:
        for index in rng.choice(len(probs), size=2 * count, p=probs):
            index = int(index)
            if index not in chosen:
                chosen.add(index)
                picked.append(index)
                if len(picked) == count:
                    break
    return picked


def _sentence(label: str) -> str:
    return f"We continued to report on {label} this period."


def _keyword_sentence(keyword: str) -> str:
    return f"We remain focused on {keyword} across the business."


def _transcript(
    firm: str, period: corpus.YearQuarter, codeword: str, presentation: list[str],
    qa: list[str], keywords: list[str],
) -> dict:
    half = len(keywords) // 2
    utterances = [
        (_EXEC_A, " ".join(
            [f"Good afternoon and welcome to the {firm} earnings call.",
             f"We will cover the {codeword} program and then take questions."]
            + [_sentence(label) for label in presentation[::2]]
            + [_keyword_sentence(kw) for kw in keywords[:half]]
        )),
        (_EXEC_B, " ".join(
            ["Turning to the outlook, trends remained broadly healthy."]
            + [_sentence(label) for label in presentation[1::2]]
            + [_keyword_sentence(kw) for kw in keywords[half:]]
        )),
        (_OPERATOR, "[Operator Instructions] We will now begin the question-and-answer session."),
    ]
    for i in range(0, len(qa), 2):
        pair = qa[i : i + 2]
        utterances.append(
            (_ANALYST, "Thanks for taking the question. Could you talk about "
             + " and ".join(pair) + " and how durable they are?")
        )
        utterances.append(
            (_EXEC_A, "Sure. " + " ".join(_sentence(label) for label in pair))
        )
    return {
        "firm": firm,
        "year": period.year,
        "quarter": period.quarter,
        "utterances": [
            {"index": i, "speaker": speaker, "text": text}
            for i, (speaker, text) in enumerate(utterances)
        ],
    }


def _as_transcript(doc: dict) -> corpus.Transcript:
    roles = {_EXEC_A: corpus.ROLE_EXECUTIVE, _EXEC_B: corpus.ROLE_EXECUTIVE,
             _ANALYST: corpus.ROLE_ANALYST, _OPERATOR: corpus.ROLE_OPERATOR}
    return corpus.Transcript(
        firm=doc["firm"],
        period=corpus.YearQuarter(doc["year"], doc["quarter"]),
        utterances=tuple(
            corpus.Utterance(u["index"], u["speaker"], roles[u["speaker"]], u["text"])
            for u in doc["utterances"]
        ),
    )


def _response(presentation: list[str], qa: list[str]) -> str:
    doc = {
        "presentation": [{"target": label, "index": i % 2} for i, label in enumerate(presentation)],
        "analyst_qa": [{"target": label, "index": 3 + (i // 2) * 2} for i, label in enumerate(qa)],
    }
    return json.dumps(doc)


def _months(periods: list[corpus.YearQuarter]) -> list[corpus.Month]:
    last = corpus.call_month(periods[-1]).shift(6)
    month = corpus.Month(periods[0].year, 1)
    months = []
    while month <= last:
        months.append(month)
        month = month.shift(1)
    return months


def build(root: Path, spec: CorpusSpec) -> GeneratedCorpus:
    """Write the corpus for ``spec`` under ``root``, replacing what is there."""

    calls = spec.firms * spec.quarters
    if spec.targets_per_call < 2 or spec.vocabulary < 4 * spec.targets_per_call:
        raise ValueError("vocabulary must hold at least four calls' worth of targets")
    if -(-spec.vocabulary // calls) > spec.targets_per_call // 4:
        raise ValueError("vocabulary too large to place every label in the calls")
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    for sub in ("transcripts", "recordings"):
        (root / sub).mkdir(parents=True)

    rng = np.random.default_rng(spec.seed)
    labels, noun_of = _vocabulary(rng, spec.vocabulary)
    vectors = _label_vectors(rng, noun_of, spec.dim)
    ranks = np.arange(1, spec.vocabulary + 1, dtype=float)
    probs = ranks ** -_ZIPF_EXPONENT
    probs /= probs.sum()

    taken: set[str] = set()
    listed = [w.upper() for w in _words(rng, max(spec.firms, spec.universe), 2, taken)]
    firms = listed[: spec.firms]
    codewords = _words(rng, spec.quarters, 3, taken)
    start = corpus.YearQuarter(START_YEAR, 1)
    periods = [corpus.shift_quarters(start, k) for k in range(spec.quarters)]
    # Bare, "our" and "the" forms are distinct baseline labels; the wider pool
    # spreads the discrete scores so that every quintile stays populated.
    keywords = [
        f"{det}{kw}" for kw in sorted(extract.BASELINE_KEYWORDS) for det in ("", "our ", "the ")
    ]

    used: set[int] = set()
    t = spec.targets_per_call
    # Every label is placed in some call once before the Zipf draws fill the
    # rest, so a corpus uses exactly ``vocabulary`` labels whatever the seed.
    unplaced = [int(i) for i in rng.permutation(spec.vocabulary)]
    quota = -(-spec.vocabulary // calls)
    for firm_index, firm in enumerate(firms):
        core = _draw(rng, probs, t // 4 + firm_index % (t // 2 + 1), set())
        core_keywords = list(rng.choice(keywords, size=int(rng.integers(2, 13)), replace=False))
        for period, codeword in zip(periods, codewords):
            fresh = [i for i in unplaced[:quota] if i not in core]
            del unplaced[:quota]
            picked = core + fresh + _draw(rng, probs, t - len(core) - len(fresh), set(core + fresh))
            used.update(picked)
            order = [labels[i] for i in rng.permutation(picked)]
            presentation, qa = order[: t // 2], order[t // 2 :]
            rest = [k for k in keywords if k not in core_keywords]
            rotating = list(rng.choice(rest, size=int(rng.integers(1, 13)), replace=False))
            doc = _transcript(firm, period, codeword, presentation, qa, core_keywords + rotating)
            name = f"{firm}_{period.year:04d}Q{period.quarter}"
            (root / "transcripts" / f"{name}.json").write_text(
                json.dumps(doc) + "\n", encoding="utf-8"
            )
            prompt = extract.build_extraction_prompt(_as_transcript(doc))
            key = hashlib.sha256(f"{EXTRACTOR_MODEL}\n{prompt}".encode("utf-8")).hexdigest()
            (root / "recordings" / f"{key}.txt").write_text(
                _response(presentation, qa), encoding="utf-8"
            )

    ordered = sorted(used, key=lambda i: labels[i])
    if spec.warm_cache:
        cache = root / "embedding_cache"
        cache.mkdir()
        for i, body in zip(ordered, vector_texts(vectors[ordered])):
            key = hashlib.sha256(f"{ENCODER_MODEL}\n{labels[i]}".encode("utf-8")).hexdigest()
            (cache / f"{key}.txt").write_text(
                f"{ENCODER_MODEL}\n{labels[i]}\n{body}\n", encoding="utf-8"
            )
    else:
        np.save(root / "stub_vectors.npy", vectors[ordered])
        (root / "stub_labels.txt").write_text(
            "".join(labels[i] + "\n" for i in ordered), encoding="utf-8"
        )

    months = _months(periods)
    with (root / "returns.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("firm,month,ret,mktcap,bm\n")
        for firm in sorted(listed):
            rets = np.clip(rng.normal(0.01, 0.04, len(months)), -0.5, 0.6)
            levels = rng.uniform(8.0, 12.0) + np.cumsum(rng.normal(0.0, 0.05, len(months)))
            bms = np.exp(rng.normal(-0.5, 0.3, len(months)))
            for month, ret, level, bm in zip(months, rets, levels, bms):
                handle.write(f"{firm},{month},{ret:.6f},{np.exp(level):.2f},{bm:.4f}\n")

    with (root / "factors.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("month,mkt_rf,smb,hml,mom,liq,rf\n")
        draws = rng.normal(0.0, 0.02, (len(months), 6))
        for month, row in zip(months, draws):
            mkt_rf = 0.005 + 1.5 * row[0]
            rf = 0.0002 + abs(row[5]) / 100.0
            handle.write(
                f"{month},{mkt_rf:.6f},{row[1]:.6f},{row[2]:.6f},{row[3]:.6f},"
                f"{row[4]:.6f},{rf:.6f}\n"
            )

    return GeneratedCorpus(transcripts=calls, unique_labels=len(used))


def write_config(
    root: Path,
    out_dir: Path,
    *,
    endpoint: str | None = None,
    cache_dir: Path = Path("embedding_cache"),
) -> Path:
    """Run configuration for a built corpus; ``endpoint`` makes it online.

    ``endpoint`` is a base URL such as ``http://127.0.0.1:8080``; the
    chat-completion and embedding paths are appended to it. Relative
    ``out_dir`` and ``cache_dir`` resolve against ``root``.
    """

    doc: dict = {
        "transcripts_dir": "transcripts",
        "returns_file": "returns.csv",
        "factors_file": "factors.csv",
        "out_dir": str(out_dir),
        "tau": 0.65,
        "offline": endpoint is None,
        "extractor": {
            "model_id": EXTRACTOR_MODEL,
            "recordings_dir": "recordings",
            "parallelism": EXTRACTOR_PARALLELISM,
        },
        "encoder": {
            "model_id": ENCODER_MODEL,
            "cache_dir": str(cache_dir),
            "batch_size": ENCODER_BATCH_SIZE,
        },
    }
    if endpoint is not None:
        doc["extractor"]["endpoint"] = f"{endpoint}/v1/chat/completions"
        doc["encoder"]["endpoint"] = f"{endpoint}/v1/embeddings"
    path = Path(root) / "config.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path
