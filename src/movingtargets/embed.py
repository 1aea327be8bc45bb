"""Label embeddings: pluggable encoder clients and a file cache.

Vectors are stored exactly as delivered (no pre-normalization); ``score``
stacks the vectors of one model into a matrix and scales each row once. The
cache holds one plain-text file per (model, label) key so cached vectors can
be audited and replayed offline; write-then-read returns bit-identical
values, and an entry that does not parse into a valid vector is reported as
corrupt.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np
import requests


class EmbeddingError(Exception):
    """Base class for embedding failures."""


class EncoderTransportError(EmbeddingError):
    """Transport-level failure while calling the encoder endpoint."""


class DimensionMismatchError(EmbeddingError):
    """Vectors for one model disagree on dimension."""


class MissingEmbeddingError(EmbeddingError):
    """Offline mode found labels with no cached vector."""


@dataclass(frozen=True)
class EmbeddingVector:
    """Dense embedding of one label, tagged with its encoder model."""

    values: tuple[float, ...]
    model_id: str

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("embedding vector must be non-empty")
        if all(v == 0.0 for v in self.values):
            raise ValueError("embedding vector must not be all-zero")

    @property
    def dim(self) -> int:
        return len(self.values)


class EncoderClient(Protocol):
    """Batch text encoder; output order matches input order."""

    model_id: str

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


class EmbeddingCache:
    """One file per (model, label) key under a root directory.

    File layout: model id on line 1, the label on line 2, and the vector as
    space-separated float reprs on line 3. Reads are lock-free; writes are
    serialized and atomic.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._write_lock = threading.Lock()

    @staticmethod
    def key(model_id: str, label: str) -> str:
        return hashlib.sha256(f"{model_id}\n{label}".encode("utf-8")).hexdigest()

    def _path(self, model_id: str, label: str) -> Path:
        return self.root / f"{self.key(model_id, label)}.txt"

    def get(self, model_id: str, label: str) -> EmbeddingVector | None:
        path = self._path(model_id, label)
        if not path.is_file():
            return None
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) != 3 or lines[0] != model_id or lines[1] != label:
            raise EmbeddingError(f"corrupt cache entry {path}")
        try:
            return EmbeddingVector(values=tuple(map(float, lines[2].split())), model_id=model_id)
        except ValueError as exc:
            raise EmbeddingError(f"corrupt cache entry {path}: {exc}") from exc

    def put(self, vector: EmbeddingVector, label: str) -> None:
        with self._write_lock:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(vector.model_id, label)
            body = "\n".join(
                [vector.model_id, label, " ".join(repr(v) for v in vector.values)]
            )
            # The lock serializes one process only, so the temp name is per process.
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(body + "\n", encoding="utf-8")
            os.replace(tmp, path)


class HttpEncoderClient:
    """Minimal embeddings transport against an OpenAI-style endpoint."""

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key: str | None = None,
        *,
        timeout: float = 120.0,
        max_attempts: int = 3,
        session: requests.Session | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.model_id = model_id
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.session = session or requests.Session()

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        last_error: Exception | None = None
        for _ in range(self.max_attempts):
            try:
                return self._embed_once(texts)
            except EncoderTransportError as exc:
                last_error = exc
        raise EncoderTransportError(
            f"encoder transport failed after {self.max_attempts} attempts"
        ) from last_error

    def _embed_once(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"model": self.model_id, "input": list(texts)}
        try:
            response = self.session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise EncoderTransportError(f"encoder request failed: {exc}") from exc
        if response.status_code >= 500:
            raise EncoderTransportError(f"encoder endpoint returned {response.status_code}")
        if response.status_code != 200:
            raise EmbeddingError(
                f"encoder endpoint returned {response.status_code}: {response.text[:200]}"
            )
        try:
            items = sorted(response.json()["data"], key=lambda item: item["index"])
            vectors = [
                EmbeddingVector(tuple(float(v) for v in item["embedding"]), self.model_id)
                for item in items
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"unexpected embeddings payload: {exc}") from exc
        if len(vectors) != len(texts):
            raise EmbeddingError(
                f"encoder returned {len(vectors)} vectors for {len(texts)} inputs"
            )
        return vectors


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


def _chunks(items: Sequence[str], size: int) -> Iterable[Sequence[str]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def embed_labels(
    labels: Sequence[str],
    client: EncoderClient | None,
    cache: EmbeddingCache,
    *,
    model_id: str | None = None,
    batch_size: int = 128,
) -> list[EmbeddingVector]:
    """Embed labels through the cache; misses are batched to the client.

    Output order matches input order. With ``client=None`` (offline mode)
    every label must already be cached. ``model_id`` defaults to the
    client's model and must be given when running offline.
    """

    if model_id is None:
        if client is None:
            raise ValueError("model_id is required when no client is configured")
        model_id = client.model_id
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    for label in labels:
        if not label:
            raise ValueError("labels must be non-empty strings")

    expected_dim: int | None = None

    def check_dim(vector: EmbeddingVector) -> EmbeddingVector:
        nonlocal expected_dim
        if expected_dim is None:
            expected_dim = vector.dim
        elif vector.dim != expected_dim:
            raise DimensionMismatchError(
                f"dimension mismatch for model {model_id!r}: "
                f"{vector.dim} vs {expected_dim}"
            )
        return vector

    resolved: dict[str, EmbeddingVector] = {}
    missing: list[str] = []
    for label in dict.fromkeys(labels):
        cached = cache.get(model_id, label)
        if cached is None:
            missing.append(label)
        else:
            resolved[label] = check_dim(cached)

    if missing:
        if client is None:
            preview = ", ".join(repr(m) for m in missing[:5])
            raise MissingEmbeddingError(
                f"{len(missing)} labels have no cached vector for model "
                f"{model_id!r} (e.g. {preview})"
            )
        for batch in _chunks(missing, batch_size):
            vectors = client.embed(batch)
            if len(vectors) != len(batch):
                raise EmbeddingError(
                    f"encoder returned {len(vectors)} vectors for {len(batch)} labels"
                )
            for label, vector in zip(batch, vectors):
                if vector.model_id != model_id:
                    raise EmbeddingError(
                        f"encoder returned model {vector.model_id!r}, expected {model_id!r}"
                    )
                check_dim(vector)
                cache.put(vector, label)
                resolved[label] = vector

    return [resolved[label] for label in labels]
