"""Label embeddings: encoder clients, a file cache and the one vector check.

Vectors are stored exactly as delivered (no pre-normalization). Each one is
held as a read-only float64 row, from the cache, or from the encoder's reply
as it is parsed, into ``unit_rows``, the only rule for a usable vector: one dimension per model
and a finite, non-zero row norm. ``embed_labels`` runs it on every fresh
encoder batch before anything is cached, and ``score`` runs it on the
stacked vocabulary of one model, whose rows it scales to unit norm once.
The cache holds one file per (model, label) key so cached vectors can be
audited and replayed offline: two text lines naming the model and the
label, then the vector as raw little-endian float64 bytes. Write-then-read
returns bit-identical values. A legacy plain-text entry is parsed once: the
first read writes its vector, if usable, as a binary entry beside it, which
later reads take. An entry of either form that does not decode into a
vector of its key is reported as corrupt.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Protocol, Sequence

import numpy as np

from . import fileio
from .transport import JsonEndpointClient, with_retries


class EmbeddingError(Exception):
    """Base class for embedding failures."""


class EncoderTransportError(EmbeddingError):
    """Transport-level failure while calling the encoder endpoint."""


class DimensionMismatchError(EmbeddingError):
    """Vectors for one model disagree on dimension."""


class MissingEmbeddingError(EmbeddingError):
    """Offline mode found labels with no cached vector."""


class NormError(EmbeddingError):
    """Row ``row`` of a stacked set of vectors has a zero or non-finite norm."""

    def __init__(self, row: int, count: int, norm: float) -> None:
        super().__init__(f"embedding vector {row} of {count} has norm {norm}")
        self.row = row


class EmbeddingVector:
    """Dense embedding of one label, tagged with its encoder model.

    The components are held once, as ``row``: a read-only one-dimensional
    float64 array. A read-only float64 array is held as given; any other
    sequence of numbers is copied into one. ``values`` gives the same bits
    as a tuple of floats.
    """

    __slots__ = ("row", "model_id")

    def __init__(self, values: Sequence[float] | np.ndarray, model_id: str) -> None:
        row = values
        if not (
            isinstance(row, np.ndarray) and row.dtype == np.float64 and not row.flags.writeable
        ):
            row = np.array(values, dtype=np.float64)
            row.flags.writeable = False
        if row.ndim != 1 or row.size == 0:
            raise ValueError("embedding vector must be a non-empty row of numbers")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "model_id", model_id)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an EmbeddingVector")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.row.tolist())

    @property
    def dim(self) -> int:
        return self.row.shape[0]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # The identity test keeps a vector holding a NaN equal to itself.
        return self is other or (
            self.model_id == other.model_id and np.array_equal(self.row, other.row)
        )

    def __hash__(self) -> int:
        return hash((self.values, self.model_id))

    def __repr__(self) -> str:
        return f"EmbeddingVector(values={self.values!r}, model_id={self.model_id!r})"


class EncoderClient(Protocol):
    """Batch text encoder; output order matches input order."""

    model_id: str

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


def unit_rows(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Stack ``vectors`` into one float64 matrix whose rows have unit norm.

    Each row's norm is reduced on its own, so no temporary the size of the
    matrix is made; a row's norm has the same bits as in a norm taken over
    the rows of any set that holds it. Raises ``DimensionMismatchError`` for
    vectors of different lengths and ``NormError`` for a zero or non-finite
    norm.
    """

    dims = {v.dim for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"dimension mismatch: vectors of lengths {sorted(dims)}")
    matrix = np.empty((len(vectors), dims.pop() if dims else 0))
    norms = np.empty((len(vectors), 1))
    # A norm that overflows is rejected below as not finite.
    with np.errstate(over="ignore"):
        for i, vector in enumerate(vectors):
            matrix[i] = vector.row
            norms[i] = np.linalg.norm(matrix[i : i + 1], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        i = int(bad[0])
        raise NormError(i, len(vectors), float(norms[i, 0]))
    matrix /= norms
    return matrix


class EmbeddingCache(fileio.KeyedFiles):
    """Entries ``<key>.f64``: the model id line, the label line, then the vector's float64 bytes.

    A legacy ``<key>.txt`` entry holds the same two lines and a third with the
    vector as space-separated float reprs. ``get`` reads it when no ``.f64``
    entry exists and, if ``unit_rows`` accepts its vector, writes the same
    bits as the ``.f64`` entry through ``put``; the ``.txt`` entry is kept.
    ``put`` writes only ``.f64``.
    """

    suffix = ".f64"

    @staticmethod
    def _header(model_id: str, label: str) -> bytes:
        return f"{model_id}\n{label}\n".encode("utf-8")

    def get(self, model_id: str, label: str) -> EmbeddingVector | None:
        path = self.path(model_id, label)
        try:
            if path.is_file():
                data = path.read_bytes()
                header = self._header(model_id, label)
                if not data.startswith(header):
                    raise ValueError("not the model id and label lines of this key")
                size = len(data) - len(header)
                if size == 0 or size % 8:
                    raise ValueError(f"a vector of {size} bytes, not a positive multiple of 8")
                return EmbeddingVector(np.frombuffer(data, "<f8", offset=len(header)), model_id)
            path = self.path(model_id, label, ".txt")
            if not path.is_file():
                return None
            lines = path.read_text(encoding="utf-8").splitlines()
            if len(lines) != 3 or lines[0] != model_id or lines[1] != label:
                raise ValueError("not the model id, label and vector lines of this key")
            vector = EmbeddingVector(tuple(map(float, lines[2].split())), model_id)
        except ValueError as exc:  # bad UTF-8 too
            raise EmbeddingError(f"corrupt cache entry {path}: {exc}") from exc
        # Like an encoder vector, a vector that unit_rows rejects is never
        # written. A cache that cannot be written is still read.
        try:
            unit_rows([vector])
            self.put(vector, label)
        except (NormError, OSError):
            pass
        return vector

    def put(self, vector: EmbeddingVector, label: str) -> None:
        data = vector.row.astype("<f8", copy=False).tobytes()
        self.write(vector.model_id, label, self._header(vector.model_id, label) + data)


class HttpEncoderClient(JsonEndpointClient):
    """Embeddings client for an OpenAI-style endpoint."""

    role = "encoder"
    payload_kind = "embeddings"
    transient_error = EncoderTransportError
    final_error = EmbeddingError

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        payload = {"model": self.model_id, "input": list(texts)}

        def read(doc: Any) -> list[EmbeddingVector]:
            items = sorted(doc["data"], key=lambda item: item["index"])
            if [item["index"] for item in items] != list(range(len(texts))):
                raise ValueError(f"indices are not 0..{len(texts) - 1}")
            vectors = []
            for item in items:
                values = item["embedding"]
                # A row was made by _embedding_row from JSON numbers only.
                if not isinstance(values, np.ndarray) and not _numbers(values):
                    raise ValueError(f"vector {item['index']} has a component that is not a number")
                # An integer beyond float64 raises OverflowError here.
                vectors.append(EmbeddingVector(values, self.model_id))
            return vectors

        return with_retries(
            lambda: self.post(payload, read, object_hook=_embedding_row), EncoderTransportError
        )


def _numbers(values: Any) -> bool:
    # JSON numbers only: float() would also take "0.5" and true.
    return set(map(type, values)) <= {int, float}


def _embedding_row(obj: dict[str, Any]) -> dict[str, Any]:
    """``obj`` with an ``"embedding"`` list of JSON numbers made a read-only float64 row.

    The row is the one ``EmbeddingVector`` would build from the list, so each
    vector is held as a row while the rest of the reply is parsed, not as one
    Python float per component. Any other value is left for ``read`` to check.
    """

    values = obj.get("embedding")
    if type(values) is list and _numbers(values):
        try:
            row = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond float64
            return obj
        row.flags.writeable = False
        obj["embedding"] = row
    return obj


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

    resolved: dict[str, EmbeddingVector] = {}
    missing: list[str] = []
    for label in dict.fromkeys(labels):
        cached = cache.get(model_id, label)
        if cached is None:
            missing.append(label)
        else:
            resolved[label] = cached

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
            for vector in vectors:
                if vector.model_id != model_id:
                    raise EmbeddingError(
                        f"encoder returned model {vector.model_id!r}, expected {model_id!r}"
                    )
            # One vector already resolved fixes the model's dimension. The bad
            # row may be that one, so its label is checked along with the batch.
            checked = [*zip(batch, vectors), *itertools.islice(resolved.items(), 1)]
            try:
                unit_rows([vector for _, vector in checked])
            except NormError as exc:
                raise EmbeddingError(
                    f"label {checked[exc.row][0]!r} of model {model_id!r}: {exc}"
                ) from exc
            for label, vector in zip(batch, vectors):
                cache.put(vector, label)
                resolved[label] = vector

    return [resolved[label] for label in labels]
