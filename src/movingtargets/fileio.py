"""The file layer: atomic writes, CSV tables and keyed files, on the standard library only."""

from __future__ import annotations

import csv
import itertools
import json
import os
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def replace(path: Path, write: Callable[[IO], object], *, binary: bool = False) -> None:
    """Let ``write`` fill ``<name>.<pid>.tmp``, then rename it over ``path``.

    The handle takes UTF-8 text, or bytes if ``binary``.
    """

    # The temp name ends in neither ".json" nor ".txt", so no glob of outputs matches it.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def encodes_as_utf8(text: str) -> bool:
    """False if ``text`` holds a lone surrogate, which no UTF-8 file or digest can take."""

    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_json(path: Path, payload: object) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    replace(path, lambda handle: handle.write(text))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    # The rows stream into the file, so a large table is never held in memory.
    lines = itertools.chain([header], rows)
    replace(path, lambda handle: csv.writer(handle, lineterminator="\n").writerows(lines))


def read_rows(
    path: Path, columns: Sequence[str], *, extra_columns: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of the header, then of every row; blank lines are skipped.

    The header is ``columns``, or holds them if ``extra_columns``; each row
    has as many fields as the header. A breach raises ``ValueError``.
    """

    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [column for column in columns if column not in header]
            if missing and extra_columns:
                raise ValueError(f"missing column {missing[0]!r}")
            if header != list(columns) and not extra_columns:
                raise ValueError(f"expected header {','.join(columns)}")
            yield reader.line_num, header
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc


def read_table(
    path: Path,
    columns: Sequence[str],
    parse: Callable[[dict[str, str], int], T],
    *,
    extra_columns: bool = False,
) -> list[T]:
    """``parse(record, line number)`` of every row of ``read_rows``."""

    rows = read_rows(path, columns, extra_columns=extra_columns)
    _, header = next(rows)
    return [parse(dict(zip(header, row)), line) for line, row in rows]


class KeyedFiles:
    """One file under ``root`` per (model, text): the SHA-256 of the pair, then ``suffix``."""

    suffix = ".txt"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # The temp name of a write is per process, so threads take turns.
        self._write_lock = threading.Lock()

    @staticmethod
    def key(model_id: str, text: str) -> str:
        # Imported here: only the embedding cache makes keys, and the backtest
        # and the reports need no hash library.
        import hashlib

        return hashlib.sha256(f"{model_id}\n{text}".encode("utf-8")).hexdigest()

    def path(self, model_id: str, text: str, suffix: str | None = None) -> Path:
        return self.root / f"{self.key(model_id, text)}{suffix or self.suffix}"

    def read(self, model_id: str, text: str) -> str | None:
        path = self.path(model_id, text)
        return path.read_text(encoding="utf-8") if path.is_file() else None

    def write(self, model_id: str, text: str, content: str | bytes) -> None:
        binary = isinstance(content, bytes)
        with self._write_lock:
            self.root.mkdir(parents=True, exist_ok=True)
            replace(self.path(model_id, text), lambda handle: handle.write(content), binary=binary)
