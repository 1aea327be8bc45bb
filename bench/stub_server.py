"""Localhost stand-in for the chat-completion and embeddings endpoints.

Serves ``POST /v1/chat/completions`` from a corpus's recordings (keyed like
``RecordingStore``) and ``POST /v1/embeddings`` from vectors loaded and
rendered to JSON before the first request. ``GET /stats`` returns the number
of requests served per endpoint. It injects no errors and adds no delay.

Run ``python3 bench/stub_server.py --corpus DIR``; it binds 127.0.0.1 on a
free port and prints ``READY <port>`` once it can serve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socketserver
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np

from corpus_gen import vector_texts

HANDLER_THREADS = 2
# An idle keep-alive connection holds one of the two handler threads; the
# timeout frees it should a client never close its connection.
IDLE_TIMEOUT_S = 10.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


class StubState:
    def __init__(self, corpus_dir: Path) -> None:
        self.recordings = corpus_dir / "recordings"
        labels_file = corpus_dir / "stub_labels.txt"
        self.embeddings: dict[str, str] = {}
        if labels_file.is_file():
            labels = labels_file.read_text(encoding="utf-8").splitlines()
            vectors = np.load(corpus_dir / "stub_vectors.npy")
            rows = vector_texts(vectors, sep=", ")
            self.embeddings = {label: f"[{row}]" for label, row in zip(labels, rows)}
        self.counts = {"chat": 0, "embeddings": 0}
        self._lock = threading.Lock()

    def count(self, endpoint: str) -> None:
        with self._lock:
            self.counts[endpoint] += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def chat(self, payload: dict) -> tuple[int, bytes]:
        prompt = payload["messages"][-1]["content"]
        key = hashlib.sha256(f"{payload['model']}\n{prompt}".encode("utf-8")).hexdigest()
        path = self.recordings / f"{key}.txt"
        if not path.is_file():
            return 404, json.dumps({"error": f"no recording {key}"}).encode()
        content = path.read_text(encoding="utf-8")
        doc = {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}
        return 200, json.dumps(doc).encode("utf-8")

    def embed(self, payload: dict) -> tuple[int, bytes]:
        texts = payload["input"]
        missing = [t for t in texts if t not in self.embeddings]
        if missing:
            return 404, json.dumps({"error": f"no vector for {missing[0]!r}"}).encode()
        items = ",".join(
            f'{{"object":"embedding","index":{i},"embedding":{self.embeddings[t]}}}'
            for i, t in enumerate(texts)
        )
        return 200, f'{{"object":"list","data":[{items}]}}'.encode("utf-8")


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    state: StubState

    def log_message(self, format: str, *args: object) -> None:
        pass

    def _reply(self, status: int, body: bytes) -> None:
        # Status line, headers and body leave in one write: split writes
        # meet delayed ACKs and cost tens of milliseconds per request.
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, b"{}")
            return
        self._reply(200, json.dumps(self.state.snapshot()).encode())

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            self._reply(400, b'{"error":"bad json"}')
            return
        if self.path == "/v1/chat/completions":
            self.state.count("chat")
            self._reply(*self.state.chat(payload))
        elif self.path == "/v1/embeddings":
            self.state.count("embeddings")
            self._reply(*self.state.embed(payload))
        else:
            self._reply(404, b"{}")


class PooledHTTPServer(socketserver.TCPServer):
    """Hands each connection to a fixed pool of handler threads."""

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], handler: type, threads: int) -> None:
        super().__init__(address, handler)
        self._pool = ThreadPoolExecutor(max_workers=threads)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)

    def process_request(self, request, client_address) -> None:
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except OSError:
            pass
        finally:
            self.shutdown_request(request)


def make_server(corpus_dir: Path) -> PooledHTTPServer:
    """A stub for ``corpus_dir`` bound to a free port on 127.0.0.1."""

    handler = type("BoundStubHandler", (StubHandler,), {"state": StubState(corpus_dir)})
    return PooledHTTPServer(("127.0.0.1", 0), handler, HANDLER_THREADS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    args = parser.parse_args(argv)

    server = make_server(args.corpus)
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
