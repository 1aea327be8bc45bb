"""What each command loads, and its error contract, in a fresh interpreter.

The other CLI tests run the commands in the pytest process, which has
imported every module already. These start each command as its own process,
as a user does, so they see what the command itself imports: offline
``extract`` and ``report-frequencies`` load neither numpy nor
``http.client``, offline ``score`` and ``backtest`` load numpy only, online
``extract`` loads ``http.client`` (and with it ``ssl``) only, and no command
loads requests. ``score`` loads neither the corpus module nor the extractor,
``backtest`` loads neither the extractor, the encoder, the HTTP layer nor a
thread pool, and ``report-frequencies`` not even the corpus module. Each
child also reports the ``OPENBLAS_NUM_THREADS`` it ran with: 1 unless the
caller set another. Online ``score`` runs here too, so a retry goes through
the program's own HTTP session.
"""

from __future__ import annotations

import ast
import csv
import json
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import yaml

import movingtargets
from corpusgen import cache_entry_vector, float_reprs, write_cache_entry
from movingtargets.embed import EmbeddingCache
from movingtargets.extract import RecordingStore

HEAVY = ("numpy", "requests", "http.client", "ssl")
# Each loaded only by a command that runs the stage it belongs to.
STAGES = (
    "movingtargets.corpus",
    "movingtargets.extract",
    "movingtargets.embed",
    "movingtargets.transport",
    "concurrent.futures",
)

# Runs the CLI on ``argv[2:]`` and writes to ``argv[1]`` which modules of
# HEAVY and STAGES it loaded, and the OPENBLAS_NUM_THREADS it ran with.
RUNNER = (
    "import json, os, sys\n"
    "from movingtargets.cli import main\n"
    "try:\n"
    "    main(sys.argv[2:])\n"
    "finally:\n"
    f"    loaded = [m for m in {HEAVY + STAGES!r} if m in sys.modules]\n"
    "    blas_threads = os.environ.get('OPENBLAS_NUM_THREADS')\n"
    "    with open(sys.argv[1], 'w') as handle:\n"
    "        json.dump({'loaded': loaded, 'blas_threads': blas_threads}, handle)\n"
)


@dataclass(frozen=True)
class Child:
    """What one command loaded of HEAVY and STAGES, and its OPENBLAS_NUM_THREADS."""

    loaded: frozenset[str]
    blas_threads: str | None

    @property
    def heavy(self) -> set[str]:
        return set(self.loaded) & set(HEAVY)


@pytest.fixture(scope="session")
def run_cli(run_python):
    def run(tmp_path: Path, config: Path, out: Path, *args: str, env=None):
        """(process, ``Child``) of one command; ``env`` sets variables for it."""

        report = tmp_path / "loaded.json"
        result = run_python(
            "-c", RUNNER, str(report), *args, "--config", str(config), "--out-dir", str(out),
            env=env,
        )
        found = json.loads(report.read_text(encoding="utf-8"))
        return result, Child(frozenset(found["loaded"]), found["blas_threads"])

    return run


def one_error_line(result: subprocess.CompletedProcess, code: str) -> None:
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {code}: "), result.stderr


@pytest.fixture(scope="module")
def offline_pass(full_corpus, tmp_path_factory, run_cli):
    """Output dir of one offline pass, and the modules each command loaded."""

    tmp = tmp_path_factory.mktemp("offline_pass")
    out = tmp / "out"
    loaded = {}
    for command in ("extract", "score", "backtest", "report-frequencies"):
        result, loaded[command] = run_cli(tmp, full_corpus.config_file, out, command)
        assert result.returncode == 0, result.stderr
    return out, loaded


def package_nodes():
    """(file name, node) of every AST node of the package's modules."""

    for path in Path(movingtargets.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def imported_modules(node):
    """The top-level modules an import statement names; a relative one is ``"."``."""

    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {"." if node.level else (node.module or "").partition(".")[0]}
    return set()


def importers_of(module):
    """The package's files with an import statement of ``module`` or of a submodule of it."""

    importers = set()
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(n == module or n.startswith(f"{module}.") for n in names):
            importers.add(name)
    return importers


def test_only_the_transport_imports_http_client():
    assert importers_of("requests") == set()
    assert importers_of("http.client") == {"transport.py"}


# What replaces a file or reads or writes CSV: only the file layer does.
FILE_LAYER_CALLS = {("os", "replace"), ("csv", "reader"), ("csv", "DictReader"), ("csv", "writer")}


def test_only_the_file_layer_replaces_files_and_handles_csv():
    callers = set()
    for name, node in package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "csv"):
            calls = {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            calls = {(node.value.id, node.attr)}
        else:
            continue
        if calls & FILE_LAYER_CALLS:
            callers.add(name)
    assert callers == {"fileio.py"}


def test_the_file_layer_imports_only_the_standard_library():
    modules = set().union(
        *(imported_modules(node) for name, node in package_nodes() if name == "fileio.py")
    )
    assert modules and modules <= sys.stdlib_module_names


def test_importing_the_cli_loads_neither_numpy_nor_requests(run_python):
    result = run_python(
        "-c",
        "import sys, movingtargets.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


@pytest.mark.parametrize(
    "command, expected",
    [
        ("extract", set()),
        ("score", {"numpy"}),
        ("backtest", {"numpy"}),
        ("report-frequencies", set()),
    ],
)
def test_offline_command_loads_only_what_it_runs(offline_pass, command, expected):
    _, loaded = offline_pass
    assert loaded[command].heavy == expected


@pytest.mark.parametrize(
    "command, absent",
    [
        (
            "backtest",
            {
                "movingtargets.extract",
                "movingtargets.embed",
                "movingtargets.transport",
                "concurrent.futures",
            },
        ),
        ("report-frequencies", {"movingtargets.corpus", "movingtargets.extract"}),
        ("score", {"movingtargets.corpus", "movingtargets.extract"}),
    ],
)
def test_command_loads_no_stage_it_does_not_run(offline_pass, command, absent):
    _, loaded = offline_pass
    assert not loaded[command].loaded & absent


@pytest.mark.parametrize("command", ["score", "backtest"])
def test_numpy_commands_run_blas_on_one_thread(offline_pass, command):
    _, loaded = offline_pass
    assert loaded[command].blas_threads == "1"


def test_a_blas_thread_count_the_caller_sets_is_kept(full_corpus, offline_pass, run_cli, tmp_path):
    pipeline_out, _ = offline_pass
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    result, child = run_cli(
        tmp_path, full_corpus.config_file, out, "backtest", env={"OPENBLAS_NUM_THREADS": "4"}
    )
    assert result.returncode == 0, result.stderr
    assert child.blas_threads == "4"


class ChatStub(BaseHTTPRequestHandler):
    """Answers chat completions from the recordings in ``server.store``."""

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = self.server.store.get(payload["model"], payload["messages"][-1]["content"])
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")
        self.send_response(200 if content is not None else 404)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


def test_online_extract_loads_http_client_but_not_numpy(small_corpus, run_cli, tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), ChatStub)
    server.store = RecordingStore(small_corpus.recordings_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        doc = yaml.safe_load(small_corpus.config_file.read_text(encoding="utf-8"))
        doc["offline"] = False
        doc["extractor"]["endpoint"] = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        for key in ("transcripts_dir", "returns_file", "factors_file"):
            doc[key] = str(small_corpus.root / doc[key])
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = tmp_path / "out"
        result, loaded = run_cli(tmp_path, config, out, "extract", "--method", "llm")
    finally:
        server.shutdown()
        server.server_close()
    assert result.returncode == 0, result.stderr
    assert len(list((out / "targets").glob("*.llm.json"))) == 24
    assert loaded.heavy == {"http.client", "ssl"}


class EmbeddingsStub(BaseHTTPRequestHandler):
    """Answers 503 to the first request, then embeddings from ``server.cache``."""

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status = 503 if not self.server.statuses else 200
        self.server.statuses.append(status)
        data = [
            {"index": i, "embedding": list(self.server.cache.get(payload["model"], text).values)}
            for i, text in enumerate(payload["input"])
        ]
        body = json.dumps({"data": data} if status == 200 else {}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


def test_online_score_retries_and_matches_offline(full_corpus, offline_pass, run_cli, tmp_path):
    pipeline_out, _ = offline_pass
    offline_out, online_out = tmp_path / "offline", tmp_path / "online"
    shutil.copytree(pipeline_out, offline_out)
    shutil.copytree(pipeline_out, online_out)
    result, _ = run_cli(tmp_path, full_corpus.config_file, offline_out, "score", "--method", "llm")
    assert result.returncode == 0, result.stderr

    server = ThreadingHTTPServer(("127.0.0.1", 0), EmbeddingsStub)
    server.cache = EmbeddingCache(full_corpus.cache_dir)
    server.statuses = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        doc = yaml.safe_load(full_corpus.config_file.read_text(encoding="utf-8"))
        doc["offline"] = False
        doc["encoder"]["endpoint"] = f"http://127.0.0.1:{server.server_port}/v1/embeddings"
        doc["encoder"]["cache_dir"] = str(tmp_path / "cold_cache")
        for key in ("transcripts_dir", "returns_file", "factors_file"):
            doc[key] = str(full_corpus.root / doc[key])
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        result, loaded = run_cli(tmp_path, config, online_out, "score", "--method", "llm")
    finally:
        server.shutdown()
        server.server_close()
    assert result.returncode == 0, result.stderr
    assert loaded.heavy == {"numpy", "http.client", "ssl"}
    assert server.statuses[:2] == [503, 200] and set(server.statuses[1:]) == {200}
    for name in ("scores.csv", "score_matches.csv", "score_summary.json"):
        assert (online_out / name).read_bytes() == (offline_out / name).read_bytes(), name


def corrupt_cache_entry(full_corpus, offline_pass, tmp_path, corrupt):
    """Copies of the corpus and outputs, with ``corrupt(vector bytes)`` as a scored label's entry."""

    pipeline_out, _ = offline_pass
    root = tmp_path / "corpus"
    shutil.copytree(full_corpus.root, root)
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    with (out / "score_matches.csv").open(newline="", encoding="utf-8") as handle:
        label = next(r["label"] for r in csv.DictReader(handle) if r["method"] == "semantic")
    vector = cache_entry_vector(root / "embedding_cache", label)
    write_cache_entry(root / "embedding_cache", label, corrupt(vector))
    return root / "config.yaml", out


def test_corrupt_cache_entry_is_one_embedding_error_line(
    full_corpus, offline_pass, run_cli, tmp_path
):
    # A legacy text entry whose vector line starts with a token that is no number.
    config, out = corrupt_cache_entry(
        full_corpus, offline_pass, tmp_path, lambda vector: f"abc {float_reprs(vector)}"
    )
    result, _ = run_cli(tmp_path, config, out, "score")
    one_error_line(result, "embedding-error")


def test_corrupt_binary_cache_entry_is_one_embedding_error_line(
    full_corpus, offline_pass, run_cli, tmp_path
):
    config, out = corrupt_cache_entry(
        full_corpus, offline_pass, tmp_path, lambda vector: vector[:-3]
    )
    result, _ = run_cli(tmp_path, config, out, "score")
    one_error_line(result, "embedding-error")


def test_malformed_score_table_is_one_error_line(full_corpus, offline_pass, run_cli, tmp_path):
    pipeline_out, _ = offline_pass
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    scores = out / "scores.csv"
    header, first, *rest = scores.read_text(encoding="utf-8").splitlines(keepends=True)
    firm, _, tail = first.split(",", 2)
    scores.write_text("".join([header, f"{firm},20x9,{tail}", *rest]), encoding="utf-8")
    result, _ = run_cli(tmp_path, full_corpus.config_file, out, "backtest")
    one_error_line(result, "malformed-score-table")
