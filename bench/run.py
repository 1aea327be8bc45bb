"""Pipeline benchmark: time the four CLI commands on a generated corpus.

    python3 bench/run.py --workload semantic-wide --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/``. Each
run builds the workload's corpus from ``--seed`` under ``.bench_work/``
(``setup_repeats`` times, for ``setup_s``), then repeats pipeline passes
while the next one is expected to end within ``--seconds``.

``--trace 0`` runs every command as its own process,
``python -m movingtargets.cli <command> --config ...``, timed from spawn to
exit, one after another, and reports the end-to-end metrics. A pass runs
``extract`` and ``score`` once and then ``backtest`` and
``report-frequencies`` ``short_repeats`` times, as a user iterating over
settings would, so the short commands get enough samples for a steady
median. Dirty pages are flushed after every command, outside the timed
region, so one command's write-back does not land in the next one's time.
``--trace 1`` runs the commands in this process through
``cli.main(..., standalone_mode=False)``, alternating untraced and traced
passes, and reports the per-layer metrics and the tracing overhead.

After every command the documented output files are hashed and compared
with the digests recorded in ``digests.json`` for the default seed, or with
the run's first pass for any other seed. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
DIGESTS_FILE = BENCH_DIR / "digests.json"

# (metric prefix, CLI arguments); every command also gets --config.
COMMANDS = (
    ("extract", ["extract", "--method", "both"]),
    ("score", ["score", "--method", "both"]),
    ("backtest", ["backtest", "--method", "both"]),
    ("report", ["report-frequencies", "--method", "both", "--top-k", "20"]),
)
# The files each command writes, as documented, relative to out_dir. Files
# outside this list (run records, manifests) are not compared.
OUTPUTS = {
    "extract": ("targets/*.json", "extract_diagnostics.json"),
    "score": ("scores.csv", "score_matches.csv", "score_summary.json"),
    "backtest": (
        "backtest_portfolios.csv",
        "backtest_fama_macbeth.csv",
        "backtest_plot_data.csv",
        "backtest_meta.json",
    ),
    "report": ("frequencies.csv",),
}
COMMAND_TIMEOUT_S = 150.0
STARTUP_SAMPLES = 5


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Budget:
    """Repeats passes while the next one is expected to end within ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.perf_counter()
        self.marks: list[float] = []

    def another(self) -> bool:
        now = time.perf_counter() - self.started
        self.marks.append(now)
        laps = [b - a for a, b in zip(self.marks, self.marks[1:])]
        return not laps or now + statistics.median(laps) <= self.seconds


class Stub:
    """The localhost endpoint process of a cold workload."""

    def __init__(self, corpus_dir: Path, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"), "--corpus", str(corpus_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workspace:
    """One workload's corpus, outputs and (cold) stub under ``.bench_work``.

    Every set-up and every pass writes into a new directory, and nothing is
    deleted until the run ends: deleting thousands of files just before a
    timed command slowed that command's own writes by up to a factor of two.
    """

    def __init__(self, root: Path, name: str, seed: int) -> None:
        import corpus_gen

        params = SPEC["workloads"][name]
        self.name = name
        self.seed = seed
        self.spec = corpus_gen.CorpusSpec(
            firms=params["firms"],
            quarters=params["quarters"],
            vocabulary=params["vocabulary"],
            targets_per_call=params["targets_per_call"],
            dim=params["dim"],
            seed=seed,
            warm_cache=params["cache"] == "warm",
            universe=params.get("universe", 0),
        )
        self.base = root / ".bench_work" / name
        self.trace_file = root / ".bench_trace" / f"{name}-{seed}.jsonl"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["NO_PROXY"] = self.env["no_proxy"] = "127.0.0.1,localhost"
        self.stub: Stub | None = None
        self.setups = 0
        self.passes = 0
        self.transcripts = 0
        self.unique_labels = 0
        self.encoder_batches = 0
        # Set by set_up() and new_pass().
        self.corpus_dir = self.out_dir = self.cache_dir = self.config = self.base
        self.remove()

    def set_up(self) -> float:
        """Build a corpus (and start its stub); return the seconds taken."""

        import corpus_gen

        self.close()
        self.setups += 1
        self.corpus_dir = self.base / f"corpus-{self.setups}"
        start = time.perf_counter()
        built = corpus_gen.build(self.corpus_dir, self.spec)
        if not self.spec.warm_cache:
            self.stub = Stub(self.corpus_dir, self.env)
        elapsed = time.perf_counter() - start
        self.transcripts = built.transcripts
        self.unique_labels = built.unique_labels
        self.encoder_batches = math.ceil(built.unique_labels / corpus_gen.ENCODER_BATCH_SIZE)
        return elapsed

    def new_pass(self) -> None:
        """Point the config at empty output (and, if cold, cache) directories."""

        import corpus_gen

        self.passes += 1
        self.out_dir = self.corpus_dir / f"out-{self.passes}"
        cache = "embedding_cache" if self.spec.warm_cache else f"cache-{self.passes}"
        self.cache_dir = self.corpus_dir / cache
        self.config = corpus_gen.write_config(
            self.corpus_dir,
            Path(self.out_dir.name),
            endpoint=self.stub.url if self.stub else None,
            cache_dir=Path(cache),
        )

    def stub_counts(self) -> dict[str, int] | None:
        return self.stub.stats() if self.stub else None

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def remove(self) -> None:
        """Delete the workload's files and flush the deletion to disk.

        The flush keeps the file system's work for a large deletion out of
        the next run's set-up and timed commands.
        """

        shutil.rmtree(self.base, ignore_errors=True)
        os.sync()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digest(out_dir: Path, command: str) -> str | None:
    """One SHA-256 over (relative path, file SHA-256) of a command's outputs."""

    lines = []
    for pattern in OUTPUTS[command]:
        matches = sorted(out_dir.glob(pattern))
        if not matches:
            return None
        lines.extend(f"{p.relative_to(out_dir).as_posix()} {_file_digest(p)}" for p in matches)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def tree_size(path: Path) -> tuple[int, int]:
    """(files, bytes) under ``path``."""

    files = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


def _stored_digests() -> dict:
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


class OutputCheck:
    """Compares each pass's output digests with the reference digests."""

    def __init__(self, ws: Workspace) -> None:
        stored = _stored_digests()
        self.reference: dict[str, str | None] = {}
        if stored.get("seed") == ws.seed:
            self.reference = dict(stored["workloads"].get(ws.name, {}))
        self.ws = ws

    def check(self, command: str, tally: Tally) -> None:
        digest = output_digest(self.ws.out_dir, command)
        expected = self.reference.setdefault(command, digest)
        tally.check(digest is not None and digest == expected, f"{command}: output digest mismatch")

    def check_extraction(self, tally: Tally) -> None:
        """Count every transcript; a listed extraction error is a failure."""

        path = self.ws.out_dir / "extract_diagnostics.json"
        errors = json.loads(path.read_text(encoding="utf-8"))["errors"] if path.is_file() else None
        tally.attempted += self.ws.transcripts
        failed = self.ws.transcripts if errors is None else len(errors)
        tally.failed += failed
        if failed:
            tally.notes.append(f"extract: {failed} transcripts failed")


def _spawn(ws: Workspace, argv: list[str]) -> tuple[float, int, float]:
    """Run one CLI command as a process; (seconds, exit code, max RSS in MB)."""

    log = ws.out_dir.with_name(f"{ws.out_dir.name}.{argv[0]}.log")
    with log.open("wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "movingtargets.cli", *argv, "--config", str(ws.config)],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=ws.env,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _check_stub(ws: Workspace, before: dict[str, int] | None, tally: Tally, chat: int, batches: int) -> None:
    if before is None:
        return
    after = ws.stub_counts()
    tally.check(after["chat"] - before["chat"] == chat, "stub chat requests differ from extractor calls")
    tally.check(
        after["embeddings"] - before["embeddings"] == batches,
        "stub embedding requests differ from encoder batches",
    )


def _pass_commands() -> list[tuple[str, list[str]]]:
    """extract and score once, then backtest and report ``short_repeats`` times."""

    return [*COMMANDS[:2], *COMMANDS[2:] * SPEC["short_repeats"]]


def end_to_end(ws: Workspace, seconds: float, setups: list[float], tally: Tally) -> dict[str, float]:
    checker = OutputCheck(ws)
    samples: dict[str, list[float]] = defaultdict(list)
    # Loads the interpreter, the libraries and the program's bytecode into
    # the page cache (and writes the bytecode in a fresh checkout), so the
    # first timed command does not pay for it.
    subprocess.run([sys.executable, "-c", "import movingtargets.cli"], env=ws.env, check=True)
    os.sync()
    budget = Budget(seconds)
    while budget.another():
        ws.new_pass()
        before = ws.stub_counts()
        peak = 0.0
        for name, argv in _pass_commands():
            elapsed, code, rss_mb = _spawn(ws, argv)
            os.sync()
            tally.check(code == 0, f"{name}: exit code {code}")
            if name == "extract":
                checker.check_extraction(tally)
            checker.check(name, tally)
            samples[f"{name}_s"].append(elapsed)
            peak = max(peak, rss_mb)
        _check_stub(ws, before, tally, ws.transcripts, ws.encoder_batches)
        samples["peak_rss_mb"].append(peak)

    for name, values in samples.items():
        print(f"{name:<16} samples: {' '.join(f'{v:.3f}' for v in values)}")
    print(f"{'setup_s':<16} per set-up: {' '.join(f'{v:.3f}' for v in setups)}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["pipeline_s"] = sum(metrics[f"{name}_s"] for name, _ in COMMANDS)
    metrics["setup_s"] = statistics.median(setups)
    metrics["calls_per_s"] = ws.transcripts / metrics["pipeline_s"]
    metrics["success_share"] = 1.0 - tally.failed / tally.attempted
    metrics["passes"] = len(samples["peak_rss_mb"])
    return metrics


def _startup_seconds(ws: Workspace) -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import movingtargets.cli"], env=ws.env, check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _invoke(cli, argv: list[str]) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def traced(ws: Workspace, seconds: float, tally: Tally) -> dict[str, float]:
    from movingtargets import cli

    import tracing

    checker = OutputCheck(ws)
    times: dict[tuple[bool, str], list[float]] = defaultdict(list)
    layers: dict[str, list[float]] = defaultdict(list)
    startup = _startup_seconds(ws)
    spans: list = []
    budget = Budget(seconds)
    passes = 0
    while budget.another():
        passes += 1
        for with_trace in (False, True):
            ws.new_pass()
            before = ws.stub_counts()
            rec = tracing.Recorder(run_id=f"{ws.name}-{ws.seed}-{passes}")
            hooks = tracing.instrumented(rec) if with_trace else contextlib.nullcontext()
            with hooks:
                for name, argv in COMMANDS:
                    span = rec.command(f"cli.{name}") if with_trace else contextlib.nullcontext()
                    start = time.perf_counter()
                    with span:
                        code = _invoke(cli, [*argv, "--config", str(ws.config)])
                    times[(with_trace, name)].append(time.perf_counter() - start)
                    # Drops the command's HTTP sessions, so their keep-alive
                    # connections do not hold the stub's handler threads.
                    gc.collect()
                    tally.check(code == 0, f"{name}: exit code {code}")
                    if name == "extract":
                        checker.check_extraction(tally)
                    checker.check(name, tally)
            if not with_trace:
                _check_stub(ws, before, tally, ws.transcripts, ws.encoder_batches)
                continue
            spans.extend(rec.spans)
            found = tracing.layer_metrics(rec)
            _check_stub(
                ws, before, tally, found["extract.complete.calls"], found["embed.encoder.batches"]
            )
            found["embed.cache.bytes"] = tree_size(ws.cache_dir)[1]
            found["cli.files_written"], found["cli.bytes_written"] = tree_size(ws.out_dir)
            for key, value in found.items():
                layers[key].append(value)

    ws.trace_file.parent.mkdir(exist_ok=True)
    with ws.trace_file.open("w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(dataclasses.asdict(span)) + "\n" for span in spans)
    metrics = {key: statistics.median(values) for key, values in layers.items()}
    metrics["cli.startup_s"] = startup
    for name, _ in COMMANDS:
        metrics[f"trace.{name}.overhead_s"] = statistics.median(
            times[(True, name)]
        ) - statistics.median(times[(False, name)])
    metrics["passes"] = passes
    return metrics


def record_digests(ws: Workspace) -> None:
    """Run one pipeline pass and store its digests as the reference for its seed."""

    ws.new_pass()
    digests = {}
    for name, argv in COMMANDS:
        _, code, _ = _spawn(ws, argv)
        if code != 0:
            raise SystemExit(f"{name} exited with {code}; digests not recorded")
        digests[name] = output_digest(ws.out_dir, name)
    stored = _stored_digests()
    if stored.get("seed") != ws.seed:
        stored = {"seed": ws.seed, "workloads": {}}
    stored["workloads"][ws.name] = digests
    stored["workloads"] = dict(sorted(stored["workloads"].items()))
    DIGESTS_FILE.write_text(json.dumps(stored, indent=2) + "\n", encoding="utf-8")


def _report(metrics: dict[str, float], declared: list[dict], tally: Tally) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for m in declared:
        print(f"{m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    for note in tally.notes[:20]:
        print(f"failure: {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store this seed's output digests in digests.json and exit",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "movingtargets" / "cli.py").is_file():
        print(f"error: no src/movingtargets under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    # Lets an interrupted run still stop its stub and remove its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    ws = Workspace(root, args.workload, args.seed)
    tally = Tally()
    try:
        if args.record_digests:
            ws.set_up()
            record_digests(ws)
            return 0
        if args.trace:
            ws.set_up()
            metrics = traced(ws, args.seconds, tally)
            declared = SPEC["per_layer"]
        else:
            setups = [ws.set_up() for _ in range(SPEC["setup_repeats"])]
            metrics = end_to_end(ws, args.seconds, setups, tally)
            declared = SPEC["end_to_end"]
    finally:
        ws.close()
        ws.remove()
    print(f"workload={ws.name} seed={ws.seed} transcripts={ws.transcripts} "
          f"labels={ws.unique_labels} passes={metrics['passes']}")
    print(json.dumps(_report(metrics, declared, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
