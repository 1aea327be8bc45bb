from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpusgen import build_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """3 firms x 8 quarters: enough for extraction and scoring tests."""

    return build_corpus(
        tmp_path_factory.mktemp("small_corpus"), n_firms=3, n_quarters=8, seed=7
    )


@pytest.fixture(scope="session")
def full_corpus(tmp_path_factory):
    """8 firms x 16 quarters: enough history for the full backtest."""

    return build_corpus(
        tmp_path_factory.mktemp("full_corpus"), n_firms=8, n_quarters=16, seed=11
    )


@pytest.fixture(scope="session")
def run_python():
    """Run ``python *args`` as a child process that imports this checkout's package.

    The child does not inherit this process's ``OPENBLAS_NUM_THREADS``, so it
    runs with the program's default; ``env`` adds or sets variables.
    """

    path = os.environ.get("PYTHONPATH")
    base = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def run(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            env={**base, **(env or {})},
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run
