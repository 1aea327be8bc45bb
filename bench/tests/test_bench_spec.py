"""The root BENCHMARK.json agrees with the benchmark's own spec.json."""

from __future__ import annotations

import json
from pathlib import Path

from run import SPEC

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_mirrors_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, params["why"]) for name, params in SPEC["workloads"].items()
    ]
    keys = ("name", "unit", "better", "bound")
    assert doc["end_to_end"] == [{k: m[k] for k in keys} for m in SPEC["end_to_end"]]
    assert doc["per_layer"] == [{k: m[k] for k in keys[:3]} for m in SPEC["per_layer"]]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_per_layer_map_names_real_metrics_and_workloads():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        assert set(metric["moves"]) <= end_to_end, metric["name"]
        assert metric["mainly_on"] in SPEC["workloads"], metric["name"]
