"""The metric names the benchmark prints are the ones BENCHMARK.json declares."""

import json

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_end_to_end_metrics_match_the_declaration():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_metrics_match_the_declaration():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert declared == list(tracing.layer_metrics(tracing.Tracer(), 1))
    for m in SPEC["per_layer"]:
        assert m["unit"] == ("count" if m["name"].endswith(run.LAYER_UNITS_COUNT) else "s")


def test_workloads_match_the_declaration():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
