"""Tests of the span tracer on stand-in functions and modules."""

import sys
import time
import types

import tracing


def test_self_time_is_span_minus_children():
    t = tracing.Tracer()
    inner = t.wrap(lambda: time.sleep(0.02), "inner")

    def outer_body():
        time.sleep(0.01)
        inner()

    t.wrap(outer_body, "outer")()
    totals = t.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert totals["outer"]["total_s"] >= totals["inner"]["total_s"] + 0.009
    assert abs(totals["outer"]["self_s"] - (totals["outer"]["total_s"] - totals["inner"]["total_s"])) < 1e-9
    assert list(t.parents) == [-1, 0]


def test_install_wraps_every_binding_and_reports_absent_targets(monkeypatch):
    def analyze(x):
        return x + 1

    spectral = types.ModuleType("channellab.spectral")
    spectral.analyze = analyze
    cli = types.ModuleType("channellab.cli")
    cli.analyze = analyze  # the binding made by ``from .spectral import analyze``
    monkeypatch.setattr(sys, "modules", {"channellab.spectral": spectral, "channellab.cli": cli})
    t = tracing.Tracer()
    t.install()
    monkeypatch.undo()

    assert cli.analyze is spectral.analyze is not analyze
    assert cli.analyze(1) == 2
    assert "spectral.analyze" not in t.absent
    assert "cli.main" in t.absent and "channel.Superoperator.__post_init__" in t.absent
    metrics = tracing.layer_metrics(t, 1)
    assert metrics["spectral.analyze_calls"] == 1
    assert metrics["cli.self_s"] == 0.0
