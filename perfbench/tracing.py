"""Span tracing by wrapping ``channellab`` functions at their module bindings.

A target such as ``spectral.analyze`` is replaced, in every loaded
``channellab`` module that holds a reference to the same function object,
by a wrapper that records one span: name, start, end, parent span and
request id.  Spans stay in memory (compact arrays) and are reduced to
per-layer totals when the run ends.  A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Boundaries timed in a traced run.  ``cli.main`` is the root span of every request.
TARGETS = (
    "cli.main",
    "channel.channel_from_document",
    "channel.validate_cpt",
    "channel.to_superoperator",
    "channel.Superoperator.__post_init__",
    "channel.apply",
    "opalg.general_eig",
    "opalg.trace_norm",
    "spectral.analyze",
    "spectral.report_to_payload",
    "lyapunov.orbit_oracle",
    "lyapunov.orbit",
    "lyapunov.trivial_lyapunov",
    "lyapunov.relative_entropy",
    "lyapunov.von_neumann_entropy",
    "lyapunov.cesaro_average",
    "dilation.validate_conserved",
    "dilation.find_factorizing_eigenstates",
    "dilation.cross_validate",
    "jsonutil.canonical_json",
)

FUNCTIONALS = ("lyapunov.trivial_lyapunov", "lyapunov.relative_entropy", "lyapunov.von_neumann_entropy")

# Work counted from a call's arguments: the Cesaro horizon n.
ARGUMENT_COUNTS = {"lyapunov.cesaro_average": lambda args, kwargs: kwargs.get("n", args[2] if len(args) > 2 else 0)}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self.requests: array = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.argument_counts: dict[str, float] = {}
        self.absent: list[str] = []

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        count = ARGUMENT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.requests.append(self.request)
            self.ends.append(0.0)
            if count is not None:
                self.argument_counts[name] = self.argument_counts.get(name, 0) + count(args, kwargs)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target in the loaded ``channellab`` modules; missing ones are listed in `absent`."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "channellab" or key.startswith("channellab."))]
        for target in TARGETS:
            module_name, _, attr_path = target.partition(".")
            owner = sys.modules.get(f"channellab.{module_name}")
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self.wrap(original, target)
            if owner_path:  # a method, looked up on its class at call time
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def totals(self) -> dict:
        """Per target: calls, inclusive seconds and self seconds (span minus child spans)."""
        n = len(self.starts)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        if not n:
            return out
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        for i, name in enumerate(self.names):
            mask = names == i
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The benchmark's per-layer metrics, per round of the workload."""
    t = tracer.totals()

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0.0)

    values = {
        "channel.validate_cpt_s": get("channel.validate_cpt", "total_s"),
        "channel.to_superoperator_s": get("channel.to_superoperator", "total_s"),
        "channel.superoperator_gate_s": get("channel.Superoperator.__post_init__", "total_s"),
        "channel.to_superoperator_calls": get("channel.to_superoperator", "calls"),
        "channel.apply_s": get("channel.apply", "total_s"),
        "channel.apply_calls": get("channel.apply", "calls"),
        "channel.from_document_s": get("channel.channel_from_document", "total_s"),
        "opalg.general_eig_s": get("opalg.general_eig", "total_s"),
        "opalg.general_eig_calls": get("opalg.general_eig", "calls"),
        "opalg.trace_norm_s": get("opalg.trace_norm", "total_s"),
        "opalg.trace_norm_calls": get("opalg.trace_norm", "calls"),
        "spectral.analyze_s": get("spectral.analyze", "total_s"),
        "spectral.analyze_self_s": get("spectral.analyze", "self_s"),
        "spectral.analyze_calls": get("spectral.analyze", "calls"),
        "spectral.report_to_payload_s": get("spectral.report_to_payload", "total_s"),
        "lyapunov.orbit_oracle_s": get("lyapunov.orbit_oracle", "total_s"),
        "lyapunov.orbit_s": get("lyapunov.orbit", "total_s"),
        "lyapunov.functionals_s": sum(get(f, "total_s") for f in FUNCTIONALS),
        "lyapunov.functional_calls": sum(get(f, "calls") for f in FUNCTIONALS),
        "lyapunov.cesaro_average_s": get("lyapunov.cesaro_average", "total_s"),
        "lyapunov.cesaro_average_calls": get("lyapunov.cesaro_average", "calls"),
        "lyapunov.cesaro_steps": float(tracer.argument_counts.get("lyapunov.cesaro_average", 0)),
        "dilation.validate_conserved_calls": get("dilation.validate_conserved", "calls"),
        "dilation.find_factorizing_eigenstates_s": get("dilation.find_factorizing_eigenstates", "total_s"),
        "dilation.find_factorizing_eigenstates_calls": get("dilation.find_factorizing_eigenstates", "calls"),
        "dilation.cross_validate_s": get("dilation.cross_validate", "total_s"),
        "jsonutil.canonical_json_s": get("jsonutil.canonical_json", "total_s"),
        "jsonutil.canonical_json_calls": get("jsonutil.canonical_json", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
    }
    return {name: value / rounds for name, value in values.items()}
