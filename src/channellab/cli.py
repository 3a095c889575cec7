"""Command-line front end.

Commands: ``validate``, ``classify``, ``orbit``, ``dilation``, ``cesaro``,
``zoo-list``, ``zoo-emit``.  Envelope-producing commands print one
canonical-JSON object to stdout; ``orbit`` writes one JSON line per
step; ``zoo-emit`` prints a raw input document that the other commands
accept.

Exit codes: 0 success, 1 usage or parse error, 2 validation or hypothesis
failure, 3 numerical failure.  Output is byte-deterministic for a given
input and seed (floats at 17 significant digits, keys sorted, no
timestamps); the default seed comes from ``CHANNELLAB_SEED`` when set,
read at each call, and a seed that is not a non-negative integer exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    DensityMatrix,
    KrausChannel,
    channel_from_document,
    channel_to_document,
    stinespring_to_document,
    validate_cpt,
)
from .dilation import (
    cross_validate,
    instance_from_document,
    instance_to_document,
)
from .errors import HypothesisViolation, InternalInconsistencyError
from .jsonutil import canonical_json, canonical_json_rows, complex_to_json, input_digest, json_to_matrix
from .lyapunov import (
    FUNCTIONAL_TRIVIAL,
    FUNCTIONALS,
    ORACLE_MIN_N_MAX,
    cesaro_averages,
    orbit,
    orbit_oracle,
    trivial_lyapunov,
)
from .spectral import VERDICT_MIXING, VERDICT_NOT_ERGODIC, analyze, report_to_payload
from .tolerances import ORACLE_TOL
from .zoo import PROVENANCE_RANDOM, ChannelSpec, build, catalog, dilation_instance, family


class UsageError(Exception):
    """Bad command line, unreadable file, or malformed JSON (exit code 1)."""


def _resolve_seed(given: int | None) -> int:
    """The probe seed: `given` (``--seed``), else ``CHANNELLAB_SEED`` read at call time, else 0."""
    source, raw = "--seed", given
    if given is None:
        source, raw = "CHANNELLAB_SEED", os.environ.get("CHANNELLAB_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_channel(path: str) -> tuple[KrausChannel, dict]:
    doc = _load_json(path)
    return channel_from_document(doc), doc


def _envelope(command: str, doc, report, warnings=()) -> dict:
    return {
        "tool_version": __version__,
        "input_digest": input_digest(doc),
        "command": command,
        "report": report,
        "warnings": list(warnings),
    }


def _emit(envelope: dict) -> None:
    sys.stdout.write(canonical_json(envelope) + "\n")


def _parse_state(spec: str, dim: int) -> DensityMatrix:
    """State argument: "basis:k", "mixed", or an inline JSON matrix."""
    if spec == "mixed":
        return DensityMatrix.maximally_mixed(dim)
    if spec.startswith("basis:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad basis state spec {spec!r}") from exc
        if not 0 <= k < dim:
            raise UsageError(f"basis index {k} out of range for dimension {dim}")
        return DensityMatrix.basis_state(dim, k)
    if spec.lstrip().startswith("["):
        try:
            rows = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise UsageError(f"inline state is not valid JSON: {exc.msg}") from exc
        return DensityMatrix(json_to_matrix(rows, what="state"))
    raise UsageError(f'unrecognized state spec {spec!r}: use "basis:k", "mixed", or a JSON matrix')


def _validation_payload(c: KrausChannel) -> dict:
    report = validate_cpt(c)
    return {"dim": c.dim, "label": c.label, **dataclasses.asdict(report), "passed": report.passed}


def _require_valid(c: KrausChannel) -> None:
    report = validate_cpt(c)
    if not report.passed:
        raise ValueError("channel failed validation: " + "; ".join(report.messages))


def _cmd_validate(args) -> int:
    c, doc = _load_channel(args.file)
    payload = _validation_payload(c)
    _emit(_envelope("validate", doc, payload, warnings=() if payload["passed"] else payload["messages"]))
    return 0 if payload["passed"] else 2


def _cmd_classify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a positive finite number, got {args.tol!r}")
    if args.nmax < ORACLE_MIN_N_MAX:
        raise UsageError(f"--nmax must be >= {ORACLE_MIN_N_MAX}, got {args.nmax}")
    c, doc = _load_channel(args.file)
    _require_valid(c)
    report = analyze(c)
    payload = report_to_payload(report)
    warnings = []
    if report.near_cluster_boundary:
        warnings.append(
            "eigenvalues lie near the peripheral/cluster tolerance boundary; "
            "the verdict is sensitive to the clustering tolerances"
        )
    if args.oracle:
        oracle = orbit_oracle(report.superoperator, n_max=args.nmax, tol_distance=args.tol, seed=args.seed)
        agrees = (report.verdict == VERDICT_MIXING) == (oracle.verdict == "mixing")
        payload["oracle"] = dataclasses.asdict(oracle)
        payload["oracle_agrees"] = agrees
        if not agrees:
            warnings.append("orbit oracle disagrees with the spectral verdict")
    _emit(_envelope("classify", doc, payload, warnings))
    return 0


def _cmd_orbit(args) -> int:
    c, _doc = _load_channel(args.file)
    _require_valid(c)
    rho0 = _parse_state(args.state, c.dim)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    functionals = []
    if args.functionals:
        functionals = [name.strip() for name in args.functionals.split(",") if name.strip()]
        for name in functionals:
            if name not in FUNCTIONALS:
                raise UsageError(f"unknown functional {name!r}; expected one of {FUNCTIONALS}")
    report = analyze(c)
    unique = report.verdict != VERDICT_NOT_ERGODIC
    requested = (*functionals, FUNCTIONAL_TRIVIAL) if unique else tuple(functionals)
    rows = args.n + 1
    values = {name: a[:rows] for name, a in orbit(report, rho0, max(args.n, 1), requested).functional_values.items()}
    columns = {  # the trivial distances are one column object, written once
        "n": range(rows),
        "distance_to_fixed_point": values[FUNCTIONAL_TRIVIAL] if unique else [None] * rows,
        "functionals": {name: values[name] for name in functionals},
    }
    sys.stdout.write("\n".join(canonical_json_rows(columns, rows)) + "\n")
    return 0


def _fields(obj, *skip: str) -> dict:
    """The fields of dataclass `obj` by name, without those named in `skip`."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _cmd_dilation(args) -> int:
    doc = _load_json(args.file)
    cross = cross_validate(instance_from_document(doc))
    fact = cross.factorizing
    payload = {
        "validation": {**_fields(fact.validation, "messages"), "passed": fact.validation.passed},
        "factorizing": {
            **_fields(fact, "max_cluster_size", "validation"),
            "states": complex_to_json(fact.states),
            "unitary_eigenvalues": complex_to_json(fact.unitary_eigenvalues),
        },
        "cross_validation": _fields(cross, "factorizing"),
    }
    warnings = [] if cross.agree else ["factorizing and spectral verdicts disagree"]
    _emit(_envelope("dilation", doc, payload, warnings))
    return 0


def _cmd_cesaro(args) -> int:
    c, doc = _load_channel(args.file)
    _require_valid(c)
    rho0 = _parse_state(args.state, c.dim)
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    report = analyze(c)
    fixed_point = report.fixed_points[0] if report.verdict != VERDICT_NOT_ERGODIC else None
    warnings = []
    if fixed_point is None:
        warnings.append("channel has no unique fixed point; distances are omitted")
    checkpoints = sorted({10**k for k in range(0, 5) if 10**k <= args.n} | {args.n})
    averages = cesaro_averages(report.superoperator, rho0, checkpoints)
    rate_table = []
    for n in checkpoints:
        distance = trivial_lyapunov(averages[n], fixed_point) if fixed_point is not None else None
        scaled = (n + 1) * distance if distance is not None else None
        rate_table.append({"n": n, "distance": distance, "n_scaled_distance": scaled})
    final_avg = averages[args.n]
    payload = {
        "n": args.n,
        "average": complex_to_json(final_avg.matrix),
        "distance_to_fixed_point": rate_table[-1]["distance"],
        "rate_table": rate_table,
    }
    _emit(_envelope("cesaro", doc, payload, warnings))
    return 0


def _cmd_zoo_list(args) -> int:
    entries = [{**dataclasses.asdict(spec), "label": spec.label} for spec in catalog()]
    _emit(_envelope("zoo-list", {}, {"channels": entries}))
    return 0


def _parse_params(raw_params) -> dict:
    params = {}
    for item in raw_params or ():
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise UsageError(f"--param {key}: {value!r} is not a number") from exc
    return params


def _cmd_zoo_emit(args) -> int:
    given = _parse_params(args.param)
    try:
        entry = next((spec for spec in catalog() if spec.matches(args.name, args.dim, given)), None)
        dim = (entry or family(args.name)).dim if args.dim is None else args.dim
        if dim is None:
            raise UsageError(f"{args.name} channels need --dim")
        spec = ChannelSpec(args.name, dim, {**(entry.parameters if entry else {}), **given}, None, PROVENANCE_RANDOM)
        if args.instance or family(spec.name).dilation:
            cd = dilation_instance(spec.name, dim=dim, **spec.parameters)
            doc = instance_to_document(cd) if args.instance else stinespring_to_document(cd.dilation, label=spec.label)
        else:
            doc = channel_to_document(build(spec))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(canonical_json(doc) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no environment-dependent default."""
    parser = argparse.ArgumentParser(
        prog="channellab",
        description="Decide whether finite-dimensional quantum channels are ergodic and/or mixing.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomized probes (default: CHANNELLAB_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a channel document for complete positivity and trace preservation")
    p.add_argument("file", help="channel JSON document")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", help="spectral verdict: mixing / ergodic_not_mixing / not_ergodic")
    p.add_argument("file", help="channel JSON document")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force orbit oracle")
    p.add_argument("--nmax", type=int, default=2000, help=f"oracle horizon, >= {ORACLE_MIN_N_MAX} (default 2000)")
    p.add_argument("--tol", type=float, default=ORACLE_TOL,
                   help=f"oracle convergence tolerance, positive (default {ORACLE_TOL:g})")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("orbit", help="stream the orbit of a state as JSON lines")
    p.add_argument("file", help="channel JSON document")
    p.add_argument("--state", required=True, help='initial state: "basis:k", "mixed", or a JSON matrix')
    p.add_argument("--n", type=int, required=True, help="number of steps (>= 0)")
    p.add_argument("--functionals", default="",
                   help=f"comma-separated subset of {', '.join(FUNCTIONALS)}")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("dilation", help="analyze a conserved-observable dilation instance")
    p.add_argument("file", help="dilation instance JSON document")
    p.set_defaults(handler=_cmd_dilation)

    p = sub.add_parser("cesaro", help="Cesaro time average and its distance to the fixed point")
    p.add_argument("file", help="channel JSON document")
    p.add_argument("--state", required=True, help='initial state: "basis:k", "mixed", or a JSON matrix')
    p.add_argument("--n", type=int, required=True, help="number of steps (>= 1)")
    p.set_defaults(handler=_cmd_cesaro)

    p = sub.add_parser("zoo-list", help="list the channel catalog")
    p.set_defaults(handler=_cmd_zoo_list)

    p = sub.add_parser("zoo-emit", help="emit a catalog channel (or dilation instance) as JSON; "
                       "omitted parameters and dimension come from the first matching catalog entry")
    p.add_argument("name", help="channel name, e.g. depolarizing")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="channel parameter (repeatable), e.g. --param p=0.25")
    p.add_argument("--dim", type=int, default=None, help="channel dimension (fixed families accept only their own)")
    p.add_argument("--instance", action="store_true",
                   help="emit the conserved-dilation instance document instead of the channel")
    p.set_defaults(handler=_cmd_zoo_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.seed = _resolve_seed(args.seed)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
