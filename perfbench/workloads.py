"""Seeded inputs and request lists of the three benchmark workloads.

Every input is generated here with numpy (Haar-random channels, the
completely decoherent d-cycle, block direct sums, conserved dilations) or
emitted by the program's own ``zoo-emit`` command (the catalog).  A
`Request` pairs one CLI argv with a check that compares its stdout with
`reference`, which never imports ``channellab``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

DENSE_DIMS = (16, 24, 32)
# The d=32 direct sum is left out to keep a round near 30 s (see README).
DIRECT_SUM_DIMS = (16, 24)
DENSE_RANK = 2
# Unitarily conjugated direct sums lose a fixed point in `spectral.analyze`
# (only the Hermitized eigenvectors that happen to be PSD are kept).  Their
# inputs do not depend on --seed, so the failure is the same in every run.
CONJUGATED_SUM_BLOCKS = ((8, 8),)
CONJUGATED_SUM_SEED = 20240605

ORACLE_DIMS = (8, 12, 16)
ORACLE_NMAX = 2000
ORACLE_TOL = 1e-8

ORBIT_STEPS = 2000
CESARO_STEPS = 10_000
TRAJECTORY_DIMS = (4, 8)
DILATION_SIZES = (3, 5, 8)


# --- inputs ------------------------------------------------------------------------


def to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def kraus_document(kraus: np.ndarray, label: str) -> dict:
    return {"dim": int(kraus.shape[1]), "label": label, "kraus": [to_pairs(k) for k in kraus]}


def kraus_from_document(doc: dict) -> np.ndarray:
    """Kraus operators of a channel document, Kraus or Stinespring form."""
    if "kraus" in doc:
        return np.stack([ref.matrix_from_json(k) for k in doc["kraus"]])
    sub = doc["stinespring"]
    dim_a, dim_b = sub["dimA"], sub["dimB"]
    u = ref.matrix_from_json(sub["unitary"])
    phi = ref.vector_from_json(sub["bath_state"])
    u = u.reshape(dim_a, dim_b, dim_a, dim_b)
    # K_n = (I (x) <n|) U (I (x) |phi>)
    return np.einsum("anbm,m->nab", u, phi)


def haar_kraus(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus operators of a Haar-random isometry C^d -> C^d (x) C^rank."""
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r).conj() / np.abs(np.diag(r)))
    return q.reshape(rank, d, d)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return haar_kraus(d, 1, rng)[0]


def cycle_kraus(d: int) -> np.ndarray:
    """``K_j = |j+1 mod d><j|``: populations rotate, coherences are destroyed."""
    ops = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        ops[j, (j + 1) % d, j] = 1.0
    return ops


def direct_sum(blocks) -> np.ndarray:
    """Kraus set of ``tau_1 (+) tau_2``: each block's operators padded with zeros."""
    d = sum(b.shape[1] for b in blocks)
    ops, offset = [], 0
    for b in blocks:
        n = b.shape[1]
        for k in b:
            m = np.zeros((d, d), dtype=complex)
            m[offset : offset + n, offset : offset + n] = k
            ops.append(m)
        offset += n
    return np.stack(ops)


def random_state(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def distinct_values(m: int, rng: np.random.Generator, low: float, high: float, gap: float) -> np.ndarray:
    """`m` sorted values in [low, high) with every pairwise gap above `gap`."""
    while True:
        v = np.sort(rng.uniform(low, high, m))
        if m < 2 or np.diff(v).min() > gap:
            return v


@dataclass
class ChannelCase:
    """One channel input and how its expected spectral answer is obtained."""

    label: str
    kraus: np.ndarray
    family: str                      # random, cycle, direct-sum, conjugated-sum, catalog
    doc: dict
    blocks: tuple = ()
    emit_argv: tuple = ()            # zoo-emit arguments of a catalog entry

    @property
    def dim(self) -> int:
        return int(self.kraus.shape[1])

    @cached_property
    def answer(self) -> ref.SpectralAnswer:
        if self.family == "cycle":
            return ref.cycle_answer(self.dim)
        if self.blocks:
            return ref.answer_from_blocks(self.blocks)
        return ref.answer_from_eigenvalues(np.linalg.eigvals(ref.superoperator(self.kraus)))

    @cached_property
    def fixed_point(self):
        return None if self.answer.verdict == ref.NOT_ERGODIC else ref.unique_fixed_point(self.kraus)

    @cached_property
    def unital(self) -> bool:
        return ref.is_unital(self.kraus)

    def functionals(self) -> tuple:
        """Every functional the orbit command can evaluate and that has a known direction."""
        names = ("trivial", "relative_entropy") if self.answer.verdict != ref.NOT_ERGODIC else ()
        return names + (("von_neumann",) if self.unital else ())


@dataclass
class DilationCase:
    label: str
    doc: dict
    count: int
    verdict: str
    bath_state: np.ndarray | None    # set when the single factorizing state is known


@dataclass
class Request:
    """One CLI call of a workload: its argv, figure group and output check."""

    kind: str                        # validate, classify, classify-oracle, orbit, cesaro, dilation
    group: str
    label: str
    argv: list
    check: Callable[[str], list]
    known_fault: bool = False        # may fail with an incomplete fixed-point set, and only so
    steps: int = 0                   # orbit states streamed, or Cesaro horizon

    def excused(self, problems: list) -> bool:
        """True when every problem is the known fault that this request carries."""
        return self.known_fault and all(p.startswith(ref.INCOMPLETE_FIXED_POINTS) for p in problems)


# --- checks ----------------------------------------------------------------------


def _envelope(stdout: str, command: str) -> dict:
    env = json.loads(stdout)
    if env.get("command") != command:
        raise ValueError(f"envelope command {env.get('command')!r}, expected {command!r}")
    return env["report"]


def check_validate(case: ChannelCase) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        report = _envelope(stdout, "validate")
        gram = sum(k.conj().T @ k for k in case.kraus)
        defect = float(np.abs(gram - np.eye(case.dim)).max())
        problems = []
        if report.get("passed") is not True or not all(report.get("checks", {}).values()):
            problems.append(f"valid channel reported as failing: {report.get('messages')}")
        if report.get("dim") != case.dim:
            problems.append(f"dim {report.get('dim')}, expected {case.dim}")
        if abs(ref.number(report.get("completeness_defect")) - defect) > 1e-12:
            problems.append(f"completeness defect {report.get('completeness_defect')}, recomputed {defect!r}")
        return problems

    return check


def check_classify(case: ChannelCase, oracle: bool) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        report = _envelope(stdout, "classify")
        problems = ref.check_classify(
            report, case.kraus, case.answer,
            independent_fixed_points=case.family == "conjugated-sum",
        )
        if oracle:
            problems += ref.check_oracle(report, case.answer, ORACLE_TOL)
        return problems

    return check


def check_orbit(case: ChannelCase, rho0: np.ndarray, n: int) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        lines = [json.loads(line) for line in stdout.splitlines()]
        distances = ref.orbit_reference(case.kraus, rho0, n, case.fixed_point)
        return ref.check_orbit(lines, distances, case.functionals(), case.unital)

    return check


def check_cesaro(case: ChannelCase, rho0: np.ndarray, n: int) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        report = _envelope(stdout, "cesaro")
        table = ref.cesaro_reference(case.kraus, rho0, n, case.fixed_point)
        return ref.check_cesaro(report, table, n, case.fixed_point)

    return check


def check_dilation(case: DilationCase) -> Callable[[str], list]:
    def check(stdout: str) -> list:
        return ref.check_dilation(_envelope(stdout, "dilation"), case.count, case.verdict, case.bath_state)

    return check


def memoized(check: Callable[[str], list]) -> Callable[[str], list]:
    """Rounds repeat the same requests; identical output needs checking once."""
    seen: dict = {}

    def run(stdout: str) -> list:
        if stdout not in seen:
            seen.clear()
            seen[stdout] = check(stdout)
        return seen[stdout]

    return run


# --- building ----------------------------------------------------------------------


class Builder:
    """Writes input documents into `workdir` and collects the requests."""

    def __init__(self, seed: int, workdir: Path, cli_main: Callable):
        self.requests: list = []
        self.seed = seed
        self.workdir = workdir
        self.cli_main = cli_main
        self._files = 0

    def write(self, doc: dict, stem: str) -> str:
        self._files += 1
        path = self.workdir / f"{self._files:03d}-{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def emit(self, argv: list) -> dict:
        """A document from the program's ``zoo-emit`` command."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli_main(["zoo-emit", *argv])
        if code != 0:
            raise RuntimeError(f"zoo-emit {argv} exited with {code}")
        return json.loads(buf.getvalue())

    def add(self, kind: str, group: str, label: str, argv: list, check, **kw) -> None:
        self.requests.append(Request(kind, group, label, argv, memoized(check), **kw))

    def catalog(self) -> list:
        """Every catalog entry as a `ChannelCase` built from its emitted document."""
        from channellab import zoo

        cases = []
        for spec in zoo.catalog():
            argv = [spec.name]
            for key in sorted(spec.parameters):
                argv += ["--param", f"{key}={spec.parameters[key]!r}"]
            doc = self.emit(argv)
            cases.append(ChannelCase(spec.label, kraus_from_document(doc), "catalog", doc, emit_argv=tuple(argv)))
        return cases

def build(name: str, seed: int, workdir: Path, cli_main: Callable) -> list:
    """The request list (one round) of workload `name` for `seed`, with documents in `workdir`."""
    b = Builder(seed, workdir, cli_main)
    {"dense-classify": _dense, "oracle-crosscheck": _oracle, "trajectories": _trajectories}[name](b)
    return b.requests


def _dense(b: Builder) -> None:
    rng = np.random.default_rng([b.seed, 1])
    cases = []
    for d in DENSE_DIMS:
        k = haar_kraus(d, DENSE_RANK, rng)
        cases.append(ChannelCase(f"random-d{d}", k, "random", kraus_document(k, f"random-d{d}")))
        k = cycle_kraus(d)
        cases.append(ChannelCase(f"cycle-d{d}", k, "cycle", kraus_document(k, f"cycle-d{d}")))
        if d in DIRECT_SUM_DIMS:
            blocks = (haar_kraus(d // 2, DENSE_RANK, rng), haar_kraus(d - d // 2, DENSE_RANK, rng))
            k = direct_sum(blocks)
            cases.append(ChannelCase(f"sum-d{d}", k, "direct-sum", kraus_document(k, f"sum-d{d}"), blocks))
    fixed = np.random.default_rng(CONJUGATED_SUM_SEED)
    for a, c in CONJUGATED_SUM_BLOCKS:
        blocks = (haar_kraus(a, DENSE_RANK, fixed), haar_kraus(c, DENSE_RANK, fixed))
        u = haar_unitary(a + c, fixed)
        k = u @ direct_sum(blocks) @ u.conj().T
        label = f"conjugated-sum-d{a + c}"
        cases.append(ChannelCase(label, k, "conjugated-sum", kraus_document(k, label), blocks))
    for case in cases:
        path = b.write(case.doc, case.label)
        fault = case.family == "conjugated-sum"
        b.add("validate", f"validate_d{case.dim}", case.label, ["validate", path], check_validate(case))
        b.add("classify", f"classify_d{case.dim}", case.label, ["classify", path], check_classify(case, False),
              known_fault=fault)


def _oracle(b: Builder) -> None:
    rng = np.random.default_rng([b.seed, 2])
    oracle_argv = ["--oracle", "--nmax", str(ORACLE_NMAX), "--tol", repr(ORACLE_TOL)]
    seed_argv = ["--seed", str(b.seed)]
    for case in b.catalog():
        path = b.write(case.doc, "catalog")
        b.add("classify-oracle", "classify_oracle_catalog", case.label, [*seed_argv, "classify", path, *oracle_argv],
              check_classify(case, True))
    for d in ORACLE_DIMS:
        k = haar_kraus(d, DENSE_RANK, rng)
        case = ChannelCase(f"random-d{d}", k, "random", kraus_document(k, f"random-d{d}"))
        path = b.write(case.doc, case.label)
        b.add("classify-oracle", f"classify_oracle_d{d}", case.label, [*seed_argv, "classify", path, *oracle_argv],
              check_classify(case, True))


def _trajectories(b: Builder) -> None:
    rng = np.random.default_rng([b.seed, 3])
    cases = b.catalog()
    for d in TRAJECTORY_DIMS:
        k = haar_kraus(d, int(rng.integers(2, 4)), rng)
        cases.append(ChannelCase(f"random-d{d}", k, "random", kraus_document(k, f"random-d{d}")))
    for i, case in enumerate(cases):
        path = b.write(case.doc, "trajectory")
        # pure and full-rank initial states alternate
        rho0 = random_state(case.dim, 1 if i % 2 == 0 else case.dim, rng)
        state = json.dumps(to_pairs(rho0))
        functionals = case.functionals()
        argv = ["orbit", path, "--state", state, "--n", str(ORBIT_STEPS)]
        if functionals:
            argv += ["--functionals", ",".join(functionals)]
        b.add("orbit", "orbit", case.label, argv, check_orbit(case, rho0, ORBIT_STEPS), steps=ORBIT_STEPS + 1)
        b.add("cesaro", "cesaro", case.label, ["cesaro", path, "--state", state, "--n", str(CESARO_STEPS)],
              check_cesaro(case, rho0, CESARO_STEPS), steps=CESARO_STEPS)
    for case in _dilation_cases(b, rng):
        path = b.write(case.doc, "dilation")
        b.add("dilation", "dilation", case.label, ["dilation", path], check_dilation(case))


def _dilation_doc(u: np.ndarray, m_a: np.ndarray, m_b: np.ndarray, bath: np.ndarray) -> dict:
    return {
        "dimA": int(m_a.shape[0]),
        "dimB": int(m_b.shape[0]),
        "unitary": to_pairs(u),
        "bath_state": [[float(z.real), float(z.imag)] for z in bath],
        "mA": to_pairs(m_a),
        "mB": to_pairs(m_b),
        "extremal": "max",
    }


def _dilation_cases(b: Builder, rng: np.random.Generator) -> list:
    """Catalog instances plus generated partial swaps (count 1) and phase unitaries (count dimA)."""
    cases = [
        DilationCase("partial-swap-dilation", b.emit(["partial-swap-dilation", "--instance"]), 1,
                     ref.MIXING, np.array([1.0, 0.0], dtype=complex)),
        DilationCase("cz-dilation", b.emit(["cz-dilation", "--instance"]), 2, ref.NOT_ERGODIC, None),
    ]
    for m in DILATION_SIZES:
        # cos(theta) I + i sin(theta) SWAP commutes with mA (x) I + I (x) mA; the
        # only eigenstate |nu> (x) |top> of it is |top> (x) |top>.
        levels = np.diag(distinct_values(m, rng, -1.0, 1.0, 0.05)).astype(complex)
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        swap = np.eye(m * m, dtype=complex).reshape(m, m, m, m).transpose(0, 1, 3, 2).reshape(m * m, m * m)
        u = math.cos(theta) * np.eye(m * m) + 1j * math.sin(theta) * swap
        top = np.zeros(m, dtype=complex)
        top[-1] = 1.0
        cases.append(DilationCase(f"partial-swap-m{m}", _dilation_doc(u, levels, levels, top), 1,
                                  ref.MIXING, top))
        # A diagonal unitary conserves every diagonal observable; every
        # |a> (x) |top> is an eigenstate, and distinct phases keep them apart.
        phases = distinct_values(m * m, rng, 0.0, 2 * math.pi - 0.01, 1e-3)
        u = np.diag(np.exp(1j * rng.permutation(phases)))
        levels = np.diag(distinct_values(m, rng, -1.0, 1.0, 0.05)).astype(complex)
        cases.append(DilationCase(f"phase-m{m}", _dilation_doc(u, levels, levels, top), m,
                                  ref.NOT_ERGODIC, None))
    return cases
