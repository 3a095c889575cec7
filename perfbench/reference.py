"""Reference checker for the benchmark, written with numpy alone.

Nothing here imports ``channellab``.  Every expected value is either
computed from the explicit Kraus sum of the input (superoperator,
``numpy.linalg.eigvals``, Kraus iteration, SVD trace norms) or known by
construction of the input family.  Each ``check_*`` function takes the
parsed CLI output plus the input description and returns a list of
problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ONE_TOL = 1e-6            # |lambda - 1| below this counts as eigenvalue 1
PERIPHERAL_TOL = 1e-6     # |lambda| above 1 - this counts as peripheral
KAPPA_TOL = 1e-8
PERIPHERAL_MATCH_TOL = 1e-8
FIXED_POINT_TOL = 1e-7    # ||tau(rho) - rho||_1 for a returned fixed point
DENSITY_TOL = 1e-9        # PSD slack and trace defect of returned states
DISTANCE_TOL = 1e-9       # orbit / Cesaro distances and averages
MONOTONE_TOL = 1e-9
RANK_TOL = 1e-6           # singular value floor for linear independence
DILATION_TOL = 1e-7

INCOMPLETE_FIXED_POINTS = "incomplete fixed-point set: "   # tags the one problem of the known fault

MIXING = "mixing"
ERGODIC_NOT_MIXING = "ergodic_not_mixing"
NOT_ERGODIC = "not_ergodic"
ORACLE_MIXING = "mixing"
ORACLE_NOT_MIXING = "not_mixing_within_horizon"


# --- linear algebra ------------------------------------------------------------


def superoperator(kraus) -> np.ndarray:
    """Explicit Kraus sum ``sum_n conj(K_n) (x) K_n`` (column-stacking vec)."""
    return sum(np.kron(np.conj(k), k) for k in kraus)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``sum_n K_n rho K_n^dag`` for a stacked (r, d, d) Kraus array."""
    return (kraus @ rho @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def is_unital(kraus) -> bool:
    d = kraus[0].shape[0]
    return float(np.abs(sum(k @ k.conj().T for k in kraus) - np.eye(d)).max()) <= 1e-12


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def vector_from_json(entries) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


def number(x) -> float:
    """A JSON number, with the ``"inf"`` / ``"-inf"`` sentinels of canonical JSON."""
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


# --- expected spectral answers ------------------------------------------------


@dataclass(frozen=True)
class SpectralAnswer:
    """What classification must report for one channel."""

    verdict: str
    multiplicity: int
    kappa: float
    peripheral: np.ndarray


def answer_from_eigenvalues(eigs: np.ndarray) -> SpectralAnswer:
    """Verdict, eigenvalue-1 multiplicity, kappa and peripheral set from a spectrum."""
    moduli = np.abs(eigs)
    peripheral = moduli > 1.0 - PERIPHERAL_TOL
    multiplicity = int((np.abs(eigs - 1.0) <= ONE_TOL).sum())
    rest = moduli[~peripheral]
    kappa = float(rest.max()) if rest.size else 0.0
    if multiplicity > 1:
        verdict = NOT_ERGODIC
    elif int(peripheral.sum()) == 1:
        verdict = MIXING
    else:
        verdict = ERGODIC_NOT_MIXING
    return SpectralAnswer(verdict, multiplicity, kappa, eigs[peripheral])


def answer_from_blocks(blocks) -> SpectralAnswer:
    """Answer for the direct sum of channels given as Kraus lists.

    The superoperator of ``tau_1 (+) tau_2`` is block diagonal: the spectra
    of the summands plus zeros on the cross blocks.  A unitary conjugate
    has the same spectrum.  The zeros never raise kappa, so they are left out.
    """
    return answer_from_eigenvalues(np.concatenate([np.linalg.eigvals(superoperator(b)) for b in blocks]))


def cycle_answer(d: int) -> SpectralAnswer:
    """Completely decoherent d-cycle: peripheral spectrum is the d-th roots of unity."""
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    return SpectralAnswer(ERGODIC_NOT_MIXING, 1, 0.0, roots)


def unique_fixed_point(kraus) -> np.ndarray:
    """The fixed density matrix of a channel whose eigenvalue 1 is simple."""
    s = superoperator(kraus)
    w, v = np.linalg.eig(s)
    k = int(np.argmin(np.abs(w - 1.0)))
    d = kraus[0].shape[0]
    rho = v[:, k].reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2.0


# --- checks ----------------------------------------------------------------------


def _match_multiset(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    if got.size != want.size:
        return False
    left = list(want)
    for z in got:
        dist = [abs(z - w) for w in left]
        if not dist:
            return False
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        left.pop(j)
    return True


def check_fixed_point(kraus: np.ndarray, rho: np.ndarray, what: str) -> list[str]:
    problems = []
    herm = (rho + rho.conj().T) / 2.0
    if float(np.abs(rho - herm).max()) > DENSITY_TOL:
        problems.append(f"{what} is not Hermitian")
    if float(np.linalg.eigvalsh(herm).min()) < -DENSITY_TOL:
        problems.append(f"{what} is not PSD")
    if abs(np.trace(rho) - 1.0) > DENSITY_TOL:
        problems.append(f"{what} has trace {np.trace(rho):.12g}")
    residual = trace_norm(apply_kraus(kraus, rho) - rho)
    if residual > FIXED_POINT_TOL:
        problems.append(f"{what} is not fixed: ||tau(rho) - rho||_1 = {residual:.3e}")
    return problems


def check_classify(report: dict, kraus: np.ndarray, answer: SpectralAnswer, *,
                   independent_fixed_points: bool = False) -> list[str]:
    """Spectral part of a ``classify`` report against the expected answer."""
    problems = []
    if report.get("verdict") != answer.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {answer.verdict!r}")
    if report.get("eigenvalue_one_multiplicity") != answer.multiplicity:
        problems.append(
            f"eigenvalue-1 multiplicity {report.get('eigenvalue_one_multiplicity')}, "
            f"expected {answer.multiplicity}"
        )
    kappa = number(report.get("kappa", math.nan))
    if not abs(kappa - answer.kappa) <= KAPPA_TOL:
        problems.append(f"kappa {kappa!r}, expected {answer.kappa!r}")
    peripheral = np.array([complex(re, im) for re, im in report.get("peripheral", [])])
    if not _match_multiset(peripheral, answer.peripheral, PERIPHERAL_MATCH_TOL):
        problems.append(f"peripheral set {peripheral}, expected {answer.peripheral}")
    fixed = [matrix_from_json(m) for m in report.get("fixed_points", [])]
    if not fixed:
        problems.append("no fixed point returned")
    for i, rho in enumerate(fixed):
        problems += check_fixed_point(kraus, rho, f"fixed point {i}")
    if independent_fixed_points:
        problems += check_independent(fixed, answer.multiplicity)
    return problems


def check_independent(fixed: list, multiplicity: int) -> list[str]:
    """The fixed points must span the whole eigenvalue-1 eigenspace."""
    if not fixed:
        return [f"{INCOMPLETE_FIXED_POINTS}0 of {multiplicity} independent fixed points returned"]
    stacked = np.stack([m.ravel() for m in fixed], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int((sv > RANK_TOL * sv[0]).sum())
    if len(fixed) != multiplicity or rank != multiplicity:
        return [f"{INCOMPLETE_FIXED_POINTS}{rank} linearly independent fixed points of {len(fixed)} returned, "
                f"eigenvalue-1 multiplicity is {multiplicity}"]
    return []


def check_oracle(report: dict, answer: SpectralAnswer, tol: float) -> list[str]:
    """Oracle part of ``classify --oracle``: the verdict follows from the spectrum."""
    problems = []
    oracle = report.get("oracle")
    if not isinstance(oracle, dict):
        return ["report has no oracle section"]
    expected = ORACLE_MIXING if answer.verdict == MIXING else ORACLE_NOT_MIXING
    if oracle.get("verdict") != expected:
        problems.append(f"oracle verdict {oracle.get('verdict')!r}, expected {expected!r}")
    if report.get("oracle_agrees") is not True:
        problems.append(f"oracle_agrees is {report.get('oracle_agrees')!r}")
    final = number(oracle.get("final_max_distance", math.nan))
    trailing = number(oracle.get("trailing_max_distance", math.nan))
    converged = final < tol and trailing < tol
    if converged != (expected == ORACLE_MIXING):
        problems.append(f"oracle distances {final:.3e}/{trailing:.3e} contradict {expected!r}")
    return problems


def kraus_orbit(kraus: np.ndarray, rho0: np.ndarray, n: int, chunk: int = 1024):
    """States ``tau^k(rho0)`` for k = 0..n by Kraus iteration, yielded as stacked chunks."""
    rho, buf = rho0, []
    for k in range(n + 1):
        if k:
            rho = apply_kraus(kraus, rho)
            rho = (rho + rho.conj().T) / 2.0
        buf.append(rho)
        if len(buf) == chunk or k == n:
            yield np.stack(buf)
            buf = []


def trace_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def orbit_reference(kraus: np.ndarray, rho0: np.ndarray, n: int, fixed_point) -> list:
    """Distances ``||tau^k(rho0) - rho*||_1`` for k = 0..n (None without a fixed point)."""
    if fixed_point is None:
        return [None] * (n + 1)
    return [float(x) for states in kraus_orbit(kraus, rho0, n) for x in trace_norms(states - fixed_point)]


def check_orbit(lines: list, distances: list, functionals: tuple, unital: bool) -> list[str]:
    """``orbit`` JSON lines against recomputed distances and monotonicity."""
    problems = []
    if len(lines) != len(distances):
        return [f"{len(lines)} orbit lines, expected {len(distances)}"]
    for k, (line, want) in enumerate(zip(lines, distances)):
        if line.get("n") != k:
            problems.append(f"line {k} has n = {line.get('n')}")
            break
        got = line.get("distance_to_fixed_point")
        if want is None:
            if got is not None:
                problems.append(f"line {k}: distance {got} reported without a unique fixed point")
                break
        elif got is None or abs(number(got) - want) > DISTANCE_TOL:
            problems.append(f"line {k}: distance {got}, recomputed {want!r}")
            break
        if sorted(line.get("functionals", {})) != sorted(functionals):
            problems.append(f"line {k}: functionals {sorted(line.get('functionals', {}))}")
            break
    if problems:
        return problems
    for name in functionals:
        series = [number(line["functionals"][name]) for line in lines]
        if name == "trivial":
            worst = max(abs(a - b) for a, b in zip(series, distances))
            if worst > DISTANCE_TOL:
                problems.append(f"trivial functional deviates from the distance by {worst:.3e}")
        if name in ("trivial", "relative_entropy") or (name == "von_neumann" and unital):
            sign = -1.0 if name == "von_neumann" else 1.0
            for k in range(1, len(series)):
                before, after = sign * series[k - 1], sign * series[k]
                if math.isinf(before) and before > 0:
                    continue
                if after > before + MONOTONE_TOL:
                    direction = "decreases" if sign < 0 else "increases"
                    problems.append(f"{name} {direction} at step {k}: {series[k - 1]!r} -> {series[k]!r}")
                    break
    return problems


def cesaro_checkpoints(n: int) -> list:
    """Rows of the ``cesaro`` rate table: powers of ten up to 10^4 that are <= n, and n."""
    return sorted({10**k for k in range(5) if 10**k <= n} | {n})


def cesaro_reference(kraus: np.ndarray, rho0: np.ndarray, n: int, fixed_point):
    """Averages and summed orbit distances at each checkpoint, by Kraus iteration.

    Returns ``{n_c: (average, sum_{l<=n_c} ||tau^l(rho0) - rho*||_1)}``.
    """
    wanted = cesaro_checkpoints(n)
    out = {}
    first, acc, dist_acc = 0, np.zeros_like(rho0), 0.0
    for states in kraus_orbit(kraus, rho0, n):
        sums = np.cumsum(states, axis=0) + acc
        dists = np.cumsum(trace_norms(states - fixed_point)) + dist_acc if fixed_point is not None else None
        for m in wanted:
            if first <= m < first + len(states):
                out[m] = (sums[m - first] / (m + 1), float(dists[m - first]) if dists is not None else 0.0)
        first += len(states)
        acc = sums[-1]
        dist_acc = dists[-1] if dists is not None else 0.0
    return out


def check_cesaro(report: dict, reference: dict, n: int, fixed_point) -> list[str]:
    problems = []
    avg = matrix_from_json(report.get("average", [[[math.nan, 0.0]]]))
    want, _ = reference[n]
    if avg.shape != want.shape or float(np.abs(avg - want).max()) > DISTANCE_TOL:
        problems.append("Cesaro average differs from the Kraus-iterated average")
    rows = report.get("rate_table", [])
    expected_ns = cesaro_checkpoints(n)
    if [row.get("n") for row in rows] != expected_ns:
        problems.append(f"rate table rows {[row.get('n') for row in rows]}, expected {expected_ns}")
        return problems
    final = report.get("distance_to_fixed_point")
    if fixed_point is None:
        if final is not None or any(row.get("distance") is not None for row in rows):
            problems.append("distances reported without a unique fixed point")
        return problems
    if final is None or abs(number(final) - trace_norm(want - fixed_point)) > DISTANCE_TOL:
        problems.append(f"final distance {final}, recomputed {trace_norm(want - fixed_point)!r}")
    for row in rows:
        m = row["n"]
        avg_m, sum_m = reference[m]
        dist = trace_norm(avg_m - fixed_point)
        got = number(row.get("distance"))
        if abs(got - dist) > DISTANCE_TOL:
            problems.append(f"rate table n={m}: distance {got!r}, recomputed {dist!r}")
        scaled = number(row.get("n_scaled_distance"))
        if scaled > sum_m + DISTANCE_TOL * (m + 1):
            problems.append(f"rate table n={m}: (n+1)*distance {scaled!r} exceeds the orbit sum {sum_m!r}")
    return problems


def check_dilation(report: dict, count: int, verdict: str, bath_state: np.ndarray | None) -> list[str]:
    """Dilation counts and verdicts against the answer known by construction.

    When `bath_state` is given (generalized partial swaps) the single
    factorizing system vector must be that state up to phase, and the
    spectral fixed point must be its projector.
    """
    problems = []
    fact = report.get("factorizing", {})
    cross = report.get("cross_validation", {})
    if report.get("validation", {}).get("passed") is not True:
        problems.append("conservation hypotheses reported as failing")
    if fact.get("count") != count:
        problems.append(f"factorizing count {fact.get('count')}, expected {count}")
    if fact.get("verdict") != verdict:
        problems.append(f"factorizing verdict {fact.get('verdict')!r}, expected {verdict!r}")
    if cross.get("spectral_verdict") != verdict or cross.get("agree") is not True:
        problems.append(f"cross validation {cross.get('spectral_verdict')!r}/{cross.get('agree')!r}")
    if bath_state is not None and not problems:
        nu = vector_from_json(fact["states"][0])
        overlap = abs(np.vdot(bath_state, nu)) / np.linalg.norm(nu)
        if abs(overlap - 1.0) > DILATION_TOL:
            problems.append(f"factorizing state overlaps the bath state by {overlap!r}")
        dist = cross.get("fixed_point_distance")
        if dist is None or number(dist) > DILATION_TOL:
            problems.append(f"fixed point distance {dist!r}")
    return problems
