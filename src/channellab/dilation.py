"""Channels generated by a unitary that conserves an additive observable.

For a system-bath unitary U commuting with ``mA (x) I + I (x) mB``, where
the bath is prepared in the eigenvector of mB with a non-degenerate
extremal (largest or smallest) eigenvalue, the induced channel on the
system is mixing exactly when U has one and only one eigenstate that
factorizes as ``|nu>_A (x) |phi>_B``.  This module validates those
hypotheses, counts factorizing eigenstates by intersecting each
U-eigenspace with the ``H_A (x) |phi>`` slice, cross-validates the verdict
against spectral classification of the induced channel, and audits the
conservation bookkeeping along orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import opalg
from . import tolerances as tol
from .channel import (
    DensityMatrix,
    StinespringDilation,
    advance,
    from_stinespring,
    stinespring_from_document,
)
from .errors import HypothesisViolation, InternalInconsistencyError
from .jsonutil import complex_to_json, json_to_matrix
from .spectral import VERDICT_MIXING, VERDICT_NOT_ERGODIC, analyze

EXTREMAL_MAX = "max"
EXTREMAL_MIN = "min"


@dataclass(frozen=True)
class ConservedDilation:
    """A Stinespring dilation together with the conserved additive observable.

    `mA` and `mB` are the Hermitian system/bath summands of the conserved
    observable; `extremal` records whether the bath state targets the
    largest or smallest eigenvalue of `mB`.  Construction checks shapes and
    Hermiticity only; the conservation hypotheses are checked by
    `validate_conserved`.
    """

    dilation: StinespringDilation
    m_a: np.ndarray
    m_b: np.ndarray
    extremal: str

    def __post_init__(self):
        m_a = opalg.as_matrix(self.m_a, square=True, name="mA")
        m_b = opalg.as_matrix(self.m_b, square=True, name="mB")
        if m_a.shape[0] != self.dilation.dim_a:
            raise ValueError(f"mA has dimension {m_a.shape[0]}, dilation system has {self.dilation.dim_a}")
        if m_b.shape[0] != self.dilation.dim_b:
            raise ValueError(f"mB has dimension {m_b.shape[0]}, dilation bath has {self.dilation.dim_b}")
        m_a = opalg.hermitize(m_a, "mA")
        m_b = opalg.hermitize(m_b, "mB")
        if self.extremal not in (EXTREMAL_MAX, EXTREMAL_MIN):
            raise ValueError(f"extremal must be {EXTREMAL_MAX!r} or {EXTREMAL_MIN!r}, got {self.extremal!r}")
        m_a.setflags(write=False)
        m_b.setflags(write=False)
        object.__setattr__(self, "m_a", m_a)
        object.__setattr__(self, "m_b", m_b)

    @property
    def dim_a(self) -> int:
        return self.dilation.dim_a

    @property
    def dim_b(self) -> int:
        return self.dilation.dim_b


@dataclass(frozen=True)
class ConservedValidationReport:
    """Hypothesis check results for a conserved dilation."""

    commutator_defect: float
    bath_eigen_residual: float
    extremal_gap: float
    extremal_eigenvalue: float
    checks: dict
    messages: tuple

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def conserved_observable(cd: ConservedDilation) -> np.ndarray:
    """The additive observable ``mA (x) I + I (x) mB`` on system-bath space."""
    return np.kron(cd.m_a, np.eye(cd.dim_b)) + np.kron(np.eye(cd.dim_a), cd.m_b)


def validate_conserved(cd: ConservedDilation) -> ConservedValidationReport:
    """Check the three hypotheses behind the factorizing-eigenstate criterion.

    (1) the observable commutes with the unitary, (2) the bath state is an
    eigenvector of mB at the requested extremal eigenvalue, and (3) that
    eigenvalue is non-degenerate.
    """
    u = cd.dilation.unitary
    m_ab = conserved_observable(cd)
    commutator_defect = float(np.abs(m_ab @ u - u @ m_ab).max())

    eigs = np.linalg.eigvalsh(cd.m_b)
    if cd.extremal == EXTREMAL_MAX:
        extremal_eigenvalue = float(eigs[-1])
        gap = float(eigs[-1] - eigs[-2]) if eigs.size > 1 else float("inf")
    else:
        extremal_eigenvalue = float(eigs[0])
        gap = float(eigs[1] - eigs[0]) if eigs.size > 1 else float("inf")

    phi = cd.dilation.bath_state
    bath_eigen_residual = float(np.linalg.norm(cd.m_b @ phi - extremal_eigenvalue * phi))

    checks = {
        "commutator": commutator_defect <= tol.COMMUTATOR_TOL,
        "bath_eigenvector": bath_eigen_residual <= tol.BATH_EIGEN_RESIDUAL_TOL,
        "extremal_gap": gap > tol.EXTREMAL_GAP_TOL,
    }
    messages = []
    if not checks["commutator"]:
        messages.append(
            f"commutator hypothesis fails: max|[mA (x) I + I (x) mB, U]| = {commutator_defect:.3e} "
            f"> {tol.COMMUTATOR_TOL:g}"
        )
    if not checks["bath_eigenvector"]:
        messages.append(
            f"bath state is not an eigenvector of mB at the {cd.extremal} eigenvalue "
            f"{extremal_eigenvalue:.6g}: residual {bath_eigen_residual:.3e}"
        )
    if not checks["extremal_gap"]:
        messages.append(
            f"the {cd.extremal} eigenvalue of mB is degenerate: gap {gap:.3e} <= {tol.EXTREMAL_GAP_TOL:g}"
        )
    return ConservedValidationReport(
        commutator_defect=commutator_defect,
        bath_eigen_residual=bath_eigen_residual,
        extremal_gap=gap,
        extremal_eigenvalue=extremal_eigenvalue,
        checks=checks,
        messages=tuple(messages),
    )


@dataclass(frozen=True)
class FactorizingEigenstateReport:
    """Factorizing eigenstates of the dilation unitary inside the bath slice.

    `states` are the system vectors ``|nu>`` with ``|nu> (x) |phi>`` an
    eigenvector of U; `unitary_eigenvalues` and `residuals` are aligned
    with them.  The induced channel is mixing exactly when `count` is 1.
    `validation` is the hypothesis check that the search ran first.
    """

    count: int
    states: tuple
    unitary_eigenvalues: tuple
    verdict: str
    residuals: tuple
    n_clusters: int
    max_cluster_size: int
    has_degenerate_cluster: bool
    validation: ConservedValidationReport = field(repr=False, compare=False)


def _cluster_indices(values: np.ndarray, tol_cluster: float) -> list[np.ndarray]:
    """Single-linkage clusters (transitive closure of ``|v_i - v_j| <= tol``), by smallest index."""
    reach = np.abs(values[:, None] - values[None, :]) <= tol_cluster
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    first = reach.argmax(axis=1)  # smallest index each value reaches
    return [np.flatnonzero(first == i) for i in np.unique(first)]


def find_factorizing_eigenstates(cd: ConservedDilation) -> FactorizingEigenstateReport:
    """Count eigenstates of U of the form ``|nu>_A (x) |phi>_B``.

    Eigenvalues of U are clustered (so factorizing directions hiding
    inside a degenerate eigenspace are found), each cluster's orthonormal
    eigenbasis is compressed onto the bath slice, and singular values of
    the compression equal to 1 mark directions lying entirely in the
    slice.
    """
    report = validate_conserved(cd)
    if not report.passed:
        raise HypothesisViolation(
            "conserved-dilation hypotheses fail: " + "; ".join(report.messages)
        )
    u = cd.dilation.unitary
    t, q = scipy.linalg.schur(u, output="complex")
    off_diag = float(np.abs(t - np.diag(np.diag(t))).max())
    if off_diag > tol.UNITARY_SCHUR_TOL:
        raise InternalInconsistencyError(
            f"Schur form of a unitary should be diagonal; off-diagonal magnitude {off_diag:.3e}"
        )
    eigenvalues = np.diag(t)
    clusters = _cluster_indices(eigenvalues, tol.CLUSTER_TOL)
    max_cluster = max(map(len, clusters))

    phi = cd.dilation.bath_state
    slice_map = np.kron(np.eye(cd.dim_a), phi.conj()[None, :])  # (I_A (x) <phi|)

    states: list[np.ndarray] = []
    lambdas: list[complex] = []
    residuals: list[float] = []
    for members in clusters:
        basis = q[:, members]  # orthonormal eigenbasis of the cluster
        compressed = slice_map @ basis  # dim_a x k
        _, s, vh = np.linalg.svd(compressed, full_matrices=False)
        for i, sv in enumerate(s):
            if sv > 1.0 - tol.FACTORIZING_SV_TOL:
                full_vector = basis @ vh[i].conj()
                nu = slice_map @ full_vector
                nu = nu / np.linalg.norm(nu)
                anchor = int(np.argmax(np.abs(nu)))
                phase = nu[anchor] / abs(nu[anchor])
                nu = nu / phase
                candidate = np.kron(nu, phi)
                lam = complex(candidate.conj() @ (u @ candidate))
                residual = float(np.linalg.norm(u @ candidate - lam * candidate))
                if residual > tol.FACTORIZING_RESIDUAL_TOL:
                    raise InternalInconsistencyError(
                        f"reported factorizing direction is not an eigenstate: residual {residual:.3e}"
                    )
                states.append(nu)
                lambdas.append(lam)
                residuals.append(residual)

    count = len(states)
    if count == 0:
        raise InternalInconsistencyError(
            "no factorizing eigenstate found; at least one must exist for a valid conserved dilation"
        )
    verdict = VERDICT_MIXING if count == 1 else VERDICT_NOT_ERGODIC
    return FactorizingEigenstateReport(
        count=count,
        states=tuple(states),
        unitary_eigenvalues=tuple(lambdas),
        verdict=verdict,
        residuals=tuple(residuals),
        n_clusters=len(clusters),
        max_cluster_size=max_cluster,
        has_degenerate_cluster=max_cluster > 1,
        validation=report,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Agreement between the factorizing-eigenstate count and spectral analysis.

    `factorizing` is the factorizing-eigenstate report that was compared,
    so callers read it here instead of recomputing it.
    """

    factorizing_verdict: str
    spectral_verdict: str
    agree: bool
    count: int
    fixed_point_distance: float | None
    factorizing: FactorizingEigenstateReport = field(repr=False, compare=False)


def cross_validate(cd: ConservedDilation) -> ConsistencyReport:
    """Compare the factorizing-eigenstate verdict with spectral classification.

    Builds the induced channel, classifies it spectrally, and (when both
    agree on mixing) measures the trace distance between the spectral
    fixed point and ``|nu><nu|`` from the factorizing analysis.
    """
    fact = find_factorizing_eigenstates(cd)
    channel = from_stinespring(cd.dilation)
    spectral_report = analyze(channel)
    if fact.verdict == VERDICT_MIXING:
        agree = spectral_report.verdict == VERDICT_MIXING
    else:
        agree = spectral_report.verdict == VERDICT_NOT_ERGODIC
    distance = None
    if fact.verdict == VERDICT_MIXING and spectral_report.verdict == VERDICT_MIXING:
        nu = fact.states[0]
        projector = np.outer(nu, nu.conj())
        distance = opalg.trace_norm(spectral_report.fixed_points[0].matrix - projector)
    return ConsistencyReport(
        factorizing_verdict=fact.verdict,
        spectral_verdict=spectral_report.verdict,
        agree=agree,
        count=fact.count,
        fixed_point_distance=distance,
        factorizing=fact,
    )


@dataclass(frozen=True)
class ConservationAudit:
    """Bookkeeping of the conserved observable along one orbit.

    `system_expectations[k]` is ``Tr[mA tau^k(rho)]``; `bath_outflows[k]`
    is the change of the bath's mB expectation during step k+1.  Because
    the bath starts at an extremal eigenvalue, outflows have a fixed sign:
    non-positive for "max" (the bath can only lose), non-negative for
    "min".  By conservation the system expectation moves opposite to the
    bath, so it is monotone.
    """

    extremal: str
    system_expectations: tuple
    bath_outflows: tuple
    max_sign_violation: float
    max_monotonicity_violation: float


def conservation_audit(cd: ConservedDilation, rho0: DensityMatrix, n: int) -> ConservationAudit:
    """Track system mA expectations and per-step bath mB outflow for `n` steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rho0.dim != cd.dim_a:
        raise ValueError(f"state dimension {rho0.dim} does not match system dimension {cd.dim_a}")
    channel = from_stinespring(cd.dilation)
    u = cd.dilation.unitary
    phi = cd.dilation.bath_state
    bath_input = np.outer(phi, phi.conj())
    bath_reference = float(np.real(np.trace(cd.m_b @ bath_input)))

    states = np.empty((n + 1, cd.dim_a, cd.dim_a), dtype=complex)
    states[0] = rho0.matrix
    advance(channel, states)
    system_expectations = [float(np.real(np.trace(cd.m_a @ state))) for state in states]
    outflows = []
    for state in states[:-1]:
        joint = u @ np.kron(state, bath_input) @ u.conj().T
        bath_out = opalg.partial_trace(joint, cd.dim_a, cd.dim_b, keep="B")
        outflows.append(float(np.real(np.trace(cd.m_b @ bath_out))) - bath_reference)

    # "max": outflow <= 0 and system expectation non-decreasing; "min": both reversed
    sign = -1.0 if cd.extremal == EXTREMAL_MAX else 1.0
    max_sign_violation = max((0.0, *(-sign * flow for flow in outflows)))
    diffs = np.diff(system_expectations)
    max_monotonicity_violation = float(max((0.0, *(sign * d for d in diffs))))
    return ConservationAudit(
        extremal=cd.extremal,
        system_expectations=tuple(system_expectations),
        bath_outflows=tuple(outflows),
        max_sign_violation=max_sign_violation,
        max_monotonicity_violation=max_monotonicity_violation,
    )


def instance_from_document(doc: dict) -> ConservedDilation:
    """Parse ``{"dimA", "dimB", "unitary", "bath_state", "mA", "mB", "extremal"}``."""
    if not isinstance(doc, dict):
        raise ValueError("conserved-dilation document must be a JSON object")
    required = {"dimA", "dimB", "unitary", "bath_state", "mA", "mB", "extremal"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"conserved-dilation document is missing keys: {sorted(missing)}")
    dilation = stinespring_from_document({key: doc[key] for key in ("dimA", "dimB", "unitary", "bath_state")})
    m_a = json_to_matrix(doc["mA"], what="mA")
    m_b = json_to_matrix(doc["mB"], what="mB")
    extremal = doc["extremal"]
    if extremal not in (EXTREMAL_MAX, EXTREMAL_MIN):
        raise ValueError(f'extremal must be "max" or "min", got {extremal!r}')
    return ConservedDilation(dilation=dilation, m_a=m_a, m_b=m_b, extremal=extremal)


def instance_to_document(cd: ConservedDilation) -> dict:
    return {
        "dimA": cd.dim_a,
        "dimB": cd.dim_b,
        "unitary": complex_to_json(cd.dilation.unitary),
        "bath_state": complex_to_json(cd.dilation.bath_state),
        "mA": complex_to_json(cd.m_a),
        "mB": complex_to_json(cd.m_b),
        "extremal": cd.extremal,
    }
