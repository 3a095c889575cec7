"""Spectral classification of channels.

A CPT map is mixing exactly when the only peripheral eigenvalue of its
superoperator is 1 and that eigenvalue is simple; it is ergodic (unique
fixed point) exactly when the eigenvalue-1 cluster is simple, regardless
of other peripheral eigenvalues.  This module computes that verdict, the
gap ``kappa`` (modulus of the largest non-peripheral eigenvalue), fixed
points, the ``c * n^dim * kappa^n`` convergence-bound template, empirical
rate fits, the pure-fixed-point shortcut (ergodic + pure fixed point
implies mixing), peripheral-eigenvector normality checks, and polar
reconstruction of fixed points from peripheral eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opalg
from . import tolerances as tol
from .channel import DensityMatrix, KrausChannel, Superoperator, step, to_superoperator, unvec, vec
from .errors import InternalInconsistencyError
from .jsonutil import complex_to_pair, matrix_to_json

VERDICT_MIXING = "mixing"
VERDICT_ERGODIC_NOT_MIXING = "ergodic_not_mixing"
VERDICT_NOT_ERGODIC = "not_ergodic"


@dataclass(frozen=True)
class SpectralReport:
    """Classification of one channel from its superoperator spectrum.

    The report is the analysis object of one request: `channel` and its
    `superoperator` (with the Schur pair) are built once by `analyze` and
    carried here, so later steps read them instead of rebuilding them.
    `fixed_points` holds the eigenvalue-1 eigenvectors that survive
    Hermitization, positivity, and trace normalization (exactly one when
    the verdict is not `not_ergodic`).  `fixed_point_basis` keeps the full
    Hermitized candidate basis even when candidates fail positivity, which
    happens only for degenerate fixed-point sets.  `near_cluster_boundary`
    flags eigenvalues that sit within a decade of the clustering tolerance
    around 1, where the multiplicity count is ill-conditioned.
    """

    dim: int
    spectrum: np.ndarray
    peripheral: np.ndarray
    kappa: float
    eigenvalue_one_multiplicity: int
    verdict: str
    fixed_points: tuple
    fixed_point_basis: tuple = field(repr=False)
    fixed_point_purity: float | None
    peripheral_eigenvectors: tuple = field(repr=False)
    near_cluster_boundary: bool
    max_residual: float
    channel: KrausChannel = field(repr=False, compare=False)
    superoperator: Superoperator = field(repr=False, compare=False)


def _density_from_candidate(candidate: np.ndarray, psd_tol: float) -> DensityMatrix | None:
    """Density matrix from a fixed-point candidate, or None.

    Normalizes the trace, Hermitizes, and clips eigenvalues above
    ``-psd_tol`` to zero.  Returns None when the candidate is traceless or
    has an eigenvalue below ``-psd_tol`` after Hermitization.
    """
    trace = candidate.trace()
    if abs(trace) < tol.TRACELESS_TOL:
        return None
    herm = candidate / trace
    herm = (herm + herm.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    if w[0] < -psd_tol:
        return None
    w = np.clip(w, 0.0, None)
    cleaned = (v * w) @ v.conj().T
    return DensityMatrix((cleaned + cleaned.conj().T) / 2.0 / cleaned.trace().real)


def analyze(c: KrausChannel) -> SpectralReport:
    """Build the superoperator of channel `c` and classify it.

    Eigenvalues within ``CLUSTER_TOL`` of 1 form the fixed-point cluster;
    its size decides ergodicity.  Eigenvalues of modulus above
    ``1 - PERIPHERAL_TOL`` are peripheral; mixing requires the fixed-point
    cluster to be the entire peripheral set and simple.
    """
    s = to_superoperator(c)
    system = opalg.general_eig(s.matrix, s.schur)
    spectrum = system.eigenvalues
    moduli = np.abs(spectrum)
    peripheral_mask = moduli > 1.0 - tol.PERIPHERAL_TOL
    one_mask = np.abs(spectrum - 1.0) <= tol.CLUSTER_TOL
    multiplicity = int(one_mask.sum())
    if multiplicity == 0:
        raise InternalInconsistencyError(
            "no eigenvalue within the cluster tolerance of 1; every CPT map has a fixed point"
        )

    non_peripheral = moduli[~peripheral_mask]
    kappa = float(non_peripheral.max()) if non_peripheral.size else 0.0

    near_boundary = bool(
        np.any((np.abs(spectrum - 1.0) > tol.CLUSTER_TOL) & (np.abs(spectrum - 1.0) <= 10 * tol.CLUSTER_TOL))
        or np.any((moduli <= 1.0 - tol.PERIPHERAL_TOL) & (moduli > 1.0 - 10 * tol.PERIPHERAL_TOL))
    )

    if multiplicity > 1:
        verdict = VERDICT_NOT_ERGODIC
    elif int(peripheral_mask.sum()) == 1:
        verdict = VERDICT_MIXING
    else:
        verdict = VERDICT_ERGODIC_NOT_MIXING

    fixed_points: list[DensityMatrix] = []
    basis: list[np.ndarray] = []
    one_indices = np.flatnonzero(one_mask)
    if multiplicity == 1:
        theta = unvec(system.eigenvectors[:, one_indices[0]])
        dm = _density_from_candidate(theta, tol.FIXED_POINT_PSD_TOL)
        if dm is None:
            raise InternalInconsistencyError(
                "eigenvalue-1 eigenvector is traceless or not PSD after Hermitization "
                "although the eigenvalue-1 multiplicity is 1"
            )
        fixed_points.append(dm)
        basis.append(dm.matrix)
    else:
        for idx in one_indices:
            x = unvec(system.eigenvectors[:, idx])
            herm = (x + x.conj().T) / 2.0
            anti = (x - x.conj().T) / 2.0j
            pick = herm if np.linalg.norm(herm) >= np.linalg.norm(anti) else anti
            norm = np.linalg.norm(pick)
            if norm > 0:
                pick = pick / norm
            basis.append(pick)
            dm = _density_from_candidate(pick, tol.PSD_CLIP)
            if dm is not None:
                fixed_points.append(dm)

    purity = fixed_points[0].purity() if multiplicity == 1 else None

    peripheral_vectors = tuple(
        unvec(system.eigenvectors[:, i]) / np.linalg.norm(system.eigenvectors[:, i])
        for i in np.flatnonzero(peripheral_mask)
    )

    return SpectralReport(
        dim=c.dim,
        spectrum=spectrum,
        peripheral=spectrum[peripheral_mask],
        kappa=kappa,
        eigenvalue_one_multiplicity=multiplicity,
        verdict=verdict,
        fixed_points=tuple(fixed_points),
        fixed_point_basis=tuple(basis),
        fixed_point_purity=purity,
        peripheral_eigenvectors=peripheral_vectors,
        near_cluster_boundary=near_boundary,
        max_residual=system.residual,
        channel=c,
        superoperator=s,
    )


def report_to_payload(report: SpectralReport) -> dict:
    """JSON payload for a spectral report."""
    return {
        "spectrum": [complex_to_pair(z) for z in report.spectrum],
        "peripheral": [complex_to_pair(z) for z in report.peripheral],
        "kappa": report.kappa,
        "verdict": report.verdict,
        "fixed_points": [matrix_to_json(dm.matrix) for dm in report.fixed_points],
        "purity": report.fixed_point_purity,
        "eigenvalue_one_multiplicity": report.eigenvalue_one_multiplicity,
        "near_cluster_boundary": report.near_cluster_boundary,
        "max_residual": report.max_residual,
    }


def convergence_bound(report: SpectralReport, n: int, c_n: float) -> float:
    """Distance-bound template ``c_n * n^dim * kappa^n`` for mixing channels.

    With ``kappa = 0`` the template vanishes for every ``n >= 1``
    (finite-step convergence).  The constant `c_n` is supplied by the
    caller; see `calibrate_speed_constant`.
    """
    if report.verdict != VERDICT_MIXING:
        raise ValueError(f"convergence bound applies to mixing channels only, verdict is {report.verdict}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return float(c_n) * float(n**report.dim) * float(report.kappa**n)


def calibrate_speed_constant(report: SpectralReport, rho0: DensityMatrix) -> float:
    """Fix the bound constant from the first orbit step.

    Returns the measured distance after one step divided by the bound
    template at ``n = 1``.  Channels with ``kappa = 0`` converge in
    finitely many steps and admit no finite first-step constant.
    """
    if report.verdict != VERDICT_MIXING:
        raise ValueError(f"calibration applies to mixing channels only, verdict is {report.verdict}")
    if report.kappa <= tol.DISTANCE_FLOOR:
        raise ValueError(
            "kappa is zero: the bound template vanishes for n >= 1 (finite-step convergence); "
            "no finite constant reproduces the first step"
        )
    fixed = report.fixed_points[0]
    d1 = opalg.trace_norm(step(report.channel, rho0.matrix) - fixed.matrix)
    return d1 / report.kappa


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Least-squares decay rate of the orbit distance to the fixed point."""

    empirical_rate: float
    kappa: float
    n_range: tuple
    n_points: int
    fit_residual: float


def default_fit_window(dim: int) -> tuple[int, int]:
    """Fit window that skips the polynomial transient: [max(5, 2 dim), 50]."""
    return max(5, 2 * dim), 50


def estimate_rate(
    report: SpectralReport,
    rho0: DensityMatrix,
    n_min: int | None = None,
    n_max: int | None = None,
) -> ConvergenceEstimate:
    """Fit ``log ||tau^n(rho0) - rho*||_1`` against `n` over a window.

    Requires a mixing channel with ``kappa > 0``.  Distances below
    ``DISTANCE_FLOOR`` are dropped from the fit; if fewer than two points
    remain the window is unusable and a diagnostic error is raised.
    """
    if report.verdict != VERDICT_MIXING:
        raise ValueError(f"rate estimation requires a mixing channel, verdict is {report.verdict}")
    if report.kappa <= tol.DISTANCE_FLOOR:
        raise ValueError("kappa is zero: the orbit converges in finitely many steps; no rate to fit")
    lo, hi = default_fit_window(report.dim)
    if n_min is not None:
        lo = n_min
    if n_max is not None:
        hi = n_max
    if not 1 <= lo < hi:
        raise ValueError(f"invalid fit window [{lo}, {hi}]")
    fixed_vec = vec(report.fixed_points[0].matrix)
    v = vec(rho0.matrix)
    points = []
    for n in range(1, hi + 1):
        v = report.superoperator.matrix @ v
        if n < lo:
            continue
        dist = opalg.trace_norm(unvec(v - fixed_vec))
        if dist > tol.DISTANCE_FLOOR:
            points.append((n, math.log(dist)))
    if len(points) < 2:
        raise ValueError(
            f"fewer than two usable distances above {tol.DISTANCE_FLOOR:g} in window [{lo}, {hi}]; "
            "the orbit has already converged - shrink the window"
        )
    ns = np.array([p[0] for p in points], dtype=float)
    logs = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(ns, logs, 1)
    fit_residual = float(np.abs(logs - (slope * ns + intercept)).max())
    return ConvergenceEstimate(
        empirical_rate=float(np.exp(slope)),
        kappa=report.kappa,
        n_range=(lo, hi),
        n_points=len(points),
        fit_residual=fit_residual,
    )


@dataclass(frozen=True)
class ShortcutResult:
    """Outcome of the pure-fixed-point shortcut.

    When an ergodic channel has a pure fixed point it must be mixing, so
    `verdict` is "mixing" whenever `applicable`; `consistent` records
    whether the spectral verdict already said so (a disagreement would
    mean a numerical failure, not a counterexample).
    """

    applicable: bool
    verdict: str | None
    consistent: bool
    purity: float | None


def purely_ergodic_shortcut(report: SpectralReport) -> ShortcutResult:
    if report.verdict == VERDICT_NOT_ERGODIC:
        raise ValueError("shortcut requires an ergodic channel (unique fixed point)")
    purity = report.fixed_point_purity
    applicable = purity is not None and purity >= 1.0 - tol.PURITY_PURE_TOL
    if not applicable:
        return ShortcutResult(False, None, True, purity)
    return ShortcutResult(True, VERDICT_MIXING, report.verdict == VERDICT_MIXING, purity)


@dataclass(frozen=True)
class NormalityRecord:
    eigenvalue: complex
    defect: float


def peripheral_normality_check(report: SpectralReport) -> list[NormalityRecord]:
    """Normality defect ``max|Theta Theta^dag - Theta^dag Theta|`` per peripheral eigenvector.

    For ergodic channels every peripheral eigenvector is a normal
    operator, so the defects should vanish; the check is unavailable for
    channels with a degenerate fixed-point set.
    """
    if report.verdict == VERDICT_NOT_ERGODIC:
        raise ValueError("normality check requires an ergodic channel")
    records = []
    for lam, theta in zip(report.peripheral, report.peripheral_eigenvectors):
        defect = float(np.abs(theta @ theta.conj().T - theta.conj().T @ theta).max())
        records.append(NormalityRecord(complex(lam), defect))
    return records


def polar_fixed_point(
    report: SpectralReport, theta, eigenvalue: complex
) -> tuple[DensityMatrix, DensityMatrix]:
    """Fixed points reconstructed from a peripheral eigenvector.

    For an eigenvector Theta of the superoperator at a peripheral
    eigenvalue, ``sqrt(Theta Theta^dag)/g`` and ``sqrt(Theta^dag Theta)/g``
    with ``g = ||Theta||_1`` are fixed points of the channel.  Both are
    returned after verifying fixedness within ``FIXED_POINT_RESIDUAL_TOL``.
    """
    theta = opalg.as_matrix(theta, square=True, name="peripheral eigenvector")
    if theta.shape != (report.dim, report.dim):
        raise ValueError(f"eigenvector shape {theta.shape} does not match channel dim {report.dim}")
    if abs(eigenvalue) < 1.0 - tol.PERIPHERAL_TOL:
        raise ValueError(f"eigenvalue {eigenvalue} is not peripheral")
    norm = np.linalg.norm(theta)
    if norm < tol.ZERO_NORM_TOL:
        raise ValueError("eigenvector is (near-)zero")
    theta = theta / norm
    residual = float(np.linalg.norm(report.superoperator.matrix @ vec(theta) - eigenvalue * vec(theta)))
    if residual > tol.FIXED_POINT_RESIDUAL_TOL:
        raise ValueError(
            f"(theta, eigenvalue) is not an eigenpair of the superoperator: residual {residual:.3e}"
        )
    g = opalg.trace_norm(theta)
    if g <= tol.POLAR_TRACE_NORM_TOL:
        raise ValueError("trace norm of the eigenvector is numerically zero")
    rho = DensityMatrix(opalg.psd_sqrt(theta @ theta.conj().T) / g)
    sigma = DensityMatrix(opalg.psd_sqrt(theta.conj().T @ theta) / g)
    for dm in (rho, sigma):
        defect = opalg.trace_norm(step(report.channel, dm.matrix) - dm.matrix)
        if defect > tol.FIXED_POINT_RESIDUAL_TOL:
            raise InternalInconsistencyError(
                f"polar reconstruction is not fixed: ||tau(rho) - rho||_1 = {defect:.3e}"
            )
    return rho, sigma
