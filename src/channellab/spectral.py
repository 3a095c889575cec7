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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import opalg
from . import tolerances as tol
from .channel import DensityMatrix, KrausChannel, Superoperator, from_bloch, step, to_bloch, to_superoperator, unvec, vec
from .channel import _trace_distances
from .errors import InternalInconsistencyError
from .jsonutil import complex_to_json

VERDICT_MIXING = "mixing"
VERDICT_ERGODIC_NOT_MIXING = "ergodic_not_mixing"
VERDICT_NOT_ERGODIC = "not_ergodic"


@dataclass(frozen=True)
class SpectralReport:
    """Classification of one channel from its superoperator spectrum.

    The report is the analysis object of one request: `channel` and its
    `superoperator` (with the real Schur pair of its Bloch matrix) are
    built once by `analyze` and carried here, so later steps read them
    instead of rebuilding them.
    `fixed_points` holds `eigenvalue_one_multiplicity` linearly
    independent fixed states, so they span the fixed-point set (exactly
    one when the verdict is not `not_ergodic`).  `peripheral_eigenvectors`
    pairs one unit-norm eigenvector with each entry of `peripheral`, and
    `max_residual` is the largest ``||S v - lambda v||_2 = ||R w - lambda w||_2``
    over those pairs.  `near_cluster_boundary` flags eigenvalues that sit within a
    decade of the clustering tolerance around 1, where the multiplicity
    count is ill-conditioned.
    """

    dim: int
    spectrum: np.ndarray
    peripheral: np.ndarray
    kappa: float
    eigenvalue_one_multiplicity: int
    verdict: str
    fixed_points: tuple
    fixed_point_purity: float | None
    peripheral_eigenvectors: tuple = field(repr=False)
    near_cluster_boundary: bool
    max_residual: float
    channel: KrausChannel = field(repr=False, compare=False)
    superoperator: Superoperator = field(repr=False, compare=False)


def _by_modulus(values: np.ndarray) -> np.ndarray:
    """Indices that sort `values` by decreasing modulus, then by phase angle."""
    return np.lexsort((np.angle(values), -np.abs(values)))


def _fixed_states(leading: np.ndarray, block: np.ndarray, multiplicity: int) -> tuple:
    """`multiplicity` linearly independent fixed states spanning the fixed-point set.

    The orthonormal columns of `leading` span, in Bloch coordinates, the
    peripheral invariant subspace of the superoperator, which acts there
    as the real matrix `block`.  The fixed-point space is spanned by the
    right singular vectors of ``block - I`` with the `multiplicity`
    smallest singular values, mapped back through `leading`; they are
    real Bloch coordinates, so the operators are Hermitian by
    construction.  Each is split into its positive and negative parts,
    which are fixed as well (M. Wolf, Quantum Channels & Operations:
    Guided Tour, 2012, ch. 6).  Parts whose trace is at or below
    ``FIXED_POINT_PSD_TOL`` times their element's trace norm are dropped,
    the rest are normalized to unit trace, and a pivoted QR picks
    `multiplicity` linearly independent ones.
    """
    _, _, vh = np.linalg.svd(block - np.eye(len(block)))
    parts = []
    for h in map(unvec, from_bloch(leading @ vh[-multiplicity:].T).T):
        pos, neg = (opalg.map_eigenvalues(x, lambda w: np.clip(w, 0.0, None), "fixed-point basis")
                    for x in (h, -h))
        norm = pos.trace().real + neg.trace().real
        parts += [x / x.trace().real for x in (pos, neg) if x.trace().real > tol.FIXED_POINT_PSD_TOL * norm]
    r, pivots = scipy.linalg.qr(np.stack([x.ravel() for x in parts], axis=1), mode="r", pivoting=True)
    scale = np.abs(np.diag(r))
    rank = int((scale > tol.FIXED_POINT_PSD_TOL * scale[0]).sum())
    if rank < multiplicity:
        raise InternalInconsistencyError(
            f"the positive and negative parts of the fixed-point basis have rank {rank}, "
            f"but the eigenvalue-1 multiplicity is {multiplicity}"
        )
    return tuple(DensityMatrix(parts[i]) for i in pivots[:multiplicity])


def analyze(c: KrausChannel) -> SpectralReport:
    """Build the superoperator of channel `c` and classify it.

    Eigenvalues within ``CLUSTER_TOL`` of 1 form the fixed-point cluster;
    its size decides ergodicity.  Eigenvalues of modulus above
    ``1 - PERIPHERAL_TOL`` are peripheral; mixing requires the fixed-point
    cluster to be the entire peripheral set and simple.  The spectrum
    comes with the real Schur pair of the superoperator's Bloch matrix;
    fixed points and peripheral eigenvectors come from the leading block
    of that pair once LAPACK ``dtrsen`` has reordered it to put the
    peripheral 1x1 and 2x2 blocks first.  A failed reordering raises
    ``numpy.linalg.LinAlgError``.
    """
    s = to_superoperator(c)
    spectrum = s.eigenvalues[_by_modulus(s.eigenvalues)]
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

    # a conjugate pair has one modulus, so both halves of a 2x2 block are selected together
    select = np.abs(s.eigenvalues) > 1.0 - tol.PERIPHERAL_TOL
    t, z, *_, info = scipy.linalg.lapack.dtrsen(select, *s.schur, job="N")
    if info != 0:
        raise np.linalg.LinAlgError(f"reordering the Schur form failed (dtrsen info {info})")
    p = int(select.sum())
    leading, block = z[:, :p], t[:p, :p]
    fixed_points = _fixed_states(leading, block, multiplicity)
    purity = fixed_points[0].purity() if multiplicity == 1 else None

    values, vectors = np.linalg.eig(block)
    order = _by_modulus(values)
    w = leading @ vectors[:, order]  # Bloch coordinates, with R w = (R leading) vectors; U keeps the norms
    residuals = np.linalg.norm((s.bloch @ leading) @ vectors[:, order] - w * values[order], axis=0)
    vectors = from_bloch(w)

    return SpectralReport(
        dim=c.dim,
        spectrum=spectrum,
        peripheral=spectrum[peripheral_mask],
        kappa=kappa,
        eigenvalue_one_multiplicity=multiplicity,
        verdict=verdict,
        fixed_points=fixed_points,
        fixed_point_purity=purity,
        peripheral_eigenvectors=tuple(unvec(v) for v in vectors.T),
        near_cluster_boundary=near_boundary,
        max_residual=float(residuals.max()),
        channel=c,
        superoperator=s,
    )


def report_to_payload(report: SpectralReport) -> dict:
    """JSON payload for a spectral report."""
    return {
        "spectrum": complex_to_json(report.spectrum),
        "peripheral": complex_to_json(report.peripheral),
        "kappa": report.kappa,
        "verdict": report.verdict,
        "fixed_points": [complex_to_json(dm.matrix) for dm in report.fixed_points],
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
    fixed_vec, v = to_bloch(np.stack([vec(report.fixed_points[0].matrix), vec(rho0.matrix)], axis=1)).real.T
    window = np.empty((len(v), hi - lo + 1))
    for n in range(1, hi + 1):
        v = report.superoperator.bloch @ v
        if n >= lo:
            window[:, n - lo] = v
    distances = _trace_distances(window, fixed_vec[:, None])
    usable = distances > tol.DISTANCE_FLOOR
    if usable.sum() < 2:
        raise ValueError(
            f"fewer than two usable distances above {tol.DISTANCE_FLOOR:g} in window [{lo}, {hi}]; "
            "the orbit has already converged - shrink the window"
        )
    ns = np.arange(lo, hi + 1)[usable].astype(float)
    logs = np.log(distances[usable])
    slope, intercept = np.polyfit(ns, logs, 1)
    fit_residual = float(np.abs(logs - (slope * ns + intercept)).max())
    return ConvergenceEstimate(
        empirical_rate=float(np.exp(slope)),
        kappa=report.kappa,
        n_range=(lo, hi),
        n_points=len(ns),
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
    r, w = report.superoperator.bloch, to_bloch(vec(theta))
    residual = float(np.linalg.norm(r @ w.real + 1j * (r @ w.imag) - eigenvalue * w))  # two real products
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
