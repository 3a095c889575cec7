"""Dense complex linear-algebra kernel.

All operations work on square (or rectangular, where noted) complex
``numpy`` arrays in double precision.  Eigen-decompositions of general
matrices go through the complex Schur form (unitary similarity to upper
triangular), so eigenvalues stay reliable even for defective inputs;
eigenvectors are recovered by triangular back-substitution from a Schur
pair that callers may already hold, and report their worst residual.
Tolerances come from :mod:`channellab.tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import tolerances as tol


def as_matrix(m, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, checking finiteness (and squareness)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from `m` to its own adjoint."""
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def hermitize(m, name: str) -> np.ndarray:
    """``(m + m^dag) / 2`` of a square matrix whose Hermiticity defect is within ``HERMITICITY_TOL``."""
    a = as_matrix(m, square=True, name=name)
    defect = hermiticity_defect(a)
    if defect > tol.HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: defect {defect:.3e}")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with matching eigenvector columns and their residual.

    `residual` is the max over pairs of ``||A v - lambda v||_2``.
    Eigenvector columns have unit 2-norm.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def schur(m) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur pair ``(t, z)`` with ``m = z @ t @ z^dag``.

    `t` is upper triangular with the eigenvalues on its diagonal and `z`
    is unitary.  Solver failures propagate as ``numpy.linalg.LinAlgError``.
    """
    return scipy.linalg.schur(as_matrix(m, square=True), output="complex")


def general_eig(m, schur_pair: tuple | None = None) -> EigenSystem:
    """Full complex eigendecomposition of a general square matrix.

    Route: the complex Schur pair ``(t, z)`` of `m` (computed here with
    `schur`, or passed in as `schur_pair` when the caller already holds
    it), eigenvalues read off the triangular diagonal, eigenvectors of `t`
    recovered by one back-substitution sweep over all columns at once and
    rotated back with `z`.  Near-zero diagonal differences are floored at
    machine precision times the matrix scale, so defective inputs yield
    eigenvectors of the achievable quality with honest residuals.  Output
    is sorted by decreasing modulus, then by phase angle.
    """
    a = as_matrix(m, square=True)
    n = a.shape[0]
    t, z = schur(a) if schur_pair is None else schur_pair
    vals = np.diag(t).copy()
    scale = max(1.0, float(np.abs(t).max(initial=0.0)))
    floor = np.finfo(float).eps * scale
    # Column k of y solves (t - vals[k]) y = 0 with y[k] = 1 and y[k+1:] = 0;
    # row i of every column depends only on rows below it.
    y = np.eye(n, dtype=complex)
    for i in range(n - 2, -1, -1):
        d = t[i, i] - vals[i + 1 :]
        d[np.abs(d) < floor] = floor
        y[i, i + 1 :] = -(t[i, i + 1 :] @ y[i + 1 :, i + 1 :]) / d
    vecs = z @ y
    # Free y before the sort and the residuals add their n x n temporaries.
    del y
    vecs /= np.linalg.norm(vecs, axis=0)
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    res = np.linalg.norm(a @ vecs - vecs * vals[np.newaxis, :], axis=0)
    return EigenSystem(vals, vecs, float(res.max(initial=0.0)))


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v.conj().T``.

    Singular values are nonnegative descending; `u` and `v` have
    orthonormal columns.
    """
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def trace_norm(m) -> float:
    """Sum of singular values.  For states this induces the trace
    distance with no 1/2 factor: orthogonal pure states are at distance 2."""
    a = as_matrix(m, square=True)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root.

    Accepts Hermitian input (within ``HERMITICITY_TOL``) whose eigenvalues
    are nonnegative up to rounding; negatives above ``-PSD_REJECT`` are
    clipped to zero, anything below that is rejected.
    """
    w, v = np.linalg.eigh(hermitize(m, "psd_sqrt input"))
    if w.size and w.min() < -tol.PSD_REJECT:
        raise ValueError(f"matrix is materially non-PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product with block layout ``a[i, j] * b``."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on ``H_A (x) H_B``.

    Composite indices follow the `kron` layout (A is the slow factor).
    ``keep="A"`` returns a dim_a x dim_a matrix, ``keep="B"`` the other
    marginal; the full trace is preserved either way.
    """
    a = as_matrix(m, square=True)
    if dim_a <= 0 or dim_b <= 0 or a.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"partial_trace: matrix of shape {a.shape} does not factor as ({dim_a}*{dim_b})^2"
        )
    blocks = a.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", blocks)
    if keep == "B":
        return np.einsum("ijik->jk", blocks)
    raise ValueError(f'keep must be "A" or "B", got {keep!r}')
