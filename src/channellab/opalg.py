"""Dense linear-algebra kernel.

All operations work on square (or rectangular, where noted) ``numpy``
arrays in double precision, complex unless noted.  A channel's
eigenvalues come from the real Schur pair of its real Bloch matrix
(`channel.Superoperator`): an orthogonal similarity to upper
quasi-triangular form, which stays reliable even for defective inputs.
Functions of Hermitian matrices share one route (`map_eigenvalues`):
checked Hermitization, ``eigh``, a map on the eigenvalues, and a rebuild.
Tolerances come from :mod:`channellab.tolerances`.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from . import tolerances as tol


def as_matrix(m, *, square: bool = False, name: str = "matrix", dtype=complex) -> np.ndarray:
    """Coerce to a 2-D array of `dtype`, checking finiteness (and squareness)."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
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


def schur(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real Schur pair ``(t, z)`` of a real matrix, ``m = z @ t @ z.T``, and its eigenvalues.

    `t` is upper quasi-triangular: a 1x1 diagonal block holds a real
    eigenvalue and a 2x2 block a complex conjugate pair; `z` is
    orthogonal.  The eigenvalues ``wr + i wi`` come from the same LAPACK
    ``dgees`` call, in the order of the diagonal blocks.  Solver failures
    raise ``numpy.linalg.LinAlgError``.
    """
    a = as_matrix(m, square=True, dtype=float)
    gees = functools.partial(scipy.linalg.lapack.dgees, lambda *_: None, a)  # no eigenvalue sorting
    t, _, wr, wi, z, _, info = gees(lwork=int(gees(lwork=-1)[-2][0]))  # workspace query first
    if info != 0:
        raise np.linalg.LinAlgError(f"real Schur form not found (dgees info {info})")
    return t, z, wr + 1j * wi


def trace_norm(m) -> float:
    """Sum of singular values.  For states this induces the trace
    distance with no 1/2 factor: orthogonal pure states are at distance 2."""
    a = as_matrix(m, square=True)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def map_eigenvalues(m, f, name: str) -> np.ndarray:
    """``v f(w) v^dag`` for the eigenpairs ``(w, v)`` of the Hermitian matrix `m`.

    `m` is Hermitized by `hermitize` (which checks it), `f` maps the
    ascending eigenvalue array, and the result is Hermitized again.
    """
    w, v = np.linalg.eigh(hermitize(m, name))
    out = (v * f(w)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root.

    Accepts Hermitian input (within ``HERMITICITY_TOL``) whose eigenvalues
    are nonnegative up to rounding; negatives above ``-PSD_REJECT`` are
    clipped to zero, anything below that is rejected.
    """

    def root(w: np.ndarray) -> np.ndarray:
        if w.size and w.min() < -tol.PSD_REJECT:
            raise ValueError(f"matrix is materially non-PSD: min eigenvalue {w.min():.3e}")
        return np.sqrt(np.clip(w, 0.0, None))

    return map_eigenvalues(m, root, "psd_sqrt input")


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on ``H_A (x) H_B``.

    Composite indices follow the ``np.kron`` layout (A is the slow factor).
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
