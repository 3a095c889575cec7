"""Channel representations and CPT validation.

A channel is held as its Kraus set ``tau(rho) = sum_n K_n rho K_n^dag``.
The matrix form acts on column-stacked vectorizations, ``vec(A X B) =
(B^T (x) A) vec(X)``, so the superoperator is ``S = sum_n conj(K_n) (x)
K_n``.  A channel maps Hermitian operators to Hermitian operators, so in
an orthonormal Hermitian basis (the Bloch basis of `from_bloch`: diagonal
matrix units and normalized symmetric and antisymmetric off-diagonal
pairs) its matrix is the real Bloch matrix ``R = U^dag S U``, a Pauli
transfer matrix with the spectrum of S, which `to_superoperator` builds
from the Kraus stack in real arithmetic.  Stinespring dilations
``tau(rho) = Tr_B[U (rho (x) |phi><phi|) U^dag]`` convert to Kraus sets
by slicing the unitary along a bath basis.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm

from . import opalg
from . import tolerances as tol
from .jsonutil import complex_to_json, json_to_matrix, json_to_vector


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of `vec` for square matrices."""
    v = np.asarray(v, dtype=complex).ravel()
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError(f"vector of length {len(v)} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


@functools.lru_cache(maxsize=None)
def _bloch_positions(d: int) -> tuple:
    """Vec positions of the diagonal, of every ``E_jk`` and of every ``E_kj`` (``j < k``) of d x d matrices.

    They index the Bloch basis: the d diagonal units ``E_jj``, then
    ``(E_jk + E_kj) / sqrt(2)``, then ``(-i E_jk + i E_kj) / sqrt(2)`` for
    the pairs ``j < k`` in `numpy.triu_indices` order.  The basis is
    orthonormal and Hermitian, and each element has at most two nonzero
    entries, so a change of basis is index arithmetic.
    """
    j, k = np.triu_indices(d, 1)
    out = (np.arange(d) * (d + 1), j + k * d, k + j * d)
    for a in out:
        a.setflags(write=False)
    return out


def to_bloch(y: np.ndarray) -> np.ndarray:
    """Bloch coordinates ``U^dag y`` of the vectorized d x d operators in the columns of `y`."""
    diagonal, upper, lower = _bloch_positions(math.isqrt(y.shape[0]))
    a, b = y[upper], y[lower]
    return np.concatenate([y[diagonal], (a + b) * math.sqrt(0.5), (a - b) * (1j * math.sqrt(0.5))])


def from_bloch(x: np.ndarray) -> np.ndarray:
    """Vectorized operators ``U x`` with the Bloch coordinates in the columns of `x`.

    Real coordinates give Hermitian operators exactly: the entries at
    ``(j, k)`` and ``(k, j)`` are computed as complex conjugates.
    """
    d = math.isqrt(x.shape[0])
    diagonal, upper, lower = _bloch_positions(d)
    n = len(upper)
    a, b = x[d : d + n] * math.sqrt(0.5), x[d + n :] * math.sqrt(0.5)
    out = np.empty(x.shape, dtype=complex)
    out[diagonal] = x[:d]
    out[upper] = a - 1j * b
    out[lower] = a + 1j * b
    return out


def _squares(r: np.ndarray, top: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(b, R^(2^b))`` for each bit b of `top`, lowest first, with R = `r` a Bloch matrix; a square is formed only
    when a higher bit follows.  If R keeps the trace (its first d rows sum to the trace row), each square is divided
    like a `step` by the trace it gives I/d, so roundoff in the eigenvalue 1 cannot compound; others are kept as is."""
    dim = math.isqrt(len(r))
    keeps_trace = np.abs(r[:dim].sum(0) - (np.arange(len(r)) < dim)).max() <= dim * tol.KRAUS_COMPLETENESS_TOL
    for bit in range(top.bit_length()):
        yield bit, r
        if top >> bit > 1:
            r = r @ r
            if keeps_trace:
                r /= r[:dim, :dim].sum() / dim


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace norm of the difference of each column of `a` and the same column of `b`, in Bloch coordinates.

    Finite columns near the double range can still differ beyond it, so a
    norm that is not finite raises ``numpy.linalg.LinAlgError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _trace_norms(a - b)


def _trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norm of each Hermitian operator with its Bloch coordinates in a column of `x`, by one ``eigvalsh``; a
    norm that is not finite raises ``numpy.linalg.LinAlgError``."""
    dim = math.isqrt(x.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        operators = from_bloch(x).T.reshape(-1, dim, dim)  # Hermitian, read transposed
        norms = np.abs(np.linalg.eigvalsh(operators)).sum(axis=1)
    if not np.isfinite(norms).all():
        raise np.linalg.LinAlgError("trace distances of the advanced states are not finite")
    return norms


def _bloch_real(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``Re(U^dag X U)`` for ``X = re + i im``, with `re` and `im` (d, d, d, d) views of d^2 x d^2 matrices.

    ``U^dag = Phi W``, with W the real pair butterflies (diagonal units, sums and differences over sqrt(2))
    and Phi = i on the difference rows: ``W re W^T`` on the sum-sum and difference-difference blocks, ``W im
    W^T`` on the mixed ones, negated below the diagonal.  It is formed one half at a time."""
    d = re.shape[0]
    diagonal, upper, lower = _bloch_positions(d)
    n, k = len(upper), d * d - len(upper)
    r = np.empty((d * d, d * d))
    for x, y, combine, cols in ((re, im, np.add, slice(d, k)), (im, re, np.subtract, slice(k, None))):
        h = np.empty((d * d, d, d))  # rows by strided slices: diagonal units and pair sums of x, pair differences of y
        h[:d] = x[range(d), range(d)]
        for a in range(d - 1):
            o = d + a * (2 * d - a - 1) // 2
            np.add(x[a + 1 :, a], x[a, a + 1 :], out=h[o : o + d - 1 - a])
            np.subtract(y[a + 1 :, a], y[a, a + 1 :], out=h[o + n : o + n + d - 1 - a])
        h = h.reshape(d * d, d * d)
        h[d:] *= math.sqrt(0.5)
        if combine is np.add:
            r[:, :d] = h[:, diagonal]
        r[:, cols] = np.take(h, upper, axis=1)  # columns by whole-row gathers: sums of x rows, differences of y rows
        combine(r[:, cols], np.take(h, lower, axis=1), out=r[:, cols])
        del h  # freed before the next half
    r[:, d:] *= math.sqrt(0.5)
    r[k:, :k] *= -1.0
    return r


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, PSD (within clip tolerance), unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = opalg.hermitize(self.matrix, "density matrix")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -tol.PSD_CLIP:
            raise ValueError(f"density matrix not PSD: min eigenvalue {eigs.min():.3e}")
        trace_defect = abs(m.trace().real - 1.0)
        if trace_defect > tol.TRACE_TOL or abs(m.trace().imag) > tol.TRACE_TOL:
            raise ValueError(f"density matrix trace defect {trace_defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @classmethod
    def pure(cls, state_vector) -> "DensityMatrix":
        v = np.asarray(state_vector, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm < tol.ZERO_NORM_TOL:
            raise ValueError("state vector has (near-)zero norm")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "DensityMatrix":
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        return cls.pure(np.eye(dim, dtype=complex)[k])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class KrausChannel:
    """A channel held as a nonempty stack of square Kraus operators.

    `kraus_ops` is one read-only (r, dim, dim) complex array; iterating,
    indexing and ``len`` see the r operators.  Construction checks shapes
    only; CPT membership is a separate, reported check (`validate_cpt`).
    """

    dim: int
    kraus_ops: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        ops = [opalg.as_matrix(k, square=True, name="Kraus operator") for k in self.kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {k.shape} does not match dim {self.dim}")
        ops = np.stack(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)


@dataclass(frozen=True, init=False)
class Superoperator:
    """Matrix of a channel's linear extension, held as its real Bloch matrix ``bloch = U^dag S U``.

    ``Superoperator(dim, matrix)`` takes any S and rejects it when ``U^dag S U`` has an imaginary part above
    ``HERMITICITY_TOL`` (S does not keep operators Hermitian); ``Superoperator(dim, bloch=R)`` takes a real R.
    Construction computes the real Schur pair ``schur = (t, z)``, ``bloch = z @ t @ z.T``, and from the same
    call the `eigenvalues` (the spectrum of S, in the order of the diagonal blocks of `t`) that the
    spectral-radius gate reads.  The complex `matrix` S is the given one, or ``U R U^dag`` on first read.
    """

    dim: int
    bloch: np.ndarray = field(repr=False, compare=False)
    schur: tuple = field(repr=False, compare=False)
    eigenvalues: np.ndarray = field(repr=False, compare=False)

    def __init__(self, dim: int, matrix=None, *, bloch: np.ndarray | None = None):
        object.__setattr__(self, "dim", dim)
        self.__post_init__(matrix, bloch)

    def __post_init__(self, matrix, bloch):
        if bloch is None:
            m = opalg.as_matrix(matrix, square=True, name="superoperator")
            if m.shape[0] != self.dim * self.dim:
                raise ValueError(f"superoperator shape {m.shape} does not match dim {self.dim}")
            x = m.reshape((self.dim,) * 4)
            defect = float(np.abs(_bloch_real(x.imag, -x.real)).max())  # Im(U^dag S U) = Re(U^dag (-i S) U)
            if defect > tol.HERMITICITY_TOL:
                raise ValueError(f"superoperator does not preserve Hermiticity: imaginary Bloch part {defect:.3e}")
            bloch = _bloch_real(x.real, x.imag)
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        t, z, eigenvalues = opalg.schur(bloch)
        radius = float(np.abs(eigenvalues).max())
        if radius > 1.0 + tol.SPECTRAL_RADIUS_TOL:
            raise ValueError(f"superoperator spectral radius {radius:.12f} exceeds 1")
        for a in (bloch, t, z, eigenvalues):
            a.setflags(write=False)
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "schur", (t, z))
        object.__setattr__(self, "eigenvalues", eigenvalues)

    matrix = functools.cached_property(lambda self: power(self, 1))  # S = U R U^dag, formed on first read


@dataclass(frozen=True)
class StinespringDilation:
    """Unitary system-bath evolution with a pure bath state."""

    dim_a: int
    dim_b: int
    unitary: np.ndarray
    bath_state: np.ndarray

    def __post_init__(self):
        if self.dim_a <= 0 or self.dim_b <= 0:
            raise ValueError("dilation dimensions must be positive")
        d = self.dim_a * self.dim_b
        u = opalg.as_matrix(self.unitary, square=True, name="dilation unitary")
        if u.shape != (d, d):
            raise ValueError(f"unitary shape {u.shape} does not match dimA*dimB = {d}")
        # Finite entries can overflow in the product; a non-finite one is not unitary.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = u.conj().T @ u
            defect = float(np.abs(gram - np.eye(d)).max()) if np.isfinite(gram).all() else np.inf
        if defect > tol.UNITARITY_TOL:
            raise ValueError(f"dilation matrix is not unitary: defect {defect:.3e}")
        phi = np.asarray(self.bath_state, dtype=complex).ravel()
        if phi.shape != (self.dim_b,):
            raise ValueError(f"bath state length {phi.shape[0]} does not match dimB {self.dim_b}")
        norm_defect = abs(np.linalg.norm(phi) - 1.0)
        if norm_defect > tol.BATH_NORM_TOL:
            raise ValueError(f"bath state is not normalized: defect {norm_defect:.3e}")
        u.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "bath_state", phi)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the CPT membership checks for a Kraus set."""

    completeness_defect: float
    min_choi_eigenvalue: float
    checks: dict
    messages: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _kraus_stack(c: KrausChannel) -> np.ndarray:
    """The d^2 x r matrix ``A = [vec(K_1) ... vec(K_r)]``."""
    return np.stack([vec(k) for k in c.kraus_ops], axis=1)


def choi_matrix(c: KrausChannel) -> np.ndarray:
    """Choi matrix ``sum_n vec(K_n) vec(K_n)^dag = A A^dag`` of the Kraus stack ``A``."""
    a = _kraus_stack(c)
    return a @ a.conj().T


def validate_cpt(c: KrausChannel) -> ValidationReport:
    """Check trace preservation and complete positivity; failures are reported, not raised.

    The Choi matrix ``A A^dag`` of the Kraus stack ``A`` is PSD by
    construction and is not formed: its smallest eigenvalue is ``0`` when
    ``A`` has fewer columns than rows and ``sigma_min(A)^2`` otherwise.  So
    the Choi check fails only on overflow.  A non-finite Gram matrix reads
    as an infinite completeness defect and, without reaching the SVD, as a
    minimum Choi eigenvalue of ``-inf``; so does a non-finite square.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum(k.conj().T @ k for k in c.kraus_ops)
        finite_gram = np.isfinite(gram).all()
        completeness_defect = float(np.abs(gram - np.eye(c.dim)).max()) if finite_gram else np.inf
        wide = finite_gram and len(c.kraus_ops) >= c.dim * c.dim
        min_choi = float(np.linalg.svd(_kraus_stack(c), compute_uv=False)[-1] ** 2) if wide else 0.0
    if not (finite_gram and np.isfinite(min_choi)):
        min_choi = -np.inf
    checks = {
        "completeness": completeness_defect <= tol.KRAUS_COMPLETENESS_TOL,
        "choi_psd": min_choi >= 0.0,
    }
    messages = []
    if not checks["completeness"]:
        messages.append(f"sum(K^dag K) deviates from identity by {completeness_defect:.6e} in max norm")
    if not checks["choi_psd"]:
        messages.append("Choi matrix has non-finite entries (overflow)")
    return ValidationReport(completeness_defect, min_choi, checks, tuple(messages))


def _kraus_sum(m: np.ndarray, out: np.ndarray, stack: np.ndarray, adjoints: np.ndarray, left: np.ndarray,
               blocks: np.ndarray, terms: np.ndarray) -> None:
    """``sum_n K_n m K_n^dag`` into `out`: the left products ``K_n m`` as one GEMM of the (r d, d) `stack` into
    `left` (``ndarray.dot``, the zgemm of ``np.matmul`` at less dispatch cost), the right products of its
    (r, d, d) view `blocks` with the `adjoints` as one batched product, and the r terms added in order."""
    stack.dot(m, out=left)
    np.matmul(blocks, adjoints, out=terms)
    np.add.reduce(terms, axis=0, out=out)


def _kernel_operands(c: KrausChannel) -> tuple:
    """The stacked operators, their adjoints and fresh (left, blocks, terms) buffers of `_kraus_sum` for `c`."""
    ops = c.kraus_ops
    stack = ops.reshape(-1, c.dim)
    left = np.empty(stack.shape, complex)
    return stack, ops.conj().transpose(0, 2, 1), left, left.reshape(ops.shape), np.empty(ops.shape, complex)


def apply_raw(c: KrausChannel, m: np.ndarray) -> np.ndarray:
    """``sum_n K_n m K_n^dag`` (no state validation), by the Kraus-sum kernel."""
    out = np.empty((c.dim, c.dim), dtype=complex)
    _kraus_sum(m, out, *_kernel_operands(c))
    return out


def advance(c: KrausChannel, states: np.ndarray, stop: Callable | None = None) -> int:
    """Fill ``states[1:]`` in place, each entry one channel step of the one before; returns the last index filled.

    Each output is made Hermitian, trace-gated and renormalized to unit
    trace.  A validated Kraus set moves the trace of a state by at most
    ``||sum K^dag K - I||_op <= dim * KRAUS_COMPLETENESS_TOL``; a larger
    output trace defect signals a non-trace-preserving Kraus set and
    raises.  The outputs are not checked for positivity.  When `stop` is
    given, filling ends after the first index k with ``stop(k)`` true.
    """
    operands = _kernel_operands(c)
    total, hermitian = np.empty((2, c.dim, c.dim), dtype=complex)
    diagonal = hermitian.reshape(-1)[:: c.dim + 1]  # its sum is the trace, added as `numpy.trace` adds it
    bound = c.dim * tol.KRAUS_COMPLETENESS_TOL
    for k in range(1, len(states)):
        _kraus_sum(states[k - 1], total, *operands)
        np.conjugate(total.T, out=hermitian)
        np.add(total, hermitian, out=hermitian)
        np.divide(hermitian, 2.0, out=hermitian)
        trace = float(np.add.reduce(diagonal).real)
        if abs(trace - 1.0) > bound:
            raise ValueError(f"channel output trace defect {abs(trace - 1.0):.3e}; Kraus set is not trace preserving")
        np.divide(hermitian, trace, out=states[k])
        if stop is not None and stop(k):
            return k
    return len(states) - 1


def step(c: KrausChannel, m: np.ndarray) -> np.ndarray:
    """One `advance` step on a state matrix, returned Hermitian, unit-trace and read-only."""
    states = np.empty((2, c.dim, c.dim), dtype=complex)
    states[0] = m
    advance(c, states)
    states.setflags(write=False)
    return states[1]


def apply(c: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """One channel step on a state (`step`, validated as a `DensityMatrix`)."""
    if rho.dim != c.dim:
        raise ValueError(f"state dim {rho.dim} does not match channel dim {c.dim}")
    return DensityMatrix(step(c, rho.matrix))


def to_superoperator(c: KrausChannel) -> Superoperator:
    """The `Superoperator` of ``S = sum_n conj(K_n) (x) K_n`` (column-stacking convention), built as R.

    With ``A`` the r x d^2 stack of the row-major flattened ``K_n``, S at ``(i d + j, k d + l)`` and
    ``A^dag A`` at ``(i d + k, j d + l)`` both hold ``sum_n conj(K_n[i, k]) K_n[j, l]``.  `_bloch_real`
    changes Re and Im ``A^dag A``, real products read with those indices swapped, to R: no complex
    d^2 x d^2 array is formed, and R needs no Hermiticity check.  Tests pin ``S vec(X) = vec(tau(X))``.
    """
    d = c.dim
    ar, ai = (x.reshape(len(x), d * d) for x in (c.kraus_ops.real, c.kraus_ops.imag))
    # dgemm accumulates in Fortran order, so each part is formed transposed: Re A^dag A and Ai^T Ar - Ar^T Ai
    return Superoperator(d, bloch=_bloch_real(*(x.T.reshape((d,) * 4).transpose(0, 2, 1, 3) for x in (
        dgemm(1.0, ai, ai, c=dgemm(1.0, ar, ar, trans_a=True), beta=1.0, trans_a=True, overwrite_c=True),
        dgemm(-1.0, ar, ai, c=dgemm(1.0, ai, ar, trans_a=True), beta=1.0, trans_a=True, overwrite_c=True),
    ))))  # the products are freed before the Schur form


def from_stinespring(d: StinespringDilation, label: str | None = None) -> KrausChannel:
    """Kraus set ``K_n = (I_A (x) <n|_B) U (I_A (x) |phi>_B)`` over a bath basis."""
    ident = np.eye(d.dim_a, dtype=complex)
    ket_phi = np.kron(ident, d.bath_state.reshape(-1, 1))
    ops = []
    for n in range(d.dim_b):
        bra = np.zeros((1, d.dim_b), dtype=complex)
        bra[0, n] = 1.0
        ops.append(np.kron(ident, bra) @ d.unitary @ ket_phi)
    return KrausChannel(d.dim_a, tuple(ops), label=label)


def compose(c1: KrausChannel, c2: KrausChannel) -> KrausChannel:
    """The channel ``rho -> c1(c2(rho))`` with Kraus set ``{K_i L_j}``."""
    if c1.dim != c2.dim:
        raise ValueError(f"cannot compose channels of dims {c1.dim} and {c2.dim}")
    ops = tuple(k @ m for k in c1.kraus_ops for m in c2.kraus_ops)
    return KrausChannel(c1.dim, ops)


def power(s: Superoperator, n: int) -> np.ndarray:
    """Read-only matrix ``U R^n U^dag`` of the `n`-fold iteration, the product of the `_squares` of R at the bits of n.

    The squares are renormalized only when R keeps the trace, so any `s`
    that passed the spectral-radius gate gets its own power, not gated again.
    """
    if n < 0:
        raise ValueError("power requires n >= 0")
    r = functools.reduce(np.matmul, (square for b, square in _squares(s.bloch, n) if n >> b & 1), np.eye(len(s.bloch)))
    m = from_bloch(from_bloch(r).conj().T).conj().T  # (U (U R^n)^dag)^dag
    m.setflags(write=False)
    return m


def is_unital(c: KrausChannel) -> bool:
    """True when the channel fixes the maximally mixed state within ``UNITAL_TOL``."""
    ident = np.eye(c.dim, dtype=complex)
    return float(np.abs(apply_raw(c, ident) - ident).max()) <= tol.UNITAL_TOL


# --- JSON channel documents ---------------------------------------------------


def stinespring_from_document(sub) -> StinespringDilation:
    if not isinstance(sub, dict):
        raise ValueError('"stinespring" must be an object')
    required = {"dimA", "dimB", "unitary", "bath_state"}
    missing = required - sub.keys()
    if missing:
        raise ValueError(f"stinespring document is missing {sorted(missing)}")
    dim_a, dim_b = sub["dimA"], sub["dimB"]
    if type(dim_a) is not int or type(dim_b) is not int:  # not isinstance: JSON true and false are ints too
        raise ValueError("dimA and dimB must be integers")
    unitary = json_to_matrix(sub["unitary"], what="unitary")
    bath = json_to_vector(sub["bath_state"], what="bath_state")
    return StinespringDilation(dim_a, dim_b, unitary, bath)


def channel_from_document(doc) -> KrausChannel:
    """Parse a channel document: Kraus form or Stinespring form.

    Accepted shapes:
      ``{"dim": N, "label"?: str, "kraus": [matrix, ...]}``
      ``{"label"?: str, "stinespring": {"dimA", "dimB", "unitary", "bath_state"}}``
    with complex entries as [re, im] pairs.  Exactly one of "kraus" /
    "stinespring" must be present.
    """
    if not isinstance(doc, dict):
        raise ValueError("channel document must be a JSON object")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError('"label" must be a string')
    has_kraus = "kraus" in doc
    has_stine = "stinespring" in doc
    if has_kraus == has_stine:
        raise ValueError('channel document needs exactly one of "kraus" or "stinespring"')
    if has_kraus:
        if type(doc.get("dim")) is not int:  # not isinstance: JSON true and false are ints too
            raise ValueError('Kraus-form document needs an integer "dim"')
        dim = doc["dim"]
        raw = doc["kraus"]
        if not isinstance(raw, list) or not raw:
            raise ValueError('"kraus" must be a nonempty list of matrices')
        ops = tuple(json_to_matrix(k, what="kraus operator") for k in raw)
        return KrausChannel(dim, ops, label=label)
    dilation = stinespring_from_document(doc["stinespring"])
    if "dim" in doc and (isinstance(doc["dim"], bool) or doc["dim"] != dilation.dim_a):
        raise ValueError('"dim" disagrees with stinespring dimA')
    return from_stinespring(dilation, label=label)


def channel_to_document(c: KrausChannel) -> dict:
    doc = {"dim": c.dim, "kraus": complex_to_json(c.kraus_ops)}
    if c.label is not None:
        doc["label"] = c.label
    return doc


def stinespring_to_document(d: StinespringDilation, label: str | None = None) -> dict:
    doc = {
        "stinespring": {
            "dimA": d.dim_a,
            "dimB": d.dim_b,
            "unitary": complex_to_json(d.unitary),
            "bath_state": complex_to_json(d.bath_state),
        }
    }
    if label is not None:
        doc["label"] = label
    return doc
