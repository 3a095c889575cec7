"""Orbit engine and functional convergence criteria.

The orbit of a state under a channel is the sequence rho, tau(rho),
tau^2(rho), ...  A (generalized) Lyapunov functional changes monotonically
along every orbit and strictly for every non-fixed initial state; the
existence of such a functional certifies mixing.  This module evaluates
three concrete functionals (trace-norm distance to the fixed point,
relative entropy to the fixed point, von Neumann entropy), collects
empirical monotonicity/strictness evidence, estimates asymptotic
deformation of state pairs, checks weak contractivity, computes Cesaro
time averages, and provides a brute-force orbit oracle used to
cross-validate the spectral classifier.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import opalg
from . import tolerances as tol
from .channel import DensityMatrix, KrausChannel, Superoperator, advance, is_unital, step, vec
from .channel import _squares, _trace_distances, _trace_norms, from_bloch, to_bloch
from .errors import HypothesisViolation
from .spectral import VERDICT_NOT_ERGODIC, SpectralReport

FUNCTIONAL_TRIVIAL = "trivial"
FUNCTIONAL_RELATIVE_ENTROPY = "relative_entropy"
FUNCTIONAL_VON_NEUMANN = "von_neumann"
FUNCTIONALS = (FUNCTIONAL_TRIVIAL, FUNCTIONAL_RELATIVE_ENTROPY, FUNCTIONAL_VON_NEUMANN)

ORACLE_MIXING = "mixing"
ORACLE_NOT_MIXING = "not_mixing_within_horizon"
ORACLE_MIN_N_MAX = 100


def trivial_lyapunov(rho: DensityMatrix, fixed_point: DensityMatrix) -> float:
    """Trace-norm distance ``||rho - fixed_point||_1``."""
    return _one_state(FUNCTIONAL_TRIVIAL, rho, fixed_point)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy ``Tr rho (log rho - log sigma)`` in nats.

    Eigenvalues at or below ``SUPPORT_TOL`` count as kernel.  Returns
    ``math.inf`` when the support of `rho` leaks outside the support of
    `sigma` by more than ``REL_ENTROPY_LEAK_TOL`` (the quantity is
    infinite unless supp(rho) is contained in supp(sigma)).
    """
    return _one_state(FUNCTIONAL_RELATIVE_ENTROPY, rho, sigma)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """``-sum p log p`` over eigenvalues above ``SUPPORT_TOL``, in nats."""
    return _one_state(FUNCTIONAL_VON_NEUMANN, rho, None)


def _one_state(name: str, rho: DensityMatrix, sigma: DensityMatrix | None) -> float:
    """Functional `name` of the single state `rho` against `sigma`, by its batched evaluator."""
    if sigma is not None and rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    evaluators = {name: _functional_evaluator(name, None if sigma is None else sigma.matrix)}
    return float(_evaluate(evaluators, rho.matrix[None])[name][0])


def _entropy_sums(spectra: np.ndarray) -> np.ndarray:
    """``sum p log p`` over the eigenvalues above ``SUPPORT_TOL`` of each ascending row of `spectra`.

    Those eigenvalues end each row; rows with equal counts of them are
    summed together, so each sum equals the sum over that row's alone.
    """
    kept = spectra > tol.SUPPORT_TOL
    terms = np.where(kept, spectra, 1.0)
    terms *= np.log(terms)
    first = kept.shape[-1] - kept.sum(-1)
    sums = np.empty(len(spectra))
    for start in np.unique(first):
        rows = first == start
        sums[rows] = terms[rows, start:].sum(-1)
    return sums


def probe_states(dim: int, seed: int = 0, n_random: int = 10) -> list[DensityMatrix]:
    """Deterministic probe set: basis states, Haar-random pure states, I/dim.

    Random directions are normalized complex Gaussian vectors from a
    seeded generator, so the set is reproducible.  Each state is the
    matching entry of `_probe_stack`, validated as a `DensityMatrix`.
    """
    return [DensityMatrix(m) for m in _probe_stack(dim, seed, n_random)]


def _probe_stack(dim: int, seed: int, n_random: int = 10) -> np.ndarray:
    """The (dim + n_random + 1, dim, dim) stack of the `probe_states` matrices, unvalidated.

    The entries are built by the elementwise steps of `DensityMatrix.pure`
    (each vector divided by its own norm, an outer product, then
    ``(m + m^dag) / 2``), so they are PSD and of unit trace by construction.
    """
    rng = np.random.default_rng(seed)
    randoms = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(n_random)]
    vectors = np.array([v / np.linalg.norm(v) for v in [*np.eye(dim, dtype=complex), *randoms]])
    stack = np.empty((len(vectors) + 1, dim, dim), dtype=complex)
    np.multiply(vectors[:, :, None], vectors[:, None, :].conj(), out=stack[:-1])
    stack[-1] = np.eye(dim) / dim
    return (stack + stack.conj().transpose(0, 2, 1)) / 2.0


@dataclass(frozen=True)
class OrbitTrace:
    """State matrices ``rho, tau(rho), ..., tau^n(rho)`` plus requested functionals.

    `states` is one read-only (n + 1, d, d) array.  `functional_values`
    maps each requested functional name to a read-only array of its raw
    (unoriented) value at every step; lengths are ``n_steps + 1``.
    """

    states: np.ndarray
    functional_values: dict
    n_steps: int


def _functional_evaluator(name: str, fixed_point: np.ndarray | None) -> Callable:
    """The map ``(states, spectra) -> values`` of functional `name` against `fixed_point`, batched.

    `states` is a stack of state matrices and `spectra` their ``eigvalsh``.
    """
    if name == FUNCTIONAL_TRIVIAL:
        return lambda states, _: np.linalg.svd(states - fixed_point, compute_uv=False).sum(-1)
    if name == FUNCTIONAL_VON_NEUMANN:
        return lambda _, spectra: _at_least_zero(-_entropy_sums(spectra))
    if name != FUNCTIONAL_RELATIVE_ENTROPY:
        raise ValueError(f"unknown functional {name!r}; expected one of {FUNCTIONALS}")
    q, v = np.linalg.eigh(fixed_point)
    kernel = v[:, q <= tol.SUPPORT_TOL]
    on_support = q > tol.SUPPORT_TOL
    log_sigma = (v[:, on_support] * np.log(q[on_support])) @ v[:, on_support].conj().T

    def evaluate(states: np.ndarray, spectra: np.ndarray) -> np.ndarray:
        # Tr(rho log sigma) = sum_ij rho_ij conj((log sigma)_ij), as log sigma is Hermitian
        tr_rho_log_sigma = np.vecdot(log_sigma.ravel(), states.reshape(len(states), -1)).real
        values = _at_least_zero(_entropy_sums(spectra) - tr_rho_log_sigma)
        if kernel.shape[1]:
            leak = np.trace(kernel.conj().T @ states @ kernel, axis1=1, axis2=2).real
            values[leak > tol.REL_ENTROPY_LEAK_TOL] = math.inf
        return values

    return evaluate


def _at_least_zero(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)  # max(0.0, x) entrywise; np.maximum would keep -0.0, printed "-0"


def _evaluate(evaluators: dict, states: np.ndarray) -> dict:
    """Each functional of `evaluators` on the stack `states` as a read-only array; one ``eigvalsh`` at most."""
    spectra = np.linalg.eigvalsh(states) if evaluators.keys() - {FUNCTIONAL_TRIVIAL} else None
    values = {name: evaluate(states, spectra) for name, evaluate in evaluators.items()}
    for a in values.values():
        a.setflags(write=False)
    return values


def _unique_fixed_point(report: SpectralReport, purpose: str) -> DensityMatrix:
    if report.verdict == VERDICT_NOT_ERGODIC:
        raise HypothesisViolation(
            f"{purpose} requires a unique fixed point; the fixed-point set is "
            f"{report.eigenvalue_one_multiplicity}-dimensional (verdict {report.verdict})"
        )
    return report.fixed_points[0]


def orbit(report: SpectralReport, rho0: DensityMatrix, n: int, functionals: tuple = ()) -> OrbitTrace:
    """Iterate the analyzed channel `n` times from `rho0`, evaluating `functionals`.

    The orbit is stepped on state matrices (`channel.advance`); only the
    final state is validated as a `DensityMatrix`, and a final matrix that
    is not a state raises its `ValueError`.  Stepping stops at the first
    state whose bytes equal those of an earlier state: a step is a
    function of its input's bits, so the rest of the orbit repeats with
    that period and is copied, and the functionals, evaluated on the
    states before the repeat, are extended the same way.  Every state and
    value equals that of stepping all `n` times.  Functionals that compare
    against the fixed point (trivial, relative entropy) require the
    channel to have a unique fixed point.
    """
    if n < 1:
        raise ValueError("orbit length n must be >= 1")
    if rho0.dim != report.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match channel dimension {report.dim}")
    names = tuple(dict.fromkeys(functionals))
    fixed_point = None
    if any(name in (FUNCTIONAL_TRIVIAL, FUNCTIONAL_RELATIVE_ENTROPY) for name in names):
        fixed_point = _unique_fixed_point(report, "a fixed-point-relative functional").matrix
    evaluators = {name: _functional_evaluator(name, fixed_point) for name in names}
    try:
        states = np.empty((n + 1, report.dim, report.dim), dtype=complex)
    except (ValueError, MemoryError) as exc:  # numpy refuses a shape beyond the address space
        raise ValueError(f"an orbit of {n} steps at dimension {report.dim} does not fit in memory") from exc
    states[0] = rho0.matrix
    seen = {states[0].tobytes(): 0}  # bytes of every state stepped so far -> its first index
    end = advance(report.channel, states, lambda k: seen.setdefault(states[k].tobytes(), k) < k)  # first repeat, else n
    start = seen[states[end].tobytes()]  # the index that states[end] repeats, else end
    if start == end:
        start = end = n + 1
    _extend_periodic(states, start, end)  # a step is a function of its input's bits, so states[start:end] recur
    DensityMatrix(states[-1])
    states.setflags(write=False)
    values = _evaluate(evaluators, states[:end])  # on the distinct states, then lengthened and extended like them
    values = {name: _extend_periodic(np.resize(a, n + 1), start, end) for name, a in values.items()}
    for a in values.values():
        a.setflags(write=False)
    return OrbitTrace(states=states, functional_values=values, n_steps=n)


def _extend_periodic(a: np.ndarray, start: int, end: int) -> np.ndarray:
    """Fill ``a[end:]`` so that ``a[start:]`` repeats ``a[start:end]``, by doubling copies of whole periods."""
    filled = end
    while filled < len(a):
        size = min(filled - start, len(a) - filled)
        a[filled : filled + size] = a[start : start + size]
        filled += size
    return a


@dataclass(frozen=True)
class TrialRecord:
    """Monotonicity/strictness evidence from one trial state.

    Values are reported in the raw (unoriented) scale of the functional;
    `monotone_defect` and `n_strict` refer to the oriented functional,
    whose monotone direction is non-decreasing.
    """

    state_index: int
    matches_fixed_point: bool
    monotone_defect: float
    limit_gap: float
    n_strict: int | None
    raw_initial: float
    raw_final: float


@dataclass(frozen=True)
class LyapunovVerdict:
    """Aggregated empirical evidence that a functional is a strict monotone.

    `is_generalized_lyapunov_evidence` is true only when every trial state
    that differs from the fixed point moved by more than the evidence gap
    while never violating monotonicity beyond the defect tolerance.
    """

    functional: str
    monotone_defect: float
    limit_gap: float
    n_strict: int | None
    is_generalized_lyapunov_evidence: bool
    per_state: tuple = field(repr=False)
    notes: tuple = ()


def verify_generalized_lyapunov(
    report: SpectralReport, functional: str, trial_states: list, n: int
) -> LyapunovVerdict:
    """Empirically test one functional for monotone + strict behaviour.

    The functional is oriented so its monotone direction is non-decreasing
    (distance and relative entropy enter negated).  Raises
    `HypothesisViolation` when the functional's hypotheses fail: the
    trivial and relative-entropy functionals need a unique fixed point,
    and relative entropy additionally needs that fixed point faithful
    (full rank).  The functional is bound to the fixed point once per
    call and evaluated on every trial's `orbit` states.
    """
    if not trial_states:
        raise ValueError("at least one trial state is required")

    notes: list[str] = []
    fixed_point = None
    if functional in (FUNCTIONAL_TRIVIAL, FUNCTIONAL_RELATIVE_ENTROPY):
        fixed_point = _unique_fixed_point(report, f"functional {functional!r}").matrix
        if functional == FUNCTIONAL_RELATIVE_ENTROPY:
            min_eig = float(np.linalg.eigvalsh(fixed_point).min())
            if min_eig <= tol.SUPPORT_TOL:
                raise HypothesisViolation(
                    "the relative-entropy criterion requires a faithful (full-rank) fixed point; "
                    f"smallest fixed-point eigenvalue is {min_eig:.3e}"
                )
    else:
        if not is_unital(report.channel):
            notes.append("channel is not unital: von Neumann entropy is not guaranteed to be monotone")
        if report.verdict == VERDICT_NOT_ERGODIC:
            notes.append(
                "channel has multiple fixed points: strict increase cannot hold for every "
                "non-fixed state, so the evidence flag cannot certify mixing"
            )
    evaluators = {functional: _functional_evaluator(functional, fixed_point)}

    sign = 1.0 if functional == FUNCTIONAL_VON_NEUMANN else -1.0
    records = []
    all_trials_fixed = True
    for idx, rho in enumerate(trial_states):
        trace = orbit(report, rho, n)
        raw = _evaluate(evaluators, trace.states)[functional].tolist()
        oriented = [sign * value for value in raw]
        defect = max(0.0, *(oriented[k] - oriented[k + 1] for k in range(n)))
        gap = abs(oriented[n] - oriented[0])
        n_strict = next((k for k in range(1, n + 1) if oriented[k] - oriented[0] > tol.MONOTONE_DEFECT_TOL), None)
        matches = fixed_point is not None and opalg.trace_norm(rho.matrix - fixed_point) <= tol.STATE_MATCH_TOL
        if opalg.trace_norm(trace.states[1] - trace.states[0]) > tol.STATE_MATCH_TOL:
            all_trials_fixed = False
        records.append(TrialRecord(
            state_index=idx, matches_fixed_point=matches, monotone_defect=defect, limit_gap=gap,
            n_strict=n_strict, raw_initial=raw[0], raw_final=raw[n],
        ))

    moving = [r for r in records if not r.matches_fixed_point]
    overall_defect = max(r.monotone_defect for r in records)
    if all_trials_fixed:
        notes.append("every trial state is a fixed point of the channel; no strictness evidence available")
    if not moving:
        evidence, overall_gap, overall_n_strict = False, 0.0, None
    else:
        evidence = all(r.limit_gap > tol.EVIDENCE_GAP and r.monotone_defect <= tol.MONOTONE_DEFECT_TOL for r in moving)
        overall_gap = min(r.limit_gap for r in moving)
        strict_steps = [r.n_strict for r in moving]
        overall_n_strict = max(strict_steps) if all(s is not None for s in strict_steps) else None
    return LyapunovVerdict(
        functional=functional,
        monotone_defect=overall_defect,
        limit_gap=overall_gap,
        n_strict=overall_n_strict,
        is_generalized_lyapunov_evidence=evidence,
        per_state=tuple(records),
        notes=tuple(notes),
    )


def _distinct_pair_distance(dim: int, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace distance of a pair of `dim`-dimensional states, rejecting near-duplicates."""
    if rho.dim != dim or sigma.dim != dim:
        raise ValueError("pair dimension does not match channel dimension")
    d0 = opalg.trace_norm(rho.matrix - sigma.matrix)
    if d0 <= tol.DISTINCT_PAIR_TOL:
        raise ValueError(
            f"pair is not distinct: initial trace distance {d0:.3e} <= {tol.DISTINCT_PAIR_TOL:g}"
        )
    return d0


def asymptotic_deformation_estimate(
    s: Superoperator, pairs: list, n: int
) -> list[tuple[float, float]]:
    """``(d(rho, sigma), d(tau^n rho, tau^n sigma))`` for each pair, under superoperator `s`.

    The channel asymptotically deforms the pair when the horizon distance
    differs from the initial one; mixing is equivalent to every distinct
    pair deforming (toward zero).  Both states of every pair are carried
    to the horizon together by `_advance`, then `_check_purity`.  `s` must
    be a channel (positive and trace-preserving): a channel never increases
    a trace distance, so a horizon distance above its initial one by more
    than ``WEAK_CONTRACTION_TOL`` raises ``LinAlgError`` (roundoff drift, or
    a map that is not a channel).
    """
    if n < 1:
        raise ValueError("horizon n must be >= 1")
    initial = [_distinct_pair_distance(s.dim, rho, sigma) for rho, sigma in pairs]
    stack = np.array([(rho.matrix, sigma.matrix) for rho, sigma in pairs]).reshape(-1, s.dim, s.dim)
    (at,) = _advance(s, stack, (n,))
    distances = _trace_distances(at[:, 0::2], at[:, 1::2])
    _check_purity([at], n)
    growth = float((distances - initial).max())
    if growth > tol.WEAK_CONTRACTION_TOL:
        raise np.linalg.LinAlgError(f"trace distances at horizon {n:.6g} exceed their initial values by {growth:.3g}: "
                                    "roundoff drift, or the map is not a channel")
    return list(zip(initial, distances.tolist()))


def deformation_evidence(results: list[tuple[float, float]]) -> bool:
    """True when every pair's horizon distance moved beyond the evidence gap."""
    return all(abs(d_limit - d0) > tol.EVIDENCE_GAP for d0, d_limit in results)


@dataclass(frozen=True)
class WeakContractionResult:
    """Outcome of searching for a pair whose distance fails to strictly shrink.

    `violated` means the channel is not a weak contraction on the sampled
    pairs; the witness pair and its before/after distances are kept for
    reporting.
    """

    violated: bool
    witness: tuple | None
    d_before: float | None
    d_after: float | None


def weak_contraction_check(c: KrausChannel, pairs: list) -> WeakContractionResult:
    """Search `pairs` for ``d(tau rho, tau sigma) >= d(rho, sigma) - tol``.

    A weak contraction strictly decreases every distinct pair's distance;
    the first pair found to violate that is returned as a witness.
    """
    for rho, sigma in pairs:
        d0 = _distinct_pair_distance(c.dim, rho, sigma)
        d1 = opalg.trace_norm(step(c, rho.matrix) - step(c, sigma.matrix))
        if d1 >= d0 - tol.WEAK_CONTRACTION_TOL:
            return WeakContractionResult(violated=True, witness=(rho, sigma), d_before=d0, d_after=d1)
    return WeakContractionResult(violated=False, witness=None, d_before=None, d_after=None)


def cesaro_averages(
    s: Superoperator, rho0: DensityMatrix, horizons: Iterable[int]
) -> dict[int, DensityMatrix]:
    """Cesaro averages under superoperator `s` at every horizon, keyed by horizon, as `DensityMatrix`.

    With ``G(k) = sum_{j<k} R^j`` for the Bloch matrix R, the sum of the
    first m = n + 1 terms is ``G(m) x`` for the Bloch column x of `rho0`.
    One pass over the bits of the largest m, from low to high, reads the
    `_squares` ``R^(2^b)`` and doubles ``G(2^(b+1)) = G(2^b) + R^(2^b) G(2^b)``;
    at each set bit b of its m, a horizon's sum gains ``G(2^b) x_k`` and its
    own column x_k advances by ``R^(2^b)``.  The cost is logarithmic in n,
    and each entry reads only its own bits, so it equals
    ``cesaro_average(s, rho0, n)`` bit for bit.  An average that is not a
    state (a rotation mode just off modulus 1, grown by roundoff over a
    huge horizon, or past the double range) raises ``LinAlgError``.
    """
    horizons = sorted(set(horizons))
    if not horizons or horizons[0] < 1:
        raise ValueError("n must be >= 1")
    if horizons[-1] > sys.float_info.max:
        raise ValueError("n exceeds the double range")
    if rho0.dim != s.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match channel dimension {s.dim}")
    columns = dict.fromkeys(horizons, to_bloch(vec(rho0.matrix)).real)
    sums = dict.fromkeys(horizons, 0.0)
    top = horizons[-1] + 1
    geometric = np.eye(len(s.bloch))
    averages = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for bit, square in _squares(s.bloch, top):
            for n in horizons:
                if (n + 1) >> bit & 1:
                    sums[n] = sums[n] + geometric @ columns[n]
                    columns[n] = square @ columns[n]
            if top >> bit > 1:
                geometric = geometric + square @ geometric
        for n in horizons:
            avg = from_bloch(sums[n] / (n + 1)).reshape(s.dim, s.dim).T  # the column-stacked matrix
            try:
                averages[n] = DensityMatrix(avg / avg.trace().real)
            except ValueError as exc:  # the true average is a state: roundoff grown past it, or overflow
                raise np.linalg.LinAlgError(f"the Cesaro average at horizon {n:.6g} is not a state: {exc}") from exc
    return averages


def cesaro_average(s: Superoperator, rho0: DensityMatrix, n: int) -> DensityMatrix:
    """Time average ``(1/(n+1)) sum_{l=0}^{n} tau^l(rho0)``.

    For ergodic channels the average converges to the unique fixed point
    at rate O(1/n) even when the orbit itself does not converge.
    """
    return cesaro_averages(s, rho0, (n,))[n]


@dataclass(frozen=True)
class OracleResult:
    """Brute-force orbit verdict plus the distances that justify it."""

    verdict: str
    final_max_distance: float
    trailing_max_distance: float
    n_max: int
    tol: float
    n_probes: int
    trailing_window: int


def _advance(s: Superoperator, states: np.ndarray, exponents: tuple) -> list[np.ndarray]:
    """For each n of `exponents`, the Bloch coordinates of ``tau^n`` of every matrix of `states`, as columns.

    One pass over the renormalized `_squares` of the Bloch matrix R of `s`
    advances the columns to every exponent, and each advanced column is
    divided by its own trace, so the roundoff in the eigenvalue 1 does not
    compound with the horizon.  A block that is not finite (a rotation
    mode just above modulus 1, grown past the double range) raises
    ``numpy.linalg.LinAlgError``.
    """
    at = [to_bloch(states.transpose(0, 2, 1).reshape(len(states), -1).T).real] * len(exponents)  # columns vec(p)
    top = max(exponents)
    with np.errstate(over="ignore", invalid="ignore"):
        for bit, square in _squares(s.bloch, top):
            for k, n in enumerate(exponents):
                if n >> bit & 1:
                    at[k] = square @ at[k]
                    at[k] /= at[k][: s.dim].sum(0)
    if not np.isfinite(at).all():
        raise np.linalg.LinAlgError(f"states advanced to horizon {top} are not finite")
    return at


def _check_purity(blocks: list[np.ndarray], horizon: int) -> None:
    """Raise ``numpy.linalg.LinAlgError`` when a column of `blocks` has a squared norm (its purity) above 1.

    A state has purity at most 1; roundoff in a rotation mode passes ``PURITY_SLACK`` near a horizon of 4e6."""
    with np.errstate(over="ignore"):  # a square that overflows reads as infinite purity
        purity = max(float(np.square(block).sum(0).max()) for block in blocks)
    if purity > 1.0 + tol.PURITY_SLACK:
        raise np.linalg.LinAlgError(f"states advanced to horizon {horizon:.6g} have purity {purity:.6g} above 1")


def _max_pair_distances(blocks: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> list[float]:
    """The largest trace distance between the columns `i` and the columns `j` of each of `blocks`: bound, then verify.

    A Hermitian X has ``||X||_1 <= sqrt(d) ||X||_F``, and ``||X||_F`` is the Euclidean norm f of its Bloch column,
    taken after dividing the column by its largest entry so that differences near 1e-300 do not underflow to 0.
    One ``eigvalsh`` reads the largest-f pair of each block, giving the distance m; a second reads only the pairs
    with ``sqrt(d) f (1 + PAIR_BOUND_SLACK) >= m`` (and those of subnormal scale), the only ones that can exceed it.
    Each matrix is the same `from_bloch` of the same difference as in `_trace_distances`, so the maxima are too.
    A difference that is not finite sends every pair to `_trace_distances`, which raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        at = np.stack(blocks)
        x = at[:, :, i] - at[:, :, j]  # (block, coordinate, pair)
        scale = np.abs(x).max(1)
        f = scale * np.sqrt(np.square(x / np.where(scale > 0, scale, 1.0)[:, None]).sum(1))
        bound = f * (math.sqrt(math.isqrt(x.shape[1])) * (1.0 + tol.PAIR_BOUND_SLACK))
    if not np.isfinite(f).all():
        return [float(_trace_distances(block[:, i], block[:, j]).max()) for block in blocks]
    rows, top = np.arange(len(x)), f.argmax(1)
    best = _trace_norms(x[rows, :, top].T)
    candidates = (f > 0) & ((scale < np.finfo(float).tiny) | (bound >= best[:, None]))
    candidates[rows, top] = False
    b, k = np.nonzero(candidates)
    np.maximum.at(best, b, _trace_norms(x[b, :, k].T))
    return best.tolist()


def orbit_oracle(
    s: Superoperator, n_max: int = 2000, tol_distance: float = tol.ORACLE_TOL, seed: int = 0
) -> OracleResult:
    """Brute-force mixing test by iterating a deterministic probe set under `s`.

    The probes are the d basis states, 10 seeded random pure states and
    I/d (`probe_states`), built as one stack by `_probe_stack` and not
    re-validated.  The channel counts as mixing when the maximum
    pairwise trace distance over all probes is below `tol_distance` both
    at the horizon `n_max` (`final_max_distance`) and at the first step of
    the trailing window of ``max(1, n_max // 10)`` steps
    (`trailing_max_distance`).  A channel never increases trace distances,
    so the window's first step carries its maximum up to roundoff.  One
    `_advance` carries the probes to both points, and `_max_pair_distances`
    eigensolves only the pairs whose sqrt(d) * Frobenius bound reaches an
    exact distance; a block or a distance that is not finite, then a
    purity above 1 (`_check_purity`), raises ``numpy.linalg.LinAlgError``.
    The verdict never reads the spectrum.
    """
    if n_max < ORACLE_MIN_N_MAX:
        raise ValueError(f"n_max must be >= {ORACLE_MIN_N_MAX} for a meaningful horizon")
    probes = _probe_stack(s.dim, seed)
    window = max(1, n_max // 10)
    i, j = np.triu_indices(len(probes), k=1)
    at = _advance(s, probes, (n_max - window + 1, n_max))
    trailing_max, final = _max_pair_distances(at, i, j)
    _check_purity(at, n_max)
    verdict = ORACLE_MIXING if final < tol_distance and trailing_max < tol_distance else ORACLE_NOT_MIXING
    return OracleResult(verdict=verdict, final_max_distance=final, trailing_max_distance=trailing_max, n_max=n_max,
                        tol=tol_distance, n_probes=len(probes), trailing_window=window)
