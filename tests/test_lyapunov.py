"""Lyapunov functionals, orbits, deformation, Cesaro averages, and the orbit oracle."""

import contextlib
import math
import signal
import time
import warnings

import numpy as np
import pytest

from channellab import lyapunov
from channellab import (
    DensityMatrix,
    HypothesisViolation,
    KrausChannel,
    analyze,
    apply,
    asymptotic_deformation_estimate,
    cesaro_average,
    deformation_evidence,
    is_unital,
    orbit,
    orbit_oracle,
    probe_states,
    relative_entropy,
    to_superoperator,
    trivial_lyapunov,
    verify_generalized_lyapunov,
    von_neumann_entropy,
    weak_contraction_check,
)
from channellab import channel as channel_module
from channellab.channel import Superoperator, apply_raw, step, vec
from channellab.lyapunov import (
    FUNCTIONAL_RELATIVE_ENTROPY,
    FUNCTIONAL_TRIVIAL,
    FUNCTIONAL_VON_NEUMANN,
    ORACLE_MIXING,
    ORACLE_NOT_MIXING,
    LyapunovVerdict,
    TrialRecord,
    cesaro_averages,
)
from channellab.opalg import trace_norm
from channellab.tolerances import WEAK_CONTRACTION_TOL
from channellab.zoo import (
    build,
    build_named,
    catalog,
    example_ergodic_channel,
    example_mixing_channel,
    random_channel,
    random_state,
)

MIXED_2 = DensityMatrix.maximally_mixed(2)
GROUND_2 = DensityMatrix.basis_state(2, 0)


def _entropy_sum(m):
    """Reference ``sum p log p`` of one state over its eigenvalues above SUPPORT_TOL."""
    p = np.linalg.eigvalsh(m)
    p = p[p > 1e-10]
    return float(np.sum(p * np.log(p)))


def _per_state_relative_entropy(m, sigma):
    """Reference S(m || sigma) of one state matrix, one eigensolve of sigma per call."""
    q, v = np.linalg.eigh(sigma)
    kernel, on_support = v[:, q <= 1e-10], q > 1e-10
    log_sigma = (v[:, on_support] * np.log(q[on_support])) @ v[:, on_support].conj().T
    if kernel.shape[1] and float(np.real(np.trace(kernel.conj().T @ m @ kernel))) > 1e-9:
        return math.inf
    return max(0.0, _entropy_sum(m) - float(np.vdot(log_sigma, m).real))


class TestFunctionals:
    def test_trivial_at_fixed_point_is_zero(self):
        assert trivial_lyapunov(MIXED_2, MIXED_2) == pytest.approx(0.0, abs=1e-15)

    def test_trivial_basis_to_mixed(self):
        assert trivial_lyapunov(GROUND_2, MIXED_2) == pytest.approx(1.0, abs=1e-12)

    def test_relative_entropy_values(self):
        assert relative_entropy(MIXED_2, MIXED_2) == pytest.approx(0.0, abs=1e-12)
        assert relative_entropy(GROUND_2, MIXED_2) == pytest.approx(math.log(2.0), abs=1e-12)
        assert relative_entropy(GROUND_2, GROUND_2) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_matches_matrix_logarithm_reference(self):
        import scipy.linalg

        for seed in range(5):
            rho, sigma = random_state(4, seed), random_state(4, seed + 50)
            want = np.trace(rho.matrix @ (scipy.linalg.logm(rho.matrix) - scipy.linalg.logm(sigma.matrix))).real
            assert relative_entropy(rho, sigma) == pytest.approx(want, abs=1e-12)

    def test_relative_entropy_kernel_leak_is_infinite(self):
        assert relative_entropy(MIXED_2, GROUND_2) == math.inf

    def test_von_neumann_values(self):
        assert von_neumann_entropy(GROUND_2) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(MIXED_2) == pytest.approx(math.log(2.0), abs=1e-12)
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(3)) == pytest.approx(
            math.log(3.0), abs=1e-12
        )


    def test_batched_entropies_match_per_state_sums(self):
        # pure initial states: the first states of each orbit have eigenvalues below SUPPORT_TOL
        dropped = 0
        for seed in range(3):
            report = analyze(random_channel(8, 3, seed))
            rho0 = DensityMatrix.basis_state(8, seed)
            trace = orbit(report, rho0, 40, (FUNCTIONAL_RELATIVE_ENTROPY, FUNCTIONAL_VON_NEUMANN))
            fixed = report.fixed_points[0].matrix
            want_rel = [_per_state_relative_entropy(m, fixed) for m in trace.states]
            want_vn = [max(0.0, -_entropy_sum(m)) for m in trace.states]
            # rows with equal kept-eigenvalue counts are summed together: the same terms in the same order
            assert trace.functional_values[FUNCTIONAL_RELATIVE_ENTROPY].tolist() == want_rel
            assert trace.functional_values[FUNCTIONAL_VON_NEUMANN].tolist() == want_vn
            dropped += int((np.linalg.eigvalsh(trace.states) <= 1e-10).any(axis=1).sum())
        assert dropped >= 3

    def test_one_state_functionals_are_rows_of_the_batch(self, spectral_reports):
        for label, report in spectral_reports.items():
            names = [FUNCTIONAL_VON_NEUMANN]
            if report.verdict != "not_ergodic":
                names += [FUNCTIONAL_TRIVIAL, FUNCTIONAL_RELATIVE_ENTROPY]
            trace = orbit(report, DensityMatrix.basis_state(report.dim, 0), 15, tuple(names))
            fixed = report.fixed_points[0]
            single = {
                FUNCTIONAL_TRIVIAL: lambda rho: trivial_lyapunov(rho, fixed),
                FUNCTIONAL_RELATIVE_ENTROPY: lambda rho: relative_entropy(rho, fixed),
                FUNCTIONAL_VON_NEUMANN: von_neumann_entropy,
            }
            for name in names:
                want = [single[name](DensityMatrix(m)) for m in trace.states]
                assert trace.functional_values[name].tolist() == want, (label, name)

    def test_clamp_gives_positive_zero(self):
        # -0.0 would print as "-0" in the CLI
        assert math.copysign(1.0, von_neumann_entropy(GROUND_2)) == 1.0
        assert math.copysign(1.0, relative_entropy(GROUND_2, GROUND_2)) == 1.0


class TestProbeStates:
    def test_count_and_composition(self):
        probes = probe_states(3)
        assert len(probes) == 3 + 11  # basis states, 10 random, maximally mixed
        for k in range(3):
            assert probes[k].matrix[k, k] == pytest.approx(1.0)
        assert np.abs(probes[-1].matrix - np.eye(3) / 3.0).max() <= 1e-12

    def test_deterministic_per_seed(self):
        a = probe_states(2, seed=5)
        b = probe_states(2, seed=5)
        c = probe_states(2, seed=6)
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
        assert any(not np.array_equal(x.matrix, y.matrix) for x, y in zip(a, c))


class TestOrbit:
    def test_population_flip_alternates(self):
        trace = orbit(analyze(example_ergodic_channel()), GROUND_2, 4, (FUNCTIONAL_TRIVIAL,))
        assert trace.n_steps == 4
        assert len(trace.states) == 5
        for k, state in enumerate(trace.states):
            expected = GROUND_2 if k % 2 == 0 else DensityMatrix.basis_state(2, 1)
            assert np.abs(state - expected.matrix).max() <= 1e-12
        # distance to the fixed point I/2 never moves
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in trace.functional_values["trivial"])

    def test_shift_channel_absorbs_in_two_steps(self):
        trace = orbit(analyze(example_mixing_channel()), DensityMatrix.basis_state(3, 2), 3, (FUNCTIONAL_TRIVIAL,))
        values = trace.functional_values["trivial"]
        assert values[0] == pytest.approx(2.0, abs=1e-12)
        assert values[1] == pytest.approx(2.0, abs=1e-12)
        assert values[2] == pytest.approx(0.0, abs=1e-12)
        assert values[3] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            orbit(analyze(example_ergodic_channel()), GROUND_2, 0)

    def test_states_and_values_are_read_only_arrays(self):
        trace = orbit(analyze(example_ergodic_channel()), GROUND_2, 4, (FUNCTIONAL_TRIVIAL, FUNCTIONAL_VON_NEUMANN))
        assert trace.states.shape == (5, 2, 2) and not trace.states.flags.writeable
        for values in trace.functional_values.values():
            assert values.shape == (5,) and not values.flags.writeable

    def test_length_beyond_memory_is_a_value_error(self, monkeypatch):
        report = analyze(example_ergodic_channel())
        with pytest.raises(ValueError, match="orbit of 10000000000000000000 steps at dimension 2 does not fit"):
            orbit(report, GROUND_2, 10**19)
        empty = np.empty

        def exhausted(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 3:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", exhausted)
        with pytest.raises(ValueError, match="orbit of 10 steps at dimension 2 does not fit in memory"):
            orbit(report, GROUND_2, 10)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            orbit(analyze(example_ergodic_channel()), DensityMatrix.basis_state(3, 0), 2)

    def test_rejects_unknown_functional(self):
        with pytest.raises(ValueError, match="unknown functional"):
            orbit(analyze(example_ergodic_channel()), GROUND_2, 2, ("entropy",))

    def test_fixed_point_functionals_need_unique_fixed_point(self):
        c = build_named("dephasing", p=0.3)
        with pytest.raises(HypothesisViolation):
            orbit(analyze(c), GROUND_2, 2, (FUNCTIONAL_TRIVIAL,))


def _count_kraus_sums(monkeypatch) -> list:
    """Record one entry per call of the Kraus-sum kernel."""
    calls = []
    kraus_sum = channel_module._kraus_sum
    monkeypatch.setattr(channel_module, "_kraus_sum", lambda *args: calls.append(1) or kraus_sum(*args))
    return calls


class TestOrbitRepeats:
    """`orbit` stops stepping at the first exact repeat; its output equals stepping every time."""

    def test_matches_per_step_loop_on_catalog(self, zoo_entries, spectral_reports):
        n = 2000
        periods = set()
        for spec, c in zoo_entries:
            report = spectral_reports[spec.label]
            names = _applicable_functionals(report)
            fixed_point = report.fixed_points[0].matrix if FUNCTIONAL_TRIVIAL in names else None
            for rho in (DensityMatrix.basis_state(c.dim, 0), random_state(c.dim, seed=5)):
                want = np.empty((n + 1, c.dim, c.dim), dtype=complex)
                want[0] = rho.matrix
                for k in range(n):
                    want[k + 1] = step(c, want[k])
                got = orbit(report, rho, n, tuple(names))
                assert got.states.tobytes() == want.tobytes(), spec.label
                for name in names:
                    evaluate = {name: lyapunov._functional_evaluator(name, fixed_point)}
                    reference = lyapunov._evaluate(evaluate, want)[name]
                    assert got.functional_values[name].tobytes() == reference.tobytes(), (spec.label, name)
                seen = {}
                for k, state in enumerate(want):
                    j = seen.setdefault(state.tobytes(), k)
                    if j < k:
                        periods.add(k - j)
                        break
        assert {1, 2, 5, 6} <= periods

    def test_repeat_at_step_one_takes_one_kernel_call(self, monkeypatch):
        report = analyze(build_named("cz-dilation"))
        calls = _count_kraus_sums(monkeypatch)
        trace = orbit(report, DensityMatrix.basis_state(2, 0), 10**5, (FUNCTIONAL_VON_NEUMANN,))
        assert len(calls) == 1
        assert trace.states.shape == (10**5 + 1, 2, 2) and not trace.states.flags.writeable
        assert (trace.states == trace.states[0]).all()
        values = trace.functional_values[FUNCTIONAL_VON_NEUMANN]
        assert values.shape == (10**5 + 1,) and not values.flags.writeable and (values == values[0]).all()

    def test_period_two_is_stepped_to_its_first_repeat_only(self, monkeypatch):
        report = analyze(example_ergodic_channel())
        calls = _count_kraus_sums(monkeypatch)
        trace = orbit(report, GROUND_2, 50, (FUNCTIONAL_TRIVIAL,))
        assert len(calls) == 2
        states, values = trace.states, trace.functional_values[FUNCTIONAL_TRIVIAL]
        assert states[1].tobytes() != states[0].tobytes()
        for k in range(2, 51):
            assert states[k].tobytes() == states[k - 2].tobytes()
            assert values[k] == values[k - 2]

    def test_orbit_without_repeat_takes_n_kernel_calls(self, monkeypatch):
        report = analyze(build_named("unitary", theta=1.0))
        rho = random_state(2, seed=5)
        calls = _count_kraus_sums(monkeypatch)
        trace = orbit(report, rho, 300)
        assert len(calls) == 300
        assert len({state.tobytes() for state in trace.states}) == 301

    def test_long_cycle_is_stepped_to_its_first_repeat_only(self, monkeypatch):
        report = analyze(build_named("random", dim=4, kraus_rank=4, seed=17))
        rho, n = DensityMatrix.basis_state(4, 0), 2000
        want = np.empty((n + 1, 4, 4), dtype=complex)
        want[0] = rho.matrix
        seen, first = {want[0].tobytes(): 0}, None
        for k in range(1, n + 1):
            want[k] = step(report.channel, want[k - 1])
            if seen.setdefault(want[k].tobytes(), k) < k and first is None:
                first = k
        assert first is not None and first - seen[want[first].tobytes()] > 16  # a long round-off cycle
        calls = _count_kraus_sums(monkeypatch)
        trace = orbit(report, rho, n, (FUNCTIONAL_TRIVIAL,))
        assert len(calls) == first
        assert trace.states.tobytes() == want.tobytes()
        fixed_point = report.fixed_points[0].matrix
        evaluate = {FUNCTIONAL_TRIVIAL: lyapunov._functional_evaluator(FUNCTIONAL_TRIVIAL, fixed_point)}
        reference = lyapunov._evaluate(evaluate, want)[FUNCTIONAL_TRIVIAL]
        assert trace.functional_values[FUNCTIONAL_TRIVIAL].tobytes() == reference.tobytes()


def _stepping_verdict(report, functional, trial_states, n):
    """Reference: Lyapunov evidence from a per-step loop that validates every state."""
    c = report.channel

    def validated_step(rho):
        out = apply_raw(c, rho.matrix)
        out = (out + out.conj().T) / 2.0
        return DensityMatrix(out / out.trace().real)

    evaluate = {
        FUNCTIONAL_TRIVIAL: lambda rho: trivial_lyapunov(rho, report.fixed_points[0]),
        FUNCTIONAL_RELATIVE_ENTROPY: lambda rho: relative_entropy(rho, report.fixed_points[0]),
        FUNCTIONAL_VON_NEUMANN: von_neumann_entropy,
    }[functional]
    notes = []
    fixed_point = None
    if functional == FUNCTIONAL_VON_NEUMANN:
        if not is_unital(c):
            notes.append("channel is not unital: von Neumann entropy is not guaranteed to be monotone")
        if report.verdict == "not_ergodic":
            notes.append(
                "channel has multiple fixed points: strict increase cannot hold for every "
                "non-fixed state, so the evidence flag cannot certify mixing"
            )
    else:
        fixed_point = report.fixed_points[0]
    sign = 1.0 if functional == FUNCTIONAL_VON_NEUMANN else -1.0
    records = []
    all_trials_fixed = True
    for idx, rho in enumerate(trial_states):
        raw = [evaluate(rho)]
        state = rho
        for _ in range(n):
            state = validated_step(state)
            raw.append(evaluate(state))
        oriented = [sign * value for value in raw]
        defect = max(0.0, *(oriented[k] - oriented[k + 1] for k in range(n)))
        n_strict = next((k for k in range(1, n + 1) if oriented[k] - oriented[0] > 1e-9), None)
        matches = fixed_point is not None and trace_norm(rho.matrix - fixed_point.matrix) <= 1e-9
        if trace_norm(validated_step(rho).matrix - rho.matrix) > 1e-9:
            all_trials_fixed = False
        records.append(
            TrialRecord(idx, matches, defect, abs(oriented[n] - oriented[0]), n_strict, raw[0], raw[n])
        )
    moving = [r for r in records if not r.matches_fixed_point]
    if all_trials_fixed:
        notes.append("every trial state is a fixed point of the channel; no strictness evidence available")
    evidence, gap, n_strict = False, 0.0, None
    if moving:
        evidence = all(r.limit_gap > 1e-6 and r.monotone_defect <= 1e-9 for r in moving)
        gap = min(r.limit_gap for r in moving)
        strict = [r.n_strict for r in moving]
        n_strict = max(strict) if None not in strict else None
    return LyapunovVerdict(
        functional, max(r.monotone_defect for r in records), gap, n_strict, evidence, tuple(records), tuple(notes)
    )


def _applicable_functionals(report):
    names = [FUNCTIONAL_VON_NEUMANN]
    if report.verdict != "not_ergodic":
        names.append(FUNCTIONAL_TRIVIAL)
        if np.linalg.eigvalsh(report.fixed_points[0].matrix).min() > 1e-10:
            names.append(FUNCTIONAL_RELATIVE_ENTROPY)
    return names


class TestVerify:
    def test_matches_per_step_reference_on_catalog(self, spectral_reports):
        for label, report in spectral_reports.items():
            probes = probe_states(report.dim, seed=3, n_random=4)
            # a lone basis state on a periodic orbit returns at step 20 but moves at step 1
            for trials in (probes + list(report.fixed_points), probes[:1]):
                for functional in _applicable_functionals(report):
                    want = _stepping_verdict(report, functional, trials, 20)
                    got = verify_generalized_lyapunov(report, functional, trials, 20)
                    assert got == want, (label, functional)

    def test_relative_entropy_diagonalizes_the_fixed_point_once(self, monkeypatch):
        report = analyze(random_channel(4, 3, 7))
        trials = probe_states(4)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        verdict = verify_generalized_lyapunov(report, FUNCTIONAL_RELATIVE_ENTROPY, trials, 20)
        assert len(verdict.per_state) == len(trials) == 15
        assert len(calls) == 1

    def test_depolarizing_relative_entropy_is_strict_monotone(self):
        c = build_named("depolarizing", p=0.5)
        verdict = verify_generalized_lyapunov(
            analyze(c), FUNCTIONAL_RELATIVE_ENTROPY, probe_states(2), 30
        )
        assert verdict.is_generalized_lyapunov_evidence
        assert verdict.monotone_defect <= 1e-9
        assert verdict.n_strict == 1

    def test_depolarizing_trivial_is_strict_monotone(self):
        c = build_named("depolarizing", p=0.25)
        verdict = verify_generalized_lyapunov(analyze(c), FUNCTIONAL_TRIVIAL, probe_states(2), 30)
        assert verdict.is_generalized_lyapunov_evidence
        assert verdict.n_strict == 1

    def test_population_flip_distance_never_moves(self):
        verdict = verify_generalized_lyapunov(
            analyze(example_ergodic_channel()), FUNCTIONAL_TRIVIAL, probe_states(2), 20
        )
        assert not verdict.is_generalized_lyapunov_evidence
        assert verdict.monotone_defect <= 1e-12
        assert verdict.limit_gap <= 1e-12

    def test_identity_channel_entropy_gives_no_evidence(self):
        c = KrausChannel(2, [np.eye(2)])
        verdict = verify_generalized_lyapunov(analyze(c), FUNCTIONAL_VON_NEUMANN, probe_states(2), 10)
        assert not verdict.is_generalized_lyapunov_evidence
        assert any("fixed point" in note for note in verdict.notes)
        assert any("multiple fixed points" in note for note in verdict.notes)

    def test_non_unital_entropy_can_decrease(self):
        c = build_named("amplitude-damping", gamma=0.3)
        verdict = verify_generalized_lyapunov(analyze(c), FUNCTIONAL_VON_NEUMANN, probe_states(2), 40)
        assert any("not unital" in note for note in verdict.notes)
        assert verdict.monotone_defect > 1e-6
        assert not verdict.is_generalized_lyapunov_evidence

    def test_relative_entropy_needs_faithful_fixed_point(self):
        with pytest.raises(HypothesisViolation, match="faithful"):
            verify_generalized_lyapunov(
                analyze(example_mixing_channel()), FUNCTIONAL_RELATIVE_ENTROPY, probe_states(3), 10
            )

    def test_fixed_point_functionals_need_unique_fixed_point(self):
        c = build_named("dephasing", p=0.3)
        with pytest.raises(HypothesisViolation, match="unique fixed point"):
            verify_generalized_lyapunov(analyze(c), FUNCTIONAL_TRIVIAL, probe_states(2), 10)

    def test_rejects_bad_arguments(self):
        report = analyze(build_named("depolarizing", p=0.5))
        with pytest.raises(ValueError, match="unknown functional"):
            verify_generalized_lyapunov(report, "norm", probe_states(2), 10)
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_generalized_lyapunov(report, FUNCTIONAL_TRIVIAL, probe_states(2), 0)
        with pytest.raises(ValueError, match="trial state"):
            verify_generalized_lyapunov(report, FUNCTIONAL_TRIVIAL, [], 10)


class TestDeformation:
    def test_shift_channel_collapses_pairs(self):
        pairs = [(DensityMatrix.basis_state(3, 2), DensityMatrix.basis_state(3, 1))]
        results = asymptotic_deformation_estimate(to_superoperator(example_mixing_channel()), pairs, 2)
        assert results[0][0] == pytest.approx(2.0, abs=1e-12)
        assert results[0][1] == pytest.approx(0.0, abs=1e-12)
        assert deformation_evidence(results)

    def test_population_flip_preserves_pairs(self):
        pairs = [(GROUND_2, DensityMatrix.basis_state(2, 1))]
        results = asymptotic_deformation_estimate(to_superoperator(example_ergodic_channel()), pairs, 2)
        assert results[0] == (pytest.approx(2.0), pytest.approx(2.0))
        assert not deformation_evidence(results)

    def test_unitary_conjugation_is_isometric(self):
        c = build_named("unitary", theta=1.0)
        pairs = [(random_state(2, seed=k), random_state(2, seed=k + 50)) for k in range(5)]
        for d0, d_limit in asymptotic_deformation_estimate(to_superoperator(c), pairs, 37):
            assert abs(d_limit - d0) <= 1e-10

    def test_rejects_identical_pair(self):
        rho = random_state(2, seed=3)
        with pytest.raises(ValueError, match="not distinct"):
            asymptotic_deformation_estimate(to_superoperator(build_named("depolarizing", p=0.5)), [(rho, rho)], 5)

    def test_builds_no_superoperator(self, monkeypatch):
        s = to_superoperator(build_named("depolarizing", p=0.25))
        builds = []
        post_init = Superoperator.__post_init__

        def counted(self):
            builds.append(self.dim)
            post_init(self)

        monkeypatch.setattr(Superoperator, "__post_init__", counted)
        pairs = [(GROUND_2, DensityMatrix.basis_state(2, 1))]
        asymptotic_deformation_estimate(s, pairs, 500)
        assert builds == []

    def test_matches_per_step_reference_on_catalog(self, zoo_entries, spectral_reports):
        n = 37
        for spec, c in zoo_entries:
            pairs = [
                (DensityMatrix.basis_state(c.dim, 0), random_state(c.dim, seed=5)),
                (DensityMatrix.basis_state(c.dim, c.dim - 1), DensityMatrix.maximally_mixed(c.dim)),
            ]
            got = asymptotic_deformation_estimate(spectral_reports[spec.label].superoperator, pairs, n)
            for (rho, sigma), (d0, d_limit) in zip(pairs, got):
                a, b = rho.matrix, sigma.matrix
                for _ in range(n):
                    a, b = step(c, a), step(c, b)
                assert d0 == pytest.approx(trace_norm(rho.matrix - sigma.matrix), abs=1e-12), spec.label
                assert d_limit == pytest.approx(trace_norm(a - b), abs=1e-12), spec.label

    @pytest.mark.parametrize("n", [10**17, 10**18])
    def test_renormalized_squaring_holds_at_long_horizons(self, n):
        # a plain matrix power compounds the roundoff in the eigenvalue 1 with the horizon
        s = to_superoperator(build_named("depolarizing", p=0.5))
        [(d0, d_limit)] = asymptotic_deformation_estimate(s, [(GROUND_2, MIXED_2)], n)
        assert d0 == pytest.approx(1.0)
        assert d_limit <= 1e-12

    def test_overflowing_rotation_modes_raise_a_numerical_failure(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                asymptotic_deformation_estimate(s, [(GROUND_2, MIXED_2)], 10**20)

    def test_finite_states_whose_distances_overflow_raise_a_numerical_failure(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        probes = lyapunov._probe_stack(2, 0)
        finite, overflowing = 10**17, 10**20  # the largest horizon whose advanced probes are finite, by bisection
        while overflowing - finite > 1:
            mid = (finite + overflowing) // 2
            try:
                lyapunov._advance(s, probes, (mid,))
                finite = mid
            except np.linalg.LinAlgError:
                overflowing = mid
        assert np.abs(lyapunov._advance(s, probes, (finite,))[0]).max() > 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                orbit_oracle(s, n_max=finite)
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                states = probe_states(2)
                asymptotic_deformation_estimate(s, [(states[0], rho) for rho in states[1:]], finite)


class TestWeakContraction:
    def test_shift_channel_violates_on_transient_pair(self):
        # |2><2| and |1><1| both map one step closer to the sink at the
        # same distance, so the first step does not strictly contract
        pairs = [(DensityMatrix.basis_state(3, 2), DensityMatrix.basis_state(3, 1))]
        result = weak_contraction_check(example_mixing_channel(), pairs)
        assert result.violated
        assert result.d_before == pytest.approx(2.0)
        assert result.d_after == pytest.approx(2.0)

    def test_depolarizing_strictly_contracts(self):
        c = build_named("depolarizing", p=0.5)
        pairs = [(random_state(2, seed=2 * k), random_state(2, seed=2 * k + 1)) for k in range(100)]
        result = weak_contraction_check(c, pairs)
        assert not result.violated
        assert result.witness is None

    def test_identity_violates_immediately(self):
        c = KrausChannel(2, [np.eye(2)])
        pairs = [(GROUND_2, MIXED_2), (GROUND_2, DensityMatrix.basis_state(2, 1))]
        result = weak_contraction_check(c, pairs)
        assert result.violated
        assert result.witness == (GROUND_2, MIXED_2)


class TestCesaro:
    def test_population_flip_parity(self):
        c = to_superoperator(example_ergodic_channel())
        # odd n: even term count, the alternation cancels exactly
        avg = cesaro_average(c, GROUND_2, 9)
        assert np.abs(avg.matrix - np.eye(2) / 2.0).max() <= 1e-14
        # even n: one surplus term of weight 1/(n+1)
        avg = cesaro_average(c, GROUND_2, 10)
        assert trace_norm(avg.matrix - np.eye(2) / 2.0) == pytest.approx(1.0 / 11.0, abs=1e-12)

    def test_fixed_point_is_invariant(self, zoo_entries, spectral_reports):
        for spec, _ in zoo_entries:
            report = spectral_reports[spec.label]
            if not report.fixed_points:
                continue
            fixed = report.fixed_points[0]
            avg = cesaro_average(report.superoperator, fixed, 25)
            assert trace_norm(avg.matrix - fixed.matrix) <= 1e-8, spec.label

    def test_identity_channel_average_is_input(self):
        s = to_superoperator(KrausChannel(2, [np.eye(2)]))
        rho = random_state(2, seed=8)
        avg = cesaro_average(s, rho, 17)
        assert np.abs(avg.matrix - rho.matrix).max() <= 1e-12

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            cesaro_average(to_superoperator(example_ergodic_channel()), GROUND_2, 0)

    def test_single_pass_matches_separate_averages(self):
        horizons = (1, 10, 100, 1000)
        for c in (example_ergodic_channel(), build_named("random", dim=3, kraus_rank=2, seed=5)):
            s = to_superoperator(c)
            rho0 = DensityMatrix.basis_state(c.dim, 0)
            averages = cesaro_averages(s, rho0, horizons)
            assert sorted(averages) == list(horizons)
            for n in horizons:
                assert np.array_equal(averages[n].matrix, cesaro_average(s, rho0, n).matrix), n

    def test_blocked_sums_match_kraus_iteration(self, zoo_entries):
        # reference: the average of the Kraus-iterated orbit, summed one term at a time
        checkpoints = [10**k for k in range(5)]
        for c in [c for _, c in zoo_entries] + [random_channel(8, 3, 21)]:
            rho0 = random_state(c.dim, seed=c.dim)
            averages = cesaro_averages(to_superoperator(c), rho0, checkpoints)
            m = rho0.matrix
            acc = m.copy()
            for n in range(1, checkpoints[-1] + 1):
                m = apply_raw(c, m)
                acc = acc + m
                if n in averages:
                    want = acc / acc.trace().real
                    assert np.abs(averages[n].matrix - want).max() <= 1e-12, (c.label, n)

    def test_one_over_n_decay_across_ergodic_catalog(self, zoo_entries, spectral_reports):
        # calibrate C from n=100, then the distance at larger n must track
        # C/(n+1) (5% slack covers the shifting transient contribution)
        for spec, channel in zoo_entries:
            report = spectral_reports[spec.label]
            if report.verdict == "not_ergodic":
                continue
            fixed = report.fixed_points[0].matrix
            rho0 = DensityMatrix.basis_state(channel.dim, 0)
            d100 = trace_norm(cesaro_average(report.superoperator, rho0, 100).matrix - fixed)
            c_fit = 101.0 * d100
            for n in (1000, 10000):
                d_n = trace_norm(cesaro_average(report.superoperator, rho0, n).matrix - fixed)
                assert d_n <= 1.05 * c_fit / (n + 1) + 1e-12, (spec.label, n)


def _cycle_channel(d: int) -> KrausChannel:
    basis = np.eye(d)
    return KrausChannel(d, tuple(np.outer(basis[(j + 1) % d], basis[j]) for j in range(d)))


def _direct_sum(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    d = a.dim + b.dim
    ops = []
    for block, offset in ((a, 0), (b, a.dim)):
        for k in block.kraus_ops:
            op = np.zeros((d, d), dtype=complex)
            op[offset : offset + block.dim, offset : offset + block.dim] = k
            ops.append(op)
    return KrausChannel(d, tuple(ops))


def _mixture_with_identity(c: KrausChannel, eps: float) -> KrausChannel:
    """``(1 - eps) id + eps c``; slow mixing whose oracle distances straddle 1e-8 as eps varies."""
    ops = (np.sqrt(1.0 - eps) * np.eye(c.dim),) + tuple(np.sqrt(eps) * k for k in c.kraus_ops)
    return KrausChannel(c.dim, ops)


def _stepping_oracle(s, n_max=2000, tol_distance=1e-8, seed=0):
    """Reference oracle: every one of the n_max products, exact pairwise distances at every window step.

    Returns ``(verdict, final_max_distance, trailing_max_distance)``, the
    trailing maximum taken over every step of the window.
    """
    probes = probe_states(s.dim, seed=seed)
    columns = np.stack([vec(p.matrix) for p in probes], axis=1)
    window = max(1, n_max // 10)
    i_idx, j_idx = np.triu_indices(len(probes), k=1)
    distances = []
    for step in range(1, n_max + 1):
        columns = s.matrix @ columns
        if step > n_max - window:
            mats = columns.T.reshape(-1, s.dim, s.dim).transpose(0, 2, 1)
            # trace norm of each pairwise difference as its sum of singular values
            singular = np.linalg.svd(mats[i_idx] - mats[j_idx], compute_uv=False)
            distances.append(float(singular.sum(axis=1).max()))
    final, trailing_max = distances[-1], max(distances)
    mixing = final < tol_distance and trailing_max < tol_distance
    return (ORACLE_MIXING if mixing else ORACLE_NOT_MIXING), final, trailing_max


def _oracle_cases():
    cases = [pytest.param(build(spec), id=spec.label) for spec in catalog()]
    cases += [pytest.param(_cycle_channel(d), id=f"cycle(d={d})") for d in (3, 5, 8)]
    cases += [
        pytest.param(
            _direct_sum(random_channel(3, 2, seed), random_channel(4, 3, seed + 10)), id=f"sum3+4(seed={seed})"
        )
        for seed in range(3)
    ]
    # final distance above tol (0.023, 0.024), only the window start above (0.025, 0.026), both below
    base = random_channel(3, 3, 13)
    cases += [
        pytest.param(_mixture_with_identity(base, eps), id=f"mixture(eps={eps})")
        for eps in (0.023, 0.024, 0.025, 0.026, 0.027, 0.028)
    ]
    return cases


class TestOracle:
    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="n_max"):
            orbit_oracle(to_superoperator(build_named("depolarizing", p=0.5)), n_max=99)

    def test_depolarizing_is_mixing(self):
        result = orbit_oracle(to_superoperator(build_named("depolarizing", p=0.5)), n_max=100)
        assert result.verdict == ORACLE_MIXING
        assert result.final_max_distance < 1e-8
        assert result.n_probes == 2 + 11
        assert result.trailing_window == 10

    def test_population_flip_never_settles(self):
        result = orbit_oracle(to_superoperator(example_ergodic_channel()), n_max=100)
        assert result.verdict == ORACLE_NOT_MIXING
        assert result.trailing_max_distance > 1.0  # orthogonal probes keep oscillating

    @pytest.mark.parametrize("channel", _oracle_cases())
    def test_two_point_oracle_matches_stepping_reference(self, channel):
        s = to_superoperator(channel)
        verdict, final, trailing_max = _stepping_oracle(s)
        result = orbit_oracle(s)
        assert result.verdict == verdict
        assert result.final_max_distance == pytest.approx(final, abs=1e-12, rel=1e-9)
        assert result.trailing_max_distance == pytest.approx(trailing_max, abs=1e-12, rel=1e-9)

    def test_mixtures_straddle_the_tolerance(self):
        base = random_channel(3, 3, 13)
        results = {eps: orbit_oracle(to_superoperator(_mixture_with_identity(base, eps)))
                   for eps in (0.024, 0.026, 0.028)}
        assert results[0.024].final_max_distance > 1e-8
        assert results[0.026].final_max_distance < 1e-8 < results[0.026].trailing_max_distance
        assert results[0.028].trailing_max_distance < 1e-8
        assert [r.verdict for r in results.values()] == [ORACLE_NOT_MIXING, ORACLE_NOT_MIXING, ORACLE_MIXING]

    def test_long_horizon_is_reached_by_squaring(self):
        start = time.perf_counter()
        result = orbit_oracle(to_superoperator(build_named("depolarizing", p=0.5)), n_max=10**6)
        assert time.perf_counter() - start < 2.0  # stepping would take 10**6 products
        assert result.verdict == ORACLE_MIXING
        assert result.final_max_distance < 1e-8
        assert result.trailing_window == 10**5


    @pytest.mark.parametrize("n_max", [10**17, 10**18])
    def test_renormalized_squaring_holds_at_long_horizons(self, n_max):
        # without renormalization the roundoff in the eigenvalue 1 compounds with the horizon
        result = orbit_oracle(to_superoperator(build_named("depolarizing", p=0.5)), n_max=n_max)
        assert result.verdict == ORACLE_MIXING
        assert result.final_max_distance < 1e-8 and result.trailing_max_distance < 1e-8

    def test_overflowing_rotation_modes_raise_a_numerical_failure(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                orbit_oracle(s, n_max=10**30)


class TestRealRepresentation:
    @pytest.mark.parametrize("label", ["amplitude-damping(gamma=0.3)", "unitary(theta=1)", "random(kraus_rank=3,seed=13)"])
    def test_runtime_paths_never_form_the_complex_superoperator(self, label):
        channel = build(next(spec for spec in catalog() if spec.label == label))
        report = analyze(channel)
        s = report.superoperator
        orbit_oracle(s, n_max=100)
        orbit(report, DensityMatrix.maximally_mixed(channel.dim), 20, ("von_neumann",))
        cesaro_averages(s, DensityMatrix.basis_state(channel.dim, 0), (1, 10, 250))
        assert "matrix" not in vars(s)
        s.matrix  # formed on first read, then cached
        assert "matrix" in vars(s)

class TestDataProcessing:
    def test_relative_entropy_contracts_under_channels(self):
        channels = [
            build_named("depolarizing", p=0.25),
            build_named("amplitude-damping", gamma=0.3),
            example_ergodic_channel(),
            build_named("partial-swap-dilation", theta=math.pi / 4),
        ]
        rng = np.random.default_rng(71)
        for c in channels:
            for _ in range(10):
                seed = int(rng.integers(0, 2**31))
                rho = random_state(c.dim, seed=seed)
                sigma = random_state(c.dim, seed=seed + 1)
                before = relative_entropy(rho, sigma)
                after = relative_entropy(apply(c, rho), apply(c, sigma))
                assert after <= before + 1e-8


class TestOracleProbeBlock:
    """The oracle builds its probes once per call, as one stack, without per-state validation."""

    @pytest.mark.parametrize("dim", [2, 5])
    def test_one_call_makes_two_eigensolves(self, monkeypatch, dim):
        s = to_superoperator(random_channel(dim, 2, 3))
        real_eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        orbit_oracle(s, n_max=100)
        assert len(calls) == 2  # the distances at the window start and at the horizon

    @pytest.mark.parametrize("dim,seed", [(2, 0), (3, 3), (8, 5)])
    def test_starting_bloch_block_equals_the_probe_states(self, monkeypatch, dim, seed):
        s = to_superoperator(random_channel(dim, 2, 7))
        real_to_bloch = lyapunov.to_bloch
        blocks = []

        def recorded(y):
            blocks.append(real_to_bloch(y))
            return blocks[-1]

        monkeypatch.setattr(lyapunov, "to_bloch", recorded)
        result = orbit_oracle(s, n_max=100, seed=seed)
        probes = probe_states(dim, seed=seed)
        want = real_to_bloch(np.stack([vec(p.matrix) for p in probes], axis=1)).real
        assert result.n_probes == len(probes) == dim + 11
        assert np.array_equal(blocks[0].real, want)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the enclosed block with ``TimeoutError`` once `seconds` of wall time have passed."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCesaroHorizons:
    """One pass over the bits of n + 1 doubles the partial sums G(2^b), so the cost is logarithmic in n."""

    @pytest.mark.parametrize("channel", [build_named("depolarizing", p=0.5), example_ergodic_channel()],
                             ids=["depolarizing", "population-flip"])
    def test_huge_horizon_is_reached_at_once(self, channel):
        s = to_superoperator(channel)
        with warnings.catch_warnings(), _deadline(10.0):  # a linear-time sum would take 10**16 blocks
            warnings.simplefilter("error")
            avg = cesaro_average(s, GROUND_2, 10**18)
        # depolarizing: the orbit reaches I/2; population flip: one surplus ground term of weight 1/(n+1)
        assert np.abs(avg.matrix - np.eye(2) / 2.0).max() <= 1e-12

    def test_matches_the_term_by_term_sum_on_odd_horizons(self):
        c = random_channel(3, 2, 5)
        rho0 = random_state(3, seed=4)
        averages = cesaro_averages(to_superoperator(c), rho0, (199, 777, 1234))
        m, acc = rho0.matrix, rho0.matrix.copy()
        for n in range(1, 1235):
            m = apply_raw(c, m)
            acc = acc + m
            if n in averages:
                assert np.abs(averages[n].matrix - acc / acc.trace().real).max() <= 1e-12, n

    def test_overgrown_rotation_mode_is_a_numerical_failure(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        plus = DensityMatrix.pure(np.ones(2))
        with warnings.catch_warnings(), _deadline(10.0):
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not a state"):
                cesaro_average(s, plus, 10**30)

    def test_horizon_beyond_the_double_range_is_rejected(self):
        with _deadline(10.0), pytest.raises(ValueError, match="double range"):
            cesaro_average(to_superoperator(example_ergodic_channel()), GROUND_2, 10**400)


class TestPurityBound:
    """An advanced state has purity at most 1; past ``PURITY_SLACK`` the roundoff of a rotation mode raises."""

    HORIZONS = (2000, 10**9, 10**12, 10**16, 10**17)
    ROTATIONS = ("unitary(theta=1)", "unitary(theta=1.0472)", "cz-dilation")

    def test_oracle_distances_stay_trace_distances_or_raise(self, zoo_entries):
        cases = [(spec.label, c) for spec, c in zoo_entries]
        cases += [(f"random-d{d}", random_channel(d, 2, 3)) for d in (5, 8, 12, 16)]
        raised = set()
        for label, c in cases:
            s = to_superoperator(c)
            for n_max in self.HORIZONS:
                try:
                    result = orbit_oracle(s, n_max=n_max)
                except np.linalg.LinAlgError as exc:
                    assert "purity" in str(exc), (label, n_max)
                    raised.add((label, n_max))
                    continue
                assert max(result.final_max_distance, result.trailing_max_distance) <= 2.0, (label, n_max)
        assert raised == {(label, n) for label in self.ROTATIONS for n in self.HORIZONS if n > 2000}

    def test_deformation_estimate_raises_past_the_bound(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        pair = [(random_state(2, seed=1), random_state(2, seed=2))]
        [(d0, d_limit)] = asymptotic_deformation_estimate(s, pair, 10**6)
        assert d_limit == pytest.approx(d0, abs=1e-9)  # a unitary keeps every distance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="purity"):
                asymptotic_deformation_estimate(s, pair, 10**17)


class TestContractionGuard:
    """A channel never increases a trace distance; past ``WEAK_CONTRACTION_TOL`` a rotation mode's drift raises."""

    PAIR = [(random_state(2, seed=1), random_state(2, seed=2))]

    def test_drift_below_the_slack_passes(self):
        s = to_superoperator(build_named("unitary", theta=1.0))
        [(d0, d_limit)] = asymptotic_deformation_estimate(s, self.PAIR, 10**6)
        assert 0.0 <= d_limit - d0 <= WEAK_CONTRACTION_TOL

    @pytest.mark.parametrize("n", [10**7, 10**12])
    def test_growing_distance_raises(self, n):
        s = to_superoperator(build_named("unitary", theta=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="exceed their initial values"):
                asymptotic_deformation_estimate(s, self.PAIR, n)

    def test_a_map_that_moves_states_apart_raises(self):
        shear = np.eye(4)
        shear[1, 2] = -0.5  # keeps the trace, spectral radius 1, but not positive: not a channel
        s = Superoperator(2, bloch=shear)
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        rho, sigma = (DensityMatrix(np.eye(2) / 2 + sign * 0.1 * paulis.sum(axis=0)) for sign in (1, -1))
        with pytest.raises(np.linalg.LinAlgError, match="not a channel"):
            asymptotic_deformation_estimate(s, [(rho, sigma)], 2)

    def test_contracting_pairs_pass_at_long_horizons(self, zoo_entries, spectral_reports):
        for spec, c in zoo_entries:
            if spec.label in TestPurityBound.ROTATIONS:
                continue  # rotation modes trip the purity bound here
            pairs = [(DensityMatrix.basis_state(c.dim, 0), random_state(c.dim, seed=5))]
            [(d0, d_limit)] = asymptotic_deformation_estimate(spectral_reports[spec.label].superoperator, pairs, 10**12)
            assert d_limit <= d0 + WEAK_CONTRACTION_TOL, spec.label


def _advanced_oracle_blocks(s: Superoperator, n_max: int, seed: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The oracle's two advanced probe blocks at horizon `n_max` and its pair indices."""
    probes = lyapunov._probe_stack(s.dim, seed)
    window = max(1, n_max // 10)
    i, j = np.triu_indices(len(probes), k=1)
    return lyapunov._advance(s, probes, (n_max - window + 1, n_max)), i, j


def _all_pair_maxima(blocks: list, i: np.ndarray, j: np.ndarray) -> list[float]:
    return [float(channel_module._trace_distances(block[:, i], block[:, j]).max()) for block in blocks]


class TestPairDistanceBound:
    """The oracle eigensolves only the pairs whose sqrt(d) * Frobenius bound reaches an exact distance."""

    def test_maxima_equal_the_all_pair_maxima_bit_for_bit(self, zoo_entries):
        u = random_channel(7, 1, 41).kraus_ops[0]  # Haar unitary of a rank-1 channel
        summed = _direct_sum(random_channel(3, 2, 42), random_channel(4, 3, 43))
        cases = [(spec.label, c) for spec, c in zoo_entries]
        cases += [(f"random-d{d}", random_channel(d, 2, 3)) for d in (5, 8, 12, 16)]
        cases += [("conjugated-sum-d7", KrausChannel(7, tuple(u @ k @ u.conj().T for k in summed.kraus_ops)))]
        for label, c in cases:
            s = to_superoperator(c)
            for n_max in (100, 2000, 2500, 10**6):  # at 2500 depolarizing(p=0.25) differs only below 1e-308
                for seed in range(4):
                    blocks, i, j = _advanced_oracle_blocks(s, n_max, seed)
                    got = lyapunov._max_pair_distances(blocks, i, j)
                    assert got == _all_pair_maxima(blocks, i, j), (label, n_max, seed)

    def test_converged_probes_give_exactly_zero(self):
        s = to_superoperator(build_named("depolarizing", p=0.5))
        blocks, i, j = _advanced_oracle_blocks(s, 2000, 0)
        assert all(np.array_equal(block[:, i], block[:, j]) for block in blocks)  # every difference is 0
        assert lyapunov._max_pair_distances(blocks, i, j) == [0.0, 0.0]

    @pytest.mark.parametrize("scale", [1e-250, 1e-300])
    def test_tiny_differences_keep_the_exact_maximum(self, scale):
        # unscaled squares of such differences underflow to 0, which would prune the true maximum
        blocks, i, j = _advanced_oracle_blocks(to_superoperator(random_channel(8, 2, 3)), 2000, 0)
        tiny = [block * scale for block in blocks]
        want = _all_pair_maxima(tiny, i, j)
        assert min(want) > 0.0
        assert lyapunov._max_pair_distances(tiny, i, j) == want

    def test_few_pairs_reach_the_eigensolver(self, monkeypatch):
        s = to_superoperator(random_channel(16, 2, 3))
        real_eigvalsh = np.linalg.eigvalsh
        matrices = []

        def counted(a, *args, **kwargs):
            matrices.append(len(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result = orbit_oracle(s, n_max=2000)
        pairs = result.n_probes * (result.n_probes - 1) // 2
        assert len(matrices) == 2 and sum(matrices) < 120 < 2 * pairs == 702
