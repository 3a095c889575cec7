"""Spectral classification, convergence speed, and fixed-point reconstruction."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import channellab
from channellab import (
    DensityMatrix,
    KrausChannel,
    VERDICT_ERGODIC_NOT_MIXING,
    VERDICT_MIXING,
    VERDICT_NOT_ERGODIC,
    analyze,
    apply,
    calibrate_speed_constant,
    channel_to_document,
    convergence_bound,
    estimate_rate,
    peripheral_normality_check,
    polar_fixed_point,
    purely_ergodic_shortcut,
    to_superoperator,
)
from channellab.channel import from_bloch
from channellab.opalg import trace_norm
from channellab.spectral import default_fit_window, report_to_payload
from channellab.tolerances import KRAUS_COMPLETENESS_TOL
from channellab.zoo import PAULI_Z, build, build_named, catalog, example_ergodic_channel, random_channel


def _peripheral_set_matches(report, expected):
    """Compare the peripheral multiset against `expected` ignoring order."""
    got = sorted(report.peripheral, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = sorted(expected, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9


class TestVerdicts:
    def test_depolarizing_kappa_and_verdict(self, spectral_reports):
        for p in (0.25, 0.5):
            report = spectral_reports[f"depolarizing(p={p})"]
            assert report.verdict == VERDICT_MIXING
            assert report.kappa == pytest.approx(1.0 - p, abs=1e-10)
            assert report.eigenvalue_one_multiplicity == 1
            spectrum = np.sort(report.spectrum.real)
            assert np.abs(spectrum - np.sort([1.0, 1 - p, 1 - p, 1 - p])).max() <= 1e-9

    def test_amplitude_damping_kappa(self, spectral_reports):
        for gamma in (0.3, 0.7):
            report = spectral_reports[f"amplitude-damping(gamma={gamma})"]
            assert report.verdict == VERDICT_MIXING
            assert report.kappa == pytest.approx(math.sqrt(1.0 - gamma), abs=1e-10)

    def test_dephasing_degenerate_fixed_space(self, spectral_reports):
        report = spectral_reports["dephasing(p=0.3)"]
        assert report.verdict == VERDICT_NOT_ERGODIC
        assert report.eigenvalue_one_multiplicity == 2
        spectrum = np.sort(report.spectrum.real)
        assert np.abs(spectrum - np.sort([1.0, 1.0, 0.4, 0.4])).max() <= 1e-9
        assert len(report.fixed_points) == 2
        assert report.fixed_point_purity is None

    def test_unitary_conjugation_not_ergodic(self, spectral_reports):
        report = spectral_reports["unitary(theta=1.0472)"]
        assert report.verdict == VERDICT_NOT_ERGODIC
        assert report.eigenvalue_one_multiplicity == 2
        theta = math.pi / 3.0
        _peripheral_set_matches(
            report, [1.0, 1.0, np.exp(1j * theta), np.exp(-1j * theta)]
        )

    def test_population_flip_is_ergodic_not_mixing(self, spectral_reports):
        report = spectral_reports["example-ergodic"]
        assert report.verdict == VERDICT_ERGODIC_NOT_MIXING
        assert report.kappa == pytest.approx(0.0, abs=1e-12)
        _peripheral_set_matches(report, [1.0, -1.0])

    def test_shift_channel_is_mixing_with_zero_kappa(self, spectral_reports):
        report = spectral_reports["example-mixing"]
        assert report.verdict == VERDICT_MIXING
        assert report.kappa == pytest.approx(0.0, abs=1e-12)

    def test_expected_verdicts_hold_for_whole_catalog(self, zoo_entries, spectral_reports):
        for spec, _ in zoo_entries:
            if spec.expected_verdict is None:
                continue
            assert spectral_reports[spec.label].verdict == spec.expected_verdict, spec.label


class TestFixedPoints:
    def test_depolarizing_fixes_maximally_mixed(self, spectral_reports):
        report = spectral_reports["depolarizing(p=0.5)"]
        assert np.abs(report.fixed_points[0].matrix - np.eye(2) / 2.0).max() <= 1e-10
        assert report.fixed_point_purity == pytest.approx(0.5, abs=1e-10)

    def test_amplitude_damping_fixes_ground_state(self, spectral_reports):
        report = spectral_reports["amplitude-damping(gamma=0.3)"]
        assert np.abs(report.fixed_points[0].matrix - np.diag([1.0, 0.0])).max() <= 1e-10
        assert report.fixed_point_purity == pytest.approx(1.0, abs=1e-10)

    def test_fixed_points_are_actually_fixed(self, zoo_entries, spectral_reports):
        for spec, channel in zoo_entries:
            report = spectral_reports[spec.label]
            for dm in report.fixed_points:
                assert trace_norm(apply(channel, dm).matrix - dm.matrix) <= 1e-8, spec.label


def _direct_sum(sizes: tuple, seed: int, conjugate: bool) -> KrausChannel:
    """Sum of seeded Haar-random channels on blocks of `sizes`, optionally unitarily conjugated.

    Each block has Kraus rank 2 (rank 1 on a single level).
    """
    d = sum(sizes)
    ops = []
    offset = 0
    for i, size in enumerate(sizes):
        for k in random_channel(size, min(2, size * size), seed + 100 * i).kraus_ops:
            op = np.zeros((d, d), dtype=complex)
            op[offset : offset + size, offset : offset + size] = k
            ops.append(op)
        offset += size
    if conjugate:
        u = random_channel(d, 1, seed + 200).kraus_ops[0]
        ops = [u @ op @ u.conj().T for op in ops]
    return KrausChannel(d, tuple(ops))


def _cycle(d: int) -> KrausChannel:
    """The completely decoherent d-cycle |j> -> |j+1 mod d>."""
    basis = np.eye(d)
    return KrausChannel(d, tuple(np.outer(basis[(j + 1) % d], basis[j]) for j in range(d)))


def _degenerate_cases():
    cases = [pytest.param(KrausChannel(3, (np.eye(3),)), id="identity(d=3)")]
    cases.append(pytest.param(build_named("cz-dilation"), id="cz-dilation"))
    for conjugate in (False, True):
        kind = "conjugated" if conjugate else "plain"
        cases += [pytest.param(_direct_sum((8, 8), seed, conjugate), id=f"{kind}-8+8(seed={seed})") for seed in range(1, 9)]
    return cases


class TestCompleteFixedPoints:
    @pytest.mark.parametrize("channel", _degenerate_cases())
    def test_fixed_points_span_the_fixed_point_set(self, channel):
        report = analyze(channel)
        assert report.verdict == VERDICT_NOT_ERGODIC
        assert len(report.fixed_points) == report.eigenvalue_one_multiplicity
        for dm in report.fixed_points:
            assert np.linalg.eigvalsh(dm.matrix).min() >= -1e-12
            assert abs(np.trace(dm.matrix) - 1.0) <= 1e-12
            assert trace_norm(apply(channel, dm).matrix - dm.matrix) <= 1e-10
        stacked = np.stack([dm.matrix.ravel() for dm in report.fixed_points], axis=1)
        singular = np.linalg.svd(stacked, compute_uv=False)
        assert singular[-1] > 1e-6 * singular[0]

    def test_cli_count_does_not_depend_on_blas_threads(self, tmp_path):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(channel_to_document(_direct_sum((12, 12), 4, conjugate=False))))
        src = str(Path(channellab.__file__).resolve().parents[1])
        counts = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", "from channellab.cli import console_main; console_main()", "classify", str(path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)["report"]
            assert report["eigenvalue_one_multiplicity"] == 2
            counts.append(len(report["fixed_points"]))
        assert counts == [2, 2]


class TestConvergenceBound:
    def test_template_values(self, spectral_reports):
        report = spectral_reports["depolarizing(p=0.5)"]
        assert convergence_bound(report, 0, 2.0) == pytest.approx(0.0)
        assert convergence_bound(report, 3, 2.0) == pytest.approx(2.0 * 3**2 * 0.5**3)

    def test_rejects_non_mixing(self, spectral_reports):
        with pytest.raises(ValueError, match="mixing"):
            convergence_bound(spectral_reports["example-ergodic"], 5, 1.0)

    def test_rejects_negative_n(self, spectral_reports):
        with pytest.raises(ValueError, match="nonnegative"):
            convergence_bound(spectral_reports["depolarizing(p=0.5)"], -1, 1.0)

    def test_zero_kappa_bound_vanishes(self, spectral_reports):
        report = spectral_reports["example-mixing"]
        assert convergence_bound(report, 5, 10.0) == pytest.approx(0.0)


class TestCalibration:
    def test_depolarizing_first_step_constant(self, spectral_reports):
        p = 0.25
        report = spectral_reports[f"depolarizing(p={p})"]
        rho0 = DensityMatrix.basis_state(2, 0)
        # one step moves |0><0| to distance (1-p) from I/2, so c1 = d1/kappa = 1
        c1 = calibrate_speed_constant(report, rho0)
        assert c1 == pytest.approx(1.0, abs=1e-10)

    def test_rejects_zero_kappa(self, spectral_reports):
        with pytest.raises(ValueError, match="finite-step"):
            calibrate_speed_constant(
                spectral_reports["example-mixing"], DensityMatrix.basis_state(3, 2)
            )

    def test_rejects_non_mixing(self, spectral_reports):
        with pytest.raises(ValueError, match="mixing"):
            calibrate_speed_constant(
                spectral_reports["example-ergodic"], DensityMatrix.basis_state(2, 0)
            )


class TestRateEstimation:
    def test_depolarizing_rate_matches_kappa(self):
        # the orbit from |0><0| decays exactly like kappa^n; cut the window
        # at n=30 so the distances stay far above floating-point noise
        c = build_named("depolarizing", p=0.5)
        estimate = estimate_rate(analyze(c), DensityMatrix.basis_state(2, 0), n_min=5, n_max=30)
        assert estimate.kappa == pytest.approx(0.5, abs=1e-10)
        assert estimate.empirical_rate == pytest.approx(0.5, abs=1e-6)
        assert estimate.fit_residual <= 1e-5

    def test_amplitude_damping_rate_near_kappa(self):
        # a state with coherences excites the slowest mode (decay kappa^n)
        c = build_named("amplitude-damping", gamma=0.3)
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
        estimate = estimate_rate(analyze(c), plus)
        assert estimate.n_range == default_fit_window(2)
        assert abs(estimate.empirical_rate - estimate.kappa) <= 0.05 * estimate.kappa

    def test_population_only_state_shows_squared_rate(self):
        # from |1><1| the orbit has no coherences, so the visible decay is
        # the population mode (1 - gamma)^n, strictly faster than kappa^n
        c = build_named("amplitude-damping", gamma=0.3)
        estimate = estimate_rate(analyze(c), DensityMatrix.basis_state(2, 1))
        assert estimate.empirical_rate == pytest.approx(0.7, abs=1e-6)

    def test_rejects_finite_step_convergence(self):
        c = build_named("example-mixing")
        with pytest.raises(ValueError, match="finitely many steps"):
            estimate_rate(analyze(c), DensityMatrix.basis_state(3, 2))

    def test_rejects_bad_window(self):
        c = build_named("depolarizing", p=0.5)
        with pytest.raises(ValueError, match="window"):
            estimate_rate(analyze(c), DensityMatrix.basis_state(2, 0), n_min=10, n_max=10)

    def test_rejects_converged_window(self):
        # far beyond the horizon where distances hit the floor
        c = build_named("depolarizing", p=0.5)
        with pytest.raises(ValueError, match="usable distances"):
            estimate_rate(analyze(c), DensityMatrix.basis_state(2, 0), n_min=200, n_max=260)


class TestShortcut:
    def test_pure_fixed_point_implies_mixing(self, spectral_reports):
        result = purely_ergodic_shortcut(spectral_reports["amplitude-damping(gamma=0.3)"])
        assert result.applicable
        assert result.verdict == VERDICT_MIXING
        assert result.consistent
        assert result.purity == pytest.approx(1.0, abs=1e-10)

    def test_mixed_fixed_point_not_applicable(self, spectral_reports):
        result = purely_ergodic_shortcut(spectral_reports["depolarizing(p=0.5)"])
        assert not result.applicable
        assert result.verdict is None
        assert result.consistent

    def test_rejects_degenerate_fixed_space(self, spectral_reports):
        with pytest.raises(ValueError, match="ergodic"):
            purely_ergodic_shortcut(spectral_reports["dephasing(p=0.3)"])


class TestPeripheralStructure:
    def test_population_flip_peripheral_vectors_normal(self, spectral_reports):
        records = peripheral_normality_check(spectral_reports["example-ergodic"])
        assert len(records) == 2
        for record in records:
            assert record.defect <= 1e-9

    def test_ergodic_catalog_channels_have_normal_peripherals(self, zoo_entries, spectral_reports):
        for spec, _ in zoo_entries:
            report = spectral_reports[spec.label]
            if report.verdict == VERDICT_NOT_ERGODIC:
                continue
            for record in peripheral_normality_check(report):
                assert record.defect <= 1e-8, spec.label

    def test_rejects_degenerate_fixed_space(self, spectral_reports):
        with pytest.raises(ValueError, match="ergodic"):
            peripheral_normality_check(spectral_reports["dephasing(p=0.3)"])

    def test_cycle_eigenvectors_pair_with_the_reported_peripheral_values(self):
        # the d-cycle's peripheral values are the 8th roots of unity, equal in modulus up to roundoff
        d = 8
        report = analyze(_cycle(d))
        assert len(report.peripheral_eigenvectors) == len(report.peripheral) == d
        s = report.superoperator.matrix
        for lam, theta in zip(report.peripheral, report.peripheral_eigenvectors):
            v = theta.flatten(order="F")
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(s @ v - lam * v) <= 1e-12
        assert report.max_residual <= 1e-12


class TestPolarFixedPoint:
    def test_spin_flip_eigenvector_reconstructs_maximally_mixed(self):
        # the population flip sends sigma_z -> -sigma_z; both polar factors are I/2
        c = example_ergodic_channel()
        rho, sigma = polar_fixed_point(analyze(c), PAULI_Z, -1.0)
        assert np.abs(rho.matrix - np.eye(2) / 2.0).max() <= 1e-10
        assert np.abs(sigma.matrix - np.eye(2) / 2.0).max() <= 1e-10

    def test_unit_eigenvalue_returns_unique_fixed_point(self, zoo_entries, spectral_reports):
        for spec, _ in zoo_entries:
            report = spectral_reports[spec.label]
            if report.verdict == VERDICT_NOT_ERGODIC:
                continue
            fixed = report.fixed_points[0].matrix
            rho, sigma = polar_fixed_point(report, fixed, 1.0)
            assert np.abs(rho.matrix - fixed).max() <= 1e-8, spec.label
            assert np.abs(sigma.matrix - fixed).max() <= 1e-8, spec.label

    def test_rejects_non_eigenvector(self):
        c = example_ergodic_channel()
        with pytest.raises(ValueError, match="eigenpair"):
            polar_fixed_point(analyze(c), np.array([[0.0, 1.0], [1.0, 0.0]]), -1.0)

    def test_rejects_non_peripheral_eigenvalue(self):
        c = example_ergodic_channel()
        with pytest.raises(ValueError, match="peripheral"):
            polar_fixed_point(analyze(c), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


class TestPayload:
    def test_payload_schema_and_values(self, spectral_reports):
        payload = report_to_payload(spectral_reports["depolarizing(p=0.25)"])
        assert set(payload) == {
            "spectrum",
            "peripheral",
            "kappa",
            "verdict",
            "fixed_points",
            "purity",
            "eigenvalue_one_multiplicity",
            "near_cluster_boundary",
            "max_residual",
        }
        assert payload["verdict"] == VERDICT_MIXING
        assert payload["kappa"] == pytest.approx(0.75)
        assert all(len(pair) == 2 for pair in payload["spectrum"])
        assert len(payload["fixed_points"]) == 1

    def test_catalog_reports_flag_no_boundary_cases(self, spectral_reports):
        # the fixtures are chosen away from tolerance boundaries
        for label, report in spectral_reports.items():
            assert report.max_residual <= 1e-8, label


def test_analyze_on_identity_channel():
    from channellab import KrausChannel

    report = analyze(KrausChannel(2, [np.eye(2)]))
    assert report.verdict == VERDICT_NOT_ERGODIC
    assert report.eigenvalue_one_multiplicity == 4
    assert report.kappa == pytest.approx(0.0, abs=1e-12)


def _bloch_cases():
    cases = [pytest.param(build(spec), id=spec.label) for spec in catalog()]
    cases += [pytest.param(random_channel(d, rank, 7 * d + rank), id=f"random(d={d},rank={rank})")
              for d in (2, 3, 5, 8) for rank in (1, 3)]
    cases += [pytest.param(_cycle(d), id=f"cycle(d={d})") for d in (2, 3, 5, 8)]
    for conjugate in (False, True):
        kind = "conjugated" if conjugate else "plain"
        cases += [pytest.param(_direct_sum((dim, dim), dim, conjugate), id=f"{kind}-{dim}+{dim}") for dim in (2, 3, 4)]
    return cases


class TestBlochMatrix:
    """The real Bloch matrix and its Schur pair, pinned here instead of re-checked at runtime."""

    @pytest.mark.parametrize("channel", _bloch_cases())
    def test_bloch_identity(self, channel):
        d = channel.dim
        s = to_superoperator(channel)
        u = from_bloch(np.eye(d * d))
        assert np.abs(u.conj().T @ u - np.eye(d * d)).max() <= 1e-15
        for column in u.T:
            b = column.reshape((d, d), order="F")
            assert np.array_equal(b, b.conj().T)
        exact = u.conj().T @ s.matrix @ u
        assert np.abs(exact.imag).max() <= 1e-14
        assert np.abs(s.bloch - exact).max() <= 1e-13
        # trace preservation: the trace functional, (1, ..., 1, 0, ...) over the diagonal units, is a left fixed vector
        trace_row = np.r_[np.ones(d), np.zeros(d * d - d)]
        assert np.abs(trace_row @ s.bloch - trace_row).max() <= KRAUS_COMPLETENESS_TOL
        t, z = s.schur
        assert np.abs(np.tril(t, -2)).max() == 0.0
        assert np.abs(z @ t @ z.T - s.bloch).max() <= 1e-13
        reference = np.linalg.eigvals(s.matrix)
        rows, cols = linear_sum_assignment(np.abs(s.eigenvalues[:, None] - reference[None, :]))
        assert np.abs(s.eigenvalues[rows] - reference[cols]).max() <= 1e-12


    def test_analyze_peak_memory_stays_within_six_bloch_matrices(self):
        # the build forms no complex d^2 x d^2 array and frees its products before the Schur form
        channel = random_channel(24, 2, 5)
        tracemalloc.start()
        try:
            report = analyze(channel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * report.superoperator.bloch.nbytes

def _conjugation_family(kind: str, d: int, seed: int) -> KrausChannel:
    if kind == "random":
        return random_channel(d, 1 + seed % 3, seed)
    if kind == "cycle":
        return _cycle(d)
    a = 1 + seed % (d - 1)
    return _direct_sum((a, d - a), seed, conjugate=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["random", "cycle", "direct-sum"]),
    seed=st.integers(min_value=0, max_value=2**32 - 2),
)
def test_unitary_conjugation_keeps_verdict_multiplicity_and_kappa(d, kind, seed):
    # conjugation mixes every Bloch coordinate, so the real route runs off the catalog's sparse structure
    tau = _conjugation_family(kind, d, seed)
    v = random_channel(d, 1, seed + 1).kraus_ops[0]
    conjugated = KrausChannel(d, tuple(v @ k @ v.conj().T for k in tau.kraus_ops))
    before, after = analyze(tau), analyze(conjugated)
    assert after.verdict == before.verdict
    assert after.eigenvalue_one_multiplicity == before.eigenvalue_one_multiplicity
    assert after.kappa == pytest.approx(before.kappa, abs=1e-10)
