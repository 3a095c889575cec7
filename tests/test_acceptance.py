"""End-to-end acceptance checks for the classification pipeline.

Each test pins one advertised guarantee of the library at its stated
tolerance: golden behaviour of the two hand-built example channels,
agreement between every independent mixing criterion (spectral verdict,
orbit oracle, Lyapunov functionals, asymptotic deformation, factorizing
eigenstates), convergence-rate calibration, Cesaro averaging, and
representation/byte-level determinism of the CLI.
"""

import itertools
import json
import math

import numpy as np
import pytest

from channellab import (
    DensityMatrix,
    KrausChannel,
    analyze,
    apply,
    asymptotic_deformation_estimate,
    calibrate_speed_constant,
    cesaro_average,
    convergence_bound,
    cross_validate,
    deformation_evidence,
    estimate_rate,
    find_factorizing_eigenstates,
    from_stinespring,
    is_unital,
    orbit,
    peripheral_normality_check,
    polar_fixed_point,
    probe_states,
    purely_ergodic_shortcut,
    relative_entropy,
    to_superoperator,
    validate_cpt,
    weak_contraction_check,
)
from channellab.channel import apply_raw, unvec, vec
from channellab.cli import main
from channellab.lyapunov import ORACLE_MIXING
from channellab.opalg import trace_norm
from channellab.spectral import VERDICT_ERGODIC_NOT_MIXING, VERDICT_MIXING, VERDICT_NOT_ERGODIC
from channellab.zoo import (
    PAULI_Z,
    build_named,
    dilation_instance,
    example_ergodic_channel,
    example_mixing_channel,
    random_state,
)


def _multiset_close(got, want, tol):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    used = [False] * len(want)
    for z in got:
        candidates = [i for i in range(len(want)) if not used[i]]
        best = min(candidates, key=lambda i: abs(want[i] - z))
        assert abs(want[best] - z) <= tol, (z, want)
        used[best] = True


def test_criterion_01_population_flip_oscillates_between_basis_states(spectral_reports):
    report = spectral_reports["example-ergodic"]
    assert report.verdict == VERDICT_ERGODIC_NOT_MIXING
    _multiset_close(report.peripheral, [1.0, -1.0], 1e-8)
    assert np.abs(report.fixed_points[0].matrix - np.eye(2) / 2.0).max() <= 1e-9

    trace = orbit(analyze(example_ergodic_channel()), DensityMatrix.basis_state(2, 0), 8)
    ground = DensityMatrix.basis_state(2, 0).matrix
    excited = DensityMatrix.basis_state(2, 1).matrix
    for k, state in enumerate(trace.states):
        expected = ground if k % 2 == 0 else excited
        assert np.array_equal(state, expected), f"step {k} not an exact alternation"


def test_criterion_02_cascade_absorbs_all_matrix_units_in_two_steps(spectral_reports):
    assert spectral_reports["example-mixing"].verdict == VERDICT_MIXING

    c = example_mixing_channel()
    sink = np.diag([1.0, 0.0, 0.0]).astype(complex)
    for i, j in itertools.product(range(3), repeat=2):
        unit = np.zeros((3, 3), dtype=complex)
        unit[i, j] = 1.0
        image = apply_raw(c, apply_raw(c, unit))
        assert np.abs(image - np.trace(unit) * sink).max() <= 1e-12, (i, j)

    result = weak_contraction_check(
        c, [(DensityMatrix.basis_state(3, 2), DensityMatrix.basis_state(3, 1))]
    )
    assert result.violated
    assert abs(result.d_before - 2.0) <= 1e-12
    assert abs(result.d_after - 2.0) <= 1e-12


def test_criterion_03_spectral_and_orbit_oracle_verdicts_agree_across_catalog(
    zoo_entries, spectral_reports, oracle_results
):
    assert len(zoo_entries) >= 12
    disagreements = []
    for spec, _ in zoo_entries:
        spectral_mixing = spectral_reports[spec.label].verdict == VERDICT_MIXING
        oracle_mixing = oracle_results[spec.label].verdict == ORACLE_MIXING
        if spectral_mixing != oracle_mixing:
            disagreements.append(spec.label)
    assert disagreements == []


def test_criterion_04_depolarizing_rate_fit_and_calibrated_bound(spectral_reports):
    for p in (0.25, 0.5):
        c = build_named("depolarizing", p=p)
        report = spectral_reports[f"depolarizing(p={p})"]
        kappa = 1.0 - p
        rho0 = DensityMatrix.basis_state(2, 0)

        estimate = estimate_rate(report, rho0, n_min=5, n_max=30)
        assert abs(estimate.empirical_rate - kappa) <= 0.05 * kappa, p

        c1 = calibrate_speed_constant(report, rho0)
        s = to_superoperator(c)
        fixed_vec = vec(report.fixed_points[0].matrix)
        v = vec(rho0.matrix)
        for n in range(1, 101):
            v = s.matrix @ v
            measured = trace_norm(unvec(v - fixed_vec))
            bound = convergence_bound(report, n, c1)
            assert measured <= bound + 1e-12, (p, n, measured, bound)


def test_criterion_05_relative_entropy_decreases_under_depolarizing():
    mixed = DensityMatrix.maximally_mixed(2)
    for p in (0.25, 0.5):
        c = build_named("depolarizing", p=p)
        for idx, rho in enumerate(probe_states(2, seed=0)):
            values = []
            state = rho
            for _ in range(101):
                values.append(relative_entropy(state, mixed))
                state = apply(c, state)
            increases = max(b - a for a, b in zip(values, values[1:]))
            assert increases <= 1e-8, (p, idx)
            assert values[100] < 1e-6, (p, idx)


def test_criterion_05_relative_entropy_monotone_under_dephasing():
    # I/2 is a faithful fixed point of every dephasing channel, so the
    # divergence from it must never grow even though it need not vanish
    mixed = DensityMatrix.maximally_mixed(2)
    for p in (0.3, 0.8):
        c = build_named("dephasing", p=p)
        for idx, rho in enumerate(probe_states(2, seed=0)):
            values = []
            state = rho
            for _ in range(101):
                values.append(relative_entropy(state, mixed))
                state = apply(c, state)
            increases = max(b - a for a, b in zip(values, values[1:]))
            assert increases <= 1e-8, (p, idx)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "population basis probes are fixed states of the coherence-erasing channel, "
        "so their divergence from I/2 stays at ln 2 forever and can never drop below 1e-6"
    ),
)
def test_criterion_05_dephasing_divergence_cannot_vanish_from_population_probes():
    mixed = DensityMatrix.maximally_mixed(2)
    c = build_named("dephasing", p=0.3)
    for rho in probe_states(2, seed=0):
        state = rho
        for _ in range(100):
            state = apply(c, state)
        assert relative_entropy(state, mixed) < 1e-6


def test_criterion_05_data_processing_inequality_holds_over_400_trials(zoo_entries):
    channels = [channel for _, channel in zoo_entries]
    rng = np.random.default_rng(2024)
    for trial in range(400):
        c = channels[trial % len(channels)]
        seed = int(rng.integers(0, 2**31))
        rho = random_state(c.dim, seed=seed)
        sigma = random_state(c.dim, seed=seed + 1)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(apply(c, rho), apply(c, sigma))
        assert after <= before + 1e-8, trial


def test_criterion_06_entropy_production_on_unital_channels(zoo_entries, spectral_reports):
    from channellab.lyapunov import FUNCTIONAL_VON_NEUMANN

    checked = 0
    for spec, channel in zoo_entries:
        if not is_unital(channel):
            continue
        checked += 1
        mixing = spectral_reports[spec.label].verdict == VERDICT_MIXING
        for idx, rho in enumerate(probe_states(channel.dim, seed=0)):
            trace = orbit(spectral_reports[spec.label], rho, 100, (FUNCTIONAL_VON_NEUMANN,))
            values = trace.functional_values[FUNCTIONAL_VON_NEUMANN]
            decreases = max(a - b for a, b in zip(values, values[1:]))
            assert decreases <= 1e-9, (spec.label, idx)
            if mixing:
                assert values[-1] >= math.log(channel.dim) - 1e-6, (spec.label, idx)
    assert checked >= 5  # population flip, depolarizing x2, dephasing x2, rotations, identity-like


def test_criterion_07_amplitude_damping_pure_fixed_point_implies_mixing(spectral_reports):
    ground = np.diag([1.0, 0.0]).astype(complex)
    for gamma in (0.3, 0.7):
        report = spectral_reports[f"amplitude-damping(gamma={gamma})"]
        assert report.eigenvalue_one_multiplicity == 1
        assert report.verdict == VERDICT_MIXING
        assert np.abs(report.fixed_points[0].matrix - ground).max() <= 1e-8
        assert report.fixed_point_purity >= 1.0 - 1e-9
        shortcut = purely_ergodic_shortcut(report)
        assert shortcut.applicable and shortcut.verdict == VERDICT_MIXING and shortcut.consistent


def test_criterion_08_polar_reconstruction_recovers_fixed_points(zoo_entries, spectral_reports):
    # golden case: the spin operator is a peripheral eigenvector of the
    # population flip and both polar factors collapse to I/2
    flip = example_ergodic_channel()
    rho, sigma = polar_fixed_point(analyze(flip), PAULI_Z, -1.0)
    for dm in (rho, sigma):
        assert np.abs(dm.matrix - np.eye(2) / 2.0).max() <= 1e-9
        assert trace_norm(apply(flip, dm).matrix - dm.matrix) <= 1e-9

    for spec, _ in zoo_entries:
        report = spectral_reports[spec.label]
        if report.verdict == VERDICT_NOT_ERGODIC:
            continue
        fixed = report.fixed_points[0].matrix
        for lam, theta in zip(report.peripheral, report.peripheral_eigenvectors):
            left, right = polar_fixed_point(report, theta, lam)
            assert np.abs(left.matrix - fixed).max() <= 1e-7, (spec.label, lam)
            assert np.abs(right.matrix - fixed).max() <= 1e-7, (spec.label, lam)
        for record in peripheral_normality_check(report):
            assert record.defect <= 1e-7, (spec.label, record.eigenvalue)


def test_criterion_09_cesaro_average_converges_at_one_over_n():
    c = example_ergodic_channel()
    rho0 = DensityMatrix.basis_state(2, 0)
    mixed = np.eye(2) / 2.0
    for n in (99, 999, 9999, 10, 100, 1000, 10000):
        distance = trace_norm(cesaro_average(to_superoperator(c), rho0, n).matrix - mixed)
        assert distance <= 2.0 / (n + 1), n


def test_criterion_10_factorizing_eigenstate_count_decides_mixing():
    swap_instance = dilation_instance("partial-swap-dilation", theta=math.pi / 4.0)
    fact = find_factorizing_eigenstates(swap_instance)
    assert fact.count == 1
    assert fact.verdict == VERDICT_MIXING
    cross = cross_validate(swap_instance)
    assert cross.agree
    assert cross.fixed_point_distance <= 1e-7
    swap_channel = from_stinespring(swap_instance.dilation)
    for nu in fact.states:
        projector = DensityMatrix.pure(nu)
        assert trace_norm(apply(swap_channel, projector).matrix - projector.matrix) <= 1e-8

    cz_instance = dilation_instance("cz-dilation")
    fact = find_factorizing_eigenstates(cz_instance)
    assert fact.count == 2
    assert fact.verdict == VERDICT_NOT_ERGODIC
    cz_channel = from_stinespring(cz_instance.dilation)
    report = analyze(cz_channel)
    assert report.eigenvalue_one_multiplicity >= 2
    for nu in fact.states:
        projector = DensityMatrix.pure(nu)
        assert trace_norm(apply(cz_channel, projector).matrix - projector.matrix) <= 1e-8


def test_criterion_11_asymptotic_deformation_evidence_matches_mixing(
    zoo_entries, spectral_reports
):
    for spec, channel in zoo_entries:
        pairs = list(itertools.combinations(probe_states(channel.dim, seed=0), 2))
        results = asymptotic_deformation_estimate(spectral_reports[spec.label].superoperator, pairs, 500)
        mixing = spectral_reports[spec.label].verdict == VERDICT_MIXING
        assert deformation_evidence(results) == mixing, spec.label
        if spec.name == "unitary":
            for d0, d_limit in results:
                assert abs(d_limit - d0) <= 1e-10, spec.label


def test_criterion_12_gauge_rotation_invariance_and_cli_byte_determinism(capsys, tmp_path):
    # mixing the Kraus operators by any unitary matrix leaves the channel,
    # and therefore every reported quantity, unchanged
    targets = [
        example_mixing_channel(),
        build_named("depolarizing", p=0.25),
        build_named("amplitude-damping", gamma=0.3),
        build_named("random", dim=3, kraus_rank=3, seed=13),
    ]
    rng = np.random.default_rng(99)
    for c in targets:
        r = len(c.kraus_ops)
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        v, _ = np.linalg.qr(g)
        rotated_ops = [
            sum(v[m, n] * c.kraus_ops[n] for n in range(r)) for m in range(r)
        ]
        rotated = KrausChannel(c.dim, rotated_ops)
        assert validate_cpt(rotated).passed
        before = analyze(c)
        after = analyze(rotated)
        assert after.verdict == before.verdict
        assert abs(after.kappa - before.kappa) <= 1e-8
        _multiset_close(after.spectrum, before.spectrum, 1e-8)
        if before.verdict != VERDICT_NOT_ERGODIC:
            assert np.abs(after.fixed_points[0].matrix - before.fixed_points[0].matrix).max() <= 1e-8

    # byte-for-byte CLI determinism at a fixed seed
    rc, out, err = main(["zoo-emit", "random", "--dim", "2", "--param", "kraus_rank=4", "--param", "seed=7"]), *capsys.readouterr()
    assert rc == 0
    path = tmp_path / "rand.json"
    path.write_text(out)
    runs = []
    for _ in range(2):
        rc = main(["--seed", "7", "classify", str(path), "--oracle", "--nmax", "150"])
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert json.loads(runs[0][1])["report"]["oracle_agrees"]
