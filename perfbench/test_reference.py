"""Tests of the reference checker: correct answers pass, planted wrong ones fail.

Run with ``python3 -m pytest perfbench``.  The "program outputs" here are
built with numpy from known channels, so the checker is tested without
``channellab``.
"""

import copy
import math

import numpy as np
import pytest

import reference as ref
import workloads as wl


def pairs(m):
    return wl.to_pairs(m)


def amplitude_damping(gamma=0.3):
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return np.stack([k0, k1])


def dephasing(p=0.3):
    return np.stack([math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * np.diag([1.0, -1.0])]).astype(complex)


def classify_report(kraus, fixed_points):
    answer = ref.answer_from_eigenvalues(np.linalg.eigvals(ref.superoperator(kraus)))
    return {
        "verdict": answer.verdict,
        "kappa": answer.kappa,
        "eigenvalue_one_multiplicity": answer.multiplicity,
        "peripheral": [[z.real, z.imag] for z in answer.peripheral],
        "fixed_points": [pairs(m) for m in fixed_points],
    }, answer


@pytest.fixture
def damping():
    kraus = amplitude_damping()
    report, answer = classify_report(kraus, [np.diag([1.0, 0.0]).astype(complex)])
    return kraus, report, answer


def test_correct_classify_passes(damping):
    kraus, report, answer = damping
    assert answer.verdict == ref.MIXING
    assert answer.kappa == pytest.approx(math.sqrt(0.7))
    assert ref.check_classify(report, kraus, answer) == []


def test_swapped_verdict_is_rejected(damping):
    kraus, report, answer = damping
    report["verdict"] = ref.ERGODIC_NOT_MIXING
    assert any("verdict" in p for p in ref.check_classify(report, kraus, answer))


def test_kappa_off_by_1e6_is_rejected(damping):
    kraus, report, answer = damping
    report["kappa"] = answer.kappa + 1e-6
    assert any("kappa" in p for p in ref.check_classify(report, kraus, answer))


def test_non_fixed_fixed_point_is_rejected(damping):
    kraus, report, answer = damping
    report["fixed_points"] = [pairs(np.eye(2) / 2)]
    assert any("not fixed" in p for p in ref.check_classify(report, kraus, answer))


def test_non_psd_fixed_point_is_rejected():
    kraus = dephasing()
    bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)  # fixed, trace 1, not PSD
    report, answer = classify_report(kraus, [bad])
    assert any("not PSD" in p for p in ref.check_classify(report, kraus, answer))


def test_missing_peripheral_eigenvalue_is_rejected():
    kraus = dephasing()
    report, answer = classify_report(kraus, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert ref.check_classify(report, kraus, answer) == []
    report["peripheral"] = report["peripheral"][:1]
    assert any("peripheral" in p for p in ref.check_classify(report, kraus, answer))


def test_incomplete_fixed_point_set_is_rejected():
    kraus = dephasing()
    full, answer = classify_report(kraus, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert ref.check_classify(full, kraus, answer, independent_fixed_points=True) == []
    one = copy.deepcopy(full)
    one["fixed_points"] = one["fixed_points"][:1]
    assert ref.check_classify(one, kraus, answer, independent_fixed_points=True)
    dependent = copy.deepcopy(full)
    dependent["fixed_points"] = [full["fixed_points"][0], full["fixed_points"][0]]
    assert ref.check_classify(dependent, kraus, answer, independent_fixed_points=True)


def test_known_fault_excuses_only_the_incomplete_fixed_point_set():
    kraus = dephasing()
    full, answer = classify_report(kraus, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    request = wl.Request("classify", "classify_d2", "dephasing", [], check=None, known_fault=True)
    one = copy.deepcopy(full)
    one["fixed_points"] = one["fixed_points"][:1]
    incomplete = ref.check_classify(one, kraus, answer, independent_fixed_points=True)
    assert incomplete and request.excused(incomplete)
    one["verdict"] = ref.MIXING
    one["kappa"] = answer.kappa + 1e-6
    worse = ref.check_classify(one, kraus, answer, independent_fixed_points=True)
    assert len(worse) > len(incomplete) and not request.excused(worse)
    assert not request.excused(["exit code 1: error"])
    unmarked = wl.Request("classify", "classify_d2", "dephasing", [], check=None)
    assert not unmarked.excused(incomplete)


def test_block_answer_matches_full_spectrum_and_conjugation():
    rng = np.random.default_rng(0)
    blocks = (wl.haar_kraus(3, 2, rng), wl.haar_kraus(4, 2, rng))
    kraus = wl.direct_sum(blocks)
    u = wl.haar_unitary(7, rng)
    full = ref.answer_from_eigenvalues(np.linalg.eigvals(ref.superoperator(u @ kraus @ u.conj().T)))
    by_blocks = ref.answer_from_blocks(blocks)
    assert (full.verdict, full.multiplicity) == (by_blocks.verdict, by_blocks.multiplicity) == (ref.NOT_ERGODIC, 2)
    assert full.kappa == pytest.approx(by_blocks.kappa, abs=1e-10)


def test_cycle_answer_matches_full_spectrum():
    d = 5
    full = ref.answer_from_eigenvalues(np.linalg.eigvals(ref.superoperator(wl.cycle_kraus(d))))
    known = ref.cycle_answer(d)
    assert (full.verdict, full.multiplicity) == (known.verdict, known.multiplicity)
    assert full.kappa == pytest.approx(0.0, abs=1e-12)
    assert ref._match_multiset(full.peripheral, known.peripheral, 1e-10)


def test_oracle_check():
    report = {
        "oracle": {"verdict": ref.ORACLE_MIXING, "final_max_distance": 1e-12, "trailing_max_distance": 1e-12},
        "oracle_agrees": True,
    }
    answer = ref.SpectralAnswer(ref.MIXING, 1, 0.5, np.array([1.0 + 0j]))
    assert ref.check_oracle(report, answer, 1e-8) == []
    report["oracle"]["verdict"] = ref.ORACLE_NOT_MIXING
    assert ref.check_oracle(report, answer, 1e-8)


def orbit_lines(kraus, rho0, n):
    fp = ref.unique_fixed_point(kraus)
    distances = ref.orbit_reference(kraus, rho0, n, fp)
    lines = [{"n": k, "distance_to_fixed_point": dist, "functionals": {"trivial": dist}}
             for k, dist in enumerate(distances)]
    return lines, distances


def test_correct_orbit_passes_and_non_monotone_line_is_rejected():
    kraus = amplitude_damping()
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    lines, distances = orbit_lines(kraus, rho0, 20)
    assert ref.check_orbit(lines, distances, ("trivial",), unital=False) == []
    bumped = copy.deepcopy(lines)
    bumped[10]["functionals"]["trivial"] = lines[9]["functionals"]["trivial"] + 1e-6
    assert ref.check_orbit(bumped, distances, ("trivial",), unital=False)
    moved = copy.deepcopy(lines)
    moved[5]["distance_to_fixed_point"] += 1e-8
    assert ref.check_orbit(moved, distances, ("trivial",), unital=False)


def test_relative_entropy_increase_is_rejected_and_infinity_allowed():
    lines = [{"n": k, "distance_to_fixed_point": None, "functionals": {"relative_entropy": v}}
             for k, v in enumerate(["inf", "inf", 0.5, 0.25])]
    distances = [None] * 4
    assert ref.check_orbit(lines, distances, ("relative_entropy",), unital=False) == []
    lines[3]["functionals"]["relative_entropy"] = 0.6
    assert ref.check_orbit(lines, distances, ("relative_entropy",), unital=False)


def test_von_neumann_decrease_is_rejected_on_unital_channels():
    lines = [{"n": k, "distance_to_fixed_point": None, "functionals": {"von_neumann": v}}
             for k, v in enumerate([0.0, 0.3, 0.2])]
    assert ref.check_orbit(lines, [None] * 3, ("von_neumann",), unital=True)
    assert ref.check_orbit(lines, [None] * 3, ("von_neumann",), unital=False) == []


def test_cesaro_check():
    kraus = amplitude_damping(0.5)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    fp = ref.unique_fixed_point(kraus)
    n = 100
    checkpoints = ref.cesaro_checkpoints(n)
    assert checkpoints == [1, 10, 100]
    table = ref.cesaro_reference(kraus, rho0, n, fp)
    rows = [{"n": m, "distance": ref.trace_norm(table[m][0] - fp),
             "n_scaled_distance": (m + 1) * ref.trace_norm(table[m][0] - fp)} for m in checkpoints]
    report = {"average": pairs(table[n][0]), "distance_to_fixed_point": rows[-1]["distance"], "rate_table": rows}
    assert ref.check_cesaro(report, table, n, fp) == []
    wrong = copy.deepcopy(report)
    wrong["average"] = pairs(table[n][0] + np.diag([1e-7, -1e-7]))
    assert ref.check_cesaro(wrong, table, n, fp)
    inflated = copy.deepcopy(report)
    inflated["rate_table"][1]["n_scaled_distance"] *= 1e3
    assert ref.check_cesaro(inflated, table, n, fp)


def test_dilation_check():
    bath = np.array([0.0, 1.0], dtype=complex)
    report = {
        "validation": {"passed": True},
        "factorizing": {"count": 1, "verdict": ref.MIXING, "states": [[[0.0, 0.0], [0.0, 1.0]]]},
        "cross_validation": {"spectral_verdict": ref.MIXING, "agree": True, "fixed_point_distance": 1e-15},
    }
    assert ref.check_dilation(report, 1, ref.MIXING, bath) == []
    assert ref.check_dilation(report, 2, ref.NOT_ERGODIC, None)
    wrong_state = copy.deepcopy(report)
    wrong_state["factorizing"]["states"] = [[[1.0, 0.0], [0.0, 0.0]]]
    assert ref.check_dilation(wrong_state, 1, ref.MIXING, bath)


def test_stinespring_document_gives_the_kraus_operators():
    theta = 0.4
    swap = np.eye(4)[[0, 2, 1, 3]]
    u = math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * swap
    doc = {"stinespring": {"dimA": 2, "dimB": 2, "unitary": pairs(u), "bath_state": [[1.0, 0.0], [0.0, 0.0]]}}
    kraus = wl.kraus_from_document(doc)
    gram = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(gram, np.eye(2))
    # the swap part sends |1><1| to the bath and brings |0> back in
    out = ref.apply_kraus(kraus, np.diag([0.0, 1.0]).astype(complex))
    assert out[0, 0].real == pytest.approx(math.sin(theta) ** 2)
