"""Conserved-observable dilations: hypothesis checks, factorizing eigenstates, audits."""

import numpy as np
import pytest

from channellab import (
    ConservedDilation,
    DensityMatrix,
    HypothesisViolation,
    StinespringDilation,
    conservation_audit,
    cross_validate,
    find_factorizing_eigenstates,
    instance_from_document,
    instance_to_document,
    validate_conserved,
)
from channellab import tolerances as tol
from channellab.dilation import conserved_observable
from channellab.spectral import VERDICT_MIXING, VERDICT_NOT_ERGODIC
from channellab.zoo import PAULI_X, PAULI_Z, dilation_instance, partial_swap_unitary

BATH_GROUND = np.array([1.0, 0.0])


def _spin_dilation(unitary, bath_state=BATH_GROUND, extremal="max"):
    dilation = StinespringDilation(2, 2, unitary, bath_state)
    return ConservedDilation(dilation=dilation, m_a=PAULI_Z, m_b=PAULI_Z, extremal=extremal)


class TestConstruction:
    def test_rejects_wrong_observable_shape(self):
        dilation = StinespringDilation(2, 2, np.eye(4), BATH_GROUND)
        with pytest.raises(ValueError, match="mA has dimension"):
            ConservedDilation(dilation=dilation, m_a=np.eye(3), m_b=PAULI_Z, extremal="max")

    def test_rejects_non_hermitian_observable(self):
        dilation = StinespringDilation(2, 2, np.eye(4), BATH_GROUND)
        with pytest.raises(ValueError, match="not Hermitian"):
            ConservedDilation(
                dilation=dilation,
                m_a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                m_b=PAULI_Z,
                extremal="max",
            )

    def test_rejects_unknown_extremal(self):
        dilation = StinespringDilation(2, 2, np.eye(4), BATH_GROUND)
        with pytest.raises(ValueError, match="extremal"):
            ConservedDilation(dilation=dilation, m_a=PAULI_Z, m_b=PAULI_Z, extremal="middle")

    def test_observable_assembly(self):
        cd = _spin_dilation(np.eye(4))
        oracle = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
        assert np.abs(conserved_observable(cd) - oracle).max() <= 1e-15


class TestValidation:
    def test_partial_swap_passes(self):
        report = validate_conserved(dilation_instance("partial-swap-dilation"))
        assert report.passed
        assert report.commutator_defect <= 1e-12
        assert report.bath_eigen_residual <= 1e-12
        assert report.extremal_gap == pytest.approx(2.0)
        assert report.extremal_eigenvalue == pytest.approx(1.0)

    def test_cz_passes(self):
        report = validate_conserved(dilation_instance("cz-dilation"))
        assert report.passed
        assert report.commutator_defect <= 1e-12

    def test_non_commuting_unitary_fails(self):
        cd = _spin_dilation(np.kron(PAULI_X, np.eye(2)))
        report = validate_conserved(cd)
        assert not report.passed
        assert report.commutator_defect == pytest.approx(2.0)
        assert not report.checks["commutator"]
        assert any("commutator" in msg for msg in report.messages)

    def test_bath_off_eigenvector_fails(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        cd = _spin_dilation(partial_swap_unitary(np.pi / 4.0), bath_state=plus)
        report = validate_conserved(cd)
        assert not report.checks["bath_eigenvector"]
        assert any("not an eigenvector" in msg for msg in report.messages)

    def test_degenerate_extremal_eigenvalue_fails(self):
        dilation = StinespringDilation(2, 2, partial_swap_unitary(np.pi / 4.0), BATH_GROUND)
        cd = ConservedDilation(dilation=dilation, m_a=PAULI_Z, m_b=np.eye(2), extremal="max")
        report = validate_conserved(cd)
        assert not report.checks["extremal_gap"]
        assert any("degenerate" in msg for msg in report.messages)

    def test_min_extremal_with_excited_bath(self):
        excited = np.array([0.0, 1.0])
        cd = _spin_dilation(partial_swap_unitary(np.pi / 4.0), bath_state=excited, extremal="min")
        report = validate_conserved(cd)
        assert report.passed
        assert report.extremal_eigenvalue == pytest.approx(-1.0)


class TestFactorizingEigenstates:
    def test_partial_swap_has_exactly_one(self):
        report = find_factorizing_eigenstates(dilation_instance("partial-swap-dilation"))
        assert report.count == 1
        assert report.verdict == VERDICT_MIXING
        assert max(report.residuals) <= 1e-9
        # the unique factorizing direction is the bath-aligned ground state
        assert np.abs(np.abs(report.states[0]) - np.array([1.0, 0.0])).max() <= 1e-9

    def test_cz_has_two(self):
        report = find_factorizing_eigenstates(dilation_instance("cz-dilation"))
        assert report.count == 2
        assert report.verdict == VERDICT_NOT_ERGODIC
        # both basis directions factorize, with unitary eigenvalue 1 (bath in |0>)
        assert np.allclose(sorted(np.real(report.unitary_eigenvalues)), [1.0, 1.0], atol=1e-9)

    def test_identity_unitary_factorizes_everywhere(self):
        report = find_factorizing_eigenstates(_spin_dilation(np.eye(4)))
        assert report.count == 2  # the whole system slice
        assert report.verdict == VERDICT_NOT_ERGODIC
        assert report.n_clusters == 1
        assert report.max_cluster_size == 4
        assert report.has_degenerate_cluster

    def test_chained_eigenvalues_form_one_cluster(self):
        # phases 0, 0.6, 1.2, 1.8 x CLUSTER_TOL: each is within tolerance of the next, the
        # ends are not, so only single linkage joins all four
        steps = np.array([0.0, 1.2, 0.6, 1.8]) * tol.CLUSTER_TOL  # chain order 0-2-1-3
        report = find_factorizing_eigenstates(_spin_dilation(np.diag(np.exp(1j * steps))))
        assert report.n_clusters == 1
        assert report.max_cluster_size == 4
        assert report.count == 2

    def test_invalid_hypotheses_raise(self):
        cd = _spin_dilation(np.kron(PAULI_X, np.eye(2)))
        with pytest.raises(HypothesisViolation, match="commutator"):
            find_factorizing_eigenstates(cd)

    def test_swap_angle_sweep_counts(self):
        # any partial swap with a genuine swap component funnels into |0>
        for theta in (0.3, np.pi / 4.0, np.pi / 2.0, 2.0):
            cd = dilation_instance("partial-swap-dilation", theta=theta)
            assert find_factorizing_eigenstates(cd).count == 1, theta


class TestCrossValidation:
    def test_partial_swap_agrees_mixing(self):
        report = cross_validate(dilation_instance("partial-swap-dilation"))
        assert report.factorizing_verdict == VERDICT_MIXING
        assert report.spectral_verdict == VERDICT_MIXING
        assert report.agree
        assert report.count == 1
        assert report.fixed_point_distance <= 1e-8

    def test_cz_agrees_not_ergodic(self):
        report = cross_validate(dilation_instance("cz-dilation"))
        assert report.factorizing_verdict == VERDICT_NOT_ERGODIC
        assert report.spectral_verdict == VERDICT_NOT_ERGODIC
        assert report.agree
        assert report.fixed_point_distance is None


class TestConservationAudit:
    def test_partial_swap_monotone_filling(self):
        cd = dilation_instance("partial-swap-dilation")
        audit = conservation_audit(cd, DensityMatrix.basis_state(2, 1), 40)
        assert audit.extremal == "max"
        assert audit.system_expectations[0] == pytest.approx(-1.0)
        assert audit.system_expectations[-1] == pytest.approx(1.0, abs=1e-6)
        assert audit.max_sign_violation <= 1e-10
        assert audit.max_monotonicity_violation <= 1e-10
        # bath only ever loses weight from its maximal eigenvalue
        assert all(flow <= 1e-10 for flow in audit.bath_outflows)

    def test_min_extremal_reverses_direction(self):
        excited = np.array([0.0, 1.0])
        cd = _spin_dilation(partial_swap_unitary(np.pi / 4.0), bath_state=excited, extremal="min")
        audit = conservation_audit(cd, DensityMatrix.basis_state(2, 0), 40)
        assert audit.system_expectations[0] == pytest.approx(1.0)
        assert audit.system_expectations[-1] == pytest.approx(-1.0, abs=1e-6)
        assert audit.max_sign_violation <= 1e-10
        assert audit.max_monotonicity_violation <= 1e-10
        assert all(flow >= -1e-10 for flow in audit.bath_outflows)

    def test_stationary_state_conserves_exactly(self):
        cd = dilation_instance("partial-swap-dilation")
        audit = conservation_audit(cd, DensityMatrix.basis_state(2, 0), 10)
        assert np.abs(np.diff(audit.system_expectations)).max() <= 1e-12
        assert max(abs(f) for f in audit.bath_outflows) <= 1e-12

    def test_rejects_bad_arguments(self):
        cd = dilation_instance("cz-dilation")
        with pytest.raises(ValueError, match="n must be >= 1"):
            conservation_audit(cd, DensityMatrix.basis_state(2, 0), 0)
        with pytest.raises(ValueError, match="dimension"):
            conservation_audit(cd, DensityMatrix.basis_state(3, 0), 5)


class TestDocuments:
    def test_round_trip(self):
        cd = dilation_instance("partial-swap-dilation")
        doc = instance_to_document(cd)
        assert set(doc) == {"dimA", "dimB", "unitary", "bath_state", "mA", "mB", "extremal"}
        cd2 = instance_from_document(doc)
        assert cd2.dim_a == cd.dim_a and cd2.dim_b == cd.dim_b
        assert np.abs(cd2.dilation.unitary - cd.dilation.unitary).max() <= 1e-15
        assert np.abs(cd2.m_a - cd.m_a).max() <= 1e-15
        assert cd2.extremal == cd.extremal
        assert validate_conserved(cd2).passed

    def test_missing_key_rejected(self):
        doc = instance_to_document(dilation_instance("cz-dilation"))
        del doc["mA"]
        with pytest.raises(ValueError, match="missing keys"):
            instance_from_document(doc)

    def test_bad_extremal_rejected(self):
        doc = instance_to_document(dilation_instance("cz-dilation"))
        doc["extremal"] = "largest"
        with pytest.raises(ValueError, match="extremal"):
            instance_from_document(doc)


class TestZooInstances:
    def test_cz_rejects_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            dilation_instance("cz-dilation", theta=0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="no conserved-dilation fixture"):
            dilation_instance("depolarizing")
