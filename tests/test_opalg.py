"""Linear-algebra kernel tests against independent small-case oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg

from channellab import opalg, to_superoperator
from channellab.zoo import example_ergodic_channel


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGeneralEig:
    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        system = opalg.general_eig(a)
        assert np.abs(system.eigenvalues).max() <= 1e-12
        assert system.residual <= 1e-12

    def test_identity_gives_full_eigenbasis(self):
        system = opalg.general_eig(np.eye(3))
        assert np.allclose(system.eigenvalues, 1.0)
        assert np.linalg.matrix_rank(system.eigenvectors) == 3

    def test_cyclic_permutation_roots_of_unity(self):
        p = np.roll(np.eye(3), 1, axis=0)
        system = opalg.general_eig(p)
        oracle = np.exp(2j * np.pi * np.arange(3) / 3)
        for lam in system.eigenvalues:
            assert np.abs(oracle - lam).min() <= 1e-9
        assert system.residual <= 1e-12

    def test_matches_numpy_on_random_matrix(self):
        rng = np.random.default_rng(11)
        a = _random_complex(rng, 5, 5)
        system = opalg.general_eig(a)
        oracle = np.linalg.eigvals(a)
        for lam in system.eigenvalues:
            assert np.abs(oracle - lam).min() <= 1e-8
        # every returned pair is a genuine eigenpair
        for k in range(5):
            v = system.eigenvectors[:, k]
            assert np.linalg.norm(a @ v - system.eigenvalues[k] * v) <= 1e-8

    def test_ordering_descending_modulus_then_angle(self):
        a = np.diag([0.5, -1.0, 1.0, 0.25j])
        system = opalg.general_eig(a)
        moduli = np.abs(system.eigenvalues)
        assert np.all(np.diff(moduli) <= 1e-12)
        assert system.eigenvalues[0] == pytest.approx(1.0)  # angle 0 before angle pi
        assert system.eigenvalues[1] == pytest.approx(-1.0)


def _per_column_eig(a):
    """Reference: back-substitute one eigenvector column of the Schur form at a time."""
    n = a.shape[0]
    t, z = scipy.linalg.schur(a, output="complex")
    vals = np.diag(t).copy()
    floor = np.finfo(float).eps * max(1.0, float(np.abs(t).max()))
    vecs = np.zeros((n, n), dtype=complex)
    for k in range(n):
        y = np.zeros(n, dtype=complex)
        y[k] = 1.0
        for i in range(k - 1, -1, -1):
            d = t[i, i] - vals[k]
            if abs(d) < floor:
                d = floor
            y[i] = -(t[i, i + 1 : k + 1] @ y[i + 1 : k + 1]) / d
        v = z @ y
        vecs[:, k] = v / np.linalg.norm(v)
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order], vecs[:, order]


class TestBackSubstitution:
    @pytest.mark.parametrize("case", ["random_non_normal", "jordan_block", "example_ergodic"])
    def test_matches_per_column_reference(self, case):
        if case == "random_non_normal":
            rng = np.random.default_rng(40)
            a = np.triu(_random_complex(rng, 40, 40)) + 0.1 * _random_complex(rng, 40, 40)
        elif case == "jordan_block":
            # equal diagonal entries: every difference takes the eps * scale floor
            a = 0.5 * np.eye(6) + np.diag(np.ones(5), 1)
        else:
            a = to_superoperator(example_ergodic_channel()).matrix
        ref_vals, ref_vecs = _per_column_eig(a)
        system = opalg.general_eig(a)
        assert np.array_equal(system.eigenvalues, ref_vals)
        schur_diag = np.diag(scipy.linalg.schur(a, output="complex")[0])
        order = np.lexsort((np.angle(schur_diag), -np.abs(schur_diag)))
        assert np.array_equal(system.eigenvalues, schur_diag[order])
        overlap = np.sum(ref_vecs.conj() * system.eigenvectors, axis=0)
        aligned = system.eigenvectors * (overlap.conj() / np.abs(overlap))
        assert np.abs(aligned - ref_vecs).max() <= 1e-12

    def test_given_schur_pair_gives_the_same_system(self):
        rng = np.random.default_rng(2)
        a = _random_complex(rng, 12, 12)
        fresh = opalg.general_eig(a)
        reused = opalg.general_eig(a, opalg.schur(a))
        assert np.array_equal(fresh.eigenvalues, reused.eigenvalues)
        assert np.array_equal(fresh.eigenvectors, reused.eigenvectors)


class TestDecompositions:
    def test_svd_reconstructs(self):
        rng = np.random.default_rng(3)
        a = _random_complex(rng, 3, 4)
        u, s, v = opalg.svd(a)
        assert np.abs(u @ np.diag(s) @ v.conj().T - a).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_trace_norm_hermitian_is_abs_eigenvalue_sum(self):
        a = np.diag([3.0, -2.0, 0.5])
        assert opalg.trace_norm(a) == pytest.approx(5.5, abs=1e-12)

    def test_trace_norm_unitary_invariance(self):
        rng = np.random.default_rng(7)
        a = _random_complex(rng, 3, 3)
        q, _ = np.linalg.qr(_random_complex(rng, 3, 3))
        assert opalg.trace_norm(q @ a @ q.conj().T) == pytest.approx(opalg.trace_norm(a), abs=1e-10)

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(9)
        g = _random_complex(rng, 3, 3)
        a = g @ g.conj().T
        b = opalg.psd_sqrt(a)
        assert np.abs(b @ b - a).max() <= 1e-10
        assert opalg.hermiticity_defect(b) <= 1e-12

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError, match="non-PSD"):
            opalg.psd_sqrt(np.diag([1.0, -1.0]))


class TestTensorOps:
    def test_kron_index_oracle(self):
        rng = np.random.default_rng(17)
        a = _random_complex(rng, 2, 2)
        b = _random_complex(rng, 3, 3)
        k = opalg.kron(a, b)
        for i in range(2):
            for j in range(2):
                for m in range(3):
                    for n in range(3):
                        assert k[i * 3 + m, j * 3 + n] == pytest.approx(a[i, j] * b[m, n])

    def test_partial_trace_index_oracle(self):
        rng = np.random.default_rng(19)
        dim_a, dim_b = 2, 3
        m = _random_complex(rng, dim_a * dim_b, dim_a * dim_b)
        keep_a = opalg.partial_trace(m, dim_a, dim_b, keep="A")
        keep_b = opalg.partial_trace(m, dim_a, dim_b, keep="B")
        oracle_a = np.zeros((dim_a, dim_a), dtype=complex)
        oracle_b = np.zeros((dim_b, dim_b), dtype=complex)
        for i in range(dim_a):
            for k in range(dim_a):
                oracle_a[i, k] = sum(m[i * dim_b + j, k * dim_b + j] for j in range(dim_b))
        for j in range(dim_b):
            for n in range(dim_b):
                oracle_b[j, n] = sum(m[i * dim_b + j, i * dim_b + n] for i in range(dim_a))
        assert np.abs(keep_a - oracle_a).max() <= 1e-12
        assert np.abs(keep_b - oracle_b).max() <= 1e-12

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(23)
        a = _random_complex(rng, 2, 2)
        b = _random_complex(rng, 3, 3)
        m = opalg.kron(a, b)
        assert np.abs(opalg.partial_trace(m, 2, 3, keep="A") - a * np.trace(b)).max() <= 1e-12
        assert np.abs(opalg.partial_trace(m, 2, 3, keep="B") - b * np.trace(a)).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, 6, 6)
    assert np.trace(opalg.partial_trace(m, 2, 3, keep="A")) == pytest.approx(np.trace(m), abs=1e-10)
    assert np.trace(opalg.partial_trace(m, 2, 3, keep="B")) == pytest.approx(np.trace(m), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, 3, 3)
    b = _random_complex(rng, 3, 3)
    assert opalg.trace_norm(a + b) <= opalg.trace_norm(a) + opalg.trace_norm(b) + 1e-10
