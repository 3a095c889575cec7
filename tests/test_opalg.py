"""Linear-algebra kernel tests against independent small-case oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channellab import opalg


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDecompositions:
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
        m = np.kron(a, b)
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
