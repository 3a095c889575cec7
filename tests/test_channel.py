"""Channel construction, validation, representation, and document round trips."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channellab import (
    DensityMatrix,
    KrausChannel,
    StinespringDilation,
    analyze,
    apply,
    channel_from_document,
    channel_to_document,
    choi_matrix,
    compose,
    from_stinespring,
    is_unital,
    power,
    stinespring_from_document,
    stinespring_to_document,
    to_superoperator,
    validate_cpt,
)
from channellab import channel as channel_module
from channellab.channel import Superoperator, advance, apply_raw, from_bloch, step, to_bloch, unvec, vec
from channellab.zoo import (
    SWAP,
    build,
    build_named,
    catalog,
    cz_dilation,
    example_ergodic_channel,
    example_mixing_channel,
    partial_swap_dilation,
    random_channel,
    random_state,
)


def _random_kraus_channel(dim, rank, seed):
    return build_named("random", dim=dim, kraus_rank=rank, seed=seed)


STEP_CHANNELS = [build(spec) for spec in catalog()] + [
    _random_kraus_channel(dim, rank, 40 + rank) for dim in (3, 8) for rank in (1, 2, dim * dim)
]


class TestVec:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(x)), x)

    def test_column_stacking_identity(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(2)
        a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="not PSD"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_constructors_and_purity(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        pure = DensityMatrix.pure(psi)
        assert pure.purity() == pytest.approx(1.0, abs=1e-12)
        basis = DensityMatrix.basis_state(3, 1)
        assert basis.matrix[1, 1] == pytest.approx(1.0)
        mixed = DensityMatrix.maximally_mixed(4)
        assert mixed.purity() == pytest.approx(0.25, abs=1e-12)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestValidation:
    def test_identity_channel_passes(self):
        c = KrausChannel(2, [np.eye(2)])
        report = validate_cpt(c)
        assert report.passed
        assert report.completeness_defect <= 1e-12
        assert report.min_choi_eigenvalue >= -1e-12
        assert report.checks == {"completeness": True, "choi_psd": True}

    def test_subnormalized_kraus_fails_completeness(self):
        c = KrausChannel(2, [0.5 * np.eye(2)])
        report = validate_cpt(c)
        assert not report.passed
        assert report.completeness_defect == pytest.approx(0.75, abs=1e-12)
        assert not report.checks["completeness"]
        assert any("deviates from identity" in msg for msg in report.messages)

    def test_choi_matrix_oracle(self):
        c = example_mixing_channel()
        oracle = np.zeros((9, 9), dtype=complex)
        for k in c.kraus_ops:
            v = vec(k)
            oracle += np.outer(v, v.conj())
        assert np.abs(choi_matrix(c) - oracle).max() <= 1e-12

    def test_min_choi_eigenvalue_matches_choi_eigensolve_on_catalog(self, zoo_entries):
        ranks = set()
        for spec, channel in zoo_entries:
            expected = np.linalg.eigvalsh(choi_matrix(channel)).min()
            assert abs(validate_cpt(channel).min_choi_eigenvalue - expected) <= 1e-12, spec.label
            ranks.add(len(channel.kraus_ops) < channel.dim**2)
        assert ranks == {True, False}  # both branches: fewer Kraus operators than d^2, and full rank

    def test_zoo_channels_all_valid(self, zoo_entries):
        for spec, channel in zoo_entries:
            report = validate_cpt(channel)
            assert report.passed, f"{spec.label}: {report.messages}"
            assert report.completeness_defect <= 1e-10


class TestAction:
    def test_population_swap(self):
        c = example_ergodic_channel()
        rho = DensityMatrix.basis_state(2, 0)
        out = apply(c, rho)
        assert out.matrix[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert out.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_apply_rejects_completeness_defect_beyond_tolerance(self):
        ops = [np.array(k) for k in build_named("amplitude-damping", gamma=0.3).kraus_ops]
        ops[0][0, 0] *= np.sqrt(1.0 + 1e-6)
        c = KrausChannel(2, tuple(ops))
        assert not validate_cpt(c).passed
        with pytest.raises(ValueError, match="not trace preserving"):
            apply(c, DensityMatrix.basis_state(2, 0))

    @pytest.mark.parametrize("channel", STEP_CHANNELS, ids=lambda c: f"{c.label}-d{c.dim}")
    def test_step_equals_the_per_operator_sum_bitwise(self, channel):
        # reference: the Python sum over the Kraus operators that the stacked product replaces
        m = random_state(channel.dim, seed=channel.dim).matrix
        for _ in range(20):
            want = sum(k @ m @ k.conj().T for k in channel.kraus_ops)
            want = (want + want.conj().T) / 2.0
            want = want / float(want.trace().real)
            got = step(channel, m)
            assert got.tobytes() == want.tobytes()
            m = got

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("rank", [1, 2, 4, 9])
    def test_kernel_equals_the_matmul_formulation_bitwise(self, dim, rank):
        # reference: the left products by `np.matmul` on the stack, as the kernel formed them before `ndarray.dot`
        rng = np.random.default_rng([dim, rank])
        c = KrausChannel(dim, tuple(rng.standard_normal((rank, dim, dim, 2)).view(complex)[..., 0]))
        stack, adjoints = c.kraus_ops.reshape(-1, dim), c.kraus_ops.conj().transpose(0, 2, 1)
        operands = channel_module._kernel_operands(c)
        for scale in (1.0, 1e-150, 1e-300):
            m = scale * rng.standard_normal((dim, dim, 2)).view(complex)[..., 0]
            left, terms, want = np.empty(stack.shape, complex), np.empty(c.kraus_ops.shape, complex), np.empty_like(m)
            np.matmul(stack, m, out=left)
            np.matmul(left.reshape(terms.shape), adjoints, out=terms)
            np.add.reduce(terms, axis=0, out=want)
            got = np.empty_like(m)
            channel_module._kraus_sum(m, got, *operands)
            assert got.tobytes() == want.tobytes(), scale
            assert apply_raw(c, m).tobytes() == want.tobytes(), scale

    def test_advance_stops_at_the_trace_gate_of_step_one(self, monkeypatch):
        ops = [np.array(k) for k in build_named("amplitude-damping", gamma=0.3).kraus_ops]
        ops[0][0, 0] *= np.sqrt(1.0 + 1e-6)
        c = KrausChannel(2, tuple(ops))
        calls = []
        kraus_sum = channel_module._kraus_sum
        monkeypatch.setattr(channel_module, "_kraus_sum", lambda *args: calls.append(1) or kraus_sum(*args))
        states = np.zeros((100, 2, 2), dtype=complex)
        states[0] = DensityMatrix.basis_state(2, 0).matrix
        with pytest.raises(ValueError, match="not trace preserving"):
            advance(c, states)
        assert len(calls) == 1
        assert not states[1:].any()

    def test_step_is_one_advance_step(self):
        c = _random_kraus_channel(3, 2, 5)
        states = np.empty((4, 3, 3), dtype=complex)
        states[0] = random_state(3, seed=2).matrix
        assert advance(c, states) == 3
        m = states[0]
        for k in range(1, 4):
            m = step(c, m)
            assert not m.flags.writeable and m.tobytes() == states[k].tobytes()

    def test_kraus_ops_are_one_read_only_stack(self):
        ops = [np.array(k) for k in build_named("amplitude-damping", gamma=0.3).kraus_ops]
        c = KrausChannel(2, tuple(ops))
        assert c.kraus_ops.shape == (2, 2, 2) and c.kraus_ops.dtype == complex
        assert not c.kraus_ops.flags.writeable
        assert len(c.kraus_ops) == 2
        assert all(np.array_equal(k, o) for k, o in zip(c.kraus_ops, ops))
        ops[0][0, 0] = 0.0  # the channel holds its own copy
        assert c.kraus_ops[0][0, 0] == 1.0

    def test_superoperator_matches_apply(self):
        rng = np.random.default_rng(31)
        for seed in range(4):
            c = _random_kraus_channel(3, 3, seed)
            s = to_superoperator(c)
            rho = random_state(3, seed=seed + 100)
            via_kraus = apply(c, rho).matrix
            via_matrix = unvec(s.matrix @ vec(rho.matrix))
            assert np.abs(via_kraus - via_matrix).max() <= 1e-12
        # column (j, i) of S is vec(tau(E_ij)) for every matrix unit E_ij
        cycle = KrausChannel(5, [np.outer(np.eye(5)[(j + 1) % 5], np.eye(5)[j]) for j in range(5)])
        for c in [build(spec) for spec in catalog()] + [cycle]:
            s = to_superoperator(c)
            d = c.dim
            for col in range(d):
                for row in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[row, col] = 1.0
                    column = s.matrix[:, col * d + row]
                    assert np.abs(column - vec(apply_raw(c, unit))).max() <= 1e-12, (c.label, row, col)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("rank", ["1", "2", "d", "d^2+1"])
    def test_superoperator_is_the_kron_sum(self, dim, rank):
        r = {"1": 1, "2": 2, "d": dim, "d^2+1": dim * dim + 1}[rank]
        # Row blocks of a random isometry C^d -> C^(d r): a channel of any rank, including r > d^2.
        g = np.random.default_rng([dim, r]).standard_normal((dim * r, dim, 2)).view(complex)[..., 0]
        q = np.linalg.qr(g)[0]
        c = KrausChannel(dim, tuple(q[n * dim : (n + 1) * dim] for n in range(r)))
        kron_sum = sum(np.kron(k.conj(), k) for k in c.kraus_ops)
        assert np.abs(to_superoperator(c).matrix - kron_sum).max() <= 1e-14

    def test_superoperator_spectrum_example_ergodic(self):
        s = to_superoperator(example_ergodic_channel())
        eig = np.sort_complex(np.linalg.eigvals(s.matrix))
        oracle = np.sort_complex(np.array([1.0, -1.0, 0.0, 0.0]))
        assert np.abs(eig - oracle).max() <= 1e-10

    def test_superoperator_spectrum_depolarizing_pauli_oracle(self):
        p = 0.3
        c = build_named("depolarizing", p=p)
        s = to_superoperator(c)
        eig = np.sort(np.linalg.eigvals(s.matrix).real)
        oracle = np.sort([1.0, 1.0 - p, 1.0 - p, 1.0 - p])
        assert np.abs(eig - oracle).max() <= 1e-10


def _kraus_bloch_cases():
    cases = [pytest.param(build(spec), id=spec.label) for spec in catalog()]
    cases += [
        pytest.param(_random_kraus_channel(dim, rank, 50 + dim + rank), id=f"random(d={dim},rank={rank})")
        for dim in (3, 8, 16)
        for rank in (1, 2, dim * dim)
    ]
    return cases


class TestBlochFromKraus:
    """`to_superoperator` builds R in real arithmetic; it matches the basis change of the Kronecker sum."""

    @pytest.mark.parametrize("channel", _kraus_bloch_cases())
    def test_bloch_matches_the_changed_kron_sum(self, channel):
        d = channel.dim
        kron_sum = sum(np.kron(k.conj(), k) for k in channel.kraus_ops)
        reference = to_bloch(to_bloch(kron_sum).conj().T).conj().T  # U^dag S U
        assert np.abs(reference.imag).max() <= 1e-14
        for s in (to_superoperator(channel), Superoperator(d, kron_sum)):
            assert s.bloch.dtype == np.float64
            assert np.abs(s.bloch - reference).max() <= 1e-14


class TestSpectralRadiusGate:
    def test_rejects_scalar_above_one(self):
        with pytest.raises(ValueError, match="spectral radius"):
            Superoperator(1, [[1.5]])

    def test_tolerance_edge_on_conjugated_diagonal(self):
        rng = np.random.default_rng(17)
        o, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        u = from_bloch(np.eye(4))

        def conjugated(top):
            block = np.diag([top, 0.5, 0.0, 0.0])
            block[2:, 2:] = [[0.0, 0.25], [-0.25, 0.0]]  # eigenvalues +-0.25i
            return u @ o @ block @ o.T @ u.conj().T

        with pytest.raises(ValueError, match="spectral radius"):
            Superoperator(2, conjugated(1.0 + 1e-6))
        s = Superoperator(2, conjugated(1.0 + 1e-8))
        t, z = s.schur
        assert np.abs(np.tril(t, -2)).max() == 0.0
        assert np.abs(u @ z @ t @ z.T @ u.conj().T - s.matrix).max() <= 1e-14
        assert np.abs(s.eigenvalues).max() == pytest.approx(1.0 + 1e-8, abs=1e-14)

    def test_rejects_map_that_does_not_preserve_hermiticity(self):
        # X -> iX has spectral radius 1 but maps Hermitian matrices to anti-Hermitian ones
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            Superoperator(2, 1j * np.eye(4))


class TestStinespring:
    def test_swap_gives_constant_channel(self):
        # U = SWAP traces out the system: output is always the bath state.
        d = StinespringDilation(2, 2, SWAP, np.array([1.0, 0.0]))
        c = from_stinespring(d)
        report = validate_cpt(c)
        assert report.passed
        for seed in range(3):
            rho = random_state(2, seed=seed)
            out = apply(c, rho).matrix
            assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_cz_with_bath_zero_is_identity(self):
        d = cz_dilation()
        c = from_stinespring(d)
        rho = random_state(2, seed=5)
        assert np.abs(apply(c, rho).matrix - rho.matrix).max() <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            StinespringDilation(2, 2, np.ones((4, 4)), np.array([1.0, 0.0]))

    def test_overflowing_unitary_is_not_unitary(self):
        with np.errstate(all="raise"):  # a numpy floating-point warning would raise here
            with pytest.raises(ValueError, match="not unitary: defect inf"):
                StinespringDilation(2, 2, np.full((4, 4), 1e308), np.array([1.0, 0.0]))

    def test_rejects_unnormalized_bath(self):
        with pytest.raises(ValueError, match="bath"):
            StinespringDilation(2, 2, np.eye(4), np.array([1.0, 1.0]))


class TestAlgebra:
    def test_compose_matches_sequential_application(self):
        a = _random_kraus_channel(2, 2, 41)
        b = _random_kraus_channel(2, 3, 43)
        rho = random_state(2, seed=7)
        composed = compose(b, a)  # b after a
        assert np.abs(
            apply(composed, rho).matrix - apply(b, apply(a, rho)).matrix
        ).max() <= 1e-12
        assert len(composed.kraus_ops) == len(a.kraus_ops) * len(b.kraus_ops)

    def test_power_matches_iteration(self):
        c = _random_kraus_channel(2, 2, 47)
        s = to_superoperator(c)
        x = np.arange(4.0).reshape(2, 2) + 1j
        iterated = x
        for _ in range(5):
            iterated = apply_raw(c, iterated)
        assert np.abs(unvec(power(s, 5) @ vec(x)) - iterated).max() <= 1e-10
        assert np.abs(power(s, 0) - np.eye(4)).max() <= 1e-12

    def test_is_unital(self):
        assert is_unital(build_named("depolarizing", p=0.5))
        assert not is_unital(build_named("amplitude-damping", gamma=0.3))


class TestDocuments:
    def test_kraus_roundtrip(self):
        c = example_mixing_channel()
        doc = channel_to_document(c)
        c2 = channel_from_document(doc)
        assert c2.dim == c.dim
        assert len(c2.kraus_ops) == len(c.kraus_ops)
        for k1, k2 in zip(c.kraus_ops, c2.kraus_ops):
            assert np.abs(k1 - k2).max() <= 1e-15

    def test_stinespring_roundtrip(self):
        d = partial_swap_dilation(np.pi / 4)
        doc = stinespring_to_document(d, label="pswap")
        c2 = channel_from_document(doc)
        direct = from_stinespring(d)
        rho = random_state(2, seed=9)
        assert np.abs(apply(c2, rho).matrix - apply(direct, rho).matrix).max() <= 1e-12
        assert c2.label == "pswap"

    def test_stinespring_document_shape(self):
        d = StinespringDilation(2, 3, np.eye(6), np.array([1.0, 0.0, 0.0]))
        doc = stinespring_to_document(d)
        assert set(doc["stinespring"]) >= {"dimA", "dimB", "unitary", "bath_state"}
        d2 = stinespring_from_document(doc["stinespring"])
        assert d2.dim_a == 2 and d2.dim_b == 3

    def test_missing_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            channel_from_document({"kraus": [[[["1", "0"], ["0", "1"]]]]})

    def test_dim_mismatch_rejected(self):
        doc = channel_to_document(example_ergodic_channel())
        doc["dim"] = 3
        with pytest.raises(ValueError):
            channel_from_document(doc)


class TestContractivity:
    def test_trace_distance_non_expansive_on_zoo(self, zoo_entries):
        from channellab.opalg import trace_norm

        rng = np.random.default_rng(53)
        for spec, channel in zoo_entries:
            for trial in range(3):
                seed = int(rng.integers(0, 2**31))
                rho = random_state(channel.dim, seed=seed)
                sigma = random_state(channel.dim, seed=seed + 1)
                d0 = trace_norm(rho.matrix - sigma.matrix)
                d1 = trace_norm(apply(channel, rho).matrix - apply(channel, sigma).matrix)
                assert d1 <= d0 + 1e-10, spec.label


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_preserves_density_matrices(seed):
    c = _random_kraus_channel(2, 2, seed % 1000)
    rho = random_state(2, seed=seed)
    out = apply(c, rho)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10


class TestPowerAtHugeExponents:
    def test_power_reaches_the_fixed_point_projection(self):
        # the product of renormalized squares keeps the eigenvalue 1 at 1; a plain matrix power drifts by 0.43
        c = random_channel(3, 2, 5)
        projection = np.outer(vec(analyze(c).fixed_points[0].matrix), vec(np.eye(3)))
        assert np.abs(power(to_superoperator(c), 10**18) - projection).max() <= 1e-12

    @pytest.mark.parametrize("scale", [0.5, 0.0])
    def test_power_of_a_map_that_does_not_keep_the_trace_is_its_plain_power(self, scale):
        # only trace-preserving squares are renormalized: a scaled identity keeps its scale, and 0 stays 0 without 0/0
        s = Superoperator(2, scale * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3, 60):
                assert np.abs(power(s, n) - scale**n * np.eye(4)).max() <= 1e-13 * scale**n
