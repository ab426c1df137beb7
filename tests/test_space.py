import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcladder.space import (
    BasisState,
    DickeLabel,
    SystemParams,
    bare_operators,
    build_basis,
)

R2 = np.sqrt(2.0)


class TestBasisCounting:
    def test_cutoff_zero(self):
        basis = build_basis(0)
        assert basis.dim == 4
        assert basis.manifold_states(0) == (BasisState(0, DickeLabel.T_MINUS),)
        assert basis.manifold_states(1) == (
            BasisState(0, DickeLabel.T_ZERO),
            BasisState(0, DickeLabel.SINGLET),
        )
        assert basis.manifold_states(2) == (BasisState(0, DickeLabel.T_PLUS),)

    def test_cutoff_two(self):
        basis = build_basis(2)
        assert basis.dim == 12
        dims = {n: basis.manifold_dim(n) for n in basis.manifold_index}
        assert dims == {0: 1, 1: 3, 2: 4, 3: 3, 4: 1}
        assert [basis.is_complete_manifold(n) for n in range(5)] == [
            True, True, True, False, False,
        ]

    def test_cutoff_five(self):
        basis = build_basis(5)
        assert basis.dim == 24
        assert all(basis.manifold_dim(n) == 4 for n in range(2, 6))

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            build_basis(-1)

    def test_manifold_major_contiguous_ordering(self):
        basis = build_basis(3)
        excitations = [s.excitation for s in basis.states]
        assert excitations == sorted(excitations)
        for n in basis.manifold_index:
            idx = basis.manifold_index[n]
            assert list(idx) == list(range(idx[0], idx[-1] + 1))
            photons = [basis.states[i].photons for i in idx]
            assert photons == sorted(photons, reverse=True)


class TestBareOperators:
    def test_sigma_matrix_elements(self, basis2):
        ops = bare_operators(basis2)
        vac = basis2.index_of(0, DickeLabel.T_MINUS)
        t0 = basis2.index_of(0, DickeLabel.T_ZERO)
        s = basis2.index_of(0, DickeLabel.SINGLET)
        assert ops.sigma1[vac, t0] == pytest.approx(1 / R2)
        assert ops.sigma1[vac, s] == pytest.approx(1 / R2)
        assert ops.sigma2[vac, s] == pytest.approx(-1 / R2)
        assert ops.sigma2[vac, t0] == pytest.approx(1 / R2)

    def test_photon_lowering(self, basis2):
        ops = bare_operators(basis2)
        for label in DickeLabel:
            for p in range(1, 3):
                col = basis2.index_of(p, label)
                row = basis2.index_of(p - 1, label)
                assert ops.a[row, col] == pytest.approx(np.sqrt(p))
            assert np.all(ops.a[:, basis2.index_of(0, label)] == 0)

    def test_number_operator_diagonal(self, basis3):
        ops = bare_operators(basis3)
        assert np.all(np.diag(ops.number).real == [s.excitation for s in basis3.states])
        assert np.count_nonzero(ops.number - np.diag(np.diag(ops.number))) == 0

    def test_number_from_constituents(self, basis3):
        ops = bare_operators(basis3)
        rebuilt = ops.a.conj().T @ ops.a
        for s in (ops.sigma1, ops.sigma2):
            rebuilt = rebuilt + s.conj().T @ s
        assert np.allclose(rebuilt, ops.number, atol=1e-14)

    def test_sigma_algebra(self, basis3):
        # matrix entries are exact, but complex BLAS products do not cancel
        # to the last bit; 1e-15 is the float-level reading of "zero"
        ops = bare_operators(basis3)
        comm = ops.sigma1 @ ops.sigma2 - ops.sigma2 @ ops.sigma1
        assert np.max(np.abs(comm)) < 1e-15
        assert np.max(np.abs(ops.sigma1 @ ops.sigma1)) < 1e-15
        assert np.max(np.abs(ops.sigma2 @ ops.sigma2)) < 1e-15

    def test_operators_step_one_manifold_down(self, basis3):
        ops = bare_operators(basis3)
        for op in (ops.a, ops.sigma1, ops.sigma2):
            for n in range(1, basis3.max_manifold + 1):
                # the columns of manifold n hold nothing outside manifold n - 1
                cols = op[:, basis3.manifold_slice(n)].copy()
                cols[basis3.manifold_slice(n - 1)] = 0.0
                assert np.allclose(cols, 0.0, atol=1e-15)

    def test_dicke_literals_match_product_basis(self):
        # Dicke states in the product basis GG, GX, XG, XX (first letter
        # emitter 1): T-1 = GG, T0 = (XG + GX)/sqrt(2), S = (XG - GX)/sqrt(2),
        # T1 = XX
        u = np.zeros((4, 4))
        u[0, 0] = u[3, 3] = 1.0
        u[2, 1] = u[1, 1] = u[2, 2] = 1 / R2
        u[1, 2] = -1 / R2
        lower, eye2 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)
        basis = build_basis(0)  # one state per Dicke label, in label order
        assert [s.matter for s in basis.states] == list(DickeLabel)
        ops = bare_operators(basis)
        for op, product in (
            (ops.sigma1, np.kron(lower, eye2)),
            (ops.sigma2, np.kron(eye2, lower)),
        ):
            assert np.allclose(op, u.T @ product @ u, atol=1e-15)
            # the entries are exact, not float dust from the transform
            assert set(op.ravel().tolist()) == {0j, complex(1 / R2), complex(-1 / R2)}


class TestProjectors:
    def test_number_is_projector_sum(self, basis3):
        # N = sum_n n P_n, with P_n the identity on manifold n's slice
        ops = bare_operators(basis3)
        rebuilt = np.zeros((basis3.dim, basis3.dim), complex)
        for n in basis3.manifold_index:
            block = basis3.manifold_slice(n)
            rebuilt[block, block] = n * np.eye(basis3.manifold_dim(n))
        assert np.array_equal(rebuilt, ops.number)


class TestSystemParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SystemParams(omega0=1, delta=0, g=-1.0, gamma_a=0, gamma_sigma=0)
        with pytest.raises(ValueError):
            SystemParams(omega0=1, delta=0, g=1, gamma_a=-0.1, gamma_sigma=0)
        with pytest.raises(ValueError):
            SystemParams(omega0=np.nan, delta=0, g=1, gamma_a=0, gamma_sigma=0)

    @given(
        gamma_a=st.floats(min_value=0, max_value=50),
        gamma_sigma=st.floats(min_value=0, max_value=50),
    )
    def test_gamma_plus_dominates(self, gamma_a, gamma_sigma):
        p = SystemParams(
            omega0=1.0, delta=0.0, g=1.0, gamma_a=gamma_a, gamma_sigma=gamma_sigma
        )
        assert p.gamma_plus >= abs(p.gamma_minus)
        assert p.gamma_plus == pytest.approx((gamma_a + gamma_sigma) / 4)
        assert p.gamma_minus == pytest.approx((gamma_a - gamma_sigma) / 4)
