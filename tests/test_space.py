import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcladder.space import (
    DickeLabel,
    SystemParams,
    bare_operators,
    build_basis,
)

R2 = np.sqrt(2.0)
LABELS = list(DickeLabel)


def _manifold_states(basis, n):
    """The ``(photons, label)`` of manifold ``n``'s states, in basis order."""
    sl = basis.manifold_slice(n)
    return [(int(p), LABELS[m]) for p, m in zip(basis.photons[sl], basis.matter[sl])]


def _reference_basis(photon_cutoff):
    """The basis and its operators built state by state, as a frozen
    reference: a manifold loop over the labels, a state-to-index dict and one
    matrix entry per nonzero amplitude."""
    excitations = {
        DickeLabel.T_MINUS: 0, DickeLabel.T_ZERO: 1, DickeLabel.SINGLET: 1, DickeLabel.T_PLUS: 2,
    }
    states = [
        (n - excitations[label], label)
        for n in range(photon_cutoff + 3)
        for label in DickeLabel
        if 0 <= n - excitations[label] <= photon_cutoff
    ]
    lookup = {state: i for i, state in enumerate(states)}
    excitation = np.array([p + excitations[label] for p, label in states])
    dim = len(states)
    a = np.zeros((dim, dim), dtype=complex)
    sigma1 = np.zeros((dim, dim), dtype=complex)
    sigma2 = np.zeros((dim, dim), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    s1_m = np.array([[0, r, r, 0], [0, 0, 0, r], [0, 0, 0, -r], [0, 0, 0, 0]], dtype=complex)
    s2_m = np.array([[0, r, -r, 0], [0, 0, 0, r], [0, 0, 0, r], [0, 0, 0, 0]], dtype=complex)
    for j, (photons, matter) in enumerate(states):
        if photons >= 1:
            a[lookup[(photons - 1, matter)], j] = np.sqrt(photons)
        col = LABELS.index(matter)
        for row, target in enumerate(LABELS):
            for matrix, out in ((s1_m, sigma1), (s2_m, sigma2)):
                amp = matrix[row, col]
                if amp != 0:
                    out[lookup[(photons, target)], j] = amp
    number = np.diag(excitation.astype(complex))
    return lookup, excitation, {"a": a, "sigma1": sigma1, "sigma2": sigma2, "number": number}


class TestBasisCounting:
    def test_cutoff_zero(self):
        basis = build_basis(0)
        assert basis.dim == 4
        states = {n: _manifold_states(basis, n) for n in range(basis.max_manifold + 1)}
        assert states == {
            0: [(0, DickeLabel.T_MINUS)],
            1: [(0, DickeLabel.T_ZERO), (0, DickeLabel.SINGLET)],
            2: [(0, DickeLabel.T_PLUS)],
        }

    def test_cutoff_two(self):
        basis = build_basis(2)
        assert basis.dim == 12
        dims = {n: len(_manifold_states(basis, n)) for n in range(basis.max_manifold + 1)}
        assert dims == {0: 1, 1: 3, 2: 4, 3: 3, 4: 1}
        assert [basis.is_complete_manifold(n) for n in range(5)] == [
            True, True, True, False, False,
        ]

    def test_cutoff_five(self):
        basis = build_basis(5)
        assert basis.dim == 24
        assert all(len(_manifold_states(basis, n)) == 4 for n in range(2, 6))

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            build_basis(-1)

    def test_manifold_major_contiguous_ordering(self):
        basis = build_basis(3)
        excitations = basis.excitation.tolist()
        assert excitations == sorted(excitations)
        for n in range(basis.max_manifold + 1):
            idx = list(range(basis.dim)[basis.manifold_slice(n)])
            assert idx == np.flatnonzero(basis.excitation == n).tolist()
            photons = [p for p, _ in _manifold_states(basis, n)]
            assert photons == sorted(photons, reverse=True)

    def test_arrays_are_read_only(self, basis2):
        for array in (basis2.photons, basis2.matter, basis2.excitation):
            assert not array.flags.writeable

    @pytest.mark.parametrize("cutoff", range(13))
    def test_matches_the_state_by_state_reference(self, cutoff):
        basis = build_basis(cutoff)
        lookup, excitation, operators = _reference_basis(cutoff)
        assert np.array_equal(basis.excitation, excitation)
        for name, reference in operators.items():
            op = getattr(basis.operators, name)
            assert op.dtype == reference.dtype and op.shape == reference.shape
            assert op.tobytes() == reference.tobytes(), name
        for n in range(basis.max_manifold + 1):
            idx = [i for i, e in enumerate(excitation) if e == n]
            assert basis.manifold_slice(n) == slice(idx[0], idx[-1] + 1)
        for (photons, label), i in lookup.items():
            assert basis.index_of(photons, label) == i

    def test_equality_follows_the_cutoff(self):
        assert build_basis(3) == build_basis(3)
        assert build_basis(3) != build_basis(4)
        assert hash(build_basis(3)) == hash(build_basis(3))

    @pytest.mark.parametrize("photons", [-1, 3])
    def test_index_of_refuses_a_missing_state(self, basis2, photons):
        with pytest.raises(
            ValueError, match=re.escape(f"no state |{photons}, T0> in the basis of photon_cutoff 2")
        ):
            basis2.index_of(photons, DickeLabel.T_ZERO)


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
        assert np.all(np.diag(ops.number).real == basis3.excitation)
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
        assert [LABELS[m] for m in basis.matter] == LABELS
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
        for n in range(basis3.max_manifold + 1):
            block = basis3.manifold_slice(n)
            rebuilt[block, block] = n * np.eye(block.stop - block.start)
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
