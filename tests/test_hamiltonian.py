import numpy as np
import pytest

from tcladder.eigenanalysis import transition_eigenvalues
from tcladder.hamiltonian import build_hamiltonian, dressed_levels_analytic, manifold_block
from tcladder.space import DickeLabel, SystemParams, bare_operators, build_basis


def _params(omega0=5.0, delta=0.0, g=1.0):
    return SystemParams(omega0=omega0, delta=delta, g=g, gamma_a=0.0, gamma_sigma=0.0)


class TestHamiltonianMatrix:
    def test_decoupled_limit_is_diagonal(self):
        basis = build_basis(2)
        params = SystemParams(omega0=5.0, delta=0.7, g=0.0, gamma_a=0, gamma_sigma=0)
        h = build_hamiltonian(params, basis)
        expected = [
            s.photons * 5.0 + s.matter.excitations * (5.0 - 0.7) for s in basis.states
        ]
        assert np.allclose(h, np.diag(expected), atol=1e-14)

    def test_first_manifold_eigenvalues(self):
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        eig = np.sort(np.linalg.eigvalsh(manifold_block(h, basis, 1)))
        assert np.allclose(eig, [5 - np.sqrt(2), 5, 5 + np.sqrt(2)], atol=1e-12)

    def test_second_manifold_eigenvalues(self):
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        eig = np.sort(np.linalg.eigvalsh(manifold_block(h, basis, 2)))
        assert np.allclose(eig, [10 - np.sqrt(6), 10, 10, 10 + np.sqrt(6)], atol=1e-12)

    def test_commutes_with_number(self):
        basis = build_basis(3)
        params = SystemParams(omega0=5.0, delta=0.4, g=1.2, gamma_a=0, gamma_sigma=0)
        h = build_hamiltonian(params, basis)
        number = bare_operators(basis).number
        assert np.max(np.abs(h @ number - number @ h)) == 0.0

    def test_detuning_shifts_matter_states_down(self):
        # with the coupling off, each matter excitation lowers the diagonal by delta
        basis = build_basis(2)
        delta = 0.9
        params = SystemParams(omega0=5.0, delta=delta, g=0.0, gamma_a=0, gamma_sigma=0)
        h = build_hamiltonian(params, basis)
        for n in range(0, 3):
            block = manifold_block(h, basis, n)
            for state, energy in zip(basis.manifold_states(n), np.diag(block).real):
                assert energy == pytest.approx(
                    n * 5.0 - delta * state.matter.excitations
                )


class TestDressedLevels:
    def test_first_manifold_states(self):
        levels = dressed_levels_analytic(1, _params())
        assert [lv.branch for lv in levels] == [2, 3, 4]
        by_branch = {lv.branch: lv for lv in levels}
        assert by_branch[2].energy == pytest.approx(5 + np.sqrt(2))
        assert by_branch[3].energy == pytest.approx(5 - np.sqrt(2))
        assert by_branch[4].energy == pytest.approx(5.0)
        r = 1 / np.sqrt(2)
        assert np.allclose(by_branch[2].state, [r, r, 0], atol=1e-15)
        assert np.allclose(by_branch[3].state, [r, -r, 0], atol=1e-15)
        assert np.allclose(by_branch[4].state, [0, 0, 1], atol=1e-15)

    def test_second_manifold_branch_one(self):
        levels = {lv.branch: lv for lv in dressed_levels_analytic(2, _params())}
        v = levels[1].state
        # components over |2,T-1>, |1,T0>, |1,S>, |0,T1>
        assert v[3] == pytest.approx(np.sqrt(2 / 3))
        assert v[0] == pytest.approx(-np.sqrt(1 / 3))
        assert v[1] == v[2] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthonormal(self, n):
        levels = dressed_levels_analytic(n, _params())
        vectors = np.array([lv.state for lv in levels])
        gram = vectors @ vectors.T
        assert np.allclose(gram, np.eye(len(levels)), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_numerical_block(self, n):
        basis = build_basis(5)
        params = _params(omega0=9.0, g=0.8)
        h = build_hamiltonian(params, basis)
        block = manifold_block(h, basis, n).real
        numeric_vals, numeric_vecs = np.linalg.eigh(block)
        levels = dressed_levels_analytic(n, params)
        analytic_vals = np.sort([lv.energy for lv in levels])
        scale = max(abs(n * params.omega0), params.g)
        assert np.max(np.abs(np.sort(numeric_vals) - analytic_vals)) < 1e-10 * scale

        # nondegenerate branches: eigenvectors match up to phase
        for lv in levels:
            if lv.branch in (2, 3):
                k = int(np.argmin(np.abs(numeric_vals - lv.energy)))
                assert abs(abs(numeric_vecs[:, k] @ lv.state) - 1) < 1e-10
        # the degenerate center pair is disambiguated by the singlet axis:
        # both analytic vectors must lie in the numerical eigenspace
        if n >= 2:
            center = [k for k, val in enumerate(numeric_vals)
                      if abs(val - n * params.omega0) < 1e-8 * scale]
            assert len(center) == 2
            span = numeric_vecs[:, center]
            proj = span @ span.T
            for lv in levels:
                if lv.branch in (1, 4):
                    assert np.allclose(proj @ lv.state, lv.state, atol=1e-10)

    def test_rejects_vacuum_and_detuning(self):
        with pytest.raises(ValueError):
            dressed_levels_analytic(0, _params())
        with pytest.raises(ValueError):
            dressed_levels_analytic(1, _params(delta=0.1))


class TestTransitionFrequencies:
    """At zero loss the coherence-block lines are the one-photon emission
    frequencies between dressed levels."""

    @staticmethod
    def _lines(n, params):
        values = transition_eigenvalues(n, params).ravel()
        assert np.all(np.abs(values.imag) < 1e-12)
        return list(values.real)

    def test_first_manifold_lines(self):
        values = sorted(self._lines(1, _params()))
        assert np.allclose(values, [5 - np.sqrt(2), 5, 5 + np.sqrt(2)], atol=1e-12)

    def test_second_manifold_distinct_count(self):
        # independent enumeration: offsets {0, +sqrt6, -sqrt6} x {0, +-sqrt2}
        upper = [0.0, np.sqrt(6), -np.sqrt(6)]
        lower = [np.sqrt(2), -np.sqrt(2), 0.0]
        expected = sorted({round(5.0 + u - l, 12) for u in upper for l in lower})
        lines = self._lines(2, _params())
        assert len(lines) == 12
        distinct = sorted({round(v, 12) for v in lines})
        assert len(distinct) == 9
        assert np.allclose(distinct, expected, atol=1e-12)

    def test_weak_coupling_collapse(self):
        params = _params(g=1e-12)
        for n in (1, 2, 3):
            for v in self._lines(n, params):
                assert abs(v - 5.0) < 1e-10
