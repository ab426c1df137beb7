import numpy as np
import pytest

from tcladder.eigenanalysis import complex_eigenenergies, rabi_splitting, transition_eigenvalues
from tcladder.hamiltonian import build_hamiltonian
from tcladder.space import SystemParams, bare_operators, build_basis


def _params(omega0=5.0, delta=0.0, g=1.0):
    return SystemParams(omega0=omega0, delta=delta, g=g, gamma_a=0.0, gamma_sigma=0.0)


class TestHamiltonianMatrix:
    def test_decoupled_limit_is_diagonal(self):
        basis = build_basis(2)
        params = SystemParams(omega0=5.0, delta=0.7, g=0.0, gamma_a=0, gamma_sigma=0)
        h = build_hamiltonian(params, basis)
        # a state's matter carries its excitations beyond the photons
        expected = basis.photons * 5.0 + (basis.excitation - basis.photons) * (5.0 - 0.7)
        assert np.allclose(h, np.diag(expected), atol=1e-14)

    def test_first_manifold_eigenvalues(self):
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        sl = basis.manifold_slice(1)
        eig = np.sort(np.linalg.eigvalsh(h[sl, sl]))
        assert np.allclose(eig, [5 - np.sqrt(2), 5, 5 + np.sqrt(2)], atol=1e-12)

    def test_second_manifold_eigenvalues(self):
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        sl = basis.manifold_slice(2)
        eig = np.sort(np.linalg.eigvalsh(h[sl, sl]))
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
            for i in range(basis.dim)[basis.manifold_slice(n)]:
                assert h[i, i].real == pytest.approx(
                    n * 5.0 - delta * (n - basis.photons[i])
                )


def _resonant_states(n):
    """Closed-form eigenvectors of manifold ``n`` at zero detuning and zero
    loss, one row per entry of :func:`complex_eigenenergies`.

    Components over ``|n,T-1>, |n-1,T0>, |n-1,S>, |n-2,T1>`` (the last is
    absent for ``n = 1``): the two bright triplet states at
    ``n omega0 +- g sqrt(4n-2)``, the dark triplet state at ``n omega0``
    (``n >= 2`` only) and the singlet, which never couples to the mode.
    """
    mdim = 3 if n == 1 else 4
    bright = []
    for sign in (1.0, -1.0):
        v = np.zeros(mdim)
        v[0] = np.sqrt(n / (4 * n - 2))
        v[1] = sign / np.sqrt(2)
        if n >= 2:
            v[3] = np.sqrt((n - 1) / (4 * n - 2))
        bright.append(v)
    singlet = np.zeros(mdim)
    singlet[2] = 1.0
    if n == 1:
        return np.array([bright[0], bright[1], singlet])
    dark = np.zeros(mdim)
    dark[3] = np.sqrt(n / (2 * n - 1))
    dark[0] = -np.sqrt((n - 1) / (2 * n - 1))
    return np.array([bright[0], dark, bright[1], singlet])


class TestDressedLevels:
    """The Hamiltonian's manifold blocks against the closed-form levels the
    CLI writes, at zero detuning and zero loss."""

    def test_first_manifold_states(self):
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        sl = basis.manifold_slice(1)
        energies = complex_eigenenergies(1, _params())
        assert np.allclose(energies, [5 + np.sqrt(2), 5 - np.sqrt(2), 5], atol=1e-15)
        r = 1 / np.sqrt(2)
        expected = [[r, r, 0], [r, -r, 0], [0, 0, 1]]
        assert np.allclose(_resonant_states(1), expected, atol=1e-15)
        for energy, state in zip(energies.real, _resonant_states(1)):
            assert np.allclose(h[sl, sl] @ state, energy * state, atol=1e-14)

    def test_second_manifold_branch_one(self):
        # the dark triplet state: components over |2,T-1>, |1,T0>, |1,S>, |0,T1>
        basis = build_basis(3)
        h = build_hamiltonian(_params(), basis)
        sl = basis.manifold_slice(2)
        v = np.array([-np.sqrt(1 / 3), 0.0, 0.0, np.sqrt(2 / 3)])
        assert np.allclose(h[sl, sl] @ v, 10.0 * v, atol=1e-14)
        assert complex_eigenenergies(2, _params())[1] == pytest.approx(10.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthonormal(self, n):
        # the closed-form states are an orthonormal basis that diagonalises
        # the block with the closed-form energies on the diagonal
        vectors = _resonant_states(n)
        assert np.allclose(vectors @ vectors.T, np.eye(len(vectors)), atol=1e-14)
        basis = build_basis(5)
        h = build_hamiltonian(_params(), basis)
        sl = basis.manifold_slice(n)
        diagonal = vectors @ h[sl, sl].real @ vectors.T
        energies = complex_eigenenergies(n, _params())
        assert np.allclose(energies.imag, 0.0, atol=1e-14)
        assert np.allclose(diagonal, np.diag(energies.real), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_numerical_block(self, n):
        basis = build_basis(5)
        params = _params(omega0=9.0, g=0.8)
        h = build_hamiltonian(params, basis)
        sl = basis.manifold_slice(n)
        numeric_vals, numeric_vecs = np.linalg.eigh(h[sl, sl].real)
        energies = complex_eigenenergies(n, params).real
        scale = max(abs(n * params.omega0), params.g)
        assert np.max(np.abs(numeric_vals - np.sort(energies))) < 1e-10 * scale

        # nondegenerate (bright) levels: eigenvectors match up to phase
        states = _resonant_states(n)
        for k in (0, len(states) - 2):
            j = int(np.argmin(np.abs(numeric_vals - energies[k])))
            assert abs(abs(numeric_vecs[:, j] @ states[k]) - 1) < 1e-10
        # the degenerate center pair is disambiguated by the singlet axis:
        # both closed-form vectors must lie in the numerical eigenspace
        if n >= 2:
            center = [k for k, val in enumerate(numeric_vals)
                      if abs(val - n * params.omega0) < 1e-8 * scale]
            assert len(center) == 2
            span = numeric_vecs[:, center]
            proj = span @ span.T
            for k in (1, 3):
                assert np.allclose(proj @ states[k], states[k], atol=1e-10)

    def test_rejects_vacuum_and_detuning(self):
        # the resonant splitting has no vacuum rung and no detuned form
        with pytest.raises(ValueError):
            rabi_splitting(0, _params())
        with pytest.raises(ValueError):
            rabi_splitting(1, _params(delta=0.1))
        with pytest.raises(ValueError):
            complex_eigenenergies(-1, _params())


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
