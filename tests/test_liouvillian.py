import functools
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from tcladder import liouvillian
from tcladder.cli import initial_density_matrix
from tcladder.eigenanalysis import population_eigenvalues, transition_eigenvalues
from tcladder.hamiltonian import build_hamiltonian
from tcladder.liouvillian import (
    build_generator,
    evolve,
    line_values,
    population_block,
    raising_coherence_generator,
    regression_block,
    top_manifold,
)
from tcladder.space import DickeLabel, SystemParams, bare_operators, build_basis
from tcladder.spectrum import physical_spectrum, two_time_correlation
from tcladder.verify import assignment_distance


def _pure(basis, photons, label):
    rho = np.zeros((basis.dim, basis.dim), complex)
    k = basis.index_of(photons, label)
    rho[k, k] = 1.0
    return rho


class TestGenerator:
    def test_closed_system_spectrum_is_bohr_frequencies(self):
        basis = build_basis(2)
        params = SystemParams(omega0=6.0, delta=0.3, g=1.1, gamma_a=0.0, gamma_sigma=0.0)
        gen = build_generator(params, basis)
        eig = np.linalg.eigvals(gen)
        assert np.max(np.abs(eig.real)) < 1e-10
        energies = np.linalg.eigvalsh(build_hamiltonian(params, basis))
        expected = np.array([1j * (eb - ea) for ea in energies for eb in energies])
        assert assignment_distance(eig, expected) < 1e-8

    def test_stationary_state_and_conjugation_symmetry(self, basis2, params):
        gen = build_generator(params, basis2)
        eig = np.linalg.eigvals(gen)
        assert np.min(np.abs(eig)) < 1e-10
        assert assignment_distance(eig, eig.conj()) < 1e-8

    def test_generator_matches_finite_difference(self, basis2, params):
        gen = build_generator(params, basis2)
        rho = _pure(basis2, 0, DickeLabel.T_PLUS)
        t = np.linspace(0.0, 2e-6, 3)
        traj = evolve(rho, params, basis2, t)
        deriv = (traj[2] - traj[0]).reshape(-1) / (t[2] - t[0])
        assert np.allclose(deriv, gen @ traj[1].reshape(-1), atol=1e-6)


class TestEvolve:
    def test_pure_cavity_decay(self):
        basis = build_basis(1)
        params = SystemParams(omega0=8.0, delta=0.0, g=0.0, gamma_a=0.5, gamma_sigma=0.0)
        ops = bare_operators(basis)
        t = np.linspace(0.0, 10.0, 41)
        traj = evolve(_pure(basis, 1, DickeLabel.T_MINUS), params, basis, t)
        photons = np.einsum("tij,ji->t", traj, ops.a.conj().T @ ops.a).real
        assert np.max(np.abs(photons - np.exp(-0.5 * t))) < 1e-8

    def test_independent_emitter_decay(self):
        # both-excited reaches manifold 2, so the cutoff must be at least 2
        basis = build_basis(2)
        params = SystemParams(omega0=8.0, delta=0.0, g=0.0, gamma_a=0.0, gamma_sigma=0.3)
        ops = bare_operators(basis)
        t = np.linspace(0.0, 10.0, 41)
        traj = evolve(_pure(basis, 0, DickeLabel.T_PLUS), params, basis, t)
        pop1 = np.einsum("tij,ji->t", traj, ops.sigma1.conj().T @ ops.sigma1).real
        assert np.max(np.abs(pop1 - np.exp(-0.3 * t))) < 1e-8

    def test_relaxes_to_vacuum(self, basis2):
        params = SystemParams(omega0=9.0, delta=0.0, g=1.0, gamma_a=0.4, gamma_sigma=0.3)
        t = np.linspace(0.0, 150.0, 16)
        traj = evolve(_pure(basis2, 0, DickeLabel.T_PLUS), params, basis2, t)
        vac = basis2.index_of(0, DickeLabel.T_MINUS)
        assert traj[-1][vac, vac].real > 1 - 1e-6

    def test_trajectory_invariants(self, basis2, params):
        t = np.linspace(0.0, 15.0, 61)
        traj = evolve(_pure(basis2, 1, DickeLabel.T_MINUS), params, basis2, t)
        assert np.max(np.abs(np.einsum("tii->t", traj) - 1)) < 1e-10
        assert max(np.max(np.abs(r - r.conj().T)) for r in traj) < 1e-12
        assert min(
            np.linalg.eigvalsh((r + r.conj().T) / 2).min() for r in traj
        ) > -1e-8
        number = bare_operators(basis2).number
        exp_n = np.einsum("tij,ji->t", traj, number).real
        assert np.max(np.diff(exp_n)) <= 1e-12

    def test_singlet_isolated_without_emitter_decay(self, basis2):
        params = SystemParams(omega0=9.0, delta=0.0, g=1.0, gamma_a=0.5, gamma_sigma=0.0)
        t = np.linspace(0.0, 25.0, 101)
        traj = evolve(_pure(basis2, 0, DickeLabel.T_PLUS), params, basis2, t)
        singlets = [basis2.index_of(p, DickeLabel.SINGLET) for p in range(3)]
        assert np.max(np.abs(traj[:, singlets, singlets])) < 1e-12

    def test_matches_dense_generator_exponential(self, basis2, params):
        t = np.linspace(0.0, 5.0, 11)
        rho0 = _pure(basis2, 0, DickeLabel.T_PLUS)
        gen = build_generator(params, basis2)
        dense = np.array([expm(gen * x) @ rho0.reshape(-1) for x in t])
        got = evolve(rho0, params, basis2, t).reshape(t.size, -1)
        assert np.max(np.abs(got - dense)) < 1e-12

    def test_grid_validation(self, basis2, params):
        rho0 = _pure(basis2, 0, DickeLabel.T_MINUS)
        with pytest.raises(ValueError):
            evolve(rho0, params, basis2, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            evolve(rho0, params, basis2, np.array([0.0, 2.0, 1.0]))


def _coherent_0_2(basis):
    """The amplitude-row state (|0,T-1> + i|0,T1>)/sqrt(2): coherence between
    manifolds 0 and 2."""
    r = 1.0 / math.sqrt(2.0)
    rows = [[0, "T-1", r, 0.0], [0, "T1", 0.0, r]]
    return initial_density_matrix({"initial_state": rows}, basis)


_STATES = {
    "both-excited": lambda basis: _pure(basis, 0, DickeLabel.T_PLUS),
    "one-photon": lambda basis: _pure(basis, 1, DickeLabel.T_MINUS),
    "coherent-0-2": _coherent_0_2,
}
_GRIDS = {
    "uniform": np.linspace(0.0, 12.0, 9),
    "nonuniform": np.array([0.0, 0.05, 0.3, 1.75, 4.0, 12.0]),
}


@functools.lru_cache(maxsize=None)
def _sparse_generator(params, cutoff):
    return csr_matrix(build_generator(params, build_basis(cutoff)))


def _dense_oracle(params, basis, rho0, t_grid):
    """``expm(G t) vec(rho0)`` with the full generator ``G``, taken as the
    action of the exponential (Al-Mohy and Higham) step by step: a dense
    ``expm`` of the 1296 x 1296 generator at cutoff 8 takes seconds."""
    gen = _sparse_generator(params, basis.photon_cutoff)
    out = [rho0.reshape(-1).astype(complex)]
    for dt in np.diff(t_grid):
        out.append(expm_multiply(gen * dt, out[-1]))
    return np.array(out)


class TestReachableSubspace:
    """``evolve`` on the reachable subspace against the full generator."""

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    @pytest.mark.parametrize("state", sorted(_STATES))
    @pytest.mark.parametrize("cutoff", [2, 3, 8])
    def test_matches_dense_oracle(self, cutoff, state, grid):
        basis = build_basis(cutoff)
        params = SystemParams(omega0=10.0, delta=0.3, g=1.0, gamma_a=0.3, gamma_sigma=0.15)
        rho0 = _STATES[state](basis)
        t = _GRIDS[grid]
        got = evolve(rho0, params, basis, t).reshape(t.size, -1)
        assert np.max(np.abs(got - _dense_oracle(params, basis, rho0, t))) < 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-6, -1e-6])
    @pytest.mark.parametrize("state", sorted(_STATES))
    def test_exceptional_point(self, state, offset):
        # the rung-1 pair, split by 2 sqrt(2 g^2 - gamma_-^2), coalesces at
        # gamma_a = 4 sqrt(2) g, the strong-coupling boundary of rung 1
        basis = build_basis(2)
        params = SystemParams(
            omega0=10.0, delta=0.0, g=1.0,
            gamma_a=4.0 * math.sqrt(2.0) + offset, gamma_sigma=0.0,
        )
        rho0 = _STATES[state](basis)
        for t in _GRIDS.values():
            got = evolve(rho0, params, basis, t).reshape(t.size, -1)
            assert np.max(np.abs(got - _dense_oracle(params, basis, rho0, t))) < 1e-12

    def test_outside_reach_stays_zero(self, basis3, params):
        # both-excited touches manifolds 0..2, the leading 8 basis states
        traj = evolve(_pure(basis3, 0, DickeLabel.T_PLUS), params, basis3, _GRIDS["uniform"])
        assert not np.any(traj[:, 8:, :]) and not np.any(traj[:, :, 8:])
        assert np.max(np.abs(traj[-1, :8, :8])) > 0.1


# initial states and the number of entries of rho that their sector keeps
_SECTOR_SIZES = [
    ("vacuum", 1),
    ("one-photon", 10),
    ("both-excited", 26),
    ("symmetric-one", 10),
    pytest.param([[0, "T-1", 0.6, 0], [0, "T1", 0, 0.8]], 34, id="superposition-0-2"),
]
_SECTOR_PARAMS = SystemParams(omega0=10.0, delta=0.3, g=1.0, gamma_a=0.3, gamma_sigma=0.15)
_SECTOR_GRID = np.linspace(0.0, 12.0, 7)


@functools.lru_cache(maxsize=None)
def _dense_propagators(cutoff):
    """The dense generator at ``cutoff`` and ``expm(G t)`` on the sector grid."""
    gen = build_generator(_SECTOR_PARAMS, build_basis(cutoff))
    return gen, [expm(gen * t) for t in _SECTOR_GRID]


class TestSymmetrySectors:
    """Propagation keeps only the entries ``rho[i, j]`` of the live block whose
    manifold difference ``m_i - m_j`` the initial state holds; the dense
    generator must not couple them to any other entry."""

    @pytest.mark.parametrize("cutoff", [2, 3])
    @pytest.mark.parametrize("spec, size", _SECTOR_SIZES)
    def test_sector_is_closed_and_exact(self, cutoff, spec, size):
        basis = build_basis(cutoff)
        rho0 = initial_density_matrix({"initial_state": spec}, basis)
        t = _SECTOR_GRID
        top, (i, j), _, _ = liouvillian._live_trajectory(rho0, _SECTOR_PARAMS, basis, t)
        assert i.size == size

        # vec index of rho[i, j] in the dense generator is i * dim + j
        k = basis.manifold_slice(top).stop
        kept = i * k + j
        i, j = np.divmod(np.arange(k * k), k)
        block = i * basis.dim + j
        in_sector = np.isin(np.arange(k * k), kept)
        sector, dropped = block[in_sector], block[~in_sector]
        gen, propagators = _dense_propagators(cutoff)
        assert not np.any(gen[np.ix_(sector, dropped)])
        assert not np.any(gen[np.ix_(dropped, sector)])
        # and nothing in the sector feeds an entry outside the live block
        outside = np.setdiff1d(np.arange(basis.dim**2), block)
        assert not np.any(gen[np.ix_(outside, sector)])

        got = evolve(rho0, _SECTOR_PARAMS, basis, t).reshape(t.size, -1)
        want = np.array([step @ rho0.reshape(-1) for step in propagators])
        assert np.max(np.abs(got - want)) < 1e-13


_PROPAGATOR_PARAMS = {
    "lossy": SystemParams(omega0=10.0, delta=0.3, g=1.0, gamma_a=0.3, gamma_sigma=0.15),
    # at gamma_sigma = 0 and zero detuning two rung-1 levels coalesce at
    # gamma_a = 4 sqrt(2) g, and two rung-2 levels at gamma_a = 4 sqrt(u) g,
    # u = 3.2664... the real root of 16 u^3 - 72 u^2 + 81 u - 54
    "rung-1-ep": SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=4.0 * math.sqrt(2.0), gamma_sigma=0.0
    ),
    "rung-2-ep": SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=7.229357977808088, gamma_sigma=0.0
    ),
    "lossless": SystemParams(omega0=10.0, delta=0.3, g=1.0, gamma_a=0.0, gamma_sigma=0.0),
}


def _live_generator(name):
    """Generator on the live sector of both-excited at cutoff 2 (the 26
    entries of rungs 0..2 that connect a rung with itself) and ``rho0`` on
    them."""
    basis = build_basis(2)
    rho0 = _pure(basis, 0, DickeLabel.T_PLUS)
    _, _, gen, traj = liouvillian._live_trajectory(
        rho0, _PROPAGATOR_PARAMS[name], basis, np.zeros(1)
    )
    return gen, traj[0]


def _stepped(gen, x0, steps):
    """``x0`` and its images under each step matrix in turn: the reference."""
    out = [x0.astype(complex)]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


def _relative_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestPropagate:
    """Doubling on uniform grids, halving, and the per-interval path, against
    stepping with ``expm``."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_exceptional_points_are_defective(self, m):
        block = regression_block(_PROPAGATOR_PARAMS[f"rung-{m}-ep"], build_basis(2), m)
        assert np.linalg.cond(np.linalg.eig(block)[1]) > 1e6

    # 3, 5, 201 and 1025 points end on a partial block of the doubling
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 201, 1025])
    @pytest.mark.parametrize("name", sorted(_PROPAGATOR_PARAMS))
    def test_doubling_matches_stepping(self, name, n):
        gen, x0 = _live_generator(name)
        grid = np.linspace(0.0, 20.0, n)
        got = liouvillian._propagate(gen, x0, grid)
        steps = [expm(gen * 20.0 / (n - 1))] * (n - 1) if n > 1 else []
        assert got.shape == (n, x0.size)
        assert _relative_error(got, _stepped(gen, x0, steps)) <= 1e-13

    @pytest.mark.parametrize("n_time", [1, 2, 7, 512])
    @pytest.mark.parametrize("name", sorted(_PROPAGATOR_PARAMS))
    def test_halving_matches_fresh_propagation(self, name, n_time):
        gen, x0 = _live_generator(name)
        coarse = liouvillian._propagate(gen, x0, np.linspace(0.0, 20.0, n_time + 1))
        fine = liouvillian._halve_step(gen, coarse, 20.0 / (2 * n_time))
        fresh = liouvillian._propagate(gen, x0, np.linspace(0.0, 20.0, 2 * n_time + 1))
        assert np.array_equal(fine[::2], coarse)
        assert _relative_error(fine, fresh) <= 1e-13

    def test_nonuniform_grid_steps_each_interval(self, monkeypatch):
        gen, x0 = _live_generator("lossy")
        calls = []

        def counted(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr("scipy.linalg.expm", counted)
        grid = np.array([0.0, 0.05, 0.3, 1.75, 4.0, 12.0])
        got = liouvillian._propagate(gen, x0, grid)
        assert len(calls) == grid.size - 1
        steps = [expm(gen * dt) for dt in np.diff(grid)]
        assert _relative_error(got, _stepped(gen, x0, steps)) <= 1e-13
        calls.clear()
        liouvillian._propagate(gen, x0, np.linspace(0.0, 12.0, 6))
        assert len(calls) == 1


class TestTopManifold:
    @pytest.mark.parametrize(
        "state, top",
        [("both-excited", 2), ("one-photon", 1), ("coherent-0-2", 2)],
    )
    def test_named_states(self, basis3, state, top):
        assert top_manifold(_STATES[state](basis3), basis3) == top

    def test_zero_matrix_and_coherence_only(self, basis3):
        rho = np.zeros((basis3.dim, basis3.dim), complex)
        assert top_manifold(rho, basis3) == 0
        # a lone coherence between manifolds 0 and 3 reaches manifold 3
        rho[0, basis3.manifold_slice(3).start] = 1e-300
        assert top_manifold(rho, basis3) == 3

    def test_shape_mismatch_rejected(self, basis2, basis3):
        with pytest.raises(ValueError, match="does not match basis dim"):
            top_manifold(np.zeros((basis3.dim, basis3.dim)), basis2)


_ENTRY_POINTS = {
    "evolve": evolve,
    "two_time_correlation": lambda rho0, params, basis, t: two_time_correlation(
        "a", rho0, params, basis, t, t
    ),
    "physical_spectrum": lambda rho0, params, basis, t: physical_spectrum(
        "a", rho0, params, basis, np.linspace(8.0, 12.0, 5), n_time=8, max_refinements=0
    ),
}


class TestBeyondCutoffRefused:
    """Every propagating entry point refuses a state above the exact cutoff,
    with the same message, before it builds any generator."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_same_refusal_before_any_generator(self, monkeypatch, params, entry):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(liouvillian, "_generator", refuse)
        basis = build_basis(1)
        rho0 = _pure(basis, 0, DickeLabel.T_PLUS)
        with pytest.raises(
            ValueError,
            match=r"^initial state reaches manifold 2; photon truncation is exact "
            r"only up to manifold 1 at this cutoff$",
        ):
            _ENTRY_POINTS[entry](rho0, params, basis, np.linspace(0.0, 1.0, 3))


class TestBlocks:
    def test_dimensions(self, basis3, params):
        assert regression_block(params, basis3, 1).shape == (3, 3)
        assert regression_block(params, basis3, 2).shape == (12, 12)
        assert regression_block(params, basis3, 3).shape == (16, 16)
        assert population_block(params, basis3, 0).shape == (1, 1)
        assert population_block(params, basis3, 1).shape == (9, 9)
        assert population_block(params, basis3, 2).shape == (16, 16)

    def test_truncated_manifold_rejected(self, basis2, params):
        with pytest.raises(ValueError):
            regression_block(params, basis2, 3)
        with pytest.raises(ValueError):
            population_block(params, basis2, 3)

    def test_vacuum_population_block_is_zero(self, basis2, params):
        block = population_block(params, basis2, 0)
        assert block.shape == (1, 1)
        assert np.abs(block[0, 0]) == 0.0

    def test_first_block_matches_first_manifold_lines(self, basis2):
        params = SystemParams(omega0=10.0, delta=0.5, g=1.0, gamma_a=0.7, gamma_sigma=0.2)
        lines = line_values(regression_block(params, basis2, 1))
        expected = transition_eigenvalues(1, params)
        assert assignment_distance(lines, expected) < 1e-10

    def test_population_block_matches_deltas(self, basis2):
        params = SystemParams(omega0=10.0, delta=-0.5, g=1.0, gamma_a=1.3, gamma_sigma=0.4)
        for m in (1, 2):
            lines = line_values(population_block(params, basis2, m))
            expected = population_eigenvalues(m, params)
            assert assignment_distance(lines, expected) < 1e-10

    def test_block_spectra_inside_full_generator(self, basis2, params):
        gen_eigs = np.linalg.eigvals(build_generator(params, basis2))
        blocks = [regression_block(params, basis2, m) for m in (1, 2)]
        blocks += [population_block(params, basis2, m) for m in (0, 1, 2)]
        for block in blocks:
            for mu in np.linalg.eigvals(block):
                assert np.min(np.abs(gen_eigs - mu)) < 1e-8

    def test_raising_family_conjugate_to_lowering_blocks(self, basis2, params):
        # up to manifold 1 the family is sector m=1 alone
        _, gen = raising_coherence_generator(params, basis2, 1)
        assert gen.shape == (3, 3)
        lowering = regression_block(params, basis2, 1)
        assert assignment_distance(
            np.linalg.eigvals(gen), np.linalg.eigvals(lowering).conj()
        ) < 1e-10

    @pytest.mark.parametrize("cutoff", [2, 3])
    @pytest.mark.parametrize(
        "rates",
        [
            dict(delta=0.0, gamma_a=0.4, gamma_sigma=0.3),
            dict(delta=0.3, gamma_a=0.4, gamma_sigma=0.3),
            dict(delta=0.3, gamma_a=0.4, gamma_sigma=0.0),
        ],
    )
    def test_blocks_are_slices_of_full_generator(self, cutoff, rates):
        basis = build_basis(cutoff)
        params = SystemParams(omega0=10.0, g=1.0, **rates)
        gen = build_generator(params, basis)

        def sliced(pairs):
            idx = [c * basis.dim + r for r, c in pairs]
            return gen[np.ix_(idx, idx)]

        # the (row, col) pairs of each block's operators |r><c|, in order
        index = [range(basis.dim)[basis.manifold_slice(n)] for n in range(basis.max_manifold + 1)]
        blocks = [
            (regression_block(params, basis, m),
             [(r, c) for r in index[m - 1] for c in index[m]])
            for m in range(1, cutoff + 1)
        ]
        blocks += [
            (population_block(params, basis, m), [(r, c) for r in index[m] for c in index[m]])
            for m in range(cutoff + 1)
        ]
        for block, pairs in blocks:
            assert np.array_equal(block, sliced(pairs))
        # the raising family is sector-major, |m><m-1| for m = 1 .. top
        top = basis.max_manifold
        pairs = [(r, c) for m in range(1, top + 1) for r in index[m] for c in index[m - 1]]
        (rows, cols), raising = raising_coherence_generator(params, basis, top)
        assert list(zip(rows.tolist(), cols.tolist())) == pairs
        assert np.array_equal(raising, sliced(pairs))

    def test_line_convention_roundtrip(self, basis2, params):
        block = regression_block(params, basis2, 1)
        assert np.array_equal(line_values(block), 1j * np.linalg.eigvals(block))


def _points(sweep):
    """The lanes of a sweep, each as scalar params, in C order."""
    names = [f.name for f in fields(SystemParams)]
    values = [np.broadcast_to(getattr(sweep, name), sweep.shape) for name in names]
    return [
        SystemParams(**{name: float(v[index]) for name, v in zip(names, values)})
        for index in np.ndindex(sweep.shape)
    ]


_SWEEPS = {
    # H does not depend on the rates, so it stays one matrix
    "gamma_a only": SystemParams(
        omega0=10.0, delta=0.3, g=1.0, gamma_a=np.array([0.0, 0.4, 2.5]), gamma_sigma=0.2
    ),
    # lanes at gamma_sigma = 0 next to lanes where the emitters decay
    "mixed gamma_sigma": SystemParams(
        omega0=10.0,
        delta=np.array([0.0, 0.5, -0.5, 0.0]),
        g=1.0,
        gamma_a=np.array([0.3, 1.1, 0.0, 2.0]),
        gamma_sigma=np.array([0.0, 0.7, 0.0, 1.9]),
    ),
    "two axes": SystemParams(
        omega0=np.array([[9.0], [10.0]]),
        delta=0.0,
        g=np.array([0.5, 1.0, 1.5]),
        gamma_a=0.4,
        gamma_sigma=np.array([[0.0], [0.3]]),
    ),
    "0-d arrays": SystemParams(
        *(np.array(x) for x in (10.0, 0.5, 1.0, 0.3, 0.0))
    ),
}

_ASSEMBLIES = {
    "build_generator": build_generator,
    "regression_block": lambda p, basis: regression_block(p, basis, 1),
    "population_block": lambda p, basis: population_block(p, basis, 1),
    "raising_coherence_generator": lambda p, basis: raising_coherence_generator(
        p, basis, basis.max_manifold
    )[1],
}


class TestSweepAssembly:
    """Array-valued params give, lane by lane, exactly the matrices that each
    point alone gives, from the one assembly."""

    BASIS = build_basis(1)

    @pytest.mark.parametrize("sweep", _SWEEPS.values(), ids=list(_SWEEPS))
    @pytest.mark.parametrize("assembly", _ASSEMBLIES.values(), ids=list(_ASSEMBLIES))
    def test_lanes_are_the_point_matrices(self, sweep, assembly):
        per_point = [assembly(p, self.BASIS) for p in _points(sweep)]
        expected = np.stack(per_point).reshape(sweep.shape + per_point[0].shape)
        assert np.array_equal(assembly(sweep, self.BASIS), expected)

    @pytest.mark.parametrize("sweep", _SWEEPS.values(), ids=list(_SWEEPS))
    def test_hamiltonian_follows_its_own_fields(self, sweep):
        h = build_hamiltonian(sweep, self.BASIS)
        lanes = np.broadcast_shapes(*(np.shape(x) for x in (sweep.omega0, sweep.delta, sweep.g)))
        assert h.shape == lanes + (self.BASIS.dim, self.BASIS.dim)
        per_point = np.stack([build_hamiltonian(p, self.BASIS) for p in _points(sweep)])
        expected = per_point.reshape(sweep.shape + h.shape[-2:])
        assert np.array_equal(np.broadcast_to(h, expected.shape), expected)
