import math

import numpy as np
import pytest
from scipy.linalg import expm

import tcladder
from tcladder import liouvillian, spectrum
from tcladder.liouvillian import build_generator, evolve, raising_coherence_generator
from tcladder.space import DickeLabel, SystemParams, bare_operators, build_basis
from tcladder.spectrum import (
    default_collection_time,
    default_kappa,
    peak_table,
    physical_spectrum,
    two_time_correlation,
)
from tcladder.verify import assignment_distance


def _pure(basis, photons, label):
    rho = np.zeros((basis.dim, basis.dim), complex)
    k = basis.index_of(photons, label)
    rho[k, k] = 1.0
    return rho


class TestTwoTimeCorrelation:
    def test_vacuum_is_dark(self, basis2, params):
        t = np.linspace(0, 5, 6)
        for tag in ("a", "sigma1", "sigma2"):
            corr = two_time_correlation(
                tag, _pure(basis2, 0, DickeLabel.T_MINUS), params, basis2, t, t
            )
            assert np.max(np.abs(corr.values)) < 1e-14

    def test_bare_cavity_mode_analytic(self):
        basis = build_basis(1)
        params = SystemParams(omega0=7.0, delta=0.0, g=0.0, gamma_a=0.5, gamma_sigma=0.0)
        t = np.linspace(0, 4, 9)
        corr = two_time_correlation(
            "a", _pure(basis, 1, DickeLabel.T_MINUS), params, basis, t, t
        )
        expected = np.exp(-0.5 * t)[:, None] * np.exp(
            (1j * 7.0 - 0.25) * t
        )[None, :]
        assert np.max(np.abs(corr.values - expected)) < 1e-8
        assert np.max(
            np.abs(np.abs(corr.values) - np.exp(-0.5 * t)[:, None] * np.exp(-0.25 * t))
        ) < 1e-8

    def test_equal_time_value_is_population(self, basis2, params):
        ops = bare_operators(basis2)
        rho0 = _pure(basis2, 0, DickeLabel.T_PLUS)
        t = np.linspace(0, 6, 13)
        corr = two_time_correlation("a", rho0, params, basis2, t, t)
        traj = evolve(rho0, params, basis2, t)
        photon = np.einsum("tij,ji->t", traj, ops.a.conj().T @ ops.a)
        assert np.max(np.abs(corr.values[:, 0] - photon)) < 1e-10
        assert np.all(corr.values[:, 0].real >= -1e-10)
        assert np.max(np.abs(corr.values[:, 0].imag)) < 1e-10

    def test_matches_full_generator_propagation(self, basis2):
        params = SystemParams(omega0=9.0, delta=0.3, g=1.0, gamma_a=0.4, gamma_sigma=0.25)
        rho0 = _pure(basis2, 0, DickeLabel.T_PLUS)
        grid = np.linspace(0, 3, 4)
        corr = two_time_correlation("sigma1", rho0, params, basis2, grid, grid)
        op = bare_operators(basis2).sigma1
        gen = build_generator(params, basis2)
        step = expm(gen * (grid[1] - grid[0]))
        traj = evolve(rho0, params, basis2, grid)
        direct = np.empty((4, 4), complex)
        for it, rho in enumerate(traj):
            vec = (op @ rho).reshape(-1)
            for j in range(4):
                direct[it, j] = np.trace(
                    op.conj().T @ vec.reshape(basis2.dim, basis2.dim)
                )
                vec = step @ vec
        assert np.max(np.abs(corr.values - direct)) < 1e-7

    def test_linear_in_initial_state(self, basis2, params):
        t = np.linspace(0, 4, 5)
        rho_a = _pure(basis2, 0, DickeLabel.T_PLUS)
        rho_b = _pure(basis2, 1, DickeLabel.T_MINUS)
        mix = 0.3 * rho_a + 0.7 * rho_b
        g_mix = two_time_correlation("a", mix, params, basis2, t, t).values
        g_a = two_time_correlation("a", rho_a, params, basis2, t, t).values
        g_b = two_time_correlation("a", rho_b, params, basis2, t, t).values
        assert np.max(np.abs(g_mix - 0.3 * g_a - 0.7 * g_b)) < 1e-12

    def test_nonuniform_tau_grid(self, basis2, params):
        rho0 = _pure(basis2, 0, DickeLabel.T_PLUS)
        t = np.linspace(0, 2, 3)
        dense = two_time_correlation(
            "a", rho0, params, basis2, t, np.array([0.0, 0.5, 1.0, 1.5])
        )
        sparse = two_time_correlation(
            "a", rho0, params, basis2, t, np.array([0.0, 0.5, 1.5])
        )
        assert np.max(np.abs(sparse.values[:, 1] - dense.values[:, 1])) < 1e-12
        assert np.max(np.abs(sparse.values[:, 2] - dense.values[:, 3])) < 1e-12

    def test_truncated_support_rejected(self, params):
        basis = build_basis(1)
        with pytest.raises(ValueError):
            two_time_correlation(
                "a",
                _pure(basis, 0, DickeLabel.T_PLUS),
                params,
                basis,
                np.linspace(0, 1, 2),
                np.linspace(0, 1, 2),
            )


class TestPhysicalSpectrum:
    def test_vacuum_spectrum_is_zero(self, basis2, params):
        series = physical_spectrum(
            "a",
            _pure(basis2, 0, DickeLabel.T_MINUS),
            params,
            basis2,
            kappa=0.1,
            collection_time=10.0,
            omega_grid=np.linspace(8, 12, 41),
            n_time=64,
            max_refinements=1,
        )
        assert np.max(np.abs(series.values)) < 1e-12

    def test_single_line_centered_on_mode(self):
        basis = build_basis(1)
        params = SystemParams(omega0=7.0, delta=0.0, g=0.0, gamma_a=0.3, gamma_sigma=0.0)
        omega = np.linspace(5.0, 9.0, 401)
        series = physical_spectrum(
            "a",
            _pure(basis, 1, DickeLabel.T_MINUS),
            params,
            basis,
            kappa=0.05,
            collection_time=80.0,
            omega_grid=omega,
            kernel="decaying",
            n_time=256,
            max_refinements=2,
        )
        peak = omega[np.argmax(series.values)]
        assert abs(peak - 7.0) <= omega[1] - omega[0]
        assert np.min(series.values) > -1e-10 * np.max(series.values)

    def test_kernel_choice_preserves_peak_positions(self):
        basis = build_basis(1)
        params = SystemParams(
            omega0=10.0, delta=0.0, g=1.0, gamma_a=0.1, gamma_sigma=0.1
        )
        omega = np.linspace(7.5, 12.5, 251)
        rho0 = _pure(basis, 0, DickeLabel.T_ZERO)
        peaks = {}
        for kernel in ("verbatim", "decaying"):
            series = physical_spectrum(
                "a", rho0, params, basis,
                kappa=0.1, collection_time=60.0, omega_grid=omega,
                kernel=kernel, n_time=256, max_refinements=2,
            )
            order = np.argsort(series.values)[-2:]
            peaks[kernel] = np.sort(omega[order])
        step = omega[1] - omega[0]
        assert np.max(np.abs(peaks["verbatim"] - peaks["decaying"])) <= step + 1e-12

    def test_bandwidth_never_narrows_line(self):
        basis = build_basis(1)
        params = SystemParams(omega0=7.0, delta=0.0, g=0.0, gamma_a=0.3, gamma_sigma=0.0)
        omega = np.linspace(5.0, 9.0, 801)
        rho0 = _pure(basis, 1, DickeLabel.T_MINUS)

        def fwhm(kappa):
            series = physical_spectrum(
                "a", rho0, params, basis,
                kappa=kappa, collection_time=100.0, omega_grid=omega,
                kernel="decaying", n_time=512, max_refinements=1,
            )
            values = series.values
            half = values.max() / 2
            above = omega[values >= half]
            return above[-1] - above[0]

        widths = [fwhm(k) for k in (0.05, 0.1, 0.2)]
        assert widths[0] < widths[1] < widths[2]

    def test_cascade_shows_lines_from_both_steps(self, basis2):
        # both emitters excited, sharp lines: the cavity spectrum carries the
        # one-excitation doublet and the inner two-excitation lines (the
        # outer ones are suppressed by destructive interference, and the
        # transitions into the lower singlet are dark for the field)
        params = SystemParams(
            omega0=10.0, delta=0.0, g=1.0, gamma_a=0.02, gamma_sigma=0.02
        )
        rho0 = _pure(basis2, 0, DickeLabel.T_PLUS)
        omega = np.linspace(7.5, 12.5, 501)
        series = physical_spectrum(
            "a", rho0, params, basis2,
            kappa=0.02, collection_time=150.0, omega_grid=omega,
            kernel="decaying", n_time=512, max_refinements=2,
        )
        s = series.values
        detected = [
            omega[i]
            for i in range(1, omega.size - 1)
            if s[i] > s[i - 1] and s[i] > s[i + 1] and s[i] > 0.02 * s.max()
        ]
        step = omega[1] - omega[0]
        for target in (
            10 - math.sqrt(2), 10 + math.sqrt(2),            # second step
            10 - (math.sqrt(6) - math.sqrt(2)),              # first step, inner
            10 + (math.sqrt(6) - math.sqrt(2)),
        ):
            assert min(abs(w - target) for w in detected) <= step + 1e-12
        table = peak_table(params, 2)
        for w in detected:
            assert np.min(np.abs(table.positions() - w)) <= step + 1e-12

    def test_spectrum_linear_in_state_mixture(self, basis2, params):
        omega = np.linspace(8, 12, 81)
        rho_a = _pure(basis2, 0, DickeLabel.T_PLUS)
        rho_b = _pure(basis2, 1, DickeLabel.T_MINUS)
        mix = 0.4 * rho_a + 0.6 * rho_b
        kwargs = dict(
            kappa=0.1, collection_time=30.0, omega_grid=omega,
            n_time=128, max_refinements=0,
        )
        s_mix = physical_spectrum("a", mix, params, basis2, **kwargs).values
        s_a = physical_spectrum("a", rho_a, params, basis2, **kwargs).values
        s_b = physical_spectrum("a", rho_b, params, basis2, **kwargs).values
        scale = np.max(np.abs(s_mix))
        assert np.max(np.abs(s_mix - 0.4 * s_a - 0.6 * s_b)) < 1e-9 * scale

    def test_invalid_arguments(self, basis2, params):
        rho0 = _pure(basis2, 0, DickeLabel.T_MINUS)
        omega = np.linspace(8, 12, 5)
        with pytest.raises(ValueError):
            physical_spectrum("a", rho0, params, basis2, omega, kappa=-1.0)
        with pytest.raises(ValueError):
            physical_spectrum("a", rho0, params, basis2, omega, kappa=0.1, collection_time=0.0)
        with pytest.raises(ValueError):
            physical_spectrum("a", rho0, params, basis2, omega, kernel="sideways")

    def test_defaults_recorded(self, basis2, params):
        series = physical_spectrum(
            "a",
            _pure(basis2, 0, DickeLabel.T_MINUS),
            params,
            basis2,
            np.linspace(8, 12, 5),
            n_time=32,
            max_refinements=1,
        )
        assert series.kappa == pytest.approx(default_kappa(params))
        assert series.collection_time == pytest.approx(default_collection_time(params))
        assert series.kernel == "verbatim"


class TestPeakTable:
    def test_first_block_rows(self, params):
        table = peak_table(params, 1)
        assert len(table.rows) == 3
        positions = sorted(r.position for r in table.rows)
        assert np.allclose(
            positions, [10 - math.sqrt(2), 10, 10 + math.sqrt(2)], atol=1e-9
        )

    def test_second_block_collapses_to_nine(self):
        p = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.1, gamma_sigma=0.05)
        table = peak_table(p, 2).for_manifold(2)
        assert len(table.rows) == 12
        assert table.distinct_positions().size <= 9

    def test_singlet_flags(self, params):
        table = peak_table(params, 2)
        m2 = [r for r in table.rows if r.m == 2]
        flagged = [r for r in m2 if r.involves_singlet]
        # branch 4 on the upper manifold: 3 rows; branch 3 below: 3 rows; one overlap
        assert len(flagged) == 6
        assert all(r.i == 4 or r.j == 3 for r in flagged)

    def test_widths_positive_with_loss(self, params):
        assert all(r.width > 0 for r in peak_table(params, 3).rows)

    def test_degenerate_positions_share_multiplicity(self, params):
        table = peak_table(params, 2)
        central = [r for r in table.rows if abs(r.position - 10.0) < 1e-9]
        assert all(r.multiplicity == len(central) for r in central)


def _per_tau_pass(operator, rho0, params, basis, kappa, collection_time, omega_grid, sign, n_time):
    """The quadrature pass as a loop over the delay, stepping the whole
    raising family and summing each inner trapezoid on its own."""
    grid = np.linspace(0.0, collection_time, n_time + 1)
    h = collection_time / n_time
    traj = evolve(rho0, params, basis, grid)
    pairs, gen = raising_coherence_generator(params, basis)
    gen = gen - 1j * params.omega0 * np.eye(len(pairs))
    op = getattr(basis.operators, operator)
    rows, cols = np.array(pairs).T
    v = np.stack([(op @ rho)[cols, rows] for rho in traj], axis=1)
    coeff = op[cols, rows].conj()
    step = expm(gen * h)
    wt = np.exp(-2.0 * kappa * (collection_time - grid))
    inner = np.empty(n_time + 1, dtype=complex)
    for j in range(n_time + 1):
        f = wt * (coeff @ v)
        top = n_time - j
        inner[j] = 0.0 if top == 0 else h * (f[: top + 1].sum() - 0.5 * (f[0] + f[top]))
        if j < n_time:
            v = step @ v
    tau_weights = np.full(n_time + 1, h)
    tau_weights[0] *= 0.5
    tau_weights[-1] *= 0.5
    rate = sign * kappa - 1j * (omega_grid - params.omega0)
    kernel = np.exp(rate[:, None] * grid[None, :])
    return 2.0 * kappa * np.real(kernel @ (tau_weights * inner))


class TestFusedPass:
    PARAMS = SystemParams(omega0=10.0, delta=0.2, g=1.0, gamma_a=0.1, gamma_sigma=0.05)
    OMEGA = np.linspace(7.0, 13.0, 121)

    @classmethod
    def _args(cls, operator):
        basis = build_basis(2)
        rho0 = 0.7 * _pure(basis, 0, DickeLabel.T_PLUS) + 0.3 * _pure(
            basis, 1, DickeLabel.T_MINUS
        )
        return (operator, rho0, cls.PARAMS, basis, 0.05, 40.0, cls.OMEGA, -1.0, 600)

    @pytest.fixture(scope="class")
    def reference(self):
        return {op: _per_tau_pass(*self._args(op)) for op in ("a", "sigma1")}

    # n_time = 600: the default blocks hold 436 and 164 delay rows; 7000
    # entries give blocks of 11 rows with 6 left over; 1 gives one row each
    @pytest.mark.parametrize("chunk", [spectrum._CHUNK_ELEMENTS, 7000, 1])
    @pytest.mark.parametrize("operator", ["a", "sigma1"])
    def test_matches_per_tau_loop(self, monkeypatch, reference, operator, chunk):
        monkeypatch.setattr(spectrum, "_CHUNK_ELEMENTS", chunk)
        fused = spectrum._spectrum_pass(*self._args(operator))
        expected = reference[operator]
        assert np.max(np.abs(fused - expected)) < 1e-12 * np.max(np.abs(expected))


class TestNoFullGenerator:
    def test_full_generator_never_built(self, monkeypatch, basis3, params):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the full generator was built")

        for module in (tcladder, liouvillian):
            monkeypatch.setattr(module, "build_generator", refuse)
        rho0 = _pure(basis3, 0, DickeLabel.T_PLUS)
        t = np.linspace(0.0, 4.0, 9)
        evolve(rho0, params, basis3, t)
        two_time_correlation("a", rho0, params, basis3, t, t)
        physical_spectrum(
            "a", rho0, params, basis3, kappa=0.1, collection_time=20.0,
            omega_grid=np.linspace(8.0, 12.0, 41), n_time=32, max_refinements=1,
            target_delta=1.0,
        )
