import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tcladder import eigenanalysis, liouvillian, verify
from tcladder.space import build_basis
from tcladder.verify import (
    ALL_CHECK_IDS,
    assignment_distance,
    check_dressed_energies,
    check_population_oracle,
    check_qrt_identity,
    check_singlet_width,
    select_checks,
)


class TestSelection:
    def test_all_by_default(self):
        assert select_checks() == list(ALL_CHECK_IDS)

    def test_glob_and_substring(self):
        assert select_checks(["c0[12]*", "qrt"]) == [
            "c01-dressed-energies",
            "c02-coherence-oracle",
            "c10-qrt-identity",
        ]


def test_qrt_line_does_not_depend_on_runtime(monkeypatch):
    results = []
    for runtime in (1.0, 3.0):
        ticks = iter([0.0, runtime])
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        results.append(check_qrt_identity())
    first, second = results
    assert first.passed and second.passed
    assert first.detail != second.detail
    assert first.line() == second.line()


def test_dressed_energies_check_reads_the_closed_form(monkeypatch):
    closed_form = eigenanalysis.complex_eigenenergies
    monkeypatch.setattr(
        eigenanalysis, "complex_eigenenergies", lambda n, params: closed_form(n, params) + 1e-6
    )
    assert not check_dressed_energies().passed


class TestOracle:
    """The coherence oracle builds one block stack per rung and matches every
    lane against its own closed forms."""

    POINTS = verify._random_parameter_grid(51)

    def _worst(self, closed_form_points, expected_dims=None):
        return verify._oracle_worst(
            liouvillian.regression_block,
            eigenanalysis.transition_eigenvalues,
            expected_dims or {1: 3, 2: 12},
            self.POINTS,
            closed_form_points,
        )

    def test_one_wrong_lane_is_seen(self):
        worst, _ = self._worst(self.POINTS)
        assert worst < 1e-8
        g = np.where(np.arange(51) == 17, 1.01, 1.0)
        worst, detail = self._worst(replace(self.POINTS, g=g))
        assert worst > 1e-8
        assert detail == ""

    def test_wrong_block_dimension_reads_infinite(self):
        assert self._worst(self.POINTS, {1: 3, 2: 9}) == (math.inf, "block m=2 has dim 12")

    def test_a_closed_form_sweep_of_other_length_reads_infinite(self):
        short = verify._random_parameter_grid(50)
        assert self._worst(short) == (math.inf, "m=1: lanes (51,) (50,) (51,)")

    def test_grid_is_one_sweep_whose_prefix_is_the_shorter_grid(self):
        assert self.POINTS.shape == (51,)
        short = verify._random_parameter_grid(6)
        for name in ("delta", "gamma_a", "gamma_sigma"):
            assert np.array_equal(getattr(short, name), getattr(self.POINTS, name)[:6])


def _spectrum_distance(matrices, framed):
    """Worst distance between the spectra of two stacks, lane by lane, over
    the largest eigenvalue modulus of the lane (at least 1)."""
    return max(
        assignment_distance(a, b) / max(np.abs(a).max(), 1.0)
        for a, b in zip(np.linalg.eigvals(matrices), np.linalg.eigvals(framed), strict=True)
    )


class TestHermitianFrame:
    """Generators that map Hermitian operators to Hermitian ones are real in
    the frame, with the same spectrum."""

    POINTS = verify._random_parameter_grid(51)

    @pytest.mark.parametrize("dim", [1, 4, 16])
    def test_frame_is_unitary_in_any_order(self, dim):
        rows, cols = np.divmod(np.random.default_rng(dim).permutation(dim * dim), dim)
        frame = verify._hermitian_frame(rows, cols)
        u = frame.to_frame(np.eye(dim * dim))
        assert np.abs(u.conj().T @ u - np.eye(dim * dim)).max() < 1e-15
        x = np.random.default_rng(0).normal(size=(3, dim * dim, 2)) @ np.array([1.0, 1j])
        assert np.abs(frame.from_frame(frame.to_frame(x)) - x).max() <= 1e-15 * np.abs(x).max()

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3])
    def test_full_generator_is_real_with_the_same_spectrum(self, cutoff):
        basis = build_basis(cutoff)
        gen = liouvillian.build_generator(verify._random_parameter_grid(4), basis)
        framed, imag = verify._square_frame(basis.dim).real(gen)
        assert imag <= 1e-15
        assert _spectrum_distance(gen, framed) <= 1e-12

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_population_blocks_are_real_with_the_same_spectrum(self, m):
        blocks = liouvillian.population_block(self.POINTS, build_basis(3), m)
        framed, imag = verify._square_frame(math.isqrt(blocks.shape[-1])).real(blocks)
        assert imag <= 1e-15
        assert _spectrum_distance(blocks, framed) <= 1e-12

    def test_imaginary_part_is_reported_relative_to_the_largest_entry(self):
        frame = verify._square_frame(2)
        assert frame.real(np.zeros((4, 4)))[1] == 0.0
        _, imag = frame.real(2.0 * np.eye(4) + 1e-6j * np.eye(4))
        assert imag == pytest.approx(5e-7)

    def test_a_list_without_adjoints_is_refused_with_one_line(self):
        rows, cols = liouvillian._sector(build_basis(3), 2, lambda r, c: (r == 1) & (c == 2))
        with pytest.raises(ValueError, match="has no adjoint") as err:
            verify._hermitian_frame(rows, cols)
        assert "\n" not in str(err.value)

    def test_a_repeated_operator_is_refused(self):
        with pytest.raises(ValueError, match="has no adjoint"):
            verify._hermitian_frame(np.array([0, 0, 1, 0]), np.array([1, 1, 0, 0]))


class TestGuardMutations:
    """Wrong blocks or generators fail c03, c04 and c10.  The two complex
    shifts are not Hermiticity-preserving and fail on the frame's imaginary
    part, which taking the real part alone would drop."""

    def test_complex_shift_of_the_population_block(self, monkeypatch):
        block_of = liouvillian.population_block

        def shifted(params, basis, m):
            block = block_of(params, basis, m)
            return block + 1e-6j * np.eye(block.shape[-1])

        monkeypatch.setattr(liouvillian, "population_block", shifted)
        for result in (check_population_oracle(), check_singlet_width()):
            assert not result.passed
            assert result.measured == math.inf
            assert "not real in the Hermitian frame" in result.detail

    def test_complex_shift_of_the_generator(self, monkeypatch):
        generator_of = liouvillian.build_generator

        def shifted(params, basis):
            return generator_of(params, basis) + 1e-6j * np.eye(basis.dim**2)

        monkeypatch.setattr(liouvillian, "build_generator", shifted)
        result = check_qrt_identity()
        assert not result.passed
        assert result.measured == math.inf
        assert "not real in the Hermitian frame" in result.detail

    def test_wrong_emitter_rate_in_the_population_block(self, monkeypatch):
        block_of = liouvillian.population_block

        def wrong_rate(params, basis, m):
            return block_of(replace(params, gamma_sigma=1.01 * params.gamma_sigma), basis, m)

        monkeypatch.setattr(liouvillian, "population_block", wrong_rate)
        for result in (check_population_oracle(), check_singlet_width()):
            assert not result.passed
            assert math.isfinite(result.measured)


def _peak_positions_loop(omega, values, floor_frac):
    floor = floor_frac * values.max()
    idx = [
        i
        for i in range(1, omega.size - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] >= floor
    ]
    return omega[np.array(idx, dtype=int)] if idx else np.array([])


@pytest.mark.parametrize("size", [1, 2, 3, 4, 10, 601])
def test_peak_positions_equal_the_loop(size):
    rng = np.random.default_rng(size)
    omega = np.sort(rng.uniform(0.0, 10.0, size))
    # few distinct levels, so ties and flat runs are common
    for values in (rng.integers(0, 4, size).astype(float), rng.normal(size=size)):
        for floor_frac in (0.0, 0.5, 1.0):
            expected = _peak_positions_loop(omega, values, floor_frac)
            got = verify._peak_positions(omega, values, floor_frac)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
