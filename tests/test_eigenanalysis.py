import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcladder.eigenanalysis import (
    ExceptionalPointError,
    complex_eigenenergies,
    complex_rabi,
    discriminant,
    eps_manifold,
    eps_manifold1,
    gamma_n,
    jc_reference,
    perturbative_splitting,
    population_eigenvalues,
    rabi_splitting,
    sc_boundary,
    sc_criterion,
    splitting_roots,
    transition_eigenvalues,
)
from tcladder.liouvillian import population_block, regression_block
from tcladder.space import SystemParams, build_basis
from tcladder.verify import assignment_distance

from conftest import params_strategy


def make_params(gamma_a=0.0, gamma_sigma=0.0, delta=0.0, g=1.0, omega0=10.0):
    return SystemParams(
        omega0=omega0, delta=delta, g=g, gamma_a=gamma_a, gamma_sigma=gamma_sigma
    )


class TestFirstManifold:
    def test_direct_substitution(self):
        levels = eps_manifold1(make_params(gamma_a=0.4, gamma_sigma=0.4))
        values = {lv.branch: lv.value for lv in levels}
        assert values[1] == pytest.approx(10 + math.sqrt(2) - 0.2j)
        assert values[2] == pytest.approx(10 - math.sqrt(2) - 0.2j)
        assert values[3] == pytest.approx(10 - 0.2j)

    def test_lossless_limit_reduces_to_dressed(self):
        levels = eps_manifold1(make_params())
        values = sorted(lv.value.real for lv in levels)
        assert np.allclose(values, [10 - math.sqrt(2), 10, 10 + math.sqrt(2)])
        assert all(lv.value.imag == 0 for lv in levels)

    def test_equal_widths_in_strong_coupling(self):
        levels = eps_manifold1(make_params(gamma_a=0.6, gamma_sigma=0.1))
        pair = [lv for lv in levels if lv.branch in (1, 2)]
        assert pair[0].value.imag == pytest.approx(pair[1].value.imag)
        assert pair[0].value.imag == pytest.approx(-(0.6 + 0.1) / 4)

    def test_width_and_position_properties(self):
        lv = eps_manifold1(make_params(gamma_a=0.4, gamma_sigma=0.4))[0]
        assert lv.position == pytest.approx(10 + math.sqrt(2))
        assert lv.width == pytest.approx(0.4)


class TestComplexRabi:
    def test_substitutions(self):
        assert complex_rabi(2, make_params()) == pytest.approx(math.sqrt(6))
        # gamma_- = 2 requires gamma_a = 8
        val = complex_rabi(2, make_params(gamma_a=8.0))
        assert val == pytest.approx(1j * math.sqrt(10))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_lossless_value(self, n):
        assert complex_rabi(n, make_params(g=1.3)) == pytest.approx(
            1.3 * math.sqrt(4 * n - 2)
        )

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            complex_rabi(0, make_params())


class TestDiscriminant:
    def test_zero_when_lossless_resonant(self):
        assert discriminant(2, make_params()) == 0

    def test_real_when_rabi_real(self):
        q = discriminant(2, make_params(gamma_a=1.0))
        assert q.imag == pytest.approx(0.0, abs=1e-15)
        assert q.real != 0

    def test_boundary_identity_first_manifold(self):
        # |Im Q_1| = 1 exactly at gamma_-/g = sqrt(2)
        q = discriminant(1, make_params(gamma_a=4 * math.sqrt(2)))
        assert abs(q.imag) == pytest.approx(1.0, abs=1e-12)
        assert q.real == pytest.approx(0.0, abs=1e-15)

    def test_exceptional_point_signaled(self):
        # R_2 = 0 at gamma_- = sqrt(6)/2, i.e. gamma_a = 2 sqrt(6)
        with pytest.raises(ExceptionalPointError):
            discriminant(2, make_params(gamma_a=2 * math.sqrt(6)))


class TestSplittingRoots:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_lossless_resonant_roots(self, n):
        roots = splitting_roots(n, make_params())
        lead = math.sqrt(4 * n - 2)
        assert np.allclose(roots, [lead, 0.0, -lead], atol=1e-12)

    @given(p=params_strategy())
    def test_roots_sum_to_zero(self, p):
        try:
            roots = splitting_roots(2, p)
        except ExceptionalPointError:
            return
        assert abs(roots.sum()) < 1e-12 * max(1.0, np.abs(roots).max())

    @given(p=params_strategy(), n=st.sampled_from([2, 3, 4]))
    def test_companion_cubic_identity(self, p, n):
        roots = splitting_roots(n, p)
        g = p.g
        c = 2 * p.gamma_minus + 1j * p.delta
        k_lin = (4 * n - 2) * g * g - c * c
        x = -1j * roots
        residual = np.abs(x**3 + k_lin * x - 2 * c * g * g)
        assert np.max(residual) < 1e-10 * max(g**3, abs(k_lin) ** 1.5)

    def test_matches_expansion_at_small_loss(self):
        p = make_params(gamma_a=0.04)  # gamma_-/g = 0.01
        exact = splitting_roots(2, p)
        approx = perturbative_splitting(2, p)
        assert np.max(np.abs(exact - approx)) < 1e-5

    def test_exceptional_point_fallback_continuous(self):
        ga_ep = 2 * math.sqrt(6)
        at_ep = splitting_roots(2, make_params(gamma_a=ga_ep))
        near = splitting_roots(2, make_params(gamma_a=ga_ep * (1 + 1e-7)))
        assert assignment_distance(at_ep, near) < 1e-3
        # fallback still satisfies the defining cubic
        c = 2 * (ga_ep / 4)
        k_lin = 6 - c * c
        residual = np.abs(at_ep**3 - k_lin * at_ep + 2j * c)
        assert np.max(residual) < 1e-10

    def test_ordering_descending_real(self):
        roots = splitting_roots(3, make_params(gamma_a=0.8, gamma_sigma=0.1))
        assert roots[0].real >= roots[1].real >= roots[2].real

    def test_rejects_first_manifold(self):
        with pytest.raises(ValueError):
            splitting_roots(1, make_params())


class TestManifoldEnergies:
    def test_width_substitution(self):
        levels = eps_manifold(2, make_params(gamma_a=0.3, gamma_sigma=0.1))
        assert gamma_n(2, make_params(gamma_a=0.3, gamma_sigma=0.1)) == pytest.approx(0.4)
        singlet = [lv for lv in levels if lv.branch == 4][0]
        assert singlet.value.imag == pytest.approx(-0.2)

    def test_lossless_energies_match_dressed(self):
        levels = eps_manifold(3, make_params())
        values = sorted(lv.value.real for lv in levels)
        lead = math.sqrt(10)
        assert np.allclose(values, [30 - lead, 30, 30, 30 + lead], atol=1e-12)
        assert all(abs(lv.value.imag) < 1e-15 for lv in levels)

    def test_degenerate_position_pair_differs_in_width(self):
        levels = eps_manifold(2, make_params(gamma_a=0.8))
        central = [lv for lv in levels if abs(lv.value.real - 20) < 1e-10]
        assert len(central) == 2
        widths = sorted(lv.width for lv in central)
        assert widths[1] - widths[0] > 1e-3

    def test_vacuum_is_zero(self):
        (vac,) = complex_eigenenergies(0, make_params(gamma_a=2.0, gamma_sigma=1.0))
        assert vac.value == 0

    @given(p=params_strategy(deltas=(0.0,)), n=st.sampled_from([2, 3, 4]))
    def test_widths_nonpositive_and_sum_rule(self, p, n):
        levels = eps_manifold(n, p)
        assert all(lv.value.imag <= 1e-14 for lv in levels)
        triplet = [lv.value.imag for lv in levels if lv.branch != 4]
        assert sum(triplet) == pytest.approx(-1.5 * gamma_n(n, p), abs=1e-10)


class TestTransitionAndPopulationValues:
    def test_first_block_is_first_manifold(self, params):
        lam = transition_eigenvalues(1, params)
        eps = {lv.branch: lv.value for lv in eps_manifold1(params)}
        assert len(lam) == 3
        for line in lam:
            assert line.value == eps[line.i]
            assert line.j == 1

    def test_counts(self, params):
        assert len(transition_eigenvalues(2, params)) == 12
        assert len(transition_eigenvalues(3, params)) == 16
        assert len(population_eigenvalues(2, params)) == 16

    def test_third_block_has_at_most_nine_positions(self):
        p = make_params(gamma_a=0.1, gamma_sigma=0.05)
        positions = sorted(t.value.real for t in transition_eigenvalues(3, p))
        distinct = []
        for pos in positions:
            if not distinct or pos - distinct[-1] > 1e-9:
                distinct.append(pos)
        assert len(distinct) <= 9

    def test_population_values(self, params):
        assert population_eigenvalues(0, params)[0].value == 0
        for d in population_eigenvalues(1, params):
            if d.i == d.j:
                assert d.value.real == pytest.approx(0.0, abs=1e-15)


class TestStrongCouplingCriterion:
    def test_first_manifold_boundary(self):
        below = sc_criterion(1, make_params(gamma_a=4 * 1.39))
        above = sc_criterion(1, make_params(gamma_a=4 * 1.43))
        assert below.strong_coupling and not above.strong_coupling

    def test_second_manifold_cases(self):
        real_clause = sc_criterion(2, make_params(gamma_a=4.0))  # gamma_- = 1
        assert real_clause.strong_coupling and real_clause.r_real
        imag_sc = sc_criterion(2, make_params(gamma_a=4 * 1.7))
        assert imag_sc.strong_coupling and not imag_sc.r_real and imag_sc.im_q > 1
        weak = sc_criterion(2, make_params(gamma_a=4 * 1.9))
        assert not weak.strong_coupling and weak.im_q < 1

    def test_boundary_equality_flagged_false(self):
        diag = sc_criterion(1, make_params(gamma_a=4 * math.sqrt(2)))
        assert diag.at_boundary
        assert not diag.strong_coupling

    def test_exceptional_point_is_strongly_coupled(self):
        diag = sc_criterion(2, make_params(gamma_a=2 * math.sqrt(6)))
        assert diag.strong_coupling
        assert diag.im_q == math.inf

    def test_requires_resonance(self):
        with pytest.raises(ValueError):
            sc_criterion(1, make_params(delta=0.1))


class TestBoundary:
    def test_first_manifold_exact(self):
        assert abs(sc_boundary(1) - math.sqrt(2)) < 1e-12

    def test_second_manifold_bracket_and_residual(self):
        b = sc_boundary(2)
        assert 1.80 <= b <= 1.81
        assert abs(6 * math.sqrt(3) * b - (4 * b * b - 6) ** 1.5) < 1e-9

    def test_splitting_closes_at_boundary(self):
        for n in (2, 3):
            y = sc_boundary(n)
            weak = make_params(gamma_a=4 * (y + 1e-9))
            assert np.max(np.abs(splitting_roots(n, weak).real)) < 1e-9
            strong = make_params(gamma_a=4 * (y - 1e-3))
            assert np.max(np.abs(splitting_roots(n, strong).real)) > 1e-6

    def test_monotone_in_n(self):
        values = [sc_boundary(n) for n in range(1, 7)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_continuity_across_boundary(self):
        for n in (2, 3):
            y = sc_boundary(n)
            lo = eps_manifold(n, make_params(gamma_a=4 * (y - 1e-8)))
            hi = eps_manifold(n, make_params(gamma_a=4 * (y + 1e-8)))
            dist = assignment_distance(
                np.array([lv.value for lv in lo]), np.array([lv.value for lv in hi])
            )
            assert dist < 1e-3


class TestRabiSplitting:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lossless_value(self, n):
        assert rabi_splitting(n, make_params(g=1.3)) == pytest.approx(
            1.3 * math.sqrt(4 * n - 2)
        )

    def test_first_manifold_value(self):
        p = make_params(gamma_a=0.8, gamma_sigma=0.2)  # gamma_- = 0.15
        assert rabi_splitting(1, p) == pytest.approx(math.sqrt(2 - 0.15**2))

    def test_zero_beyond_boundary(self):
        for n in (1, 2, 3):
            assert rabi_splitting(n, make_params(gamma_a=4 * (sc_boundary(n) + 0.1))) == 0.0

    def test_requires_resonance_and_positive_n(self):
        with pytest.raises(ValueError):
            rabi_splitting(1, make_params(delta=0.1))
        with pytest.raises(ValueError):
            rabi_splitting(0, make_params())


class TestPerturbativeSplitting:
    def test_leading_order(self):
        assert np.allclose(
            perturbative_splitting(2, make_params()),
            [math.sqrt(6), 0.0, -math.sqrt(6)],
        )

    def test_second_order_magnitude(self):
        p = make_params(gamma_a=0.2)  # gamma_-/g = 0.05
        vals = perturbative_splitting(2, p)
        correction = math.sqrt(6) - vals[0].real
        expected = (16 * 2 * 1 + 1) * 0.0025 / (2**1.5 * 3**2.5)
        assert correction == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cubic_convergence(self, n):
        def err(u):
            p = make_params(gamma_a=4 * u)
            return np.max(np.abs(splitting_roots(n, p) - perturbative_splitting(n, p)))

        ratio = err(0.02) / err(0.01)
        assert 7.0 < ratio < 9.0


class TestWeakCouplingCollapse:
    def test_positions_collapse_far_above_boundary(self):
        p = make_params(gamma_a=40.0)  # gamma_-/g = 10
        for n in range(1, 5):
            for lv in complex_eigenenergies(n, p):
                assert abs(lv.value.real - n * 10.0) < 1e-6


class TestJCReference:
    def test_values(self):
        ref = jc_reference(1, make_params(gamma_a=2.0))  # gamma_- = 0.5
        assert ref.rabi == pytest.approx(math.sqrt(0.75))
        assert ref.strong_coupling

    def test_boundary_case(self):
        ref = jc_reference(1, make_params(gamma_a=4.0))  # gamma_- = 1 = sqrt(1) g
        assert not ref.strong_coupling

    def test_two_emitter_region_is_larger(self):
        assert sc_boundary(1) > 1.0


class TestOracleEquivalence:
    def test_blocks_match_closed_forms_on_random_grid(self):
        rng = np.random.default_rng(5)
        basis = build_basis(3)
        worst = 0.0
        for k in range(12):
            p = SystemParams(
                omega0=10.0,
                delta=[0.0, 0.5, -0.5][k % 3],
                g=1.0,
                gamma_a=float(rng.uniform(0, 4)),
                gamma_sigma=float(rng.uniform(0, 4)),
            )
            for m in (1, 2, 3):
                lines = regression_block(p, basis, m).line_values()
                expected = np.array([t.value for t in transition_eigenvalues(m, p)])
                worst = max(worst, assignment_distance(lines, expected))
            for m in (0, 1, 2):
                lines = population_block(p, basis, m).line_values()
                expected = np.array([d.value for d in population_eigenvalues(m, p)])
                worst = max(worst, assignment_distance(lines, expected))
        assert worst < 1e-8

    def test_debug_perturbation_breaks_equivalence(self):
        # closed forms at a 1% larger coupling must not match the blocks
        basis = build_basis(2)
        p = make_params(gamma_a=0.8, gamma_sigma=0.3)
        lines = regression_block(p, basis, 2).line_values()
        wrong = replace(p, g=1.01 * p.g)
        expected = np.array([t.value for t in transition_eigenvalues(2, wrong)])
        assert assignment_distance(lines, expected) > 1e-8


class TestSecondEmitterWidensStrongCoupling:
    """The paper's headline claim, witnessed by brute force: between the
    single-emitter boundary ``gamma_-/g = sqrt(n)`` and the two-emitter one,
    rung ``n`` of the two-emitter ladder is still split."""

    BASIS = build_basis(8)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_split_where_one_emitter_is_not(self, n, fraction):
        lo, hi = math.sqrt(n), sc_boundary(n)
        assert lo < hi
        y = lo + fraction * (hi - lo)
        p = make_params(gamma_a=4.0 * y)  # gamma_sigma = delta = 0, g = 1
        assert not jc_reference(n, p).strong_coupling
        assert sc_criterion(n, p).strong_coupling
        splitting = rabi_splitting(n, p)
        assert splitting > 0.0

        # the generator's population block of rung n carries the closed-form
        # values, and its positions spread by twice the splitting
        lines = population_block(p, self.BASIS, n).line_values()
        expected = np.array([d.value for d in population_eigenvalues(n, p)])
        assert assignment_distance(lines, expected) < 1e-8
        assert abs(np.max(lines.real) - 2.0 * splitting) < 1e-8
