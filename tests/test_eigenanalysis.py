import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcladder.eigenanalysis import (
    EXCEPTIONAL_POINT_TOL,
    ExceptionalPointError,
    complex_eigenenergies,
    complex_rabi,
    discriminant,
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
from tcladder.liouvillian import line_values, population_block, regression_block
from tcladder.space import SystemParams, build_basis
from tcladder.verify import assignment_distance

from conftest import params_strategy, rate_strategy


def make_params(gamma_a=0.0, gamma_sigma=0.0, delta=0.0, g=1.0, omega0=10.0):
    return SystemParams(
        omega0=omega0, delta=delta, g=g, gamma_a=gamma_a, gamma_sigma=gamma_sigma
    )


def stack(points):
    """The points as one array-valued params: a sweep with one lane each."""
    return SystemParams(
        **{f.name: np.array([getattr(p, f.name) for p in points]) for f in fields(SystemParams)}
    )


def gamma_minus_at_ep(n):
    """``gamma_-/g`` where ``R_n`` vanishes at zero detuning."""
    return math.sqrt(4 * n - 2) / 2


@st.composite
def lane_strategy(draw):
    """One sweep point: random, where ``R_n = 0`` (flagged), within 1e-6 g of
    it, weakly coupled in rungs 1..4 at zero detuning, or detuned."""
    kind = draw(st.sampled_from(["random", "flagged", "near", "weak", "detuned"]))
    gamma_sigma = draw(rate_strategy(0.0, 2.0))
    gamma_minus = gamma_minus_at_ep(draw(st.integers(2, 4)))
    delta = 0.0
    if kind == "random":
        return draw(params_strategy())
    if kind == "near":
        gamma_minus += draw(st.floats(-1e-6, 1e-6))
        delta = draw(st.sampled_from([0.0, 1e-6]))
    elif kind == "weak":
        gamma_minus = sc_boundary(4) * draw(st.floats(1.01, 3.0))
    elif kind == "detuned":
        gamma_minus = draw(st.floats(-0.5, 1.0))
        delta = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    gamma_a = max(gamma_sigma + 4.0 * gamma_minus, 0.0)
    return make_params(gamma_a=gamma_a, gamma_sigma=gamma_sigma, delta=delta)


class TestFirstManifold:
    def test_direct_substitution(self):
        values = complex_eigenenergies(1, make_params(gamma_a=0.4, gamma_sigma=0.4))
        assert values[0] == pytest.approx(10 + math.sqrt(2) - 0.2j)
        assert values[1] == pytest.approx(10 - math.sqrt(2) - 0.2j)
        assert values[2] == pytest.approx(10 - 0.2j)

    def test_lossless_limit_reduces_to_dressed(self):
        levels = complex_eigenenergies(1, make_params())
        values = sorted(levels.real)
        assert np.allclose(values, [10 - math.sqrt(2), 10, 10 + math.sqrt(2)])
        assert np.all(levels.imag == 0)

    def test_equal_widths_in_strong_coupling(self):
        pair = complex_eigenenergies(1, make_params(gamma_a=0.6, gamma_sigma=0.1))[:2]
        assert pair[0].imag == pytest.approx(pair[1].imag)
        assert pair[0].imag == pytest.approx(-(0.6 + 0.1) / 4)

    def test_width_and_position(self):
        level = complex_eigenenergies(1, make_params(gamma_a=0.4, gamma_sigma=0.4))[0]
        assert level.real == pytest.approx(10 + math.sqrt(2))
        assert -2.0 * level.imag == pytest.approx(0.4)


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
        levels = complex_eigenenergies(2, make_params(gamma_a=0.3, gamma_sigma=0.1))
        assert gamma_n(2, make_params(gamma_a=0.3, gamma_sigma=0.1)) == pytest.approx(0.4)
        assert levels[3].imag == pytest.approx(-0.2)

    def test_lossless_energies_match_dressed(self):
        levels = complex_eigenenergies(3, make_params())
        values = sorted(levels.real)
        lead = math.sqrt(10)
        assert np.allclose(values, [30 - lead, 30, 30, 30 + lead], atol=1e-12)
        assert np.all(np.abs(levels.imag) < 1e-15)

    def test_degenerate_position_pair_differs_in_width(self):
        levels = complex_eigenenergies(2, make_params(gamma_a=0.8))
        central = levels[np.abs(levels.real - 20) < 1e-10]
        assert len(central) == 2
        widths = np.sort(-2.0 * central.imag)
        assert widths[1] - widths[0] > 1e-3

    def test_vacuum_is_zero(self):
        (vac,) = complex_eigenenergies(0, make_params(gamma_a=2.0, gamma_sigma=1.0))
        assert vac == 0

    @given(p=params_strategy(deltas=(0.0,)), n=st.sampled_from([2, 3, 4]))
    def test_widths_nonpositive_and_sum_rule(self, p, n):
        levels = complex_eigenenergies(n, p)
        assert np.all(levels.imag <= 1e-14)
        triplet = levels[:3].imag
        assert sum(triplet) == pytest.approx(-1.5 * gamma_n(n, p), abs=1e-10)


class TestTransitionAndPopulationValues:
    def test_first_block_is_first_manifold(self, params):
        lam = transition_eigenvalues(1, params)
        eps = complex_eigenenergies(1, params)
        assert lam.shape == (3, 1)  # the only lower branch is the vacuum
        for i in range(3):
            assert lam[i, 0] == eps[i]

    def test_counts(self, params):
        assert transition_eigenvalues(2, params).shape == (4, 3)
        assert transition_eigenvalues(3, params).shape == (4, 4)
        assert population_eigenvalues(2, params).shape == (4, 4)

    def test_third_block_has_at_most_nine_positions(self):
        p = make_params(gamma_a=0.1, gamma_sigma=0.05)
        positions = sorted(transition_eigenvalues(3, p).real.ravel())
        distinct = []
        for pos in positions:
            if not distinct or pos - distinct[-1] > 1e-9:
                distinct.append(pos)
        assert len(distinct) <= 9

    def test_population_values(self, params):
        assert population_eigenvalues(0, params)[0, 0] == 0
        for d in np.diagonal(population_eigenvalues(1, params)):
            assert d.real == pytest.approx(0.0, abs=1e-15)


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
            lo = complex_eigenenergies(n, make_params(gamma_a=4 * (y - 1e-8)))
            hi = complex_eigenenergies(n, make_params(gamma_a=4 * (y + 1e-8)))
            dist = assignment_distance(lo, hi)
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

    def test_sweep_matches_point_calls(self):
        lanes = [
            make_params(gamma_a=ga, gamma_sigma=gs, g=g)
            for ga, gs, g in ((0.0, 0.0, 1.0), (0.04, 0.01, 1.0), (0.4, 0.1, 2.0), (0.1, 0.3, 0.5))
        ]
        sweep = stack(lanes)
        for n in (2, 3):
            swept = perturbative_splitting(n, sweep)
            assert swept.shape == (len(lanes), 3)
            for k, p in enumerate(lanes):
                assert np.max(np.abs(swept[k] - perturbative_splitting(n, p))) <= 1e-15 * p.g
        grid = make_params(gamma_a=np.array([[0.0], [0.1]]), g=np.array([1.0, 2.0, 3.0]))
        assert perturbative_splitting(2, grid).shape == (2, 3, 3)


class TestWeakCouplingCollapse:
    def test_positions_collapse_far_above_boundary(self):
        p = make_params(gamma_a=40.0)  # gamma_-/g = 10
        for n in range(1, 5):
            for level in complex_eigenenergies(n, p):
                assert abs(level.real - n * 10.0) < 1e-6


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


@pytest.mark.parametrize("shape", [(1,), (2,)])
@pytest.mark.parametrize("func", [sc_criterion, jc_reference])
def test_a_sweep_is_refused_by_the_point_functions(func, shape):
    sweep = make_params(gamma_a=np.full(shape, 4 * 1.7))
    with pytest.raises(ValueError, match=re.escape(f"needs one parameter point, got shape {shape}")):
        func(2, sweep)


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
                lines = line_values(regression_block(p, basis, m))
                expected = transition_eigenvalues(m, p)
                worst = max(worst, assignment_distance(lines, expected))
            for m in (0, 1, 2):
                lines = line_values(population_block(p, basis, m))
                expected = population_eigenvalues(m, p)
                worst = max(worst, assignment_distance(lines, expected))
        assert worst < 1e-8

    def test_debug_perturbation_breaks_equivalence(self):
        # closed forms at a 1% larger coupling must not match the blocks
        basis = build_basis(2)
        p = make_params(gamma_a=0.8, gamma_sigma=0.3)
        lines = line_values(regression_block(p, basis, 2))
        wrong = replace(p, g=1.01 * p.g)
        expected = transition_eigenvalues(2, wrong)
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
        lines = line_values(population_block(p, self.BASIS, n))
        expected = population_eigenvalues(n, p)
        assert assignment_distance(lines, expected) < 1e-8
        assert abs(np.max(lines.real) - 2.0 * splitting) < 1e-8


class TestArrayLanes:
    """One array-valued call per rung gives every sweep point what a call on
    that point alone gives; the lanes do not mix."""

    @given(lanes=st.lists(lane_strategy(), min_size=1, max_size=12))
    def test_array_call_matches_point_calls(self, lanes):
        sweep = stack(lanes)
        resonant = [p for p in lanes if p.delta == 0.0]
        for n in range(1, 5):
            swept = complex_eigenenergies(n, sweep)
            for k, p in enumerate(lanes):
                alone = complex_eigenenergies(n, p)
                assert swept[k].shape == alone.shape
                for line, one in zip(swept[k], alone, strict=True):
                    assert abs(line - one) <= 1e-13 * max(1.0, abs(one))
            if not resonant:
                continue
            splittings = rabi_splitting(n, stack(resonant))
            for p, split in zip(resonant, splittings):
                one = rabi_splitting(n, p)
                assert abs(split - one) <= 1e-13 * max(1.0, one)
                if p.gamma_minus > 1.01 * sc_boundary(n):
                    assert split == 0.0 and one == 0.0

    def test_shape_follows_the_swept_fields(self):
        # the second gamma_a sits where R_2 = 0
        gamma_a = np.array([0.0, 4.0 * gamma_minus_at_ep(2), 12.0]).reshape(3, 1)
        sweep = make_params(gamma_a=gamma_a, omega0=np.array([9.0, 10.0]))
        for n in (2, 3):
            assert splitting_roots(n, sweep).shape == (3, 1, 3)
        branches = {0: 1, 1: 3, 2: 4, 3: 4, 4: 4}
        for n, count in branches.items():
            assert complex_eigenenergies(n, sweep).shape == (3, 2, count)
            if n >= 1:
                lower = branches[n - 1]
                assert transition_eigenvalues(n, sweep).shape == (3, 2, count, lower)
            assert population_eigenvalues(n, sweep).shape == (3, 2, count, count)


class TestExceptionalPointsAgainstGenerator:
    """At ``R_n = 0`` and within 1e-6 g of it, with and without detuning, the
    closed forms match the sliced generator blocks, point by point and as one
    array call."""

    BASIS = build_basis(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_match_closed_forms(self, n):
        points = [
            make_params(
                gamma_a=0.3 + 4.0 * (gamma_minus_at_ep(n) + offset),
                gamma_sigma=0.3,
                delta=delta,
            )
            for delta in (0.0, 1e-6)
            for offset in (-1e-6, 0.0, 1e-6)
        ]
        assert abs(complex_rabi(n, points[1])) < EXCEPTIONAL_POINT_TOL  # flagged
        sweep = stack(points)
        for block_of, lines_of in (
            (regression_block, transition_eigenvalues),
            (population_block, population_eigenvalues),
        ):
            swept = lines_of(n, sweep)
            for k, p in enumerate(points):
                numeric = line_values(block_of(p, self.BASIS, n))
                one = lines_of(n, p)
                batched = swept[k]
                assert assignment_distance(numeric, one) < 1e-8
                assert assignment_distance(numeric, batched) < 1e-8
