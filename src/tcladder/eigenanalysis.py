"""Closed-form complex eigenenergies, Rabi splittings and the strong-coupling
criterion.

Every function here has a brute-force counterpart in
:mod:`tcladder.liouvillian`: manifold eigenenergies reproduce the coherence
and population block spectra through ``lambda = eps_m - conj(eps_{m-1})`` and
``delta = eps_m - conj(eps_m)`` respectively.  The test suite enforces that
equivalence on random parameter grids, so treat the formulas below as
validated against the numerics, not merely transcribed.

Branch conventions, fixed once:

* complex square roots and arccos use the principal branch;
* triplet splitting roots are sorted by descending real part, ties broken by
  descending imaginary part, and assigned branches 1..3 in that order;
* the singlet level is branch 4 for manifolds with two or more excitations
  and branch 3 in the first manifold;
* manifold 1 always uses its dedicated two-plus-one level formulas; the cubic
  machinery applies from the second manifold up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import SystemParams

__all__ = [
    "ExceptionalPointError",
    "SplittingCrossCheckError",
    "ComplexEigenenergy",
    "BlockEigenvalue",
    "SCDiagnostic",
    "JCReference",
    "complex_rabi",
    "discriminant",
    "splitting_roots",
    "eps_manifold1",
    "eps_manifold",
    "complex_eigenenergies",
    "rabi_splitting",
    "gamma_n",
    "singlet_branch",
    "transition_eigenvalues",
    "population_eigenvalues",
    "sc_criterion",
    "sc_boundary",
    "sc_contour",
    "perturbative_splitting",
    "jc_reference",
]

#: relative (to g) radius below which parameters count as sitting on the
#: exceptional point where the complex Rabi frequency vanishes.  The trig
#: root formula is 0/0 there and a direct cubic solve takes over.  Floating
#: point cancellation in R^2 leaves a noise floor of order sqrt(eps) * g
#: (a few 1e-8 g) at a true exceptional point, so the radius must sit above
#: that; the trig form stays accurate to 1e-14 all the way down to it.
EXCEPTIONAL_POINT_TOL = 1e-6


class ExceptionalPointError(ValueError):
    """The complex Rabi frequency vanished; the requested quantity is 0/0."""


class SplittingCrossCheckError(ArithmeticError):
    """The splitting roots failed to solve their own cubic."""


@dataclass(frozen=True)
class ComplexEigenenergy:
    """Complex eigenenergy of one manifold branch.

    Real part is the resonance position; the imaginary part is minus half the
    width, nonpositive for nonnegative decay rates.
    """

    n: int
    branch: int
    value: complex

    @property
    def position(self) -> float:
        return self.value.real

    @property
    def width(self) -> float:
        return -2.0 * self.value.imag


@dataclass(frozen=True)
class BlockEigenvalue:
    """Eigenvalue ``eps_m^(i) - conj(eps_k^(j))`` of a generator block: the
    coherence block has ``k = m - 1``, the population block ``k = m``."""

    m: int
    i: int
    j: int
    value: complex


@dataclass(frozen=True)
class SCDiagnostic:
    """Strong-coupling decision with the quantities that produced it."""

    strong_coupling: bool
    r_real: bool
    im_q: float
    at_boundary: bool = False


@dataclass(frozen=True)
class JCReference:
    """Single-emitter reference quantities for comparison analyses."""

    n: int
    rabi: complex
    strong_coupling: bool


def _c(params: SystemParams) -> complex:
    """The loss-detuning combination ``2 gamma_- + i delta`` that alone
    controls the splitting structure within a manifold."""
    return 2.0 * params.gamma_minus + 1j * params.delta


def _require_coupling(params: SystemParams) -> None:
    if params.g <= 0:
        raise ValueError("this quantity is scaled by g and needs g > 0")


def complex_rabi(n: int, params: SystemParams) -> complex:
    """Complex Rabi frequency ``sqrt((4n-2) g^2 - 4 (gamma_- + i delta/2)^2)``.

    Principal square root: real and positive deep in the strong-coupling
    region, purely imaginary when dissipation dominates.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = params.g
    return complex(np.sqrt(complex((4 * n - 2) * g * g - _c(params) ** 2)))


def discriminant(n: int, params: SystemParams) -> complex:
    """Cubic discriminant combination ``6 sqrt(3) (gamma_- + i delta/2)/g``
    divided by ``(R_n/g)^3``.

    Raises :class:`ExceptionalPointError` where the Rabi frequency vanishes
    instead of silently returning an overflowing value.
    """
    _require_coupling(params)
    g = params.g
    rabi = complex_rabi(n, params)
    if abs(rabi) < EXCEPTIONAL_POINT_TOL * g:
        raise ExceptionalPointError(
            f"R_{n} = {rabi:.3e} vanishes at these parameters; "
            "the discriminant is undefined"
        )
    return complex(6.0 * math.sqrt(3.0) * (_c(params) / 2.0) / g / (rabi / g) ** 3)


def _sort_roots(roots: np.ndarray) -> np.ndarray:
    order = np.lexsort((-roots.imag, -roots.real))
    return roots[order]


def splitting_roots(n: int, params: SystemParams) -> np.ndarray:
    """The three triplet splitting values of manifold ``n >= 2``.

    Roots of ``P^3 - ((4n-2) g^2 - c^2) P + 2 i g^2 c = 0`` with
    ``c = 2 gamma_- + i delta``, evaluated through the trigonometric form

        ``P_k = R_n cos((arccos(-i Q_n) + 2 k pi)/3) / cos(pi/6)``.

    Equivalently, ``-i P_k`` are the roots of
    ``x^3 + ((4n-2) g^2 - c^2) x - 2 c g^2``; the internal cross-check below
    enforces that identity.  Near the exceptional point the trigonometric
    form degenerates and a direct cubic solve is used instead.

    Returned sorted by descending real part (ties: descending imaginary
    part); they sum to zero.
    """
    if n < 2:
        raise ValueError("cubic splitting machinery applies for n >= 2")
    _require_coupling(params)
    g = params.g
    c = _c(params)
    k_lin = (4 * n - 2) * g * g - c * c

    rabi = complex_rabi(n, params)
    if abs(rabi) < EXCEPTIONAL_POINT_TOL * g:
        roots = np.roots([1.0, 0.0, -k_lin, 2j * g * g * c])
        return _sort_roots(roots)

    q = discriminant(n, params)
    ks = np.arange(1, 4)
    roots = rabi * np.cos((np.arccos(-1j * q) + 2.0 * ks * np.pi) / 3.0) / np.cos(np.pi / 6.0)

    # internal consistency: -iP must solve the companion cubic
    x = -1j * roots
    residual = np.abs(x**3 + k_lin * x - 2.0 * c * g * g)
    scale = max(g**3, abs(k_lin) ** 1.5)
    if np.any(residual > 1e-10 * scale):
        raise SplittingCrossCheckError(
            f"splitting root cross-check failed: residual {residual.max():.3e}"
        )
    return _sort_roots(roots)


def gamma_n(n: int, params: SystemParams) -> float:
    """Common width ``(n-1) gamma_a + gamma_sigma`` of manifold ``n``."""
    return (n - 1) * params.gamma_a + params.gamma_sigma


def singlet_branch(n: int) -> int | None:
    """Branch index of the singlet level in manifold ``n`` (None for vacuum)."""
    if n <= 0:
        return None
    return 3 if n == 1 else 4


def eps_manifold1(params: SystemParams) -> list[ComplexEigenenergy]:
    """The three complex eigenenergies of the first excitation manifold.

    The coupled photon/symmetric-matter pair sits at
    ``omega0 - delta/2 - i gamma_+ +- R`` with
    ``R = sqrt(2 g^2 - (gamma_- + i delta/2)^2)``; the singlet line (branch 3)
    at ``omega0 - delta - i gamma_sigma/2`` is exact at any detuning because
    the antisymmetric state never couples to the mode.
    """
    g = params.g
    zeta = params.gamma_minus + 0.5j * params.delta
    rabi1 = complex(np.sqrt(complex(2.0 * g * g - zeta * zeta)))
    center = params.omega0 - params.delta / 2.0 - 1j * params.gamma_plus
    return [
        ComplexEigenenergy(1, 1, center + rabi1),
        ComplexEigenenergy(1, 2, center - rabi1),
        ComplexEigenenergy(
            1, 3, params.omega0 - params.delta - 0.5j * params.gamma_sigma
        ),
    ]


def eps_manifold(n: int, params: SystemParams) -> list[ComplexEigenenergy]:
    """The four complex eigenenergies of manifold ``n >= 2``.

    Triplet branches ``base + P_k`` and the singlet branch 4 at ``base``,
    where ``base = n omega0 - delta - i Gamma_n / 2``.
    """
    if n < 2:
        raise ValueError("use eps_manifold1 for the first manifold")
    base = n * params.omega0 - params.delta - 0.5j * gamma_n(n, params)
    roots = splitting_roots(n, params)
    levels = [
        ComplexEigenenergy(n, k + 1, complex(base + roots[k])) for k in range(3)
    ]
    levels.append(ComplexEigenenergy(n, 4, complex(base)))
    return levels


def complex_eigenenergies(n: int, params: SystemParams) -> list[ComplexEigenenergy]:
    """Eigenenergies of manifold ``n`` (vacuum is exactly zero)."""
    if n < 0:
        raise ValueError("manifold index must be nonnegative")
    if n == 0:
        return [ComplexEigenenergy(0, 1, 0j)]
    if n == 1:
        return eps_manifold1(params)
    return eps_manifold(n, params)


def rabi_splitting(n: int, params: SystemParams) -> float:
    """Half the Rabi splitting of manifold ``n >= 1`` at zero detuning.

    The largest distance of a level position from the bare rung energy
    ``n omega0``: ``|Re R|`` with ``R = sqrt(2 g^2 - gamma_-^2)`` for the
    first manifold, the largest ``|Re P_k|`` of :func:`splitting_roots` from
    the second up.  It is exactly zero wherever the rung is weakly coupled.
    """
    if params.delta != 0.0:
        raise ValueError("the Rabi splitting is defined at delta = 0")
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return max(abs(level.value.real - params.omega0) for level in eps_manifold1(params))
    return float(np.max(np.abs(splitting_roots(n, params).real)))


def transition_eigenvalues(m: int, params: SystemParams) -> list[BlockEigenvalue]:
    """All ``eps_m^(i) - conj(eps_{m-1}^(j))`` of the ``m``-th coherence block."""
    if m < 1:
        raise ValueError("need m >= 1")
    upper = complex_eigenenergies(m, params)
    lower = complex_eigenenergies(m - 1, params)
    return [
        BlockEigenvalue(m, up.branch, lo.branch, up.value - np.conj(lo.value))
        for up in upper
        for lo in lower
    ]


def population_eigenvalues(m: int, params: SystemParams) -> list[BlockEigenvalue]:
    """All ``eps_m^(i) - conj(eps_m^(j))`` of the ``m``-th population block."""
    if m < 0:
        raise ValueError("need m >= 0")
    levels = complex_eigenenergies(m, params)
    return [
        BlockEigenvalue(m, a.branch, b.branch, a.value - np.conj(b.value))
        for a in levels
        for b in levels
    ]


def sc_criterion(n: int, params: SystemParams) -> SCDiagnostic:
    """Zero-detuning strong-coupling decision for manifold ``n``.

    Splitting survives when the complex Rabi frequency is real and nonzero,
    and also in part of the regime where it is purely imaginary: there the
    splitting persists as long as ``|Im Q_n| > 1``.  Exact boundary equality
    counts as weak coupling and is flagged.
    """
    if params.delta != 0.0:
        raise ValueError("the strong-coupling criterion is defined at delta = 0")
    if n < 1:
        raise ValueError("need n >= 1")
    _require_coupling(params)
    g = params.g
    y = params.gamma_minus / g
    r_squared = (4 * n - 2) - 4 * y * y  # (R_n / g)^2, real at zero detuning
    if abs(r_squared) <= EXCEPTIONAL_POINT_TOL**2:
        # exceptional point: cube-root splitting persists (|Im Q| -> infinity)
        return SCDiagnostic(strong_coupling=True, r_real=False, im_q=math.inf)
    if r_squared > 0:
        return SCDiagnostic(strong_coupling=True, r_real=True, im_q=0.0)
    im_q = 6.0 * math.sqrt(3.0) * abs(y) / (-r_squared) ** 1.5
    at_boundary = abs(im_q - 1.0) < 1e-12
    return SCDiagnostic(
        strong_coupling=bool(im_q > 1.0 and not at_boundary),
        r_real=False,
        im_q=im_q,
        at_boundary=at_boundary,
    )


def sc_boundary(n: int) -> float:
    """The ``gamma_-/g`` value where the splitting of manifold ``n`` closes.

    Root ``y`` above ``sqrt(4n-2)/2`` of ``6 sqrt(3) y = (4 y^2 - (4n-2))^(3/2)``.
    With ``s = y^(2/3)`` it is the real root of ``s^3 - p s - (n - 1/2) = 0``,
    ``p = 108^(1/3)/4``.  That cubic has one positive root for every
    ``n >= 1``, taken in its cosh form; at ``n = 1`` the other two merge and
    ``y = sqrt(2)``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = 108.0 ** (1.0 / 3.0) / 4.0
    # the argument is exactly 1 at n = 1; the clamp only absorbs rounding there
    arg = max(1.0, 1.5 * (n - 0.5) / p * math.sqrt(3.0 / p))
    s = 2.0 * math.sqrt(p / 3.0) * math.cosh(math.acosh(arg) / 3.0)
    return s**1.5


def sc_contour(y: float) -> float:
    """The rung ``n`` whose splitting closes at ``gamma_-/g = y``: the boundary
    equation of :func:`sc_boundary` solved for ``n``."""
    return (4.0 * y * y + 2.0 - (6.0 * math.sqrt(3.0) * y) ** (2.0 / 3.0)) / 4.0


def perturbative_splitting(n: int, params: SystemParams) -> np.ndarray:
    """Second-order small-dissipation expansion of the splitting values.

    Valid for ``n >= 2`` at zero detuning with ``|gamma_-| << g``; the error
    against :func:`splitting_roots` is third order in ``gamma_-/g``.  Ordered
    to match the sorted exact roots: plus branch, middle branch, minus branch.
    """
    if n < 2:
        raise ValueError("expansion applies for n >= 2")
    if params.delta != 0.0:
        raise ValueError("expansion is stated at delta = 0")
    _require_coupling(params)
    g = params.g
    gm = params.gamma_minus
    u = gm / g
    lead = g * math.sqrt(4.0 * n - 2.0)
    second = g * (16.0 * n * (n - 1) + 1.0) / (2.0**1.5 * (2.0 * n - 1.0) ** 2.5) * u * u
    im_outer = -1j * gm / (2.0 * n - 1.0)
    im_middle = 2j * gm / (2.0 * n - 1.0)
    return np.array(
        [lead - second + im_outer, im_middle, -lead + second + im_outer]
    )


def jc_reference(n: int, params: SystemParams) -> JCReference:
    """Single-emitter modified Rabi frequency and splitting condition.

    Kept only for side-by-side comparisons: the two-emitter system keeps its
    splitting over a strictly larger loss region than ``sqrt(n) g > |gamma_-|``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g, gm = params.g, params.gamma_minus
    rabi = complex(np.sqrt(complex(n * g * g - gm * gm)))
    return JCReference(n=n, rabi=rabi, strong_coupling=bool(math.sqrt(n) * g > abs(gm)))
