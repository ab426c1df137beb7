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
* the branches of a manifold lie along the last axis, and index ``k`` is
  branch ``k + 1``;
* triplet splitting roots are sorted by descending real part, ties broken by
  descending imaginary part, and take indices 0..2 in that order;
* the singlet is the last index: 3 for manifolds with two or more
  excitations, 2 in the first manifold; the vacuum has the single index 0;
* block eigenvalues ``eps_m^(i) - conj(eps_k^(j))`` sit at index
  ``[..., i-1, j-1]``;
* manifold 1 always uses its dedicated two-plus-one level formulas; the cubic
  machinery applies from the second manifold up.

The closed forms from :func:`complex_rabi` to :func:`population_eigenvalues`
and the expansion :func:`perturbative_splitting` broadcast over
:class:`~tcladder.space.SystemParams` whose fields are arrays, so a whole
sweep is one call; a quantity that does not depend on the swept field keeps
the shape of the fields it does depend on, except that the eigenenergies
and block eigenvalues of a manifold always carry the sweep's full shape.
The strong-coupling criterion and the single-emitter reference need one
parameter point and refuse a sweep, even of shape ``(1,)``; the boundary
and its contour take the rung or ``gamma_-/g`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import SystemParams

__all__ = [
    "ExceptionalPointError",
    "SplittingCrossCheckError",
    "SCDiagnostic",
    "JCReference",
    "complex_rabi",
    "discriminant",
    "splitting_roots",
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

#: relative (to g) radius below which parameters count as sitting where the
#: complex Rabi frequency vanishes.  ``R_n = 0`` is a removable singularity
#: of the trig root formula, which is 0/0 there, so a direct cubic solve
#: takes over; no two levels coalesce at it (the true coalescences sit on
#: the strong-coupling boundary, :func:`sc_boundary`).  Floating point
#: cancellation in R^2 leaves a noise floor of order sqrt(eps) * g (a few
#: 1e-8 g) where R_n vanishes exactly, so the radius must sit above that;
#: the trig form stays accurate to 1e-14 all the way down to it.
EXCEPTIONAL_POINT_TOL = 1e-6


class ExceptionalPointError(ValueError):
    """The complex Rabi frequency vanished; the requested quantity is 0/0."""


class SplittingCrossCheckError(ArithmeticError):
    """The splitting roots failed to solve their own cubic."""


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


def _c(params: SystemParams) -> complex | np.ndarray:
    """The loss-detuning combination ``2 gamma_- + i delta`` that alone
    controls the splitting structure within a manifold."""
    return 2.0 * params.gamma_minus + 1j * params.delta


def _require_coupling(params: SystemParams) -> None:
    if np.less_equal(params.g, 0).any():
        raise ValueError("this quantity is scaled by g and needs g > 0")


def complex_rabi(n: int, params: SystemParams) -> complex | np.ndarray:
    """Complex Rabi frequency ``sqrt((4n-2) g^2 - 4 (gamma_- + i delta/2)^2)``.

    Principal square root: real and positive deep in the strong-coupling
    region, purely imaginary when dissipation dominates.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = params.g
    return np.sqrt((4 * n - 2) * g * g - _c(params) ** 2)


def discriminant(n: int, params: SystemParams) -> complex | np.ndarray:
    """Cubic discriminant combination ``6 sqrt(3) (gamma_- + i delta/2)/g``
    divided by ``(R_n/g)^3``.

    Raises :class:`ExceptionalPointError` where the Rabi frequency vanishes
    instead of silently returning an overflowing value.
    """
    _require_coupling(params)
    g = params.g
    rabi = complex_rabi(n, params)
    flagged = np.abs(rabi) < EXCEPTIONAL_POINT_TOL * g
    if flagged.any():
        raise ExceptionalPointError(
            f"R_{n} = {np.asarray(rabi)[flagged][0]:.3e} vanishes at these parameters; "
            "the discriminant is undefined"
        )
    return _discriminant(_c(params), g, rabi)


def _discriminant(c, g, rabi):
    """``6 sqrt(3) (c/2)/g / (R_n/g)^3``, the formula that
    :func:`discriminant` and :func:`splitting_roots` share."""
    return 6.0 * math.sqrt(3.0) * (c / 2.0) / g / (rabi / g) ** 3


def splitting_roots(n: int, params: SystemParams) -> np.ndarray:
    """The three triplet splitting values of manifold ``n >= 2``, shape
    ``(..., 3)`` over the sweep points of ``params``.

    Roots of ``P^3 - ((4n-2) g^2 - c^2) P + 2 i g^2 c = 0`` with
    ``c = 2 gamma_- + i delta``, evaluated through the trigonometric form

        ``P_k = R_n cos((arccos(-i Q_n) + 2 k pi)/3) / cos(pi/6)``.

    Equivalently, ``-i P_k`` are the roots of
    ``x^3 + ((4n-2) g^2 - c^2) x - 2 c g^2``; the internal cross-check below
    enforces that identity on every point.  Near ``R_n = 0``, a removable
    singularity of the trigonometric form, a direct cubic solve is used
    instead, point by point; ``Q_n`` is evaluated only away from it.

    Sorted by descending real part (ties: descending imaginary part); they
    sum to zero.
    """
    if n < 2:
        raise ValueError("cubic splitting machinery applies for n >= 2")
    _require_coupling(params)
    c = _c(params)
    rabi = complex_rabi(n, params)
    shape = np.shape(rabi)
    g, c, rabi = (np.broadcast_to(x, shape).ravel() for x in (params.g, c, rabi))
    k_lin = (4 * n - 2) * g * g - c * c

    roots = np.empty(rabi.shape + (3,), dtype=complex)
    flagged = np.abs(rabi) < EXCEPTIONAL_POINT_TOL * g
    for i in np.flatnonzero(flagged):
        roots[i] = np.roots([1.0, 0.0, -k_lin[i], 2j * g[i] * g[i] * c[i]])
    ok = ~flagged
    if ok.any():
        # all-scalar params keep Python's complex division (numpy's rounds apart)
        q = discriminant(n, params) if ok.all() else _discriminant(c[ok], g[ok], rabi[ok])
        theta = np.arccos(-1j * np.ravel(q))[:, None]
        ks = np.arange(1, 4)
        trig = rabi[ok, None] * np.cos((theta + 2.0 * ks * np.pi) / 3.0) / np.cos(np.pi / 6.0)

        # internal consistency: -iP must solve the companion cubic
        g_ok, c_ok, k_ok = g[ok, None], c[ok, None], k_lin[ok, None]
        x = -1j * trig
        residual = np.abs(x**3 + k_ok * x - 2.0 * c_ok * g_ok * g_ok).max(axis=-1)
        bound = 1e-10 * np.maximum(g_ok[:, 0] ** 3, np.abs(k_ok[:, 0]) ** 1.5)
        if (residual > bound).any():
            worst = np.argmax(residual / bound)
            raise SplittingCrossCheckError(
                f"splitting root cross-check failed: residual {residual[worst]:.3e}"
            )
        roots[ok] = trig
    order = np.lexsort((-roots.imag, -roots.real), axis=-1)
    return roots[np.arange(rabi.size)[:, None], order].reshape(shape + (3,))


def gamma_n(n: int, params: SystemParams) -> float:
    """Common width ``(n-1) gamma_a + gamma_sigma`` of manifold ``n``."""
    return (n - 1) * params.gamma_a + params.gamma_sigma


def singlet_branch(n: int) -> int | None:
    """Branch index of the singlet level in manifold ``n`` (None for vacuum)."""
    if n <= 0:
        return None
    return 3 if n == 1 else 4


def complex_eigenenergies(n: int, params: SystemParams) -> np.ndarray:
    """Eigenenergies of manifold ``n``, shape ``(..., branches)`` over the
    sweep points of ``params``; entry ``k`` is branch ``k + 1``.

    The vacuum is one level at exactly zero.  In the first manifold the
    coupled photon/symmetric-matter pair sits at
    ``omega0 - delta/2 - i gamma_+ +- R`` with
    ``R = sqrt(2 g^2 - (gamma_- + i delta/2)^2)``; the singlet (entry 2) at
    ``omega0 - delta - i gamma_sigma/2`` is exact at any detuning because the
    antisymmetric state never couples to the mode.  From the second manifold
    up the triplet is ``base + P_k`` over :func:`splitting_roots` and the
    singlet (entry 3) is ``base = n omega0 - delta - i Gamma_n / 2``.
    """
    if n < 0:
        raise ValueError("manifold index must be nonnegative")
    if n == 0:
        return np.zeros(params.shape + (1,), dtype=complex)
    if n == 1:
        g = params.g
        zeta = params.gamma_minus + 0.5j * params.delta
        rabi1 = np.sqrt(2.0 * g * g - zeta * zeta)
        center = params.omega0 - params.delta / 2.0 - 1j * params.gamma_plus
        singlet = params.omega0 - params.delta - 0.5j * params.gamma_sigma
        levels = (center + rabi1, center - rabi1, singlet)
    else:
        singlet = n * params.omega0 - params.delta - 0.5j * gamma_n(n, params)
        roots = splitting_roots(n, params)
        levels = (*(singlet + roots[..., k] for k in range(3)), singlet)
    return np.stack(np.broadcast_arrays(*levels), axis=-1)


def rabi_splitting(n: int, params: SystemParams) -> float | np.ndarray:
    """Half the Rabi splitting of manifold ``n >= 1`` at zero detuning.

    The largest distance of a level position from the bare rung energy
    ``n omega0``: ``|Re R|`` with ``R = sqrt(2 g^2 - gamma_-^2)`` for the
    first manifold, the largest ``|Re P_k|`` of :func:`splitting_roots` from
    the second up.  It is exactly zero wherever the rung is weakly coupled.
    """
    if np.not_equal(params.delta, 0.0).any():
        raise ValueError("the Rabi splitting is defined at delta = 0")
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        levels = complex_eigenenergies(1, params)
        return np.max(np.abs(levels.real - np.expand_dims(params.omega0, -1)), axis=-1)
    return np.max(np.abs(splitting_roots(n, params).real), axis=-1)


def _outer_difference(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """``upper^(i) - conj(lower^(j))``, shape ``(..., len upper, len lower)``."""
    return upper[..., :, None] - np.conj(lower[..., None, :])


def transition_eigenvalues(m: int, params: SystemParams) -> np.ndarray:
    """The ``m``-th coherence block eigenvalues ``eps_m^(i) - conj(eps_{m-1}^(j))``,
    shape ``(..., branches of m, branches of m - 1)``: entry ``[..., i-1, j-1]``."""
    if m < 1:
        raise ValueError("need m >= 1")
    lower = complex_eigenenergies(m - 1, params)
    return _outer_difference(complex_eigenenergies(m, params), lower)


def population_eigenvalues(m: int, params: SystemParams) -> np.ndarray:
    """The ``m``-th population block eigenvalues ``eps_m^(i) - conj(eps_m^(j))``,
    shape ``(..., branches of m, branches of m)``: entry ``[..., i-1, j-1]``."""
    if m < 0:
        raise ValueError("need m >= 0")
    levels = complex_eigenenergies(m, params)
    return _outer_difference(levels, levels)


def sc_criterion(n: int, params: SystemParams) -> SCDiagnostic:
    """Zero-detuning strong-coupling decision for manifold ``n``.

    Splitting survives when the complex Rabi frequency is real and nonzero,
    and also in part of the regime where it is purely imaginary: there the
    splitting persists as long as ``|Im Q_n| > 1``.  Exact boundary equality
    counts as weak coupling and is flagged.
    """
    if params.shape != ():
        raise ValueError(
            f"the strong-coupling criterion needs one parameter point, got shape {params.shape}"
        )
    if params.delta != 0.0:
        raise ValueError("the strong-coupling criterion is defined at delta = 0")
    if n < 1:
        raise ValueError("need n >= 1")
    _require_coupling(params)
    g = params.g
    y = params.gamma_minus / g
    r_squared = (4 * n - 2) - 4 * y * y  # (R_n / g)^2, real at zero detuning
    if abs(r_squared) <= EXCEPTIONAL_POINT_TOL**2:
        # R_n = 0, a removable singularity of the trig form and no level
        # coalescence: the splitting persists (|Im Q| -> infinity)
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
    """Second-order small-dissipation expansion of the splitting values,
    shape ``(..., 3)`` over the sweep points of ``params``.

    Valid for ``n >= 2`` at zero detuning with ``|gamma_-| << g``; the error
    against :func:`splitting_roots` is third order in ``gamma_-/g``.  Ordered
    to match the sorted exact roots: plus branch, middle branch, minus branch.
    """
    if n < 2:
        raise ValueError("expansion applies for n >= 2")
    if np.not_equal(params.delta, 0.0).any():
        raise ValueError("expansion is stated at delta = 0")
    _require_coupling(params)
    g = params.g
    gm = params.gamma_minus
    u = gm / g
    lead = g * math.sqrt(4.0 * n - 2.0)
    second = g * (16.0 * n * (n - 1) + 1.0) / (2.0**1.5 * (2.0 * n - 1.0) ** 2.5) * u * u
    im_outer = -1j * gm / (2.0 * n - 1.0)
    im_middle = 2j * gm / (2.0 * n - 1.0)
    branches = np.broadcast_arrays(lead - second + im_outer, im_middle, -lead + second + im_outer)
    return np.stack(branches, axis=-1)


def jc_reference(n: int, params: SystemParams) -> JCReference:
    """Single-emitter modified Rabi frequency and splitting condition.

    Kept only for side-by-side comparisons: the two-emitter system keeps its
    splitting over a strictly larger loss region than ``sqrt(n) g > |gamma_-|``.
    """
    if params.shape != ():
        raise ValueError(
            f"the single-emitter reference needs one parameter point, got shape {params.shape}"
        )
    if n < 1:
        raise ValueError("need n >= 1")
    g, gm = params.g, params.gamma_minus
    rabi = complex(np.sqrt(complex(n * g * g - gm * gm)))
    return JCReference(n=n, rabi=rabi, strong_coupling=bool(math.sqrt(n) * g > abs(gm)))
