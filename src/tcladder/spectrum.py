"""Two-time correlation functions and the time-windowed emission spectrum.

Correlations are propagated in the delayed time with the closed family of
raising coherence operators (the regression machinery of
:mod:`tcladder.liouvillian`), including the cascade feed between adjacent
sectors, so the result is exact on the truncated space.  The brute-force
identity ``G(t, tau) = tr(O^+  Phi_tau[O rho(t)])`` with the full generator
propagator is kept as an independent cross-check in the test suite.

Spectrum evaluation: the detector model is a filter of bandwidth ``kappa``
integrating light up to the collection time ``T``,

    ``S(w, T) = 2 kappa Re int_0^T dtau e^{(kappa - i(w - w0)) tau}
                int_0^{T-tau} dt e^{-2 kappa (T-t)} G~(t, tau)``

where ``G~(t, tau) = e^{-i w0 tau} G(t, tau)`` carries the correlation with
the optical carrier factored out (the carrier re-enters through the kernel's
``w - w0``, so peaks land at the physical line positions).  The growing
``e^{+kappa tau}`` factor is harmless: the inner integral's upper limit keeps
the integrand bounded.  A ``decaying`` kernel variant with ``e^{-kappa tau}``
is exposed as well; peak positions are insensitive to the choice, line shapes
are not.  Both integrals are trapezoids on one uniform grid: the inner one is
read out of a cumulative trapezoid and the kernel factors over blocks of
``ceil(sqrt(n_time + 1))`` delays, so a pass costs O(n_time) per ``w`` point.
The two kernel factors are running products of ``e^{rate h}`` and of
``e^{rate h b}``: two complex exponentials per ``w`` point.

The ``rho`` trajectory, on the symmetry sector that ``rho0`` occupies
(:func:`tcladder.liouvillian._live_trajectory`), and the read-out row on
that grid are propagated by doubling (:func:`tcladder.liouvillian._propagate`).
The raising family covers the rungs ``rho0`` reaches and reads its initial
values off those entries, so neither it nor the quadrature arrays grow with
``photon_cutoff``; the generators' assembly still does, since
:func:`tcladder.liouvillian._generator` builds the full Hamiltonian and
identity before it slices them.
Refinement halves the step: the generators, the raising family and its
read-out coefficients are built once per :func:`physical_spectrum` call, and
each pass keeps the previous pass's points as its even points and adds the
odd ones with one step (:func:`tcladder.liouvillian._halve_step`).  A pass itself is pure
quadrature on those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenanalysis import _outer_difference, complex_eigenenergies, singlet_branch
from .liouvillian import _halve_step, _live_trajectory, _propagate, raising_coherence_generator
from .space import SystemParams, TruncatedBasis

__all__ = [
    "SpectrumSeries",
    "PeakRow",
    "PeakTable",
    "OPERATOR_TAGS",
    "two_time_correlation",
    "physical_spectrum",
    "peak_table",
    "default_kappa",
    "default_collection_time",
]

OPERATOR_TAGS = ("a", "sigma1", "sigma2")


@dataclass(frozen=True)
class SpectrumSeries:
    """Detector-filtered emission spectrum over ``omega_grid``.

    ``refinements`` holds ``(n_time, delta)`` for each pass after the first,
    ``delta`` being the peak-relative change from the pass before; the last
    ``delta`` is ``convergence_delta`` (``inf`` when no refinement ran).
    """

    operator: str
    kappa: float
    collection_time: float
    omega_grid: np.ndarray
    values: np.ndarray
    kernel: str
    n_time: int
    convergence_delta: float
    converged: bool
    refinements: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PeakRow:
    """One analytic emission line: block ``m``, branch pair ``(i, j)``."""

    m: int
    i: int
    j: int
    position: float
    width: float
    multiplicity: int
    involves_singlet: bool


@dataclass(frozen=True)
class PeakTable:
    """Analytic line list; weights are deliberately left to the numerics."""

    rows: tuple[PeakRow, ...]
    position_tol: float

    def positions(self) -> np.ndarray:
        return np.array([row.position for row in self.rows])

    def distinct_positions(self) -> np.ndarray:
        """Sorted distinct positions after merging degeneracies."""
        out: list[float] = []
        for p in sorted(self.positions()):
            if not out or p - out[-1] > self.position_tol:
                out.append(p)
        return np.array(out)

    def for_manifold(self, m: int) -> "PeakTable":
        return PeakTable(
            tuple(r for r in self.rows if r.m == m), self.position_tol
        )


def _operator_matrix(tag: str, basis: TruncatedBasis) -> np.ndarray:
    ops = basis.operators
    try:
        return {"a": ops.a, "sigma1": ops.sigma1, "sigma2": ops.sigma2}[tag]
    except KeyError:
        raise ValueError(f"operator must be one of {OPERATOR_TAGS}, got {tag!r}")


def _raising_family(
    operator: str,
    top: int,
    entries: tuple[np.ndarray, np.ndarray],
    params: SystemParams,
    basis: TruncatedBasis,
    rotating: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raising-family generator on manifolds ``0..top``, the map ``lift``
    from the entries ``rho[i, j]``, ``(i, j) = entries``, to the family's
    initial values (``v = lift @ rho[i, j]``) and the coefficients that read
    ``O+`` back out of the family."""
    (rows, cols), gen = raising_coherence_generator(params, basis, top)
    if rotating:
        gen = gen - 1j * params.omega0 * np.eye(rows.size)
    op = _operator_matrix(operator, basis)
    i, j = entries

    # initial values <W_f O> = (O rho)[col_f, row_f] = sum_i O[col_f, i] rho[i, row_f]
    lift = np.where(j == rows[:, None], op[cols[:, None], i], 0)
    # O+ expanded over the raising family: coefficients conj(O[col, row])
    coeff = op[cols, rows].conj()
    return gen, lift, coeff


def two_time_correlation(
    operator: str,
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    t_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> np.ndarray:
    """Correlation ``G(t, tau) = <O+(t+tau) O(t)>``, optical carrier
    included, as a ``(len(t_grid), len(tau_grid))`` array.

    A line at position ``nu`` contributes ``e^{(+i nu - width/2) tau}``.  The
    read-out row ``coeff . expm(N tau)``, propagated through ``N.T``, is
    applied to the initial values of every t.
    """
    top, entries, _, traj = _live_trajectory(rho0, params, basis, t_grid)
    gen, lift, coeff = _raising_family(operator, top, entries, params, basis, rotating=False)
    v = lift @ traj.T
    return (_propagate(gen.T, coeff, tau_grid) @ v).T


def default_kappa(params: SystemParams) -> float:
    """Detector bandwidth used when none is configured."""
    return 0.1 * params.g


def default_collection_time(params: SystemParams) -> float:
    """Twenty lifetimes of the slowest nonzero decay channel (falls back to
    the coupling time scale for a lossless system).  A lossless, uncoupled
    system has no time scale, so its collection time must be given."""
    rates = [r for r in (params.gamma_a, params.gamma_sigma) if r > 0]
    if rates:
        return 20.0 / min(rates)
    if params.g > 0:
        return 20.0 / params.g
    raise ValueError(
        "collection_time must be given: a lossless, uncoupled system has no time scale"
    )


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """``base[:, None] ** arange(count)`` as running products along the
    second axis: one ``exp`` per row instead of one per entry."""
    out = np.empty((base.size, count), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = base[:, None]
    return np.cumprod(out, axis=1, out=out)


def _spectrum_pass(
    readout: np.ndarray,
    v: np.ndarray,
    h: float,
    kappa: float,
    rate: np.ndarray,
) -> np.ndarray:
    """One quadrature pass on a uniform shared t/tau grid ``t_i = i h``,
    ``i = 0 .. n_time``.

    ``readout[j] = coeff . S^j`` is the read-out row (``S = expm(N h)``),
    ``v[:, i]`` the family values at ``t_i`` and ``rate`` the kernel exponent
    ``+-kappa - i (w - w0)`` per ``w``.  With ``w_i`` the weighted family
    values, the inner trapezoid over ``t_0 .. t_{n_time - j}`` is
    ``readout[j]`` applied to the cumulative trapezoid of ``w``.  The kernel
    ``e^{rate t_j}`` factors over ``t_j = (q b + r) h``,
    ``b = ceil(sqrt(n_time + 1))``, into a ``w x b`` and a ``w x q`` array,
    the powers of ``e^{rate h}`` and of ``e^{rate h b}`` (:func:`_powers`).
    """
    n_time = v.shape[1] - 1
    weighted = v * np.exp(-2.0 * kappa * h * np.arange(n_time, -1, -1))

    # inner integral over t in [0, T - tau_j]: trap[:, L] is the trapezoid
    # over t_0 .. t_L, read out at L = n_time - j (empty at j = n_time)
    trap = h * (np.cumsum(weighted, axis=1) - 0.5 * (weighted[:, :1] + weighted))
    inner = np.einsum("jk,kj->j", readout, trap[:, ::-1])

    # outer integral over tau, trapezoid, its terms zero-padded to q b
    b = math.isqrt(n_time) + 1
    q = -(-(n_time + 1) // b)
    blocks = np.zeros(q * b, dtype=complex)
    blocks[: n_time + 1] = h * inner
    blocks[[0, n_time]] *= 0.5
    within = _powers(np.exp(rate * h), b)
    across = _powers(np.exp(rate * (h * b)), q)
    return 2.0 * kappa * np.real(np.sum(across * (within @ blocks.reshape(q, b).T), axis=1))


def physical_spectrum(
    operator: str,
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    omega_grid: np.ndarray,
    kappa: float | None = None,
    collection_time: float | None = None,
    kernel: str = "verbatim",
    n_time: int = 512,
    max_refinements: int = 3,
    target_delta: float = 0.005,
) -> SpectrumSeries:
    """Filtered spectrum by direct double quadrature.

    The time grid is refined (halving the spacing) until the peak value moves
    by less than ``target_delta`` relative; non-convergence is reported in
    ``converged``, not hidden, and every refinement's ``(n_time, delta)`` is
    kept in ``refinements``.  ``kernel="verbatim"`` keeps the growing
    ``e^{+kappa tau}`` factor, ``"decaying"`` flips its sign.

    The live generator, the raising family and its read-out coefficients are
    built once per call.  Each refinement keeps the previous pass's ``rho``
    trajectory and read-out row as its even points and adds the odd ones
    with one step each (:func:`tcladder.liouvillian._halve_step`).
    """
    if kernel not in ("verbatim", "decaying"):
        raise ValueError(f"kernel must be 'verbatim' or 'decaying', got {kernel!r}")
    if params.shape != ():
        raise ValueError(f"a spectrum needs one parameter point, got shape {params.shape}")
    if kappa is None and default_kappa(params) <= 0:
        raise ValueError("kappa must be given: its default 0.1 g is 0 at g = 0")
    kappa = default_kappa(params) if kappa is None else float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if collection_time is None:
        collection_time = default_collection_time(params)
    collection_time = float(collection_time)
    if collection_time <= 0:
        raise ValueError("collection time must be positive")
    omega_grid = np.asarray(omega_grid, dtype=float)
    sign = 1.0 if kernel == "verbatim" else -1.0
    rate = sign * kappa - 1j * (omega_grid - params.omega0)

    grid = np.linspace(0.0, collection_time, n_time + 1)
    top, entries, live, traj = _live_trajectory(rho0, params, basis, grid)
    # carrier factored out
    family, lift, coeff = _raising_family(operator, top, entries, params, basis, rotating=True)
    readout = _propagate(family.T, coeff, grid)
    h = collection_time / n_time
    values = _spectrum_pass(readout, lift @ traj.T, h, kappa, rate)
    delta = np.inf
    refinements = []
    for _ in range(max_refinements):
        n_time *= 2
        h = collection_time / n_time
        traj = _halve_step(live, traj, h)
        readout = _halve_step(family.T, readout, h)
        refined = _spectrum_pass(readout, lift @ traj.T, h, kappa, rate)
        scale = np.max(np.abs(refined))
        delta = float(np.max(np.abs(refined - values)) / scale) if scale > 0 else 0.0
        refinements.append((n_time, delta))
        values = refined
        if delta <= target_delta:
            break
    return SpectrumSeries(
        operator=operator,
        kappa=kappa,
        collection_time=collection_time,
        omega_grid=omega_grid,
        values=values,
        kernel=kernel,
        n_time=n_time,
        convergence_delta=delta,
        converged=delta <= target_delta,
        refinements=tuple(refinements),
    )


def peak_table(params: SystemParams, m_max: int) -> PeakTable:
    """Analytic line list for cascade blocks ``m = 1 .. m_max``.

    Each row keeps its branch pair; ``multiplicity`` counts how many rows of
    the whole table share the row's position (degenerate lines merge in a
    measured spectrum).  Rows touching a singlet branch on either side are
    flagged.  Sorted by position.  Positions closer than ``1e-9`` times the
    largest of ``|omega0|``, ``g`` and 1 count as one.
    """
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    if params.shape != ():
        raise ValueError(f"a peak table needs one parameter point, got shape {params.shape}")
    position_tol = 1e-9 * max(abs(params.omega0), params.g, 1.0)

    levels = [complex_eigenenergies(n, params) for n in range(m_max + 1)]
    raw = [
        (m, i + 1, j + 1, value)
        for m in range(1, m_max + 1)
        for (i, j), value in np.ndenumerate(_outer_difference(levels[m], levels[m - 1]))
    ]
    positions = np.array([value.real for *_, value in raw])
    multiplicity = np.sum(np.abs(positions[:, None] - positions) <= position_tol, axis=1)
    rows = [
        PeakRow(
            m=m,
            i=i,
            j=j,
            position=float(value.real),
            width=float(-2.0 * value.imag),
            multiplicity=int(mult),
            involves_singlet=i == singlet_branch(m) or j == singlet_branch(m - 1),
        )
        for (m, i, j, value), mult in zip(raw, multiplicity)
    ]
    rows.sort(key=lambda r: (r.position, r.m, r.i, r.j))
    return PeakTable(tuple(rows), position_tol)
