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
are not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .eigenanalysis import singlet_branch, transition_eigenvalues
from .liouvillian import _live_trajectory, _propagate, raising_coherence_generator
from .space import SystemParams, TruncatedBasis

__all__ = [
    "CorrelationGrid",
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

# entries of one block of the fused inner integrand (4 MB of complex128)
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class CorrelationGrid:
    """Sampled first-order correlation ``G(t, tau) = <O+(t+tau) O(t)>``, optical
    carrier included."""

    operator: str
    t_grid: np.ndarray
    tau_grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SpectrumSeries:
    """Detector-filtered emission spectrum over ``omega_grid``."""

    operator: str
    kappa: float
    collection_time: float
    omega_grid: np.ndarray
    values: np.ndarray
    kernel: str = "verbatim"
    n_time: int = 0
    convergence_delta: float = np.nan
    converged: bool = True


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
    position_tol: float = field(default=0.0, repr=False)

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
    rho_traj: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    rotating: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raising-family generator, initial values ``v`` (family x time) and the
    coefficients that read ``O+`` back out of the family.  ``rho_traj``
    lives on the leading ``k`` states, manifolds ``0..top``, so the sectors
    ``m > top`` never hold weight and are left out."""
    pairs, gen = raising_coherence_generator(params, basis)
    n = sum(basis.manifold_dim(m) * basis.manifold_dim(m - 1) for m in range(1, top + 1))
    gen = gen[:n, :n]
    if rotating:
        gen = gen - 1j * params.omega0 * np.eye(n)
    k = rho_traj.shape[1]
    op = _operator_matrix(operator, basis)[:k, :k]
    rows, cols = np.array(pairs[:n], dtype=int).reshape(-1, 2).T

    # initial conditions <W_k O>(t) = (O rho(t))[col_k, row_k]
    v = (op @ rho_traj)[:, cols, rows].T
    # O+ expanded over the raising family: coefficients conj(O[col, row])
    coeff = op[cols, rows].conj()
    return gen, v, coeff


def two_time_correlation(
    operator: str,
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    t_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> CorrelationGrid:
    """Correlation ``<O+(t+tau) O(t)>`` on the full product grid.

    A line at position ``nu`` contributes ``e^{(+i nu - width/2) tau}``.  The
    read-out row ``coeff . expm(N tau)``, propagated through ``N.T``, is
    applied to the initial values of every t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    top, traj = _live_trajectory(rho0, params, basis, t_grid)
    gen, v, coeff = _raising_family(operator, top, traj, params, basis, rotating=False)
    return CorrelationGrid(
        operator=operator,
        t_grid=t_grid,
        tau_grid=tau_grid,
        values=(_propagate(gen.T, coeff, tau_grid) @ v).T,
    )


def default_kappa(params: SystemParams) -> float:
    """Detector bandwidth used when none is configured."""
    return 0.1 * params.g


def default_collection_time(params: SystemParams) -> float:
    """Twenty lifetimes of the slowest nonzero decay channel (falls back to
    the coupling time scale for a lossless system)."""
    rates = [r for r in (params.gamma_a, params.gamma_sigma) if r > 0]
    return 20.0 / min(rates) if rates else 20.0 / params.g


def _spectrum_pass(
    operator: str,
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    kappa: float,
    collection_time: float,
    omega_grid: np.ndarray,
    kernel_sign: float,
    n_time: int,
) -> np.ndarray:
    """One quadrature pass on a uniform shared t/tau grid of ``n_time`` steps.

    The inner integrand at delay step ``j`` and time ``t_i`` is
    ``F[j, i] = r_j . w_i``, with ``r_j = coeff . S^j`` the read-out row
    (``S = expm(N h)``) and ``w_i`` the weighted family values at ``t_i``.
    ``F`` is formed in row blocks of at most ``_CHUNK_ELEMENTS`` entries, cut
    to the columns their trapezoids reach: the whole of it would be 268 MB at
    ``n_time = 4096``.
    """
    grid = np.linspace(0.0, collection_time, n_time + 1)
    h = collection_time / n_time
    top, traj = _live_trajectory(rho0, params, basis, grid)
    # carrier factored out
    gen, v, coeff = _raising_family(operator, top, traj, params, basis, rotating=True)
    readout = _propagate(gen.T, coeff, grid)
    weighted = v * np.exp(-2.0 * kappa * (collection_time - grid))

    # inner integral over t in [0, T - tau_j], trapezoid on the shared spacing;
    # it is empty at j = n_time
    inner = np.zeros(n_time + 1, dtype=complex)
    block = max(1, _CHUNK_ELEMENTS // (n_time + 1))
    for j0 in range(0, n_time, block):
        j = np.arange(j0, min(j0 + block, n_time))
        last = n_time - j
        f = readout[j] @ weighted[:, : last[0] + 1]
        f[np.arange(f.shape[1]) > last[:, None]] = 0.0
        inner[j] = h * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[np.arange(j.size), last]))

    # outer integral over tau, trapezoid
    tau_weights = np.full(n_time + 1, h)
    tau_weights[0] *= 0.5
    tau_weights[-1] *= 0.5
    rate = kernel_sign * kappa - 1j * (omega_grid - params.omega0)
    kernel = np.exp(rate[:, None] * grid[None, :])
    return 2.0 * kappa * np.real(kernel @ (tau_weights * inner))


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
    ``converged``, not hidden.  ``kernel="verbatim"`` keeps the growing
    ``e^{+kappa tau}`` factor, ``"decaying"`` flips its sign.
    """
    if kernel not in ("verbatim", "decaying"):
        raise ValueError(f"kernel must be 'verbatim' or 'decaying', got {kernel!r}")
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

    run_pass = functools.partial(
        _spectrum_pass, operator, rho0, params, basis, kappa, collection_time, omega_grid, sign
    )
    values = run_pass(n_time)
    delta = np.inf
    for _ in range(max_refinements):
        n_time *= 2
        refined = run_pass(n_time)
        scale = np.max(np.abs(refined))
        delta = float(np.max(np.abs(refined - values)) / scale) if scale > 0 else 0.0
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
    )


def peak_table(
    params: SystemParams, m_max: int, position_tol: float | None = None
) -> PeakTable:
    """Analytic line list for cascade blocks ``m = 1 .. m_max``.

    Each row keeps its branch pair; ``multiplicity`` counts how many rows of
    the whole table share the row's position (degenerate lines merge in a
    measured spectrum).  Rows touching a singlet branch on either side are
    flagged.  Sorted by position.
    """
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    if position_tol is None:
        position_tol = 1e-9 * max(abs(params.omega0), params.g, 1.0)

    raw = []
    for m in range(1, m_max + 1):
        for line in transition_eigenvalues(m, params):
            raw.append(line)
    positions = np.array([line.value.real for line in raw])
    multiplicity = [
        int(np.sum(np.abs(positions - p) <= position_tol)) for p in positions
    ]
    rows = [
        PeakRow(
            m=line.m,
            i=line.i,
            j=line.j,
            position=float(line.value.real),
            width=float(-2.0 * line.value.imag),
            multiplicity=mult,
            involves_singlet=(
                line.i == singlet_branch(line.m) or line.j == singlet_branch(line.m - 1)
            ),
        )
        for line, mult in zip(raw, multiplicity)
    ]
    rows.sort(key=lambda r: (r.position, r.m, r.i, r.j))
    return PeakTable(tuple(rows), position_tol)
