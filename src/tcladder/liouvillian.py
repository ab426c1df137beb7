"""Lindblad generator, time evolution and its manifold block structure.

The master equation has exactly three decay channels: photon escape (rate
``gamma_a``) and independent spontaneous emission of each emitter (rate
``gamma_sigma``).  Because every channel lowers the excitation number and the
Hamiltonian preserves it, the generator is block triangular when operators are
grouped by the pair of manifolds they connect.  The diagonal blocks of the
one-step-down coherence sector and of the population sector carry all line
positions and widths; the off-diagonal feed blocks only shuffle weight between
cascade steps.

Vectorization convention: ``vec(rho) = rho.reshape(-1)`` (row stacking), so
``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.

The generator is assembled in one place, :func:`_generator`.  Every block is
an index slice of it: the average of the basis operator ``|row><col|`` is
``tr(rho |row><col|) = rho[col, row]``, which sits at vec index
``col * dim + row``, so the block on a list of ``(row, col)`` pairs is
``build_generator(...)[np.ix_(idx, idx)]`` with ``idx = col * dim + row``.
Blocks are computed on those indices directly, never through the full
matrix.

Eigenvalue convention: blocks generate real-time dynamics ``dx/dt = M x``.
Multiplying an eigenvalue of ``M`` by ``1j`` (:func:`generator_eig_to_line`)
yields the complex line value whose real part is the emission position and
whose imaginary part is minus half the linewidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .space import SystemParams, TruncatedBasis, bare_operators

__all__ = [
    "IntegrationError",
    "SectorBlock",
    "jump_operators",
    "build_generator",
    "evolve",
    "expectation",
    "coherence_ops",
    "population_ops",
    "regression_block",
    "population_block",
    "raising_coherence_generator",
    "generator_eig_to_line",
]


class IntegrationError(RuntimeError):
    """Adaptive propagation failed (e.g. step size underflow)."""


def jump_operators(
    params: SystemParams, basis: TruncatedBasis
) -> list[tuple[float, np.ndarray]]:
    """The three decay channels as ``(rate, operator)`` pairs."""
    ops = bare_operators(basis)
    return [
        (params.gamma_a, ops.a),
        (params.gamma_sigma, ops.sigma1),
        (params.gamma_sigma, ops.sigma2),
    ]


def _generator(
    params: SystemParams,
    basis: TruncatedBasis,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Generator restricted to the vec indices ``cols * dim + rows``.

    Entry ``[k, p]`` is the coefficient in ``d<X_k>/dt = sum_p M[k, p] <X_p>``
    for the basis operators ``X_k = |rows[k]><cols[k]|``; coefficients into
    indices outside the list (feed into other sectors) are dropped.  Each
    ``kron(A, B)`` term restricted to these indices is the elementwise product
    ``A[c, c'] * B[r, r']``, so every entry is bitwise the one the full
    Kronecker-product assembly would hold.
    """
    from .hamiltonian import build_hamiltonian

    h = build_hamiltonian(params, basis)
    eye = np.eye(basis.dim)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.take(cols, 0).take(cols, 1) * b.take(rows, 0).take(rows, 1)

    gen = 1j * (kron(eye, h.T) - kron(h, eye))
    for rate, op in jump_operators(params, basis):
        if rate == 0.0:
            continue
        od_o = op.conj().T @ op
        gen += (rate / 2.0) * (
            2.0 * kron(op, op.conj())
            - kron(od_o, eye)
            - kron(eye, od_o.T)
        )
    return gen


def build_generator(params: SystemParams, basis: TruncatedBasis) -> np.ndarray:
    """Full generator on vectorized density matrices (dim^2 x dim^2).

    ``d vec(rho)/dt = G vec(rho)``.  This matrix is the brute-force reference
    against which every closed form in :mod:`tcladder.eigenanalysis` is
    checked: its spectrum contains the spectra of all coherence and
    population blocks.
    """
    dim = basis.dim
    index = np.arange(dim)
    return _generator(params, basis, np.tile(index, dim), np.repeat(index, dim))


def evolve(
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    t_grid: np.ndarray,
    method: str = "adaptive",
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> np.ndarray:
    """Propagate a density matrix over ``t_grid`` (must start at 0).

    ``method="adaptive"`` uses high-order adaptive stepping with per-step
    error control; ``method="expm"`` uses the exact matrix exponential per
    grid interval.  The trace is never renormalized: trace drift is a
    diagnostic of integration quality, not something to hide.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or t_grid[0] != 0.0:
        raise ValueError("t_grid must be a 1-d grid starting at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    dim = basis.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match basis dim {dim}")

    gen = build_generator(params, basis)
    y0 = rho0.astype(complex).reshape(-1)
    if t_grid.size == 1:
        return y0.reshape(1, dim, dim).copy()

    if method == "adaptive":
        sol = solve_ivp(
            lambda _t, y: gen @ y,
            (0.0, float(t_grid[-1])),
            y0,
            t_eval=t_grid,
            method="DOP853",
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise IntegrationError(
                f"propagation failed near t = {sol.t[-1] if sol.t.size else 0.0:g} "
                f"of [0, {t_grid[-1]:g}]: {sol.message}"
            )
        return sol.y.T.reshape(-1, dim, dim)
    if method == "expm":
        out = np.empty((t_grid.size, dim, dim), dtype=complex)
        out[0] = rho0
        y = y0.copy()
        steps: dict[float, np.ndarray] = {}
        for k in range(1, t_grid.size):
            dt = float(t_grid[k] - t_grid[k - 1])
            if dt not in steps:
                steps[dt] = expm(gen * dt)
            y = steps[dt] @ y
            out[k] = y.reshape(dim, dim)
        return out
    raise ValueError(f"unknown method {method!r}")


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """``tr(rho O)``."""
    if rho.shape != op.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {op.shape}")
    return complex(np.trace(rho @ op))


# ---------------------------------------------------------------------------
# sector bases and blocks
# ---------------------------------------------------------------------------

def coherence_ops(basis: TruncatedBasis, m: int) -> list[tuple[int, int]]:
    """Index pairs of the lowering coherence operators ``|l><m|`` connecting
    manifold ``m`` down to ``m - 1``, in lexicographic (row, column) order."""
    if m < 1:
        raise ValueError("coherence sector needs m >= 1")
    rows = basis.manifold_index[m - 1]
    cols = basis.manifold_index[m]
    return [(r, c) for r in rows for c in cols]


def population_ops(basis: TruncatedBasis, m: int) -> list[tuple[int, int]]:
    """Index pairs of the within-manifold operators ``|l><m|`` of manifold ``m``."""
    if m < 0:
        raise ValueError("population sector needs m >= 0")
    idx = basis.manifold_index[m]
    return [(r, c) for r in idx for c in idx]


@dataclass(frozen=True)
class SectorBlock:
    """Diagonal block of the generator on one sector of basis operators.

    ``matrix`` generates ``dx/dt = M x`` for the averages of the operators
    ``|row><col|`` listed in ``op_index`` (pairs of basis indices, row then
    column): the lowering coherences ``m -> m - 1`` of
    :func:`regression_block` or the within-manifold operators of
    :func:`population_block`.  Only the decay-out part is kept; the cascade
    feed from manifold ``m + 1`` lives in the off-diagonal blocks of the full
    generator and does not affect eigenvalues.  Eigenvalues map to line
    values via :func:`generator_eig_to_line`.
    """

    m: int
    op_index: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def line_values(self) -> np.ndarray:
        return generator_eig_to_line(self.eigenvalues())


def _require_complete(basis: TruncatedBasis, n: int, what: str) -> None:
    if not basis.is_complete_manifold(n):
        raise ValueError(
            f"{what} needs complete manifold {n}; photon_cutoff="
            f"{basis.photon_cutoff} truncates it"
        )


def regression_block(
    params: SystemParams, basis: TruncatedBasis, m: int
) -> SectorBlock:
    """Coherence block for transitions from manifold ``m`` to ``m - 1``.

    Block dimension is ``dim(m-1) * dim(m)``: 3, 12 and then 16 for complete
    manifolds.  Both manifolds must be untruncated.
    """
    if m < 1:
        raise ValueError("regression block needs m >= 1")
    _require_complete(basis, m, "regression block")
    _require_complete(basis, m - 1, "regression block")
    pairs = coherence_ops(basis, m)
    return SectorBlock(m, tuple(pairs), _generator(params, basis, *np.array(pairs).T))


def population_block(
    params: SystemParams, basis: TruncatedBasis, m: int
) -> SectorBlock:
    """Within-manifold block of manifold ``m`` (dimension ``dim(m)^2``)."""
    if m < 0:
        raise ValueError("population block needs m >= 0")
    _require_complete(basis, m, "population block")
    pairs = population_ops(basis, m)
    return SectorBlock(m, tuple(pairs), _generator(params, basis, *np.array(pairs).T))


def raising_coherence_generator(
    params: SystemParams, basis: TruncatedBasis
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Generator on the full family of raising coherence operators.

    The operators ``|upper><lower|`` for every adjacent manifold pair span a
    closed space under the adjoint generator, including the cascade feed from
    one sector into the next.  This is the exact propagator space for
    two-time correlation functions: every raising emission operator is a
    linear combination of this family.

    Returns the ordered ``(row, column)`` index pairs (sector-major, sector
    ``m`` holding ``|m><m-1|`` operators) and the matrix ``N`` with
    ``dv/dtau = N v``.
    """
    pairs: list[tuple[int, int]] = []
    for m in range(1, basis.max_manifold + 1):
        rows = basis.manifold_index[m]
        cols = basis.manifold_index[m - 1]
        pairs.extend((r, c) for r in rows for c in cols)
    return pairs, _generator(params, basis, *np.array(pairs).T)


# ---------------------------------------------------------------------------
# eigenvalue convention
# ---------------------------------------------------------------------------

def generator_eig_to_line(mu: np.ndarray | complex) -> np.ndarray | complex:
    """Map a real-time generator eigenvalue to a complex line value.

    The line value's real part is the emission position; its imaginary part
    is minus half the width.  Used everywhere a block spectrum is compared
    with closed-form eigenenergies.
    """
    return 1j * mu
