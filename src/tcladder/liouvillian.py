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
matrix.  So is propagation: H conserves the excitation number and every
decay lowers it, so :func:`evolve` builds the generator only on the manifolds
the initial state touches and steps it with exact matrix exponentials.

Eigenvalue convention: blocks generate real-time dynamics ``dx/dt = M x``.
Multiplying an eigenvalue of ``M`` by ``1j`` (:func:`generator_eig_to_line`)
yields the complex line value whose real part is the emission position and
whose imaginary part is minus half the linewidth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .space import SystemParams, TruncatedBasis

__all__ = [
    "SectorBlock",
    "jump_operators",
    "build_generator",
    "top_manifold",
    "evolve",
    "regression_block",
    "population_block",
    "raising_coherence_generator",
    "generator_eig_to_line",
]


def jump_operators(
    params: SystemParams, basis: TruncatedBasis
) -> list[tuple[float, np.ndarray]]:
    """The three decay channels as ``(rate, operator)`` pairs."""
    ops = basis.operators
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


def _propagate(gen: np.ndarray, x0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``expm(gen t) @ x0`` at every ``t`` of a strictly increasing grid from 0.

    Steps are exact exponentials, valid where ``gen`` is defective (at
    exceptional points).  A grid whose points all lie within
    ``1e-12 * grid[-1]`` of ``k h`` is uniform and takes one exponential; any
    other grid takes one per interval.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grids must be 1-d, strictly increasing and start at 0")
    out = np.empty((grid.size, *x0.shape), dtype=complex)
    out[0] = x0
    if grid.size > 1:
        h = grid[-1] / (grid.size - 1)
        if np.max(np.abs(grid - h * np.arange(grid.size))) <= 1e-12 * grid[-1]:
            steps = itertools.repeat(expm(gen * h))
        else:
            steps = (expm(gen * dt) for dt in np.diff(grid))
        for k, step in zip(range(1, grid.size), steps):
            out[k] = step @ out[k - 1]
    if not np.all(np.isfinite(out)):  # expm overflows without raising
        raise FloatingPointError("the propagated values are not finite")
    return out


def top_manifold(rho0: np.ndarray, basis: TruncatedBasis) -> int:
    """The highest excitation manifold that ``rho0`` touches: the largest
    excitation of a basis state whose row or column of ``rho0`` holds a
    nonzero entry (0 for the zero matrix)."""
    if rho0.shape != (basis.dim, basis.dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match basis dim {basis.dim}")
    touched = np.flatnonzero(np.any(rho0 != 0, axis=0) | np.any(rho0 != 0, axis=1))
    return basis.states[touched.max()].excitation if touched.size else 0


def _live_trajectory(
    rho0: np.ndarray, params: SystemParams, basis: TruncatedBasis, t_grid: np.ndarray
) -> tuple[int, np.ndarray]:
    """The highest manifold ``M`` that ``rho0`` touches, and ``rho(t)`` on the
    states of manifolds ``0..M``, the leading ``k`` basis states (shape
    ``(n_t, k, k)``).  The generator maps the operators between those states
    into themselves, so it is built and propagated on them only.  The photon
    truncation is exact only while ``M <= photon_cutoff``; any other ``rho0``
    is refused before the generator is built.
    """
    top = top_manifold(rho0, basis)
    if top > basis.photon_cutoff:
        raise ValueError(
            f"initial state reaches manifold {top}; photon truncation is exact "
            f"only up to manifold {basis.photon_cutoff} at this cutoff"
        )
    k = basis.manifold_index[top][-1] + 1
    index = np.arange(k)
    gen = _generator(params, basis, np.tile(index, k), np.repeat(index, k))
    return top, _propagate(gen, rho0[:k, :k].reshape(-1), t_grid).reshape(-1, k, k)


def evolve(
    rho0: np.ndarray,
    params: SystemParams,
    basis: TruncatedBasis,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Propagate a density matrix over ``t_grid`` (must start at 0).

    Exact on the manifolds ``rho0`` can reach; a ``rho0`` that reaches above
    ``photon_cutoff`` raises :class:`ValueError`.  The trace is never
    renormalized: trace drift is a diagnostic, not something to hide.
    """
    _, live = _live_trajectory(rho0, params, basis, t_grid)
    k = live.shape[1]
    out = np.zeros((live.shape[0], basis.dim, basis.dim), dtype=complex)
    out[:, :k, :k] = live
    return out


# ---------------------------------------------------------------------------
# sector bases and blocks
# ---------------------------------------------------------------------------

def _pairs(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[tuple[int, int]]:
    """Index pairs of the operators ``|r><c|``, in lexicographic (row, column)
    order."""
    return [(r, c) for r in rows for c in cols]


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
    pairs = _pairs(basis.manifold_index[m - 1], basis.manifold_index[m])
    return SectorBlock(m, tuple(pairs), _generator(params, basis, *np.array(pairs).T))


def population_block(
    params: SystemParams, basis: TruncatedBasis, m: int
) -> SectorBlock:
    """Within-manifold block of manifold ``m`` (dimension ``dim(m)^2``)."""
    if m < 0:
        raise ValueError("population block needs m >= 0")
    _require_complete(basis, m, "population block")
    pairs = _pairs(basis.manifold_index[m], basis.manifold_index[m])
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
    pairs = [
        pair
        for m in range(1, basis.max_manifold + 1)
        for pair in _pairs(basis.manifold_index[m], basis.manifold_index[m - 1])
    ]
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
