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
``col * dim + row``, so the block on the index arrays ``(rows, cols)`` is
``build_generator(...)[np.ix_(idx, idx)]`` with ``idx = cols * dim + rows``,
computed on those indices directly.  Array-valued params give a
``(..., n, n)`` stack from the same assembly, one matrix per sweep point, so
a block covers a whole sweep in one call; propagation needs one point.  One
rule, :func:`_sector`, picks the operators of every block, of the raising
family and of propagation: H conserves the excitation number and every decay
lowers both sides of ``rho`` together, so :func:`evolve` builds the
generator only on the manifolds the initial state touches and, within them,
on the entries ``rho[i, j]`` whose manifold difference ``m_i - m_j`` the
initial state holds, and propagates it with exact matrix exponentials.

Eigenvalue convention: blocks generate real-time dynamics ``dx/dt = M x``.
Multiplying an eigenvalue of ``M`` by ``1j`` (:func:`line_values`) yields the
complex line value whose real part is the emission position and whose
imaginary part is minus half the linewidth.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .space import SystemParams, TruncatedBasis

__all__ = [
    "build_generator",
    "top_manifold",
    "evolve",
    "regression_block",
    "population_block",
    "raising_coherence_generator",
    "line_values",
]


def _generator(
    params: SystemParams,
    basis: TruncatedBasis,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Generator on the vec indices ``cols * dim + rows``, shape ``(..., n, n)``.

    Entry ``[..., k, p]`` is the coefficient in ``d<X_k>/dt = sum_p M[k, p] <X_p>``
    for the basis operators ``X_k = |rows[k]><cols[k]|``; coefficients into
    indices outside the list (feed into other sectors) are dropped.  Each
    ``kron(A, B)`` term restricted to these indices is the elementwise product
    ``A[c, c'] * B[r, r']``, so every entry is bitwise the one the full
    Kronecker-product assembly would hold, and every lane the one of its point.
    """
    from .hamiltonian import build_hamiltonian

    h = build_hamiltonian(params, basis)
    eye = np.eye(basis.dim)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.take(cols, -2).take(cols, -1) * b.take(rows, -2).take(rows, -1)

    # the sweep's full shape: H need not depend on every swept field
    gen = np.empty(params.shape + (rows.size, rows.size), dtype=complex)
    np.multiply(1j, kron(eye, np.swapaxes(h, -2, -1)) - kron(h, eye), out=gen)
    ops = basis.operators
    for rate, op in (
        (params.gamma_a, ops.a),
        (params.gamma_sigma, ops.sigma1),
        (params.gamma_sigma, ops.sigma2),
    ):
        if np.count_nonzero(rate) == 0:  # in every lane
            continue
        od_o = op.conj().T @ op
        gen += np.asarray(rate / 2.0)[..., None, None] * (
            2.0 * kron(op, op.conj())
            - kron(od_o, eye)
            - kron(eye, od_o.T)
        )
    return gen


def build_generator(params: SystemParams, basis: TruncatedBasis) -> np.ndarray:
    """Full generator on vectorized density matrices, ``(..., dim^2, dim^2)``.

    ``d vec(rho)/dt = G vec(rho)``.  This matrix is the brute-force reference
    against which every closed form in :mod:`tcladder.eigenanalysis` is
    checked: its spectrum contains the spectra of all coherence and
    population blocks.
    """
    dim = basis.dim
    index = np.arange(dim)
    return _generator(params, basis, np.tile(index, dim), np.repeat(index, dim))


def _propagate(gen: np.ndarray, x0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``expm(gen t) @ x0`` at every ``t`` of a strictly increasing grid from 0,
    as an array of shape ``(len(grid), len(x0))``.

    No eigendecomposition is used, so the values stay exact where ``gen`` is
    defective (where two levels coalesce, on the strong-coupling boundary).
    A grid whose points all lie within ``1e-12 * grid[-1]`` of ``k h`` is
    uniform and is filled by doubling: with ``P = expm(gen h)^f`` and the
    first ``f`` points known, the next ``min(f, n - f)`` are
    ``out[:m] @ P.T``, then ``P`` is squared, so ``n`` points take ``log2 n``
    matrix products.  Any other grid takes one exponential and one step per
    interval.
    """
    from scipy.linalg import expm

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grids must be 1-d, strictly increasing and start at 0")
    n = grid.size
    out = np.empty((n, x0.size), dtype=complex)
    out[0] = x0
    if n > 1:
        h = grid[-1] / (n - 1)
        if np.max(np.abs(grid - h * np.arange(n))) <= 1e-12 * grid[-1]:
            power, f = expm(gen * h), 1
            while f < n:
                m = min(f, n - f)
                out[f : f + m] = out[:m] @ power.T
                f += m
                if f < n:
                    power = power @ power
        else:
            for k, dt in enumerate(np.diff(grid), start=1):
                out[k] = expm(gen * dt) @ out[k - 1]
    if not np.all(np.isfinite(out)):  # expm overflows without raising
        raise FloatingPointError("the propagated values are not finite")
    return out


def _halve_step(gen: np.ndarray, coarse: np.ndarray, h: float) -> np.ndarray:
    """Refine a :func:`_propagate` result from step ``2 h`` to step ``h``.

    The even points are the rows of ``coarse``; each odd point is one step
    ``expm(gen h)`` on the point before it, all in one matrix product.
    """
    from scipy.linalg import expm

    fine = np.empty((2 * coarse.shape[0] - 1, coarse.shape[1]), dtype=complex)
    fine[::2] = coarse
    fine[1::2] = coarse[:-1] @ expm(gen * h).T
    if not np.all(np.isfinite(fine[1::2])):
        raise FloatingPointError("the propagated values are not finite")
    return fine


def top_manifold(rho0: np.ndarray, basis: TruncatedBasis) -> int:
    """The highest excitation manifold that ``rho0`` touches: the largest
    excitation of a basis state whose row or column of ``rho0`` holds a
    nonzero entry (0 for the zero matrix)."""
    if rho0.shape != (basis.dim, basis.dim):
        raise ValueError(f"rho0 shape {rho0.shape} does not match basis dim {basis.dim}")
    return int(basis.excitation[np.concatenate(np.nonzero(rho0))].max(initial=0))


def _live_trajectory(
    rho0: np.ndarray, params: SystemParams, basis: TruncatedBasis, t_grid: np.ndarray
) -> tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """The highest manifold ``M`` that ``rho0`` touches, the entries
    ``(i, j)`` of ``rho`` on manifolds ``0..M`` that can hold weight, the
    generator on them, and ``rho(t)`` there (column ``p`` is
    ``rho[i[p], j[p]]``).

    Every decay lowers both sides of ``rho`` together and H conserves the
    excitation number, so the generator never mixes entries ``rho[i, j]``
    of different manifold differences ``m_i - m_j`` (the weak symmetry of
    Buca and Prosen).  Only the differences that ``rho0`` holds are kept:
    26 of 64 entries for both-excited, the diagonal sector.  The generator
    maps them into themselves, so it is built and propagated on them only;
    it is returned so that a caller can refine the trajectory
    (:func:`_halve_step`).  The photon truncation is exact only while
    ``M <= photon_cutoff``; any other ``rho0`` is refused before the
    generator is built, and so are params that hold a sweep.
    """
    if params.shape != ():
        raise ValueError(f"propagation needs one parameter point, got shape {params.shape}")
    top = top_manifold(rho0, basis)
    if top > basis.photon_cutoff:
        raise ValueError(
            f"initial state reaches manifold {top}; photon truncation is exact "
            f"only up to manifold {basis.photon_cutoff} at this cutoff"
        )
    i, j = np.nonzero(rho0)
    held = basis.excitation[i] - basis.excitation[j]
    # rho[i, j] is the average of |j><i|: its operator's column is i
    cols, rows = _sector(basis, top, lambda m_i, m_j: np.isin(m_i - m_j, held))
    gen = _generator(params, basis, rows, cols)
    return top, (cols, rows), gen, _propagate(gen, rho0[cols, rows], t_grid)


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
    _, (i, j), _, live = _live_trajectory(rho0, params, basis, t_grid)
    out = np.zeros((live.shape[0], basis.dim, basis.dim), dtype=complex)
    out[:, i, j] = live
    return out


# ---------------------------------------------------------------------------
# sector bases and blocks
# ---------------------------------------------------------------------------

def _sector(basis: TruncatedBasis, top: int, keep: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs, in lexicographic order, of the states on manifolds
    ``0..top`` whose manifold numbers pass ``keep(m_first, m_second)``: the
    ``(row, col)`` of ``|row><col|`` for a block, ``(i, j)`` of ``rho[i, j]``
    for the live trajectory.  No other code maps manifolds to indices."""
    m = basis.excitation[: basis.manifold_slice(top).stop]
    return np.nonzero(keep(m[:, None], m))


def _require_complete(basis: TruncatedBasis, n: int, what: str) -> None:
    if not basis.is_complete_manifold(n):
        raise ValueError(
            f"{what} needs complete manifold {n}; photon_cutoff="
            f"{basis.photon_cutoff} truncates it"
        )


def regression_block(
    params: SystemParams, basis: TruncatedBasis, m: int
) -> np.ndarray:
    """Coherence block for transitions from manifold ``m`` to ``m - 1``.

    The ``(..., n, n)`` matrix generates ``dx/dt = M x`` for the averages of
    ``|r><c|``, ``r`` in manifold ``m - 1`` and ``c`` in ``m``, ordered by
    :func:`_sector`.  Only the decay-out part is kept: the cascade feed from
    manifold ``m + 1`` lives in off-diagonal blocks of the full generator and
    does not move eigenvalues.  Block dimension is ``dim(m-1) * dim(m)``: 3,
    12 and then 16 for complete manifolds.  Both manifolds must be untruncated.
    """
    if m < 1:
        raise ValueError("regression block needs m >= 1")
    _require_complete(basis, m, "regression block")
    rows, cols = _sector(basis, m, lambda m_r, m_c: (m_r == m - 1) & (m_c == m))
    return _generator(params, basis, rows, cols)


def population_block(
    params: SystemParams, basis: TruncatedBasis, m: int
) -> np.ndarray:
    """Within-manifold block of manifold ``m``, ``(..., dim(m)^2, dim(m)^2)``.

    Operators ``|r><c|`` with ``r`` and ``c`` in manifold ``m``, ordered by
    :func:`_sector`; as in :func:`regression_block`, only the decay-out part is
    kept, since the feed from manifold ``m + 1`` does not move eigenvalues.
    """
    if m < 0:
        raise ValueError("population block needs m >= 0")
    _require_complete(basis, m, "population block")
    rows, cols = _sector(basis, m, lambda m_r, m_c: (m_r == m) & (m_c == m))
    return _generator(params, basis, rows, cols)


def raising_coherence_generator(
    params: SystemParams, basis: TruncatedBasis, top: int
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Generator on the raising coherence operators of manifolds ``0..top``.

    The operators ``|upper><lower|`` for every adjacent manifold pair span a
    closed space under the adjoint generator, including the cascade feed from
    one sector into the next.  This is the exact propagator space for
    two-time correlation functions: every raising emission operator is a
    linear combination of this family.  A state on manifolds ``0..top``
    gives the sectors ``m > top`` no weight, so only ``m = 1..top`` are built.

    Returns the ``(rows, cols)`` index arrays (sector-major, sector ``m``
    holding ``|m><m-1|``) and the matrix ``N`` with ``dv/dtau = N v``, a
    ``(..., n, n)`` stack over a sweep.
    """
    rows, cols = _sector(basis, top, lambda m_r, m_c: m_r == m_c + 1)
    return (rows, cols), _generator(params, basis, rows, cols)


def line_values(block: np.ndarray) -> np.ndarray:
    """Complex line values of a block: ``1j`` times its eigenvalues.

    The real part is the emission position and the imaginary part minus half
    the width.  Used everywhere a block spectrum, or a stack of them, is
    compared with closed-form eigenenergies.
    """
    return 1j * np.linalg.eigvals(block)
