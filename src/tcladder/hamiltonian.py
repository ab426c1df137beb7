"""Coupled light-matter Hamiltonian and its closed-form dressed levels.

The closed forms are given on resonance only; off resonance the manifold
blocks are diagonalized numerically (the off-resonant closed forms would be
quartic-root expressions of no practical value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import SystemParams, TruncatedBasis

__all__ = [
    "DressedLevel",
    "build_hamiltonian",
    "manifold_block",
    "dressed_levels_analytic",
]


@dataclass(frozen=True)
class DressedLevel:
    """One eigenlevel of a manifold block.

    ``state`` is the eigenvector over the manifold's states in canonical
    order.  Branches 1-3 live in the triplet sector, branch 4 is the singlet
    ``|n-1, S>``; branch 1 degenerates away for ``n = 1``.
    """

    n: int
    branch: int
    energy: float
    state: np.ndarray


def build_hamiltonian(params: SystemParams, basis: TruncatedBasis) -> np.ndarray:
    """Mode + emitters + symmetric exchange coupling, in the canonical basis.

    Commutes with the excitation number operator, so the matrix is block
    diagonal over the manifolds.
    """
    ops = basis.operators
    h = params.omega0 * ops.a.conj().T @ ops.a
    emitter_freq = params.omega0 - params.delta
    for sigma in (ops.sigma1, ops.sigma2):
        h = h + emitter_freq * sigma.conj().T @ sigma
        h = h + params.g * (sigma.conj().T @ ops.a + ops.a.conj().T @ sigma)
    return h


def manifold_block(matrix: np.ndarray, basis: TruncatedBasis, n: int) -> np.ndarray:
    """Contiguous block of a manifold-preserving operator."""
    sl = basis.manifold_slice(n)
    return matrix[sl, sl]


def dressed_levels_analytic(n: int, params: SystemParams) -> list[DressedLevel]:
    """Closed-form energies and eigenvectors of manifold ``n`` on resonance.

    Energies are ``n*omega0`` (branches 1 and 4) and ``n*omega0 +- g*sqrt(4n-2)``
    (branches 2 and 3).  Eigenvector components refer to the manifold states in
    canonical order ``|n,T-1>, |n-1,T0>, |n-1,S>, |n-2,T1>`` (the last entry is
    absent for ``n = 1``).  For ``n = 1`` branch 1 does not exist and three
    levels are returned.
    """
    if params.delta != 0.0:
        raise ValueError("closed-form dressed levels are only available at delta = 0")
    if n < 1:
        raise ValueError("manifold 0 is the trivial vacuum; use n >= 1")

    w0, g = params.omega0, params.g
    split = g * np.sqrt(4 * n - 2)
    levels: list[DressedLevel] = []

    mdim = 4 if n >= 2 else 3
    if n >= 2:
        v1 = np.zeros(mdim)
        v1[3] = np.sqrt(n / (2 * n - 1))
        v1[0] = -np.sqrt((n - 1) / (2 * n - 1))
        levels.append(DressedLevel(n=n, branch=1, energy=n * w0, state=v1))

    for branch, sign in ((2, +1.0), (3, -1.0)):
        v = np.zeros(mdim)
        v[0] = np.sqrt(n / (4 * n - 2))
        v[1] = sign / np.sqrt(2)
        if n >= 2:
            v[3] = np.sqrt((n - 1) / (4 * n - 2))
        levels.append(
            DressedLevel(n=n, branch=branch, energy=n * w0 + sign * split, state=v)
        )

    v4 = np.zeros(mdim)
    v4[2] = 1.0
    levels.append(DressedLevel(n=n, branch=4, energy=n * w0, state=v4))
    return levels
