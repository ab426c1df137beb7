"""Coupled light-matter Hamiltonian.

Its closed-form levels, lossless and lossy alike, are
:func:`tcladder.eigenanalysis.complex_eigenenergies`.
"""

from __future__ import annotations

import numpy as np

from .space import SystemParams, TruncatedBasis

__all__ = ["build_hamiltonian"]


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
