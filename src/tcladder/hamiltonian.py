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
    diagonal over the manifolds.  Shape ``(..., dim, dim)``, the leading axes
    being the broadcast shape of ``omega0``, ``delta`` and ``g``.
    """
    ops = basis.operators
    # two trailing axes, so that a swept value scales each matrix of the stack
    omega0, emitter_freq, g = (
        np.asarray(x)[..., None, None]
        for x in (params.omega0, params.omega0 - params.delta, params.g)
    )
    h = omega0 * ops.a.conj().T @ ops.a
    for sigma in (ops.sigma1, ops.sigma2):
        h = h + emitter_freq * sigma.conj().T @ sigma
        h = h + g * (sigma.conj().T @ ops.a + ops.a.conj().T @ sigma)
    return h
