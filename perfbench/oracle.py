"""Reference model for the benchmark's output checks.

Everything here is rebuilt from the textbook definitions in the product basis
``|photons> (x) |emitter 1> (x) |emitter 2>`` (emitter states G, X), so the
checks share no code with the package they check: not its basis ordering, its
Dicke transform, its operators, its generator or its closed forms.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |G><X|


class Model:
    """Two emitters in a cavity truncated at ``photons`` photons.

    Rates follow the Lindblad form ``(rate/2)(2 L rho L+ - L+L rho - rho L+L)``
    with channels ``a`` (``gamma_a``) and each emitter's lowering operator
    (``gamma_sigma``); the emitters sit at ``omega0 - delta``.
    """

    def __init__(self, photons: int, omega0: float, delta: float, g: float,
                 gamma_a: float, gamma_sigma: float):
        n_ph = photons + 1
        eye_ph, eye2 = np.eye(n_ph), np.eye(2)
        a_ph = np.diag(np.sqrt(np.arange(1.0, n_ph)), 1).astype(complex)
        self.a = np.kron(a_ph, np.eye(4))
        self.s1 = np.kron(eye_ph, np.kron(_LOWER, eye2))
        self.s2 = np.kron(eye_ph, np.kron(eye2, _LOWER))
        self.dim = 4 * n_ph
        self.n_photons = self.a.conj().T @ self.a
        self.n_s1 = self.s1.conj().T @ self.s1
        self.n_s2 = self.s2.conj().T @ self.s2
        self.number = self.n_photons + self.n_s1 + self.n_s2
        self.excitation = np.rint(np.diag(self.number).real).astype(int)
        self.h = omega0 * self.n_photons + (omega0 - delta) * (self.n_s1 + self.n_s2)
        for s in (self.s1, self.s2):
            self.h = self.h + g * (s.conj().T @ self.a + self.a.conj().T @ s)
        self.channels = [(gamma_a, self.a), (gamma_sigma, self.s1), (gamma_sigma, self.s2)]

    def effective_hamiltonian(self) -> np.ndarray:
        """``H - (i/2) sum rate L+L``, whose rung blocks carry the complex
        eigenenergies."""
        return self.h - 0.5j * sum(rate * op.conj().T @ op for rate, op in self.channels)

    def generator(self) -> np.ndarray:
        """Dense generator on row-stacked ``vec(rho)``: ``vec(A rho B) =
        kron(A, B.T) vec(rho)``."""
        eye = np.eye(self.dim)
        gen = -1j * (np.kron(self.h, eye) - np.kron(eye, self.h.T))
        for rate, op in self.channels:
            lol = op.conj().T @ op
            gen += (rate / 2.0) * (
                2.0 * np.kron(op, op.conj()) - np.kron(lol, eye) - np.kron(eye, lol.T)
            )
        return gen

    def state(self, photons: int, e1: int, e2: int) -> np.ndarray:
        """Density matrix of the bare product state (``e = 1`` is excited)."""
        k = 4 * photons + 2 * e1 + e2
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[k, k] = 1.0
        return rho


def rung_energies(model: Model, n: int) -> np.ndarray:
    """Eigenvalues of the effective Hamiltonian's block of rung ``n``."""
    idx = np.flatnonzero(model.excitation == n)
    return np.linalg.eigvals(model.effective_hamiltonian()[np.ix_(idx, idx)])


def emission_lines(model: Model, m_max: int) -> np.ndarray:
    """Line positions of every ``m -> m - 1`` transition, ``m = 1 .. m_max``.

    They are the eigenvalues of the generator restricted to the coherences
    ``rho_ij`` with ``i`` in rung ``m`` and ``j`` in rung ``m - 1``: that
    restriction is block triangular, so its spectrum is the union of the
    diagonal blocks.  A coherence oscillating as ``exp(-i nu t)`` emits at
    ``nu``.
    """
    exc = model.excitation
    idx = [
        i * model.dim + j
        for i in range(model.dim)
        for j in range(model.dim)
        if 1 <= exc[i] <= m_max and exc[j] == exc[i] - 1
    ]
    mu = np.linalg.eigvals(model.generator()[np.ix_(idx, idx)])
    return np.sort(-mu.imag)


def trajectory_rows(model: Model, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Diagnostics at each time by exact ``expm(G t)`` propagation, in the
    column order of ``evolve.csv``: t, trace, <N>, <photons>, <sigma1+sigma1>,
    <sigma2+sigma2>, singlet population, minimum eigenvalue of rho."""
    gen = model.generator()
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = -1 / np.sqrt(2.0), 1 / np.sqrt(2.0)  # (XG - GX)/sqrt 2
    p_singlet = np.kron(np.eye(model.dim // 4), np.outer(singlet, singlet.conj()))
    rows = []
    for t in times:
        rho = (expm(gen * t) @ rho0.reshape(-1)).reshape(model.dim, model.dim)
        herm = (rho + rho.conj().T) / 2.0
        rows.append(
            [t, np.trace(rho).real]
            + [np.trace(rho @ op).real for op in
               (model.number, model.n_photons, model.n_s1, model.n_s2, p_singlet)]
            + [np.linalg.eigvalsh(herm).min()]
        )
    return np.array(rows)


def assignment_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between two equal-size multisets after optimal
    matching."""
    a, b = np.ravel(a), np.ravel(b)
    if a.size != b.size:
        return np.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
