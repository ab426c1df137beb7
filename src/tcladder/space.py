"""Truncated Hilbert space for two identical two-level emitters and one cavity mode.

Basis states are ``|p, m>`` with ``p`` photons and a collective (Dicke) matter
label.  The canonical ordering is excitation-manifold major; within a manifold
states are sorted by decreasing photon number (ties broken with T0 before S).
Every matrix produced by this package follows that ordering, so the manifold
block structure of all operators is visible as contiguous blocks.

Truncation rule: there is no pumping anywhere in the model, so dynamics never
climbs manifolds.  Choosing ``photon_cutoff >= max excitation of the initial
state`` makes the truncation exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "DickeLabel",
    "BasisState",
    "TruncatedBasis",
    "SystemParams",
    "BareOperators",
    "build_basis",
    "bare_operators",
]


class DickeLabel(Enum):
    """Collective matter labels: triplet T-1, T0, T1 and singlet S."""

    T_MINUS = "T-1"
    T_ZERO = "T0"
    SINGLET = "S"
    T_PLUS = "T1"

    @property
    def excitations(self) -> int:
        """Number of excited emitters carried by this label."""
        return _EXCITATIONS[self]


_EXCITATIONS = {
    DickeLabel.T_MINUS: 0,
    DickeLabel.T_ZERO: 1,
    DickeLabel.SINGLET: 1,
    DickeLabel.T_PLUS: 2,
}

@dataclass(frozen=True)
class BasisState:
    """Bare state ``|photons, matter>``."""

    photons: int
    matter: DickeLabel

    @property
    def excitation(self) -> int:
        """Total excitation number (photons plus excited emitters)."""
        return self.photons + self.matter.excitations


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and frequencies.

    ``omega0`` is the cavity mode frequency, the emitters sit at
    ``omega0 - delta``.  ``gamma_a`` is the photon escape rate and
    ``gamma_sigma`` the spontaneous-emission rate of each emitter.

    A field may also be an array: the params then stand for a whole sweep of
    shape :attr:`shape`, validated at once.  The closed forms of
    :mod:`tcladder.eigenanalysis`, the Hamiltonian, the generator and its
    blocks broadcast over the fields; propagation and spectra need one point.
    """

    omega0: float
    delta: float
    g: float
    gamma_a: float
    gamma_sigma: float

    def __post_init__(self) -> None:
        for name in ("omega0", "delta", "g", "gamma_a", "gamma_sigma"):
            value = getattr(self, name)
            finite = np.isfinite(value)
            if not finite.all():
                raise ValueError(f"{name} must be finite, got {_first(value, ~finite)!r}")
        # g = 0 is allowed for decoupled-limit dynamics; the eigenanalysis
        # functions that divide by g insist on g > 0 themselves.
        negative = np.less(self.g, 0)
        if negative.any():
            raise ValueError(f"coupling g must be nonnegative, got {_first(self.g, negative)!r}")
        if np.less(self.gamma_a, 0).any() or np.less(self.gamma_sigma, 0).any():
            raise ValueError("decay rates must be nonnegative")

    @property
    def shape(self) -> tuple[int, ...]:
        """The broadcast shape of the five fields: ``()`` for one point."""
        return np.broadcast(self.omega0, self.delta, self.g, self.gamma_a, self.gamma_sigma).shape

    @property
    def gamma_plus(self) -> float:
        return (self.gamma_a + self.gamma_sigma) / 4.0

    @property
    def gamma_minus(self) -> float:
        return (self.gamma_a - self.gamma_sigma) / 4.0


def _first(value, mask):
    """The first entry of a scalar or array ``value`` where ``mask`` holds, as
    a Python number."""
    return np.asarray(value)[mask][0].item()


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered basis with ``photon_cutoff + 1`` photon sectors (4 states each).

    ``manifold_index`` maps the excitation number ``n`` to the (contiguous)
    indices of the manifold's states and ``excitation`` is the read-only
    array of each state's excitation number.  ``operators`` holds the bare
    operators over this basis, built once with the basis.
    """

    photon_cutoff: int
    states: tuple[BasisState, ...]
    manifold_index: dict[int, tuple[int, ...]] = field(repr=False)
    _lookup: dict[BasisState, int] = field(repr=False)
    excitation: np.ndarray = field(init=False, compare=False, repr=False)
    operators: BareOperators = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        excitation = np.array([state.excitation for state in self.states])
        excitation.setflags(write=False)
        object.__setattr__(self, "excitation", excitation)
        object.__setattr__(self, "operators", bare_operators(self))

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def max_manifold(self) -> int:
        """Highest excitation number present (``photon_cutoff + 2``)."""
        return self.photon_cutoff + 2

    def index_of(self, photons: int, matter: DickeLabel) -> int:
        return self._lookup[BasisState(photons, matter)]

    def manifold_slice(self, n: int) -> slice:
        idx = self.manifold_index[n]
        return slice(idx[0], idx[-1] + 1)

    def is_complete_manifold(self, n: int) -> bool:
        """True when no state of manifold ``n`` was removed by the cutoff."""
        return 0 <= n <= self.photon_cutoff


@dataclass(frozen=True)
class BareOperators:
    """Matrices of the elementary operators in the canonical basis order."""

    a: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    number: np.ndarray


def build_basis(photon_cutoff: int) -> TruncatedBasis:
    """Build the manifold-major ordered basis for a given photon cutoff."""
    if photon_cutoff < 0:
        raise ValueError(f"photon_cutoff must be >= 0, got {photon_cutoff}")

    states: list[BasisState] = []
    manifold_index: dict[int, tuple[int, ...]] = {}
    for n in range(photon_cutoff + 3):
        # DickeLabel runs by rising excitation, T0 before S: decreasing
        # photon number within the manifold, as the canonical order asks
        members = [
            BasisState(n - label.excitations, label)
            for label in DickeLabel
            if 0 <= n - label.excitations <= photon_cutoff
        ]
        manifold_index[n] = tuple(range(len(states), len(states) + len(members)))
        states.extend(members)

    lookup = {state: i for i, state in enumerate(states)}
    return TruncatedBasis(
        photon_cutoff=photon_cutoff,
        states=tuple(states),
        manifold_index=manifold_index,
        _lookup=lookup,
    )


def _matter_lowering_dicke() -> tuple[np.ndarray, np.ndarray]:
    """4x4 matrices of the two single-emitter lowering operators over the
    Dicke labels (T-1, T0, S, T1).  With G ground, X excited and the first
    letter emitter 1: T-1 = GG, T0 = (XG + GX)/sqrt(2), S = (XG - GX)/sqrt(2)
    and T1 = XX.  The entries are exactly 0 and +-1/sqrt(2)."""
    r = 1.0 / np.sqrt(2.0)
    s1 = np.array([[0, r, r, 0], [0, 0, 0, r], [0, 0, 0, -r], [0, 0, 0, 0]], dtype=complex)
    s2 = np.array([[0, r, -r, 0], [0, 0, 0, r], [0, 0, 0, r], [0, 0, 0, 0]], dtype=complex)
    return s1, s2


def bare_operators(basis: TruncatedBasis) -> BareOperators:
    """Photon annihilation, the two emitter lowering operators and the total
    excitation number operator as matrices over ``basis``."""
    dim = basis.dim
    a = np.zeros((dim, dim), dtype=complex)
    sigma1 = np.zeros((dim, dim), dtype=complex)
    sigma2 = np.zeros((dim, dim), dtype=complex)
    number = np.diag(basis.excitation.astype(complex))

    s1_m, s2_m = _matter_lowering_dicke()
    labels = list(DickeLabel)

    for j, state in enumerate(basis.states):
        if state.photons >= 1:
            i = basis.index_of(state.photons - 1, state.matter)
            a[i, j] = np.sqrt(state.photons)
        col = labels.index(state.matter)
        for row, target in enumerate(labels):
            for matrix, out in ((s1_m, sigma1), (s2_m, sigma2)):
                amp = matrix[row, col]
                if amp != 0:
                    out[basis.index_of(state.photons, target), j] = amp
    for matrix in (a, sigma1, sigma2, number):
        matrix.setflags(write=False)
    return BareOperators(a=a, sigma1=sigma1, sigma2=sigma2, number=number)

