"""Truncated Hilbert space for two identical two-level emitters and one cavity mode.

Basis states are ``|p, m>`` with ``p`` photons and a collective (Dicke) matter
label.  The canonical ordering is excitation-manifold major; within a manifold
states are sorted by decreasing photon number (ties broken with T0 before S).
Every matrix produced by this package follows that ordering, so the manifold
block structure of all operators is visible as contiguous blocks.  The basis
is two read-only integer arrays over that ordering, the photon number and
the label's position in :class:`DickeLabel` order of each state.

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


#: number of excited emitters carried by each label, in DickeLabel order
_EXCITATIONS = np.array([0, 1, 1, 2])


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
    Params are equal when every field is, entry by entry; only params of
    scalar fields are hashable.
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

    def _fields(self) -> tuple:
        return (self.omega0, self.delta, self.g, self.gamma_a, self.gamma_sigma)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._fields(), other._fields()))

    def __hash__(self) -> int:
        if any(isinstance(value, np.ndarray) for value in self._fields()):
            raise TypeError(f"params holding arrays (sweep shape {self.shape}) are not hashable")
        return hash(self._fields())

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

    State ``k`` holds ``photons[k]`` photons and the label at position
    ``matter[k]`` of :class:`DickeLabel` (T-1, T0, S, T1); ``excitation`` is
    each state's excitation number, nondecreasing along the basis.  The three
    arrays are read-only.  ``operators`` holds the bare operators over this
    basis, built once with the basis.  Two bases are equal when their cutoffs
    are, since the arrays follow from the cutoff.
    """

    photon_cutoff: int
    photons: np.ndarray = field(compare=False, repr=False)
    matter: np.ndarray = field(compare=False, repr=False)
    excitation: np.ndarray = field(init=False, compare=False, repr=False)
    operators: BareOperators = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        excitation = self.photons + _EXCITATIONS[self.matter]
        for array in (self.photons, self.matter, excitation):
            array.setflags(write=False)
        object.__setattr__(self, "excitation", excitation)
        object.__setattr__(self, "operators", bare_operators(self))

    @property
    def dim(self) -> int:
        return len(self.photons)

    @property
    def max_manifold(self) -> int:
        """Highest excitation number present (``photon_cutoff + 2``)."""
        return self.photon_cutoff + 2

    def index_of(self, photons: int, matter: DickeLabel) -> int:
        label = list(DickeLabel).index(matter)
        hit = np.flatnonzero((self.photons == photons) & (self.matter == label))
        if not hit.size:
            raise ValueError(
                f"no state |{photons}, {matter.value}> in the basis of "
                f"photon_cutoff {self.photon_cutoff}"
            )
        return int(hit[0])

    def manifold_slice(self, n: int) -> slice:
        start, stop = np.searchsorted(self.excitation, [n, n + 1]).tolist()
        return slice(start, stop)

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
    # candidate 4 n + label is |n - excitations(label), label>: DickeLabel
    # runs by rising excitation, T0 before S, so photons decrease within a
    # manifold as the canonical order asks
    photons = np.arange(photon_cutoff + 3)[:, None] - _EXCITATIONS
    matter = np.broadcast_to(np.arange(len(_EXCITATIONS)), photons.shape)
    kept = (photons >= 0) & (photons <= photon_cutoff)
    return TruncatedBasis(photon_cutoff=photon_cutoff, photons=photons[kept], matter=matter[kept])


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
    p, m = basis.photons, basis.matter
    # a|p, m> = sqrt(p) |p - 1, m>, and each sigma acts on the label alone;
    # np.where fills the zeros, so no entry is -0
    same_photons = p[:, None] == p
    a = np.where((m[:, None] == m) & (p[:, None] == p - 1), np.sqrt(p), 0).astype(complex)
    s1_m, s2_m = _matter_lowering_dicke()
    sigma1 = np.where(same_photons, s1_m[m[:, None], m], 0)
    sigma2 = np.where(same_photons, s2_m[m[:, None], m], 0)
    number = np.diag(basis.excitation.astype(complex))
    for matrix in (a, sigma1, sigma2, number):
        matrix.setflags(write=False)
    return BareOperators(a=a, sigma1=sigma1, sigma2=sigma2, number=number)
