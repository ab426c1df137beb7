"""Dissipative ladder of two identical two-level emitters in a lossy cavity.

The package provides the truncated state space and bare operators
(:mod:`~tcladder.space`), the coupled Hamiltonian (:mod:`~tcladder.hamiltonian`),
the Lindblad generator with its coherence and population blocks
(:mod:`~tcladder.liouvillian`), closed forms for the complex eigenenergies
and the strong-coupling criterion (:mod:`~tcladder.eigenanalysis`),
regression-theorem correlation functions
and detector-filtered spectra (:mod:`~tcladder.spectrum`), and a
verification suite (:mod:`~tcladder.verify`) plus command line front end
(:mod:`~tcladder.cli`).
"""

__version__ = "0.1.0"

from .space import (  # noqa: E402
    DickeLabel,
    SystemParams,
    TruncatedBasis,
    bare_operators,
    build_basis,
)
from .hamiltonian import build_hamiltonian  # noqa: E402
from .liouvillian import (  # noqa: E402
    build_generator,
    evolve,
    population_block,
    regression_block,
)
from .eigenanalysis import (  # noqa: E402
    complex_eigenenergies,
    complex_rabi,
    discriminant,
    jc_reference,
    perturbative_splitting,
    population_eigenvalues,
    sc_boundary,
    sc_criterion,
    splitting_roots,
    transition_eigenvalues,
)
from .spectrum import (  # noqa: E402
    peak_table,
    physical_spectrum,
    two_time_correlation,
)

__all__ = [
    "__version__",
    "DickeLabel",
    "SystemParams",
    "TruncatedBasis",
    "bare_operators",
    "build_basis",
    "build_hamiltonian",
    "build_generator",
    "evolve",
    "population_block",
    "regression_block",
    "complex_eigenenergies",
    "complex_rabi",
    "discriminant",
    "jc_reference",
    "perturbative_splitting",
    "population_eigenvalues",
    "sc_boundary",
    "sc_criterion",
    "splitting_roots",
    "transition_eigenvalues",
    "peak_table",
    "physical_spectrum",
    "two_time_correlation",
]
