"""Named verification checks: every closed form against the brute-force
generator, plus the dynamical invariants of the master equation.

Each check is a pure function returning a :class:`CheckResult` with the
tolerance it enforced and the residual it measured.  The command line
``verify`` subcommand and the acceptance test suite both run the one table
of checks at the end of this module, so a green checkmark means the same
thing everywhere.

Population blocks and the full generator map Hermitian operators to
Hermitian operators, so ``c03``, ``c04`` and ``c10`` take them to a frame of
Hermitian operators, :func:`_hermitian_frame`: a fixed unitary that depends
on the operator list alone and uses no symmetry of the model.  There the
matrix is real with the same spectrum; ``c03`` and ``c04`` diagonalise the
population blocks and ``c10`` exponentiates the dense full generator as
real matrices.  A framed matrix whose imaginary part is not rounding fails
its check instead of being dropped.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from . import eigenanalysis as ea
from . import liouvillian as lv
from . import spectrum as sp
from .cli import initial_density_matrix
from .hamiltonian import build_hamiltonian
from .space import DickeLabel, SystemParams, build_basis

__all__ = [
    "CheckResult",
    "ALL_CHECK_IDS",
    "select_checks",
    "run_checks",
    "assignment_distance",
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    tolerance: float
    measured: float
    detail: str = ""

    def __post_init__(self) -> None:
        # plain Python scalars, so asdict() of a result is ready for JSON
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.check_id:28s} measured={self.measured:.3e} "
            f"tol={self.tolerance:.1e}  {self.description}"
        )


def assignment_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pairwise distance after optimally matching two multisets."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


#: largest imaginary part, relative to the largest entry, that a matrix
#: framed by :func:`_hermitian_frame` may hold and still count as real
_IMAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class _Frame:
    """A unitary ``U`` held as gathers: column ``k`` has the entry ``diag[k]``
    at row ``k`` and ``off[k]`` at row ``adjoint[k]``."""

    adjoint: np.ndarray
    diag: np.ndarray
    off: np.ndarray

    def to_frame(self, x: np.ndarray) -> np.ndarray:
        """``U^T x`` along the last axis: from the averages of the operators to
        those of the frame's Hermitian operators."""
        return self.diag * x + self.off * x[..., self.adjoint]

    def from_frame(self, y: np.ndarray) -> np.ndarray:
        """``conj(U) y`` along the last axis, the inverse of :meth:`to_frame`."""
        return self.diag.conj() * y + self.off[self.adjoint].conj() * y[..., self.adjoint]

    def real(self, m: np.ndarray) -> tuple[np.ndarray, float]:
        """``Re(U^T m conj(U))`` for a ``(..., n, n)`` stack ``m``, and the
        largest ``|Im|`` of that product over its largest entry (0 for a zero
        matrix)."""
        t = self.diag[:, None] * m + self.off[:, None] * m[..., self.adjoint, :]
        framed = t * self.diag.conj() + t[..., self.adjoint] * self.off.conj()
        re, im = (float(np.abs(part).max(initial=0.0)) for part in (framed.real, framed.imag))
        return framed.real, im / max(re, im) if im else 0.0


def _hermitian_frame(rows: np.ndarray, cols: np.ndarray) -> _Frame:
    """The frame of Hermitian operators over the operators ``|rows[k]><cols[k]|``.

    The list must hold the adjoint of each of its operators exactly once.
    ``U``'s columns are ``|r><r|`` for a diagonal operator and, for a pair
    ``k < k'`` of adjoints, ``(|r><c| + |c><r|)/sqrt(2)`` at ``k`` and
    ``i(|r><c| - |c><r|)/sqrt(2)`` at ``k'``.  A generator that maps
    Hermitian operators to Hermitian operators is the real matrix
    ``U^T M conj(U)`` on their averages, with the spectrum of ``M``.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    size = int(max(rows.max(), cols.max())) + 1
    key, wanted = rows * size + cols, cols * size + rows
    order = np.argsort(key)
    adjoint = order[np.searchsorted(key, wanted, sorter=order).clip(max=key.size - 1)]
    k = np.arange(key.size)
    unpaired = np.flatnonzero((key[adjoint] != wanted) | (adjoint[adjoint] != k))
    if unpaired.size:
        r, c = rows[unpaired[0]], cols[unpaired[0]]
        raise ValueError(f"operator |{r}><{c}| has no adjoint of its own in the operator list")
    s = math.sqrt(0.5)
    diag = np.where(adjoint == k, 1.0, np.where(k < adjoint, s, 1j * s))
    off = np.where(adjoint == k, 0.0, np.where(k < adjoint, s, -1j * s))
    return _Frame(adjoint, diag, off)


def _square_frame(dim: int) -> _Frame:
    """The frame of all operators ``|r><c|`` over ``dim`` states, listed in
    the lexicographic order of ``(r, c)`` or of ``(c, r)`` (the adjoint pairs,
    and so the frame, are the same): a population block over one rung's
    states, or the full generator, whose vec index is ``c * dim + r``."""
    return _hermitian_frame(*np.divmod(np.arange(dim * dim), dim))


def _not_real(what: str, imag: float) -> str:
    return f"{what} is not real in the Hermitian frame: max|Im| {imag:.1e} of its largest entry"


def _random_parameter_grid(n_points: int) -> SystemParams:
    """One sweep of random points: delta cycles 0, 0.5, -0.5, rates in [0, 4)."""
    gamma_a, gamma_sigma = np.random.default_rng(20240601).uniform(0.0, 4.0, (n_points, 2)).T
    delta = np.resize([0.0, 0.5, -0.5], n_points)
    return SystemParams(omega0=10.0, delta=delta, g=1.0, gamma_a=gamma_a, gamma_sigma=gamma_sigma)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_dressed_energies() -> CheckResult:
    """Manifold block eigenvalues against the lossless closed-form levels."""
    params = SystemParams(omega0=7.0, delta=0.0, g=1.3, gamma_a=0.0, gamma_sigma=0.0)
    basis = build_basis(8)
    h = build_hamiltonian(params, basis)
    worst = 0.0
    for n in range(1, 9):
        sl = basis.manifold_slice(n)
        numeric = np.sort(np.linalg.eigvalsh(h[sl, sl]))
        analytic = np.sort(ea.complex_eigenenergies(n, params).real)
        scale = max(abs(n * params.omega0), params.g)
        worst = max(worst, float(np.max(np.abs(numeric - analytic)) / scale))
    return CheckResult(
        "c01-dressed-energies",
        "closed-form dressed energies, n = 1..8",
        worst < 1e-10,
        1e-10,
        worst,
    )


def _oracle_worst(
    block_of,
    lines_of,
    expected_dims: dict[int, int],
    points: SystemParams,
    closed_form_points: SystemParams,
    hermitian: bool = False,
) -> tuple[float, str]:
    """Worst distance between the spectra of the blocks ``block_of(points,
    basis, m)`` and the closed forms ``lines_of(m, closed_form_points)``,
    lane by lane over the sweep, for the ``m`` of ``expected_dims``; a wrong
    block size, or lanes that are not those of ``points``, read infinite.
    ``hermitian`` blocks act on all operators over one rung's states and are
    diagonalised as real matrices in the Hermitian frame; one that is not
    real there reads infinite too."""
    basis = build_basis(3)
    worst = 0.0
    for m, dim in expected_dims.items():
        blocks, lines = block_of(points, basis, m), lines_of(m, closed_form_points)
        if blocks.shape[-1] != dim:
            return math.inf, f"block m={m} has dim {blocks.shape[-1]}"
        if not blocks.shape[:-2] == lines.shape[:-2] == points.shape:
            return math.inf, f"m={m}: lanes {blocks.shape[:-2]} {lines.shape[:-2]} {points.shape}"
        if hermitian:
            blocks, imag = _square_frame(math.isqrt(dim)).real(blocks)
            if imag > _IMAG_TOL:
                return math.inf, _not_real(f"block m={m}", imag)
        for numeric, analytic in zip(lv.line_values(blocks), lines, strict=True):
            worst = max(worst, assignment_distance(numeric, analytic))
    return worst, ""


def check_coherence_oracle() -> CheckResult:
    """Coherence block spectra vs analytic eigenenergy differences."""
    points = _random_parameter_grid(51)
    worst, detail = _oracle_worst(
        lv.regression_block, ea.transition_eigenvalues, {1: 3, 2: 12, 3: 16}, points, points
    )
    return CheckResult(
        "c02-coherence-oracle",
        "block eigenvalues m=1..3 vs closed forms, 51 random points",
        worst < 1e-8,
        1e-8,
        worst,
        detail,
    )


def check_population_oracle() -> CheckResult:
    """Population block spectra vs analytic within-manifold differences."""
    points = _random_parameter_grid(51)
    worst, detail = _oracle_worst(
        lv.population_block,
        ea.population_eigenvalues,
        {0: 1, 1: 9, 2: 16, 3: 16},
        points,
        points,
        hermitian=True,
    )
    return CheckResult(
        "c03-population-oracle",
        "population blocks m=0..3 vs closed forms, 51 random points",
        worst < 1e-8,
        1e-8,
        worst,
        detail,
    )


def check_singlet_width() -> CheckResult:
    """Singlet width (n-1)*gamma_a + gamma_sigma against block numerics."""
    params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.33, gamma_sigma=0.17)
    basis = build_basis(6)
    rungs = range(2, 7)
    gam = np.array([ea.gamma_n(n, params) for n in rungs])
    worst = max(
        abs(ea.complex_eigenenergies(n, params)[..., 3].imag + g / 2.0)
        for n, g in zip(rungs, gam, strict=True)
    )
    # the pure singlet decay shows up in the population block as -Gamma_n;
    # every rung's block is 16 x 16 at this cutoff, so one stack holds them
    blocks, imag = _square_frame(4).real(
        np.stack([lv.population_block(params, basis, n) for n in rungs])
    )
    detail = ""
    if imag > _IMAG_TOL:
        worst, detail = math.inf, _not_real("a population block", imag)
    else:
        mus = np.linalg.eigvals(blocks)
        worst = max(worst, float(np.abs(mus + gam[:, None]).min(axis=-1).max()))
    return CheckResult(
        "c04-singlet-width",
        "Im eps_n^(4) = -((n-1)*gamma_a + gamma_sigma)/2, n = 2..6",
        worst < 1e-10,
        1e-10,
        worst,
        detail,
    )


def check_sc_boundary() -> CheckResult:
    """Boundary values and the splitting closing exactly there."""
    b1 = ea.sc_boundary(1)
    worst = abs(b1 - math.sqrt(2.0))
    b2 = ea.sc_boundary(2)
    ok = 1.80 <= b2 <= 1.81
    params = SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=4.0 * (b2 + 1e-9), gamma_sigma=0.0
    )
    worst = max(worst, ea.rabi_splitting(2, params))
    return CheckResult(
        "c05-sc-boundary",
        f"boundary(1)=sqrt(2), boundary(2)={b2:.6f} in [1.80, 1.81], "
        "splitting closes at the boundary",
        worst < 1e-9 and ok and abs(b1 - math.sqrt(2.0)) < 1e-12,
        1e-9,
        worst,
    )


def check_splitting_limit() -> CheckResult:
    """splitting/g -> sqrt(4n-2) as gamma_-/g -> 0, n = 1..4."""
    params = SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=4e-4, gamma_sigma=0.0
    )
    worst = max(
        abs(ea.rabi_splitting(n, params) - math.sqrt(4 * n - 2)) for n in range(1, 5)
    )
    return CheckResult(
        "c06-splitting-limit",
        "splitting -> sqrt(4n-2) g at gamma_-/g = 1e-4, n = 1..4",
        worst < 1e-6,
        1e-6,
        worst,
    )


def check_perturbative_order() -> CheckResult:
    """Expansion error scales as the cube of gamma_-/g."""
    us = np.logspace(-3, -1, 9)
    params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=4.0 * us, gamma_sigma=0.0)
    worst_dev = 0.0
    for n in (2, 3):
        exact = ea.splitting_roots(n, params)
        errs = np.max(np.abs(exact - ea.perturbative_splitting(n, params)), axis=-1)
        slope = np.polyfit(np.log10(us), np.log10(errs), 1)[0]
        worst_dev = max(worst_dev, abs(slope - 3.0))
    return CheckResult(
        "c07-perturbative-order",
        "log-log slope of expansion error = 3.0 +- 0.1, n = 2, 3",
        worst_dev <= 0.1,
        0.1,
        worst_dev,
    )


def check_position_merging() -> CheckResult:
    """Loss sweep at gamma_sigma = 0: first-manifold positions merge at
    gamma_a = 4 sqrt(2) g; the second manifold keeps a degenerate-position
    pair with distinct widths."""
    merge_ga = 4.0 * math.sqrt(2.0)
    sweep = SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=np.linspace(merge_ga, 12.0, 25), gamma_sigma=0.0
    )
    pair = ea.complex_eigenenergies(1, sweep)[..., :2]
    worst = float(np.max(np.abs(pair.real - 10.0)))
    below = SystemParams(
        omega0=10.0, delta=0.0, g=1.0, gamma_a=merge_ga - 0.5, gamma_sigma=0.0
    )
    still_split = np.max(np.abs(ea.complex_eigenenergies(1, below)[:2].real - 10.0))

    params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.8, gamma_sigma=0.0)
    levels = ea.complex_eigenenergies(2, params)
    central = levels[np.abs(levels.real - 2 * params.omega0) < 1e-8]
    widths = np.sort(-2.0 * central.imag)
    degenerate_pair = len(central) >= 2 and widths[-1] - widths[0] > 1e-3
    return CheckResult(
        "c08-position-merging",
        "n=1 merges to omega0 beyond gamma_a = 4 sqrt(2) g; n=2 keeps a "
        "degenerate-position pair with distinct widths",
        worst < 1e-8 and still_split > 0.1 and degenerate_pair,
        1e-8,
        worst,
    )


def check_master_equation() -> CheckResult:
    """Trace, hermiticity, positivity, monotone de-excitation and singlet
    isolation along 200-step trajectories."""
    basis = build_basis(2)
    ops = basis.operators
    number = ops.number
    t_grid = np.linspace(0.0, 20.0, 201)
    singlet_idx = np.flatnonzero(basis.matter == list(DickeLabel).index(DickeLabel.SINGLET))

    report = {"trace": 0.0, "herm": 0.0, "neg": 0.0, "dN": -math.inf, "singlet": 0.0}
    for name in ("both-excited", "one-photon"):
        params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.25, gamma_sigma=0.15)
        rho0 = initial_density_matrix({"initial_state": name}, basis)
        traj = lv.evolve(rho0, params, basis, t_grid)
        adj = traj.conj().transpose(0, 2, 1)
        report["trace"] = max(
            report["trace"], float(np.max(np.abs(np.einsum("tii->t", traj) - 1.0)))
        )
        report["herm"] = max(report["herm"], float(np.max(np.abs(traj - adj))))
        report["neg"] = min(report["neg"], float(np.linalg.eigvalsh((traj + adj) / 2).min()))
        exp_n = np.einsum("tij,ji->t", traj, number).real
        report["dN"] = max(report["dN"], float(np.max(np.diff(exp_n))))

    params0 = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.25, gamma_sigma=0.0)
    rho0 = initial_density_matrix({"initial_state": "both-excited"}, basis)
    traj = lv.evolve(rho0, params0, basis, t_grid)
    report["singlet"] = float(
        np.max(np.abs(traj[:, singlet_idx, singlet_idx].real))
    )

    passed = (
        report["trace"] < 1e-10
        and report["herm"] < 1e-12
        and report["neg"] > -1e-8
        and report["dN"] <= 1e-12
        and report["singlet"] < 1e-12
    )
    measured = max(
        report["trace"], report["herm"], -report["neg"], report["dN"], report["singlet"]
    )
    return CheckResult(
        "c09-master-equation",
        "trace/hermiticity/positivity/monotone N/singlet isolation on "
        "200-step trajectories",
        passed,
        1e-8,
        measured,
        detail=str(report),
    )


def check_qrt_identity() -> CheckResult:
    """Regression propagation equals the full-generator two-time formula."""
    start = time.monotonic()
    basis = build_basis(3)
    params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.3, gamma_sigma=0.2)
    rng = np.random.default_rng(11)
    live = range(basis.manifold_slice(3).stop)
    raw = rng.normal(size=(len(live), len(live))) + 1j * rng.normal(
        size=(len(live), len(live))
    )
    block = raw @ raw.conj().T
    rho0 = np.zeros((basis.dim, basis.dim), complex)
    rho0[np.ix_(live, live)] = block / np.trace(block)

    grid = np.linspace(0.0, 4.0, 5)
    op = basis.operators.a
    corr = sp.two_time_correlation("a", rho0, params, basis, grid, grid)

    # rho(t) and the delayed propagation both step with the full generator,
    # a real matrix in the Hermitian frame
    frame = _square_frame(basis.dim)
    gen, imag = frame.real(lv.build_generator(params, basis))
    if imag > _IMAG_TOL:
        worst, detail = math.inf, _not_real("the generator", imag) + "; "
    else:
        # cast once: op @ rho is not Hermitian, so its frame coordinates are complex
        step = expm(gen * (grid[1] - grid[0])).astype(complex)
        direct = np.empty((5, 5), complex)
        rho_vec = frame.to_frame(rho0.reshape(-1))
        for it in range(5):
            rho = frame.from_frame(rho_vec).reshape(basis.dim, basis.dim)
            vec = frame.to_frame((op @ rho).reshape(-1))
            for j in range(5):
                delayed = frame.from_frame(vec).reshape(basis.dim, basis.dim)
                direct[it, j] = np.trace(op.conj().T @ delayed)
                vec = step @ vec
            rho_vec = step @ rho_vec
        worst, detail = float(np.max(np.abs(corr - direct))), ""
    runtime = time.monotonic() - start
    return CheckResult(
        "c10-qrt-identity",
        "regression vs full-generator two-time values in under 10 s",
        worst < 1e-7 and runtime < 10.0,
        1e-7,
        worst,
        detail=f"{detail}runtime {runtime:.1f} s",
    )


def _peak_positions(omega: np.ndarray, values: np.ndarray, floor_frac: float) -> np.ndarray:
    """The ``omega`` of the strict interior maxima of ``values`` that reach
    ``floor_frac`` of its largest value."""
    floor = floor_frac * values.max()
    inner = values[1:-1]
    keep = (inner > values[:-2]) & (inner > values[2:]) & (inner >= floor)
    return omega[1:-1][keep]


def check_spectrum_peaks() -> CheckResult:
    """Spectral maxima against the analytic line list."""
    basis = build_basis(2)
    params = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.05, gamma_sigma=0.05)
    kappa = 0.05

    rho_sym = initial_density_matrix({"initial_state": "symmetric-one"}, basis)
    omega_a = np.linspace(7.0, 13.0, 601)
    series = sp.physical_spectrum(
        "a", rho_sym, params, basis,
        kappa=kappa, collection_time=200.0, omega_grid=omega_a, kernel="decaying",
    )
    step = omega_a[1] - omega_a[0]
    peaks = _peak_positions(omega_a, series.values, 0.2)
    top2 = peaks[np.argsort(-np.interp(peaks, omega_a, series.values))][:2]
    targets = np.array([10.0 - math.sqrt(2.0), 10.0 + math.sqrt(2.0)])
    worst = assignment_distance(np.sort(top2), targets) if top2.size == 2 else math.inf

    rho_exc = initial_density_matrix({"initial_state": "both-excited"}, basis)
    omega_b = np.linspace(5.5, 14.5, 901)
    series_b = sp.physical_spectrum(
        "a", rho_exc, params, basis,
        kappa=kappa, collection_time=150.0, omega_grid=omega_b, kernel="decaying",
    )
    table = sp.peak_table(params, 2)
    positions = table.positions()
    step_b = omega_b[1] - omega_b[0]
    detected = _peak_positions(omega_b, series_b.values, 0.01)
    worst_b = (
        max(float(np.min(np.abs(positions - p))) for p in detected)
        if detected.size
        else math.inf
    )
    n_distinct_m2 = table.for_manifold(2).distinct_positions().size
    passed = (
        worst <= step + 1e-12
        and detected.size >= 2
        and worst_b <= step_b + 1e-12
        and n_distinct_m2 <= 9
    )
    return CheckResult(
        "c11-spectrum-peaks",
        "argmax pair at omega0 +- sqrt(2) g; every detected line in the "
        f"analytic table; {n_distinct_m2} distinct second-block positions",
        passed,
        float(step),
        max(worst, worst_b),
    )


def check_negative_control() -> CheckResult:
    """Closed forms at a 1% larger coupling must fail the coherence oracle."""
    points = _random_parameter_grid(6)
    worst, _ = _oracle_worst(
        lv.regression_block,
        ea.transition_eigenvalues,
        {1: 3, 2: 12},
        points,
        replace(points, g=1.01 * points.g),
    )
    return CheckResult(
        "c12-negative-control",
        "closed forms at a 1% larger g fail the coherence oracle",
        worst > 1e-8,
        1e-8,
        worst,
    )


_CHECKS = {
    "c01-dressed-energies": check_dressed_energies,
    "c02-coherence-oracle": check_coherence_oracle,
    "c03-population-oracle": check_population_oracle,
    "c04-singlet-width": check_singlet_width,
    "c05-sc-boundary": check_sc_boundary,
    "c06-splitting-limit": check_splitting_limit,
    "c07-perturbative-order": check_perturbative_order,
    "c08-position-merging": check_position_merging,
    "c09-master-equation": check_master_equation,
    "c10-qrt-identity": check_qrt_identity,
    "c11-spectrum-peaks": check_spectrum_peaks,
    "c12-negative-control": check_negative_control,
}

ALL_CHECK_IDS = tuple(_CHECKS)


def _matches(check_id: str, pattern: str) -> bool:
    return fnmatch.fnmatch(check_id, pattern) or pattern in check_id


def select_checks(patterns: list[str] | None = None) -> list[str]:
    """Ids of all checks, or of those matching one of the glob patterns.

    A pattern that matches no check id raises :class:`ValueError`.
    """
    if patterns is None:
        return list(ALL_CHECK_IDS)
    for pattern in patterns:
        if not any(_matches(check_id, pattern) for check_id in ALL_CHECK_IDS):
            raise ValueError(f"no check matches {pattern!r}")
    return [
        check_id
        for check_id in ALL_CHECK_IDS
        if any(_matches(check_id, pattern) for pattern in patterns)
    ]


def run_checks(patterns: list[str] | None = None) -> list[CheckResult]:
    """Run all checks (or those whose id matches one of the glob patterns)."""
    return [_CHECKS[check_id]() for check_id in select_checks(patterns)]
