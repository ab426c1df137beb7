"""The benchmark's workloads: inputs drawn from a seed, and output checks.

A workload turns a seed into a list of operations.  An operation is one
``tcladder.cli.main`` call (two for ``closed-form-sweep``) and its check, which
runs after the timed call and compares the written files with the independent
model in :mod:`oracle`.  Operations cycle through the list, so a run that
completes more operations than there are inputs repeats them in order.

Rates are drawn by a low-discrepancy sequence with a seeded offset: op ``k``
takes ``u = frac(offset + k * step)``.  Any few consecutive operations then
cover the whole range, so a run's median does not hinge on one seed's corner
of it, while different seeds still give different inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle

N_INPUTS = 32
_STEPS = np.array([0.6180339887498949, 0.41421356237309515])  # frac(golden), frac(sqrt 2)


def spread(seed: int, dims: int) -> np.ndarray:
    """``N_INPUTS x dims`` points in [0, 1), a seeded rotation of a Kronecker
    sequence."""
    offset = np.random.default_rng(seed).random(dims)
    return (offset + np.arange(N_INPUTS)[:, None] * _STEPS[:dims]) % 1.0


def read_csv(path: Path) -> np.ndarray:
    """Numeric body of a tcladder CSV (comment lines and header dropped)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _sets(**fields) -> list[str]:
    out = []
    for key, value in fields.items():
        out += ["--set", f"{key.replace('__', '.')}={json.dumps(value)}"]
    return out


def _local_maxima(omega: np.ndarray, values: np.ndarray, floor_frac: float) -> np.ndarray:
    floor = floor_frac * values.max()
    inner = values[1:-1]
    keep = (inner > values[:-2]) & (inner > values[2:]) & (inner >= floor)
    return omega[1:-1][keep]


class Workload:
    """Base: ``calls(k)`` gives the argv lists of operation ``k``; ``check(k,
    stdout)`` returns what is wrong with its outputs (empty when correct)."""

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out = out_dir

    def calls(self, k: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, k: int, stdout: str) -> list[str]:
        raise NotImplementedError


class CascadeSpectrum(Workload):
    name = "cascade-spectrum"

    OMEGA = (5.5, 14.5)

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.rates = 0.015 + 0.01 * spread(seed, 2)  # gamma_a, gamma_sigma
        self.n_omega = 181 if smoke else 901

    def calls(self, k):
        ga, gs = self.rates[k % N_INPUTS]
        return [["spectrum", *_sets(
            initial_state="both-excited", photon_cutoff=2,
            params__gamma_a=float(ga), params__gamma_sigma=float(gs),
            kappa=0.02, collection_time=150.0,
            grids__omega__start=self.OMEGA[0], grids__omega__stop=self.OMEGA[1],
            grids__omega__num=self.n_omega, spectrum__kernel="decaying",
        ), "--out", str(self.out)]]

    def check(self, k, stdout):
        errors = []
        meta = json.loads((self.out / "spectrum_meta.json").read_text())
        if meta["resolved"]["converged"] is not True:
            errors.append(f"quadrature not converged: {meta['resolved']}")
        rows = read_csv(self.out / "spectrum.csv")
        if rows.shape != (self.n_omega, 2) or not np.all(np.isfinite(rows)):
            return errors + [f"spectrum.csv has shape {rows.shape} or non-finite values"]
        ga, gs = self.rates[k % N_INPUTS]
        model = oracle.Model(2, 10.0, 0.0, 1.0, float(ga), float(gs))
        lines = oracle.emission_lines(model, 2)
        omega, values = rows[:, 0], rows[:, 1]
        step = omega[1] - omega[0]
        peaks = _local_maxima(omega, values, 0.01)
        if peaks.size < 2:
            errors.append(f"only {peaks.size} spectral maxima above 1% of the peak")
        for p in peaks:
            miss = float(np.min(np.abs(lines - p)))
            if miss > step + 1e-12:
                errors.append(f"maximum at {p:.4f} is {miss:.4f} from every analytic line")
        return errors


class DeepEvolve(Workload):
    name = "deep-evolve"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        u = spread(seed, 2)
        self.rates = np.column_stack([0.1 + 0.2 * u[:, 0], 0.05 + 0.1 * u[:, 1]])
        self.cutoff, self.num = (2, 11) if smoke else (8, 201)
        self.sample_every = 1 if smoke else 20

    def calls(self, k):
        ga, gs = self.rates[k % N_INPUTS]
        return [["evolve", *_sets(
            initial_state="both-excited", photon_cutoff=self.cutoff,
            params__gamma_a=float(ga), params__gamma_sigma=float(gs),
            grids__t__start=0.0, grids__t__stop=20.0, grids__t__num=self.num,
        ), "--out", str(self.out)]]

    def check(self, k, stdout):
        rows = read_csv(self.out / "evolve.csv")
        if rows.shape != (self.num, 8) or not np.all(np.isfinite(rows)):
            return [f"evolve.csv has shape {rows.shape} or non-finite values"]
        errors = []
        drift = float(np.max(np.abs(rows[:, 1] - 1.0)))
        if drift > 1e-10:
            errors.append(f"trace drift {drift:.2e} > 1e-10")
        if rows[:, 7].min() < -1e-8:
            errors.append(f"min_eig_rho {rows[:, 7].min():.2e} < -1e-8")
        rise = float(np.max(np.diff(rows[:, 2])))
        if rise > 1e-12:
            errors.append(f"<N> increases by {rise:.2e}")
        ga, gs = self.rates[k % N_INPUTS]
        # Both-excited never leaves rungs 0..2, so two photons hold it exactly.
        model = oracle.Model(2, 10.0, 0.0, 1.0, float(ga), float(gs))
        sampled = rows[:: self.sample_every]
        exact = oracle.trajectory_rows(model, model.state(0, 1, 1), sampled[:, 0])
        worst = float(np.max(np.abs(sampled - exact)))
        if worst > 1e-8:
            errors.append(f"rows differ from exact expm propagation by {worst:.2e}")
        return errors


class ClosedFormSweep(Workload):
    name = "closed-form-sweep"

    RUNG_SIZES = {1: 3, 2: 4, 3: 4, 4: 4}
    N_SAMPLED = 20

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        u = spread(seed, 2)
        first = int(np.random.default_rng(seed).integers(2))
        self.parameter = [("gamma_a", "gamma_sigma")[(first + k) % 2] for k in range(N_INPUTS)]
        self.stop = 6.0 + 6.0 * u[:, 0]
        self.num = 11 if smoke else 2000

    def calls(self, k):
        i = k % N_INPUTS
        out = ["--out", str(self.out)]
        eigen = _sets(sweep__parameter=self.parameter[i], sweep__start=0.0,
                      sweep__stop=float(self.stop[i]), sweep__num=self.num)
        return [["eigen", *eigen, *out], ["criterion", *out]]

    def check(self, k, stdout):
        i = k % N_INPUTS
        rows = read_csv(self.out / "eigen.csv")
        per_point = sum(self.RUNG_SIZES.values())
        if rows.shape != (self.num * per_point, 5) or not np.all(np.isfinite(rows)):
            return [f"eigen.csv has shape {rows.shape} or non-finite values"]
        errors = []
        contour = read_csv(self.out / "criterion_contour.csv")
        splitting = read_csv(self.out / "criterion_splitting.csv")
        if contour.shape != (400, 2) or splitting.shape != (1600, 3):
            errors.append(f"criterion shapes {contour.shape}, {splitting.shape}")
        elif not (np.all(np.isfinite(contour)) and np.all(np.isfinite(splitting))):
            errors.append("criterion CSVs hold non-finite values")

        values = np.unique(rows[:, 0])
        rng = np.random.default_rng([self.seed, k])
        sampled = rng.choice(values, size=min(self.N_SAMPLED, values.size), replace=False)
        params = dict(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.2, gamma_sigma=0.1)
        worst = 0.0
        for value in sampled:
            model = oracle.Model(4, **{**params, self.parameter[i]: float(value)})
            at = rows[rows[:, 0] == value]
            for n, size in self.RUNG_SIZES.items():
                got = at[at[:, 1] == n]
                if got.shape[0] != size:
                    return errors + [f"rung {n} at {value} has {got.shape[0]} rows"]
                eps = got[:, 3] + 1j * got[:, 4]
                worst = max(worst, oracle.assignment_distance(eps, oracle.rung_energies(model, n)))
        if worst > 1e-9:
            errors.append(f"eigen rows differ from the effective Hamiltonian by {worst:.2e}")
        return errors


class VerifyGate(Workload):
    name = "verify-gate"

    def calls(self, k):
        # verify --json is not used: it crashes on c07's numpy.bool result.
        return [["verify", "--checks", "c01*"] if self.smoke else ["verify"]]

    def check(self, k, stdout):
        lines = stdout.splitlines()
        expected = 1 if self.smoke else 12
        passed = sum(line.startswith("PASS") for line in lines)
        if passed != expected or len(lines) != expected:
            return [f"{passed} PASS lines of {len(lines)}, expected {expected}"]
        return []


WORKLOADS = {w.name: w for w in (CascadeSpectrum, DeepEvolve, ClosedFormSweep, VerifyGate)}
