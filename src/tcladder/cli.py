"""Command line surface: scenario configs in, plot-ready datasets out.

Subcommands: ``eigen`` (complex eigenenergy sweeps), ``criterion``
(strong-coupling boundary map and splittings), ``evolve`` (master-equation
trajectories), ``spectrum`` (filtered emission spectrum plus the analytic
peak table) and ``verify`` (the full check suite).

Configs are single JSON documents; ``--set key.path=value`` overrides
individual fields.  Rates are given either in units of the coupling
(``units: "g"``, requires ``g = 1``) or as absolute numbers
(``units: "absolute"``).  Every output embeds the fully resolved config so a
dataset is reproducible from its own header.

Exit codes: 0 success, 1 verification or validation failure (an input out
of floating-point range and a failed allocation included), 2 a closed form
failing its own cross-check, 64 usage error (an output that cannot be written
included).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import eigenanalysis as ea
from . import liouvillian as lv
from . import spectrum as sp
from .space import DickeLabel, SystemParams, build_basis

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

__all__ = ["main", "resolve_config", "initial_density_matrix", "DEFAULT_CONFIG"]


class ConfigUsageError(Exception):
    """Structurally broken invocation or config document."""


class ConfigValidationError(Exception):
    """Well-formed config with physically or semantically invalid content."""


DEFAULT_CONFIG: dict = {
    "units": "g",
    "params": {
        "omega0": 10.0,
        "delta": 0.0,
        "g": 1.0,
        "gamma_a": 0.2,
        "gamma_sigma": 0.1,
    },
    "photon_cutoff": 3,
    "initial_state": "both-excited",
    "operator": "a",
    "kappa": None,
    "collection_time": None,
    "grids": {
        "t": {"start": 0.0, "stop": 20.0, "num": 201},
        "omega": {"start": None, "stop": None, "num": 801},
    },
    "sweep": {"parameter": "gamma_a", "start": 0.0, "stop": 12.0, "num": 121},
    "manifolds": [1, 2, 3, 4],
    "spectrum": {
        "kernel": "verbatim",
        "n_time": 512,
        "max_refinements": 3,
        "target_delta": 0.005,
    },
}

NAMED_STATES = {
    "vacuum": (0, DickeLabel.T_MINUS),
    "one-photon": (1, DickeLabel.T_MINUS),
    "both-excited": (0, DickeLabel.T_PLUS),
    "symmetric-one": (0, DickeLabel.T_ZERO),
}

_SWEEPABLE = ("gamma_a", "gamma_sigma", "delta", "g", "omega0")


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigUsageError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigUsageError(f"config key {where} must be an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigUsageError(f"--set expects key.path=value, got {assignment!r}")
    key_path, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key_path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigUsageError(f"--set path {key_path!r} crosses a scalar")
    node[parts[-1]] = value


_INTEGER_FIELDS = (
    ("photon_cutoff", 0),
    ("grids.t.num", 1),
    ("grids.omega.num", 1),
    ("sweep.num", 1),
    ("spectrum.n_time", 1),
    ("spectrum.max_refinements", 0),
)

_NUMBER_FIELDS = (
    "params.omega0",
    "params.delta",
    "params.g",
    "params.gamma_a",
    "params.gamma_sigma",
    "kappa",
    "collection_time",
    "grids.t.start",
    "grids.t.stop",
    "grids.omega.start",
    "grids.omega.stop",
    "sweep.start",
    "sweep.stop",
    "spectrum.target_delta",
)


def _at_path(config: dict, key_path: str):
    value = config
    for part in key_path.split("."):
        value = value[part]
    return value


# bool is an int subclass, but true/false is never a count or a number
def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # the comparison is false for nan and safe for ints too large for a float
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _validate_types(config: dict) -> None:
    for key_path, minimum in _INTEGER_FIELDS:
        value = _at_path(config, key_path)
        if not _is_integer(value) or value < minimum:
            raise ConfigValidationError(
                f"{key_path} must be an integer >= {minimum}, got {json.dumps(value)}"
            )
    for key_path in _NUMBER_FIELDS:
        value = _at_path(config, key_path)
        nullable = _at_path(DEFAULT_CONFIG, key_path) is None
        if not (_is_number(value) or (nullable and value is None)):
            kind = "a finite number or null" if nullable else "a finite number"
            raise ConfigValidationError(
                f"{key_path} must be {kind}, got {json.dumps(value)}"
            )
    manifolds = config["manifolds"]
    if not (
        isinstance(manifolds, list)
        and manifolds
        and all(_is_integer(n) and n >= 1 for n in manifolds)
    ):
        raise ConfigValidationError(
            f"manifolds must be a nonempty list of integers >= 1, got {json.dumps(manifolds)}"
        )
    state = config["initial_state"]
    if isinstance(state, str):
        if state not in NAMED_STATES:
            raise ConfigValidationError(
                f"unknown initial_state {state!r}; named states: {sorted(NAMED_STATES)}"
            )
    elif isinstance(state, list):
        labels = tuple(label.value for label in DickeLabel)
        for row in state:
            if not (
                isinstance(row, list)
                and len(row) == 4
                and _is_integer(row[0])
                and row[1] in labels
                and _is_number(row[2])
                and _is_number(row[3])
            ):
                raise ConfigValidationError(
                    f"initial_state row {json.dumps(row)} is not "
                    f"[photons, matter, re, im] with matter in {list(labels)}"
                )
    else:
        raise ConfigValidationError(
            f"initial_state must be a name or amplitude list, got {json.dumps(state)}"
        )


def resolve_config(
    config_path: str | None, overrides: list[str] | None = None
) -> dict:
    """Load, override, merge with defaults, and sanity check a config."""
    user: dict = {}
    if config_path is not None:
        try:
            user = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigUsageError(f"cannot read config file {config_path}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigUsageError(f"config is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigUsageError("config document must be a JSON object")
    for assignment in overrides or []:
        _apply_set(user, assignment)
    config = _merge(DEFAULT_CONFIG, user)

    if config["units"] not in ("g", "absolute"):
        raise ConfigUsageError("units must be 'g' or 'absolute'")
    _validate_types(config)
    if config["units"] == "g" and config["params"]["g"] != 1.0:
        raise ConfigValidationError("units='g' requires params.g = 1")
    if config["sweep"]["parameter"] not in _SWEEPABLE:
        raise ConfigValidationError(
            f"sweep.parameter must be one of {_SWEEPABLE}"
        )
    if config["units"] == "g" and config["sweep"]["parameter"] == "g":
        raise ConfigValidationError(
            "sweeping g is only meaningful with units='absolute'"
        )
    if config["operator"] not in sp.OPERATOR_TAGS:
        raise ConfigValidationError(f"operator must be one of {sp.OPERATOR_TAGS}")
    if config["spectrum"]["kernel"] not in ("verbatim", "decaying"):
        raise ConfigValidationError("spectrum.kernel must be 'verbatim' or 'decaying'")
    target_delta = config["spectrum"]["target_delta"]
    if target_delta < 0:
        raise ConfigValidationError(
            f"spectrum.target_delta must be >= 0, got {json.dumps(target_delta)}"
        )
    return config


def system_params(config: dict) -> SystemParams:
    try:
        return SystemParams(**config["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigValidationError(f"invalid params: {exc}")


def initial_density_matrix(config: dict, basis) -> np.ndarray:
    """Build the initial density matrix of a resolved config.

    ``initial_state`` is a named state or a list of explicit
    ``[photons, matter, re, im]`` amplitude rows; the vector must be
    normalized (deviations below 1e-6 are renormalized away).  Whether the
    photon cutoff holds the state exactly is decided where it is propagated
    (:func:`tcladder.liouvillian.top_manifold`).
    """
    spec = config["initial_state"]
    vec = np.zeros(basis.dim, dtype=complex)
    if isinstance(spec, str):
        photons, label = NAMED_STATES[spec]
        if photons > basis.photon_cutoff:
            raise ConfigValidationError(
                f"initial_state {spec!r} needs photon_cutoff >= {photons}"
            )
        vec[basis.index_of(photons, label)] = 1.0
    else:
        for row in spec:
            photons, matter, re, im = row
            if not 0 <= photons <= basis.photon_cutoff:
                raise ConfigValidationError(
                    f"initial_state row {json.dumps(row)} exceeds photon_cutoff"
                )
            vec[basis.index_of(photons, DickeLabel(matter))] += complex(re, im)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ConfigValidationError(
                f"initial amplitudes have norm {norm:.8f}, expected 1"
            )
        vec /= norm
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

# a float column prints shortest-exact, a count column as an integer
_FLOAT, _COUNT = "%.17g", "%d"


def _metadata_lines(command: str, config: dict) -> list[str]:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return [
        f"# tcladder_version = {__version__}",
        f"# command = {command}",
        f"# units = {config['units']}",
        f"# config = {blob}",
    ]


def _write_csv(
    path: Path,
    command: str,
    config: dict,
    columns: list[tuple[str, str]],
    rows: Iterable[tuple],
) -> None:
    """Write ``rows`` under the metadata block; ``columns`` pairs each header
    name with its ``%`` format (``_FLOAT`` or ``_COUNT``)."""
    lines = _metadata_lines(command, config)
    lines.append(",".join(name for name, _ in columns))
    row_format = ",".join(fmt for _, fmt in columns)
    lines.extend(row_format % row for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def eigen_rows(config: dict) -> Iterator[tuple]:
    """Sweep rows (sweep_value, n, branch, re_eps, im_eps) in sweep order,
    made one at a time as the writer consumes them."""
    params = system_params(config)
    sweep = config["sweep"]
    values = np.linspace(sweep["start"], sweep["stop"], int(sweep["num"]))
    sweep_params = replace(params, **{sweep["parameter"]: values})
    rungs = [ea.complex_eigenenergies(n, sweep_params) for n in config["manifolds"]]
    ns = [n for n, rung in zip(config["manifolds"], rungs) for _ in range(rung.shape[-1])]
    branches = [k + 1 for rung in rungs for k in range(rung.shape[-1])]
    # point-major: every level of the first sweep point, then of the next
    eps = np.concatenate(rungs, axis=-1)
    return zip(
        np.repeat(values, len(ns)).tolist(),
        ns * values.size,
        branches * values.size,
        eps.real.ravel().tolist(),
        eps.imag.ravel().tolist(),
    )


def cmd_eigen(config: dict, out_dir: Path) -> int:
    rows = eigen_rows(config)
    _write_csv(
        out_dir / "eigen.csv",
        "eigen",
        config,
        [("sweep_value", _FLOAT), ("n", _COUNT), ("branch", _COUNT),
         ("re_eps", _FLOAT), ("im_eps", _FLOAT)],
        rows,
    )
    return EXIT_OK


def cmd_criterion(config: dict, out_dir: Path) -> int:
    params = system_params(config)
    if params.delta != 0.0:
        raise ConfigValidationError(
            f"criterion maps the resonant case only; got params.delta = {params.delta:g}"
        )
    ea._require_coupling(params)  # both tables are in units of g
    g = params.g
    ys = np.linspace(1e-4, 2.5, 400)
    # scalar on purpose: libm pow, not numpy's vectorised one, so every
    # contour value keeps its last bit
    contour_rows = [(float(y), float(ea.sc_contour(y))) for y in ys]
    _write_csv(
        out_dir / "criterion_contour.csv",
        "criterion",
        config,
        [("gamma_minus_over_g", _FLOAT), ("n_contour", _FLOAT)],
        contour_rows,
    )

    sweep = replace(params, gamma_a=4.0 * ys * g, gamma_sigma=0.0)
    split_rows = []
    for n in config["manifolds"]:
        splitting = ea.rabi_splitting(n, sweep) / g
        split_rows.extend(zip(ys.tolist(), [n] * ys.size, splitting.tolist()))
    _write_csv(
        out_dir / "criterion_splitting.csv",
        "criterion",
        config,
        [("gamma_minus_over_g", _FLOAT), ("n", _COUNT), ("splitting_over_g", _FLOAT)],
        split_rows,
    )
    return EXIT_OK


def cmd_evolve(config: dict, out_dir: Path) -> int:
    params = system_params(config)
    basis = build_basis(config["photon_cutoff"])
    rho0 = initial_density_matrix(config, basis)
    grid_cfg = config["grids"]["t"]
    if grid_cfg["start"] != 0.0:
        raise ConfigValidationError("grids.t.start must be 0")
    t_grid = np.linspace(grid_cfg["start"], grid_cfg["stop"], int(grid_cfg["num"]))
    traj = lv.evolve(rho0, params, basis, t_grid)

    ops = basis.operators
    photon_number = ops.a.conj().T @ ops.a
    pop1 = ops.sigma1.conj().T @ ops.sigma1
    pop2 = ops.sigma2.conj().T @ ops.sigma2
    singlet_idx = np.flatnonzero(basis.matter == list(DickeLabel).index(DickeLabel.SINGLET))
    rows = []
    for t, rho in zip(t_grid, traj):
        herm = (rho + rho.conj().T) / 2.0
        rows.append(
            (
                float(t),
                float(np.trace(rho).real),
                float(np.trace(rho @ ops.number).real),
                float(np.trace(rho @ photon_number).real),
                float(np.trace(rho @ pop1).real),
                float(np.trace(rho @ pop2).real),
                float(np.sum(rho[singlet_idx, singlet_idx]).real),
                float(np.linalg.eigvalsh(herm).min()),
            )
        )
    _write_csv(
        out_dir / "evolve.csv",
        "evolve",
        config,
        [
            (name, _FLOAT)
            for name in ("t", "tr_rho", "expect_n", "expect_photons", "expect_sigma1",
                         "expect_sigma2", "singlet_population", "min_eig_rho")
        ],
        rows,
    )
    return EXIT_OK


def cmd_spectrum(config: dict, out_dir: Path) -> int:
    params = system_params(config)
    basis = build_basis(config["photon_cutoff"])
    rho0 = initial_density_matrix(config, basis)

    omega_cfg = config["grids"]["omega"]
    w0, g = params.omega0, params.g
    start = omega_cfg["start"] if omega_cfg["start"] is not None else w0 - 5 * g
    stop = omega_cfg["stop"] if omega_cfg["stop"] is not None else w0 + 5 * g
    omega_grid = np.linspace(start, stop, int(omega_cfg["num"]))

    spec_cfg = config["spectrum"]
    series = sp.physical_spectrum(
        config["operator"],
        rho0,
        params,
        basis,
        kappa=config["kappa"],
        collection_time=config["collection_time"],
        omega_grid=omega_grid,
        kernel=spec_cfg["kernel"],
        n_time=int(spec_cfg["n_time"]),
        max_refinements=int(spec_cfg["max_refinements"]),
        target_delta=float(spec_cfg["target_delta"]),
    )
    if not series.converged:
        print(
            f"warning: spectrum quadrature delta {series.convergence_delta:.2e} "
            f"above target {spec_cfg['target_delta']:.2e}",
            file=sys.stderr,
        )
    _write_csv(
        out_dir / "spectrum.csv",
        "spectrum",
        config,
        [("omega", _FLOAT), ("s", _FLOAT)],
        zip(series.omega_grid.tolist(), series.values.tolist()),
    )

    table = sp.peak_table(params, max(lv.top_manifold(rho0, basis), 1))
    sidecar = {
        "tcladder_version": __version__,
        "command": "spectrum",
        "config": config,
        "resolved": {
            "kappa": series.kappa,
            "collection_time": series.collection_time,
            "kernel": series.kernel,
            "n_time": series.n_time,
            "convergence_delta": series.convergence_delta,
            "converged": series.converged,
            "refinements": [
                {"n_time": n_time, "delta": delta} for n_time, delta in series.refinements
            ],
        },
        "peak_table": [asdict(row) for row in table.rows],
    }
    (out_dir / "spectrum_meta.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks, select_checks

    try:
        check_ids = select_checks(args.checks)
    except ValueError as exc:
        raise ConfigUsageError(str(exc)) from None
    results = run_checks(check_ids)
    for result in results:
        print(result.line())
    if args.json:
        Path(args.json).write_text(
            json.dumps([asdict(r) for r in results], sort_keys=True, indent=2) + "\n"
        )
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON scenario config")
    parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        metavar="KEY.PATH=VALUE",
        help="override a config field (repeatable)",
    )
    parser.add_argument("--out", default=".", help="output directory")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tcladder", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tcladder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("eigen", "complex eigenenergies along a parameter sweep"),
        ("criterion", "strong-coupling boundary contour and Rabi splittings"),
        ("evolve", "master-equation trajectory diagnostics"),
        ("spectrum", "filtered emission spectrum plus analytic peak table"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument(
        "--checks", action="append", help="glob of check ids to run (repeatable)"
    )
    verify.add_argument("--json", help="write a machine-readable report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "verify":
            return cmd_verify(args)
        config = resolve_config(args.config, args.overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dispatch = {
            "eigen": cmd_eigen,
            "criterion": cmd_criterion,
            "evolve": cmd_evolve,
            "spectrum": cmd_spectrum,
        }
        # a finite input that drives the numerics to inf or nan fails here
        # instead of writing them
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return dispatch[args.command](config, out_dir)
    except (ConfigUsageError, OSError) as exc:
        print(f"tcladder: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigValidationError, ValueError) as exc:
        print(f"tcladder: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OverflowError, FloatingPointError) as exc:
        print(f"tcladder: input out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        print(f"tcladder: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAIL
    except ea.SplittingCrossCheckError as exc:
        print(f"tcladder: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
