import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcladder.cli import (
    EXIT_FAIL,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    DEFAULT_CONFIG,
    ConfigUsageError,
    ConfigValidationError,
    initial_density_matrix,
    main,
    resolve_config,
)
from tcladder import eigenanalysis as ea
from tcladder.space import DickeLabel, build_basis


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestConfigHandling:
    def test_defaults_resolve(self):
        config = resolve_config(None)
        assert config["params"]["g"] == 1.0
        assert config["units"] == "g"

    def test_unknown_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"spam": 1}))
        assert main(["eigen", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{nope")
        assert main(["eigen", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_file_is_usage_error(self, tmp_path):
        assert (
            main(["eigen", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code = main(["eigen", "--config", str(tmp_path), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    def test_invalid_rate_is_validation_failure(self, tmp_path):
        code = main(
            ["eigen", "--set", "params.gamma_a=-1", "--out", str(tmp_path)]
        )
        assert code == EXIT_FAIL

    def test_g_units_requires_unit_coupling(self, tmp_path):
        code = main(["eigen", "--set", "params.g=2.0", "--out", str(tmp_path)])
        assert code == EXIT_FAIL

    def test_sweeping_g_needs_absolute_units(self, tmp_path):
        code = main(["eigen", "--set", "sweep.parameter=g", "--out", str(tmp_path)])
        assert code == EXIT_FAIL

    @pytest.mark.parametrize(
        "command, assignment",
        [
            ("spectrum", "spectrum.n_time=0"),
            ("spectrum", "grids.omega.num=0"),
            ("eigen", "photon_cutoff=true"),
            ("spectrum", "spectrum.max_refinements=-1"),
            ("criterion", "params.delta=0.5"),
            ("eigen", "sweep.num=2.5"),
            ("eigen", "manifolds=3"),
            ("eigen", "manifolds=[true]"),
            ("eigen", "sweep.stop=null"),
            ("eigen", 'sweep.start="a"'),
            ("evolve", 'grids.t.stop="x"'),
            ("spectrum", 'grids.omega.start="a"'),
            ("spectrum", "collection_time=[1]"),
            ("evolve", 'initial_state=[[0,"T-1","1",0]]'),
            ("evolve", 'initial_state=[[0,"T-1",null,0]]'),
            ("evolve", 'initial_state=[[1.7,"T-1",1,0]]'),
            ("evolve", 'initial_state=[[true,"T-1",1,0]]'),
        ],
    )
    def test_invalid_input_fails_with_one_line(
        self, tmp_path, capsys, command, assignment
    ):
        code = main([command, "--set", assignment, "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("tcladder: ") and err.count("\n") == 1
        assert assignment.partition("=")[0] in err
        assert not list(tmp_path.iterdir())

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code = main(["eigen", "--set", "sweep.num=2", "--out", str(target)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("tcladder: ") and err.count("\n") == 1

    def test_out_below_a_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code = main(["eigen", "--set", "sweep.num=2", "--out", str(target / "sub")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("tcladder: ") and err.count("\n") == 1

    def test_set_overrides_nested_field(self, tmp_path):
        code = main(
            [
                "eigen",
                "--set", "sweep.num=3",
                "--set", "sweep.stop=1.0",
                "--set", "manifolds=[1]",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        meta, header, rows = read_csv(tmp_path / "eigen.csv")
        config = json.loads(meta["config"])
        assert config["sweep"]["num"] == 3
        assert len(rows) == 9  # 3 sweep points x 3 first-manifold branches


class TestInitialStates:
    def test_named_states(self):
        basis = build_basis(2)
        config = dict(DEFAULT_CONFIG)
        for name, (photons, label) in {
            "vacuum": (0, DickeLabel.T_MINUS),
            "one-photon": (1, DickeLabel.T_MINUS),
            "both-excited": (0, DickeLabel.T_PLUS),
            "symmetric-one": (0, DickeLabel.T_ZERO),
        }.items():
            config["initial_state"] = name
            rho = initial_density_matrix(config, basis)
            k = basis.index_of(photons, label)
            assert rho[k, k] == 1.0
            assert np.trace(rho) == pytest.approx(1.0)

    def test_amplitude_list(self):
        basis = build_basis(2)
        config = dict(DEFAULT_CONFIG)
        r = 1 / math.sqrt(2)
        config["initial_state"] = [[0, "T0", r, 0.0], [0, "S", 0.0, r]]
        rho = initial_density_matrix(config, basis)
        t0 = basis.index_of(0, DickeLabel.T_ZERO)
        s = basis.index_of(0, DickeLabel.SINGLET)
        assert rho[t0, t0] == pytest.approx(0.5)
        assert rho[s, s] == pytest.approx(0.5)
        assert rho[t0, s] == pytest.approx(-0.5j)

    def test_unnormalized_amplitudes_rejected(self, tmp_path):
        code = main(
            [
                "evolve",
                "--set", 'initial_state=[[0, "T0", 1.0, 0.0], [0, "S", 1.0, 0.0]]',
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_FAIL

    def test_cutoff_too_small_for_state(self, tmp_path, capsys):
        for command in ("evolve", "spectrum"):
            code = main(
                [
                    command,
                    "--set", "photon_cutoff=1",
                    "--set", 'initial_state="both-excited"',
                    "--out", str(tmp_path),
                ]
            )
            assert code == EXIT_FAIL
            err = capsys.readouterr().err
            assert err.startswith("tcladder: initial state reaches manifold 2")
            assert err.count("\n") == 1


class TestEigenCommand:
    def test_byte_identical_reruns(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code = main(["eigen", "--set", "sweep.num=11", "--out", str(d)])
            assert code == EXIT_OK
        assert (dirs[0] / "eigen.csv").read_bytes() == (dirs[1] / "eigen.csv").read_bytes()

    def test_rows_match_direct_evaluation(self, tmp_path):
        code = main(
            [
                "eigen",
                "--set", "sweep.start=0.4",
                "--set", "sweep.stop=0.4",
                "--set", "sweep.num=1",
                "--set", "manifolds=[1,2]",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        meta, header, rows = read_csv(tmp_path / "eigen.csv")
        assert header == ["sweep_value", "n", "branch", "re_eps", "im_eps"]
        assert len(rows) == 7  # 3 + 4 branches
        from tcladder.eigenanalysis import complex_eigenenergies
        from tcladder.space import SystemParams

        p = SystemParams(omega0=10.0, delta=0.0, g=1.0, gamma_a=0.4, gamma_sigma=0.1)
        expected = {
            (n, lv.branch): lv.value
            for n in (1, 2)
            for lv in complex_eigenenergies(n, p)
        }
        for row in rows:
            key = (int(row[1]), int(row[2]))
            assert float(row[3]) == pytest.approx(expected[key].real, abs=1e-15)
            assert float(row[4]) == pytest.approx(expected[key].imag, abs=1e-15)

    def test_lossless_rows_reduce_to_dressed(self, tmp_path):
        code = main(
            [
                "eigen",
                "--set", "sweep.start=0.0",
                "--set", "sweep.stop=0.0",
                "--set", "sweep.num=1",
                "--set", "params.gamma_sigma=0.0",
                "--set", "manifolds=[2]",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(tmp_path / "eigen.csv")
        positions = sorted(float(r[3]) for r in rows)
        assert np.allclose(
            positions, [20 - math.sqrt(6), 20, 20, 20 + math.sqrt(6)], atol=1e-12
        )
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_singlet_width_column(self, tmp_path):
        code = main(
            [
                "eigen",
                "--set", "sweep.num=5",
                "--set", "sweep.stop=2.0",
                "--set", "params.gamma_sigma=0.0",
                "--set", "manifolds=[2]",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(tmp_path / "eigen.csv")
        for row in rows:
            if int(row[2]) == 4:
                gamma_a = float(row[0])
                assert float(row[4]) == pytest.approx(-gamma_a / 2.0, abs=1e-12)


class TestCriterionCommand:
    def test_contour_and_splitting_files(self, tmp_path):
        code = main(["criterion", "--set", "manifolds=[1,2,3,4]", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, header_c, rows_c = read_csv(tmp_path / "criterion_contour.csv")
        assert header_c == ["gamma_minus_over_g", "n_contour"]
        ys = np.array([float(r[0]) for r in rows_c])
        ns = np.array([float(r[1]) for r in rows_c])
        # the contour crosses n = 1 at gamma_-/g = sqrt(2)
        crossing = np.interp(math.sqrt(2), ys, ns)
        assert abs(crossing - 1.0) < 1e-3

        _, header_s, rows_s = read_csv(tmp_path / "criterion_splitting.csv")
        assert header_s == ["gamma_minus_over_g", "n", "splitting_over_g"]
        by_n = {}
        for row in rows_s:
            by_n.setdefault(int(row[1]), []).append((float(row[0]), float(row[2])))
        for n in (1, 2, 3, 4):
            ys_n, splits = zip(*sorted(by_n[n]))
            # smallest loss: splitting approaches sqrt(4n-2)
            assert abs(splits[0] - math.sqrt(4 * n - 2)) < 1e-4
            # beyond the boundary the splitting is identically zero
            from tcladder.eigenanalysis import sc_boundary

            boundary = sc_boundary(n)
            for y, s in zip(ys_n, splits):
                if y > boundary + 1e-6:
                    assert s == 0.0


class TestNumericalFailure:
    def test_cross_check_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a wrong discriminant gives roots that fail the companion cubic
        monkeypatch.setattr(ea, "discriminant", lambda n, params: 0.3 + 0.0j)
        code = main(["eigen", "--set", "sweep.num=2", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("tcladder: numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, assignment",
        [
            # c = 2 gamma_- + i delta squares past the largest double
            pytest.param("eigen", "params.delta=1e300", id="eigen"),
            pytest.param("spectrum", "params.delta=1e300", id="spectrum"),
            # the detector kernel and the quadrature overflow
            pytest.param("spectrum", "kappa=1e300", id="spectrum-kappa"),
            pytest.param("spectrum", "collection_time=1e300", id="spectrum-collection-time"),
            pytest.param("spectrum", "grids.omega.stop=1e308", id="spectrum-omega-stop"),
            # the matrix exponential overflows
            pytest.param("evolve", "params.gamma_a=1e300", id="evolve-gamma-a"),
        ],
    )
    def test_overflowing_input_is_validation_failure(
        self, tmp_path, capsys, command, assignment
    ):
        small = ["grids.t.num=5", "grids.omega.num=16", "spectrum.n_time=8",
                 "spectrum.max_refinements=1", assignment]
        argv = [command]
        for item in small:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(tmp_path)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("tcladder: input out of floating-point range: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no nan or inf written

    def test_other_arithmetic_error_is_not_numerical_failure(self, tmp_path, monkeypatch):
        def broken(n, params):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(ea, "complex_eigenenergies", broken)
        with pytest.raises(ZeroDivisionError):
            main(["eigen", "--set", "sweep.num=2", "--out", str(tmp_path)])


class TestEvolveCommand:
    def test_columns_and_conservation(self, tmp_path):
        code = main(
            [
                "evolve",
                "--set", "grids.t.num=41",
                "--set", "grids.t.stop=8.0",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        meta, header, rows = read_csv(tmp_path / "evolve.csv")
        assert header == [
            "t", "tr_rho", "expect_n", "expect_photons", "expect_sigma1",
            "expect_sigma2", "singlet_population", "min_eig_rho",
        ]
        assert len(rows) == 41
        for row in rows:
            assert abs(float(row[1]) - 1.0) < 1e-10
            assert float(row[7]) > -1e-8
        expect_n = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(expect_n, expect_n[1:]))

    def test_singlet_column_zero_without_emitter_decay(self, tmp_path):
        code = main(
            [
                "evolve",
                "--set", "params.gamma_sigma=0.0",
                "--set", "grids.t.num=21",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(tmp_path / "evolve.csv")
        assert all(abs(float(r[6])) < 1e-12 for r in rows)


class TestSpectrumCommand:
    def test_output_files_and_sidecar(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--set", 'initial_state="symmetric-one"',
                "--set", "photon_cutoff=1",
                "--set", "kappa=0.1",
                "--set", "collection_time=40.0",
                "--set", "grids.omega.start=7.0",
                "--set", "grids.omega.stop=13.0",
                "--set", "grids.omega.num=301",
                "--set", "spectrum.n_time=128",
                "--set", "spectrum.max_refinements=2",
                "--set", 'spectrum.kernel="decaying"',
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        meta, header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["omega", "s"]
        assert len(rows) == 301
        sidecar = json.loads((tmp_path / "spectrum_meta.json").read_text())
        assert sidecar["resolved"]["kappa"] == 0.1
        assert sidecar["resolved"]["kernel"] == "decaying"
        assert "convergence_delta" in sidecar["resolved"]
        positions = [row["position"] for row in sidecar["peak_table"]]
        assert positions == sorted(positions)
        assert {row["m"] for row in sidecar["peak_table"]} == {1}

        omega = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        top2 = np.sort(omega[np.argsort(values)[-2:]])
        assert np.allclose(
            top2, [10 - math.sqrt(2), 10 + math.sqrt(2)], atol=2 * (omega[1] - omega[0])
        )

    def test_non_convergence_reported_once(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "spectrum",
                    "--set", "spectrum.n_time=8",
                    "--set", "spectrum.max_refinements=1",
                    "--set", "spectrum.target_delta=1e-9",
                    "--set", "grids.omega.num=16",
                    "--out", str(tmp_path),
                ]
            )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("warning: spectrum quadrature delta ") and err.count("\n") == 1
        sidecar = json.loads((tmp_path / "spectrum_meta.json").read_text())
        assert sidecar["resolved"]["converged"] is False

    def test_vacuum_spectrum_all_zero(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--set", 'initial_state="vacuum"',
                "--set", "spectrum.n_time=32",
                "--set", "spectrum.max_refinements=1",
                "--set", "grids.omega.num=41",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(tmp_path / "spectrum.csv")
        assert all(abs(float(r[1])) < 1e-12 for r in rows)


class TestVerifyCommand:
    def test_fast_check_passes_and_reports(self, tmp_path):
        report = tmp_path / "report.json"
        code = main(["verify", "--checks", "c01*", "--json", str(report)])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload[0]["check_id"] == "c01-dressed-energies"
        assert payload[0]["passed"] is True

    def test_json_report_of_numpy_valued_check(self, tmp_path):
        # c07 computes its pass flag and residual with numpy
        report = tmp_path / "report.json"
        code = main(["verify", "--checks", "c07*", "--json", str(report)])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload[0]["check_id"] == "c07-perturbative-order"
        assert payload[0]["passed"] is True

    def test_unmatched_check_pattern_is_usage_error(self, capsys):
        assert main(["verify", "--checks", "c01*", "--checks", "zzz"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "tcladder: no check matches 'zzz'\n"
        assert captured.out == ""

    def test_unknown_flag_is_usage_error(self):
        assert main(["eigen", "--frobnicate"]) == EXIT_USAGE


def _leaf_paths(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(),  # includes nan and both infinities
    st.text(max_size=4),
    st.sampled_from(["T-1", "T0", "S", "T1", "vacuum", "absolute", "decaying"]),
)
_JSON_VALUES = st.one_of(
    _SCALARS, st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)), max_size=3)
)
_ASSIGNMENTS = st.lists(
    st.builds(
        "{}={}".format,
        st.sampled_from(sorted(_leaf_paths(DEFAULT_CONFIG))),
        _JSON_VALUES.map(json.dumps),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# A warning is an error, so none slips past the one-line check.  Deprecation
# warnings stay ignored: Python does not print them for library code either,
# and Hypothesis raises one itself while it reports a failing example.
@pytest.mark.filterwarnings("error", "ignore::DeprecationWarning")
class TestFuzz:
    """Random JSON values at random config leaves never escape ``main``."""

    @settings(max_examples=150)
    @given(command=st.sampled_from(["eigen", "criterion"]), assignments=_ASSIGNMENTS)
    def test_main_exits_cleanly(self, fuzz_out, command, assignments):
        argv = [command, "--set", "sweep.num=4"]
        for assignment in assignments:
            argv += ["--set", assignment]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(fuzz_out)])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_NUMERICAL, EXIT_USAGE)
        assert err.getvalue().count("\n") <= 1

    @settings(max_examples=150)
    @given(command=st.sampled_from(["evolve", "spectrum"]), assignments=_ASSIGNMENTS)
    def test_propagating_commands_exit_cleanly(self, fuzz_out, command, assignments):
        argv = [command]
        for assignment in (
            "grids.t.num=5",
            "grids.omega.num=16",
            "spectrum.n_time=8",
            "spectrum.max_refinements=1",
            *assignments,
        ):
            argv += ["--set", assignment]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(fuzz_out)])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_NUMERICAL, EXIT_USAGE)
        assert err.getvalue().count("\n") <= 1

    @settings(max_examples=150)
    @given(assignments=_ASSIGNMENTS)
    def test_initial_state_of_resolved_config(self, assignments):
        try:
            config = resolve_config(None, assignments)
        except (ConfigUsageError, ConfigValidationError):
            return
        basis = build_basis(config["photon_cutoff"])
        try:
            rho = initial_density_matrix(config, basis)
        except ConfigValidationError:
            return
        assert rho.shape == (basis.dim, basis.dim)
        assert np.trace(rho).real == pytest.approx(1.0)


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcladder.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "tcladder" in proc.stdout

    def test_subprocess_usage_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcladder.cli", "eigen", "--no-such-flag"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE
