import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from tcladder import eigenanalysis, liouvillian, verify
from tcladder.verify import (
    ALL_CHECK_IDS,
    check_dressed_energies,
    check_qrt_identity,
    select_checks,
)


class TestSelection:
    def test_all_by_default(self):
        assert select_checks() == list(ALL_CHECK_IDS)

    def test_glob_and_substring(self):
        assert select_checks(["c0[12]*", "qrt"]) == [
            "c01-dressed-energies",
            "c02-coherence-oracle",
            "c10-qrt-identity",
        ]


def test_qrt_line_does_not_depend_on_runtime(monkeypatch):
    results = []
    for runtime in (1.0, 3.0):
        ticks = iter([0.0, runtime])
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        results.append(check_qrt_identity())
    first, second = results
    assert first.passed and second.passed
    assert first.detail != second.detail
    assert first.line() == second.line()


def test_dressed_energies_check_reads_the_closed_form(monkeypatch):
    closed_form = eigenanalysis.complex_eigenenergies
    monkeypatch.setattr(
        eigenanalysis, "complex_eigenenergies", lambda n, params: closed_form(n, params) + 1e-6
    )
    assert not check_dressed_energies().passed


class TestOracle:
    """The coherence oracle builds one block stack per rung and matches every
    lane against its own closed forms."""

    POINTS = verify._random_parameter_grid(51)

    def _worst(self, closed_form_points, expected_dims=None):
        return verify._oracle_worst(
            liouvillian.regression_block,
            eigenanalysis.transition_eigenvalues,
            expected_dims or {1: 3, 2: 12},
            self.POINTS,
            closed_form_points,
        )

    def test_one_wrong_lane_is_seen(self):
        worst, _ = self._worst(self.POINTS)
        assert worst < 1e-8
        g = np.where(np.arange(51) == 17, 1.01, 1.0)
        worst, detail = self._worst(replace(self.POINTS, g=g))
        assert worst > 1e-8
        assert detail == ""

    def test_wrong_block_dimension_reads_infinite(self):
        assert self._worst(self.POINTS, {1: 3, 2: 9}) == (math.inf, "block m=2 has dim 12")

    def test_a_closed_form_sweep_of_other_length_reads_infinite(self):
        short = verify._random_parameter_grid(50)
        assert self._worst(short) == (math.inf, "m=1: lanes (51,) (50,) (51,)")

    def test_grid_is_one_sweep_whose_prefix_is_the_shorter_grid(self):
        assert self.POINTS.shape == (51,)
        short = verify._random_parameter_grid(6)
        for name in ("delta", "gamma_a", "gamma_sigma"):
            assert np.array_equal(getattr(short, name), getattr(self.POINTS, name)[:6])
