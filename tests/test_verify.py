from types import SimpleNamespace

from tcladder import eigenanalysis, verify
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
