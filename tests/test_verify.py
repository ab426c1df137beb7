from types import SimpleNamespace

from tcladder import verify
from tcladder.verify import ALL_CHECK_IDS, check_qrt_identity, select_checks


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
