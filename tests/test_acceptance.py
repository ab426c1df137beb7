"""Acceptance gate: one test per verification criterion.

Each criterion prints its pass/fail line with the measured residual so the
suite output doubles as the acceptance report.  The same checks back the
``tcladder verify`` command.
"""

import pytest

from tcladder.verify import ALL_CHECK_IDS, run_checks


@pytest.mark.parametrize("check_id", ALL_CHECK_IDS)
def test_acceptance_criterion(check_id, capsys):
    (result,) = run_checks([check_id])
    assert result.check_id == check_id
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, (
        f"{result.check_id} failed: measured {result.measured:.3e} vs "
        f"tolerance {result.tolerance:.1e} ({result.description}) {result.detail}"
    )
