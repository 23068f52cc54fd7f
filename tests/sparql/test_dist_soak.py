"""The E25 soak's gate has no hole: every wrong answer and every run's
ticket audit reaches :meth:`DistSoakReport.verify`.

Regressions for two ways a bad campaign used to pass: clean-run parity was a
bare ``assert`` (stripped under ``python -O``, never counted), and chaos runs
that ended in a wrong answer or an unflagged partial skipped the ticket
audit.
"""

import pytest

from repro.errors import ClusterError
from repro.soaks.dist import (
    QUERY_POOL,
    DistSoakConfig,
    _DistSoak,
    run_dist_soak,
)

CONFIG = DistSoakConfig()  # the CI smoke shape: 160 chaos runs, floor 100


def test_clean_campaign_verifies():
    report = run_dist_soak(CONFIG)
    report.verify()
    assert report.wrong_answers == 0 and report.ticket_leaks == 0


def test_a_wrong_clean_answer_fails_verify_with_a_typed_error():
    soak = _DistSoak(CONFIG)
    soak.expected[QUERY_POOL[0]] = ["poisoned"]
    report = soak.run()  # no AssertionError: the mismatch is counted
    # Both clean runs of the poisoned text, plus its completed chaos runs.
    assert report.wrong_answers > 2
    with pytest.raises(ClusterError, match="wrong_answers"):
        report.verify()


def test_wrong_answer_runs_are_still_ticket_audited():
    class Leaky(_DistSoak):
        def _run(self, text, runtime):
            result, run = super()._run(text, runtime)
            if runtime.injector is not None:  # chaos phase only
                run.tickets_released -= 1
            return result, run

    soak = Leaky(CONFIG)
    soak.expected[QUERY_POOL[0]] = ["poisoned"]
    report = soak.run()
    completed_or_wrong = report.chaos_runs - (
        report.typed_aborts + report.stranded_aborts
    )
    # Every chaos run that returned — right or wrong — was audited.
    assert report.ticket_leaks == completed_or_wrong > report.completed
