"""The pipeline decodes what tests/ledger.csv says, trial by trial.

A change that moves a decode outcome on purpose rewrites the ledger with
tests/ledger.py and lists each changed row; see that module.
"""

from ledger import PATH, ledger_lines


def test_decode_outcomes_match_the_ledger():
    assert ledger_lines() == PATH.read_text(encoding="utf-8").splitlines()
