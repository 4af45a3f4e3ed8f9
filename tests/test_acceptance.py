"""Acceptance gate: every criterion of the verification suite must pass.

The criteria live in ``extremalflow.verification`` and are shared with
the ``extremalflow verify`` command; this module runs them one per test
at their pinned tolerances and prints the same pass/fail lines.
"""

import pytest

from extremalflow.verification import CRITERIA, VerificationContext, run_one


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_acceptance_criterion(ctx, number):
    result = run_one(number, ctx)
    print(result.line())
    assert result.passed, result.detail
