"""Acceptance suite: every contract in `contracts.CHECKS`, one test each.

Run as `pytest -s tests/test_acceptance.py` to see one pass/fail line per check.
"""

import pytest

from contracts import CHECKS


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    ok, detail = check()
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"
