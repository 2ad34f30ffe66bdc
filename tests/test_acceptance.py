"""Acceptance suite: one case per criterion of ``insdel.acceptance``, the
same criteria ``insdel selftest`` runs.

Each criterion prints exactly one PASS/FAIL line on the live terminal.
"""

import contextlib

import pytest

from insdel.acceptance import CRITERIA


@contextlib.contextmanager
def reported(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"criterion {number:2d} PASS  {label}")


@pytest.mark.parametrize(
    "number",
    range(1, len(CRITERIA) + 1),
    ids=[f"{number:02d}-{name}" for number, (name, _, _) in enumerate(CRITERIA, 1)],
)
def test_criterion(number, capsys):
    _, label, check = CRITERIA[number - 1]
    with reported(capsys, number, label):
        check()
