"""Every pinned case still observes exactly what ``tests/golden.json`` holds.

See :mod:`tests.golden` for the cases and how to regenerate the file when a
change is meant to alter behaviour.
"""

import json

import pytest

from . import golden


def test_golden_file_covers_exactly_the_cases():
    pinned = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(golden.CASES)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_case_matches_golden(name):
    golden.check(name)
