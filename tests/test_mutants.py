"""The mutant table in ``tests/mutants.py`` still applies to the source it mutates."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.label)
def test_each_mutant_applies_to_exactly_one_place(mutant):
    text = (ROOT / "src" / "scoreplay" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.label)
def test_each_mutant_names_its_killing_tests_or_why_it_is_equivalent(mutant):
    """A mutant that is run names tests that exist; an equivalent one names none."""
    assert bool(mutant.tests) != bool(mutant.equivalent)
    for test in mutant.tests:
        path, _, name = test.partition("::")
        function = re.sub(r"\[.*\]$", "", name)
        assert re.search(rf"^def {function}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), test


def test_labels_are_unique():
    labels = [m.label for m in MUTANTS]
    assert len(set(labels)) == len(labels)
