"""The known mutants of ``tools/mutants.py`` still name code that exists.

The script itself runs outside the tier-1 suite (it runs one test per
mutant on an edited copy); this checks only that each mutant's old text
occurs exactly once in its file and that its test exists, so a refactor
that moves the code updates the list in the same change.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name.replace(" ", "-") for m in MUTANTS])
def test_each_mutant_edits_text_that_occurs_once_and_names_a_test(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new
    path, name = mutant.test.split("::")
    assert f"\ndef {name}(" in (ROOT / path).read_text()
