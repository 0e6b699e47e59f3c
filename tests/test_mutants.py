"""The committed mutant list stays applicable: tools/mutants.py applies each
mutant by replacing its old text, which must occur exactly once in its
file, so an edit that moves or rewrites a mutated line fails here rather
than leaving the list stale."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_each_mutant_old_text_occurs_once_in_its_file(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
