"""The mutant list of ``mutants/`` (run by ``mutants/run.py``, outside
testpaths) names exact edits: each old text must occur exactly once in its
file, so an edit can neither go stale nor land in the wrong place, and the
test each mutant names must exist."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_catching_test_exists(mutant):
    test_file, *_, test_name = mutant["caught_by"].split("::")
    assert f"def {test_name}(" in (ROOT / test_file).read_text()

