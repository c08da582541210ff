"""The mutant list that ``tools/mutants.py`` applies matches the source."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_edits_text_found_once_in_its_file():
    # a stale entry otherwise surfaces only partway through a mutation run
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    names = [mutant["name"] for mutant in mutants]
    assert len(set(names)) == len(names)
    for mutant in mutants:
        source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        assert source.count(mutant["old"]) == 1, mutant["name"]
        assert mutant["new"] != mutant["old"], mutant["name"]
