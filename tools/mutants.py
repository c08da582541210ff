"""Mutation score: apply each listed source edit to a fresh copy and run tier-1.

Run from the root of an exported copy of the repository, not a git working
tree::

    mkdir ../export && git archive HEAD | tar -x -C ../export
    cd ../export && python tools/mutants.py --out MUTANTS.json

Each entry of ``tools/mutants.json`` is one named mutant: a ``file``, an
exact ``old`` source string that occurs there once, and its ``new``
replacement.  The unmutated tree must pass tier-1 first.  Then, for each
mutant, the tree is copied to a fresh temporary directory, the edit applied
there and tier-1 run with ``-x``; the mutant is killed when that run fails,
and the report names the first failing test.  In a mutated copy
:data:`LIST_TEST`, which requires every entry's ``old`` text in place, is
deselected: it would fail on the applied edit itself.  An entry with an
``equivalent`` reason is one no test can kill, and is expected to survive.
Exits 1 when a mutant survives that is not marked equivalent, or one marked
equivalent is killed.  Standard library only; at about 6 s per mutant it is
kept out of tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
TIMEOUT_S = 600
# tier-1 as ROADMAP.md gives it, stopping at the first failure
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# the tier-1 test that the list is current, which no mutated tree passes
LIST_TEST = "tests/test_tools.py::test_every_mutant_edits_text_found_once_in_its_file"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".benchmarks", ".perfbench_out")


def run_tier1(tree: Path, extra: tuple[str, ...] = ()) -> str | None:
    """None when tier-1, with the ``extra`` pytest arguments, passes in
    ``tree``, else its first failing test."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    try:
        run = subprocess.run(TIER1 + list(extra), cwd=tree, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    tail = (run.stdout + run.stderr).strip().splitlines()[-1:]
    return f"exit {run.returncode}: " + "".join(tail)


def mutate(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    source = path.read_text(encoding="utf-8")
    count = source.count(mutant["old"])
    if count != 1:
        sys.exit(f"mutant {mutant['name']}: its old text occurs {count} times in "
                 f"{mutant['file']}, not once; the list is out of date")
    path.write_text(source.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default="MUTANTS.json", help="report path (JSON)")
    args = parser.parse_args(argv)
    if (ROOT / ".git").exists():
        sys.exit(f"{ROOT} is a git working tree; run this on an exported copy")
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(ROOT, clean, ignore=SKIP)
        failure = run_tier1(clean)
        if failure:
            sys.exit(f"the unmutated tree fails tier-1 ({failure}); no score")
        results = []
        for i, mutant in enumerate(mutants):
            tree = Path(scratch) / f"mutant-{i}"
            shutil.copytree(clean, tree)
            mutate(tree, mutant)
            failure = run_tier1(tree, ("--deselect", LIST_TEST))
            shutil.rmtree(tree)
            result = {"name": mutant["name"], "file": mutant["file"],
                      "status": "survived" if failure is None else "killed",
                      "first_failure": failure}
            if "equivalent" in mutant:
                result["equivalent"] = mutant["equivalent"]
            results.append(result)
            print(f"{result['status']:8}  {mutant['name']}  {failure or ''}", flush=True)

    unexpected = [r["name"] for r in results
                  if (r["status"] == "survived") != ("equivalent" in r)]
    report = {
        "mutants": results,
        "killed": sum(r["status"] == "killed" for r in results),
        "survived": sum(r["status"] == "survived" for r in results),
        "unexpected": unexpected,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{report['killed']} killed, {report['survived']} survived, "
          f"{len(unexpected)} unexpected; report in {args.out}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
