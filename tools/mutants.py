"""Mutation check: does the test suite, or `ngnopt verify`, notice a broken rule?

Each entry of tools/mutants.json names a file, an exact old text that
occurs once in it, and the new text that breaks it. For each mutant this
script copies the repository tree (without .git and caches) to a
temporary directory and applies the mutant there. It then runs the
Tier-1 suite with -x, less tests/test_mutants.py (which checks the list
itself), and `ngnopt verify` at its defaults. It prints the first test
that failed, or `survived`, and whether `verify` failed; the source tree
is never written.

    python tools/mutants.py

Exit status: 0 when Tier-1 kills every mutant, 1 when one survives, 2
when a mutant's old text does not occur exactly once. The count of
mutants that `verify` alone kills is reported but not gated on.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from outputs import ngnopt, run

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.json"
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out")
# The test that each old text occurs once fails on every mutated copy, so
# it is left out of the runs here.
_LIST_TEST = "tests/test_mutants.py"


def load_mutants() -> list:
    """The mutant list; each old text must occur exactly once in its file."""
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    for m in mutants:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if count != 1:
            raise ValueError(f"mutant {m['id']}: old text occurs {count} times in {m['file']}")
    return mutants


def _first_failure(output: str) -> str:
    """The test named on pytest's first FAILED or ERROR summary line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see pytest output)"


def check(mutant: dict) -> tuple:
    """(what Tier-1 reports: the killing test or `survived`, whether
    `verify` fails) for one mutant applied to a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="ngnopt-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        path = tree / mutant["file"]
        path.write_text(path.read_text(encoding="utf-8").replace(mutant["old"], mutant["new"]),
                        encoding="utf-8")
        tests = run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors", f"--ignore={_LIST_TEST}"], tree,
                    PYTHONDONTWRITEBYTECODE="1")
        verify = ngnopt(tree, ["verify", "--out", str(Path(tmp) / "verify.csv")],
                        PYTHONDONTWRITEBYTECODE="1")
    return ("survived" if tests.returncode == 0 else _first_failure(tests.stdout.decode()),
            verify.returncode != 0)


def main() -> int:
    try:
        mutants = load_mutants()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survived, verify_kills = [], 0
    for m in mutants:
        start = time.perf_counter()
        tier1, verify_killed = check(m)
        verify_kills += verify_killed
        if tier1 == "survived":
            survived.append(m["id"])
        print(f"{m['id']:34s} tier1: {tier1}  verify: {'killed' if verify_killed else 'survived'}"
              f"  ({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"Tier-1 killed {len(mutants) - len(survived)} of {len(mutants)}; "
          f"verify alone killed {verify_kills} of {len(mutants)}")
    if survived:
        print(f"survived Tier-1: {', '.join(survived)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
