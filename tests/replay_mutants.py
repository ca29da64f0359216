"""Replay the mutation probe: each mutant of `mutants.py`, applied alone to a
copy of the tree, against the whole test suite run with `pytest -x`.

    python tests/replay_mutants.py          # every mutant
    python tests/replay_mutants.py 0 6      # mutants 0 and 6 only

Prints a line per mutant (killed or survived, and what was expected) and
the kill count, and exits 1 when an outcome is not the expected one.  A
killed mutant takes a few seconds and a surviving one the whole suite, so
a full replay takes minutes; it is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(
    ".git", ".perfbench", "runs", "__pycache__", ".pytest_cache", ".hypothesis"
)


def replay(path: str, old: str, new: str) -> str:
    """'killed' or 'survived': the suite's verdict on one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the mutant's old text is not there exactly once: {old!r}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return "killed" if proc.returncode else "survived"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    killed = unexpected = 0
    for i in chosen:
        path, old, new, expected = MUTANTS[i]
        outcome = replay(path, old, new)
        killed += outcome == "killed"
        ok = (outcome == "killed") == (expected == "killed")
        unexpected += not ok
        first = old.strip().splitlines()[0]
        print(f"{i:3} {outcome:8} {'' if ok else 'UNEXPECTED '}{path}: {first[:60]}", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed, {unexpected} unexpected outcomes")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
