#!/usr/bin/env python3
"""Re-run the mutation checks listed in a data file against this tree.

    python3 scripts/mutants.py [FILE]

FILE, ``scripts/mutants.json`` by default, is a JSON list of mutants.  Each
is an object with a ``name``, a ``file`` relative to the repository root,
an exact ``snippet`` of that file, its ``replacement``, the pytest node ids
in ``tests`` and the outcome it should have, ``expect``: ``caught`` or
``survives``; a ``note`` says what the mutant changes or why it survives.

The script copies the working tree, without ``.git`` and caches, into a
temporary directory.  There it first runs the tests of every mutant once on
the unmutated copy, which must pass.  Then it applies one mutant at a time
and runs that mutant's tests under pytest (``-x``, no bytecode written): a
mutant is caught when a test fails and survived when all pass.  It is
stale when its snippet is missing from its file or found more than once,
and then runs nothing.  One line is printed per mutant.  The script exits
1 when any outcome differs from the one expected, or the unmutated tests
fail, and 2 on a usage error.  This process imports the standard library
alone.

    python3 scripts/mutants.py
    python3 scripts/mutants.py my_mutants.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".bench_out", ".benchmarks",
                                 "results", "*.egg-info")
EXPECTED = {"caught": "caught", "survives": "survived"}
FIELDS = ("name", "file", "snippet", "replacement", "tests", "expect")


def load(path: Path) -> list[dict]:
    """The mutants of ``path``; ValueError names the first bad entry."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    for mutant in mutants:
        if (not isinstance(mutant, dict) or not set(FIELDS) <= mutant.keys()
                or mutant["expect"] not in EXPECTED or not mutant["tests"]):
            raise ValueError(f"{str(mutant)[:60]!r} is no object with "
                             f"{', '.join(FIELDS)}, a nonempty tests list "
                             "and expect caught or survives")
    return mutants


def matches(tree: Path, mutant: dict) -> bool:
    """Whether the mutant's snippet is in its file exactly once."""
    source = tree / mutant["file"]
    return (source.is_file() and source.read_text(encoding="utf-8")
            .count(mutant["snippet"]) == 1)


def pytest(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def outcome(tree: Path, mutant: dict) -> str:
    """caught, survived or stale; any other pytest exit is named."""
    if not matches(tree, mutant):
        return "stale"
    source = tree / mutant["file"]
    text = source.read_text(encoding="utf-8")
    source.write_text(text.replace(mutant["snippet"], mutant["replacement"]),
                      encoding="utf-8")
    try:
        code = pytest(tree, mutant["tests"])
    finally:
        source.write_text(text, encoding="utf-8")
    return {0: "survived", 1: "caught"}.get(code, f"pytest exit {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", nargs="?", type=Path,
                        default=ROOT / "scripts" / "mutants.json",
                        help="a JSON list of mutants")
    path = parser.parse_args().file
    try:
        mutants = load(path)
    except (OSError, ValueError) as exc:
        parser.error(f"{path}: {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        tests = list(dict.fromkeys(test for mutant in mutants
                                   if matches(tree, mutant)
                                   for test in mutant["tests"]))
        if tests and pytest(tree, tests):
            print("the unmutated tree fails the mutants' tests")
            return 1
        unexpected = 0
        for mutant in mutants:
            result = outcome(tree, mutant)
            expected = EXPECTED[mutant["expect"]]
            unexpected += result != expected
            print(f"{result:<9} {mutant['name']}" + (
                "" if result == expected else f"  (expected {expected})"),
                flush=True)
    print(f"{len(mutants)} mutant(s), {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
