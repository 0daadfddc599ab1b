#!/usr/bin/env python3
"""Compare the commands of two fogscope trees, byte for byte.

    python3 scripts/trees.py bytes A B [--corpus FILE] [-- CMD...]

Each side is a directory, or else a git rev of this repository, which is
extracted with ``git archive`` into a temporary directory.  ``bytes`` runs
each command as ``python -m fogscope.cli CMD`` once with each tree's
``src`` first on ``PYTHONPATH``, under ``SOURCE_DATE_EPOCH=1700000000`` and
``OPENBLAS_NUM_THREADS=1``, in a fresh working directory with a fresh
``FOGSCOPE_OUT`` directory; no run writes bytecode into a tree.  ``{root}``
in a command names the tree, as in
``evaluate --scenario {root}/scenarios/tx_term.yaml --r 0.3``.  It compares
the exit code, stdout, stderr (the temporary paths replaced) and every file
the run wrote, by SHA-256, and prints one line per command, with the first
difference.  It exits 1 if any command differs, and 2 on a usage error.

A command is one shell-quoted string of CLI arguments.  A corpus file holds
one command a line; blank lines and lines starting with ``#`` are skipped.
This process imports the standard library alone.

    python3 scripts/trees.py bytes HEAD~1 . --corpus scripts/bytes_corpus.txt
    python3 scripts/trees.py bytes HEAD . -- presets "evaluate --r 0.5"
"""

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {"SOURCE_DATE_EPOCH": "1700000000", "OPENBLAS_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}


def tree(side: str, scratch: Path) -> Path:
    """The tree a side names: the directory, or the rev extracted."""
    if Path(side).is_dir():
        return Path(side).resolve()
    dest = Path(tempfile.mkdtemp(dir=scratch))
    archive = subprocess.run(["git", "archive", side], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        print(f"trees.py: {side!r} is no directory or git rev: "
              f"{archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        sys.exit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest


def run(root: Path, command: str) -> dict:
    """Exit code, stdout, stderr and the SHA-256 of each written file of
    one command run in ``root``."""
    with tempfile.TemporaryDirectory() as tmp:
        out, cwd = Path(tmp, "out"), Path(tmp, "cwd")
        cwd.mkdir()
        args = [arg.replace("{root}", str(root))
                for arg in shlex.split(command)]
        path = os.pathsep.join(filter(None, [str(root / "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fogscope.cli", *args], cwd=cwd,
            capture_output=True, env={**os.environ, **ENV, "PYTHONPATH": path,
                                      "FOGSCOPE_OUT": str(out)})
        files = {str(file.relative_to(tmp)):
                 hashlib.sha256(file.read_bytes()).hexdigest()
                 for file in sorted(Path(tmp).rglob("*")) if file.is_file()}
    # the run's directory is made after the tree, so it holds no tree
    stderr = proc.stderr.replace(tmp.encode(), b"{tmp}")
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": stderr.replace(str(root).encode(), b"{root}"),
            "files": files}


def first_difference(a: dict, b: dict) -> str:
    """The first way two runs differ, or the empty string."""
    if a["exit code"] != b["exit code"]:
        return f"exit code {a['exit code']} != {b['exit code']}"
    for stream in ("stdout", "stderr"):
        lines = zip(a[stream].splitlines(True) + [b""],
                    b[stream].splitlines(True) + [b""])
        for number, (x, y) in enumerate(lines, 1):
            if x != y:
                return f"{stream} line {number}: {x[:60]!r} != {y[:60]!r}"
    for name in sorted(a["files"].keys() | b["files"].keys()):
        x, y = (side["files"].get(name, "missing") for side in (a, b))
        if x != y:
            return f"file {name}: sha256 {x[:12]} != {y[:12]}"
    return ""


def bytes_command(a: str, b: str, commands: list[str]) -> int:
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        roots = [tree(side, Path(scratch)) for side in (a, b)]
        for command in commands:
            difference = first_difference(*(run(root, command)
                                             for root in roots))
            differ += bool(difference)
            print(f"DIFF  {command}  --  {difference}" if difference
                  else f"same  {command}", flush=True)
    print(f"{len(commands)} command(s), {differ} differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    subcommands = parser.add_subparsers(dest="command", required=True)
    compare = subcommands.add_parser(
        "bytes", help="run each command in both trees and compare its output")
    compare.add_argument("a", help="a directory or a git rev")
    compare.add_argument("b", help="a directory or a git rev")
    compare.add_argument("--corpus", type=argparse.FileType(encoding="utf-8"),
                         help="a file of commands, one a line")
    compare.add_argument("commands", nargs="*", metavar="CMD",
                         help='CLI arguments as one string, e.g. "presets"')
    opts = parser.parse_args()
    commands = list(opts.commands)
    if opts.corpus is not None:
        lines = [line.strip() for line in opts.corpus]
        commands += [line for line in lines
                     if line and not line.startswith("#")]
    if not commands:
        compare.error("no command given: name a corpus or commands")
    return bytes_command(opts.a, opts.b, commands)


if __name__ == "__main__":
    sys.exit(main())
