#!/usr/bin/env python3
"""Peak resident memory of fogscope commands.

Runs each command line given, as ``python -m fogscope.cli ARGS``, N times,
and prints the median peak RSS (``ru_maxrss``) of each in MiB with its
exit code.  Every command is a subprocess of this process, which imports
the standard library alone: a child starts with the high-water mark of
the process it was started from, so a larger parent would inflate it.
Rounds alternate between the commands.  Artifacts go to a temporary
directory, and stdout and stderr to the null device.

    python3 scripts/peak_rss.py -n 7 "sweep --r-steps 201" "evaluate --r 0.5"
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak(args: list[str], env: dict) -> tuple[int, float]:
    """(exit code, peak RSS in MiB) of one run of the CLI."""
    proc = subprocess.Popen([sys.executable, "-m", "fogscope.cli", *args],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=5,
                        help="runs of each command (default 5)")
    parser.add_argument("commands", nargs="+", metavar="COMMAND",
                        help='CLI arguments as one string, e.g. "sweep"')
    opts = parser.parse_args()
    if opts.runs < 1:
        parser.error("--runs must be >= 1")
    commands = [shlex.split(command) for command in opts.commands]
    peaks: list[list[float]] = [[] for _ in commands]
    codes: list[set[int]] = [set() for _ in commands]
    with tempfile.TemporaryDirectory() as out_dir:
        env = {**os.environ, "FOGSCOPE_OUT": out_dir,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        for _ in range(opts.runs):
            for i, args in enumerate(commands):
                code, mib = peak(args, env)
                codes[i].add(code)
                peaks[i].append(mib)
    for command, mibs, exits in zip(opts.commands, peaks, codes):
        print(f"{statistics.median(mibs):8.2f} MiB  "
              f"[{min(mibs):.2f}, {max(mibs):.2f}]  "
              f"exit {','.join(map(str, sorted(exits)))}  {command}")


if __name__ == "__main__":
    main()
