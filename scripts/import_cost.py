#!/usr/bin/env python3
"""Where ``import fogscope.cli`` spends its time: compiling each module and
creating each dataclass and NamedTuple; and what ``import numpy`` costs,
which ``sweep`` and ``optimize`` add to it.

Runs ``import fogscope.cli`` in N fresh interpreters and prints the medians
of the whole import, of each ``fogscope`` module's compile, and of each
class's creation (``dataclasses._process_class``, or ``NamedTupleMeta``'s
``__new__``), with the class totals by kind.  Each child imports click,
``dataclasses`` and ``typing`` before the clock starts, so the import counts
fogscope's own work, and it reads no bytecode cache, so every module is
compiled from its source.  Two more children per run import numpy alone:
one with ``OPENBLAS_NUM_THREADS=1``, as ``fogscope.cli.run`` sets it, and one
with the variable unset, so that OpenBLAS starts its default thread pool.
This process imports the standard library alone.

    python3 scripts/import_cost.py -n 9
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one child: prints one JSON object of seconds; argv[1] is an empty
# directory taken as the bytecode cache, so that no cached code is read,
# and argv[2] the package directory
PROBE = r"""
import dataclasses, json, os, sys, time, typing
import click
from importlib.machinery import SourceFileLoader

sys.pycache_prefix, sys.dont_write_bytecode = sys.argv[1], True
spans = {"compile": {}, "dataclass": {}, "NamedTuple": {}}

def timed(kind, name_of, call):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = call(*args, **kwargs)
        name = name_of(result, args)
        if name is not None:
            spans[kind][name] = time.perf_counter() - start
        return result
    return wrapper

def fogscope_class(cls, _):
    return (f"{cls.__module__}.{cls.__qualname__}"
            if cls.__module__.partition(".")[0] == "fogscope" else None)

def fogscope_source(_, args):
    path = str(args[-1])
    return path if os.path.dirname(path) == sys.argv[2] else None

dataclasses._process_class = timed("dataclass", fogscope_class,
                                   dataclasses._process_class)
typing.NamedTupleMeta.__new__ = timed("NamedTuple", fogscope_class,
                                      typing.NamedTupleMeta.__new__)
SourceFileLoader.source_to_code = timed("compile", fogscope_source,
                                        SourceFileLoader.source_to_code)
start = time.perf_counter()
import fogscope.cli
spans["import"] = time.perf_counter() - start
print(json.dumps(spans))
"""

# one child: prints the seconds that importing numpy takes
NUMPY_PROBE = ("import time\nstart = time.perf_counter()\nimport numpy\n"
               "print(time.perf_counter() - start)")


def probe(env: dict) -> dict:
    """The seconds one fresh interpreter spends in each span."""
    with tempfile.TemporaryDirectory() as cache:
        out = subprocess.run([sys.executable, "-c", PROBE, cache,
                              str(SRC / "fogscope")], env=env, check=True,
                             capture_output=True, text=True)
    return json.loads(out.stdout)


def numpy_import(env: dict, threads: str | None) -> float:
    """The seconds one fresh interpreter takes to import numpy, with
    ``OPENBLAS_NUM_THREADS`` set to ``threads``, or unset for None."""
    env = {key: value for key, value in env.items()
           if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def module_name(path: str) -> str:
    """``fogscope.cli`` for ``.../src/fogscope/cli.py``."""
    stem = Path(path).stem
    return "fogscope" if stem == "__init__" else f"fogscope.{stem}"


def ms(seconds: list[float]) -> str:
    return f"{statistics.median(seconds) * 1000:8.3f} ms"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=5,
                        help="fresh interpreters (default 5)")
    opts = parser.parse_args()
    if opts.runs < 1:
        parser.error("--runs must be >= 1")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    runs, numpy = [], {"1": [], None: []}
    for _ in range(opts.runs):
        runs.append(probe(env))
        for threads, seconds in numpy.items():
            seconds.append(numpy_import(env, threads))

    print(f"{ms([run['import'] for run in runs])}  import fogscope.cli, "
          f"median of {opts.runs}")
    compiles = {}
    for run in runs:
        for path, seconds in run["compile"].items():
            compiles.setdefault(module_name(path), []).append(seconds)
    print(f"{ms([sum(run['compile'].values()) for run in runs])}  "
          f"compile, {len(compiles)} modules")
    for name, seconds in compiles.items():
        print(f"    {ms(seconds)}  {name}")
    for kind in ("dataclass", "NamedTuple"):
        print(f"{ms([sum(run[kind].values()) for run in runs])}  "
              f"{kind} creation, {len(runs[0][kind])} classes")
        for name in runs[0][kind]:
            print(f"    {ms([run[kind][name] for run in runs])}  {name}")
    classes = [sum(run["dataclass"].values()) + sum(run["NamedTuple"].values())
               for run in runs]
    print(f"{ms(classes)}  class creation in all")
    print(f"{ms(numpy['1'])}  import numpy, OPENBLAS_NUM_THREADS=1 "
          "(as fogscope.cli.run sets it)")
    print(f"{ms(numpy[None])}  import numpy, OPENBLAS_NUM_THREADS unset")


if __name__ == "__main__":
    main()
