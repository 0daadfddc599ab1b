#!/usr/bin/env python3
"""Where ``optimize()`` spends its time on the benchmark's three search
scenarios: default, tx-term and TDP-bound.

Runs each scenario in N fresh interpreters, the scenarios taking turns, and
prints the medians of two readings per scenario.  The first is one
``optimize()`` call with nothing wrapped, timed after numpy and fogscope are
imported: the search's share of an ``optimize`` command.  The second is the
same call again with five functions wrapped, which gives each layer's self
time per generation: ranking (``_constrained_ranks``), crowding (``_crowd``),
variation (``_offspring``), evaluation (``_evaluate``) and, as the rest of
``optimize``'s own time, the survivor cut with the concatenation and the
take around it.  The final front (``_build_front``) is wrapped too and left
out of every line.  The benchmark's traced replay times ``optimize`` whole
and reports variation as not separated; this script splits it.

Each scenario runs in its own interpreter because in-process timings depend
on what ran earlier in the process.  Children run with
``OPENBLAS_NUM_THREADS=1``, as ``fogscope.cli.run`` sets it, unless the
variable is set.  This process imports the standard library alone.

    python3 scripts/search_cost.py -n 5
    python3 scripts/search_cost.py -n 1 --pop 8 --gens 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the benchmark's search scenarios (perfbench/workloads.py), as changes to
# the built-in default scenario, which has the benchmark's base parameters
SCENARIOS = ("default", "tx-term", "tdp-bound")

LAYERS = {"_constrained_ranks": "ranking (_constrained_ranks)",
          "_crowd": "crowding (_crowd)",
          "_offspring": "variation (_offspring)",
          "_evaluate": "evaluation (_evaluate)"}
CUT = "survivor cut (optimize's own time)"

# one child: argv[1:5] are the scenario, population, generations and seed,
# the rest the functions to time; prints one JSON object of seconds
PROBE = r"""
import json, sys, time
from dataclasses import replace
import numpy
from fogscope import optimizer
from fogscope.scenario import default_scenario

which, pop, gens, seed = sys.argv[1], *map(int, sys.argv[2:5])
scenario = default_scenario()
if which == "tx-term":
    scenario = replace(scenario, modification1_enabled=True,
                       fog=replace(scenario.fog, tx_energy_per_bit=2.0e-8))
elif which == "tdp-bound":
    scenario = replace(scenario, fog=replace(scenario.fog, tdp=2.0607))
problem = optimizer.OptProblem(scenario)
cfg = optimizer.OptConfig(population_size=pop, generations=gens, seed=seed)

start = time.perf_counter()
optimizer.optimize(problem, cfg)
plain = time.perf_counter() - start

spans = {}

def timed(name, call):
    def wrapper(*args):
        start = time.perf_counter()
        result = call(*args)
        spans[name] = spans.get(name, 0.0) + time.perf_counter() - start
        return result
    return wrapper

for name in (*sys.argv[5:], "_build_front"):
    setattr(optimizer, name, timed(name, getattr(optimizer, name)))
start = time.perf_counter()
optimizer.optimize(problem, cfg)
traced = time.perf_counter() - start
print(json.dumps({"optimize": plain, "traced": traced, "spans": spans}))
"""


def probe(env: dict, scenario: str, opts) -> dict:
    """The seconds one fresh interpreter spends in each reading."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE, scenario, str(opts.pop), str(opts.gens),
         str(opts.seed), *LAYERS],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def ms(seconds: list[float]) -> str:
    return f"{statistics.median(seconds) * 1000:8.3f} ms"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", "--runs", type=int, default=5,
                        help="fresh interpreters per scenario (default 5)")
    parser.add_argument("--pop", type=int, default=200,
                        help="population size (default 200, as benchmarked)")
    parser.add_argument("--gens", type=int, default=100,
                        help="generations (default 100, as benchmarked)")
    parser.add_argument("--seed", type=int, default=3, help="default 3")
    opts = parser.parse_args()
    if opts.runs < 1:
        parser.error("--runs must be >= 1")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    runs = {scenario: [] for scenario in SCENARIOS}
    for _ in range(opts.runs):
        for scenario in SCENARIOS:
            runs[scenario].append(probe(env, scenario, opts))

    for scenario, readings in runs.items():
        print(f"{scenario}: pop {opts.pop} x {opts.gens} generations, seed "
              f"{opts.seed}, median of {opts.runs}")
        print(f"{ms([run['optimize'] for run in readings])}  optimize()")
        print(f"{ms([run['traced'] for run in readings])}  "
              "optimize(), layers timed")
        for name, label in LAYERS.items():
            per_gen = [run["spans"][name] / opts.gens for run in readings]
            print(f"    {ms(per_gen)}  {label} per generation")
        own = [(run["traced"] - sum(run["spans"].values())) / opts.gens
               for run in readings]
        print(f"    {ms(own)}  {CUT} per generation")


if __name__ == "__main__":
    main()
