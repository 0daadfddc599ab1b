"""The four CLI workloads: seeded inputs, command cycles and the closed loop.

Each workload drives ``python -m fogscope.cli`` as a subprocess from one
client, one command at a time, and checks every output before the next
command starts.  Commands run in cycles over a fixed list of command
kinds, and the metrics take medians per kind.  Before each command the
loop times one run of ``reference.py``; the gated timing metrics are
the command figures relative to its median, which cancels most of a
shared host's slow phases.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from fogscope.optimizer import OptProblem, brute_force_front, hypervolume
from fogscope.scenario import load_scenario

import checks
from checks import CheckFailed
from launcher import Launcher

REFERENCE = Path(__file__).with_name("reference.py")
SOURCE_DATE_EPOCH = "1700000000"
COMMAND_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
MIN_CYCLES = 2

SWEEP_GRID = ("network=gsm,umts,hspa,hspa_plus;v_fog_frac=0.25,0.5,0.75,1.0;"
              "fog.tdp_w=2.0607,10")
SWEEP_GROUPS = 32
SWEEP_R_STEPS = 2001
# 16 TDP-bound configurations x the 989 grid values of r above 0.0607/0.12
SWEEP_INFEASIBLE = 15824
OPT_POP, OPT_GENS = 200, 100
# the traced replay times the grid oracle at the fine step; each run
# checks its fronts against the coarse one, which fits the run's budget
ORACLE_STEP = 2.5e-4
CHECK_ORACLE_STEP = 1e-3
HV_RATIO_FLOOR = 0.98
SIM_DURATION_S = 3000
SOJOURN_TOLERANCE = 0.05
FOV_ROWS = 3 * 2          # default --heights x --speeds
POWER_ROWS = 11           # default mass grid 0.5..3.0 step 0.25

BASE_PARAMS = {
    "arrival_rate_pps": 100.0,
    "packet_size_bits": 12000.0,
    "proc_capability_pps": 100.0,
    "energy_per_bit_j": 1.0e-7,
    "idle_power_w": 2.0,
    "tdp_w": 10.0,
    "tx_energy_per_bit_j": 0.0,
    "modification1_enabled": False,
}
BASE_NETWORK = {
    "uplink_throughput_bps": 1.5e6,
    "downlink_throughput_bps": 1.5e6,
    "base_latency_s": 0.0,
    "noise_sigma": 0.0,
    "return_fraction": 0.1,
}


def _yaml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    text = repr(float(value))
    # YAML 1.1 only reads an exponent as a float when a '.' precedes it
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def scenario_yaml(name: str, params: dict, network: dict) -> str:
    """Render a scenario document from flat parameters."""
    p = {k: _yaml_value(v) for k, v in params.items()}
    lines = [
        f"name: {name}",
        "workload:",
        f"  arrival_rate_pps: {p['arrival_rate_pps']}",
        f"  packet_size_bits: {p['packet_size_bits']}",
        "fog:",
        f"  proc_capability_pps: {p['proc_capability_pps']}",
        f"  energy_per_bit_j: {p['energy_per_bit_j']}",
        f"  idle_power_w: {p['idle_power_w']}",
        f"  tdp_w: {p['tdp_w']}",
        f"  tx_energy_per_bit_j: {p['tx_energy_per_bit_j']}",
        "network:",
        *(f"  {k}: {_yaml_value(v)}" for k, v in network.items()),
        "cloud:",
        "  proc_capability_bps: 3.0e+6",
        f"modification1_enabled: {p['modification1_enabled']}",
    ]
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """One scenario file the benchmark writes at set-up."""

    name: str
    params: dict
    network: dict

    @property
    def text(self) -> str:
        return scenario_yaml(self.name, self.params, self.network)


@dataclass
class Result:
    stdout: bytes
    wall_s: float
    maxrss_kib: int
    out_dir: Path


@dataclass
class Command:
    """One CLI invocation.  ``check`` validates the result and returns the
    number of work items it completed; ``spec`` holds the generated
    inputs, so the traced replay can make the same calls in-process."""

    kind: str
    args: list[str]
    check: Callable[[Result], float]
    spec: dict = field(default_factory=dict)
    expect_exit: int = 0
    traced: bool = False


def cli_env(root: Path, out_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env["FOGSCOPE_OUT"] = str(out_dir)
    return env


def read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise CheckFailed(f"missing artifact {path.name}") from None


def artifact(result: Result, filename: str, command: str) -> str:
    blob = read(result.out_dir / filename)
    checks.same_output(result.stdout, blob, command)
    return blob.decode()


class Workload:
    """Base class: subclasses define the inputs and one command cycle."""

    name = ""
    items = ""            # what one work item is
    work_metric = ""      # the workload's own name for work_per_s

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.rng = random.Random(f"{seed}:commands")
        self.inputs = self.make_inputs(random.Random(f"{seed}:inputs"))

    def make_inputs(self, rng: random.Random) -> list[Inputs]:
        raise NotImplementedError

    def cycle(self) -> list[Command]:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.run_dir / f"{name}.yaml")

    def write_inputs(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for scn in self.inputs:
            Path(self.path(scn.name)).write_text(scn.text, encoding="utf-8")

    def extra_metrics(self, results) -> dict:
        return {}


class Interactive(Workload):
    name = "interactive"
    items = "commands"
    work_metric = "cmds_per_s"

    def make_inputs(self, rng):
        return [Inputs("default", dict(BASE_PARAMS), dict(BASE_NETWORK)),
                Inputs("hspa-plus-noisy", dict(BASE_PARAMS),
                       {"preset": "hspa_plus", "noise_sigma": 0.15})]

    def cycle(self):
        cmds = []
        for scn in self.inputs:
            r = round(self.rng.uniform(0.05, 0.95), 4)
            cmds.append(Command(
                f"evaluate:{scn.name}",
                ["evaluate", "--scenario", self.path(scn.name), "--r", repr(r)],
                self._evaluate_check(scn.params, r), {"scenario": scn, "r": r}))
        cmds.append(Command("fov", ["fov"], self._table_check(
            "fov", "fov.csv", checks.FOV_COLUMNS, FOV_ROWS)))
        for kind in ("quad", "fixedwing"):
            cmds.append(Command(f"power:{kind}", ["power", "--kind", kind],
                                self._table_check("power", "power.csv",
                                                  checks.POWER_COLUMNS,
                                                  POWER_ROWS),
                                {"kind": kind}))
        cmds.append(Command("presets", ["presets"], self._table_check(
            "presets", "presets.csv", checks.PRESETS_COLUMNS, None)))
        return cmds

    @staticmethod
    def _evaluate_check(params, r):
        def check(result):
            checks.check_evaluate(artifact(result, "evaluate.csv", "evaluate"),
                                  params, r)
            return 1
        return check

    @staticmethod
    def _table_check(command, filename, columns, rows):
        def check(result):
            checks.check_table(artifact(result, filename, command), command,
                               columns, rows)
            return 1
        return check


class Search(Workload):
    name = "search"
    items = "evaluations"
    work_metric = "evals_per_s"

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.verify = True
        self.seeds = [self.rng.randrange(1, 2**31) for _ in self.inputs]
        # scenario name -> (oracle nadir, hypervolume of the oracle front)
        self.oracles: dict[str, tuple[tuple, float]] = {}
        self.outputs: dict[tuple[str, int], bytes] = {}
        self.hv_ratios: list[float] = []
        self.verify_s: list[float] = []

    def make_inputs(self, rng):
        tx = dict(BASE_PARAMS, tx_energy_per_bit_j=2.0e-8,
                  modification1_enabled=True)
        tdp = dict(BASE_PARAMS, tdp_w=2.0607)
        return [Inputs("default", dict(BASE_PARAMS), dict(BASE_NETWORK)),
                Inputs("tx-term", tx, dict(BASE_NETWORK)),
                Inputs("tdp-bound", tdp, dict(BASE_NETWORK))]

    def cycle(self):
        # every cycle uses the same seeds, so each later cycle must
        # reproduce the first byte for byte
        return [Command(f"optimize:{scn.name}",
                        ["optimize", "--scenario", self.path(scn.name),
                         "--pop", str(OPT_POP), "--gens", str(OPT_GENS),
                         "--seed", str(seed)],
                        self._check(scn, seed), {"scenario": scn, "seed": seed})
                for scn, seed in zip(self.inputs, self.seeds)]

    def _check(self, scn: Inputs, seed: int):
        def check(result):
            text = artifact(result, "optimize.csv", "optimize")
            points = checks.check_front(text, scn.params, seed)
            key = (scn.name, seed)
            if key in self.outputs:
                checks.require(self.outputs[key] == result.stdout,
                               "optimize: a repeated seed gave different bytes")
            self.outputs[key] = result.stdout
            if self.verify:
                self._verify(scn, points)
            return OPT_POP * (OPT_GENS + 1)
        return check

    def _verify(self, scn: Inputs, points) -> None:
        """HV(front) / HV(oracle front), both against the oracle's nadir.
        The oracle depends only on the scenario, so it runs once per run;
        verify_s times that call with its two hypervolumes."""
        start = time.perf_counter()
        first = scn.name not in self.oracles
        if first:
            front = brute_force_front(OptProblem(load_scenario(scn.text)),
                                      CHECK_ORACLE_STEP)
            exact = [vec.as_tuple() for _, vec in front.members]
            reference = tuple(max(column) for column in zip(*exact))
            self.oracles[scn.name] = (reference, hypervolume(exact, reference))
        reference, oracle_hv = self.oracles[scn.name]
        ratio = hypervolume(points, reference) / oracle_hv if oracle_hv > 0 else 1.0
        if first:
            self.verify_s.append(time.perf_counter() - start)
        self.hv_ratios.append(ratio)
        checks.check_hv_ratio(ratio, HV_RATIO_FLOOR)

    def extra_metrics(self, results):
        out = {}
        if self.verify_s:
            out["verify_s"] = (statistics.median(self.verify_s), "s",
                               len(self.verify_s))
        if self.hv_ratios:
            out["hv_ratio"] = (min(self.hv_ratios), "1", len(self.hv_ratios))
        return out


class Sweep(Workload):
    name = "sweep"
    items = "rows"
    work_metric = "points_per_s"

    def make_inputs(self, rng):
        network = dict(BASE_NETWORK,
                       return_fraction=round(rng.uniform(0.05, 0.2), 4))
        return [Inputs("sweep-base", dict(BASE_PARAMS), network)]

    def cycle(self):
        return [Command("sweep", ["sweep", "--scenario", self.path("sweep-base"),
                                  "--grid", SWEEP_GRID,
                                  "--r-steps", str(SWEEP_R_STEPS)],
                        self._check, {"scenario": self.inputs[0]},
                        expect_exit=3)]

    @staticmethod
    def _check(result):
        groups = sorted(result.out_dir.glob("sweep_g*.csv"))
        return checks.check_sweep(result.stdout, read(result.out_dir / "sweep.csv"),
                                  [p.read_bytes() for p in groups],
                                  SWEEP_GROUPS, SWEEP_R_STEPS, SWEEP_INFEASIBLE)


class Simulate(Workload):
    name = "simulate"
    items = "packets"
    work_metric = "packets_per_s"

    def make_inputs(self, rng):
        return [Inputs("default", dict(BASE_PARAMS), dict(BASE_NETWORK))]

    def cycle(self):
        # local_prob alternates 0.5 / 0.9 and every other command traces
        cmds = []
        for local_prob, traced in ((0.5, False), (0.9, True)):
            seed = self.rng.randrange(1, 2**31)
            args = ["simulate", "--scenario", self.path("default"),
                    "--local-prob", repr(local_prob),
                    "--duration", str(SIM_DURATION_S), "--seed", str(seed)]
            if traced:
                args += ["--trace", str(self.run_dir / "out" / "trace.csv")]
            cmds.append(Command(f"simulate:{local_prob}"
                                + (":trace" if traced else ""),
                                args, self._check(local_prob, traced),
                                {"scenario": self.inputs[0], "seed": seed,
                                 "local_prob": local_prob, "traced": traced},
                                traced=traced))
        return cmds

    @staticmethod
    def _check(local_prob, traced):
        def check(result):
            packets = checks.check_simulate(
                artifact(result, "simulate.csv", "simulate"), local_prob,
                mu=BASE_PARAMS["proc_capability_pps"],
                lam=BASE_PARAMS["arrival_rate_pps"],
                sojourn_tolerance=SOJOURN_TOLERANCE)
            if traced:
                checks.check_trace(read(result.out_dir / "trace.csv"), packets)
            return packets
        return check

    def extra_metrics(self, results):
        traced = [res.wall_s for cmd, res, _ in results if cmd.traced]
        if not traced:
            return {}
        return {"trace_cmd_p50_s": (statistics.median(traced), "s", len(traced))}


# BENCHMARK.json registers interactive, search and sweep.  simulate runs on
# request, and its commands, with their checks, are in every traced
# replay; its run-to-run spread on a shared host exceeded the 0.25 bound,
# so its end-to-end metrics are not gated.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Interactive, Search, Sweep, Simulate)}


@dataclass
class Outcome:
    results: list[tuple[Command, Result, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0


Runner = Callable[[Command, Path], tuple[int, Result]]


def cli_runner(workload: Workload, root: Path, launcher: Launcher) -> Runner:
    """Runs a command as ``python -m fogscope.cli`` through the launcher."""
    def run(cmd: Command, out_dir: Path) -> tuple[int, Result]:
        stdout_path = workload.run_dir / "stdout.txt"
        code, wall, maxrss = launcher.run(
            [sys.executable, "-m", "fogscope.cli", *cmd.args],
            cli_env(root, out_dir), stdout_path,
            workload.run_dir / "stderr.txt", COMMAND_TIMEOUT_S)
        return code, Result(stdout_path.read_bytes(), wall, maxrss, out_dir)
    return run


def execute(workload: Workload, cmd: Command, outcome: Outcome,
            runner: Runner, record: bool = True) -> None:
    """Run one command with a fresh output directory and check it; a
    passing result is kept for the metrics when ``record`` is set."""
    out_dir = workload.run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    code, result = runner(cmd, out_dir)
    outcome.attempted += 1
    try:
        checks.require(code == cmd.expect_exit,
                       f"{cmd.kind}: exit code {code}, expected {cmd.expect_exit}")
        items = cmd.check(result)
    except CheckFailed as exc:
        outcome.failures.append(str(exc))
        return
    if record:
        outcome.results.append((cmd, result, items))


def set_up(workload: Workload, outcome: Outcome, runner: Runner) -> float:
    """Write the inputs and run one untimed warm-up command; returns the
    seconds taken."""
    start = time.perf_counter()
    shutil.rmtree(workload.run_dir, ignore_errors=True)
    workload.write_inputs()
    first = workload.inputs[0]

    def check(result):
        checks.check_evaluate(artifact(result, "evaluate.csv", "evaluate"),
                              first.params, 0.5)
        return 1

    execute(workload,
            Command("warm-up", ["evaluate", "--scenario",
                                workload.path(first.name), "--r", "0.5"], check),
            outcome, runner, record=False)
    return time.perf_counter() - start


def run_closed_loop(workload: Workload, root: Path, seconds: float,
                    launcher: Launcher) -> dict:
    """Set up SETUP_REPEATS times, then run command cycles: at least
    MIN_CYCLES whole ones, then on until ``seconds`` have passed.  Each
    command is preceded by a run of the reference program.  The metrics
    take medians per command kind, so a last, partial cycle does not skew
    them.  Returns the end-to-end metrics and extras."""
    outcome = Outcome()
    runner = cli_runner(workload, root, launcher)
    setups = [set_up(workload, outcome, runner) for _ in range(SETUP_REPEATS)]
    refs = []
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        for cmd in workload.cycle():
            if cycles >= MIN_CYCLES and time.perf_counter() - start >= seconds:
                break
            refs.append(reference_wall(workload, root, launcher))
            execute(workload, cmd, outcome, runner)
        cycles += 1
    loop_wall = time.perf_counter() - start
    results = outcome.results
    plain = [res.wall_s for cmd, res, _ in results if not cmd.traced]
    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    if results:
        ref = statistics.median(refs)
        metrics["cmd_p50_s"] = (statistics.median(plain), "s", len(plain))
        metrics["ref_p50_s"] = (ref, "s", len(refs))
        metrics["cmd_p50_rel"] = (metrics["cmd_p50_s"][0] / ref, "1", len(plain))
        metrics["work_per_s"] = (work_per_s(results), "1/s", len(results))
        metrics["work_per_ref"] = (metrics["work_per_s"][0] * ref, "1/ref",
                                   len(results))
        metrics[workload.work_metric] = metrics["work_per_s"]
        metrics["peak_rss_mib"] = (max(res.maxrss_kib for _, res, _ in results)
                                   / 1024.0, "MiB", len(results))
        metrics.update(workload.extra_metrics(results))
    metrics["error_rate"] = (len(outcome.failures) / outcome.attempted, "1",
                             outcome.attempted)
    return {"metrics": metrics, "outcome": outcome, "loop_wall_s": loop_wall,
            "plain": plain, "per_kind": per_kind(results)}


def reference_wall(workload: Workload, root: Path, launcher: Launcher) -> float:
    """Wall time of one run of reference.py, started like the commands."""
    code, wall, _ = launcher.run(
        [sys.executable, str(REFERENCE)],
        cli_env(root, workload.run_dir / "out"), workload.run_dir / "stdout.txt",
        workload.run_dir / "stderr.txt", COMMAND_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"reference.py exited with {code}")
    return wall


def work_per_s(results) -> float:
    """Work items of one command cycle over its wall time, each command
    kind counted at its median: robust to a single slow command, and
    comparable across runs with different cycle counts."""
    items: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    for cmd, res, count in results:
        items.setdefault(cmd.kind, []).append(count)
        walls.setdefault(cmd.kind, []).append(res.wall_s)
    return (sum(statistics.median(v) for v in items.values())
            / sum(statistics.median(v) for v in walls.values()))


def per_kind(results) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for cmd, res, _ in results:
        out.setdefault(cmd.kind, []).append(res.wall_s)
    return out
