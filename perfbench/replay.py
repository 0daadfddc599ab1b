"""Traced in-process replay: per-layer metrics and per-command breakdowns.

The replay runs one cycle of every workload's commands through the
program's own click entry point, ``fogscope.cli.main``, in this process.
The layer functions that ``fogscope.cli`` calls are wrapped, for the
replay only, in spans named after their layer (``scenario``, ``model``,
``optimizer``, ``simulation``, ``reporting``, ``flight``).  Every
replayed command's output goes through the same check as in the
end-to-end run.  The simulate commands run the CLI in a child process
(this file, run as a script), so that their peak memory is the child's
RSS high-water mark less that of a child that only imports; tracemalloc
would slow the event loop about tenfold.  Start-up is measured from
``python -c pass`` and ``python -X importtime``.

A command span's self time, outside every layer span, is the CLI glue:
click parsing, option checks and the per-row loop of ``sweep``.  NSGA-II
variation runs inside ``optimize()`` and cannot be separated from outside
the program; it is reported as such, not estimated.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import click
from fogscope import cli, model, optimizer, simulation
from fogscope.scenario import load_scenario

import checks
import workloads
from launcher import Launcher
from measure import Tracer, self_times, totals_by_name
from workloads import Command, Result

IMPORT_MODULES = ("scenario", "optimizer", "simulation")
INTERP_REPEATS = 5
IMPORTTIME_REPEATS = 3
RANK_REPEATS = 5
NOT_SEPARATED = {
    "optimizer.variation": "NSGA-II tournament, crossover and mutation run "
                           "inside optimize(); no public call isolates them",
}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fogscope.cli; "
                "print(time.perf_counter() - t)")

# Names that fogscope.cli calls, and the span each call is recorded as
CLI_SPANS = {
    "load_scenario": "scenario.load_scenario",
    "parse_grid_spec": "scenario.sweep_grid",
    "sweep_grid": "scenario.sweep_grid",
    "catalog_rows": "scenario.catalog",
    "catalog_checksum": "scenario.catalog",
    "_objective_row": "model.evaluate",
    "optimize": "optimizer.optimize",
    "write_artifact": "reporting.write_artifact",
}
# Modules that fogscope.cli calls through, and the functions spanned there
MODULE_SPANS = {
    "reporting": {"render_artifact": "reporting.render_artifact"},
    "flight": {fn: "flight.budget" for fn in (
        "ground_coverage", "dwell_time", "latency_budget_verdict",
        "hover_power", "fixed_wing_level_power")},
    "simulation": {"simulate_trace": "simulation.simulate_trace",
                   "write_trace": "simulation.write_trace"},
}


# -- start-up -----------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in
                               line[len("import time:"):].split("|"))
        if cumulative.isdigit():
            out[name] = int(cumulative) / 1e6
    return out


def startup_probes(env: dict) -> dict[str, float]:
    """cli.interp_s and the *.import_s metrics, medians over repeats."""
    interp = []
    for _ in range(INTERP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append(time.perf_counter() - start)
    imports: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        cumulative = parse_importtime(proc.stderr)
        imports.setdefault("cli.import_s", []).append(float(proc.stdout))
        for module in IMPORT_MODULES:
            imports.setdefault(f"{module}.import_s", []).append(
                cumulative[f"fogscope.{module}"])
    out = {"cli.interp_s": statistics.median(interp)}
    out.update({k: statistics.median(v) for k, v in imports.items()})
    return out


# -- running the CLI in-process -----------------------------------------------

class _Traced:
    """Stands in for a module that fogscope.cli calls through: the given
    functions are wrapped, every other name is the module's own."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrument(tracer: Tracer):
    """While open, the layer functions fogscope.cli calls record spans on
    ``tracer``; a disabled tracer leaves the CLI untouched."""
    if not tracer.enabled:
        yield
        return
    patches = {attr: tracer.wrap(span, getattr(cli, attr))
               for attr, span in CLI_SPANS.items()}
    for attr, functions in MODULE_SPANS.items():
        module = getattr(cli, attr)
        patches[attr] = _Traced(module, {
            fn: tracer.wrap(span, getattr(module, fn))
            for fn, span in functions.items()})
    saved = {attr: getattr(cli, attr) for attr in patches}
    for attr, value in patches.items():
        setattr(cli, attr, value)
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(cli, attr, value)


def invoke(args: list[str]) -> int:
    """Run one CLI command in this process; returns its exit code."""
    try:
        cli.main.main(args, prog_name="fogscope", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def child(argv: list[str]) -> None:
    """Entry point of the simulation child: ``<spans-file|-> <span name>
    [CLI arguments]``.  Runs the command with stdout as the CLI's, writes
    its spans as JSON and exits with the command's code.  Without CLI
    arguments it only imports, which gives the RSS baseline."""
    spans_path, name, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(enabled=spans_path != "-")
    code = 0
    if args:
        with instrument(tracer), tracer.span(name):
            code = invoke(args)
    if tracer.enabled:
        Path(spans_path).write_text(json.dumps(
            [(s.name, s.start, s.end, s.parent) for s in tracer.spans]))
    sys.exit(code)


# -- the replay ---------------------------------------------------------------

class Replay:
    """Replays command cycles, recording spans on ``tracer``.  It is the
    runner that :func:`workloads.execute` calls, so each command's output
    is checked as in the end-to-end run."""

    def __init__(self, tracer: Tracer, run_dir: Path, env: dict,
                 launcher: Launcher, outcome: workloads.Outcome):
        self.tracer = tracer
        self.run_dir = run_dir
        self.env = env
        self.launcher = launcher
        self.outcome = outcome
        self.counts: dict[str, float] = {}
        self.command_ids: dict[int, str] = {}
        self.sim_rss_kib: dict[str, int] = {}
        self.wall_s = 0.0         # summed command time, checks excluded

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def run(self, workload: workloads.Workload, commands: list[Command]) -> float:
        """Replay commands; returns their summed time."""
        before = self.wall_s
        with instrument(self.tracer):
            for cmd in commands:
                workloads.execute(workload, cmd, self.outcome, self)
                last = self.outcome.results[-1] if self.outcome.results else None
                if last and last[0] is cmd:
                    self._count_outputs(*last)
        return self.wall_s - before

    def __call__(self, cmd: Command, out_dir: Path) -> tuple[int, Result]:
        cid = len(self.command_ids)
        self.command_ids[cid] = cmd.kind
        if cmd.args[0] == "simulate":
            return self._in_child(cmd, cid, out_dir)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), \
                self.tracer.span(f"cmd.{cmd.kind}", command=cid):
            code = invoke(cmd.args)
        self.wall_s += time.perf_counter() - start
        return code, Result(out.getvalue().encode(), 0.0, 0, out_dir)

    def _in_child(self, cmd: Command, cid: int,
                  out_dir: Path) -> tuple[int, Result]:
        spans_path = self.run_dir / "child-spans.json"
        code, wall, rss = self._child(
            [str(spans_path) if self.tracer.enabled else "-",
             f"cmd.{cmd.kind}", *cmd.args])
        self.wall_s += wall
        if self.tracer.enabled:
            self.tracer.graft(json.loads(spans_path.read_text()), cid)
        self.sim_rss_kib["trace" if cmd.traced else "plain"] = rss
        stdout = (self.run_dir / "child-stdout.txt").read_bytes()
        return code, Result(stdout, wall, rss, out_dir)

    def _child(self, args: list[str]) -> tuple[int, float, int]:
        return self.launcher.run(
            [sys.executable, str(Path(__file__)), *args], self.env,
            self.run_dir / "child-stdout.txt", self.run_dir / "child-stderr.txt",
            workloads.COMMAND_TIMEOUT_S)

    def _count_outputs(self, cmd: Command, result: Result,
                       items: float) -> None:
        """Counts of what a checked command wrote, for the report."""
        if cmd.args[0] == "simulate" and cmd.traced:
            trace = (result.out_dir / "trace.csv").read_bytes()
            # the trace's lines less the manifest and the header
            self.count("simulation.trace_rows", trace.count(b"\n") - 2)
            return
        if cmd.args[0] == "simulate":
            _, rows = checks.parse_artifact(result.stdout.decode(), "simulate",
                                            checks.SIMULATE_COLUMNS)
            row = dict(zip(checks.SIMULATE_COLUMNS, rows[0]))
            # arrivals + completions + queue-length samples
            self.count("simulation.events",
                       2 * int(row["packets_generated"])
                       - int(row["packets_in_flight"])
                       + simulation._QUEUE_SAMPLES)
            return
        self.count("reporting.bytes", sum(
            path.stat().st_size for path in result.out_dir.glob("*.csv")))
        if cmd.args[0] == "optimize":
            self.count("optimizer.evals", items)
            # the artifact's lines less the manifest and the header
            self.count("optimizer.front", result.stdout.count(b"\n") - 2)
        elif cmd.args[0] == "sweep":
            self.count("model.points", sum(
                1 for s in self.tracer.spans
                if s.command == len(self.command_ids) - 1
                and s.name == "model.evaluate"))

    def simulation_baseline(self) -> None:
        code, _, rss = self._child(["-", "baseline"])
        if code != 0:
            raise RuntimeError(f"simulation baseline child exited with {code}")
        self.sim_rss_kib["baseline"] = rss

    def layer_probes(self, search: workloads.Search,
                     ga_front: list[tuple]) -> None:
        """Direct calls that no single CLI command isolates: objective
        evaluations at the search's size, one generation's ranking and
        crowding, and the grid oracle with both hypervolumes on the
        TDP-bound scenario."""
        inputs = search.inputs[-1]              # the TDP-bound scenario
        scn = load_scenario(inputs.text)
        rng = random.Random(f"{search.seed}:probes")
        n_evals = workloads.OPT_POP * (workloads.OPT_GENS + 1)
        vectors = []
        with self.tracer.span("model.search_evals"), warnings.catch_warnings():
            warnings.simplefilter("ignore", model.InstabilityWarning)
            for _ in range(n_evals):
                try:
                    vectors.append(model.objectives(scn, rng.random()).as_tuple())
                except model.TdpExceeded:
                    pass
        combined = vectors[:2 * workloads.OPT_POP]
        for _ in range(RANK_REPEATS):
            with self.tracer.span("optimizer.non_dominated_sort"):
                optimizer.non_dominated_sort(combined)
            with self.tracer.span("optimizer.crowding_distance"):
                optimizer.crowding_distance(combined[:workloads.OPT_POP])
        problem = optimizer.OptProblem(scenario=scn)
        with self.tracer.span("optimizer.brute_force_front"):
            oracle = optimizer.brute_force_front(problem, workloads.ORACLE_STEP)
        exact = [vec.as_tuple() for _, vec in oracle.members]
        reference = tuple(max(column) for column in zip(*exact))
        with self.tracer.span("optimizer.hypervolume"):
            optimizer.hypervolume(exact, reference)
            optimizer.hypervolume(ga_front, reference)
        steps = round(1.0 / workloads.ORACLE_STEP)
        lo, hi = checks.feasible_interval(inputs.params)
        self.counts["optimizer.oracle_grid"] = steps + 1
        self.counts["optimizer.oracle_feasible"] = sum(
            1 for i in range(steps + 1) if lo <= i / steps <= hi)


# -- the traced run -----------------------------------------------------------

def layer_metrics(rep: Replay, probes: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit), from the replay's spans
    and counts and the start-up probes."""
    spans = rep.tracer.spans
    self_s = self_times(spans)
    total = totals_by_name(spans, self_s)
    sweep_id = next(cid for cid, kind in rep.command_ids.items()
                    if kind == "sweep")
    in_sweep = totals_by_name(spans, self_s, command=sweep_id)
    plain_id = next(cid for cid, kind in rep.command_ids.items()
                    if kind.startswith("simulate") and not kind.endswith("trace"))
    in_plain = totals_by_name(spans, self_s, command=plain_id)
    c = rep.counts
    rss = rep.sim_rss_kib

    def median_of(name):
        return statistics.median(s.duration for s in spans if s.name == name)

    out = {name: (value, "s") for name, value in probes.items()}
    out.update({
        "scenario.load_s": (total["scenario.load_scenario"], "s"),
        "scenario.sweep_grid_s": (total["scenario.sweep_grid"], "s"),
        "model.eval_s": (in_sweep["model.evaluate"], "s"),
        "model.points_per_s": (c["model.points"] / in_sweep["model.evaluate"],
                               "1/s"),
        "model.search_eval_s": (total["model.search_evals"], "s"),
        "optimizer.optimize_s": (total["optimizer.optimize"], "s"),
        "optimizer.rank_s": (median_of("optimizer.non_dominated_sort"), "s"),
        "optimizer.crowding_s": (median_of("optimizer.crowding_distance"), "s"),
        "optimizer.oracle_s": (total["optimizer.brute_force_front"], "s"),
        "optimizer.hv3_s": (total["optimizer.hypervolume"], "s"),
        "simulation.run_s": (in_plain["simulation.simulate_trace"], "s"),
        "simulation.events_per_s": (c["simulation.events"]
                                    / in_plain["simulation.simulate_trace"],
                                    "1/s"),
        "simulation.peak_mib": ((rss["plain"] - rss["baseline"]) / 1024, "MiB"),
        "simulation.trace_peak_mib": ((rss["trace"] - rss["baseline"]) / 1024,
                                      "MiB"),
        "simulation.write_trace_s": (total["simulation.write_trace"], "s"),
        "reporting.render_s": (in_sweep["reporting.render_artifact"], "s"),
        "reporting.rows_per_s": (
            c["model.points"] / in_sweep["reporting.render_artifact"], "1/s"),
        "reporting.write_s": (total["reporting.write_artifact"], "s"),
        "flight.budget_s": (total["flight.budget"], "s"),
    })
    return out


def workload_counts(rep: Replay) -> dict[str, tuple[float, str]]:
    """Counts fixed by the workload, for the report only: a change in one
    is a change in behaviour, not in speed."""
    c = rep.counts
    return {
        "model.points": (c["model.points"], "count"),
        "optimizer.evals": (c["optimizer.evals"], "count"),
        "optimizer.front_yield": (c["optimizer.front"] / c["optimizer.evals"],
                                  "1"),
        "optimizer.oracle_feasible_ratio": (
            c["optimizer.oracle_feasible"] / c["optimizer.oracle_grid"], "1"),
        "simulation.events": (c["simulation.events"], "count"),
        "simulation.trace_rows": (c["simulation.trace_rows"], "count"),
        "reporting.bytes": (c["reporting.bytes"], "bytes"),
    }


def breakdown(rep: Replay, kinds_wall: dict[str, float],
              probes: dict) -> list[dict]:
    """Per command kind: CLI wall time against interpreter start, imports,
    the CLI glue (the command span's self time) and the layer self times
    of its replay; the rest is what the replay does not account for."""
    spans = rep.tracer.spans
    self_s = self_times(spans)
    rows = []
    for kind, wall in kinds_wall.items():
        cid = next(cid for cid, k in rep.command_ids.items() if k == kind)
        layers: dict[str, float] = {}
        glue = in_process = 0.0
        for span, value in zip(spans, self_s):
            if span.command != cid:
                continue
            if span.name.startswith("cmd."):
                glue, in_process = value, span.duration
            else:
                layer = span.name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + value
        rows.append({"kind": kind, "wall_s": wall,
                     "interp_s": probes["cli.interp_s"],
                     "import_s": probes["cli.import_s"], "glue_s": glue,
                     "layers_s": layers,
                     "unaccounted_s": wall - probes["cli.interp_s"]
                     - probes["cli.import_s"] - in_process})
    return rows


def run_traced(name: str, seed: int, root: Path, run_dir: Path,
               launcher: Launcher) -> dict:
    """The traced run: start-up probes, one CLI pass over each command
    kind of ``name``, that workload's replay with span recording off, then
    the replay of every workload with it on."""
    env = workloads.cli_env(root, run_dir / "out")
    os.environ["SOURCE_DATE_EPOCH"] = workloads.SOURCE_DATE_EPOCH
    os.environ["FOGSCOPE_OUT"] = str(run_dir / "out")
    instances = {n: cls(seed, run_dir) for n, cls in workloads.WORKLOADS.items()}
    # the replay times the grid oracle in layer_probes instead
    instances["search"].verify = False
    for w in instances.values():
        w.write_inputs()
    cycles = {n: w.cycle() for n, w in instances.items()}

    probes = startup_probes(env)
    outcome = workloads.Outcome()
    kinds_wall: dict[str, float] = {}
    runner = workloads.cli_runner(instances[name], root, launcher)
    for cmd in cycles[name]:
        workloads.execute(instances[name], cmd, outcome, runner)
        if outcome.results and outcome.results[-1][0] is cmd:
            kinds_wall[cmd.kind] = outcome.results[-1][1].wall_s

    off_wall = Replay(Tracer(enabled=False), run_dir, env, launcher,
                      outcome).run(instances[name], cycles[name])
    rep = Replay(Tracer(), run_dir, env, launcher, outcome)
    walls = {n: rep.run(instances[n], cmds) for n, cmds in cycles.items()}
    rep.simulation_baseline()
    # a failed check leaves the metrics built on its output undefined
    metrics, counts = {}, {}
    if not outcome.failures:
        tdp_cmd = cycles["search"][-1]
        ga_front = checks.check_front(
            instances["search"].outputs[(tdp_cmd.spec["scenario"].name,
                                         tdp_cmd.spec["seed"])].decode(),
            tdp_cmd.spec["scenario"].params, tdp_cmd.spec["seed"])
        rep.layer_probes(instances["search"], ga_front)
        metrics, counts = layer_metrics(rep, probes), workload_counts(rep)

    return {
        "metrics": metrics,
        "counts": counts,
        "breakdown": breakdown(rep, kinds_wall, probes),
        "overhead": {"replay_on_s": walls[name], "replay_off_s": off_wall,
                     "overhead_s": walls[name] - off_wall},
        "not_separated": NOT_SEPARATED,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "spans": rep.tracer.spans,
        "command_ids": rep.command_ids,
    }


if __name__ == "__main__":
    child(sys.argv[1:])
