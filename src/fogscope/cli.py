"""Command-line surface: evaluate, sweep, optimize, simulate, fov, power,
presets.

Artifacts land in the directory named by FOGSCOPE_OUT (default: current
directory).  Exit codes: 0 success, 2 input error, 3 infeasible
configuration (TDP or motor overload), 4 optimizer failure.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click
from click.core import ParameterSource

from . import flight, model, reporting, simulation
from .model import ValidationError
from .optimizer import NoFeasibleSolution, OptConfig, OptProblem, optimize
from .reporting import ResultTable, RunManifest, write_artifact
from .scenario import (ParseError, Scenario, catalog_checksum, catalog_rows,
                       default_scenario, load_scenario, parse_grid_spec,
                       preset, scenario_digest, sweep_grid, UnknownPreset)

if TYPE_CHECKING:
    import numpy as np

EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_OPTIMIZER = 4
# most points in a sweep r-grid or a power mass grid: an r spacing of 1e-5;
# one sweep group at the cap peaks near 70 MiB
MAX_GRID_POINTS = 100_001
# most rows in a sweep, configurations x r-steps: one group at the r-step cap
MAX_SWEEP_ROWS = MAX_GRID_POINTS


class _FiniteFloat(click.ParamType):
    """A float option value; nan and infinities are input errors."""

    name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


_FINITE_FLOAT = _FiniteFloat()
# a finite float option with its default shown, and the --scenario option
_NUMBER = partial(click.option, type=_FINITE_FLOAT, show_default=True)
_SCENARIO = click.option("--scenario", "scenario_path", default=None, help=(
    "Scenario YAML file (defaults to the built-in scenario)."))


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(scenario_path: Optional[str]) -> Scenario:
    if scenario_path is None:
        return default_scenario()
    try:
        text = Path(scenario_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(EXIT_INPUT, f"cannot read scenario file: {exc}")
    return load_scenario(text)


@contextmanager
def _writing(what: str):
    """Ends the command with exit 2 and one ``error:`` line when writing
    ``what`` raises OSError.  A broken stdout pipe is left to click, which
    exits 1 without a message."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write {what}: {exc}")


def _echo(text: str, start: int = 0) -> None:
    """Writes ``text[start:]`` to stdout as it is and flushes it, as
    click.echo does; click.echo would strip ANSI escapes from a cell when
    stdout is no terminal, so that stdout would not match the artifact."""
    stdout = click.get_text_stream("stdout")
    reporting.write_text(stdout, text, start)
    stdout.flush()


def _emit(filename: str, manifest: RunManifest, table: ResultTable) -> None:
    text = reporting.render_artifact(manifest, table)
    with _writing("artifact"):
        path = write_artifact(filename, text)
    _echo(text)
    click.echo(f"wrote {path}", err=True)


def _objective_row(scn: Scenario, r: np.ndarray) -> model.Evaluation:
    """The kernel's columns for each split in ``r``; infeasible splits
    carry the raw power.  perfbench's traced replay spans calls to this
    name."""
    return model.evaluate(scn, r)


class _ExitCodes(click.Group):
    """Ends a command that raises an input, infeasibility or search error
    with its exit code and an ``error:`` line; any other exception
    propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ParseError, ValidationError) as exc:
            _fail(EXIT_INPUT, str(exc))
        except flight.MotorOverload as exc:
            _fail(EXIT_INFEASIBLE, str(exc))
        except NoFeasibleSolution as exc:
            _fail(EXIT_OPTIMIZER, str(exc))


@click.group(cls=_ExitCodes)
@click.version_option(version=reporting.TOOL_VERSION, prog_name="fogscope")
def main():
    """Fog-cloud workload splitting feasibility toolkit for UAV fleets."""


@main.command()
@_SCENARIO
@click.option("--r", "r", type=_FINITE_FLOAT, required=True,
              help="Fraction of arrivals accepted for fog processing.")
def evaluate(scenario_path: Optional[str], r: float):
    """Evaluate the objective vector for one workload split."""
    scn = _load(scenario_path)
    if not 0.0 <= r <= 1.0:
        _fail(EXIT_INPUT, f"--r={r} violates the bound [0, 1]")
    row = model.evaluate_split(scn, r)
    if not row.feasible:
        _fail(EXIT_INFEASIBLE, f"fog power {row.fog_power_w:.6g} W exceeds "
                               f"TDP {scn.fog.tdp:.6g} W at r={r}")
    table = ResultTable(columns=model.Evaluation._fields, rows=[row])
    manifest = RunManifest.create("evaluate", scenario_digest(scn))
    _emit("evaluate.csv", manifest, table)


@main.command()
@_SCENARIO
@click.option("--grid", "grid_text", default="",
              help="Axis spec, e.g. 'network=gsm,hspa_plus;v_fog_frac=0.25,1.0'.")
@click.option("--r-steps", type=int, default=101, show_default=True,
              help="Number of evenly spaced r values in [0, 1].")
def sweep(scenario_path: Optional[str], grid_text: str, r_steps: int):
    """Evaluate the objectives over a scenario grid times an r-grid."""
    import numpy as np
    scn = _load(scenario_path)
    if not 2 <= r_steps <= MAX_GRID_POINTS:
        _fail(EXIT_INPUT, f"--r-steps must be >= 2 and <= {MAX_GRID_POINTS}")
    axes = parse_grid_spec(grid_text)
    groups = math.prod(len(values) for _, values in axes)
    if groups * r_steps > MAX_SWEEP_ROWS:
        _fail(EXIT_INPUT, f"--grid gives {groups} configurations x --r-steps "
                          f"{r_steps} = {groups * r_steps} rows, more than "
                          f"{MAX_SWEEP_ROWS}")
    scenarios = sweep_grid(scn, axes)
    r_values = np.linspace(0.0, 1.0, r_steps)
    columns = ("group", "scenario", *model.Evaluation._fields)
    manifest = RunManifest.create("sweep", scenario_digest(scn))
    # every group artifact is this manifest and header plus its rows, and
    # sweep.csv is the same head plus every group's rows in order; it is
    # written and echoed a group at a time
    head = reporting.render_artifact(manifest, ResultTable(columns, []))
    infeasible = 0
    with _writing("artifact"):
        path = reporting.artifact_path("sweep.csv")
        with path.open("w", encoding="utf-8") as combined:
            combined.write(head)
            _echo(head)
            for gid, member in enumerate(scenarios):
                evaluation = _objective_row(member, r_values)
                infeasible += r_steps - int(evaluation.feasible.sum())
                text = reporting.render_artifact(manifest, ResultTable(
                    columns, cells=([gid] * r_steps, [member.name] * r_steps,
                                    *evaluation)))
                write_artifact(f"sweep_g{gid:03d}.csv", text)
                # the group's rows, written from its text without a copy
                reporting.write_text(combined, text, len(head))
                _echo(text, len(head))
    click.echo(f"wrote {path}", err=True)
    if infeasible:
        _fail(EXIT_INFEASIBLE,
              f"{infeasible} grid point(s) exceed the TDP bound")


@main.command("optimize")
@_SCENARIO
@click.option("--pop", type=int, default=100, show_default=True)
@click.option("--gens", type=int, default=100, show_default=True)
@click.option("--seed", type=int, required=True)
@_NUMBER("--crossover-rate", default=0.9)
@_NUMBER("--mutation-rate", default=0.1)
@_NUMBER("--mutation-sigma", default=0.05)
def optimize_cmd(scenario_path: Optional[str], pop: int, gens: int, seed: int,
                 crossover_rate: float, mutation_rate: float,
                 mutation_sigma: float):
    """Search for the Pareto front of workload splits."""
    scn = _load(scenario_path)
    cfg = OptConfig(population_size=pop, generations=gens,
                    crossover_rate=crossover_rate, mutation_rate=mutation_rate,
                    mutation_sigma=mutation_sigma, seed=seed)
    front = optimize(OptProblem(scenario=scn), cfg)
    members = [(r, vec, crowd)
               for (r, vec), rank, crowd in zip(front.members, front.ranks,
                                                front.crowding)
               if rank == 0]
    members.sort(key=lambda m: m[1].throughput_to_cloud_bps)
    table = ResultTable(
        columns=("r", "throughput_bps", "fog_power_w", "avg_latency_s",
                 "rank", "crowding"),
        rows=[(r, vec.throughput_to_cloud_bps, vec.fog_power_w,
               vec.avg_latency_s, 0, crowd) for r, vec, crowd in members])
    manifest = RunManifest.create("optimize", scenario_digest(scn), seed=seed)
    _emit("optimize.csv", manifest, table)


@main.command()
@_SCENARIO
@click.option("--local-prob", type=_FINITE_FLOAT, required=True,
              help="Probability a packet is classified for local processing.")
@click.option("--duration", type=_FINITE_FLOAT, required=True,
              help="Simulated seconds.")
@click.option("--warmup", type=_FINITE_FLOAT, default=None,
              help="Warmup seconds excluded from statistics "
                   "(default: 10% of duration).")
@click.option("--seed", type=int, required=True)
@click.option("--trace", "trace_path", default=None,
              help="Write a per-packet event trace CSV to this path.")
def simulate(scenario_path: Optional[str], local_prob: float, duration: float,
             warmup: Optional[float], seed: int, trace_path: Optional[str]):
    """Run the packet-level simulation once and compare with the model."""
    scn = _load(scenario_path)
    sim = simulation.SimScenario(scenario=scn, local_prob=local_prob,
                                 duration_s=duration, warmup_s=warmup)
    metrics, packets = simulation.simulate_trace(sim, seed)
    analytic = model.evaluate_split(scn, local_prob)
    table = ResultTable(
        columns=("local_prob", "duration_s", "warmup_s",
                 *(f.name for f in fields(simulation.SimMetrics)),
                 "analytic_throughput_bps", "analytic_fog_latency_s"),
        rows=[(local_prob, duration, sim.warmup_s, *astuple(metrics),
               analytic.throughput_bps, analytic.fog_latency_s)])
    manifest = RunManifest.create("simulate", scenario_digest(scn), seed=seed)
    if trace_path is not None:
        # written before simulate.csv, so that a path it cannot write fails
        # before any output
        path = Path(trace_path)
        with _writing("trace file"):
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8", newline="") as stream:
                stream.write(manifest.to_comment_line() + "\n")
                simulation.write_trace(stream, packets,
                                       scn.workload.packet_size)
    _emit("simulate.csv", manifest, table)
    if trace_path is not None:
        click.echo(f"wrote {path}", err=True)


def _float_list(text: str, option: str) -> list[float]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        _fail(EXIT_INPUT, f"{option} needs at least one value")
    try:
        return [_FINITE_FLOAT.convert(v, None, None) for v in values]
    except click.BadParameter:
        _fail(EXIT_INPUT,
              f"{option} must be a comma-separated list of finite numbers")


@main.command()
@click.option("--heights", default="10,15,20", show_default=True,
              help="Flight heights in meters, comma separated.")
@click.option("--speeds", default="5,10", show_default=True,
              help="Ground speeds in m/s, comma separated.")
@_NUMBER("--dfov", default=94.0, help="Diagonal field of view in degrees.")
@click.option("--aspect", default="3:2", show_default=True,
              help="Image aspect ratio W:H; the H side lies along-track.")
def fov(heights: str, speeds: str, dfov: float, aspect: str):
    """Camera footprint, dwell time, and cloud latency-budget verdicts."""
    height_values = _float_list(heights, "--heights")
    speed_values = _float_list(speeds, "--speeds")
    if min(height_values) <= 0 or min(speed_values) <= 0:
        _fail(EXIT_INPUT, "heights and speeds must be > 0")
    try:
        w_txt, _, h_txt = aspect.partition(":")
        cam = flight.CameraParams(
            diagonal_fov_deg=dfov,
            aspect_w=_FINITE_FLOAT.convert(w_txt, None, None),
            aspect_h=_FINITE_FLOAT.convert(h_txt, None, None))
    except (ValueError, click.BadParameter) as exc:
        _fail(EXIT_INPUT, f"--aspect/--dfov: {exc}")
    rows = []
    for h in height_values:
        along, _ = flight.ground_coverage(cam, h)
        for v in speed_values:
            dwell = flight.dwell_time(cam, h, v)
            verdict = flight.latency_budget_verdict(dwell,
                                                    flight.CLOUD_ROUND_TRIP_S)
            rows.append((h, v, along, dwell, verdict.feasible))
    table = ResultTable(
        columns=("height_m", "speed_mps", "along_track_m", "dwell_s",
                 "cloud_feasible_at_1.68s"),
        rows=rows)
    manifest = RunManifest.create("fov", f"dfov={dfov!r},aspect={aspect}")
    _emit("fov.csv", manifest, table)


@main.command()
@click.option("--kind", type=click.Choice(["quad", "fixedwing"]),
              default="quad", show_default=True)
@_NUMBER("--mass-min", default=0.5)
@_NUMBER("--mass-max", default=3.0)
@_NUMBER("--step", default=0.25)
@click.option("--motor", "motor_name", default="x2212", show_default=True)
@_NUMBER("--efficiency", default=1.0,
         help="Overall drivetrain efficiency (1.0 = ideal model).")
@_NUMBER("--wing-area", default=0.72)
@_NUMBER("--drag-coeff", default=0.05)
@_NUMBER("--lift-coeff", default=0.3)
def power(kind: str, mass_min: float, mass_max: float, step: float,
          motor_name: str, efficiency: float, wing_area: float,
          drag_coeff: float, lift_coeff: float):
    """Aircraft power across a mass grid, with the +250 g payload delta."""
    ctx = click.get_current_context()
    for name in ("wing_area", "drag_coeff", "lift_coeff"):
        source = ctx.get_parameter_source(name)
        if kind == "quad" and source is ParameterSource.COMMANDLINE:
            _fail(EXIT_INPUT, f"--{name.replace('_', '-')} applies to "
                              f"--kind fixedwing only")
    if not 0.0 < mass_min <= mass_max <= 3.0:
        _fail(EXIT_INPUT, "mass range must lie within (0, 3.0] kg")
    if step <= 0:
        _fail(EXIT_INPUT, "--step must be > 0")
    # the grid holds int(span) + 1 masses; a tiny step makes span inf
    span = (mass_max - mass_min) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        _fail(EXIT_INPUT, f"--step {step!r} gives more than "
                          f"{MAX_GRID_POINTS} masses")
    try:
        motor = preset(motor_name)
    except UnknownPreset:
        _fail(EXIT_INPUT, f"unknown motor preset {motor_name!r}")
    if not isinstance(motor, flight.MotorParams):
        _fail(EXIT_INPUT, f"preset {motor_name!r} is not a motor")

    if kind == "quad":
        airframe = {"kind": flight.QUAD_ROTOR}
        power_fn = flight.hover_power
    else:
        airframe = {"kind": flight.FIXED_WING_BIMOTOR,
                    "wing_area_m2": wing_area, "drag_coeff": drag_coeff,
                    "lift_coeff": lift_coeff}
        power_fn = flight.fixed_wing_level_power
    aircraft = partial(flight.AircraftModel, motor=motor,
                       overall_efficiency=efficiency, **airframe)
    rows = []
    for i in range(int(span) + 1):
        mass = mass_min + i * step
        base = power_fn(aircraft(mass_kg=mass))
        delta = power_fn(aircraft(mass_kg=mass + 0.25)) - base
        rows.append((mass, base, delta))
    table = ResultTable(
        columns=("mass_kg", "power_w", "delta_power_plus_250g_w"), rows=rows)
    manifest = RunManifest.create(
        "power", f"kind={kind},motor={motor_name},efficiency={efficiency!r}")
    _emit("power.csv", manifest, table)


@main.command()
def presets():
    """Dump the preset catalog with its pinned checksum."""
    table = ResultTable(columns=("group", "name", "field", "value", "source"),
                        rows=catalog_rows())
    manifest = RunManifest.create("presets", "sha256:" + catalog_checksum())
    _emit("presets.csv", manifest, table)


if __name__ == "__main__":
    main()
