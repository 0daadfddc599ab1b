"""Command-line surface: outputs, exit codes, manifests, reproducibility."""

import ast
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import fogscope
from fogscope import cli, optimizer, reporting, simulation
from fogscope.cli import main
from fogscope.model import InstabilityWarning
from fogscope.reporting import MANIFEST_PREFIX, RunManifest
from fogscope.scenario import catalog_checksum, default_scenario, sweep_grid

pytestmark = pytest.mark.usefixtures("out_dir")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setenv("FOGSCOPE_OUT", str(target))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return target


@pytest.fixture
def runner():
    return CliRunner()


def strip_manifest(text: str) -> str:
    """Drop comment lines, leaving plain CSV."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(lines) + "\n"


def read_rows(path):
    text = strip_manifest(path.read_text(encoding="utf-8"))
    return list(csv.DictReader(io.StringIO(text)))


def manifest_of(path):
    first = path.read_text(encoding="utf-8").splitlines()[0]
    return RunManifest.from_comment_line(first)


class TestEvaluate:
    def test_matches_model_composition(self, runner, out_dir):
        result = runner.invoke(main, ["evaluate", "--r", "0.75"])
        assert result.exit_code == 0
        (row,) = read_rows(out_dir / "evaluate.csv")
        assert float(row["throughput_bps"]) == 300000.0
        assert float(row["fog_power_w"]) == pytest.approx(2.09, rel=1e-12)
        assert float(row["fog_latency_s"]) == 0.75
        assert float(row["cloud_latency_s"]) == pytest.approx(0.16, rel=1e-12)
        assert float(row["avg_latency_s"]) == pytest.approx(0.455, rel=1e-12)
        assert row["feasible"] == "true"

    def test_full_fog_split_has_zero_throughput(self, runner, out_dir):
        result = runner.invoke(main, ["evaluate", "--r", "1.0"])
        assert result.exit_code == 0
        (row,) = read_rows(out_dir / "evaluate.csv")
        assert float(row["throughput_bps"]) == 0.0

    def test_out_of_bounds_r_exits_2(self, runner):
        result = runner.invoke(main, ["evaluate", "--r", "1.5"])
        assert result.exit_code == 2
        assert "[0, 1]" in result.stderr

    def test_scenario_file(self, runner, out_dir, tmp_path):
        doc = tmp_path / "s.yaml"
        doc.write_text(
            "workload: {arrival_rate_pps: 10, packet_size_bits: 1000}\n"
            "fog: {proc_capability_pps: 20, energy_per_bit_j: 0.0,"
            " idle_power_w: 1.0, tdp_w: 5.0}\n"
            "network: {uplink_throughput_bps: 1.0e+6,"
            " downlink_throughput_bps: 1.0e+6}\n"
            "cloud: {proc_capability_bps: 1.0e+6}\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "0.5"])
        assert result.exit_code == 0
        (row,) = read_rows(out_dir / "evaluate.csv")
        assert float(row["throughput_bps"]) == 5000.0

    def test_invalid_scenario_exits_2(self, runner, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("workload: {arrival_rate_pps: 1, packet_size_bits: 0}\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "0.5"])
        assert result.exit_code == 2
        assert "workload.packet_size" in result.stderr

    def test_infinite_tdp_exits_2(self, runner, tmp_path):
        doc = tmp_path / "inf.yaml"
        doc.write_text(
            "workload: {arrival_rate_pps: 100, packet_size_bits: 12000}\n"
            "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-7,"
            " idle_power_w: 2.0, tdp_w: .inf}\n"
            "network: {preset: hspa}\n"
            "cloud: {proc_capability_bps: 3.0e+6}\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "0.5"])
        assert result.exit_code == 2
        assert "fog.tdp_w" in result.stderr

    def test_overflowing_objectives_exit_2(self, runner, out_dir, tmp_path):
        # every key is finite; the throughput at r = 0 is not
        doc = tmp_path / "huge.yaml"
        doc.write_text(
            "workload: {arrival_rate_pps: 1.0e+200, packet_size_bits: 1.0e+200}\n"
            "fog: {proc_capability_pps: 1.0e+300, energy_per_bit_j: 1.0e-300,"
            " idle_power_w: 2.0, tdp_w: 1.0e+308}\n"
            "network: {uplink_throughput_bps: 1.5e+6,"
            " downlink_throughput_bps: 1.5e+6}\n"
            "cloud: {proc_capability_bps: 3.0e+6}\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "0.5"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: workload.arrival_rate_pps: ")
        assert not out_dir.exists()

    def test_repeated_key_exits_2(self, runner, tmp_path):
        doc = tmp_path / "twice.yaml"
        doc.write_text("name: a\nname: b\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "0.5"])
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    def test_stability_boundary_warns_once(self, runner):
        with pytest.warns(InstabilityWarning) as record:
            result = runner.invoke(main, ["evaluate", "--r", "1"])
        assert result.exit_code == 0
        assert [str(w.message) for w in record] == [
            "accepted rate 100 pkt/s >= fog capability 100 pkt/s; "
            "linearized latency is outside its stable region"]

    def test_tdp_breach_exits_3(self, runner, tmp_path):
        doc = tmp_path / "hot.yaml"
        doc.write_text(
            "workload: {arrival_rate_pps: 100, packet_size_bits: 12000}\n"
            "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-4,"
            " idle_power_w: 2.0, tdp_w: 10.0}\n"
            "network: {preset: hspa}\n"
            "cloud: {proc_capability_bps: 3.0e+6}\n")
        result = runner.invoke(main, ["evaluate", "--scenario", str(doc),
                                      "--r", "1.0"])
        assert result.exit_code == 3
        assert "TDP" in result.stderr


class TestSweep:
    def test_v_fog_grid_row_count(self, runner, out_dir):
        result = runner.invoke(main, [
            "sweep", "--grid", "v_fog_frac=0.25,0.5,0.75,1.0",
            "--r-steps", "101"])
        assert result.exit_code == 0
        rows = read_rows(out_dir / "sweep.csv")
        assert len(rows) == 404
        assert {row["group"] for row in rows} == {"0", "1", "2", "3"}
        for gid in range(4):
            assert (out_dir / f"sweep_g{gid:03d}.csv").exists()

    def test_linear_tradeoff_within_each_group(self, runner, out_dir):
        result = runner.invoke(main, [
            "sweep", "--grid", "network=gsm,hspa_plus", "--r-steps", "51"])
        assert result.exit_code == 0
        gamma, theta, full = 1e-7, 2.0, 1.2e6
        for row in read_rows(out_dir / "sweep.csv"):
            e = float(row["fog_power_w"])
            b = float(row["throughput_bps"])
            expected = gamma * full - gamma * b + theta
            assert abs(e - expected) <= 1e-9

    def test_uplink_axis_monotone_latency(self, runner, out_dir):
        result = runner.invoke(main, [
            "sweep", "--grid",
            "network.uplink_throughput_bps=1e5,1e6,1e7",
            "--r-steps", "3"])
        assert result.exit_code == 0
        rows = read_rows(out_dir / "sweep.csv")
        by_r = {}
        for row in rows:
            by_r.setdefault(row["r"], []).append(float(row["avg_latency_s"]))
        for r, values in by_r.items():
            if float(r) < 1.0:
                assert values[0] > values[1] > values[2]
            else:
                assert values[0] == values[1] == values[2]

    def test_stdout_is_sweep_csv_is_head_plus_group_bodies(self, runner,
                                                           out_dir):
        result = runner.invoke(main, [
            "sweep", "--grid", "network=gsm,hspa_plus;fog.tdp_w=2.0607,10",
            "--r-steps", "7"])
        assert result.exit_code == 3
        combined = (out_dir / "sweep.csv").read_text(encoding="utf-8")
        assert result.stdout == combined
        groups = [(out_dir / f"sweep_g{gid:03d}.csv").read_text(encoding="utf-8")
                  for gid in range(4)]
        head = "".join(combined.splitlines(keepends=True)[:2])
        assert all(group.startswith(head) for group in groups)
        assert combined == head + "".join(g[len(head):] for g in groups)
        assert [len(g.splitlines()) for g in groups] == [2 + 7] * 4

    def test_overflowing_axis_value_exits_2(self, runner, out_dir):
        result = runner.invoke(main, [
            "sweep", "--grid", "workload.packet_size_bits=12000,1e307"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: workload.arrival_rate_pps: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("grid", ["fog.idle_power_w=20;fog.tdp_w=30",
                                      "fog.tdp_w=30;fog.idle_power_w=20"])
    def test_axis_order_does_not_decide_validity(self, runner, out_dir,
                                                 grid):
        result = runner.invoke(main, ["sweep", "--grid", grid,
                                      "--r-steps", "3"])
        assert result.exit_code == 0, result.stderr
        assert len(read_rows(out_dir / "sweep.csv")) == 3

    def test_invalid_combination_exits_2(self, runner, out_dir):
        result = runner.invoke(main, ["sweep", "--grid",
                                      "fog.idle_power_w=40;fog.tdp_w=30"])
        assert result.exit_code == 2
        assert result.stderr == "error: fog.tdp: must exceed idle_power\n"
        assert not out_dir.exists()

    def test_bad_grid_exits_2(self, runner):
        result = runner.invoke(main, ["sweep", "--grid", "nope=1"])
        assert result.exit_code == 2

    def test_infeasible_rows_written_and_flagged(self, runner, out_dir):
        # the hot axis value pushes high-r rows over the 10 W TDP
        result = runner.invoke(main, [
            "sweep", "--grid", "fog.energy_per_bit_j=1e-7,1e-4",
            "--r-steps", "11"])
        assert result.exit_code == 3
        rows = read_rows(out_dir / "sweep.csv")
        assert len(rows) == 22
        flags = {row["feasible"] for row in rows}
        assert flags == {"true", "false"}
        hot = [row for row in rows if row["group"] == "1"
               and float(row["r"]) == 1.0]
        assert hot[0]["feasible"] == "false"
        assert float(hot[0]["fog_power_w"]) == pytest.approx(122.0, rel=1e-9)


class TestOptimize:
    ARGS = ["optimize", "--pop", "24", "--gens", "12", "--seed", "42"]

    def test_byte_identical_reruns(self, runner, out_dir):
        assert runner.invoke(main, self.ARGS).exit_code == 0
        first = (out_dir / "optimize.csv").read_bytes()
        assert runner.invoke(main, self.ARGS).exit_code == 0
        assert (out_dir / "optimize.csv").read_bytes() == first

    def test_rows_sorted_by_throughput(self, runner, out_dir):
        assert runner.invoke(main, self.ARGS).exit_code == 0
        rows = read_rows(out_dir / "optimize.csv")
        bs = [float(row["throughput_bps"]) for row in rows]
        assert bs == sorted(bs)
        assert all(row["rank"] == "0" for row in rows)

    def test_each_split_listed_once(self, runner, out_dir):
        # README's run; children clamped to 0 or 1 used to repeat a split
        args = ["optimize", "--pop", "100", "--gens", "100", "--seed", "42"]
        assert runner.invoke(main, args).exit_code == 0
        rs = [row["r"] for row in read_rows(out_dir / "optimize.csv")]
        assert len(rs) == len(set(rs))

    def test_seed_is_required(self, runner):
        result = runner.invoke(main, ["optimize", "--pop", "24"])
        assert result.exit_code == 2

    def test_no_feasible_solution_exits_4(self, runner, tmp_path):
        doc = tmp_path / "impossible.yaml"
        doc.write_text(
            "modification1_enabled: true\n"
            "workload: {arrival_rate_pps: 100, packet_size_bits: 12000}\n"
            "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-3,"
            " idle_power_w: 2.0, tdp_w: 10.0, tx_energy_per_bit_j: 1.0e-3}\n"
            "network: {preset: hspa}\n"
            "cloud: {proc_capability_bps: 3.0e+6}\n")
        result = runner.invoke(main, ["optimize", "--scenario", str(doc),
                                      "--pop", "8", "--gens", "3",
                                      "--seed", "1"])
        assert result.exit_code == 4

    def test_manifest_carries_seed(self, runner, out_dir):
        assert runner.invoke(main, self.ARGS).exit_code == 0
        manifest = manifest_of(out_dir / "optimize.csv")
        assert manifest.seed == 42
        assert manifest.command == "optimize"


class TestSimulate:
    def test_mm1_sojourn_column(self, runner, out_dir, tmp_path):
        doc = tmp_path / "mm1.yaml"
        doc.write_text(
            "workload: {arrival_rate_pps: 50, packet_size_bits: 12000}\n"
            "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-7,"
            " idle_power_w: 2.0, tdp_w: 10.0}\n"
            "network: {uplink_throughput_bps: 1.5e+6,"
            " downlink_throughput_bps: 1.5e+6}\n"
            "cloud: {proc_capability_bps: 3.0e+6}\n")
        result = runner.invoke(main, [
            "simulate", "--scenario", str(doc), "--local-prob", "0.5",
            "--duration", "1000", "--seed", "5"])
        assert result.exit_code == 0
        (row,) = read_rows(out_dir / "simulate.csv")
        assert float(row["mean_local_sojourn_s"]) \
            == pytest.approx(1.0 / 75.0, rel=0.10)

    def test_duration_equal_to_warmup_exits_2(self, runner):
        result = runner.invoke(main, [
            "simulate", "--local-prob", "0.5", "--duration", "100",
            "--warmup", "100", "--seed", "5"])
        assert result.exit_code == 2

    def test_trace_row_count_matches_generated(self, runner, out_dir, tmp_path):
        trace = tmp_path / "trace.csv"
        result = runner.invoke(main, [
            "simulate", "--local-prob", "0.5", "--duration", "30",
            "--seed", "5", "--trace", str(trace)])
        assert result.exit_code == 0
        (row,) = read_rows(out_dir / "simulate.csv")
        trace_rows = read_rows(trace)
        assert len(trace_rows) == int(row["packets_generated"])

    def test_byte_identical_reruns(self, runner, out_dir, tmp_path):
        args = ["simulate", "--local-prob", "0.25", "--duration", "40",
                "--seed", "9", "--trace", str(tmp_path / "t.csv")]
        assert runner.invoke(main, args).exit_code == 0
        first = (out_dir / "simulate.csv").read_bytes()
        first_trace = (tmp_path / "t.csv").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert (out_dir / "simulate.csv").read_bytes() == first
        assert (tmp_path / "t.csv").read_bytes() == first_trace


class TestFov:
    def test_default_heights_mirror_reference_design(self, runner, out_dir):
        result = runner.invoke(main, ["fov"])
        assert result.exit_code == 0
        rows = read_rows(out_dir / "fov.csv")
        assert sorted({float(r["height_m"]) for r in rows}) == [10.0, 15.0,
                                                                20.0]

    def test_dwell_doubles_with_height(self, runner, out_dir):
        assert runner.invoke(main, ["fov", "--heights", "10,20",
                                    "--speeds", "5"]).exit_code == 0
        rows = read_rows(out_dir / "fov.csv")
        dwell = {float(r["height_m"]): float(r["dwell_s"]) for r in rows}
        assert dwell[20.0] == pytest.approx(2 * dwell[10.0], rel=1e-12)

    def test_feasibility_flips_with_speed(self, runner, out_dir):
        assert runner.invoke(main, ["fov", "--heights", "10",
                                    "--speeds", "5,10"]).exit_code == 0
        rows = read_rows(out_dir / "fov.csv")
        verdicts = {float(r["speed_mps"]): r["cloud_feasible_at_1.68s"]
                    for r in rows}
        assert verdicts[5.0] == "true"
        assert verdicts[10.0] == "false"

    def test_empty_heights_exit_2(self, runner):
        assert runner.invoke(main, ["fov", "--heights", ""]).exit_code == 2

    def test_negative_speed_exit_2(self, runner):
        assert runner.invoke(main, ["fov", "--speeds", "-5"]).exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--heights", "1e308", "--speeds", "1e-300"],
        ["--heights", "10,1e300", "--speeds", "5,1e-300"],
    ], ids=["footprint-and-dwell", "dwell-only"])
    def test_non_finite_footprint_or_dwell_exits_2(self, runner, out_dir,
                                                   args):
        # finite options whose footprint or dwell time overflows to inf
        result = runner.invoke(main, ["fov", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not out_dir.exists()


class TestPower:
    def test_quad_grid_strictly_increasing(self, runner, out_dir):
        result = runner.invoke(main, ["power", "--kind", "quad"])
        assert result.exit_code == 0
        rows = read_rows(out_dir / "power.csv")
        assert len(rows) == 11
        powers = [float(r["power_w"]) for r in rows]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        deltas = [float(r["delta_power_plus_250g_w"]) for r in rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert deltas[0] == pytest.approx(12.9049, rel=1e-4)
        assert deltas[-1] == pytest.approx(28.9027, rel=1e-4)

    def test_fixed_wing_mass_scaling(self, runner, out_dir):
        assert runner.invoke(main, ["power", "--kind", "fixedwing"
                                    ]).exit_code == 0
        rows = {float(r["mass_kg"]): float(r["power_w"])
                for r in read_rows(out_dir / "power.csv")}
        assert rows[3.0] / rows[0.75] == pytest.approx(4 ** 1.5, rel=1e-9)

    def test_mass_range_outside_envelope_exits_2(self, runner):
        result = runner.invoke(main, ["power", "--mass-min", "0.5",
                                      "--mass-max", "4.0"])
        assert result.exit_code == 2

    def test_overload_exits_3(self, runner, out_dir):
        # 1% efficiency forces hover power beyond the 4-motor envelope
        result = runner.invoke(main, ["power", "--kind", "quad",
                                      "--efficiency", "0.01"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("args", [
        ["--efficiency", "2"],
        ["--kind", "fixedwing", "--wing-area", "-1"],
        ["--kind", "fixedwing", "--drag-coeff", "0"],
        # the level-flight power is not a finite float
        ["--kind", "fixedwing", "--lift-coeff", "1e-300"],
        ["--kind", "fixedwing", "--wing-area", "1e-300"],
        ["--kind", "fixedwing", "--wing-area", "1e-300",
         "--lift-coeff", "1e-300"],
        ["--kind", "fixedwing", "--efficiency", "5e-324"],
    ], ids=["efficiency", "wing-area", "drag-coeff", "fixedwing-lift-overflow",
            "fixedwing-wing-overflow", "fixedwing-zero-lift",
            "fixedwing-efficiency-overflow"])
    def test_option_the_aircraft_model_rejects_exits_2(self, runner, out_dir,
                                                       args):
        result = runner.invoke(main, ["power", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not (out_dir / "power.csv").exists()

    @pytest.mark.parametrize("option, args", [
        ("--wing-area", ["--wing-area", "5"]),
        ("--drag-coeff", ["--kind", "quad", "--drag-coeff", "0"]),
        # its default value, but given on the command line
        ("--lift-coeff", ["--lift-coeff", "0.3", "--kind", "quad"]),
    ])
    def test_fixed_wing_option_with_quad_exits_2(self, runner, out_dir,
                                                 option, args):
        result = runner.invoke(main, ["power", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert option in result.stderr
        assert not (out_dir / "power.csv").exists()


class TestGridCaps:
    """An oversized r-grid or mass grid is an input error, found before any
    grid is built.  Each test reads the cap first, so no test here runs an
    oversized grid."""

    @pytest.mark.parametrize("r_steps, code", [("101", 0), ("102", 2)],
                             ids=["at-cap", "over-cap"])
    def test_sweep_r_steps_at_and_over_the_cap(self, runner, out_dir,
                                               monkeypatch, r_steps, code):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 101)
        result = runner.invoke(main, ["sweep", "--r-steps", r_steps])
        assert result.exit_code == code
        assert (out_dir / "sweep.csv").exists() == (code == 0)

    @pytest.mark.parametrize("cap, code", [(11, 0), (10, 2)],
                             ids=["at-cap", "over-cap"])
    def test_power_masses_at_and_over_the_cap(self, runner, out_dir,
                                              monkeypatch, cap, code):
        # the default mass grid, 0.5 to 3.0 kg in steps of 0.25, holds 11
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", cap)
        result = runner.invoke(main, ["power"])
        assert result.exit_code == code
        assert (out_dir / "power.csv").exists() == (code == 0)

    @pytest.mark.parametrize("args", [
        ["sweep", "--r-steps", "{over_cap}"],
        ["sweep", "--r-steps", "100000000"],
        ["power", "--step", "1e-12"],
        # the mass span over this step is inf
        ["power", "--step", "5e-324"],
    ], ids=["sweep-cap+1", "sweep-1e8", "power-1e-12", "power-subnormal"])
    def test_oversized_grid_exits_2(self, runner, out_dir, args):
        over_cap = cli.MAX_GRID_POINTS + 1
        assert over_cap <= 100_000_000
        result = runner.invoke(main, [arg.format(over_cap=over_cap)
                                      for arg in args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("pop, code", [("8", 0), ("10", 2)],
                             ids=["at-cap", "over-cap"])
    def test_optimize_population_at_and_over_the_cap(self, runner, out_dir,
                                                     monkeypatch, pop, code):
        monkeypatch.setattr(optimizer, "_MAX_POPULATION", 8)
        result = runner.invoke(main, ["optimize", "--pop", pop, "--gens", "1",
                                      "--seed", "1"])
        assert result.exit_code == code
        assert (out_dir / "optimize.csv").exists() == (code == 0)
        if code:
            assert result.stderr.startswith("error: population_size")

    @pytest.mark.parametrize("gens, code", [("2", 0), ("3", 2)],
                             ids=["at-cap", "over-cap"])
    def test_optimize_generations_at_and_over_the_cap(self, runner, out_dir,
                                                      monkeypatch, gens, code):
        monkeypatch.setattr(optimizer, "_MAX_GENERATIONS", 2)
        result = runner.invoke(main, ["optimize", "--pop", "8", "--gens", gens,
                                      "--seed", "1"])
        assert result.exit_code == code
        assert (out_dir / "optimize.csv").exists() == (code == 0)
        if code:
            assert result.stderr.startswith("error: generations")

    @pytest.mark.parametrize("gens, code", [("2", 0), ("3", 2)],
                             ids=["at-cap", "over-cap"])
    def test_optimize_search_work_at_and_over_the_cap(self, runner, out_dir,
                                                      monkeypatch, gens, code):
        monkeypatch.setattr(optimizer, "_MAX_SEARCH_WORK", 8 ** 2 * 2)
        result = runner.invoke(main, ["optimize", "--pop", "8", "--gens", gens,
                                      "--seed", "1"])
        assert result.exit_code == code
        assert (out_dir / "optimize.csv").exists() == (code == 0)
        if code:
            assert result.stderr == ("error: generations: must be at most 2 "
                                     "at population_size 8\n")

    @pytest.mark.parametrize("duration, code", [("20", 0), ("20.5", 2)],
                             ids=["at-cap", "over-cap"])
    def test_simulate_arrivals_at_and_over_the_cap(self, runner, out_dir,
                                                   monkeypatch, duration, code):
        # the default scenario offers 100 packets/s
        monkeypatch.setattr(simulation, "_MAX_ARRIVALS", 2000)
        result = runner.invoke(main, ["simulate", "--local-prob", "0.5",
                                      "--duration", duration, "--seed", "1"])
        assert result.exit_code == code
        assert (out_dir / "simulate.csv").exists() == (code == 0)
        if code:
            assert result.stderr.startswith("error: duration_s: ")

    @pytest.mark.parametrize("grid, code", [
        ("v_fog_frac=0.5,1.0;network=gsm,umts,hspa", 0),
        ("v_fog_frac=0.5,1.0;network=gsm,umts,hspa,hspa_plus", 2),
    ], ids=["at-cap", "over-cap"])
    def test_sweep_rows_at_and_over_the_cap(self, runner, out_dir,
                                            monkeypatch, grid, code):
        built = []

        def counted(*args):
            built.append(args)
            return sweep_grid(*args)
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 6 * 3)
        monkeypatch.setattr(cli, "sweep_grid", counted)
        result = runner.invoke(main, ["sweep", "--grid", grid,
                                      "--r-steps", "3"])
        assert result.exit_code == code
        assert out_dir.exists() == (code == 0)
        # the rows are counted before any scenario is built
        assert bool(built) == (code == 0)
        if code:
            assert result.stderr == ("error: --grid gives 8 configurations x "
                                     "--r-steps 3 = 24 rows, more than 18\n")

    def test_sweep_rows_cap_admits_one_group_at_the_r_steps_cap(self):
        assert cli.MAX_SWEEP_ROWS >= cli.MAX_GRID_POINTS

    def test_cap_admits_the_benchmark_sweep(self):
        # perfbench's sweep workload runs 32 configurations at --r-steps 2001
        assert cli.MAX_GRID_POINTS >= 2001
        assert cli.MAX_SWEEP_ROWS >= 32 * 2001


class TestPresets:
    def test_contains_key_table_values(self, runner, out_dir):
        result = runner.invoke(main, ["presets"])
        assert result.exit_code == 0
        rows = read_rows(out_dir / "presets.csv")
        index = {(r["name"], r["field"]): r["value"] for r in rows}
        assert float(index[("hspa_plus", "uplink_bps")]) == 11.5e6
        assert float(index[("x2212", "kv_rpm_per_v")]) == 1250.0
        assert float(index[("1080p", "max_bps")]) == 6e6

    def test_manifest_digest_is_catalog_checksum(self, runner, out_dir):
        assert runner.invoke(main, ["presets"]).exit_code == 0
        manifest = manifest_of(out_dir / "presets.csv")
        assert manifest.scenario_digest == "sha256:" + catalog_checksum()


class TestArtifactContract:
    @pytest.mark.parametrize("args,filename", [
        (["evaluate", "--r", "0.5"], "evaluate.csv"),
        (["sweep", "--r-steps", "3"], "sweep.csv"),
        (["optimize", "--pop", "8", "--gens", "2", "--seed", "1"],
         "optimize.csv"),
        (["simulate", "--local-prob", "0.5", "--duration", "20",
          "--seed", "1"], "simulate.csv"),
        (["fov"], "fov.csv"),
        (["power"], "power.csv"),
        (["presets"], "presets.csv"),
    ])
    def test_manifest_header_and_csv_shape(self, runner, out_dir, args,
                                           filename):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        text = (out_dir / filename).read_text(encoding="utf-8")
        assert text.startswith(MANIFEST_PREFIX)
        manifest = RunManifest.from_comment_line(text.splitlines()[0])
        assert manifest.command == args[0]
        assert manifest.version
        assert manifest.timestamp == "2023-11-14T22:13:20+00:00"
        parsed = list(csv.reader(io.StringIO(strip_manifest(text))))
        widths = {len(line) for line in parsed}
        assert len(widths) == 1  # header and all rows have equal width

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("args", [["evaluate", "--r", "0.5"],
                                      ["sweep", "--r-steps", "2001"]],
                             ids=["evaluate", "sweep"])
    def test_artifact_that_opens_but_cannot_be_written_exits_2(
            self, runner, out_dir, args):
        # the rows overflow the write buffer before the artifact closes
        out_dir.mkdir()
        (out_dir / f"{args[0]}.csv").symlink_to("/dev/full")
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == ("error: cannot write artifact: [Errno 28] "
                                 "No space left on device\n")

    def test_stdout_closed_by_its_reader_is_no_artifact_error(self, out_dir):
        # click ends a command whose stdout pipe breaks with exit 1 and no
        # message; sweep echoes its rows inside the artifact write guard
        src = str(Path(fogscope.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "fogscope.cli", "sweep", "--r-steps",
             "2001"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "error:" not in stderr

    def test_piped_stdout_keeps_an_ansi_escape_in_a_cell(self, out_dir,
                                                         tmp_path):
        # click.echo strips ANSI escapes when stdout is no terminal; the
        # rows on stdout must still be the artifact's bytes, here several
        # render blocks and write chunks long
        doc = tmp_path / "ansi.yaml"
        doc.write_text(DEFAULT_DOC.replace("name: default",
                                           'name: "red\\e[31mname"'))
        src = str(Path(fogscope.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fogscope.cli", "sweep", "--scenario",
             str(doc), "--r-steps", "2001"], capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        artifact = (out_dir / "sweep.csv").read_bytes()
        assert artifact.count(b",red\x1b[31mname,") == 2001
        assert proc.stdout == artifact

    def test_numeric_output_is_locale_independent(self, runner, out_dir):
        assert runner.invoke(main, ["evaluate", "--r", "0.75"]).exit_code == 0
        text = (out_dir / "evaluate.csv").read_text(encoding="utf-8")
        data_line = text.splitlines()[2]
        assert "," in data_line  # CSV separator
        for cell in data_line.split(",")[:-1]:
            float(cell)  # parses with '.' decimal separator
        assert not any(ch for ch in data_line if ord(ch) > 127)


ROOT = Path(__file__).parents[1]
DEFAULT_DOC = (ROOT / "scenarios" / "default.yaml").read_text(encoding="utf-8")
HEX_KEY = "? 0x1" + "0" * 4000 + "\n"
# scenario files for the rejected commands below, written to {tmp}
ERROR_DOCS = {
    "broken.yaml": "workload: [1, 2\n",
    "control.yaml": "name: a\x01\n",
    "twice.yaml": "name: a\nname: b\n",
    "empty.yaml": "",
    "bad.yaml": "workload: {arrival_rate_pps: 1, packet_size_bits: 0}\n",
    "nameless.yaml": "name: ''\n",
    "flag.yaml": "modification1_enabled: 1\n",
    "huge.yaml": "workload: {arrival_rate_pps: 1" + "0" * 5000 + "}\n",
    # YAML reads hex ints past the int-string limit, which repr then fails
    "hex-flag.yaml": "modification1_enabled: 0x1" + "0" * 4000 + "\n",
    "hex-list.yaml": "workload: {arrival_rate_pps: [0x1" + "0" * 4000 + "]}\n",
    "nested.yaml": "workload: " + "[" * 2000 + "]" * 2000 + "\n",
    # keys of mixed types, which do not sort, and a key repr cannot show
    "mixed-keys.yaml": DEFAULT_DOC + "1: a\nfoo: b\n",
    "mixed-keys-section.yaml": DEFAULT_DOC.replace(
        "workload:\n", "workload:\n  1: a\n  foo: b\n"),
    "hex-key.yaml": DEFAULT_DOC + HEX_KEY,
    "hex-key-twice.yaml": DEFAULT_DOC + HEX_KEY * 2,
    # explicit tags whose constructors raise, or that a collection cannot take
    "tag-bool.yaml": DEFAULT_DOC.replace("name: default", "name: !!bool x"),
    "tag-bool-number.yaml": DEFAULT_DOC.replace("tdp_w: 10.0",
                                                "tdp_w: !!bool maybe"),
    "tag-map.yaml": DEFAULT_DOC.replace("name: default", "name: !!map [1]"),
    "tag-set.yaml": DEFAULT_DOC.replace("name: default", "name: !!set [1]"),
    "tag-map-number.yaml": DEFAULT_DOC.replace("tdp_w: 10.0",
                                               "tdp_w: !!map [1]"),
    "tag-timestamp.yaml": DEFAULT_DOC.replace("name: default",
                                              "name: !!timestamp x"),
    # a merged mapping is checked whatever its tag
    "merge-tag.yaml": DEFAULT_DOC + "<<: !!merge {1: a, foo: b}\n",
    "merge-tag-list.yaml": DEFAULT_DOC + "<<: [!!merge {name: !!bool x}]\n",
    # merged under any tag, but checked again where an alias uses it
    "merge-tag-alias.yaml": DEFAULT_DOC.replace(
        "network:\n", "network:\n  <<: &m !!map [{noise_sigma: 0.2}]\n")
    + "extra: *m\n",
    # the first fault by line is reported, not the last
    "two-faults.yaml": DEFAULT_DOC.replace(
        "name: default", "name: !!bool x").replace("tdp_w: 10.0",
                                                   "tdp_w: !!map [1]"),
    # bytes 0xff 0xfe, which UTF-8 does not decode, written as surrogates
    "not-utf8.yaml": "name: \udcff\udcfe bad\n",
    "tdp-bound.yaml": DEFAULT_DOC.replace("tdp_w: 10.0", "tdp_w: 2.0607"),
    "impossible.yaml":
        "modification1_enabled: true\n"
        "workload: {arrival_rate_pps: 100, packet_size_bits: 12000}\n"
        "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-3,"
        " idle_power_w: 2.0, tdp_w: 10.0, tx_energy_per_bit_j: 1.0e-3}\n"
        "network: {preset: hspa}\n"
        "cloud: {proc_capability_bps: 3.0e+6}\n",
}
SIM = ["simulate", "--local-prob", "0.5", "--duration", "10", "--seed", "1"]
EPOCH_ERROR = ("error: SOURCE_DATE_EPOCH: must be an integer number of "
               "seconds giving a representable date, got {}\n")
# (arguments, exit code, stderr) of commands that fail before any artifact
ERROR_LINES = {
    "yaml-broken": (
        ["evaluate", "--scenario", "{tmp}/broken.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: expected ',' or ']', but got "
        "'<stream end>' (line 2, column 1)\n"),
    # the reader's errors carry a character offset, given as a line and column
    "yaml-control": (
        ["evaluate", "--scenario", "{tmp}/control.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: unacceptable character #x0001: "
        "special characters are not allowed (line 1, column 8)\n"),
    "yaml-repeated": (
        ["evaluate", "--scenario", "{tmp}/twice.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: found duplicate key 'name' "
        "(line 2, column 1)\n"),
    # an int past Python's int-string limit of 4300 digits
    "yaml-huge-int": (
        ["evaluate", "--scenario", "{tmp}/huge.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: unreadable int scalar "
        "(line 1, column 30)\n"),
    "yaml-hex-flag": (
        ["evaluate", "--scenario", "{tmp}/hex-flag.yaml", "--r", "0.5"], 2,
        "error: modification1_enabled: expected true/false, got a value too "
        "long to show (int)\n"),
    "yaml-hex-list": (
        ["evaluate", "--scenario", "{tmp}/hex-list.yaml", "--r", "0.5"], 2,
        "error: workload.arrival_rate_pps: expected a number, got a value too "
        "long to show (list)\n"),
    # PyYAML composes nested nodes recursively
    "yaml-nested": (
        ["evaluate", "--scenario", "{tmp}/nested.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: nested too deeply\n"),
    "yaml-mixed-keys": (
        ["evaluate", "--scenario", "{tmp}/mixed-keys.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: expected a string key, found int "
        "(line 22, column 1)\n"),
    "yaml-mixed-keys-section": (
        ["evaluate", "--scenario", "{tmp}/mixed-keys-section.yaml",
         "--r", "0.5"], 2, "error: invalid scenario document: expected a "
        "string key, found int (line 4, column 3)\n"),
    "yaml-hex-key": (
        ["evaluate", "--scenario", "{tmp}/hex-key.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: expected a string key, found int "
        "(line 22, column 3)\n"),
    "yaml-hex-key-twice": (
        ["evaluate", "--scenario", "{tmp}/hex-key-twice.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: expected a string key, found "
        "int (line 22, column 3)\n"),
    "yaml-tag-bool": (
        ["evaluate", "--scenario", "{tmp}/tag-bool.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: unreadable bool scalar "
        "(line 2, column 7)\n"),
    "yaml-tag-bool-number": (
        ["evaluate", "--scenario", "{tmp}/tag-bool-number.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: unreadable bool scalar "
        "(line 10, column 10)\n"),
    "yaml-tag-map": (
        ["evaluate", "--scenario", "{tmp}/tag-map.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: found a sequence tagged map "
        "(line 2, column 7)\n"),
    "yaml-tag-set": (
        ["evaluate", "--scenario", "{tmp}/tag-set.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: found a sequence tagged set "
        "(line 2, column 7)\n"),
    "yaml-tag-map-number": (
        ["evaluate", "--scenario", "{tmp}/tag-map-number.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: found a sequence tagged map "
        "(line 10, column 10)\n"),
    "yaml-tag-timestamp": (
        ["evaluate", "--scenario", "{tmp}/tag-timestamp.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: unreadable timestamp scalar "
        "(line 2, column 7)\n"),
    "yaml-merge-tag": (
        ["evaluate", "--scenario", "{tmp}/merge-tag.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: expected a string key, found int "
        "(line 22, column 14)\n"),
    "yaml-merge-tag-list": (
        ["evaluate", "--scenario", "{tmp}/merge-tag-list.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: unreadable bool scalar "
        "(line 22, column 21)\n"),
    "yaml-merge-tag-alias": (
        ["evaluate", "--scenario", "{tmp}/merge-tag-alias.yaml", "--r", "0.5"],
        2, "error: invalid scenario document: found a sequence tagged map "
        "(line 13, column 7)\n"),
    "yaml-two-faults": (
        ["evaluate", "--scenario", "{tmp}/two-faults.yaml", "--r", "0.5"], 2,
        "error: invalid scenario document: unreadable bool scalar "
        "(line 2, column 7)\n"),
    "yaml-empty": (["evaluate", "--scenario", "{tmp}/empty.yaml", "--r", "1"],
                   2, "error: empty scenario document\n"),
    "yaml-bad": (["evaluate", "--scenario", "{tmp}/bad.yaml", "--r", "0.5"], 2,
                 "error: workload.packet_size: must be > 0\n"),
    "yaml-name": (["evaluate", "--scenario", "{tmp}/nameless.yaml",
                   "--r", "0.5"], 2,
                  "error: name: must be a nonempty string\n"),
    "yaml-flag": (["sweep", "--scenario", "{tmp}/flag.yaml"], 2,
                  "error: modification1_enabled: expected true/false, "
                  "got 1\n"),
    "yaml-missing": (
        ["evaluate", "--scenario", "{tmp}/missing.yaml", "--r", "0.5"], 2,
        "error: cannot read scenario file: [Errno 2] No such file or "
        "directory: '{tmp}/missing.yaml'\n"),
    "yaml-not-utf8": (
        ["evaluate", "--scenario", "{tmp}/not-utf8.yaml", "--r", "0.5"], 2,
        "error: cannot read scenario file: 'utf-8' codec can't decode byte "
        "0xff in position 6: invalid start byte\n"),
    "r-bound": (["evaluate", "--r", "1.5"], 2,
                "error: --r=1.5 violates the bound [0, 1]\n"),
    "grid-malformed": (["sweep", "--grid", "v_fog_frac"], 2,
                       "error: grid: malformed axis spec 'v_fog_frac'\n"),
    "grid-axis": (["sweep", "--grid", "nope=1"], 2,
                  "error: grid: unknown axis 'nope'\n"),
    # the second would overwrite the first's values under its labels
    "grid-twice": (["sweep", "--grid", "network=gsm,umts;network=hspa",
                    "--r-steps", "2"], 2,
                   "error: grid: axis 'network' given twice\n"),
    # two identical groups under one label
    "grid-repeat": (["sweep", "--grid", "network=gsm,gsm", "--r-steps", "2"],
                    2, "error: grid: axis 'network' gives 'gsm' twice\n"),
    # one number written two ways: two identical groups under two labels
    "grid-repeat-number": (["sweep", "--grid",
                            "network.uplink_throughput_bps=1e5,100000",
                            "--r-steps", "2"], 2,
                           "error: grid: axis 'network.uplink_throughput_bps' "
                           "gives 100000.0 twice\n"),
    "grid-repeat-fraction": (["sweep", "--grid", "v_fog_frac=0.5,0.50",
                              "--r-steps", "2"], 2,
                             "error: grid: axis 'v_fog_frac' gives 0.5 "
                             "twice\n"),
    # a preset bound and the bit rate it names
    "grid-repeat-preset": (["sweep", "--grid", "bitrate=360p_max,1000000.0",
                            "--r-steps", "2"], 2,
                           "error: grid: axis 'bitrate' gives 1000000.0 "
                           "twice\n"),
    # two axes that set one field: the later overwrites the earlier
    "grid-same-field": (["sweep", "--grid", "workload.arrival_rate_pps=1,2;"
                         "bitrate=1080p_max", "--r-steps", "2"], 2,
                        "error: grid: axes 'workload.arrival_rate_pps' and "
                        "'bitrate' set the same field\n"),
    "grid-same-preset-field": (["sweep", "--grid", "network.base_latency_s="
                                "0.1,0.2;network=gsm", "--r-steps", "2"], 2,
                               "error: grid: axes 'network.base_latency_s' "
                               "and 'network' set the same field\n"),
    "grid-network": (["sweep", "--grid", "network=5g"], 2,
                     "error: grid.network: unknown preset '5g'\n"),
    "grid-number": (["sweep", "--grid", "fog.tdp_w=hot"], 2,
                    "error: grid.fog.tdp_w: expected a number, got 'hot'\n"),
    "grid-infinite": (["sweep", "--grid", "fog.tdp_w=inf"], 2,
                      "error: grid.fog.tdp_w: must be finite, got 'inf'\n"),
    "grid-fraction-nan": (["sweep", "--grid", "v_fog_frac=nan"], 2,
                          "error: grid.v_fog_frac: must be finite, "
                          "got 'nan'\n"),
    "grid-bitrate": (["sweep", "--grid", "bitrate=720p_mid"], 2,
                     "error: grid.bitrate: expected <preset>_min, "
                     "<preset>_max or a bits/s value, got '720p_mid'\n"),
    "grid-bitrate-inf": (["sweep", "--grid", "bitrate=inf"], 2,
                         "error: grid.bitrate: expected <preset>_min, "
                         "<preset>_max or a bits/s value, got 'inf'\n"),
    # the bit rate is divided by the packet size
    "grid-bitrate-packet": (["sweep", "--grid", "workload.packet_size_bits=0;"
                             "bitrate=1080p_max"], 2,
                            "error: workload.packet_size: must be > 0\n"),
    "grid-combination": (["sweep", "--grid",
                          "fog.idle_power_w=40;fog.tdp_w=30"], 2,
                         "error: fog.tdp: must exceed idle_power\n"),
    "optimize-pop": (["optimize", "--pop", "3", "--seed", "1"], 2,
                     "error: population_size: must be even and within "
                     "[4, 4000]\n"),
    "optimize-gens": (["optimize", "--gens", "0", "--seed", "1"], 2,
                      "error: generations: must be within [1, 100000]\n"),
    "optimize-crossover": (["optimize", "--crossover-rate", "2", "--seed",
                            "1"], 2,
                           "error: crossover_rate: must be within [0, 1]\n"),
    "optimize-sigma": (["optimize", "--mutation-sigma", "0", "--seed", "1"],
                       2, "error: mutation_sigma: must be finite and > 0\n"),
    "optimize-seed": (["optimize", "--seed", "-1"], 2,
                      "error: seed: must be >= 0\n"),
    "optimize-infeasible": (
        ["optimize", "--scenario", "{tmp}/impossible.yaml", "--pop", "8",
         "--gens", "3", "--seed", "1"], 4,
        "error: no workload split within the TDP bound was found\n"),
    "simulate-prob": (["simulate", "--local-prob", "2", "--duration", "10",
                       "--seed", "1"], 2,
                      "error: local_prob: must be within [0, 1]\n"),
    "simulate-warmup": ([*SIM, "--warmup", "10"], 2,
                        "error: duration_s: duration must exceed warmup "
                        "(warmup >= 0)\n"),
    "simulate-arrivals": ([*SIM, "--duration", "1e9"], 2,
                          "error: duration_s: arrival rate x duration must be "
                          "at most 1000000 packets\n"),
    "simulate-seed": ([*SIM[:-1], "-1"], 2, "error: seed: must be >= 0\n"),
    "simulate-yaml": ([*SIM, "--scenario", "{tmp}/bad.yaml"], 2,
                      "error: workload.packet_size: must be > 0\n"),
    "power-overload": (["power", "--efficiency", "0.01"], 3,
                       "error: required power 2832.07 W exceeds the 1560 W "
                       "envelope\n"),
    "power-efficiency": (["power", "--efficiency", "2"], 2,
                         "error: overall_efficiency: must lie within "
                         "(0, 1]\n"),
    "power-lift-overflow": (
        ["power", "--kind", "fixedwing", "--lift-coeff", "1e-300"], 2,
        "error: aircraft: fixed-wing level power is not finite at mass 0.5 "
        "kg, wing area 0.72 m^2, lift coefficient 1e-300, drag coefficient "
        "0.05 and efficiency 1.0\n"),
    "power-not-a-motor": (["power", "--motor", "gsm"], 2,
                          "error: preset 'gsm' is not a motor\n"),
    "power-unknown-motor": (["power", "--motor", "nope"], 2,
                            "error: unknown motor preset 'nope'\n"),
    "fov-aspect": (["fov", "--aspect", "0:1"], 2,
                   "error: --aspect/--dfov: aspect_w: must be > 0\n"),
    "fov-footprint": (["fov", "--heights", "1e308", "--speeds", "1e-300"], 2,
                      "error: height_m: ground footprint is not finite at "
                      "height 1e+308 m\n"),
    "fov-dwell": (["fov", "--heights", "10,1e300", "--speeds", "5,1e-300"], 2,
                  "error: ground_speed_mps: dwell time is not finite at "
                  "height 1e+300 m and ground speed 1e-300 m/s\n"),
    "epoch-word": (["presets"], 2, EPOCH_ERROR.format("'abc'")),
    "epoch-empty": (["evaluate", "--r", "0.5"], 2, EPOCH_ERROR.format("''")),
    "epoch-float": (["sweep"], 2, EPOCH_ERROR.format("'1e9'")),
    "epoch-range": (SIM, 2, EPOCH_ERROR.format("'99999999999999999'")),
    "epoch-spaces": (["presets"], 2, EPOCH_ERROR.format("' 12 '")),
    "epoch-newline": (["presets"], 2, EPOCH_ERROR.format("'12\\n'")),
    "epoch-plus": (["presets"], 2, EPOCH_ERROR.format("'+12'")),
    "epoch-underscore": (["presets"], 2,
                         EPOCH_ERROR.format("'1_700_000_000'")),
    "epoch-arabic-digits": (["presets"], 2,
                            EPOCH_ERROR.format("'\u0661\u0662'")),
    "epoch-fullwidth-digits": (["presets"], 2,
                               EPOCH_ERROR.format("'\uff11\uff12'")),
    "epoch-minus-only": (["presets"], 2, EPOCH_ERROR.format("'-'")),
    "epoch-double-minus": (["presets"], 2, EPOCH_ERROR.format("'--12'")),
    "out-is-file": (["evaluate", "--r", "0.5"], 2,
                    "error: cannot write artifact: [Errno 17] File exists: "
                    "'{tmp}/broken.yaml'\n"),
    "out-is-file-sweep": (["sweep"], 2,
                          "error: cannot write artifact: [Errno 17] File "
                          "exists: '{tmp}/broken.yaml'\n"),
    "trace-is-dir": ([*SIM, "--trace", "{tmp}"], 2,
                     "error: cannot write trace file: [Errno 21] Is a "
                     "directory: '{tmp}'\n"),
    # model.TdpExceeded's message, then the split
    "evaluate-over-tdp": (
        ["evaluate", "--scenario", "{tmp}/tdp-bound.yaml", "--r", "0.9"], 3,
        "error: fog power 2.108 W exceeds TDP 2.0607 W at r=0.9\n"),
}
# the environment the cases above run under, over the out_dir fixture's
ERROR_ENV = {
    "epoch-word": {"SOURCE_DATE_EPOCH": "abc"},
    "epoch-empty": {"SOURCE_DATE_EPOCH": ""},
    "epoch-float": {"SOURCE_DATE_EPOCH": "1e9"},
    "epoch-range": {"SOURCE_DATE_EPOCH": "99999999999999999"},
    # int() takes each of these; the reproducible-builds convention asks
    # for ASCII digits, and `date +%s` prints at most a leading "-"
    "epoch-spaces": {"SOURCE_DATE_EPOCH": " 12 "},
    "epoch-newline": {"SOURCE_DATE_EPOCH": "12\n"},
    "epoch-plus": {"SOURCE_DATE_EPOCH": "+12"},
    "epoch-underscore": {"SOURCE_DATE_EPOCH": "1_700_000_000"},
    "epoch-arabic-digits": {"SOURCE_DATE_EPOCH": "\u0661\u0662"},
    "epoch-fullwidth-digits": {"SOURCE_DATE_EPOCH": "\uff11\uff12"},
    "epoch-minus-only": {"SOURCE_DATE_EPOCH": "-"},
    "epoch-double-minus": {"SOURCE_DATE_EPOCH": "--12"},
    # an existing file where the output directory should be
    "out-is-file": {"FOGSCOPE_OUT": "{tmp}/broken.yaml"},
    "out-is-file-sweep": {"FOGSCOPE_OUT": "{tmp}/broken.yaml"},
}


class TestErrorLines:
    """Each rejected command's exit code and exact ``error:`` line."""

    @pytest.mark.parametrize("name", sorted(ERROR_LINES))
    def test_exit_code_and_message(self, runner, out_dir, tmp_path, name):
        args, code, stderr = ERROR_LINES[name]
        for doc, text in ERROR_DOCS.items():
            (tmp_path / doc).write_text(text, encoding="utf-8",
                                        errors="surrogateescape")
        env = {key: value.format(tmp=tmp_path)
               for key, value in ERROR_ENV.get(name, {}).items()}
        result = runner.invoke(main, [arg.format(tmp=tmp_path)
                                      for arg in args], env=env)
        assert result.exit_code == code
        assert result.stderr == stderr.format(tmp=tmp_path)
        assert result.stdout == ""
        assert not out_dir.exists()

    def test_optimize_help_shows_the_search_defaults(self, runner):
        result = runner.invoke(main, ["optimize", "--help"])
        assert result.exit_code == 0
        shown = dict(re.findall(r"(--[a-z-]+) \w+ +\[default: (\S+)\]",
                                result.stdout))
        assert shown == {"--pop": "100", "--gens": "100",
                         "--crossover-rate": "0.9", "--mutation-rate": "0.1",
                         "--mutation-sigma": "0.05"}

    def test_other_exceptions_propagate(self, runner, out_dir, monkeypatch):
        # a bug is no input error: it must end in a traceback, not exit 2
        def broken(*args):
            raise RuntimeError("bug")
        monkeypatch.setattr(cli, "sweep_grid", broken)
        result = runner.invoke(main, ["sweep"])
        assert result.exit_code == 1
        assert isinstance(result.exception, RuntimeError)
        assert result.stderr == ""


class _Counted:
    """Stands in for a module that cli calls through, as perfbench's traced
    replay does: calls of one function are counted, every other name is
    the module's own."""

    def __init__(self, module, name):
        self._module = module
        self.calls = 0
        function = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)
        setattr(self, name, counted)

    def __getattr__(self, name):
        return getattr(self._module, name)


class TestBenchmarkSpanPoints:
    """The benchmark's traced replay counts sweep's evaluations
    (model.points) by calls of cli._objective_row, and times its rendering
    (reporting.render_s) by calls of reporting.render_artifact through
    cli.reporting.  A sweep that went round either would skew the metric,
    and the replay would not notice."""

    def test_sweep_calls_each_span_point_per_configuration(
            self, runner, out_dir, monkeypatch):
        # the benchmark sweep's shape, 2 configurations x 3 steps
        objective_row = cli._objective_row
        evaluated = []

        def counted(scn, r):
            evaluated.append(len(r))
            return objective_row(scn, r)
        monkeypatch.setattr(cli, "_objective_row", counted)
        rendering = _Counted(reporting, "render_artifact")
        monkeypatch.setattr(cli, "reporting", rendering)
        result = runner.invoke(main, ["sweep", "--grid", "fog.tdp_w=2.0607,10",
                                      "--r-steps", "3"])
        assert result.exit_code == 3
        assert result.stderr.endswith(
            "error: 1 grid point(s) exceed the TDP bound\n")
        assert evaluated == [3, 3]
        assert rendering.calls == 2 + 1     # each configuration, the head
        assert len(strip_manifest(result.stdout).splitlines()) == 1 + 2 * 3


# the options each command needs besides the one under test
REQUIRED_ARGS = {
    "evaluate": ["--r", "0.5"],
    "optimize": ["--pop", "8", "--gens", "2", "--seed", "1"],
    "simulate": ["--local-prob", "0.5", "--duration", "20", "--seed", "1"],
}
FLOAT_OPTIONS = [(name, param.opts[0])
                 for name, command in sorted(main.commands.items())
                 for param in command.params
                 if isinstance(param, click.Option)
                 and param.type.name == "float"]


class TestNonFiniteOptions:
    @pytest.mark.parametrize("command,option", FLOAT_OPTIONS,
                             ids=[f"{c}{o}" for c, o in FLOAT_OPTIONS])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_float_option_exits_2(self, runner, out_dir, command, option,
                                  value):
        result = runner.invoke(main, [command, *REQUIRED_ARGS.get(command, []),
                                      f"{option}={value}"])
        assert result.exit_code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("args", [
        ["--heights", "nan"],
        ["--heights", "10,inf"],
        ["--speeds", "inf"],
        ["--aspect", "3:nan"],
        ["--aspect", "inf:2"],
    ], ids=["heights-nan", "heights-inf", "speeds-inf", "aspect-nan",
            "aspect-inf"])
    def test_fov_list_value_exits_2(self, runner, out_dir, args):
        result = runner.invoke(main, ["fov", *args])
        assert result.exit_code == 2
        assert not out_dir.exists()


def readme_experiments():
    """(output directory, arguments) of each ``FOGSCOPE_OUT=... fogscope
    ...`` line in the code block of README's "Experiments" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Experiments", 1)[1]
    runs = []
    for line in section.split("```")[1].splitlines():
        words = shlex.split(line)
        if words[:1] and words[0].startswith("FOGSCOPE_OUT=") \
                and words[1] == "fogscope":
            runs.append((words[0].partition("=")[2], words[2:]))
    return runs


README_RUNS = readme_experiments()


class TestReadmeExperiments:
    def test_block_lists_the_surfaces_and_budgets(self):
        assert [args[0] for _, args in README_RUNS] \
            == ["sweep"] * 4 + ["fov"] + ["power"] * 2

    @pytest.mark.parametrize("out, args", README_RUNS,
                             ids=[out for out, _ in README_RUNS])
    def test_command_writes_its_artifact(self, runner, out_dir, monkeypatch,
                                         out, args):
        monkeypatch.chdir(ROOT)  # scenario paths are relative to the root
        monkeypatch.setenv("FOGSCOPE_OUT", str(out_dir / out))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (out_dir / out / f"{args[0]}.csv").is_file()


SRC = Path(fogscope.__file__).parents[1]


def test_pareto_search_script_smoke(tmp_path):
    # the script is the only caller of hypervolume outside the tests
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pareto_search.py"),
         "--pop", "20", "--gens", "5", "--grid-step", "1e-2",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()
                     if not line.startswith("  wrote ")]
    assert header[-1] == "hv_ratio"
    assert [row[0] for row in rows] == ["default", "tx-term", "fleet-1080p"]
    assert all(0.0 < float(row[-1]) <= 1.0 for row in rows)
    fronts = sorted(tmp_path.glob("front_*.csv"))
    assert [path.name for path in fronts] == [
        "front_default.csv", "front_fleet-1080p.csv", "front_tx-term.csv"]
    for path in fronts:
        assert manifest_of(path).command == "pareto-search"
        rs = [row["r"] for row in read_rows(path)]
        assert rs and len(rs) == len(set(rs))


@pytest.mark.parametrize("step", ["1e-9", "0", "nan"])
def test_pareto_search_refuses_a_grid_step_before_searching(tmp_path, step):
    # 1e-9 asks the oracle for 1,000,000,001 points: a usage error, before
    # the first scenario's genetic search and with no table printed
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pareto_search.py"),
         "--grid-step", step, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error: grid_step: must" in result.stderr
    assert "Traceback" not in result.stderr


def test_import_cost_script_smoke():
    # one fresh interpreter: the import, each module's compile, each class's
    # creation, in milliseconds; and numpy's import in two more
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "import_cost.py"), "-n", "1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    readings = [re.fullmatch(r"( *)(\d+\.\d{3}) ms  (.+)", line)
                for line in lines]
    assert all(readings), result.stdout
    # a total is indented at most 3 spaces, each part under it 4 more
    totals = {match[3]: float(match[2]) for match in readings
              if len(match[1]) < 4}
    assert "import fogscope.cli, median of 1" in totals
    assert "compile, 8 modules" in totals
    assert "dataclass creation, 15 classes" in totals
    assert "NamedTuple creation, 10 classes" in totals
    assert {"import numpy, OPENBLAS_NUM_THREADS=1 "
            "(as fogscope.cli.run sets it)",
            "import numpy, OPENBLAS_NUM_THREADS unset"} <= set(totals)
    named = {match[3] for match in readings if len(match[1]) >= 4}
    assert {"fogscope.cli", "fogscope.scenario.Scenario",
            "fogscope.reporting.RunManifest"} <= named
    assert all(value > 0 for value in totals.values())


def test_search_cost_script_smoke():
    # one fresh interpreter per scenario: a header, the plain and the
    # wrapped optimize(), then each layer's self time per generation
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_cost.py"), "-n", "1",
         "--pop", "8", "--gens", "2"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    layers = ["ranking (_constrained_ranks)", "crowding (_crowd)",
              "variation (_offspring)", "evaluation (_evaluate)",
              "survivor cut (optimize's own time)"]
    labels = ["optimize()", "optimize(), layers timed",
              *(f"{layer} per generation" for layer in layers)]
    assert len(lines) == 3 * 8
    for k, scenario in enumerate(["default", "tx-term", "tdp-bound"]):
        header, *readings = lines[8 * k:8 * (k + 1)]
        assert header == (f"{scenario}: pop 8 x 2 generations, seed 3, "
                          "median of 1")
        matches = [re.fullmatch(r"( *)(\d+\.\d{3}) ms  (.+)", line)
                   for line in readings]
        assert all(matches), result.stdout
        assert [match[3] for match in matches] == labels
        assert [len(match[1]) >= 4 for match in matches] == [False] * 2 + \
            [True] * 5
        assert all(float(match[2]) > 0 for match in matches[:6])


def test_peak_rss_script_smoke():
    # one round of one command prints one line: the median peak in MiB
    # and its range, the median wall time in ms and its range (one run, so
    # each median equals its bounds), the exit code and the command
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_rss.py"), "-n", "1",
         "presets"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    line, = result.stdout.splitlines()
    match = re.fullmatch(r" *(\d+\.\d\d) MiB  \[(\d+\.\d\d), (\d+\.\d\d)\]"
                         r" +(\d+\.\d) ms  \[(\d+\.\d), (\d+\.\d)\]"
                         r"  exit 0  presets", line)
    assert match, line
    assert len(set(match.groups()[:3])) == 1 and float(match[1]) > 0
    assert len(set(match.groups()[3:])) == 1 and float(match[4]) > 0


def trees_bytes(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trees.py"), "bytes", *args],
        capture_output=True, text=True, timeout=120)


def test_trees_bytes_script_smoke():
    # the working tree as both sides, so that no git history is needed
    result = trees_bytes(str(ROOT), str(ROOT), "--", "presets",
                         "sweep --grid network=5g")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "same  presets", "same  sweep --grid network=5g",
        "2 command(s), 0 differ"]


def test_trees_bytes_script_names_the_first_difference(tmp_path):
    # one catalog value changed: presets' manifest line carries the checksum
    shutil.copytree(SRC, tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "fogscope" / "scenario.py"
    source.write_text(source.read_text(encoding="utf-8").replace(
        '"gsm": NetworkPreset(40e3', '"gsm": NetworkPreset(41e3'),
        encoding="utf-8")
    result = trees_bytes(str(ROOT), str(tmp_path), "--", "presets")
    assert result.returncode == 1, result.stderr
    line, summary = result.stdout.splitlines()
    assert line.startswith("DIFF  presets  --  stdout line 1: ")
    assert summary == "1 command(s), 1 differ"


def mutants(tmp_path, *entries: dict) -> subprocess.CompletedProcess:
    data = tmp_path / "mutants.json"
    data.write_text(json.dumps(entries), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), str(data)],
        capture_output=True, text=True, timeout=120)


def test_mutants_script_smoke(tmp_path):
    # one listed mutant, against one of the tests that catch it
    listed = json.loads((ROOT / "scripts" / "mutants.json").read_text(
        encoding="utf-8"))
    (mutant,) = [m for m in listed
                 if m["name"] == "float-array-without-overflow-error"]
    mutant["tests"] = ["tests/test_model.py::TestEvaluateKernel::"
                       "test_r_that_is_no_float_array_rejected[huge-int]"]
    result = mutants(tmp_path, mutant)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "caught    float-array-without-overflow-error",
        "1 mutant(s), 0 not as expected"]


def test_mutants_script_reports_a_stale_snippet(tmp_path):
    # a snippet found twice, and one found nowhere: neither runs a test
    result = mutants(tmp_path, *(
        {"name": name, "file": "src/fogscope/model.py", "snippet": snippet,
         "replacement": "", "tests": ["tests/test_model.py"],
         "expect": "caught"}
        for name, snippet in [("twice", "import numpy as np"),
                              ("nowhere", "no such line")]))
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines() == [
        "stale     twice  (expected caught)",
        "stale     nowhere  (expected caught)",
        "2 mutant(s), 2 not as expected"]


def modules_loaded_by(code: str, *packages: str, **env: str) -> list[str]:
    """The ``sys.modules`` keys of the top-level ``packages`` after ``code``
    runs in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC), **env})
    return json.loads(out.stdout.splitlines()[-1])


def cli_code(args: list[str]) -> str:
    """Code that runs the CLI on ``args`` and requires exit 0."""
    return ("from fogscope.cli import main\n"
            "try:\n"
            f"    main({args!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")


def import_time_numpy_imports(source: str) -> list[int]:
    """Lines that import numpy when the module is imported: outside every
    function body and every ``if TYPE_CHECKING:`` block."""
    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def unmanaged_opens(source: str) -> list[int]:
    """Lines that call ``open`` or an ``.open`` method anywhere but as the
    item of a ``with`` statement, which closes what it opens."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in managed
        and (isinstance(node.func, ast.Name) and node.func.id == "open"
             or isinstance(node.func, ast.Attribute)
             and node.func.attr == "open"))


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        assert modules_loaded_by("import fogscope.cli", "scipy") == []

    @pytest.mark.parametrize("module", ["fogscope", "fogscope.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        assert modules_loaded_by(f"import {module}", "numpy") == []

    def test_scenario_checks_leave_numpy_unloaded(self):
        # the loader checks that the objectives are finite in plain floats,
        # and the digests hash without OpenSSL's _hashlib
        code = ("from fogscope.scenario import (catalog_checksum,"
                " default_scenario, load_scenario, scenario_digest,"
                " serialize_scenario)\n"
                "scenario_digest(load_scenario(serialize_scenario("
                "default_scenario())))\n"
                "catalog_checksum()")
        assert modules_loaded_by(code, "numpy", "_hashlib") == []

    @pytest.mark.parametrize("args", [
        ["presets"],
        ["fov"],
        ["power", "--kind", "quad"],
        ["power", "--kind", "fixedwing"],
        ["evaluate", "--r", "0.5"],
        # on the stability boundary, where the row warns
        ["evaluate", "--r", "1"],
        ["evaluate", "--scenario", str(ROOT / "scenarios" / "tx_term.yaml"),
         "--r", "0.5"],
        ["simulate", "--local-prob", "0.5", "--duration", "5", "--seed", "1"],
        ["simulate", "--local-prob", "0.5", "--duration", "5", "--seed", "1",
         "--trace", "{out}/trace.csv"],
    ], ids=["presets", "fov", "power-quad", "power-fixedwing", "evaluate",
            "evaluate-r1", "evaluate-scenario", "simulate", "simulate-trace"])
    def test_command_leaves_numpy_unloaded(self, tmp_path, args):
        # nor OpenSSL, which hashlib's _hashlib links
        args = [arg.replace("{out}", str(tmp_path)) for arg in args]
        assert modules_loaded_by(cli_code(args), "numpy", "_hashlib",
                                 FOGSCOPE_OUT=str(tmp_path)) == []
        assert (tmp_path / f"{args[0]}.csv").is_file()
        if "--trace" in args:
            assert (tmp_path / "trace.csv").is_file()

    @pytest.mark.parametrize("args", [
        ["presets"],
        ["fov"],
        ["power", "--kind", "quad"],
        ["power", "--kind", "fixedwing"],
    ], ids=["presets", "fov", "power-quad", "power-fixedwing"])
    def test_command_without_a_scenario_leaves_yaml_unloaded(self, tmp_path,
                                                             args):
        assert modules_loaded_by(cli_code(args), "yaml",
                                 FOGSCOPE_OUT=str(tmp_path)) == []
        assert (tmp_path / f"{args[0]}.csv").is_file()

    def test_evaluate_loads_yaml(self, tmp_path):
        # the probe above would pass vacuously if it could not see yaml
        assert "yaml" in modules_loaded_by(
            cli_code(["evaluate", "--r", "0.5"]), "yaml",
            FOGSCOPE_OUT=str(tmp_path))

    def test_sweep_loads_numpy(self, tmp_path):
        # the probe above would pass vacuously if it could not see numpy
        assert "numpy" in modules_loaded_by(
            cli_code(["sweep", "--r-steps", "3"]), "numpy",
            FOGSCOPE_OUT=str(tmp_path))

    @pytest.mark.parametrize("args", [
        ["sweep", "--r-steps", "3"],
        ["optimize", "--pop", "8", "--gens", "2", "--seed", "1"],
    ], ids=["sweep", "optimize"])
    def test_numpy_command_leaves_openssl_unloaded(self, tmp_path, args):
        assert modules_loaded_by(cli_code(args), "_hashlib",
                                 FOGSCOPE_OUT=str(tmp_path)) == []
        assert (tmp_path / f"{args[0]}.csv").is_file()

    def test_hashlib_loads_openssl(self):
        # the probes above would pass vacuously if they could not see it
        assert "_hashlib" in modules_loaded_by("import hashlib", "_hashlib")

    def test_cli_import_creates_only_these_dataclasses(self):
        # each dataclass costs start-up time in every command (Python 3.11
        # compiles its generated methods at import): a new one is a choice
        probe = ("import dataclasses, json, sys\nimport fogscope.cli\n"
                 "print(json.dumps(sorted(\n"
                 "    f'{name}.{obj.__qualname__}'\n"
                 "    for name, module in list(sys.modules.items())\n"
                 "    if name.split('.')[0] == 'fogscope'\n"
                 "    for obj in vars(module).values()\n"
                 "    if isinstance(obj, type) and obj.__module__ == name\n"
                 "    and dataclasses.is_dataclass(obj))))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert json.loads(out.stdout) == [
            "fogscope.flight.AircraftModel", "fogscope.flight.CameraParams",
            "fogscope.flight.MotorParams", "fogscope.model.CloudParams",
            "fogscope.model.DecisionState", "fogscope.model.FogNodeParams",
            "fogscope.model.NetworkParams", "fogscope.model.ObjectiveVector",
            "fogscope.model.WorkloadParams", "fogscope.optimizer.OptConfig",
            "fogscope.optimizer.OptProblem", "fogscope.optimizer.ParetoFront",
            "fogscope.scenario.Scenario", "fogscope.simulation.SimMetrics",
            "fogscope.simulation.SimScenario"]

    def test_public_dataclasses_keep_replace_and_fields(self):
        from fogscope import flight, model, simulation
        s = default_scenario()
        motor = fogscope.preset("x2212")
        sim = simulation.SimScenario(scenario=s, local_prob=0.5,
                                     duration_s=5.0)
        samples = [
            s, s.workload, s.fog, s.network, s.cloud,
            model.DecisionState.from_ratio(s.workload, 0.5),
            model.objectives(s, 0.5),
            optimizer.OptProblem(scenario=s), optimizer.OptConfig(seed=1),
            optimizer.ParetoFront([(0.5, model.objectives(s, 0.5))], [0],
                                  [0.0]),
            sim, simulation.simulate(sim, seed=1),
            flight.CameraParams(94.0, 3.0, 2.0), motor,
            flight.AircraftModel(kind=flight.QUAD_ROTOR, mass_kg=1.0,
                                 motor=motor)]
        public = {obj for obj in map(vars(fogscope).get, fogscope.__all__)
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
        assert {type(sample) for sample in samples} == public
        for sample in samples:
            names = [f.name for f in dataclasses.fields(sample)]
            assert names and names == [f.name for f in
                                       dataclasses.fields(type(sample))]
            copy = dataclasses.replace(sample)
            assert type(copy) is type(sample) and copy is not sample
            assert all(getattr(copy, name) is getattr(sample, name)
                       for name in names)

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_module_imports_numpy_at_import_time(self, path):
        source = path.read_text(encoding="utf-8")
        assert import_time_numpy_imports(source) == []

    @pytest.mark.parametrize("source, lines", [
        ("import numpy as np\n", [1]),
        ("import os, numpy.linalg\n", [1]),
        ("from numpy import array\n", [1]),
        ("try:\n    import numpy\nexcept ImportError:\n    pass\n", [2]),
        ("class A:\n    import numpy\n", [2]),
        ("if TYPE_CHECKING:\n    pass\nelse:\n    import numpy\n", [4]),
        ("if TYPE_CHECKING:\n    import numpy as np\n", []),
        ("def f():\n    import numpy as np\n", []),
        ("class A:\n    def f(self):\n        import numpy\n", []),
        ("from .numpy import x\nimport numpyish\n", []),
    ])
    def test_import_scan_finds_import_time_numpy(self, source, lines):
        assert import_time_numpy_imports(source) == lines

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_every_open_file_is_closed_by_a_with_block(self, path):
        # cli.run skips the exit-time collection, and with it the finalizer
        # of a file left in a reference cycle
        source = path.read_text(encoding="utf-8")
        assert unmanaged_opens(source) == []

    @pytest.mark.parametrize("source, lines", [
        ("stream = open(name)\n", [1]),
        ("stream = path.open('w')\n", [1]),
        ("text = open(name).read()\n", [1]),
        ("with path.open('w') as out:\n    log = open(other)\n", [2]),
        ("with open(a) as x, b.open() as y:\n    pass\n", []),
        ("with path.open('w'):\n    pass\n", []),
        ("text = path.read_text()\nopener = open\n", []),
    ])
    def test_open_scan_finds_unmanaged_opens(self, source, lines):
        assert unmanaged_opens(source) == lines


# prints the number of the process's threads once the command ran as
# python -m fogscope.cli: numpy's OpenBLAS starts its pool as numpy loads
THREADS_PROBE = ("import os, runpy, sys\n"
                 "sys.argv = ['fogscope', *sys.argv[1:]]\n"
                 "try:\n"
                 "    runpy.run_module('fogscope.cli', run_name='__main__')\n"
                 "except SystemExit as exc:\n"
                 "    assert exc.code == 0, exc.code\n"
                 "print(len(os.listdir('/proc/self/task')))\n")


class TestProcessEntry:
    """``cli.run`` is the process entry point: it gives OpenBLAS one thread
    unless ``OPENBLAS_NUM_THREADS`` is set, runs ``main``, and then
    freezes, whatever ``main`` ends with.  An in-process caller of ``main``
    keeps its environment.  Each test that calls ``run`` sets or removes
    the variable through ``monkeypatch``, so the setting ends with it."""

    @pytest.fixture(autouse=True)
    def no_thread_setting(self, monkeypatch):
        # delenv alone records nothing for an unset variable, and so would
        # leave the value that run sets; setenv records the state to restore
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")

    @pytest.fixture
    def calls(self, monkeypatch):
        # the real collect and freeze must never run in the test process
        calls = []
        monkeypatch.setattr(gc, "collect", lambda generation=2: calls.append(
            ("collect", generation)))
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze",)))
        return calls

    def test_normal_return(self, monkeypatch, calls):
        monkeypatch.setattr(cli, "main", lambda: calls.append(("main",)))
        show = warnings.showwarning
        assert cli.run() is None
        assert calls == [("main",), ("freeze",)]
        # the one-line warning format ends with the run
        assert warnings.showwarning is show

    @pytest.mark.parametrize("setting, threads", [(None, "1"), ("2", "2")],
                             ids=["unset", "set"])
    def test_openblas_threads_are_set_before_main(self, monkeypatch, calls,
                                                   setting, threads):
        # one thread by default; a value the user set is kept
        if setting is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
        monkeypatch.setattr(cli, "main", lambda: calls.append(
            ("main", os.environ.get("OPENBLAS_NUM_THREADS"))))
        cli.run()
        assert calls == [("main", threads), ("freeze",)]
        assert os.environ["OPENBLAS_NUM_THREADS"] == threads

    def test_in_process_main_keeps_the_environment(self, runner):
        result = runner.invoke(main, ["sweep", "--r-steps", "3"])
        assert result.exit_code == 0, result.output
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="needs /proc/self/task to count threads")
    @pytest.mark.parametrize("args", [
        ["sweep", "--r-steps", "3"],
        ["optimize", "--pop", "8", "--gens", "2", "--seed", "1"],
    ], ids=["sweep", "optimize"])
    def test_numpy_command_runs_one_thread(self, tmp_path, args):
        # OpenBLAS caps its pool at the CPUs the process may use, so a
        # setting of 2 shows 2 threads only where there are two; that side
        # shows the probe counts OpenBLAS's threads and the setting is kept
        sides = {}
        for setting in (None, "2"):
            out = tmp_path / str(setting)
            env = {**os.environ, "PYTHONPATH": str(SRC),
                   "FOGSCOPE_OUT": str(out)}
            if setting is not None:
                env["OPENBLAS_NUM_THREADS"] = setting
            proc = subprocess.run([sys.executable, "-c", THREADS_PROBE, *args],
                                  capture_output=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            *stdout, threads = proc.stdout.splitlines()
            sides[setting] = (int(threads), stdout, {
                path.name: path.read_bytes() for path in out.glob("*.csv")})
        assert sides[None][0] == 1
        assert sides["2"][0] == min(2, len(os.sched_getaffinity(0)))
        assert sides[None][1:] == sides["2"][1:]
        assert f"{args[0]}.csv" in sides[None][2]

    def test_exit_code_is_reraised(self, monkeypatch, capsys, out_dir, calls):
        # the real group, as the console script calls it: exit 3
        monkeypatch.setattr(sys, "argv", [
            "fogscope", "sweep", "--grid", "fog.tdp_w=2.0607,10",
            "--r-steps", "3"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 3
        assert calls == [("freeze",)]
        assert capsys.readouterr().err.endswith(
            "error: 1 grid point(s) exceed the TDP bound\n")

    def test_unexpected_exception_propagates(self, monkeypatch, calls):
        def broken():
            raise RuntimeError("bug")
        monkeypatch.setattr(cli, "main", broken)
        with pytest.raises(RuntimeError, match="bug"):
            cli.run()
        assert calls == [("freeze",)]

    def test_module_run_as_a_script_enters_through_run(self, tmp_path):
        # python -m fogscope.cli, in a fresh interpreter that reports
        # whether anything was frozen once the command ended
        code = ("import gc, runpy, sys\n"
                "sys.argv = ['fogscope', 'presets']\n"
                "try:\n"
                "    runpy.run_module('fogscope.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(gc.get_freeze_count() > 0)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env={
                                 **os.environ, "PYTHONPATH": str(SRC),
                                 "FOGSCOPE_OUT": str(tmp_path)})
        assert out.stdout.splitlines()[-1] == "True"
        assert (tmp_path / "presets.csv").is_file()

    @pytest.mark.parametrize("args, code", [
        (["simulate", "--local-prob", "0.5", "--duration", "20", "--seed",
          "1", "--trace", "{out}/trace.csv"], 0),
        (["evaluate", "--r", "2"], 2),
        (["sweep", "--grid", "fog.tdp_w=2.0607,10", "--r-steps", "3"], 3),
        (["optimize", "--scenario", "{tmp}/impossible.yaml", "--pop", "8",
          "--gens", "3", "--seed", "1"], 4),
    ], ids=["exit-0", "exit-2", "exit-3", "exit-4"])
    def test_process_matches_the_in_process_group(self, runner, tmp_path,
                                                  monkeypatch, args, code):
        # python -m fogscope.cli enters through run; each side writes to
        # its own directory, named {out} in an argument and in stderr.  The
        # subprocess inherits the epoch, so both stamp the same manifest
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        (tmp_path / "impossible.yaml").write_text(
            ERROR_DOCS["impossible.yaml"], encoding="utf-8")
        sides = {}
        for side in ("process", "runner"):
            out = tmp_path / side
            monkeypatch.setenv("FOGSCOPE_OUT", str(out))
            argv = [arg.format(out=out, tmp=tmp_path) for arg in args]
            if side == "process":
                proc = subprocess.run(
                    [sys.executable, "-m", "fogscope.cli", *argv],
                    capture_output=True, timeout=120,
                    env={**os.environ, "PYTHONPATH": str(SRC)})
                exit_code, stdout, stderr = (proc.returncode, proc.stdout,
                                             proc.stderr.decode())
            else:
                result = runner.invoke(main, argv)
                exit_code, stdout, stderr = (result.exit_code,
                                             result.stdout_bytes, result.stderr)
            artifacts = {path.name: path.read_bytes()
                         for path in sorted(out.glob("*.csv"))}
            sides[side] = (exit_code, stdout, stderr.replace(str(out), "{out}"),
                           artifacts)
        assert sides["process"] == sides["runner"]
        assert exit_code == code
        assert bool(artifacts) == (code in (0, 3))

    @pytest.mark.parametrize("args, artifact", [
        (["evaluate", "--r", "1"], "evaluate.csv"),
        (["simulate", "--local-prob", "1", "--duration", "20", "--seed", "1"],
         "simulate.csv"),
    ], ids=["evaluate", "simulate"])
    def test_process_prints_a_warning_as_one_line(self, out_dir, args,
                                                  artifact):
        # as an error prints: no source path, line number or source line
        proc = subprocess.run(
            [sys.executable, "-m", "fogscope.cli", *args], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: accepted rate 100 pkt/s >= fog capability 100 pkt/s; "
            "linearized latency is outside its stable region\n"
            f"wrote {out_dir / artifact}\n")


def numpy_random_uses(source: str) -> list[int]:
    """Lines that import ``numpy.random`` or read the attribute
    ``random`` of a name bound to numpy."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}

    def in_numpy_random(name):
        return name.split(".")[:2] == ["numpy", "random"]

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(in_numpy_random(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = node.level == 0 and (in_numpy_random(module) or any(
                in_numpy_random(f"{module}.{alias.name}")
                for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


# the methods of random.Random that draw, other than random(): CPython
# keeps random()'s sequence for a seed and promises none for these
OTHER_DRAWS = {name for name in dir(random.Random) if not name.startswith("_")
               and callable(getattr(random.Random, name))} - {
    "random", "seed", "getstate", "setstate"}


def other_draws(source: str) -> list[tuple[int, str]]:
    """Line and name of each attribute read named after one of
    OTHER_DRAWS, called or not, so an alias such as ``g = rng.gauss`` is
    found too."""
    return sorted((node.lineno, node.attr) for node in ast.walk(
        ast.parse(source)) if isinstance(node, ast.Attribute)
        and node.attr in OTHER_DRAWS)


class TestNoNumpyRandom:
    """numpy promises no stream across its versions (NEP 19), so a draw
    from ``numpy.random`` would tie the seeded artifacts to it."""

    def test_only_these_draws_are_not_random(self):
        found = {path.name: [name for _, name in other_draws(
                     path.read_text(encoding="utf-8"))]
                 for path in sorted((SRC / "fogscope").glob("*.py"))}
        assert {name: draws for name, draws in found.items() if draws} == {
            # the noisy uplink's multiplier, in sample_latency_noise
            "model.py": ["gauss"],
        }

    @pytest.mark.parametrize("source, draws", [
        ("rng.gauss(0.0, 1.0)\n", [(1, "gauss")]),
        ("draw, g = rng.random, rng.gauss\n", [(1, "gauss")]),
        ("import random\nrandom.choice(x)\n", [(2, "choice")]),
        ("rng.random()\nrandom.Random(cfg.seed).getstate()\n", []),
        ("np.random.default_rng(1)\n", []),
    ])
    def test_scan_finds_other_draws(self, source, draws):
        assert other_draws(source) == draws

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_module_uses_numpy_random(self, path):
        assert numpy_random_uses(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("source, lines", [
        ("import numpy as np\nnp.random.default_rng(1)\n", [2]),
        ("def f():\n    import numpy\n    return numpy.random.Generator\n",
         [3]),
        ("import numpy.random\n", [1]),
        ("from numpy.random import default_rng\n", [1]),
        ("from numpy import random as npr\n", [1]),
        ("import random\nrandom.Random(1).random()\n", []),
        ("import numpy as np\nnp.linalg.norm(rng.random(3))\n", []),
    ])
    def test_scan_finds_numpy_random(self, source, lines):
        assert numpy_random_uses(source) == lines


# the operator, the numpy functions that call BLAS, and numpy.linalg, which
# calls LAPACK on top of it
BLAS_NAMES = {"@", "dot", "matmul", "inner", "vdot", "tensordot", "einsum",
              "linalg"}


def blas_calls(source: str) -> list[tuple[int, str]]:
    """Line and name of each ``@`` or ``@=``, each attribute read named in
    BLAS_NAMES (``np.dot``, ``x.dot``, ``np.linalg.norm``), and each import
    of one of them from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            names = ["@"]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     if alias.name.split(".")[0] == "numpy"
                     for part in alias.name.split(".")]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "numpy"):
            names = node.module.split(".") + [a.name for a in node.names]
        found += [(node.lineno, name) for name in names if name in BLAS_NAMES]
    return sorted(found)


class TestNoBlasCalls:
    """``cli.run`` gives OpenBLAS one thread, because numpy starts the pool
    as it loads and fogscope never calls BLAS.  A BLAS call would make that
    default cost time, so it has to be a choice."""

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_module_calls_blas(self, path):
        assert blas_calls(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("source, found", [
        ("np.dot(a, b)\n", [(1, "dot")]),
        ("a.dot(b)\n", [(1, "dot")]),
        ("x = a @ b\n", [(1, "@")]),
        ("a @= b\n", [(1, "@")]),
        ("np.matmul(a, b)\nnp.inner(a, b)\n", [(1, "matmul"), (2, "inner")]),
        ("np.vdot(a, b)\nnp.tensordot(a, b)\n", [(1, "vdot"),
                                                 (2, "tensordot")]),
        ("np.einsum('i,i', a, b)\n", [(1, "einsum")]),
        ("np.linalg.norm(a)\n", [(1, "linalg")]),
        ("import numpy.linalg\n", [(1, "linalg")]),
        ("from numpy import dot, sum\n", [(1, "dot")]),
        ("from numpy.linalg import solve\n", [(1, "linalg")]),
        ("from numpy import linalg as la\n", [(1, "linalg")]),
        # a decorator, a name and another package are not calls into BLAS
        ("@property\ndef f(self):\n    pass\n", []),
        ("inner = dot = 1\nnp.sum(a * b)\nnp.outer(a, b)\n", []),
        ("import numpy as np\nfrom .linalg import dot\n", []),
        ("from scipy import linalg\nimport dotenv\n", []),
    ])
    def test_scan_finds_blas_calls(self, source, found):
        assert blas_calls(source) == found


def post_init_raises(source: str) -> list[int]:
    """Lines of ``raise`` statements inside a ``__post_init__``."""
    return sorted(node.lineno
                  for method in ast.walk(ast.parse(source))
                  if isinstance(method, ast.FunctionDef)
                  and method.name == "__post_init__"
                  for node in ast.walk(method) if isinstance(node, ast.Raise))


class TestChecksThroughRequire:
    """A dataclass checks its fields through ``model._require``, which
    names the field and rejects NaN; a hand-written ``if bad: raise``
    lets NaN through."""

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_post_init_raises(self, path):
        assert post_init_raises(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("source, lines", [
        ("class A:\n    def __post_init__(self):\n"
         "        if self.x <= 0:\n            raise ValueError\n", [4]),
        ("class A:\n    def __post_init__(self):\n"
         "        _require(self.x > 0, 'must be > 0', 'x')\n", []),
        ("def f(x):\n    raise ValueError(x)\n", []),
    ])
    def test_scan_finds_post_init_raises(self, source, lines):
        assert post_init_raises(source) == lines


def sweep_default_scenario():
    result = CliRunner().invoke(main, ["sweep", "--r-steps", "11"])
    assert result.exit_code == 0, result.output


# each grid scan, run across the fog stability boundary: on the default
# scenario the accepted rate reaches the capability at r = 1
GRID_SCANS = {
    "sweep": sweep_default_scenario,
    "optimize": lambda: optimizer.optimize(
        optimizer.OptProblem(default_scenario()),
        optimizer.OptConfig(population_size=20, generations=5, seed=1)),
    "brute_force_front": lambda: optimizer.brute_force_front(
        optimizer.OptProblem(default_scenario()), 0.25),
    "trend_compare": lambda: simulation.trend_compare(
        simulation.SimScenario(default_scenario(), 0.5, duration_s=5.0),
        [0.5, 1.0], seed=1),
}


@pytest.mark.parametrize("name", sorted(GRID_SCANS))
def test_grid_scan_does_not_warn(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GRID_SCANS[name]()


WARNING_FILTERS = {"catch_warnings", "simplefilter", "filterwarnings",
                   "resetwarnings"}


def warning_filter_calls(source: str) -> list[int]:
    """Lines that call a function named as one of WARNING_FILTERS, bare or
    as an attribute, so ``warnings.simplefilter`` under any alias."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)) in WARNING_FILTERS)


class TestNoWarningFilters:
    """Whether a call warns is decided in ``model`` alone: a grid scan
    does not warn and a single split does.  A module that filters
    warnings would hide a single split's warning from its caller."""

    @pytest.mark.parametrize("path", sorted((SRC / "fogscope").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_module_filters_warnings(self, path):
        assert warning_filter_calls(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("source, lines", [
        ("import warnings\nwith warnings.catch_warnings():\n"
         "    warnings.simplefilter('ignore')\n", [2, 3]),
        ("import warnings as w\nw.filterwarnings('error')\n", [2]),
        ("from warnings import resetwarnings\nresetwarnings()\n", [2]),
        ("import warnings\nwarnings.warn('x', UserWarning, stacklevel=2)\n",
         []),
    ])
    def test_scan_finds_warning_filters(self, source, lines):
        assert warning_filter_calls(source) == lines


TX_SCENARIO = (
    "modification1_enabled: true\n"
    "workload: {arrival_rate_pps: 100, packet_size_bits: 12000}\n"
    "fog: {proc_capability_pps: 100, energy_per_bit_j: 1.0e-7,"
    " idle_power_w: 2.0, tdp_w: 10.0, tx_energy_per_bit_j: 2.0e-8}\n"
    "network: {uplink_throughput_bps: 1.5e+6, downlink_throughput_bps: 1.5e+6}\n"
    "cloud: {proc_capability_bps: 3.0e+6}\n")
TDP_SCENARIO = (TX_SCENARIO.replace("tdp_w: 10.0", "tdp_w: 2.0607")
                .replace("modification1_enabled: true",
                         "modification1_enabled: false"))
# accepted rate 80 pkt/s at --local-prob 0.8, past the capability
SLOW_FOG_SCENARIO = TX_SCENARIO.replace("proc_capability_pps: 100",
                                        "proc_capability_pps: 50")
NOISE_SCENARIO = TX_SCENARIO.replace("network: {", "network: {noise_sigma: 0.3, ")
SCENARIO_FILE_TEXT = {path.stem: path.read_text(encoding="utf-8")
                      for path in (ROOT / "scenarios").glob("*.yaml")}


class TestSeededArtifactBytes:
    """sha256 of seeded artifacts under SOURCE_DATE_EPOCH=1700000000,
    pinned from the scalar implementation; a change here is a change of
    behaviour, not of speed.  ``{out}`` in an argument is the output
    directory, so a trace written there is pinned with the CSVs."""

    CASES = {
        "optimize-default": (
            None, ["optimize", "--pop", "40", "--gens", "30", "--seed", "11"],
            0, {"optimize.csv": "9ca48f425aeb0eb96b04c84880a9f9fb"
                                "63878fae7f97c2612cd31e126491916d"}),
        "optimize-tx": (
            TX_SCENARIO,
            ["optimize", "--pop", "40", "--gens", "30", "--seed", "12"],
            0, {"optimize.csv": "eb68b32dc41752576e53690a9e1831b3"
                                "858b3c1e95d7314643a006519982a297"}),
        "optimize-tdp": (
            TDP_SCENARIO,
            ["optimize", "--pop", "40", "--gens", "30", "--seed", "13"],
            0, {"optimize.csv": "87c84a0c4752143eef1ea8d5f9a1a7c6"
                                "587037b7df5c4ac919efc82027ae2cd3"}),
        # the benchmark's search size
        "optimize-pop200": (
            None,
            ["optimize", "--pop", "200", "--gens", "100", "--seed", "14"],
            0, {"optimize.csv": "8df9d9eb2d868951fa6df1ed84231b42"
                                "29e011f9d36782d70e773f6793d0e22d"}),
        # every child mutates, and many clamp to 0 or 1: each is listed once
        "optimize-mutate-all": (
            None, ["optimize", "--pop", "40", "--gens", "30", "--seed", "15",
                   "--mutation-rate", "1", "--mutation-sigma", "0.5"],
            0, {"optimize.csv": "aeb492f81fab37fe4142074f6ded5ab6"
                                "4166fb1c44a6b765cde987459f2bf99a"}),
        "optimize-no-crossover": (
            None, ["optimize", "--pop", "40", "--gens", "30", "--seed", "16",
                   "--crossover-rate", "0"],
            0, {"optimize.csv": "c6795b11459a0e1ad9bf7beac29a0942"
                                "73fcf46f2517a35ab531c62e76e13bba"}),
        "evaluate-r0": (
            None, ["evaluate", "--r", "0"],
            0, {"evaluate.csv": "a5ae0c2704818c1aab953bd8e306cc55"
                                "36221410e7881715a9e6ede789395d7b"}),
        "evaluate-r0.3": (
            None, ["evaluate", "--r", "0.3"],
            0, {"evaluate.csv": "5b949b575cf4beca77d7c8ec9338bb1c"
                                "1966f5df9ae2354a3340b398ae5f0ca8"}),
        "evaluate-r0.999": (
            None, ["evaluate", "--r", "0.999"],
            0, {"evaluate.csv": "b73d9fc671f3cb748a598eec046f7016"
                                "5760380c242c2a4e850ca123aa1512b4"}),
        # on the stability boundary: the row is written with a warning
        "evaluate-r1": (
            None, ["evaluate", "--r", "1"],
            0, {"evaluate.csv": "88c6af123672a7d9a5b4f684158b8725"
                                "950484c504d107fa797b724e506c5435"}),
        "evaluate-tx-term": (
            SCENARIO_FILE_TEXT["tx_term"], ["evaluate", "--r", "0.3"],
            0, {"evaluate.csv": "826816a6029ac2df30411e1bf634786d"
                                "57773c16d7ca7d0b8f8e7fd43540649f"}),
        "evaluate-hspa-plus-noisy": (
            SCENARIO_FILE_TEXT["hspa_plus_noisy"], ["evaluate", "--r", "0.5"],
            0, {"evaluate.csv": "aead388dfd91a4b6259e6eb611bc2aa2"
                                "757e5e7339c7dccfeef58997bdadf270"}),
        "sweep": (
            None, ["sweep", "--grid", "network=gsm,hspa_plus;fog.tdp_w=2.0607,10",
                   "--r-steps", "201"],
            3, {"sweep.csv": "95eaec272cf54d30275d61b054059d01"
                             "f2415e2c6c0533df576c6ebb3e6b6f45",
                "sweep_g000.csv": "3ae3598d2b9b93152031b1b3623a3141"
                                  "dd08342fd9636b543a5d9df1a62a79c7",
                "sweep_g001.csv": "8f21b00ab2e3483c065f657103c785b9"
                                  "ba053bffead1847b8ee9b63581e277f4",
                "sweep_g002.csv": "7c41db18439c39fc98dcc1811acc0dc2"
                                  "12285877f51f5ae7b0c0be2c9611f67f",
                "sweep_g003.csv": "28177b82a3796c92799cfa3a45f386fd"
                                  "99918ce8669b2ab2ce84bdc4c57f27d0"}),
        "simulate-default": (
            None, ["simulate", "--local-prob", "0.5", "--duration", "50",
                   "--seed", "21", "--trace", "{out}/trace.csv"],
            0, {"simulate.csv": "e8dc0efe2fdee8fcc7655682fd5f8ee2"
                                "fa9bf34f8d418277137bb78bd4c4d608",
                "trace.csv": "14137133a6e8f7e84d3d404b9368fe81"
                             "21b392a5f60e7a7e628753574bfbe166"}),
        # every packet forwarded, each transfer scaled by a resampled
        # Gaussian multiplier
        "simulate-noise": (
            NOISE_SCENARIO, ["simulate", "--local-prob", "0", "--duration",
                             "50", "--seed", "23", "--trace",
                             "{out}/trace.csv"],
            0, {"simulate.csv": "690a9b1588edd0a34136205ae6e6bb23"
                                "58f9de0ed1c508061961553e3057f05c",
                "trace.csv": "e3893889539e631b314e7933f83993f5"
                             "c75b4fc0ebd69eb04e6d49ee1c58b1d6"}),
        "simulate-tx": (
            TX_SCENARIO, ["simulate", "--local-prob", "0.3", "--duration",
                          "50", "--seed", "22"],
            0, {"simulate.csv": "9f051f96332ad78157598d936e95e8a5"
                                "552fa4cc450a2e5d0bb249475fabf5cf"}),
        "simulate-slow-fog": (
            SLOW_FOG_SCENARIO, ["simulate", "--local-prob", "0.8",
                                "--duration", "30", "--seed", "24"],
            0, {"simulate.csv": "c699cd607f24875b9e7bcbafdb580882"
                                "aeefea898d5e43b89116cffd1d2d5659"}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned_sha256(self, runner, out_dir, tmp_path, name):
        self.check_case(runner, out_dir, tmp_path, name)

    def test_sweep_from_a_cleared_and_a_warm_memo(self, runner, out_dir,
                                                  tmp_path, monkeypatch):
        # rendered float columns are memoized for the life of the process
        monkeypatch.setattr(reporting, "_FLOAT_COLUMNS", {})
        monkeypatch.setattr(reporting, "_float_cells_kept", 0)
        self.check_case(runner, out_dir, tmp_path, "sweep")
        memo = dict(reporting._FLOAT_COLUMNS)
        assert memo
        self.check_case(runner, out_dir, tmp_path, "sweep")
        assert reporting._FLOAT_COLUMNS == memo     # every column a hit

    def check_case(self, runner, out_dir, tmp_path, name):
        scenario, args, exit_code, expected = self.CASES[name]
        args = [arg.replace("{out}", str(out_dir)) for arg in args]
        if scenario is not None:
            doc = tmp_path / "scenario.yaml"
            doc.write_text(scenario)
            args = args[:1] + ["--scenario", str(doc)] + args[1:]
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.glob("*.csv")}
        assert digests == expected
        assert result.stdout.encode() == (out_dir / args[0]).with_suffix(
            ".csv").read_bytes()
