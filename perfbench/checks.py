"""Output checks for the benchmark's CLI commands.

Each check raises :class:`CheckFailed` on a wrong or corrupted artifact.
Where a closed form exists the check uses it rather than the program's
own code: the TDP-feasible interval of the affine power model, the
throughput and power of one split, mutual non-dominance of a front, and
the M/M/1 sojourn time 1/(mu - lambda).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

from fogscope.reporting import RunManifest


# The M/M/1 sojourn check applies up to this local load: the sample mean's
# variance grows like 1/(1 - rho)^4, so at higher loads a run of the
# benchmark's length cannot pin it down.
MM1_MAX_RHO = 0.5


class CheckFailed(Exception):
    """A command's output does not match what the inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_artifact(text: str, command: str,
                   columns: Sequence[str]) -> tuple[RunManifest, list[list[str]]]:
    """Split an artifact into its manifest and data rows, checking the
    manifest's command and the header."""
    first, _, rest = text.partition("\n")
    try:
        manifest = RunManifest.from_comment_line(first)
    except (ValueError, TypeError) as exc:
        raise CheckFailed(f"{command}: bad manifest line: {exc}") from None
    require(manifest.command == command,
            f"{command}: manifest names command {manifest.command!r}")
    require(text.endswith("\n"), f"{command}: artifact does not end in a newline")
    rows = list(csv.reader(io.StringIO(rest)))
    require(bool(rows) and tuple(rows[0]) == tuple(columns),
            f"{command}: unexpected columns {rows[0] if rows else None}")
    body = rows[1:]
    require(all(len(row) == len(columns) for row in body),
            f"{command}: a row has the wrong number of fields")
    return manifest, body


def same_output(stdout: bytes, artifact: bytes, command: str) -> None:
    require(stdout == artifact,
            f"{command}: stdout differs from the written artifact")


# -- closed forms of the analytic model ------------------------------------

def fog_power(params: dict, r: float) -> float:
    """Fog power draw of split r: idle + lambda*s*(e*r + tx*(1 - r))."""
    bits = params["arrival_rate_pps"] * params["packet_size_bits"]
    tx = params["tx_energy_per_bit_j"] if params["modification1_enabled"] else 0.0
    return params["idle_power_w"] + bits * (params["energy_per_bit_j"] * r
                                            + tx * (1.0 - r))


def feasible_interval(params: dict) -> tuple[float, float]:
    """The closed interval of r in [0, 1] whose fog power is within TDP.

    Power is affine in r, so the feasible set is one interval; returns
    (1, 0) when it is empty.
    """
    p0, p1 = fog_power(params, 0.0), fog_power(params, 1.0)
    tdp = params["tdp_w"]
    if p0 == p1:
        return (0.0, 1.0) if p0 <= tdp else (1.0, 0.0)
    cross = (tdp - p0) / (p1 - p0)
    if p1 > p0:
        return (0.0, min(1.0, cross)) if cross >= 0 else (1.0, 0.0)
    return (max(0.0, cross), 1.0) if cross <= 1 else (1.0, 0.0)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# -- per-workload checks ---------------------------------------------------

EVALUATE_COLUMNS = ("r", "throughput_bps", "fog_power_w", "fog_latency_s",
                    "cloud_latency_s", "avg_latency_s", "feasible")
FOV_COLUMNS = ("height_m", "speed_mps", "along_track_m", "dwell_s",
               "cloud_feasible_at_1.68s")
POWER_COLUMNS = ("mass_kg", "power_w", "delta_power_plus_250g_w")
PRESETS_COLUMNS = ("group", "name", "field", "value", "source")
OPTIMIZE_COLUMNS = ("r", "throughput_bps", "fog_power_w", "avg_latency_s",
                    "rank", "crowding")
SWEEP_COLUMNS = ("group", "scenario", "r", "throughput_bps", "fog_power_w",
                 "fog_latency_s", "cloud_latency_s", "avg_latency_s",
                 "feasible")
SIMULATE_COLUMNS = ("local_prob", "duration_s", "warmup_s",
                    "mean_local_sojourn_s", "mean_forward_latency_s",
                    "empirical_uplink_throughput_bps", "mean_fog_power_w",
                    "local_queue_max", "unstable", "packets_generated",
                    "packets_local_done", "packets_forwarded_done",
                    "packets_in_flight", "analytic_throughput_bps",
                    "analytic_fog_latency_s")
TRACE_COLUMNS = ("id", "arrival_time", "important", "path", "departure_time",
                 "size_bits")


def check_evaluate(text: str, params: dict, r: float) -> None:
    _, rows = parse_artifact(text, "evaluate", EVALUATE_COLUMNS)
    require(len(rows) == 1, f"evaluate: {len(rows)} rows, expected 1")
    row = rows[0]
    require(float(row[0]) == r, f"evaluate: r={row[0]}, asked for {r!r}")
    throughput = (params["arrival_rate_pps"] * (1.0 - r)
                  * params["packet_size_bits"])
    require(close(float(row[1]), throughput),
            f"evaluate: throughput {row[1]} != closed form {throughput!r}")
    require(close(float(row[2]), fog_power(params, r)),
            f"evaluate: fog power {row[2]} != closed form")
    require(row[6] == "true", "evaluate: split reported infeasible")


def check_table(text: str, command: str, columns: Sequence[str],
                rows_expected: int | None) -> None:
    """Manifest, header and row count for the flight and preset commands."""
    _, rows = parse_artifact(text, command, columns)
    if rows_expected is None:
        require(bool(rows), f"{command}: no rows")
    else:
        require(len(rows) == rows_expected,
                f"{command}: {len(rows)} rows, expected {rows_expected}")


def non_dominated(points: Sequence[Sequence[float]]) -> bool:
    """True when no point is dominated by another (minimization)."""
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and all(x <= y for x, y in zip(b, a)) and \
                    any(x < y for x, y in zip(b, a)):
                return False
    return True


def check_front(text: str, params: dict, seed: int) -> list[tuple[float, float, float]]:
    """An optimize artifact: manifest seed, rank 0 only, every r inside
    the feasible interval and no member dominated.  Returns the
    objective vectors."""
    manifest, rows = parse_artifact(text, "optimize", OPTIMIZE_COLUMNS)
    require(manifest.seed == seed,
            f"optimize: manifest seed {manifest.seed}, asked for {seed}")
    require(bool(rows), "optimize: empty front")
    lo, hi = feasible_interval(params)
    points = []
    for row in rows:
        r = float(row[0])
        require(lo <= r <= hi,
                f"optimize: r={r!r} outside the feasible interval [{lo}, {hi}]")
        require(row[4] == "0", "optimize: a printed member is not rank 0")
        points.append((float(row[1]), float(row[2]), float(row[3])))
    require(non_dominated(points), "optimize: the front holds a dominated point")
    return points


def check_sweep(stdout: bytes, combined: bytes, groups: Sequence[bytes],
                groups_expected: int, r_steps: int,
                infeasible_expected: int) -> int:
    """A sweep: stdout equals sweep.csv, one file per configuration with
    r_steps rows, and the exact infeasible count.  Returns the row count."""
    same_output(stdout, combined, "sweep")
    _, rows = parse_artifact(combined.decode(), "sweep", SWEEP_COLUMNS)
    require(len(groups) == groups_expected,
            f"sweep: {len(groups)} group files, expected {groups_expected}")
    require(len(rows) == groups_expected * r_steps,
            f"sweep: {len(rows)} rows, expected {groups_expected * r_steps}")
    infeasible = sum(1 for row in rows if row[8] == "false")
    require(infeasible == infeasible_expected,
            f"sweep: {infeasible} infeasible rows, expected {infeasible_expected}")
    for gid, blob in enumerate(groups):
        _, group_rows = parse_artifact(blob.decode(), "sweep", SWEEP_COLUMNS)
        require(len(group_rows) == r_steps and
                all(row[0] == str(gid) for row in group_rows),
                f"sweep: group file {gid} has the wrong rows")
    return len(rows)


def check_simulate(text: str, local_prob: float, mu: float, lam: float,
                   sojourn_tolerance: float) -> int:
    """A simulate artifact: packet conservation and, at a local load
    rho = lam*local_prob/mu of at most MM1_MAX_RHO, the M/M/1 sojourn.
    Returns packets_generated."""
    _, rows = parse_artifact(text, "simulate", SIMULATE_COLUMNS)
    require(len(rows) == 1, f"simulate: {len(rows)} rows, expected 1")
    row = dict(zip(SIMULATE_COLUMNS, rows[0]))
    generated = int(row["packets_generated"])
    done = (int(row["packets_local_done"]) + int(row["packets_forwarded_done"])
            + int(row["packets_in_flight"]))
    require(generated > 0 and generated == done,
            f"simulate: {generated} generated != {done} done or in flight")
    lam_local = lam * local_prob
    if lam_local <= MM1_MAX_RHO * mu:
        expected = 1.0 / (mu - lam_local)
        sojourn = float(row["mean_local_sojourn_s"])
        require(abs(sojourn - expected) <= sojourn_tolerance * expected,
                f"simulate: local sojourn {sojourn!r} vs M/M/1 {expected!r}")
    return generated


def check_trace(blob: bytes, packets: int) -> None:
    """A trace file: manifest, header and exactly one row per packet."""
    first, _, rest = blob.partition(b"\n")
    try:
        RunManifest.from_comment_line(first.decode())
    except (ValueError, TypeError) as exc:
        raise CheckFailed(f"trace: bad manifest line: {exc}") from None
    header, _, body = rest.partition(b"\n")
    require(tuple(header.decode().split(",")) == TRACE_COLUMNS,
            "trace: unexpected columns")
    require(body.endswith(b"\n"), "trace: last row is incomplete")
    rows = body.count(b"\n")
    require(rows == packets, f"trace: {rows} rows for {packets} packets")


def check_hv_ratio(ratio: float, floor: float) -> None:
    require(ratio >= floor, f"optimize: hypervolume ratio {ratio:.4f} < {floor}")
