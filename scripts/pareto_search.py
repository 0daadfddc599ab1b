#!/usr/bin/env python3
"""Genetic search versus the brute-force grid oracle across a few
configurations: the baseline scenario, the transmission-power variant,
and a fleet-scale 1080p workload on HSPA+.

Prints a hypervolume comparison table and writes each front as CSV.
"""

import argparse
import os
from dataclasses import replace
from pathlib import Path

from fogscope.model import ValidationError
from fogscope.optimizer import (OptConfig, OptProblem, brute_force_front,
                                grid_steps, hypervolume, optimize)
from fogscope.reporting import ResultTable, RunManifest, render_artifact
from fogscope.scenario import (CATALOG, default_scenario, load_scenario,
                               scenario_digest)

TX_TERM = Path(__file__).parents[1] / "scenarios" / "tx_term.yaml"
FRONT_COLUMNS = ("r", "throughput_bps", "fog_power_w", "avg_latency_s")


def configurations():
    base = default_scenario()
    tx = load_scenario(TX_TERM.read_text(encoding="utf-8"))
    # six 1080p streams at max bitrate over HSPA+, fog sized to the load
    rate = 6 * CATALOG.bitrates["1080p"].max_bps / base.workload.packet_size
    fleet = replace(
        base,
        workload=replace(base.workload, arrival_rate=rate),
        fog=replace(base.fog, proc_capability=rate),
        network=CATALOG.networks["hspa_plus"].to_network_params(),
        name="fleet-1080p",
    )
    return [base, tx, fleet]


def front_rows(front):
    return [(r, vec.throughput_to_cloud_bps, vec.fog_power_w,
             vec.avg_latency_s) for r, vec in front.rank_zero()]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.environ.get("FOGSCOPE_OUT", "."))
    parser.add_argument("--pop", type=int, default=100)
    parser.add_argument("--gens", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--grid-step", type=float, default=1e-3)
    args = parser.parse_args()
    try:
        grid_steps(args.grid_step)
    except ValidationError as exc:
        parser.error(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'scenario':<14} {'ga_points':>9} {'grid_points':>11} "
          f"{'hv_ratio':>8}")
    for scn in configurations():
        problem = OptProblem(scenario=scn)
        cfg = OptConfig(population_size=args.pop, generations=args.gens,
                        seed=args.seed)
        ga = optimize(problem, cfg)
        grid = brute_force_front(problem, args.grid_step)

        grid_pts = [vec.as_tuple() for _, vec in grid.members]
        ga_pts = [vec.as_tuple() for _, vec in ga.rank_zero()]
        ref = tuple(max(p[d] for p in grid_pts) for d in range(3))
        ratio = hypervolume(ga_pts, ref) / hypervolume(grid_pts, ref)
        print(f"{scn.name:<14} {len(ga_pts):>9} {len(grid_pts):>11} "
              f"{ratio:>8.4f}")

        manifest = RunManifest.create("pareto-search", scenario_digest(scn),
                                      seed=args.seed)
        path = out_dir / f"front_{scn.name.replace('[', '_').strip(']')}.csv"
        path.write_text(
            render_artifact(manifest, ResultTable(columns=FRONT_COLUMNS,
                                                  rows=front_rows(ga))),
            encoding="utf-8")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
