#!/usr/bin/env python3
"""Desk-scale objective surfaces: how throughput, fog power, and average
latency move with the workload split under different network standards,
fog capability levels, uplink rates, and the transmission-power term.

Writes one plot-ready CSV per family into --out (or FOGSCOPE_OUT).
"""

import argparse
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from fogscope import model
from fogscope.reporting import ResultTable, RunManifest, render_artifact
from fogscope.scenario import (CATALOG, default_scenario, parse_grid_spec,
                               scenario_digest, sweep_grid)

COLUMNS = ("family", "member", "r", "throughput_bps", "fog_power_w",
           "avg_latency_s")


def family_rows(name, scenarios, r_steps):
    r = np.arange(r_steps) / (r_steps - 1)
    rows = []
    with warnings.catch_warnings():
        # surfaces deliberately cover the unstable half of the r range
        warnings.simplefilter("ignore", model.InstabilityWarning)
        for member in scenarios:
            ev = model.evaluate(member, r)
            if not ev.feasible.all():
                over = int(np.argmin(ev.feasible))
                raise model.TdpExceeded(float(ev.fog_power_w[over]),
                                        member.fog.tdp)
            rows += [(name, member.name) + cells for cells in zip(
                ev.r.tolist(), ev.throughput_bps.tolist(),
                ev.fog_power_w.tolist(), ev.avg_latency_s.tolist())]
    return rows


def write(out_dir, filename, base, rows):
    manifest = RunManifest.create("objective-surfaces", scenario_digest(base))
    path = out_dir / filename
    path.write_text(render_artifact(manifest,
                                    ResultTable(columns=COLUMNS, rows=rows)),
                    encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows)")


def families(base):
    """(file name, family name, members) of every surface family."""
    # with and without the transmission-power term at equal workloads
    tx = replace(base, fog=replace(base.fog, tx_energy_per_bit=2e-8),
                 modification1_enabled=True, name="default[tx=2e-8]")
    return [
        ("network_families.csv", "network", sweep_grid(base, parse_grid_spec(
            "network=" + ",".join(CATALOG.networks)))),
        ("fog_capability_families.csv", "v_fog_frac", sweep_grid(
            base, parse_grid_spec("v_fog_frac=0.25,0.5,0.75,1.0"))),
        ("uplink_rate_families.csv", "uplink", sweep_grid(base, parse_grid_spec(
            "network.uplink_throughput_bps=4e4,3.84e5,1.5e6,5.76e6,1.15e7"))),
        ("tx_power_comparison.csv", "tx_term", [base, tx]),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.environ.get("FOGSCOPE_OUT", "."),
                        help="output directory")
    parser.add_argument("--r-steps", type=int, default=101)
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    base = default_scenario()
    for filename, name, members in families(base):
        write(out_dir, filename, base,
              family_rows(name, members, args.r_steps))


if __name__ == "__main__":
    main()
