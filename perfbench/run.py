"""fogscope benchmark: four closed-loop CLI workloads and a traced replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` drives the CLI as a subprocess and reports the end-to-end
metrics: ``setup_s``, ``peak_rss_mib``, and the median command time and
the work rate relative to the reference program (``cmd_p50_rel``,
``work_per_ref``), next to their absolute values.  ``--trace 1`` replays
every workload's commands in-process with spans and reports the
per-layer metrics.  ``--workload all`` runs each
workload in turn.  Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (provenance, every metric with its sample
count, spans) is written once, at the end, under ``.bench_out/``.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from launcher import Launcher
from measure import summarize

END_TO_END = ("setup_s", "cmd_p50_rel", "work_per_ref", "peak_rss_mib")
OUT_DIR = ".bench_out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_root() -> Path:
    """The checkout to measure is the working directory; its ``src`` must
    hold the fogscope package, which is imported from there and nowhere
    else."""
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fogscope" / "cli.py").is_file():
        fail(f"no src/fogscope/cli.py under {root}; run from a fogscope checkout")
    sys.path.insert(0, str(src))
    import fogscope
    if Path(fogscope.__file__).resolve().parent != src / "fogscope":
        fail(f"fogscope imported from {fogscope.__file__}, not from {src}")
    return root


def provenance(root: Path, args) -> dict:
    import numpy
    import scipy
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fogscope").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, *rest) in metrics.items():
        count = f"  (n={rest[0]})" if rest else ""
        print(f"  {name:34s} {value:>14.6g} {unit}{count}")


def describe(walls: list[float]) -> str:
    summary = summarize(walls)
    tail = summary["tail"]
    tail_text = (f", p{tail['pct']:g} {tail['value']:.4f} s" if tail
                 else ", no percentile has 10 samples beyond it")
    return f"p50 {summary['p50']:.4f} s (n={summary['n']}{tail_text})"


def run_end_to_end(name: str, args, root: Path, run_dir: Path,
                   launcher: Launcher) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name](args.seed, run_dir)
    res = workloads.run_closed_loop(workload, root, args.seconds, launcher)
    outcome = res["outcome"]
    print(f"workload {name}: {outcome.attempted} commands, "
          f"{len(outcome.failures)} failed, loop {res['loop_wall_s']:.2f} s, "
          f"work items are {workload.items}")
    print_metrics(res["metrics"])
    if res["plain"]:
        print(f"    {'cmd_p50_s commands':28s} {describe(res['plain'])}")
    for kind, walls in res["per_kind"].items():
        print(f"    {kind:28s} {describe(walls)}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    return {"metrics": res["metrics"], "attempted": outcome.attempted,
            "failed": len(outcome.failures), "failures": outcome.failures,
            "per_kind": res["per_kind"]}


def run_traced(name: str, args, root: Path, run_dir: Path,
               launcher: Launcher) -> dict:
    import replay
    res = replay.run_traced(name, args.seed, root, run_dir, launcher)
    print(f"traced replay for {name}: per-layer metrics")
    print_metrics(res["metrics"])
    print("  counts fixed by the workloads (report only)")
    print_metrics(res["counts"])
    print(f"  per-command breakdown of {name} (CLI wall = interpreter + "
          "imports + CLI glue + layer self times + unaccounted)")
    for row in res["breakdown"]:
        layers = " + ".join(f"{k} {v:.4f}" for k, v in row["layers_s"].items())
        print(f"    {row['kind']:24s} {row['wall_s']:.4f} s = interp "
              f"{row['interp_s']:.4f} + import {row['import_s']:.4f} + glue "
              f"{row['glue_s']:.4f} + {layers} + unaccounted "
              f"{row['unaccounted_s']:.4f}")
    over = res["overhead"]
    print(f"  tracing overhead on the {name} replay: {over['overhead_s']:+.4f} s "
          f"({over['replay_on_s']:.4f} s on, {over['replay_off_s']:.4f} s off)")
    for layer, why in res["not_separated"].items():
        print(f"  not separated: {layer}: {why}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    # one compact row per span: name, start, end, parent, command
    spans = [(s.name, s.start, s.end, s.parent, s.command) for s in res["spans"]]
    return {"metrics": res["metrics"], "counts": res["counts"],
            "attempted": res["attempted"], "failed": len(res["failures"]),
            "failures": res["failures"], "breakdown": res["breakdown"],
            "overhead": over, "not_separated": res["not_separated"],
            "spans": spans, "commands": res["command_ids"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = checkout_root()
    import workloads  # imports fogscope, which checkout_root() made importable
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if not set(names) <= set(workloads.WORKLOADS):
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)} or all")

    out_root = root / OUT_DIR
    report = {"provenance": provenance(root, args), "workloads": {}}
    run = run_traced if args.trace else run_end_to_end
    with Launcher() as launcher:
        for name in names:
            run_dir = out_root / f"run-{name}-{args.seed}-{os.getpid()}"
            try:
                report["workloads"][name] = run(name, args, root, run_dir,
                                                launcher)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_root / f"report-{label}.json").write_text(
        json.dumps(report, default=str), encoding="utf-8")
    print(f"provenance: {json.dumps(report['provenance'])}")

    results = report["workloads"].values()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, res in report["workloads"].items():
        wanted = (res["metrics"] if args.trace
                  else {k: res["metrics"][k] for k in END_TO_END
                        if k in res["metrics"]})
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v[0], "unit": v[1]}
                        for k, v in wanted.items()})
    if len(names) == 1 and not args.trace and len(metrics) < len(END_TO_END):
        fail("no command passed, so the metrics are undefined")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
