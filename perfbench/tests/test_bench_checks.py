"""Each output check accepts a well-formed artifact and rejects a
corrupted one."""

import pytest

import checks
import workloads
from checks import CheckFailed
from fogscope.reporting import ResultTable, RunManifest, render_artifact

PARAMS = dict(workloads.BASE_PARAMS)
TDP_BOUND = dict(PARAMS, tdp_w=2.0607)


def artifact(command, columns, rows, seed=None):
    return render_artifact(RunManifest.create(command, "sha256:0", seed=seed),
                           ResultTable(columns=columns, rows=rows))


# -- sweep ------------------------------------------------------------------

def sweep_files(groups=2, r_steps=3, tdp_groups=(1,)):
    rows, blobs = [], []
    for gid in range(groups):
        group = []
        for i in range(r_steps):
            r = i / (r_steps - 1)
            feasible = not (gid in tdp_groups and r > 0.5)
            group.append((gid, f"g{gid}", r, 1.0, 2.0, 0.1, 0.2, 0.15, feasible))
        rows += group
        blobs.append(artifact("sweep", checks.SWEEP_COLUMNS, group).encode())
    combined = artifact("sweep", checks.SWEEP_COLUMNS, rows).encode()
    return combined, blobs


def test_sweep_accepts_a_complete_sweep():
    combined, groups = sweep_files()
    assert checks.check_sweep(combined, combined, groups, 2, 3, 1) == 6


def test_sweep_rejects_a_truncated_csv():
    combined, groups = sweep_files()
    cut = combined[:combined.rstrip(b"\n").rfind(b"\n") + 1]  # last row gone
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_sweep(cut, cut, groups, 2, 3, 1)
    mid_row = combined[:-10]
    with pytest.raises(CheckFailed):
        checks.check_sweep(mid_row, mid_row, groups, 2, 3, 1)


def test_sweep_rejects_a_wrong_infeasible_count_or_missing_group():
    combined, groups = sweep_files()
    with pytest.raises(CheckFailed, match="infeasible"):
        checks.check_sweep(combined, combined, groups, 2, 3, 2)
    with pytest.raises(CheckFailed, match="group files"):
        checks.check_sweep(combined, combined, groups[:1], 2, 3, 1)


def test_sweep_rejects_stdout_that_differs_from_the_file():
    combined, groups = sweep_files()
    with pytest.raises(CheckFailed, match="stdout"):
        checks.check_sweep(combined[:-1], combined, groups, 2, 3, 1)


def test_expected_infeasible_count_matches_the_closed_form():
    lo, hi = checks.feasible_interval(TDP_BOUND)
    assert lo == 0.0 and hi == pytest.approx(0.0607 / 0.12)
    steps = workloads.SWEEP_R_STEPS
    above = sum(1 for i in range(steps) if i / (steps - 1) > hi)
    assert 16 * above == workloads.SWEEP_INFEASIBLE


# -- search -----------------------------------------------------------------

def front(points, seed=5):
    rows = [(r, t, p, lat, 0, 1.0) for r, t, p, lat in points]
    return artifact("optimize", checks.OPTIMIZE_COLUMNS, rows, seed=seed)


GOOD_FRONT = [(0.1, 3.0, 1.0, 0.5), (0.3, 2.0, 2.0, 0.4), (0.5, 1.0, 3.0, 0.3)]


def test_front_accepts_a_non_dominated_set():
    points = checks.check_front(front(GOOD_FRONT), TDP_BOUND, 5)
    assert len(points) == 3


def test_front_rejects_an_appended_dominated_point():
    dominated = GOOD_FRONT + [(0.4, 2.5, 2.5, 0.45)]
    with pytest.raises(CheckFailed, match="dominated"):
        checks.check_front(front(dominated), TDP_BOUND, 5)


def test_front_rejects_r_outside_the_feasible_interval():
    outside = GOOD_FRONT + [(0.6, 0.5, 4.0, 0.2)]
    with pytest.raises(CheckFailed, match="feasible interval"):
        checks.check_front(front(outside), TDP_BOUND, 5)


def test_front_rejects_a_wrong_seed():
    with pytest.raises(CheckFailed, match="seed"):
        checks.check_front(front(GOOD_FRONT, seed=6), TDP_BOUND, 5)


def test_hypervolume_ratio_floor():
    checks.check_hv_ratio(0.99, 0.98)
    with pytest.raises(CheckFailed):
        checks.check_hv_ratio(0.97, 0.98)


def test_feasible_interval_with_a_falling_power_slope():
    falling = dict(PARAMS, tx_energy_per_bit_j=3.0e-7,
                   modification1_enabled=True, tdp_w=2.3)
    lo, hi = checks.feasible_interval(falling)
    assert hi == 1.0
    assert checks.fog_power(falling, lo) == pytest.approx(2.3)
    assert checks.feasible_interval(dict(PARAMS, tdp_w=1.0)) == (1.0, 0.0)


# -- interactive ------------------------------------------------------------

def evaluate_row(r, power):
    return artifact("evaluate", checks.EVALUATE_COLUMNS,
                    [(r, 100 * (1 - r) * 12000, power, 0.1, 0.2, 0.15, True)])


def test_evaluate_accepts_the_closed_form():
    checks.check_evaluate(evaluate_row(0.25, checks.fog_power(PARAMS, 0.25)),
                          PARAMS, 0.25)


def test_evaluate_rejects_a_wrong_power_or_manifest():
    with pytest.raises(CheckFailed, match="power"):
        checks.check_evaluate(evaluate_row(0.25, 2.5), PARAMS, 0.25)
    text = evaluate_row(0.25, checks.fog_power(PARAMS, 0.25))
    with pytest.raises(CheckFailed, match="manifest"):
        checks.check_evaluate(text.replace("# fogscope: ", "# other: ", 1),
                              PARAMS, 0.25)
    with pytest.raises(CheckFailed, match="command"):
        checks.check_table(text, "fov", checks.EVALUATE_COLUMNS, 1)


def test_table_rejects_a_missing_row():
    text = artifact("fov", checks.FOV_COLUMNS, [(10.0, 5.0, 1.0, 2.0, True)])
    checks.check_table(text, "fov", checks.FOV_COLUMNS, 1)
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_table(text, "fov", checks.FOV_COLUMNS, 2)


# -- simulate ---------------------------------------------------------------

def simulate_row(sojourn=0.02, generated=1000, local=490, forwarded=500,
                 in_flight=10):
    row = (0.5, 5000.0, 500.0, sojourn, 0.1, 6e5, 2.06, 9, False, generated,
           local, forwarded, in_flight, 6e5, 0.5)
    return artifact("simulate", checks.SIMULATE_COLUMNS, [row], seed=3)


def test_simulate_accepts_conservation_and_mm1_sojourn():
    assert checks.check_simulate(simulate_row(), 0.5, 100.0, 100.0, 0.05) == 1000


def test_simulate_rejects_lost_packets_and_a_wrong_sojourn():
    with pytest.raises(CheckFailed, match="generated"):
        checks.check_simulate(simulate_row(in_flight=9), 0.5, 100.0, 100.0, 0.05)
    with pytest.raises(CheckFailed, match="M/M/1"):
        checks.check_simulate(simulate_row(sojourn=0.03), 0.5, 100.0, 100.0, 0.05)


def test_simulate_checks_the_sojourn_only_at_low_load():
    # local load 0.9: the sample mean is too noisy for a closed-form check
    assert checks.check_simulate(simulate_row(sojourn=0.11), 0.9, 100.0,
                                 100.0, 0.05) == 1000


def trace_blob(rows):
    lines = [RunManifest.create("simulate", "sha256:0", seed=3).to_comment_line(),
             ",".join(checks.TRACE_COLUMNS)]
    lines += [f"{i},{i * 0.01!r},false,local,{i * 0.01 + 0.02!r},12000.0"
              for i in range(rows)]
    return ("\n".join(lines) + "\n").encode()


def test_trace_accepts_one_row_per_packet():
    checks.check_trace(trace_blob(50), 50)


def test_trace_rejects_missing_rows():
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_trace(trace_blob(49), 50)
    with pytest.raises(CheckFailed, match="incomplete"):
        checks.check_trace(trace_blob(50)[:-5], 50)
