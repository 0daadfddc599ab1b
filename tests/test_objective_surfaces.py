"""scripts/objective_surfaces.py: the batched family rows against the
per-point scalar path they replaced."""

import importlib.util
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from fogscope import model
from fogscope.scenario import default_scenario

SCRIPT = Path(__file__).parents[1] / "scripts" / "objective_surfaces.py"
_spec = importlib.util.spec_from_file_location("objective_surfaces", SCRIPT)
surfaces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surfaces)


def scalar_family_rows(name, scenarios, r_steps):
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", model.InstabilityWarning)
        for member in scenarios:
            for i in range(r_steps):
                r = i / (r_steps - 1)
                vec = model.objectives(member, r)
                rows.append((name, member.name, r,
                             vec.throughput_to_cloud_bps, vec.fog_power_w,
                             vec.avg_latency_s))
    return rows


@pytest.mark.parametrize("r_steps", [2, 101, 2001])
def test_rows_equal_the_scalar_path_on_default_families(r_steps):
    families = surfaces.families(default_scenario())
    assert len(families) == 4
    for _, name, members in families:
        batched = surfaces.family_rows(name, members, r_steps)
        scalar = scalar_family_rows(name, members, r_steps)
        assert batched == scalar
        assert repr(batched) == repr(scalar)  # -0.0 and 0.0 too


def test_member_above_the_tdp_raises_like_the_scalar_path():
    base = default_scenario()
    hot = replace(base, fog=replace(base.fog, energy_per_bit=1e-4))
    with pytest.raises(model.TdpExceeded) as batched:
        surfaces.family_rows("hot", [base, hot], 11)
    with pytest.raises(model.TdpExceeded) as scalar:
        scalar_family_rows("hot", [base, hot], 11)
    assert batched.value.power_w == scalar.value.power_w
