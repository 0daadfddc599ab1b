"""Footprint geometry, dwell budgets, and power models against
independent oracles (frustum ray casting, momentum theory, DC-motor
arithmetic)."""

import math
from dataclasses import fields, replace
from typing import Optional, get_type_hints

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fogscope import flight
from fogscope.flight import (AircraftModel, CameraParams, MotorOverload,
                             MotorParams, ZeroSpeed, dwell_time,
                             fixed_wing_level_power, ground_coverage,
                             hover_power, latency_budget_verdict,
                             motor_electrical_power)
from fogscope.model import ValidationError
from fogscope.scenario import preset

PHANTOM_CAM = CameraParams(diagonal_fov_deg=94.0, aspect_w=3, aspect_h=2)


def raycast_footprint(fov_deg, aspect_w, aspect_h, height):
    """Oracle: intersect the four frustum corner rays with the ground.

    The camera sits at (0, 0, height) looking straight down; corner rays
    pass through the image corners placed on the unit-focal plane at
    radius tan(fov/2) from the axis.
    """
    scale = math.tan(math.radians(fov_deg) / 2.0)
    diag = math.hypot(aspect_w, aspect_h)
    corners = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            direction = np.array([sx * scale * aspect_w / diag,
                                  sy * scale * aspect_h / diag,
                                  -1.0])
            t = height / -direction[2]
            hit = np.array([0.0, 0.0, height]) + t * direction
            corners.append(hit[:2])
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    return max(ys) - min(ys), max(xs) - min(xs)  # (along=h axis, across=w axis)


class TestGroundCoverage:
    def test_zero_height(self):
        assert ground_coverage(PHANTOM_CAM, 0.0) == (0.0, 0.0)

    def test_phantom_camera_at_ten_meters(self):
        along, across = ground_coverage(PHANTOM_CAM, 10.0)
        assert along == pytest.approx(11.8968626775, rel=1e-9)
        assert across == pytest.approx(17.8452940163, rel=1e-9)

    def test_matches_raycast_oracle(self):
        for h in (1.0, 10.0, 57.3):
            along, across = ground_coverage(PHANTOM_CAM, h)
            o_along, o_across = raycast_footprint(94.0, 3, 2, h)
            assert along == pytest.approx(o_along, rel=1e-9)
            assert across == pytest.approx(o_across, rel=1e-9)

    def test_doubling_height_doubles_extents(self):
        a1, c1 = ground_coverage(PHANTOM_CAM, 10.0)
        a2, c2 = ground_coverage(PHANTOM_CAM, 20.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)
        assert c2 == pytest.approx(2 * c1, rel=1e-12)

    @given(fov=st.floats(min_value=5.0, max_value=170.0),
           w=st.floats(min_value=0.5, max_value=10.0),
           h=st.floats(min_value=0.5, max_value=10.0),
           height=st.floats(min_value=0.0, max_value=500.0))
    def test_diagonal_consistency(self, fov, w, h, height):
        along, across = ground_coverage(CameraParams(fov, w, h), height)
        diag = 2.0 * height * math.tan(math.radians(fov) / 2.0)
        assert along ** 2 + across ** 2 == pytest.approx(diag ** 2, rel=1e-9,
                                                         abs=1e-12)

    @given(fov=st.floats(min_value=5.0, max_value=170.0),
           w=st.floats(min_value=0.5, max_value=10.0),
           h=st.floats(min_value=0.5, max_value=10.0),
           height=st.floats(min_value=0.01, max_value=500.0))
    def test_raycast_oracle_property(self, fov, w, h, height):
        along, across = ground_coverage(CameraParams(fov, w, h), height)
        o_along, o_across = raycast_footprint(fov, w, h, height)
        assert along == pytest.approx(o_along, rel=1e-9)
        assert across == pytest.approx(o_across, rel=1e-9)

    def test_invalid_camera(self):
        with pytest.raises(ValueError):
            CameraParams(0.0, 3, 2)
        with pytest.raises(ValueError):
            CameraParams(180.0, 3, 2)
        with pytest.raises(ValueError):
            CameraParams(94.0, 0, 2)


class TestDwellTime:
    def test_ten_meters_five_mps(self):
        assert dwell_time(PHANTOM_CAM, 10.0, 5.0) \
            == pytest.approx(2.3793725355, rel=1e-9)

    def test_twenty_meters_five_mps(self):
        assert dwell_time(PHANTOM_CAM, 20.0, 5.0) \
            == pytest.approx(4.7587450710, rel=1e-9)

    @given(height=st.floats(min_value=0.1, max_value=500.0),
           speed=st.floats(min_value=0.1, max_value=100.0))
    def test_speed_doubling_halves_dwell_exactly(self, height, speed):
        assert dwell_time(PHANTOM_CAM, height, speed) \
            == 2.0 * dwell_time(PHANTOM_CAM, height, 2.0 * speed)

    def test_dwell_decreases_with_speed(self):
        dwells = [dwell_time(PHANTOM_CAM, 10.0, v) for v in (1, 5, 25, 125)]
        assert dwells == sorted(dwells, reverse=True)

    def test_zero_speed_rejected(self):
        with pytest.raises(ZeroSpeed):
            dwell_time(PHANTOM_CAM, 10.0, 0.0)
        with pytest.raises(ZeroSpeed):
            dwell_time(PHANTOM_CAM, 10.0, -3.0)
        with pytest.raises(ZeroSpeed):
            dwell_time(PHANTOM_CAM, 10.0, math.nan)


class TestLatencyBudget:
    def test_slow_pass_is_feasible(self):
        verdict = latency_budget_verdict(2.379, flight.CLOUD_ROUND_TRIP_S)
        assert verdict.feasible
        assert verdict.margin_s == pytest.approx(0.699, rel=1e-3)

    def test_fast_pass_is_infeasible(self):
        dwell = dwell_time(PHANTOM_CAM, 10.0, 10.0)
        verdict = latency_budget_verdict(dwell, flight.CLOUD_ROUND_TRIP_S)
        assert not verdict.feasible
        assert verdict.margin_s < 0

    def test_zero_pipeline_always_feasible(self):
        assert latency_budget_verdict(0.0, 0.0).feasible
        assert latency_budget_verdict(5.0, 0.0).feasible

    @given(dwell=st.floats(min_value=0.0, max_value=100.0),
           extra=st.floats(min_value=0.0, max_value=100.0),
           pipeline=st.floats(min_value=0.0, max_value=100.0))
    def test_more_dwell_never_flips_to_infeasible(self, dwell, extra, pipeline):
        before = latency_budget_verdict(dwell, pipeline)
        after = latency_budget_verdict(dwell + extra, pipeline)
        assert after.feasible or not before.feasible

    def test_round_trip_constant(self):
        assert flight.CLOUD_ROUND_TRIP_S == 2 * 0.84


def quad(mass, efficiency=1.0):
    return AircraftModel(kind=flight.QUAD_ROTOR, mass_kg=mass,
                         motor=preset("x2212"), overall_efficiency=efficiency)


def fixed_wing(mass, efficiency=1.0):
    return AircraftModel(kind=flight.FIXED_WING_BIMOTOR, mass_kg=mass,
                         motor=preset("x2212"), wing_area_m2=0.72,
                         drag_coeff=0.05, lift_coeff=0.3,
                         overall_efficiency=efficiency)


def momentum_oracle(mass, prop_diameter=0.254, rho=1.225, efficiency=1.0):
    thrust = mass * 9.81 / 4.0
    area = math.pi * (prop_diameter / 2.0) ** 2
    return 4.0 * thrust ** 1.5 / math.sqrt(2.0 * rho * area) / efficiency


class TestHoverPower:
    def test_half_kilogram(self):
        assert hover_power(quad(0.5)) == pytest.approx(15.4158268, rel=1e-7)

    def test_matches_momentum_oracle(self):
        for mass in (0.5, 1.0, 1.75, 3.0):
            assert hover_power(quad(mass)) \
                == pytest.approx(momentum_oracle(mass), rel=1e-12)

    def test_vanishes_with_mass(self):
        assert hover_power(quad(1e-9)) == pytest.approx(0.0, abs=1e-9)

    def test_payload_deltas_bracket_reported_values(self):
        # the +250 g increments come out within x1.5 of 9 W and 23.3 W
        delta_small = hover_power(quad(0.75)) - hover_power(quad(0.5))
        delta_large = hover_power(quad(3.25)) - hover_power(quad(3.0))
        assert delta_small == pytest.approx(12.9049, rel=1e-4)
        assert delta_large == pytest.approx(28.9027, rel=1e-4)
        assert 9.0 / 1.5 <= delta_small <= 9.0 * 1.5
        assert 23.3 / 1.5 <= delta_large <= 23.3 * 1.5

    def test_strictly_increasing_and_convex_in_mass(self):
        masses = [0.5 + 0.25 * i for i in range(11)]
        powers = [hover_power(quad(m)) for m in masses]
        diffs = [b - a for a, b in zip(powers, powers[1:])]
        assert all(d > 0 for d in diffs)
        assert all(b > a for a, b in zip(diffs, diffs[1:]))

    def test_efficiency_divides_power(self):
        assert hover_power(quad(1.0, efficiency=0.8)) \
            == pytest.approx(hover_power(quad(1.0)) / 0.8, rel=1e-12)

    def test_overload_raises(self):
        heavy = AircraftModel(kind=flight.QUAD_ROTOR, mass_kg=120.0,
                              motor=preset("x2212"), overall_efficiency=1.0)
        with pytest.raises(MotorOverload):
            hover_power(heavy)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            hover_power(fixed_wing(1.0))


class TestFixedWingPower:
    def test_reference_point(self):
        aircraft = fixed_wing(0.5)
        speed = math.sqrt(2 * 0.5 * 9.81 / (1.225 * 0.72 * 0.3))
        assert speed == pytest.approx(6.0889, rel=1e-4)
        assert fixed_wing_level_power(aircraft) == pytest.approx(4.9777,
                                                                 rel=1e-4)

    @given(mass=st.floats(min_value=0.1, max_value=3.0))
    def test_mass_scaling_exponent(self, mass):
        p1 = fixed_wing_level_power(fixed_wing(mass))
        p2 = fixed_wing_level_power(fixed_wing(2 * mass))
        assert p2 / p1 == pytest.approx(2 ** 1.5, rel=1e-9)

    def test_strictly_increasing_in_mass(self):
        powers = [fixed_wing_level_power(fixed_wing(m))
                  for m in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    @pytest.mark.parametrize("changes", [
        {"lift_coeff": 1e-300},            # speed ** 3 overflows
        {"wing_area_m2": 1e-300},
        {"lift_coeff": 5e-324},            # the lift balance gives speed inf
        {"wing_area_m2": 1e-300, "lift_coeff": 1e-300},  # divides by 0
        {"overall_efficiency": 5e-324},    # the division overflows to inf
    ], ids=["lift", "wing", "subnormal-lift", "zero-lift", "efficiency"])
    def test_power_out_of_float_range_is_a_value_error(self, changes):
        aircraft = replace(fixed_wing(1.0), **changes)
        with pytest.raises(ValueError, match="not finite"):
            fixed_wing_level_power(aircraft)

    def test_requires_wing_fields(self):
        with pytest.raises(ValueError):
            AircraftModel(kind=flight.FIXED_WING_BIMOTOR, mass_kg=1.0,
                          motor=preset("x2212"))
        with pytest.raises(ValueError):
            fixed_wing_level_power(quad(1.0))


class TestMotorElectricalPower:
    def test_no_load_at_5000_rpm(self):
        m = preset("x2212")
        kv_rad = 1250.0 * 2 * math.pi / 60.0
        assert kv_rad == pytest.approx(130.8997, rel=1e-6)
        p = motor_electrical_power(m, torque_nm=0.0, speed_rpm=5000.0)
        current = 0.6
        voltage = 5000.0 * 2 * math.pi / 60.0 / kv_rad + current * 0.079
        assert voltage == pytest.approx(4.0474, rel=1e-5)
        assert p == pytest.approx(voltage * current, rel=1e-12)
        assert p == pytest.approx(2.4284, rel=1e-4)

    def test_stand_still(self):
        p = motor_electrical_power(preset("x2212"), torque_nm=0.0,
                                   speed_rpm=0.0)
        assert p == pytest.approx(0.0284, rel=1e-2)

    def test_strictly_increasing_in_torque(self):
        m = preset("x2212")
        powers = [motor_electrical_power(m, t, 4000.0)
                  for t in (0.0, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_overload(self):
        with pytest.raises(MotorOverload):
            motor_electrical_power(preset("x2212"), torque_nm=5.0,
                                   speed_rpm=20000.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            motor_electrical_power(preset("x2212"), -0.1, 100.0)


# a valid instance of each parameter dataclass, and valid arguments of each
# checked function; every float in them is swapped for NaN, inf and -inf in
# turn below
VALID_PARAMS = {CameraParams: PHANTOM_CAM, MotorParams: preset("x2212"),
                AircraftModel: fixed_wing(1.0)}
VALID_ARGS = {
    ground_coverage: {"cam": PHANTOM_CAM, "height_m": 10.0},
    dwell_time: {"cam": PHANTOM_CAM, "height_m": 10.0,
                 "ground_speed_mps": 5.0},
    latency_budget_verdict: {"dwell_s": 2.0, "pipeline_latency_s": 1.68},
    motor_electrical_power: {"motor": preset("x2212"), "torque_nm": 0.05,
                             "speed_rpm": 4000.0},
}


def is_float(hint):
    return hint in (float, Optional[float])


FLOAT_FIELDS = [(cls, f.name) for cls in VALID_PARAMS for f in fields(cls)
                if is_float(get_type_hints(cls)[f.name])]
FLOAT_ARGS = [(fn, name) for fn in VALID_ARGS
              for name, hint in get_type_hints(fn).items()
              if name != "return" and is_float(hint)]
# the id suffix of each non-finite value; NaN keeps the bare case id
NON_FINITE = {"": math.nan, "=inf": math.inf, "=-inf": -math.inf}


def each_non_finite(argnames, cases, case_id):
    """Parametrize ``argnames`` over ``cases``, each with every value of
    NON_FINITE in turn as the argument ``value``."""
    return pytest.mark.parametrize(
        f"{argnames}, value",
        [(*case, value) for case in cases for value in NON_FINITE.values()],
        ids=[case_id(*case) + suffix for case in cases
             for suffix in NON_FINITE])


class TestNanRejected:
    """NaN fails every comparison, so a check written as ``if bad: raise``
    lets it through, and an infinity passes every lower bound; each must
    name the offending parameter."""

    @each_non_finite("cls, name", FLOAT_FIELDS,
                     lambda cls, name: f"{cls.__name__}.{name}")
    def test_dataclass_field(self, cls, name, value):
        with pytest.raises(ValidationError) as info:
            replace(VALID_PARAMS[cls], **{name: value})
        assert info.value.field == name

    @each_non_finite("end", [(0,), (1,)], lambda end: ["low", "high"][end])
    def test_efficiency_range_end(self, end, value):
        bounds = [0.75, 0.85]
        bounds[end] = value
        with pytest.raises(ValidationError) as info:
            replace(preset("x2212"), efficiency_range=tuple(bounds))
        assert info.value.field == "efficiency_range"

    @each_non_finite("fn, name", FLOAT_ARGS,
                     lambda fn, name: f"{fn.__name__}.{name}")
    def test_function_argument(self, fn, name, value):
        with pytest.raises(ValidationError) as info:
            fn(**{**VALID_ARGS[fn], name: value})
        assert info.value.field == name

    def test_every_float_is_covered(self):
        # a type hint the enumeration misread would drop its case silently
        assert len(FLOAT_FIELDS) == 3 + 6 + 6
        assert len(FLOAT_ARGS) == 1 + 2 + 2 + 2


class TestAirDensity:
    @pytest.mark.parametrize("density", [0.0, -1.0])
    @pytest.mark.parametrize("build", [quad, fixed_wing],
                             ids=["quad", "fixedwing"])
    def test_non_positive_density_rejected_when_built(self, build, density):
        with pytest.raises(ValidationError) as info:
            replace(build(1.0), air_density_kgpm3=density)
        assert info.value.field == "air_density_kgpm3"

    def test_thinner_air_needs_more_hover_power(self):
        thin = replace(quad(1.0), air_density_kgpm3=1.225 / 4)
        assert hover_power(thin) == pytest.approx(2 * hover_power(quad(1.0)),
                                                  rel=1e-12)
