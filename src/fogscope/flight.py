"""Operational feasibility calculators: camera footprint and dwell time,
latency budgets, and aircraft power impact.

Hover power uses ideal momentum theory with a single overall-efficiency
knob; fixed-wing level flight uses a plain drag-polar balance.  Both are
trend models, not motor/propeller matching tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import ValidationError, _require, _require_finite

GRAVITY_MPS2 = 9.81
SEA_LEVEL_AIR_DENSITY = 1.225  # kg/m^3
CLOUD_ROUND_TRIP_S = 1.68      # two-hop sensor-data latency, up and back

QUAD_ROTOR = "quad_rotor"
FIXED_WING_BIMOTOR = "fixed_wing_bimotor"


class ZeroSpeed(ValidationError):
    """Ground speed must be strictly positive."""


class MotorOverload(Exception):
    """Required electrical power above the motor envelope."""

    def __init__(self, power_w: float, limit_w: float):
        self.power_w = power_w
        self.limit_w = limit_w
        super().__init__(
            f"required power {power_w:.6g} W exceeds the {limit_w:.6g} W envelope")


@dataclass(frozen=True)
class CameraParams:
    """Nadir camera described by its diagonal FOV and aspect ratio.

    The aspect_h side of the frame lies along-track; swap the two
    components to rotate the camera 90 degrees.
    """

    diagonal_fov_deg: float
    aspect_w: float
    aspect_h: float

    def __post_init__(self):
        _require_finite(**vars(self))
        _require(0 < self.diagonal_fov_deg < 180, "must be within (0, 180)",
                 "diagonal_fov_deg")
        _require(self.aspect_w > 0, "must be > 0", "aspect_w")
        _require(self.aspect_h > 0, "must be > 0", "aspect_h")


@dataclass(frozen=True)
class MotorParams:
    """Electric motor datasheet values."""

    kv_rpm_per_v: float
    no_load_current_a: float
    resistance_ohm: float
    max_power_w: float
    prop_diameter_m: float
    prop_pitch_m: float
    efficiency_range: tuple[float, float]

    def __post_init__(self):
        _require_finite(**vars(self))
        for name in ("kv_rpm_per_v", "no_load_current_a", "resistance_ohm",
                     "max_power_w", "prop_diameter_m", "prop_pitch_m"):
            _require(getattr(self, name) > 0, "must be > 0", name)
        lo, hi = self.efficiency_range
        _require(0 < lo <= hi <= 1, "must lie within (0, 1]",
                 "efficiency_range")


@dataclass(frozen=True)
class AircraftModel:
    """Airframe description for the power-impact calculators."""

    kind: str
    mass_kg: float
    motor: MotorParams
    wing_area_m2: Optional[float] = None
    drag_coeff: Optional[float] = None
    lift_coeff: float = 0.3
    air_density_kgpm3: float = SEA_LEVEL_AIR_DENSITY
    overall_efficiency: float = 0.8

    def __post_init__(self):
        _require(self.kind in (QUAD_ROTOR, FIXED_WING_BIMOTOR),
                 f"unknown aircraft kind {self.kind!r}", "kind")
        _require_finite(**vars(self))
        for name in ("mass_kg", "air_density_kgpm3"):
            _require(getattr(self, name) > 0, "must be > 0", name)
        _require(0 < self.overall_efficiency <= 1, "must lie within (0, 1]",
                 "overall_efficiency")
        if self.kind == FIXED_WING_BIMOTOR:
            for name in ("wing_area_m2", "drag_coeff", "lift_coeff"):
                value = getattr(self, name)
                _require(value is not None, "required for fixed-wing aircraft",
                         name)
                _require(value > 0, "must be > 0", name)
        else:
            _require(self.wing_area_m2 is None,
                     "only applies to fixed-wing aircraft", "wing_area_m2")


def ground_coverage(cam: CameraParams, height_m: float) -> tuple[float, float]:
    """Ground footprint extents (along_track, across_track) in meters.

    Decomposes the diagonal FOV onto the image axes: each full extent is
    2 * height * tan(fov/2) * axis / sqrt(w^2 + h^2).
    """
    _require_finite(height_m=height_m)
    _require(height_m >= 0, "must be >= 0", "height_m")
    full_diagonal = 2.0 * height_m * math.tan(math.radians(cam.diagonal_fov_deg) / 2.0)
    diag = math.hypot(cam.aspect_w, cam.aspect_h)
    along = full_diagonal * cam.aspect_h / diag
    across = full_diagonal * cam.aspect_w / diag
    _require(math.isfinite(along) and math.isfinite(across),
             f"ground footprint is not finite at height {height_m!r} m", "height_m")
    return along, across


def dwell_time(cam: CameraParams, height_m: float, ground_speed_mps: float) -> float:
    """Seconds a point target stays in frame on a straight nadir pass."""
    if not ground_speed_mps > 0:
        raise ZeroSpeed("ground_speed_mps: must be > 0",
                        field="ground_speed_mps")
    _require_finite(ground_speed_mps=ground_speed_mps)
    along, _ = ground_coverage(cam, height_m)
    dwell = along / ground_speed_mps
    _require(math.isfinite(dwell), f"dwell time is not finite at height {height_m!r}"
             f" m and ground speed {ground_speed_mps!r} m/s", "ground_speed_mps")
    return dwell


@dataclass(frozen=True)
class BudgetVerdict:
    feasible: bool
    margin_s: float


def latency_budget_verdict(dwell_s: float, pipeline_latency_s: float) -> BudgetVerdict:
    """Feasible iff the processing pipeline finishes within the dwell window."""
    _require_finite(dwell_s=dwell_s, pipeline_latency_s=pipeline_latency_s)
    _require(dwell_s >= 0, "must be >= 0", "dwell_s")
    _require(pipeline_latency_s >= 0, "must be >= 0", "pipeline_latency_s")
    return BudgetVerdict(feasible=pipeline_latency_s <= dwell_s,
                         margin_s=dwell_s - pipeline_latency_s)


def hover_power(aircraft: AircraftModel) -> float:
    """Ideal momentum-theory hover power for a four-rotor aircraft, watts.

    Per rotor: P = T^1.5 / sqrt(2 * rho * disk_area) with T = m*g/4;
    summed over four rotors and divided by the overall efficiency.
    """
    _require(aircraft.kind == QUAD_ROTOR,
             "hover_power applies to quad_rotor aircraft", "kind")
    thrust = aircraft.mass_kg * GRAVITY_MPS2 / 4.0
    disk_area = math.pi * (aircraft.motor.prop_diameter_m / 2.0) ** 2
    per_rotor = thrust ** 1.5 / math.sqrt(2.0 * aircraft.air_density_kgpm3 * disk_area)
    total = 4.0 * per_rotor / aircraft.overall_efficiency
    limit = 4.0 * aircraft.motor.max_power_w
    if total > limit:
        raise MotorOverload(total, limit)
    return total


def fixed_wing_level_power(aircraft: AircraftModel) -> float:
    """Aerodynamic power to hold level flight for a fixed-wing aircraft, watts.

    Level-flight speed comes from the lift balance
    V = sqrt(2*m*g / (rho * S * Cl)); power is 0.5 * rho * V^3 * S * Cd
    divided by the overall efficiency.  A trend model only; absolute
    values depend strongly on the (unmodeled) propulsion matching.
    Raises ValidationError when the power is not a finite float.
    """
    _require(aircraft.kind == FIXED_WING_BIMOTOR,
             "fixed_wing_level_power applies to fixed-wing aircraft", "kind")
    rho = aircraft.air_density_kgpm3
    try:
        speed = math.sqrt(2.0 * aircraft.mass_kg * GRAVITY_MPS2
                          / (rho * aircraft.wing_area_m2 * aircraft.lift_coeff))
        power = (0.5 * rho * speed ** 3 * aircraft.wing_area_m2
                 * aircraft.drag_coeff / aircraft.overall_efficiency)
    except (OverflowError, ZeroDivisionError):
        power = math.inf
    _require(math.isfinite(power),
             f"fixed-wing level power is not finite at mass "
             f"{aircraft.mass_kg!r} kg, wing area {aircraft.wing_area_m2!r} "
             f"m^2, lift coefficient {aircraft.lift_coeff!r}, drag "
             f"coefficient {aircraft.drag_coeff!r} and efficiency "
             f"{aircraft.overall_efficiency!r}", "aircraft")
    return power


def motor_electrical_power(motor: MotorParams, torque_nm: float,
                           speed_rpm: float) -> float:
    """Electrical power of a brushed-model DC motor at a working point.

    Kt = 1/Kv (rad/s per volt); I = torque/Kt + no-load current;
    V = speed/Kv + I*R; returns V*I.  Raises MotorOverload above the
    motor's maximum power.
    """
    _require_finite(torque_nm=torque_nm, speed_rpm=speed_rpm)
    _require(torque_nm >= 0, "must be >= 0", "torque_nm")
    _require(speed_rpm >= 0, "must be >= 0", "speed_rpm")
    kv_rad = motor.kv_rpm_per_v * 2.0 * math.pi / 60.0
    current = torque_nm * kv_rad + motor.no_load_current_a
    speed_rad = speed_rpm * 2.0 * math.pi / 60.0
    voltage = speed_rad / kv_rad + current * motor.resistance_ohm
    power = voltage * current
    if power > motor.max_power_w:
        raise MotorOverload(power, motor.max_power_w)
    return power
