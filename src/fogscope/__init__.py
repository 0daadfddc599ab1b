"""Fog-cloud workload splitting feasibility toolkit for UAV fleets."""

from .reporting import TOOL_VERSION as __version__
from .model import (CloudParams, DecisionState, Evaluation, FogNodeParams,
                    InstabilityWarning, NetworkParams, ObjectiveVector,
                    TdpExceeded, ValidationError, WorkloadParams, evaluate,
                    objectives)
from .scenario import (CATALOG, ParseError, Scenario, UnknownPreset,
                       default_scenario, load_scenario, preset,
                       serialize_scenario, sweep_grid)
from .optimizer import (NoFeasibleSolution, OptConfig, OptProblem,
                        ParetoFront, brute_force_front, optimize)
from .simulation import SimMetrics, SimScenario, simulate, trend_compare
from .flight import (AircraftModel, CameraParams, MotorOverload, MotorParams,
                     ZeroSpeed, dwell_time, fixed_wing_level_power,
                     ground_coverage, hover_power, latency_budget_verdict,
                     motor_electrical_power)

__all__ = [
    "__version__",
    "CloudParams", "DecisionState", "Evaluation", "FogNodeParams",
    "InstabilityWarning", "NetworkParams", "ObjectiveVector", "TdpExceeded",
    "ValidationError", "WorkloadParams", "evaluate", "objectives",
    "CATALOG", "ParseError", "Scenario", "UnknownPreset", "default_scenario",
    "load_scenario", "preset", "serialize_scenario", "sweep_grid",
    "NoFeasibleSolution", "OptConfig", "OptProblem", "ParetoFront",
    "brute_force_front", "optimize",
    "SimMetrics", "SimScenario", "simulate", "trend_compare",
    "AircraftModel", "CameraParams", "MotorOverload", "MotorParams",
    "ZeroSpeed", "dwell_time", "fixed_wing_level_power", "ground_coverage",
    "hover_power", "latency_budget_verdict", "motor_electrical_power",
]
