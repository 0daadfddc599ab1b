"""Analytic throughput, power, and latency models for a fog node that
splits incoming UAV traffic between local processing and a cloud uplink.

All quantities use a one-second accounting epoch: a bit-rate (bits/s)
doubles as the bit volume handled per epoch, so transfer and processing
latencies come out in seconds per epoch of data.  Workload rates are in
packets/s, packet sizes in bits, power in watts.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    import numpy as np

    from .scenario import Scenario


class ValidationError(ValueError):
    """A parameter violates its documented invariant.

    `field` names the offending field; loaders prefix it with the
    section path (e.g. ``workload.packet_size``).
    """

    def __init__(self, message: str, field: Optional[str] = None):
        self.field = field
        super().__init__(message)


class TdpExceeded(Exception):
    """Computed fog power draw above the processor's TDP bound.

    Signals an infeasible configuration rather than a crash; carries the
    computed draw so callers can rank infeasible candidates by how far
    over the limit they are.
    """

    def __init__(self, power_w: float, tdp_w: float):
        self.power_w = power_w
        self.tdp_w = tdp_w
        super().__init__(f"fog power {power_w:.6g} W exceeds TDP {tdp_w:.6g} W")


class InstabilityWarning(UserWarning):
    """Local arrival rate at or above the fog processing capability."""


def _require(condition: bool, message: str, field: str) -> None:
    if not condition:
        raise ValidationError(f"{field}: {message}", field=field)


def _require_finite(**values) -> None:
    """Every real number among ``values`` must be finite as a float; other
    values are left to the checks that follow."""
    for name, value in values.items():
        if isinstance(value, numbers.Integral):  # repr fails past 4300 digits
            _require(abs(value) <= sys.float_info.max,
                     "must be finite, got an integer beyond the float range", name)
        elif isinstance(value, numbers.Real):
            _require(math.isfinite(value), f"must be finite, got {value!r}", name)


@dataclass(frozen=True)
class WorkloadParams:
    """Traffic offered to the fog node by the UAV fleet."""

    arrival_rate: float  # packets/s
    packet_size: float   # bits/packet

    def __post_init__(self):
        _require_finite(**vars(self))
        _require(self.arrival_rate >= 0, "must be >= 0", "arrival_rate")
        _require(self.packet_size > 0, "must be > 0", "packet_size")

    @property
    def bit_rate(self) -> float:
        """Offered load in bits/s."""
        return self.arrival_rate * self.packet_size


@dataclass(frozen=True)
class FogNodeParams:
    """Compute and power characteristics of the fog (head coordinator) node."""

    proc_capability: float      # packets/s it can process
    energy_per_bit: float       # J/bit spent on locally processed data
    idle_power: float           # W drawn with no load
    tdp: float                  # W, hard upper bound on sustained draw
    # J/bit spent on uplink transmission; counted only when the scenario
    # sets modification1_enabled
    tx_energy_per_bit: float = 0.0

    def __post_init__(self):
        _require_finite(**vars(self))
        _require(self.proc_capability > 0, "must be > 0", "proc_capability")
        _require(self.energy_per_bit >= 0, "must be >= 0", "energy_per_bit")
        _require(self.idle_power >= 0, "must be >= 0", "idle_power")
        _require(self.tdp > self.idle_power, "must exceed idle_power", "tdp")
        _require(self.tx_energy_per_bit >= 0, "must be >= 0", "tx_energy_per_bit")


@dataclass(frozen=True)
class NetworkParams:
    """Fog-to-cloud link characteristics."""

    uplink_throughput: float    # bits/s fog -> cloud
    downlink_throughput: float  # bits/s cloud -> fog
    base_latency: float = 0.0   # s, additive constant (opt-in extension)
    noise_sigma: float = 0.0    # sd of the mean-1 transfer-time multiplier; 0 disables
    return_fraction: float = 0.1  # fraction of the uplinked volume sent back down

    def __post_init__(self):
        _require_finite(**vars(self))
        _require(self.uplink_throughput > 0, "must be > 0", "uplink_throughput")
        _require(self.downlink_throughput > 0, "must be > 0", "downlink_throughput")
        _require(self.base_latency >= 0, "must be >= 0", "base_latency")
        _require(self.noise_sigma >= 0, "must be >= 0", "noise_sigma")
        _require(0 <= self.return_fraction <= 1, "must be within [0, 1]",
                 "return_fraction")


@dataclass(frozen=True)
class CloudParams:
    """Cloud data-center processing capability."""

    proc_capability: float  # bits/s

    def __post_init__(self):
        _require_finite(**vars(self))
        _require(self.proc_capability > 0, "must be > 0", "proc_capability")


@dataclass(frozen=True)
class DecisionState:
    """A workload split: fraction ``r`` of arrivals accepted for fog processing.

    ``x1`` is the locally accepted rate and ``x2`` the rate forwarded to
    the cloud, both in packets/s.  Built via :meth:`from_ratio` so that
    ``x1 + x2`` equals the arrival rate exactly.  :func:`evaluate` builds
    one whose fields are numpy arrays, one entry per split.
    """

    r: float
    x1: float
    x2: float

    @classmethod
    def from_ratio(cls, workload: WorkloadParams, r: float) -> "DecisionState":
        _require(0.0 <= r <= 1.0, "must be within [0, 1]", "r")
        rate = workload.arrival_rate
        x1 = rate * r
        x2 = rate - x1
        if x1 + x2 != rate:
            # half-ulp rounding tie; resync so the split sums exactly
            x1 = rate - x2
        return cls(r=r, x1=x1, x2=x2)


@dataclass(frozen=True)
class ObjectiveVector:
    """The three jointly minimized quantities for one workload split."""

    throughput_to_cloud_bps: float
    fog_power_w: float
    avg_latency_s: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.throughput_to_cloud_bps, self.fog_power_w, self.avg_latency_s)


def throughput_to_cloud(workload: WorkloadParams, split: DecisionState) -> float:
    """Bits/s forwarded to the cloud: arrival_rate * (1 - r) * packet_size."""
    return workload.arrival_rate * (1.0 - split.r) * workload.packet_size


def _local_power(workload: WorkloadParams, fog: FogNodeParams,
                 split: DecisionState) -> float:
    """The draw of :func:`fog_energy`, TDP unchecked."""
    return (fog.energy_per_bit * workload.arrival_rate * workload.packet_size
            * split.r + fog.idle_power)


def _power_with_tx(workload: WorkloadParams, fog: FogNodeParams,
                   split: DecisionState) -> float:
    """The draw of :func:`fog_energy_with_tx`, TDP unchecked."""
    return (fog.energy_per_bit * workload.bit_rate * split.r
            + fog.tx_energy_per_bit * workload.bit_rate * (1.0 - split.r)
            + fog.idle_power)


def _within_tdp(power: float, fog: FogNodeParams) -> float:
    if power > fog.tdp:
        raise TdpExceeded(power, fog.tdp)
    return power


def fog_energy(workload: WorkloadParams, fog: FogNodeParams,
               split: DecisionState) -> float:
    """Fog power draw in watts for locally accepted traffic.

    power = energy_per_bit * arrival_rate * packet_size * r + idle_power.
    Raises TdpExceeded when the draw lands above the TDP bound.
    """
    return _within_tdp(_local_power(workload, fog, split), fog)


def fog_energy_with_tx(workload: WorkloadParams, fog: FogNodeParams,
                       split: DecisionState) -> float:
    """Fog power draw including the uplink transmission term.

    Adds tx_energy_per_bit * arrival_rate * packet_size * (1 - r) on top
    of the local-processing draw; identical to :func:`fog_energy` when
    tx_energy_per_bit is 0.
    """
    return _within_tdp(_power_with_tx(workload, fog, split), fog)


def _warn_if_unstable(fog: FogNodeParams, x1: float) -> None:
    """Warn, at the line that called the caller, when the accepted rate
    ``x1`` reaches or exceeds the fog processing capability."""
    if x1 >= fog.proc_capability:
        warnings.warn(f"accepted rate {x1:.6g} pkt/s >= fog capability "
                      f"{fog.proc_capability:.6g} pkt/s; linearized latency "
                      "is outside its stable region", InstabilityWarning,
                      stacklevel=3)


def _linear_latency(fog: FogNodeParams, split: DecisionState) -> float:
    """:func:`fog_latency_linear` without the stability check."""
    return split.x1 / fog.proc_capability


def fog_latency_linear(fog: FogNodeParams, split: DecisionState) -> float:
    """Fog latency under the stable-load linearization: x1 / proc_capability.

    Emits an InstabilityWarning (not an error) when the accepted rate
    reaches or exceeds the processing capability.
    """
    _warn_if_unstable(fog, split.x1)
    return _linear_latency(fog, split)


def fog_latency_exact(fog: FogNodeParams, split: DecisionState) -> float:
    """Exponential-growth fog latency: 2 ** (x1 / proc_capability).

    Note the zero-load baseline is 1, not 0; kept for diagnostics, the
    linear form drives the combined objective.
    """
    return 2.0 ** _linear_latency(fog, split)


def _cloud_latency(workload: WorkloadParams, network: NetworkParams,
                   cloud: CloudParams, split: DecisionState,
                   uplink_factor: float) -> float:
    """:func:`cloud_latency` with its uplink term times ``uplink_factor``."""
    offload_bits = workload.packet_size * workload.arrival_rate * (1.0 - split.r)
    return (offload_bits / (2.0 * network.uplink_throughput) * uplink_factor
            + network.return_fraction * offload_bits
            / (2.0 * network.downlink_throughput)
            + offload_bits / (2.0 * cloud.proc_capability)
            + network.base_latency)


def cloud_latency(workload: WorkloadParams, network: NetworkParams,
                  cloud: CloudParams, split: DecisionState) -> float:
    """Perceived cloud latency in seconds for the offloaded epoch volume.

    Sum of the uplink transfer, returned-fraction downlink, and cloud
    processing terms, plus the optional base latency.
    """
    return _cloud_latency(workload, network, cloud, split, 1.0)


def sample_latency_noise(rng: random.Random, sigma: float) -> float:
    """Mean-1 Gaussian transfer-time multiplier, truncated to >= 0.01 by
    resampling."""
    while True:
        f = rng.gauss(1.0, sigma)
        if f >= 0.01:
            return f


def cloud_latency_stochastic(workload: WorkloadParams, network: NetworkParams,
                             cloud: CloudParams, split: DecisionState,
                             seed: int) -> float:
    """Cloud latency with the uplink term scaled by a random multiplier.

    The multiplier is Gaussian with mean 1 and sd noise_sigma, truncated
    at 0.01 by resampling.  Deterministic given the seed; with
    noise_sigma == 0 this returns :func:`cloud_latency` exactly.
    """
    # random.Random seeds with abs(seed), so -7 would alias 7
    _require(seed >= 0, "must be >= 0", "seed")
    if network.noise_sigma == 0:
        return cloud_latency(workload, network, cloud, split)
    f = sample_latency_noise(random.Random(seed), network.noise_sigma)
    return _cloud_latency(workload, network, cloud, split, f)


def avg_latency(fog_latency_s: float, cloud_latency_s: float) -> float:
    """Arithmetic mean of the fog and cloud latencies."""
    return (fog_latency_s + cloud_latency_s) / 2.0


class Evaluation(NamedTuple):
    """Per-split objective terms: from :func:`evaluate`, one array entry per
    ``r``; from :func:`evaluate_split`, floats and a bool.  ``fog_power_w``
    is the raw draw, also where it exceeds the TDP."""

    r: np.ndarray
    throughput_bps: np.ndarray
    fog_power_w: np.ndarray
    fog_latency_s: np.ndarray
    cloud_latency_s: np.ndarray
    avg_latency_s: np.ndarray
    feasible: np.ndarray


def _row(scenario: "Scenario", split: DecisionState) -> Evaluation:
    """The :class:`Evaluation` of ``split``, elementwise when its fields are
    arrays: the raw draw, flagged against the TDP, no warning."""
    w, fog = scenario.workload, scenario.fog
    power = (_power_with_tx if scenario.modification1_enabled
             else _local_power)(w, fog, split)
    fog_lat = _linear_latency(fog, split)
    cloud_lat = cloud_latency(w, scenario.network, scenario.cloud, split)
    return Evaluation(split.r, throughput_to_cloud(w, split), power, fog_lat,
                      cloud_lat, avg_latency(fog_lat, cloud_lat),
                      power <= fog.tdp)


def evaluate(scenario: "Scenario", r: np.ndarray) -> Evaluation:
    """Evaluate every split in ``r`` in one numpy pass: the composition of
    :func:`evaluate_split` over a DecisionState of arrays, so bit-identical
    to it split by split.  Infeasible splits are flagged in ``feasible``.
    A scan may cross the fog stability boundary and warns of none."""
    import numpy as np
    r = np.asarray(r, dtype=float)
    _require(bool(np.all((r >= 0.0) & (r <= 1.0))), "must be within [0, 1]",
             "r")
    rate = scenario.workload.arrival_rate
    x1 = rate * r
    x2 = rate - x1
    # half-ulp rounding tie; resync so the split sums exactly
    x1 = np.where(x1 + x2 != rate, rate - x2, x1)
    return _row(scenario, DecisionState(r, x1, x2))


def evaluate_split(scenario: "Scenario", r: float) -> Evaluation:
    """The row of :func:`evaluate` for one split ``r``, without numpy.
    Emits an InstabilityWarning when the accepted rate reaches the fog
    capability."""
    split = DecisionState.from_ratio(scenario.workload, r)
    _warn_if_unstable(scenario.fog, split.x1)
    return _row(scenario, split)


def objectives(scenario: "Scenario", r: float) -> ObjectiveVector:
    """Throughput, fog power and average latency of the split ``r``;
    raises TdpExceeded for an infeasible split."""
    split = DecisionState.from_ratio(scenario.workload, r)
    _warn_if_unstable(scenario.fog, split.x1)
    row = _row(scenario, split)
    return ObjectiveVector(row.throughput_bps,
                           _within_tdp(row.fog_power_w, scenario.fog),
                           row.avg_latency_s)
