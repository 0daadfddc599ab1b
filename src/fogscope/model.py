"""Analytic throughput, power, and latency models for a fog node that
splits incoming UAV traffic between local processing and a cloud uplink.

All quantities use a one-second accounting epoch: a bit-rate (bits/s)
doubles as the bit volume handled per epoch, so transfer and processing
latencies come out in seconds per epoch of data.  Workload rates are in
packets/s, packet sizes in bits, power in watts.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, fields
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


def _require_finite(params) -> None:
    """Every field of a parameter dataclass must be a finite number."""
    for f in fields(params):
        value = getattr(params, f.name)
        _require(math.isfinite(value), f"must be finite, got {value!r}",
                 f.name)


@dataclass(frozen=True)
class WorkloadParams:
    """Traffic offered to the fog node by the UAV fleet."""

    arrival_rate: float  # packets/s
    packet_size: float   # bits/packet

    def __post_init__(self):
        _require_finite(self)
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
        _require_finite(self)
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
        _require_finite(self)
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
        _require_finite(self)
        _require(self.proc_capability > 0, "must be > 0", "proc_capability")


@dataclass(frozen=True)
class DecisionState:
    """A workload split: fraction ``r`` of arrivals accepted for fog processing.

    ``x1`` is the locally accepted rate and ``x2`` the rate forwarded to
    the cloud, both in packets/s.  Built via :meth:`from_ratio` so that
    ``x1 + x2`` equals the arrival rate exactly.
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


def fog_energy(workload: WorkloadParams, fog: FogNodeParams,
               split: DecisionState) -> float:
    """Fog power draw in watts for locally accepted traffic.

    power = energy_per_bit * arrival_rate * packet_size * r + idle_power.
    Raises TdpExceeded when the draw lands above the TDP bound.
    """
    power = (fog.energy_per_bit * workload.arrival_rate * workload.packet_size
             * split.r + fog.idle_power)
    if power > fog.tdp:
        raise TdpExceeded(power, fog.tdp)
    return power


def fog_energy_with_tx(workload: WorkloadParams, fog: FogNodeParams,
                       split: DecisionState) -> float:
    """Fog power draw including the uplink transmission term.

    Adds tx_energy_per_bit * arrival_rate * packet_size * (1 - r) on top
    of the local-processing draw; identical to :func:`fog_energy` when
    tx_energy_per_bit is 0.
    """
    rate_bits = workload.arrival_rate * workload.packet_size
    power = (fog.energy_per_bit * rate_bits * split.r
             + fog.tx_energy_per_bit * rate_bits * (1.0 - split.r)
             + fog.idle_power)
    if power > fog.tdp:
        raise TdpExceeded(power, fog.tdp)
    return power


def fog_latency_linear(fog: FogNodeParams, split: DecisionState) -> float:
    """Fog latency under the stable-load linearization: x1 / proc_capability.

    Emits an InstabilityWarning (not an error) when the accepted rate
    reaches or exceeds the processing capability.
    """
    if split.x1 >= fog.proc_capability:
        warnings.warn(
            f"accepted rate {split.x1:.6g} pkt/s >= fog capability "
            f"{fog.proc_capability:.6g} pkt/s; linearized latency is "
            "outside its stable region",
            InstabilityWarning,
            stacklevel=2,
        )
    return split.x1 / fog.proc_capability


def fog_latency_exact(fog: FogNodeParams, split: DecisionState) -> float:
    """Exponential-growth fog latency: 2 ** (x1 / proc_capability).

    Note the zero-load baseline is 1, not 0; kept for diagnostics, the
    linear form drives the combined objective.
    """
    return 2.0 ** (split.x1 / fog.proc_capability)


def _cloud_latency_terms(workload: WorkloadParams, network: NetworkParams,
                         cloud: CloudParams,
                         split: DecisionState) -> tuple[float, float, float]:
    """(uplink, downlink, processing) latency terms for the offloaded volume."""
    offload_bits = workload.packet_size * workload.arrival_rate * (1.0 - split.r)
    uplink = offload_bits / (2.0 * network.uplink_throughput)
    downlink = (network.return_fraction * offload_bits
                / (2.0 * network.downlink_throughput))
    processing = offload_bits / (2.0 * cloud.proc_capability)
    return uplink, downlink, processing


def cloud_latency(workload: WorkloadParams, network: NetworkParams,
                  cloud: CloudParams, split: DecisionState) -> float:
    """Perceived cloud latency in seconds for the offloaded epoch volume.

    Sum of the uplink transfer, returned-fraction downlink, and cloud
    processing terms, plus the optional base latency.
    """
    uplink, downlink, processing = _cloud_latency_terms(workload, network,
                                                        cloud, split)
    return uplink + downlink + processing + network.base_latency


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
    if network.noise_sigma == 0:
        return cloud_latency(workload, network, cloud, split)
    uplink, downlink, processing = _cloud_latency_terms(workload, network,
                                                        cloud, split)
    f = sample_latency_noise(random.Random(seed), network.noise_sigma)
    return uplink * f + downlink + processing + network.base_latency


def avg_latency(fog_latency_s: float, cloud_latency_s: float) -> float:
    """Arithmetic mean of the fog and cloud latencies."""
    return (fog_latency_s + cloud_latency_s) / 2.0


class Evaluation(NamedTuple):
    """Per-split objective terms from :func:`evaluate`, one array entry per
    ``r``; ``fog_power_w`` is the raw draw, also where it exceeds the TDP."""

    r: np.ndarray
    throughput_bps: np.ndarray
    fog_power_w: np.ndarray
    fog_latency_s: np.ndarray
    cloud_latency_s: np.ndarray
    avg_latency_s: np.ndarray
    feasible: np.ndarray

    def rows(self) -> list[tuple]:
        """One tuple per split, in field order, of plain Python floats and
        bools: numpy scalars do not ``repr`` as plain floats."""
        return list(zip(*(column.tolist() for column in self)))


def evaluate(scenario: "Scenario", r: np.ndarray) -> Evaluation:
    """Evaluate every split in ``r`` in one numpy pass.

    Bit-identical to :func:`evaluate_split`, split by split: every term
    keeps its operation order.  Infeasible splits are flagged in
    ``feasible`` instead of raising TdpExceeded.  Emits one
    InstabilityWarning when any accepted rate reaches the fog capability.
    """
    import numpy as np
    r = np.asarray(r, dtype=float)
    _require(bool(np.all((r >= 0.0) & (r <= 1.0))), "must be within [0, 1]",
             "r")
    w, fog, net = scenario.workload, scenario.fog, scenario.network
    rate = w.arrival_rate
    x1 = rate * r
    x2 = rate - x1
    # half-ulp rounding tie; resync so the split sums exactly
    x1 = np.where(x1 + x2 != rate, rate - x2, x1)
    throughput = w.arrival_rate * (1.0 - r) * w.packet_size
    if scenario.modification1_enabled:
        rate_bits = w.arrival_rate * w.packet_size
        power = (fog.energy_per_bit * rate_bits * r
                 + fog.tx_energy_per_bit * rate_bits * (1.0 - r)
                 + fog.idle_power)
    else:
        power = (fog.energy_per_bit * w.arrival_rate * w.packet_size * r
                 + fog.idle_power)
    if np.any(x1 >= fog.proc_capability):
        warnings.warn(
            f"accepted rate {x1.max():.6g} pkt/s >= fog capability "
            f"{fog.proc_capability:.6g} pkt/s; linearized latency is "
            "outside its stable region",
            InstabilityWarning,
            stacklevel=2,
        )
    fog_lat = x1 / fog.proc_capability
    offload_bits = w.packet_size * w.arrival_rate * (1.0 - r)
    cloud_lat = (offload_bits / (2.0 * net.uplink_throughput)
                 + net.return_fraction * offload_bits
                 / (2.0 * net.downlink_throughput)
                 + offload_bits / (2.0 * scenario.cloud.proc_capability)
                 + net.base_latency)
    return Evaluation(r, throughput, power, fog_lat, cloud_lat,
                      (fog_lat + cloud_lat) / 2.0, ~(power > fog.tdp))


def evaluate_split(scenario: "Scenario", r: float) -> tuple:
    """The row of :func:`evaluate` for one split ``r``, composed from the
    scalar terms in plain floats, without numpy.  An infeasible split is
    flagged and carries its raw power.  Emits an InstabilityWarning when
    the accepted rate reaches the fog capability."""
    w, fog = scenario.workload, scenario.fog
    split = DecisionState.from_ratio(w, r)
    energy = fog_energy_with_tx if scenario.modification1_enabled else fog_energy
    try:
        power, feasible = energy(w, fog, split), True
    except TdpExceeded as exc:
        power, feasible = exc.power_w, False
    fog_lat = fog_latency_linear(fog, split)
    cloud_lat = cloud_latency(w, scenario.network, scenario.cloud, split)
    return (r, throughput_to_cloud(w, split), power, fog_lat, cloud_lat,
            avg_latency(fog_lat, cloud_lat), feasible)


def objectives(scenario: "Scenario", r: float) -> ObjectiveVector:
    """Throughput, fog power and average latency from
    :func:`evaluate_split`'s row; raises TdpExceeded for an infeasible
    split."""
    _, throughput, power, _, _, latency, feasible = evaluate_split(scenario, r)
    if not feasible:
        raise TdpExceeded(power, scenario.fog.tdp)
    return ObjectiveVector(throughput, power, latency)
