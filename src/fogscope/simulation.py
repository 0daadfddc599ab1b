"""Packet-level discrete-event simulation of the fog dataflow.

Arrivals are Poisson; each packet is classified important (forwarded to
the cloud through a FIFO uplink channel) or not (queued for local
processing at an exponential-service single server).  The run reproduces
the analytic model's throughput/energy/latency trends empirically; the
exponential service law makes the M/M/1 sojourn formula 1/(mu - lambda)
an independent oracle for the local queue.

Cloud processing and the returned-fraction downlink are fixed per-packet
delays (no cloud queue); the uplink serialization time is size/throughput
scaled by the mean-1 noise multiplier when noise_sigma > 0.

Both queues are FIFO single servers, so the packet in service is always
the head of its queue and stays there until it completes.  A queue is
busy exactly when it is non-empty, its length counts the packet in
service, and a completion event pops the head.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import IO, TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import model
from .model import _require, _require_finite, _require_int
from .scenario import Scenario

if TYPE_CHECKING:
    import numpy as np

_QUEUE_SAMPLES = 32
# most expected packets, arrival rate x duration: a run keeps every packet
# it generates, so an unbounded run grows until the process is killed
_MAX_ARRIVALS = 1_000_000


@dataclass(frozen=True, eq=False, repr=False)
class SimScenario:
    """One simulation setup; warmup defaults to 10% of the duration."""

    scenario: Scenario
    local_prob: float
    duration_s: float
    warmup_s: Optional[float] = None

    def __post_init__(self):
        _require(0.0 <= self.local_prob <= 1.0, "must be within [0, 1]",
                 "local_prob")
        if self.warmup_s is None:
            object.__setattr__(self, "warmup_s", 0.1 * self.duration_s)
        # a run stops at its first event past the duration; none is past inf
        _require_finite(duration_s=self.duration_s, warmup_s=self.warmup_s)
        _require(0.0 <= self.warmup_s < self.duration_s,
                 "duration must exceed warmup (warmup >= 0)", "duration_s")
        _require(self.scenario.workload.arrival_rate * self.duration_s
                 <= _MAX_ARRIVALS,
                 f"arrival rate x duration must be at most {_MAX_ARRIVALS} "
                 f"packets", "duration_s")


@dataclass(slots=True)
class Packet:
    """One generated packet; its id is its index in the trace."""

    arrival_time: float
    important: bool
    departure_time: Optional[float] = None


@dataclass(frozen=True, repr=False)
class SimMetrics:
    """What one simulation run measured."""

    mean_local_sojourn_s: float
    mean_forward_latency_s: float
    empirical_uplink_throughput_bps: float
    mean_fog_power_w: float
    local_queue_max: int
    unstable: bool
    packets_generated: int
    packets_local_done: int
    packets_forwarded_done: int
    packets_in_flight: int


def simulate(sim: SimScenario, seed: int) -> SimMetrics:
    """Run one seeded simulation; deterministic given (sim, seed)."""
    metrics, _ = simulate_trace(sim, seed)
    return metrics


def simulate_trace(sim: SimScenario, seed: int) -> tuple[SimMetrics, list[Packet]]:
    """Like :func:`simulate` but also returns the per-packet trace."""
    # random.Random seeds with abs(seed): -1 would repeat seed 1's run
    rng = random.Random(_require_int(seed, "seed", 0))
    workload = sim.scenario.workload
    fog = sim.scenario.fog
    rate, mu = workload.arrival_rate, fog.proc_capability
    net = sim.scenario.network

    size = workload.packet_size
    # fixed per-packet tail after the uplink: cloud processing plus the
    # returned-fraction downlink, mirroring the analytic latency terms
    tail = (size / (2.0 * sim.scenario.cloud.proc_capability)
            + net.return_fraction * size / (2.0 * net.downlink_throughput)
            + net.base_latency)

    duration, warmup = sim.duration_s, sim.warmup_s
    window = duration - warmup

    # The pending event of each source as (time, seq): seq counts scheduled
    # events, so a tie goes to the earlier one, and an idle source waits at
    # inf.  The queue is sampled just before the first event at or after
    # each sample time; `samples` holds those times latest first.
    seq = itertools.count()
    idle = (math.inf, 0)
    samples = [duration * i / _QUEUE_SAMPLES
               for i in range(_QUEUE_SAMPLES, 0, -1)]

    def transfer(now: float) -> tuple[float, int]:
        seconds = size / net.uplink_throughput
        if net.noise_sigma > 0:
            seconds *= model.sample_latency_noise(rng, net.noise_sigma)
        return now + seconds, next(seq)

    arrival = local_done_at = uplink_done_at = idle
    if rate > 0:
        arrival = rng.expovariate(rate), next(seq)

    packets: list[Packet] = []
    local: deque[Packet] = deque()
    uplink: deque[Packet] = deque()
    busy_since = 0.0         # start of the local head's service
    busy_time = 0.0          # server busy time inside the stats window

    queue_samples: list[int] = []
    local_queue_max = 0
    # sums added left to right, as sum() does before Python 3.12, and
    # counts of the packets that arrived after warmup
    sojourn_sum = forward_sum = 0.0
    sojourn_count = forward_count = 0
    uplink_bits_window = 0.0
    local_done = forwarded_done = 0

    while True:
        event = min(arrival, local_done_at, uplink_done_at)
        now = event[0]
        while samples and samples[-1] <= now:
            samples.pop()
            queue_samples.append(len(local))
        if now > duration:
            break

        if event is arrival:
            packet = Packet(now, rng.random() >= sim.local_prob)
            packets.append(packet)
            if packet.important:
                uplink.append(packet)
                if len(uplink) == 1:
                    uplink_done_at = transfer(now)
            else:
                local.append(packet)
                if now >= warmup:
                    local_queue_max = max(local_queue_max, len(local))
                if len(local) == 1:
                    busy_since = now
                    local_done_at = now + rng.expovariate(mu), next(seq)
            arrival = now + rng.expovariate(rate), next(seq)

        elif event is local_done_at:
            packet = local.popleft()
            packet.departure_time = now
            local_done += 1
            if packet.arrival_time >= warmup:
                sojourn_sum += now - packet.arrival_time
                sojourn_count += 1
            busy_time += max(0.0, now - max(busy_since, warmup))
            busy_since = now
            local_done_at = ((now + rng.expovariate(mu), next(seq)) if local
                             else idle)

        else:
            packet = uplink.popleft()
            packet.departure_time = now + tail
            forwarded_done += 1
            if now > warmup:
                uplink_bits_window += size
            if packet.arrival_time >= warmup:
                forward_sum += packet.departure_time - packet.arrival_time
                forward_count += 1
            uplink_done_at = transfer(now) if uplink else idle

    if local:
        busy_time += max(0.0, duration - max(busy_since, warmup))

    # warmup < duration, both finite, so the window is positive
    mean_power = fog.idle_power + fog.energy_per_bit * size * mu * busy_time / window
    if sim.scenario.modification1_enabled:
        mean_power += fog.tx_energy_per_bit * uplink_bits_window / window

    half = queue_samples[len(queue_samples) // 2:]
    # every run takes the first sample, so half is never empty
    unstable = (half[-1] > half[0]
                and all(b >= a for a, b in zip(half, half[1:])))

    metrics = SimMetrics(
        mean_local_sojourn_s=(sojourn_sum / sojourn_count
                              if sojourn_count else 0.0),
        mean_forward_latency_s=(forward_sum / forward_count
                                if forward_count else 0.0),
        empirical_uplink_throughput_bps=uplink_bits_window / window,
        mean_fog_power_w=mean_power,
        local_queue_max=local_queue_max,
        unstable=unstable,
        packets_generated=len(packets),
        packets_local_done=local_done,
        packets_forwarded_done=forwarded_done,
        packets_in_flight=len(local) + len(uplink),
    )
    return metrics, packets


TRACE_COLUMNS = ("id", "arrival_time", "important", "path", "departure_time",
                 "size_bits")
_TRACE_CLASS = {True: "true,forwarded", False: "false,local"}


def write_trace(stream: IO[str], packets: list[Packet],
                size_bits: float) -> None:
    """One CSV record per generated packet, in arrival order; in-flight
    packets get an empty departure_time.  No field needs CSV quoting: each
    is an int, a float repr or a fixed word."""
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    size = repr(size_bits)
    for i, p in enumerate(packets):
        departure = repr(p.departure_time) if p.departure_time is not None else ""
        stream.write(f"{i},{p.arrival_time!r},{_TRACE_CLASS[p.important]},"
                     f"{departure},{size}\n")


# ---------------------------------------------------------------------------
# Analytic-vs-empirical trend comparison
# ---------------------------------------------------------------------------

class TrendRow(NamedTuple):
    """The model and one simulation side by side at one split ``r``."""

    r: float
    analytic_throughput_bps: float
    analytic_fog_latency_s: float
    analytic_cloud_latency_s: float
    analytic_avg_latency_s: float
    analytic_fog_power_w: float   # the raw draw, also above the TDP
    analytic_feasible: bool
    sim_local_sojourn_s: float
    sim_forward_latency_s: float
    sim_uplink_throughput_bps: float
    sim_fog_power_w: float
    sim_unstable: bool


class TrendComparison(NamedTuple):
    """Trend rows over an r-grid, with the Spearman rank correlation of the
    analytic and the simulated average latency."""

    rows: list[TrendRow]
    spearman_avg_latency: float


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    import numpy as np
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # [start, end) bounds of each run of equal values in sorted order
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0,
                             np.diff(bounds))
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties; NaN when an
    input is constant or contains NaN."""
    import numpy as np
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (np.isnan(x).any() or np.isnan(y).any()
            or (x == x[0]).all() or (y == y[0]).all()):
        return float("nan")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def trend_compare(sim: SimScenario, r_grid: list[float],
                  seed: int) -> TrendComparison:
    """Run the simulator across an r-grid and pair it with the analytic model.

    Each r reuses the scenario with local_prob = r (seeded as seed + index)
    and reports the Spearman rank correlation between the analytic average
    latency and the empirical mean of the local and forward latencies.
    A split above the TDP gives a row with ``analytic_feasible`` false.
    """
    import numpy as np
    _require(bool(r_grid), "must be nonempty", "r_grid")
    analytic = model.evaluate(sim.scenario, np.array(r_grid, dtype=float))
    rows = []
    for i, (r, _, throughput, power, fog_lat, cloud_lat, avg_lat, feasible) \
            in enumerate(zip(r_grid, *(c.tolist() for c in analytic))):
        metrics = simulate(replace(sim, local_prob=r), seed + i)
        rows.append(TrendRow(
            r=r,
            analytic_throughput_bps=throughput,
            analytic_fog_latency_s=fog_lat,
            analytic_cloud_latency_s=cloud_lat,
            analytic_avg_latency_s=avg_lat,
            analytic_fog_power_w=power,
            analytic_feasible=feasible,
            sim_local_sojourn_s=metrics.mean_local_sojourn_s,
            sim_forward_latency_s=metrics.mean_forward_latency_s,
            sim_uplink_throughput_bps=metrics.empirical_uplink_throughput_bps,
            sim_fog_power_w=metrics.mean_fog_power_w,
            sim_unstable=metrics.unstable,
        ))
    # one row is a constant input, whose correlation is NaN
    empirical = [model.avg_latency(row.sim_local_sojourn_s,
                                   row.sim_forward_latency_s) for row in rows]
    rho = spearman([row.analytic_avg_latency_s for row in rows], empirical)
    return TrendComparison(rows=rows, spearman_avg_latency=rho)
