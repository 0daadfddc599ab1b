"""Packet-level simulation of the fog dataflow.

Arrivals are Poisson; each packet is classified important (forwarded to
the cloud through a FIFO uplink channel) or not (queued for local
processing at an exponential-service single server).  The run reproduces
the analytic model's throughput/energy/latency trends empirically; the
exponential service law makes the M/M/1 sojourn formula 1/(mu - lambda)
an independent oracle for the local queue.

Cloud processing and the returned-fraction downlink are fixed per-packet
delays (no cloud queue); the uplink serialization time is size/throughput
scaled by the mean-1 noise multiplier when noise_sigma > 0.

Both queues are FIFO single servers fed by independent Bernoulli splits
of one Poisson stream, so one pass over the packets in arrival order runs
both, each departure by Lindley's recursion D_n = max(A_n, D_{n-1}) + S_n
(Proc. Camb. Phil. Soc. 1952).  Each packet takes three ``random()``
values, its gap, class and service time, each exponential as
``-log(1 - u) / rate``; a forwarded packet on a noisy uplink then draws
its multiplier.  A queue sample at t counts the local packets with
arrival < t <= departure.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from typing import IO, TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import model, reporting
from .model import _float_array, _require, _require_finite, _require_int
from .scenario import Scenario

if TYPE_CHECKING:
    import numpy as np

_QUEUE_SAMPLES = 32
# most expected packets, arrival rate x duration: a run lists every packet
# it generates; a traced noisy run at the cap peaks at 103 MiB in 3.3 s
_MAX_ARRIVALS = 1_000_000
# per packet in arrival order: arrival, importance, departure (None in flight)
Trace = tuple[list[float], list[bool], list[Optional[float]]]


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
        # a run stops at its first arrival past the duration; none is past inf
        _require_finite(duration_s=self.duration_s, warmup_s=self.warmup_s)
        _require(0.0 <= self.warmup_s < self.duration_s,
                 "duration must exceed warmup (warmup >= 0)", "duration_s")
        _require(self.scenario.workload.arrival_rate * self.duration_s
                 <= _MAX_ARRIVALS,
                 f"arrival rate x duration must be at most {_MAX_ARRIVALS} "
                 f"packets", "duration_s")


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


def simulate_trace(sim: SimScenario, seed: int) -> tuple[SimMetrics, Trace]:
    """Like :func:`simulate` but also returns the per-packet trace; a
    packet still in flight at the duration has departure None."""
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
    samples = [duration * i / _QUEUE_SAMPLES
               for i in range(_QUEUE_SAMPLES, 0, -1)]   # latest first

    arrivals: list[float] = []
    important: list[bool] = []
    departures: list[Optional[float]] = []
    # departures of the local packets that had not left at the last
    # arrival or sample time, in FIFO order, so nondecreasing
    local: deque[float] = deque()
    now = 0.0                    # the latest arrival
    local_free = uplink_free = 0.0   # when each server ends its work so far
    busy_time = 0.0              # server busy time inside the stats window

    queue_samples: list[int] = []
    local_queue_max = 0
    # sums added left to right in FIFO order, as sum() does before Python
    # 3.12, and counts of the packets that arrived after warmup
    sojourn_sum = forward_sum = 0.0
    sojourn_count = forward_count = 0
    uplink_bits_window = 0.0
    local_done = forwarded_done = 0

    while True:
        now += -math.log(1.0 - rng.random()) / rate if rate > 0 else math.inf
        while samples and samples[-1] <= now:
            t = samples.pop()
            while local and local[0] < t:
                local.popleft()
            queue_samples.append(len(local))
        if now > duration:
            break
        forward = rng.random() >= sim.local_prob
        service = -math.log(1.0 - rng.random()) / mu
        arrivals.append(now)
        important.append(forward)
        if forward:
            seconds = size / net.uplink_throughput
            if net.noise_sigma > 0:
                seconds *= model.sample_latency_noise(rng, net.noise_sigma)
            uplink_free = max(now, uplink_free) + seconds
            departure = uplink_free + tail
            done = uplink_free <= duration
            if done:
                forwarded_done += 1
                if uplink_free > warmup:
                    uplink_bits_window += size
                if now >= warmup:
                    forward_sum += departure - now
                    forward_count += 1
        else:
            start = max(now, local_free)
            local_free = departure = start + service
            busy_time += max(0.0, min(departure, duration) - max(start, warmup))
            while local and local[0] < now:
                local.popleft()
            local.append(departure)
            if now >= warmup:
                local_queue_max = max(local_queue_max, len(local))
            done = departure <= duration
            if done:
                local_done += 1
                if now >= warmup:
                    sojourn_sum += departure - now
                    sojourn_count += 1
        departures.append(departure if done else None)

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
        packets_generated=len(arrivals),
        packets_local_done=local_done,
        packets_forwarded_done=forwarded_done,
        packets_in_flight=len(arrivals) - local_done - forwarded_done,
    )
    return metrics, (arrivals, important, departures)


TRACE_COLUMNS = ("id", "arrival_time", "important", "path", "departure_time",
                 "size_bits")
_TRACE_CLASS = {True: "true,forwarded", False: "false,local"}


def write_trace(stream: IO[str], trace: Trace, size_bits: float) -> None:
    """One CSV record per generated packet, in arrival order; in-flight
    packets get an empty departure_time.  No field needs CSV quoting: each
    is an int, a float repr or a fixed word."""
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    size = repr(size_bits)
    rows = (f"{i},{arrival!r},{_TRACE_CLASS[forward]},"
            f"{'' if departure is None else repr(departure)},{size}\n"
            for i, (arrival, forward, departure) in enumerate(zip(*trace)))
    while block := "".join(islice(rows, reporting.ROWS_PER_BLOCK)):
        stream.write(block)


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
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    # a run of c equal values ending at rank k shares k - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties; NaN when an
    input is constant or contains NaN.  Inputs that are not two nonempty
    sequences of equal length raise ValidationError."""
    import numpy as np
    x, y = _float_array(a), _float_array(b)
    _require(x.ndim == y.ndim == 1 and len(x) == len(y) > 0,
             "must be flat, nonempty and of equal length", "a, b")
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
    _require(bool(r_grid), "must be nonempty", "r_grid")
    analytic = model.evaluate(sim.scenario, r_grid)
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
