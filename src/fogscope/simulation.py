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
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import IO, TYPE_CHECKING, Optional, Sequence

from . import model
from .model import _require
from .scenario import Scenario

if TYPE_CHECKING:
    import numpy as np

_ARRIVAL, _LOCAL_DONE, _UPLINK_DONE, _SAMPLE = range(4)
_QUEUE_SAMPLES = 32
# most expected packets, arrival rate x duration: a run keeps every packet
# it generates, so an unbounded run grows until the process is killed
_MAX_ARRIVALS = 1_000_000


@dataclass(frozen=True)
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
        _require(0.0 <= self.warmup_s < self.duration_s,
                 "duration must exceed warmup (warmup >= 0)", "duration_s")
        rate = self.scenario.workload.arrival_rate
        # 0 packets/s over an infinite duration expects nan packets: admitted
        _require(not rate * self.duration_s > _MAX_ARRIVALS,
                 f"arrival rate x duration must be at most {_MAX_ARRIVALS} "
                 f"packets", "duration_s")


@dataclass(slots=True)
class Packet:
    """One generated packet; its id is its index in the trace."""

    arrival_time: float
    important: bool
    departure_time: Optional[float] = None


@dataclass(frozen=True)
class SimMetrics:
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
    _require(seed >= 0, "must be >= 0", "seed")
    rng = random.Random(seed)
    workload = sim.scenario.workload
    fog = sim.scenario.fog
    net = sim.scenario.network
    cloud = sim.scenario.cloud

    size = workload.packet_size
    # fixed per-packet tail after the uplink: cloud processing plus the
    # returned-fraction downlink, mirroring the analytic latency terms
    tail = (size / (2.0 * cloud.proc_capability)
            + net.return_fraction * size / (2.0 * net.downlink_throughput)
            + net.base_latency)

    duration = sim.duration_s
    warmup = sim.warmup_s
    window = duration - warmup

    # (time, seq, kind); seq breaks ties in push order, and a sorted list
    # is a heap
    events = [(duration * i / _QUEUE_SAMPLES, i, _SAMPLE)
              for i in range(1, _QUEUE_SAMPLES + 1)]
    seq = itertools.count(_QUEUE_SAMPLES + 1)

    def serve(now: float) -> None:
        heappush(events, (now + rng.expovariate(fog.proc_capability),
                          next(seq), _LOCAL_DONE))

    def transfer(now: float) -> None:
        seconds = size / net.uplink_throughput
        if net.noise_sigma > 0:
            seconds *= model.sample_latency_noise(rng, net.noise_sigma)
        heappush(events, (now + seconds, next(seq), _UPLINK_DONE))

    if workload.arrival_rate > 0:
        heappush(events, (rng.expovariate(workload.arrival_rate), next(seq),
                          _ARRIVAL))

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
    local_done = 0
    forwarded_done = 0

    while events:
        now, _, kind = heappop(events)
        if now > duration:
            break

        if kind == _ARRIVAL:
            packet = Packet(now, rng.random() >= sim.local_prob)
            packets.append(packet)
            if packet.important:
                uplink.append(packet)
                if len(uplink) == 1:
                    transfer(now)
            else:
                local.append(packet)
                if now >= warmup:
                    local_queue_max = max(local_queue_max, len(local))
                if len(local) == 1:
                    busy_since = now
                    serve(now)
            heappush(events, (now + rng.expovariate(workload.arrival_rate),
                              next(seq), _ARRIVAL))

        elif kind == _LOCAL_DONE:
            packet = local.popleft()
            packet.departure_time = now
            local_done += 1
            if packet.arrival_time >= warmup:
                sojourn_sum += now - packet.arrival_time
                sojourn_count += 1
            busy_time += max(0.0, now - max(busy_since, warmup))
            if local:
                busy_since = now
                serve(now)

        elif kind == _UPLINK_DONE:
            packet = uplink.popleft()
            packet.departure_time = now + tail
            forwarded_done += 1
            if now > warmup:
                uplink_bits_window += size
            if packet.arrival_time >= warmup:
                forward_sum += packet.departure_time - packet.arrival_time
                forward_count += 1
            if uplink:
                transfer(now)

        else:  # _SAMPLE
            queue_samples.append(len(local))

    if local:
        busy_time += max(0.0, duration - max(busy_since, warmup))

    mean_power = fog.idle_power
    if window > 0:
        mean_power += (fog.energy_per_bit * size * fog.proc_capability
                       * busy_time / window)
        if sim.scenario.modification1_enabled:
            mean_power += fog.tx_energy_per_bit * uplink_bits_window / window

    half = queue_samples[len(queue_samples) // 2:]
    unstable = (len(half) >= 2
                and all(b >= a for a, b in zip(half, half[1:]))
                and half[-1] > half[0])

    metrics = SimMetrics(
        mean_local_sojourn_s=(sojourn_sum / sojourn_count
                              if sojourn_count else 0.0),
        mean_forward_latency_s=(forward_sum / forward_count
                                if forward_count else 0.0),
        empirical_uplink_throughput_bps=(uplink_bits_window / window
                                         if window > 0 else 0.0),
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

@dataclass(frozen=True)
class TrendRow:
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


@dataclass(frozen=True)
class TrendComparison:
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
    scn = sim.scenario
    analytic = model.evaluate(scn, np.array(r_grid, dtype=float))
    rows = []
    for i, (r, _, throughput, power, fog_lat, cloud_lat, avg_lat, feasible) \
            in enumerate(zip(r_grid, *(c.tolist() for c in analytic))):
        run = SimScenario(scenario=scn, local_prob=r, duration_s=sim.duration_s,
                          warmup_s=sim.warmup_s)
        metrics = simulate(run, seed + i)
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
    if len(rows) < 2:
        rho = float("nan")
    else:
        empirical = [model.avg_latency(row.sim_local_sojourn_s,
                                       row.sim_forward_latency_s)
                     for row in rows]
        rho = spearman([row.analytic_avg_latency_s for row in rows], empirical)
    return TrendComparison(rows=rows, spearman_avg_latency=rho)
