"""Discrete-event simulator against queueing-theory and rate oracles."""

import io
import csv
import itertools
import math
import random
from collections import deque
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogscope import simulation
from fogscope.model import ValidationError, sample_latency_noise
from fogscope.scenario import default_scenario
from fogscope.simulation import (SimScenario, simulate, simulate_trace,
                                 spearman, trend_compare, write_trace,
                                 TRACE_COLUMNS)


def with_rate(rate):
    s = default_scenario()
    return replace(s, workload=replace(s.workload, arrival_rate=rate))


class TestSimScenario:
    def test_warmup_defaults_to_ten_percent(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=200.0)
        assert sim.warmup_s == pytest.approx(20.0)

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValidationError):
            SimScenario(scenario=default_scenario(), local_prob=0.5,
                        duration_s=100.0, warmup_s=100.0)

    def test_local_prob_bounds(self):
        with pytest.raises(ValidationError):
            SimScenario(scenario=default_scenario(), local_prob=1.2,
                        duration_s=10.0)


    @pytest.mark.parametrize("kwargs, message", [
        ({"local_prob": -0.5, "duration_s": 10.0},
         "local_prob: must be within [0, 1]"),
        ({"local_prob": 0.5, "duration_s": 10.0, "warmup_s": -1.0},
         "duration_s: duration must exceed warmup (warmup >= 0)"),
        ({"local_prob": 0.5, "duration_s": 1e9},
         "duration_s: arrival rate x duration must be at most 1000000 "
         "packets"),
    ], ids=["local-prob", "warmup", "arrivals"])
    def test_error_names_its_field(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            SimScenario(scenario=default_scenario(), **kwargs)
        assert str(exc.value) == message
        assert exc.value.field == message.partition(":")[0]

    @pytest.mark.parametrize("duration, warmup, field, value", [
        (math.inf, 0.0, "duration_s", math.inf),
        (math.inf, None, "duration_s", math.inf),
        (-math.inf, 0.0, "duration_s", -math.inf),
        (math.nan, None, "duration_s", math.nan),
        (10.0, math.inf, "warmup_s", math.inf),
        (10.0, -math.inf, "warmup_s", -math.inf),
        (10.0, math.nan, "warmup_s", math.nan),
    ], ids=["duration-inf", "duration-inf-default-warmup", "duration-minus-inf",
            "duration-nan", "warmup-inf", "warmup-minus-inf", "warmup-nan"])
    def test_non_finite_duration_or_warmup_rejected(self, duration, warmup,
                                                    field, value):
        # at 0 packets/s the arrival cap admits any duration, so only the
        # finiteness check stands between an infinite duration and a run
        with pytest.raises(ValidationError) as exc:
            SimScenario(scenario=with_rate(0.0), local_prob=0.5,
                        duration_s=duration, warmup_s=warmup)
        assert str(exc.value) == f"{field}: must be finite, got {value!r}"
        assert exc.value.field == field


class TestArrivalCap:
    """A run keeps every packet it generates, so the expected packet count,
    arrival rate x duration, is an input error of SimScenario above a cap.
    Each test reads the cap first; none runs a simulation near it."""

    def test_cap_admits_the_benchmark_and_readme_runs(self):
        # perfbench simulates 3000 s and README 1000 s, both at 100 pkt/s
        assert simulation._MAX_ARRIVALS >= 100 * 3000

    def test_duration_at_the_cap_is_accepted(self):
        cap = simulation._MAX_ARRIVALS
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=cap / 100.0)
        assert sim.duration_s == cap / 100.0

    @pytest.mark.parametrize("duration", [None, 1e9], ids=["cap+1s", "1e9"])
    def test_duration_over_the_cap_is_rejected(self, duration):
        cap = simulation._MAX_ARRIVALS
        with pytest.raises(ValidationError, match=f"duration_s: .*{cap}"):
            SimScenario(scenario=default_scenario(), local_prob=0.5,
                        duration_s=duration or cap / 100.0 + 1.0)

    def test_zero_rate_admits_any_duration(self):
        sim = SimScenario(scenario=with_rate(0.0), local_prob=0.5,
                          duration_s=1e300)
        assert sim.duration_s == 1e300


class TestSimulate:
    def test_all_forwarded_throughput_matches_rate_oracle(self):
        # law of large numbers: empirical uplink rate -> arrival_rate * size
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=1000.0)
        metrics = simulate(sim, seed=101)
        assert metrics.empirical_uplink_throughput_bps \
            == pytest.approx(1.2e6, rel=0.03)
        assert metrics.packets_local_done == 0

    def test_mm1_sojourn_oracle(self):
        # arrival 50 * 0.5 = 25 pkt/s into a rate-100 exponential server:
        # mean sojourn 1/(100 - 25)
        sim = SimScenario(scenario=with_rate(50.0), local_prob=0.5,
                          duration_s=1000.0)
        metrics = simulate(sim, seed=33)
        assert metrics.mean_local_sojourn_s == pytest.approx(1.0 / 75.0,
                                                             rel=0.10)
        assert not metrics.unstable

    def test_overloaded_queue_flags_unstable(self):
        sim = SimScenario(scenario=with_rate(200.0), local_prob=1.0,
                          duration_s=300.0)
        metrics = simulate(sim, seed=7)
        assert metrics.unstable
        assert metrics.local_queue_max > 1000

    def test_queue_is_sampled_at_the_duration(self):
        # the one packet arrives after the 31st of 32 queue samples and is
        # still queued at t = duration, so only the last sample sees it:
        # the rising tail flags the run, and a schedule without that
        # sample would not
        s = with_rate(0.01)
        s = replace(s, fog=replace(s.fog, proc_capability=1e-3))
        sim = SimScenario(scenario=s, local_prob=1.0, duration_s=100.0)
        metrics, (arrivals, _, _) = simulate_trace(sim, seed=5)
        (arrival,) = arrivals
        assert 100.0 * 31 / 32 < arrival < 100.0
        assert metrics.packets_in_flight == 1
        assert metrics.unstable

    def test_departure_at_a_sample_time_is_counted(self, monkeypatch):
        # scripted draws: the one packet arrives at 31.5 s and leaves at
        # exactly 32 s, the duration and the last sample time.  A sample at
        # t counts the local packets with arrival < t <= departure, so the
        # last sample alone sees it, and a departure at the duration is a
        # completion
        ln2 = -math.log(0.5)
        draws = iter([0.5, 0.0, 0.5, 0.5])   # gap, class, service, gap
        monkeypatch.setattr(simulation, "random", SimpleNamespace(
            Random=lambda seed: SimpleNamespace(random=draws.__next__)))
        s = with_rate(ln2 / 31.5)
        s = replace(s, fog=replace(s.fog, proc_capability=2 * ln2))
        sim = SimScenario(scenario=s, local_prob=1.0, duration_s=32.0)
        metrics, trace = simulate_trace(sim, seed=0)
        assert trace == ([31.5], [False], [32.0])
        assert metrics.packets_local_done == 1
        assert metrics.unstable

    def test_zero_arrivals(self):
        s = with_rate(0.0)
        s = replace(s, fog=replace(s.fog, idle_power=0.0, tdp=1.0))
        metrics = simulate(SimScenario(scenario=s, local_prob=0.5,
                                       duration_s=100.0), seed=1)
        assert metrics.mean_local_sojourn_s == 0.0
        assert metrics.mean_forward_latency_s == 0.0
        assert metrics.empirical_uplink_throughput_bps == 0.0
        assert metrics.mean_fog_power_w == 0.0
        assert metrics.local_queue_max == 0
        assert not metrics.unstable
        assert metrics.packets_generated == 0

    def test_idle_power_floor_with_zero_traffic(self):
        metrics = simulate(SimScenario(scenario=with_rate(0.0), local_prob=0.5,
                                       duration_s=100.0), seed=1)
        assert metrics.mean_fog_power_w == default_scenario().fog.idle_power

    def test_determinism(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=80.0)
        a, pa = simulate_trace(sim, seed=5)
        b, pb = simulate_trace(sim, seed=5)
        assert a == b
        assert pa == pb
        c = simulate(sim, seed=6)
        assert c != a

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed): -1 would repeat seed 1's run
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=10.0)
        with pytest.raises(ValidationError) as exc:
            simulate_trace(sim, seed=-1)
        assert str(exc.value) == "seed: must be >= 0"
        assert simulate_trace(sim, seed=0)[0] != simulate_trace(sim, seed=1)[0]

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "x"],
                             ids=["float", "integral-float", "bool", "str"])
    def test_seed_must_be_an_integer(self, seed):
        # random.Random seeds a float by its hash: 1.0 would repeat seed 1
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=10.0)
        with pytest.raises(ValidationError) as exc:
            simulate_trace(sim, seed=seed)
        assert exc.value.field == "seed"
        assert str(exc.value) == "seed: must be an integer"

    def test_numpy_integer_seed_is_its_int(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=10.0)
        assert simulate_trace(sim, seed=np.int64(3)) == simulate_trace(sim,
                                                                       seed=3)

    def test_packet_conservation(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.3,
                          duration_s=120.0)
        metrics, (arrivals, important, departures) = simulate_trace(sim,
                                                                    seed=9)
        assert metrics.packets_generated == len(arrivals)
        assert len(important) == len(departures) == len(arrivals)
        assert metrics.packets_generated == (metrics.packets_local_done
                                             + metrics.packets_forwarded_done
                                             + metrics.packets_in_flight)
        assert departures.count(None) == metrics.packets_in_flight

    def test_paths_consistent_with_importance(self):
        scn = default_scenario()
        sim = SimScenario(scenario=scn, local_prob=0.4, duration_s=60.0)
        _, trace = simulate_trace(sim, seed=21)
        buf = io.StringIO()
        write_trace(buf, trace, scn.workload.packet_size)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(trace[0])
        for i, (arrival, important, departure, row) in enumerate(
                zip(*trace, rows)):
            assert row["id"] == str(i)
            assert (row["path"] == "forwarded") == important
            assert row["important"] == ("true" if important else "false")
            if departure is not None:
                assert departure >= arrival

    def test_mean_power_within_analytic_band(self):
        s = with_rate(50.0)
        sim = SimScenario(scenario=s, local_prob=0.5, duration_s=500.0)
        metrics = simulate(sim, seed=13)
        theta = s.fog.idle_power
        dynamic = s.fog.energy_per_bit * 50.0 * s.workload.packet_size * 0.5
        assert metrics.mean_fog_power_w >= theta
        assert metrics.mean_fog_power_w <= theta + dynamic * 1.2

    @pytest.mark.parametrize("rate, local_prob, seed, duration", [
        (50.0, 0.5, 33, 200.0),
        (150.0, 0.6, 34, 100.0),
        (200.0, 0.55, 35, 60.0),
        (0.5, 0.5, 36, 400.0),     # no queueing: each finds an idle server
    ])
    def test_local_queue_max_counts_local_packets_in_the_system(
            self, rate, local_prob, seed, duration):
        sim = SimScenario(scenario=with_rate(rate), local_prob=local_prob,
                          duration_s=duration)
        metrics, trace = simulate_trace(sim, seed=seed)
        local = [(arrival, departure) for arrival, important, departure
                 in zip(*trace) if not important]
        largest = 0
        gone = 0     # FIFO: the departed packets are a prefix
        for n, (arrival, _) in enumerate(local):
            while (local[gone][1] is not None
                   and local[gone][1] < arrival):
                gone += 1
            if arrival >= sim.warmup_s:
                largest = max(largest, n + 1 - gone)
        assert largest > 0
        assert metrics.local_queue_max == largest

    def test_stable_queue_bounded_over_doubling_durations(self):
        s = with_rate(50.0)
        maxima = []
        for duration in (250.0, 500.0, 1000.0):
            sim = SimScenario(scenario=s, local_prob=0.5, duration_s=duration)
            maxima.append(simulate(sim, seed=4).local_queue_max)
        # sub-linear growth of the max; far from the doubling of an
        # unstable queue
        assert maxima[-1] < 4 * max(maxima[0], 4)

    def test_modification1_adds_tx_power(self):
        s = default_scenario()
        s_tx = replace(s, fog=replace(s.fog, tx_energy_per_bit=2e-8),
                       modification1_enabled=True)
        sim = SimScenario(scenario=s_tx, local_prob=0.5, duration_s=400.0)
        base_sim = SimScenario(scenario=s, local_prob=0.5, duration_s=400.0)
        with_tx = simulate(sim, seed=11).mean_fog_power_w
        without_tx = simulate(base_sim, seed=11).mean_fog_power_w
        expected_extra = 2e-8 * 0.5 * s.workload.bit_rate
        assert with_tx - without_tx == pytest.approx(expected_extra, rel=0.15)


class TestLindleyOracle:
    """The uplink is a FIFO single server, so with noise_sigma = 0 each
    forwarded packet follows Lindley's recursion C_n = max(A_n, C_{n-1})
    + size / uplink and departs at C_n plus the fixed cloud/downlink tail,
    bit for bit when the recursion keeps the event loop's operation
    order."""

    @pytest.mark.parametrize("rate, base_latency, local_prob, seed", [
        (80.0, 0.0, 0.2, 41),
        (100.0, 0.1, 0.3, 42),
        (115.0, 0.3, 0.0, 43),
        (130.0, 0.05, 0.5, 44),
    ])
    def test_forwarded_departures_follow_the_recursion(
            self, rate, base_latency, local_prob, seed):
        s = with_rate(rate)
        s = replace(s, network=replace(s.network, base_latency=base_latency))
        assert s.network.noise_sigma == 0.0
        _, trace = simulate_trace(
            SimScenario(scenario=s, local_prob=local_prob, duration_s=150.0),
            seed=seed)
        size, net = s.workload.packet_size, s.network
        tail = (size / (2.0 * s.cloud.proc_capability)
                + net.return_fraction * size / (2.0 * net.downlink_throughput)
                + net.base_latency)
        forwarded = [(arrival, departure) for arrival, important, departure
                     in zip(*trace) if important]
        done = [p for p in forwarded if p[1] is not None]
        # packets still queued or in transfer are the latest arrivals
        assert all(departure is None for _, departure in forwarded[len(done):])
        completion = 0.0
        waited = 0
        for arrival, departure in done:
            waited += arrival < completion
            completion = (max(arrival, completion)
                          + size / net.uplink_throughput)
            assert departure == completion + tail
        # both branches of the max are taken
        assert 0 < waited < len(done)


def event_loop(sim, seed):
    """The event loop that simulate_trace replaced, kept as its reference.

    Each source keeps its pending event as (time, seq): seq counts
    scheduled events, so a tie goes to the earlier one, and an idle source
    waits at inf.  The queue is sampled just before the first event at or
    after each sample time.  Each packet draws its class, its service time
    and, forwarded on a noisy uplink, its noise multiplier at its arrival,
    and then the next gap, which is the recursion's per-packet layout."""
    rng = random.Random(seed)
    scn = sim.scenario
    rate, mu = scn.workload.arrival_rate, scn.fog.proc_capability
    net, size = scn.network, scn.workload.packet_size
    tail = (size / (2.0 * scn.cloud.proc_capability)
            + net.return_fraction * size / (2.0 * net.downlink_throughput)
            + net.base_latency)
    duration, warmup = sim.duration_s, sim.warmup_s
    window = duration - warmup

    def expo(rate):
        return -math.log(1.0 - rng.random()) / rate

    seq = itertools.count()
    idle = (math.inf, 0)
    samples = [duration * i / simulation._QUEUE_SAMPLES
               for i in range(simulation._QUEUE_SAMPLES, 0, -1)]
    arrival = local_done_at = uplink_done_at = idle
    if rate > 0:
        arrival = expo(rate), next(seq)

    packets = []      # [arrival time, important, seconds, departure time]
    local, uplink = deque(), deque()
    busy_since = busy_time = 0.0
    queue_samples, local_queue_max = [], 0
    sojourn_sum = forward_sum = uplink_bits_window = 0.0
    sojourn_count = forward_count = local_done = forwarded_done = 0

    while True:
        event = min(arrival, local_done_at, uplink_done_at)
        now = event[0]
        while samples and samples[-1] <= now:
            samples.pop()
            queue_samples.append(len(local))
        if now > duration:
            break

        if event is arrival:
            important = rng.random() >= sim.local_prob
            packet = [now, important, expo(mu), None]
            packets.append(packet)
            if important:
                packet[2] = size / net.uplink_throughput
                if net.noise_sigma > 0:
                    packet[2] *= sample_latency_noise(rng, net.noise_sigma)
                uplink.append(packet)
                if len(uplink) == 1:
                    uplink_done_at = now + packet[2], next(seq)
            else:
                local.append(packet)
                if now >= warmup:
                    local_queue_max = max(local_queue_max, len(local))
                if len(local) == 1:
                    busy_since = now
                    local_done_at = now + packet[2], next(seq)
            arrival = now + expo(rate), next(seq)

        elif event is local_done_at:
            packet = local.popleft()
            packet[3] = now
            local_done += 1
            if packet[0] >= warmup:
                sojourn_sum += now - packet[0]
                sojourn_count += 1
            busy_time += max(0.0, now - max(busy_since, warmup))
            busy_since = now
            local_done_at = (now + local[0][2], next(seq)) if local else idle

        else:
            packet = uplink.popleft()
            packet[3] = now + tail
            forwarded_done += 1
            if now > warmup:
                uplink_bits_window += size
            if packet[0] >= warmup:
                forward_sum += packet[3] - packet[0]
                forward_count += 1
            uplink_done_at = (now + uplink[0][2], next(seq)) if uplink else idle

    if local:
        busy_time += max(0.0, duration - max(busy_since, warmup))
    fog = scn.fog
    mean_power = (fog.idle_power
                  + fog.energy_per_bit * size * mu * busy_time / window)
    if scn.modification1_enabled:
        mean_power += fog.tx_energy_per_bit * uplink_bits_window / window
    half = queue_samples[len(queue_samples) // 2:]
    metrics = simulation.SimMetrics(
        mean_local_sojourn_s=(sojourn_sum / sojourn_count
                              if sojourn_count else 0.0),
        mean_forward_latency_s=(forward_sum / forward_count
                                if forward_count else 0.0),
        empirical_uplink_throughput_bps=uplink_bits_window / window,
        mean_fog_power_w=mean_power,
        local_queue_max=local_queue_max,
        unstable=(half[-1] > half[0]
                  and all(b >= a for a, b in zip(half, half[1:]))),
        packets_generated=len(packets),
        packets_local_done=local_done,
        packets_forwarded_done=forwarded_done,
        packets_in_flight=len(local) + len(uplink),
    )
    trace = tuple(list(column) for column in zip(*packets)) or ([], [], [], [])
    return metrics, (trace[0], trace[1], trace[3])


def exact(values):
    """Floats as their hex, so that -0.0 and 0.0 differ too."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestEventLoopReference:
    """The recursion gives the event loop's run, field for field and
    packet for packet, on the same per-packet draws."""

    @settings(max_examples=80, deadline=None)
    @given(rate=st.sampled_from([0.0, 0.5]) | st.floats(1.0, 300.0),
           mu=st.floats(1.0, 300.0),
           uplink=st.floats(1e5, 5e6),
           local_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           noise_sigma=st.sampled_from([0.0, 0.3]) | st.floats(0.0, 2.0),
           tx=st.booleans(),
           duration=st.floats(0.5, 20.0),
           warmup_share=st.sampled_from([0.0]) | st.floats(0.0, 0.95),
           seed=st.integers(0, 2**64))
    # rho = 100 / 50 at the fog and 100 x 12000 / 1e6 at the uplink
    @example(rate=200.0, mu=50.0, uplink=1e6, local_prob=0.5, noise_sigma=0.0,
             tx=True, duration=20.0, warmup_share=0.1, seed=1)
    # rho = 1 at the fog, every packet local, statistics from t = 0
    @example(rate=100.0, mu=100.0, uplink=1.5e6, local_prob=1.0,
             noise_sigma=0.0, tx=False, duration=20.0, warmup_share=0.0,
             seed=2)
    # rho = 150 x 12000 / 1.5e6 at a noisy uplink, every packet forwarded
    @example(rate=150.0, mu=100.0, uplink=1.5e6, local_prob=0.0,
             noise_sigma=0.3, tx=True, duration=20.0, warmup_share=0.0,
             seed=3)
    def test_same_run_as_the_event_loop(self, rate, mu, uplink, local_prob,
                                        noise_sigma, tx, duration,
                                        warmup_share, seed):
        s = default_scenario()
        s = replace(
            s, workload=replace(s.workload, arrival_rate=rate),
            fog=replace(s.fog, proc_capability=mu, tx_energy_per_bit=2e-8),
            network=replace(s.network, uplink_throughput=uplink,
                            noise_sigma=noise_sigma, base_latency=0.05),
            modification1_enabled=tx)
        sim = SimScenario(scenario=s, local_prob=local_prob,
                          duration_s=duration,
                          warmup_s=warmup_share * duration)
        metrics, (arrivals, important, departures) = simulate_trace(sim, seed)
        expected, (ref_arrivals, ref_important, ref_departures) = \
            event_loop(sim, seed)
        assert exact(astuple(metrics)) == exact(astuple(expected))
        assert exact(arrivals) == exact(ref_arrivals)
        assert important == ref_important
        assert exact(departures) == exact(ref_departures)


class TestTrace:
    def test_trace_rows_and_columns(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=30.0)
        metrics, trace = simulate_trace(sim, seed=2)
        buf = io.StringIO()
        write_trace(buf, trace, sim.scenario.workload.packet_size)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) - 1 == metrics.packets_generated
        first = rows[1]
        assert first[2] in ("true", "false")
        assert first[3] in ("local", "forwarded")
        assert first[5] == repr(sim.scenario.workload.packet_size)


class TestTrendCompare:
    def test_monotone_latency_correlation(self):
        sim = SimScenario(scenario=with_rate(80.0), local_prob=0.0,
                          duration_s=400.0)
        cmp = trend_compare(sim, [0.0, 0.2, 0.4, 0.6, 0.8], seed=50)
        assert cmp.spearman_avg_latency >= 0.95
        # the fog-side pairing is monotone as well in the stable region
        analytic = [row.analytic_fog_latency_s for row in cmp.rows]
        empirical = [row.sim_local_sojourn_s for row in cmp.rows]
        from scipy import stats
        assert stats.spearmanr(analytic, empirical).statistic >= 0.95

    def test_throughput_tracks_rate_oracle_per_row(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=1000.0)
        cmp = trend_compare(sim, [0.0, 0.25, 0.5, 0.75], seed=60)
        for row in cmp.rows:
            assert row.sim_uplink_throughput_bps \
                == pytest.approx(row.analytic_throughput_bps, rel=0.05)

    def test_single_row_grid(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=50.0)
        cmp = trend_compare(sim, [0.0], seed=1)
        assert len(cmp.rows) == 1
        assert cmp.rows[0].r == 0.0
        assert math.isnan(cmp.spearman_avg_latency)

    def test_infeasible_split_gives_a_flagged_row(self):
        s = default_scenario()
        scn = replace(s, fog=replace(s.fog, tdp=2.0607))
        sim = SimScenario(scenario=scn, local_prob=0.0, duration_s=50.0)
        cmp = trend_compare(sim, [0.25, 0.75], seed=3)
        feasible, infeasible = cmp.rows
        assert feasible.analytic_feasible
        assert feasible.analytic_fog_power_w <= 2.0607
        assert not infeasible.analytic_feasible
        assert infeasible.analytic_fog_power_w > 2.0607
        assert infeasible.r == 0.75

    def test_negative_seed_rejected(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=10.0)
        with pytest.raises(ValidationError, match="^seed: must be >= 0$"):
            trend_compare(sim, [0.25, 0.75], seed=-1)

    def test_empty_grid_rejected(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=50.0)
        with pytest.raises(ValidationError) as exc:
            trend_compare(sim, [], seed=1)
        assert str(exc.value) == "r_grid: must be nonempty"
        assert exc.value.field == "r_grid"

    @pytest.mark.parametrize("r_grid", [["x"], [0.1, [0.2]], [10**400]],
                             ids=["string", "nested", "huge-int"])
    def test_grid_that_is_no_float_array_rejected(self, r_grid):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.0,
                          duration_s=50.0)
        with pytest.raises(ValidationError,
                           match=r"^r: must be within \[0, 1\]$") as exc:
            trend_compare(sim, r_grid, seed=1)
        assert exc.value.field == "r"


class TestSpearman:
    """The numpy average-rank Spearman against scipy as the oracle."""

    CASES = {
        "untied": ([0.3, 1.2, -4.0, 2.5, 0.0, 9.1], [1.0, 0.5, 0.2, 3.0, -1.0, 2.0]),
        "tied": ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.5],
                 [4.0, 4.0, 1.0, 1.0, 2.0, 7.0, 7.0]),
        "monotone": ([0.1, 0.2, 0.4, 0.8], [1.0, 3.0, 9.0, 27.0]),
        "reversed": ([1.0, 2.0, 3.0], [3.0, 2.0, 2.0]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_scipy(self, name):
        stats = pytest.importorskip("scipy.stats")
        a, b = self.CASES[name]
        assert spearman(a, b) == stats.spearmanr(a, b).statistic

    def test_equals_scipy_on_random_ties(self):
        import random
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(11)
        for n in (2, 3, 10, 57):
            a = [rng.randint(0, 5) * 0.5 for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            if len(set(a)) > 1:
                assert spearman(a, b) == stats.spearmanr(a, b).statistic

    def test_constant_input_is_nan_like_scipy(self):
        import math
        import warnings
        stats = pytest.importorskip("scipy.stats")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = stats.spearmanr([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]).statistic
        assert math.isnan(expected)
        assert math.isnan(spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_nan_input_propagates_like_scipy(self):
        import math
        stats = pytest.importorskip("scipy.stats")
        a, b = [1.0, float("nan"), 3.0, 4.0], [1.0, 2.0, 3.0, 5.0]
        assert math.isnan(stats.spearmanr(a, b).statistic)
        assert math.isnan(spearman(a, b))
        assert math.isnan(spearman(b, a))

    @pytest.mark.parametrize("a, b", [
        ([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0], [1.0, 2.0]), ([], [1.0]),
        ([], []), (1.0, 2.0), ([[1.0, 2.0]], [[2.0, 1.0]]),
        (["x", 1.0, 2.0], [3.0, 1.0, 2.0]), ([[], 1.0, 2.0], [3.0, 1.0, 2.0]),
        ([1j, 1.0, 2.0], [3.0, 1.0, 2.0]), ([{}, 1.0, 2.0], [3.0, 1.0, 2.0]),
        ([3.0, 1.0, 2.0], [10**400, 1.0, 2.0])])
    def test_unequal_empty_or_nested_input_is_a_named_error(self, a, b):
        with pytest.raises(ValidationError) as exc:
            spearman(a, b)
        assert str(exc.value) == \
            "a, b: must be flat, nonempty and of equal length"
        assert exc.value.field == "a, b"

    def test_one_value_is_nan_as_a_constant_input(self):
        import math
        assert math.isnan(spearman([1.5], [2.5]))


def run_bound_average_ranks(values):
    """Average ranks from one stable sort and the bounds of each run of
    equal values in it: the reference for `simulation._average_ranks`."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0,
                             np.diff(bounds))
    return ranks


@settings(max_examples=300)
@given(st.lists(st.sampled_from([-math.inf, -1e308, -1.0, -0.0, 0.0, 0.5,
                                 1e308, math.inf])
                | st.floats(-2.0, 2.0), min_size=1, max_size=80))
@example([0.0, -0.0, 0.0, -0.0])
@example([math.inf, 1e308, -math.inf, 1e308, math.inf, -1e308])
def test_average_ranks_equal_the_run_bound_reference(values):
    values = np.array(values)
    assert simulation._average_ranks(values).tobytes() == \
        run_bound_average_ranks(values).tobytes()
