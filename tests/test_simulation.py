"""Discrete-event simulator against queueing-theory and rate oracles."""

import io
import csv
import math
from dataclasses import replace

import pytest

from fogscope import simulation
from fogscope.model import ValidationError
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
        metrics, packets = simulate_trace(sim, seed=5)
        (packet,) = packets
        assert 100.0 * 31 / 32 < packet.arrival_time < 100.0
        assert metrics.packets_in_flight == 1
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

    def test_packet_conservation(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.3,
                          duration_s=120.0)
        metrics, packets = simulate_trace(sim, seed=9)
        assert metrics.packets_generated == len(packets)
        assert metrics.packets_generated == (metrics.packets_local_done
                                             + metrics.packets_forwarded_done
                                             + metrics.packets_in_flight)
        in_flight = sum(1 for p in packets if p.departure_time is None)
        assert in_flight == metrics.packets_in_flight

    def test_paths_consistent_with_importance(self):
        scn = default_scenario()
        sim = SimScenario(scenario=scn, local_prob=0.4, duration_s=60.0)
        _, packets = simulate_trace(sim, seed=21)
        buf = io.StringIO()
        write_trace(buf, packets, scn.workload.packet_size)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(packets)
        for i, (p, row) in enumerate(zip(packets, rows)):
            assert row["id"] == str(i)
            assert (row["path"] == "forwarded") == p.important
            assert row["important"] == ("true" if p.important else "false")
            if p.departure_time is not None:
                assert p.departure_time >= p.arrival_time

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
        metrics, packets = simulate_trace(sim, seed=seed)
        local = [p for p in packets if not p.important]
        largest = 0
        gone = 0     # FIFO: the departed packets are a prefix
        for n, p in enumerate(local):
            while (local[gone].departure_time is not None
                   and local[gone].departure_time < p.arrival_time):
                gone += 1
            if p.arrival_time >= sim.warmup_s:
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
        _, packets = simulate_trace(
            SimScenario(scenario=s, local_prob=local_prob, duration_s=150.0),
            seed=seed)
        size, net = s.workload.packet_size, s.network
        tail = (size / (2.0 * s.cloud.proc_capability)
                + net.return_fraction * size / (2.0 * net.downlink_throughput)
                + net.base_latency)
        forwarded = [p for p in packets if p.important]
        done = [p for p in forwarded if p.departure_time is not None]
        # packets still queued or in transfer are the latest arrivals
        assert all(p.departure_time is None for p in forwarded[len(done):])
        completion = 0.0
        waited = 0
        for p in done:
            waited += p.arrival_time < completion
            completion = (max(p.arrival_time, completion)
                          + size / net.uplink_throughput)
            assert p.departure_time == completion + tail
        # both branches of the max are taken
        assert 0 < waited < len(done)


class TestTrace:
    def test_trace_rows_and_columns(self):
        sim = SimScenario(scenario=default_scenario(), local_prob=0.5,
                          duration_s=30.0)
        metrics, packets = simulate_trace(sim, seed=2)
        buf = io.StringIO()
        write_trace(buf, packets, sim.scenario.workload.packet_size)
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
