"""Analytic model operations against straight-line arithmetic oracles."""

import math
import random
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogscope import model
from fogscope.model import (CloudParams, DecisionState, FogNodeParams,
                            InstabilityWarning, NetworkParams, TdpExceeded,
                            ValidationError, WorkloadParams)
from fogscope.scenario import default_scenario, parse_grid_spec, sweep_grid


# independent oracle: each formula written out once, straight-line
def oracle_throughput(delta, s, r):
    return delta * (1.0 - r) * s


def oracle_energy(gamma, delta, s, r, theta):
    return gamma * delta * s * r + theta


def oracle_energy_tx(gamma, rho, delta, s, r, theta):
    return gamma * delta * s * r + rho * delta * s * (1.0 - r) + theta


def oracle_fog_latency(delta, r, v_fog):
    return (delta * r) / v_fog


def oracle_cloud_latency(delta, s, r, t_up, t_down, eta, v_cloud, base):
    a = s * delta * (1.0 - r)
    return a / (2.0 * t_up) + eta * a / (2.0 * t_down) + a / (2.0 * v_cloud) + base


def make_split(delta, s, r):
    return DecisionState.from_ratio(WorkloadParams(delta, s), r)


class TestThroughput:
    def test_worked_example(self):
        w = WorkloadParams(100.0, 12000.0)
        assert model.throughput_to_cloud(w, make_split(100.0, 12000.0, 0.75)) \
            == 300000.0

    def test_all_local_is_zero(self):
        w = WorkloadParams(321.0, 999.0)
        assert model.throughput_to_cloud(w, make_split(321.0, 999.0, 1.0)) == 0.0

    def test_720p_floor_all_forwarded(self):
        # 1.5e6 bit/s is the minimum 720p bitrate preset
        w = WorkloadParams(125.0, 12000.0)
        assert w.bit_rate == 1.5e6
        assert model.throughput_to_cloud(w, make_split(125.0, 12000.0, 0.0)) \
            == 1.5e6

    def test_equals_packet_size_times_forwarded_rate(self):
        w = WorkloadParams(137.5, 4321.0)
        split = make_split(137.5, 4321.0, 0.615)
        assert model.throughput_to_cloud(w, split) == \
            pytest.approx(w.packet_size * split.x2, rel=1e-12)


class TestFogEnergy:
    def test_worked_example(self):
        w = WorkloadParams(100.0, 12000.0)
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_energy(w, f, make_split(100.0, 12000.0, 0.5)) \
            == pytest.approx(2.06, rel=1e-12)

    def test_no_local_work_is_idle_power(self):
        w = WorkloadParams(100.0, 12000.0)
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_energy(w, f, make_split(100.0, 12000.0, 0.0)) == 2.0

    def test_tdp_breach_raises(self):
        w = WorkloadParams(100.0, 12000.0)
        f = FogNodeParams(100.0, 1e-4, 2.0, 10.0)
        with pytest.raises(TdpExceeded) as exc:
            model.fog_energy(w, f, make_split(100.0, 12000.0, 1.0))
        assert exc.value.power_w == pytest.approx(122.0, rel=1e-12)
        assert exc.value.tdp_w == 10.0

    def test_exactly_tdp_is_allowed(self):
        w = WorkloadParams(100.0, 10000.0)
        f = FogNodeParams(100.0, 8e-6, 2.0, 10.0)  # 8 W dynamic + 2 W idle
        assert model.fog_energy(w, f, make_split(100.0, 10000.0, 1.0)) == 10.0


class TestFogEnergyWithTx:
    def test_worked_example(self):
        w = WorkloadParams(100.0, 12000.0)
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0, tx_energy_per_bit=2e-8)
        assert model.fog_energy_with_tx(w, f, make_split(100.0, 12000.0, 0.5)) \
            == pytest.approx(2.072, rel=1e-12)

    def test_zero_tx_matches_fog_energy(self):
        w = WorkloadParams(77.0, 8000.0)
        f = FogNodeParams(100.0, 3e-7, 1.5, 9.0, tx_energy_per_bit=0.0)
        for r in (0.0, 0.3, 0.72, 1.0):
            split = make_split(77.0, 8000.0, r)
            assert model.fog_energy_with_tx(w, f, split) \
                == model.fog_energy(w, f, split)

    def test_equal_rates_make_power_flat_in_r(self):
        w = WorkloadParams(100.0, 12000.0)
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0, tx_energy_per_bit=1e-7)
        expected = 1e-7 * 100.0 * 12000.0 + 2.0
        for r in (0.0, 0.5, 1.0):
            assert model.fog_energy_with_tx(w, f, make_split(100.0, 12000.0, r)) \
                == pytest.approx(expected, rel=1e-12)


class TestFogLatency:
    def test_linear_worked_example(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_latency_linear(f, make_split(100.0, 12000.0, 0.5)) == 0.5

    def test_linear_zero_load(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_latency_linear(f, make_split(100.0, 12000.0, 0.0)) == 0.0

    def test_linear_warns_when_unstable(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        with pytest.warns(InstabilityWarning):
            value = model.fog_latency_linear(f, make_split(200.0, 12000.0, 1.0))
        assert value == 2.0

    def test_exact_worked_example(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_latency_exact(f, make_split(100.0, 12000.0, 0.5)) \
            == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_exact_at_capacity_is_two(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_latency_exact(f, make_split(100.0, 12000.0, 1.0)) == 2.0

    def test_exact_at_zero_load_is_one(self):
        f = FogNodeParams(100.0, 1e-7, 2.0, 10.0)
        assert model.fog_latency_exact(f, make_split(100.0, 12000.0, 0.0)) == 1.0


class TestCloudLatency:
    def test_worked_example(self):
        w = WorkloadParams(100.0, 12000.0)
        n = NetworkParams(1.5e6, 1.5e6)
        c = CloudParams(3e6)
        assert model.cloud_latency(w, n, c, make_split(100.0, 12000.0, 0.75)) \
            == pytest.approx(0.16, rel=1e-12)

    def test_nothing_offloaded(self):
        w = WorkloadParams(100.0, 12000.0)
        n = NetworkParams(1.5e6, 1.5e6, base_latency=0.123)
        c = CloudParams(3e6)
        assert model.cloud_latency(w, n, c, make_split(100.0, 12000.0, 1.0)) \
            == 0.123

    def test_hspa_plus_uplink_term(self):
        w = WorkloadParams(100.0, 12000.0)
        n = NetworkParams(11.5e6, 1.5e6, return_fraction=0.0)
        c = CloudParams(3e6)
        split = make_split(100.0, 12000.0, 0.75)
        value = model.cloud_latency(w, n, c, split)
        uplink = 300000.0 / (2 * 11.5e6)
        assert uplink == pytest.approx(0.0130434782608696, rel=1e-12)
        assert value == pytest.approx(uplink + 300000.0 / 6e6, rel=1e-12)


class TestStochasticCloudLatency:
    def setup_method(self):
        self.w = WorkloadParams(100.0, 12000.0)
        self.c = CloudParams(3e6)
        self.split = make_split(100.0, 12000.0, 0.25)

    def test_sigma_zero_is_bit_identical(self):
        n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.0)
        det = model.cloud_latency(self.w, n, self.c, self.split)
        for seed in (0, 1, 17, 991):
            assert model.cloud_latency_stochastic(self.w, n, self.c,
                                                  self.split, seed) == det

    def test_same_seed_same_result(self):
        n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.15)
        a = model.cloud_latency_stochastic(self.w, n, self.c, self.split, 42)
        b = model.cloud_latency_stochastic(self.w, n, self.c, self.split, 42)
        assert a == b

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed): -7 would alias 7
        scn = default_scenario()
        n = replace(scn.network, noise_sigma=0.3)
        split = DecisionState.from_ratio(scn.workload, 0.5)
        with pytest.raises(ValidationError) as exc:
            model.cloud_latency_stochastic(scn.workload, n, scn.cloud, split,
                                           -7)
        assert exc.value.field == "seed"
        assert str(exc.value) == "seed: must be >= 0"

    @pytest.mark.parametrize("seed", [3.5, 7.0, True, "x"],
                             ids=["float", "integral-float", "bool", "str"])
    def test_seed_must_be_an_integer(self, seed):
        n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.15)
        with pytest.raises(ValidationError) as exc:
            model.cloud_latency_stochastic(self.w, n, self.c, self.split, seed)
        assert exc.value.field == "seed"
        assert str(exc.value) == "seed: must be an integer"

    def test_numpy_integer_seed_is_its_int(self):
        n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.15)
        assert (model.cloud_latency_stochastic(self.w, n, self.c, self.split,
                                               np.int64(42))
                == model.cloud_latency_stochastic(self.w, n, self.c,
                                                  self.split, 42))

    def test_sample_mean_tracks_deterministic_uplink(self):
        n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.15)
        det = model.cloud_latency(self.w, n, self.c, self.split)
        uplink = self.split.x2 * self.w.packet_size / (2 * n.uplink_throughput)
        fixed = det - uplink
        draws = 20000
        total = 0.0
        for seed in range(draws):
            total += model.cloud_latency_stochastic(self.w, n, self.c,
                                                    self.split, seed) - fixed
        mean = total / draws
        # 3-sigma Monte Carlo band around the deterministic term
        band = 3 * n.noise_sigma * uplink / math.sqrt(draws)
        assert abs(mean - uplink) <= band

    def test_truncation_floor(self):
        rng = random.Random(123)
        for _ in range(2000):
            assert model.sample_latency_noise(rng, 2.5) >= 0.01


class TestAvgLatency:
    def test_worked_example(self):
        assert model.avg_latency(0.5, 0.16) == pytest.approx(0.33, rel=1e-12)

    @given(st.floats(min_value=0, max_value=1e6))
    def test_idempotent_on_equal_inputs(self, x):
        assert model.avg_latency(x, x) == x

    def test_zero(self):
        assert model.avg_latency(0.0, 0.0) == 0.0


class TestObjectives:
    def test_composition_example(self):
        vec = model.objectives(default_scenario(), 0.75)
        assert vec.throughput_to_cloud_bps == 300000.0
        assert vec.fog_power_w == pytest.approx(2.09, rel=1e-12)
        assert vec.avg_latency_s == pytest.approx(0.455, rel=1e-12)

    def test_full_fog_corner(self):
        s = default_scenario()
        with pytest.warns(InstabilityWarning):
            vec = model.objectives(s, 1.0)
        assert vec.throughput_to_cloud_bps == 0.0
        assert vec.fog_power_w == pytest.approx(
            1e-7 * 100 * 12000 + 2.0, rel=1e-12)
        assert vec.avg_latency_s == pytest.approx(0.5, rel=1e-12)

    def test_full_cloud_corner(self):
        s = default_scenario()
        vec = model.objectives(s, 0.0)
        assert vec.throughput_to_cloud_bps == 1.2e6
        assert vec.fog_power_w == 2.0
        cloud = oracle_cloud_latency(100.0, 12000.0, 0.0, 1.5e6, 1.5e6, 0.1,
                                     3e6, 0.0)
        assert vec.avg_latency_s == pytest.approx(cloud / 2.0, rel=1e-12)

    def test_propagates_tdp_error(self):
        s = default_scenario()
        from dataclasses import replace
        hot = replace(s, fog=replace(s.fog, energy_per_bit=1e-4))
        with pytest.raises(TdpExceeded):
            model.objectives(hot, 1.0)

    def test_modification1_flag_switches_energy(self):
        from dataclasses import replace
        s = default_scenario()
        s = replace(s, fog=replace(s.fog, tx_energy_per_bit=2e-8))
        off = model.objectives(s, 0.5).fog_power_w
        on = model.objectives(replace(s, modification1_enabled=True),
                              0.5).fog_power_w
        assert off == pytest.approx(2.06, rel=1e-12)
        assert on == pytest.approx(2.072, rel=1e-12)


class TestValidation:
    def test_workload_invariants(self):
        with pytest.raises(ValidationError):
            WorkloadParams(-1.0, 100.0)
        with pytest.raises(ValidationError):
            WorkloadParams(1.0, 0.0)

    def test_fog_invariants(self):
        with pytest.raises(ValidationError):
            FogNodeParams(0.0, 1e-7, 2.0, 10.0)
        with pytest.raises(ValidationError):
            FogNodeParams(1.0, 1e-7, 2.0, 2.0)  # tdp must exceed idle

    def test_network_invariants(self):
        with pytest.raises(ValidationError):
            NetworkParams(0.0, 1.0)
        with pytest.raises(ValidationError):
            NetworkParams(1.0, 1.0, return_fraction=1.5)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 10 ** 5000],
                             ids=["1e400", "-1e400", "1e5000"])
    def test_int_beyond_the_float_range_rejected(self, value):
        # float() of each overflows, and the repr of 10 ** 5000 passes
        # Python's int-string limit, so the message must not show it
        with pytest.raises(ValidationError) as exc:
            WorkloadParams(value, 12000.0)
        assert str(exc.value) == ("arrival_rate: must be finite, got an "
                                  "integer beyond the float range")
        assert exc.value.field == "arrival_rate"

    def test_split_bounds(self):
        w = WorkloadParams(10.0, 100.0)
        with pytest.raises(ValidationError):
            DecisionState.from_ratio(w, 1.0001)
        with pytest.raises(ValidationError):
            DecisionState.from_ratio(w, -0.0001)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

rates = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
sizes = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(delta=rates, size=sizes, r=fractions)
def test_split_conserves_arrival_rate_exactly(delta, size, r):
    split = DecisionState.from_ratio(WorkloadParams(delta, size), r)
    assert split.x1 + split.x2 == delta
    assert split.x1 >= 0 and split.x2 >= 0


@given(delta=rates, size=sizes, r=fractions,
       gamma=st.floats(min_value=1e-12, max_value=1e-5),
       theta=st.floats(min_value=0.0, max_value=50.0))
def test_linear_energy_throughput_tradeoff(delta, size, r, gamma, theta):
    # E = gamma*s*delta - gamma*B + theta whenever the tx term is off
    w = WorkloadParams(delta, size)
    f = FogNodeParams(1.0, gamma, theta, theta + gamma * delta * size + 1.0)
    split = DecisionState.from_ratio(w, r)
    b = model.throughput_to_cloud(w, split)
    e = model.fog_energy(w, f, split)
    expected = gamma * size * delta - gamma * b + theta
    # the subtraction cancels; tolerance scales with the cancelled terms
    assert abs(e - expected) <= 1e-9 * max(1.0, gamma * size * delta)


@given(delta=st.floats(min_value=1.0, max_value=1e4),
       size=st.floats(min_value=10.0, max_value=1e5),
       r1=st.floats(min_value=0.0, max_value=0.999),
       dr=st.floats(min_value=1e-3, max_value=1.0))
def test_monotonicity_in_r(delta, size, r1, dr):
    r2 = min(1.0, r1 + dr)
    w = WorkloadParams(delta, size)
    f = FogNodeParams(2 * delta + 1.0, 1e-7, 1.0,
                      1.0 + 1e-7 * delta * size + 1.0)
    n = NetworkParams(1.5e6, 1.5e6)
    c = CloudParams(3e6)
    s1 = DecisionState.from_ratio(w, r1)
    s2 = DecisionState.from_ratio(w, r2)
    assert model.throughput_to_cloud(w, s1) > model.throughput_to_cloud(w, s2)
    assert model.fog_energy(w, f, s1) < model.fog_energy(w, f, s2)
    assert model.fog_latency_linear(f, s1) < model.fog_latency_linear(f, s2)
    assert model.fog_latency_exact(f, s1) < model.fog_latency_exact(f, s2)
    assert model.cloud_latency(w, n, c, s1) > model.cloud_latency(w, n, c, s2)


@given(delta=st.floats(min_value=1.0, max_value=1e4),
       size=st.floats(min_value=10.0, max_value=1e5),
       r=st.floats(min_value=0.0, max_value=0.999),
       factor=st.floats(min_value=1.001, max_value=100.0))
def test_uplink_upgrade_never_hurts_latency(delta, size, r, factor):
    w = WorkloadParams(delta, size)
    c = CloudParams(3e6)
    slow = NetworkParams(1e5, 1e6)
    fast = NetworkParams(1e5 * factor, 1e6)
    split = DecisionState.from_ratio(w, r)
    assert model.cloud_latency(w, fast, c, split) \
        < model.cloud_latency(w, slow, c, split)


@given(delta=st.floats(min_value=1e-3, max_value=1e4), size=sizes, r=fractions)
def test_exact_latency_is_two_to_the_linear(delta, size, r):
    import warnings as w_mod
    f = FogNodeParams(123.456, 1e-7, 1.0, 5.0)
    split = DecisionState.from_ratio(WorkloadParams(delta, size), r)
    with w_mod.catch_warnings():
        w_mod.simplefilter("ignore", InstabilityWarning)
        linear = model.fog_latency_linear(f, split)
    exact = model.fog_latency_exact(f, split)
    assert exact == 2.0 ** linear
    assert exact >= 1.0  # zero-load baseline of the exponential form


@given(delta=st.floats(min_value=1.0, max_value=1e4),
       size=st.floats(min_value=10.0, max_value=1e5),
       r=fractions,
       gamma=st.floats(min_value=1e-9, max_value=1e-5),
       rho=st.floats(min_value=0.0, max_value=1e-5))
def test_modification1_delta_is_tx_term(delta, size, r, gamma, rho):
    w = WorkloadParams(delta, size)
    cap = 2.0 + (gamma + rho) * delta * size
    f = FogNodeParams(1.0, gamma, 1.0, cap, tx_energy_per_bit=rho)
    split = DecisionState.from_ratio(w, r)
    base = model.fog_energy(w, f, split)
    with_tx = model.fog_energy_with_tx(w, f, split)
    expected = rho * delta * size * (1.0 - r)
    eps = 2.220446049250313e-16
    assert with_tx - base == pytest.approx(expected, rel=1e-9,
                                           abs=8 * eps * max(base, with_tx))


@settings(max_examples=30)
@given(r=fractions, seed=st.integers(min_value=0, max_value=2**31))
def test_stochastic_latency_deterministic_per_seed(r, seed):
    w = WorkloadParams(100.0, 12000.0)
    n = NetworkParams(1.5e6, 1.5e6, noise_sigma=0.15)
    c = CloudParams(3e6)
    split = DecisionState.from_ratio(w, r)
    a = model.cloud_latency_stochastic(w, n, c, split, seed)
    b = model.cloud_latency_stochastic(w, n, c, split, seed)
    assert a == b


# ---------------------------------------------------------------------------
# The vectorized kernel against the scalar path, compared with ==
# ---------------------------------------------------------------------------

def kernel_rows(scn, r_values):
    evaluation = model.evaluate(scn, np.asarray(r_values, dtype=float))
    return list(zip(*(column.tolist() for column in evaluation)))


def split_rows(scn, r_values):
    import warnings as w_mod
    with w_mod.catch_warnings():
        w_mod.simplefilter("ignore", InstabilityWarning)
        return [model.evaluate_split(scn, r) for r in r_values]


def assert_kernel_is_scalar_path(scn, r_values):
    """evaluate's rows are those built from the named terms, and those of
    evaluate_split; objectives agrees with them or raises TdpExceeded."""
    rows = kernel_rows(scn, r_values)
    for scalar in (term_rows(scn, r_values), split_rows(scn, r_values)):
        assert rows == scalar
        # -0.0 and 0.0 too; the scalar paths keep numpy scalars from R_GRID
        assert [[repr(float(v)) for v in row] for row in rows] \
            == [[repr(float(v)) for v in row] for row in scalar]
    for row in rows:
        if row[-1]:
            assert model.objectives(scn, row[0]).as_tuple() \
                == (row[1], row[2], row[5])
        else:
            with pytest.raises(TdpExceeded) as exc:
                model.objectives(scn, row[0])
            assert exc.value.power_w == row[2]
    return rows


def scenario_with(**changes):
    base = default_scenario()
    parts = {"workload": base.workload, "fog": base.fog,
             "network": base.network}
    for key, value in changes.items():
        section, field = key.split("__")
        parts[section] = replace(parts[section], **{field: value})
    return replace(base, **parts)


R_GRID = list(np.linspace(0.0, 1.0, 2001)) + [random.Random(3).random()
                                            for _ in range(200)]

# the members of the objective-surface families README's "Experiments"
# sweeps: network standard, fog capability, uplink rate, tx term
SURFACE_MEMBERS = [
    member for spec in ("network=gsm,umts,hspa,hspa_plus",
                        "v_fog_frac=0.25,0.5,0.75,1.0",
                        "network.uplink_throughput_bps="
                        "4e4,3.84e5,1.5e6,5.76e6,1.15e7")
    for member in sweep_grid(default_scenario(), parse_grid_spec(spec))
] + [replace(scenario_with(fog__tx_energy_per_bit=2e-8),
             modification1_enabled=True, name="tx-term")]


class TestEvaluateKernel:
    def test_r_grid_with_tx_term(self):
        scn = replace(scenario_with(fog__tx_energy_per_bit=2e-8,
                                    network__base_latency=0.05,
                                    network__return_fraction=0.137),
                      modification1_enabled=True)
        rows = assert_kernel_is_scalar_path(scn, R_GRID)
        assert all(row[-1] for row in rows)

    @pytest.mark.parametrize("scn", SURFACE_MEMBERS, ids=lambda s: s.name)
    def test_objective_surface_members(self, scn):
        rows = assert_kernel_is_scalar_path(scn, R_GRID)
        assert all(row[-1] for row in rows)

    def test_tdp_bound_feasible_mask_matches_tdp_exceeded(self):
        scn = scenario_with(fog__tdp=2.0607)
        rows = assert_kernel_is_scalar_path(scn, R_GRID)
        feasible = [row[-1] for row in rows]
        assert any(feasible) and not all(feasible)
        assert all((row[2] <= 2.0607) == row[-1] for row in rows)

    def test_zero_arrival_rate(self):
        # a base latency keeps the cloud latency apart from the fog's 0
        scn = scenario_with(workload__arrival_rate=0.0,
                            network__base_latency=0.05)
        rows = assert_kernel_is_scalar_path(scn, R_GRID)
        assert {row[1] for row in rows} == {0.0}
        assert {(row[3], row[4]) for row in rows} == {(0.0, 0.05)}

    def test_from_ratio_resync(self):
        rate, r = 12.345, 0.33019721859799855
        x1 = rate * r
        assert x1 + (rate - x1) != rate   # the half-ulp tie the resync fixes
        scn = scenario_with(workload__arrival_rate=rate)
        (row,) = assert_kernel_is_scalar_path(scn, [r])
        split = DecisionState.from_ratio(scn.workload, r)
        assert split.x1 != x1
        assert row[3] == split.x1 / scn.fog.proc_capability

    def test_power_equal_to_tdp_is_feasible(self):
        # exact binary fractions: the draw at r = 0.5 is exactly the TDP
        scn = scenario_with(workload__arrival_rate=16.0,
                            workload__packet_size=1024.0,
                            fog__energy_per_bit=2.0 ** -20,
                            fog__idle_power=1.0, fog__tdp=1.0 + 2.0 ** -7)
        rows = assert_kernel_is_scalar_path(scn, [0.25, 0.5, 0.75])
        assert [row[2] == scn.fog.tdp for row in rows] == [False, True, False]
        assert [row[-1] for row in rows] == [True, True, False]

    @settings(max_examples=60)
    @given(delta=st.floats(min_value=0.0, max_value=1e4),
           size=st.floats(min_value=1.0, max_value=1e5),
           gamma=st.floats(min_value=0.0, max_value=1e-5),
           rho=st.floats(min_value=0.0, max_value=1e-5),
           tdp=st.floats(min_value=1.01, max_value=50.0),
           tx=st.booleans(),
           r_values=st.lists(fractions, min_size=1, max_size=20))
    def test_random_scenarios(self, delta, size, gamma, rho, tdp, tx,
                              r_values):
        scn = replace(scenario_with(workload__arrival_rate=delta,
                                    workload__packet_size=size,
                                    fog__energy_per_bit=gamma,
                                    fog__tx_energy_per_bit=rho,
                                    fog__idle_power=1.0, fog__tdp=tdp),
                      modification1_enabled=tx)
        assert_kernel_is_scalar_path(scn, r_values)

    def test_cli_rows_are_the_scalar_path(self):
        from fogscope.cli import _objective_row
        scn = scenario_with(fog__tdp=2.0607)
        evaluation = _objective_row(scn, np.asarray(R_GRID))
        assert isinstance(evaluation, model.Evaluation)
        # the arrays sweep hands to the renderer, which reads float64 and
        # bool arrays as they are
        assert [column.dtype for column in evaluation] \
            == [np.dtype(np.float64)] * 6 + [np.dtype(np.bool_)]
        columns = [column.tolist() for column in evaluation]
        assert columns == [list(c) for c in zip(*term_rows(scn, R_GRID))]

    def test_r_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            model.evaluate(default_scenario(), np.array([0.5, 1.5]))

    @pytest.mark.parametrize("r", [
        "x", [0.1, "x"], [[0.1], [0.2, 0.3]], 10**400, [1j],
    ], ids=["string", "string-element", "ragged", "huge-int", "complex"])
    def test_r_that_is_no_float_array_rejected(self, r):
        # each makes numpy raise ValueError, OverflowError or TypeError
        with pytest.raises(ValidationError,
                           match=r"^r: must be within \[0, 1\]$") as exc:
            model.evaluate(default_scenario(), r)
        assert exc.value.field == "r"

    def test_no_warning_when_any_split_is_unstable(self):
        # a grid scan crosses the stability boundary by design; only a
        # single split warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.evaluate(default_scenario(), np.array([0.5, 1.0, 1.0]))


# each single-split entry point, called from this file at a split past the
# stability boundary
UNSTABLE_CALLS = {
    "objectives": lambda: model.objectives(default_scenario(), 1.0),
    "evaluate_split": lambda: model.evaluate_split(default_scenario(), 1.0),
}


@pytest.mark.parametrize("name", sorted(UNSTABLE_CALLS))
def test_instability_warning_names_the_caller(name):
    with pytest.warns(InstabilityWarning) as record:
        UNSTABLE_CALLS[name]()
    assert [w.filename for w in record] == [__file__]


# ---------------------------------------------------------------------------
# The kernel against the named terms, one split at a time
# ---------------------------------------------------------------------------

def term_rows(scn, r_values):
    """evaluate's rows, each built from the public term functions alone;
    unlike evaluate_split, this does not go through the composition that
    evaluate shares with it."""
    w, fog, net = scn.workload, scn.fog, scn.network
    energy = (model.fog_energy_with_tx if scn.modification1_enabled
              else model.fog_energy)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstabilityWarning)
        for r in r_values:
            split = DecisionState.from_ratio(w, r)
            try:
                power, feasible = energy(w, fog, split), True
            except TdpExceeded as exc:
                power, feasible = exc.power_w, False
            fog_lat = model.fog_latency_linear(fog, split)
            cloud_lat = model.cloud_latency(w, net, scn.cloud, split)
            rows.append((r, model.throughput_to_cloud(w, split), power,
                         fog_lat, cloud_lat,
                         model.avg_latency(fog_lat, cloud_lat), feasible))
    return rows


class TestEvaluateAgainstTerms:
    @settings(max_examples=80)
    @given(delta=st.floats(min_value=0.0, max_value=1e4),
           size=st.floats(min_value=1.0, max_value=1e5),
           gamma=st.floats(min_value=0.0, max_value=1e-5),
           rho=st.floats(min_value=0.0, max_value=1e-5),
           tx=st.booleans(),
           base=st.floats(min_value=0.0, max_value=2.0),
           back=st.floats(min_value=0.0, max_value=1.0),
           r_values=st.lists(fractions, min_size=1, max_size=20),
           at=st.integers(min_value=0, max_value=19))
    # the half-ulp tie of test_from_ratio_resync
    @example(delta=12.345, size=12000.0, gamma=1e-7, rho=0.0, tx=False,
             base=0.0, back=0.1, r_values=[0.33019721859799855, 0.5], at=1)
    def test_columns_are_the_named_terms(self, delta, size, gamma, rho, tx,
                                         base, back, r_values, at):
        scn = replace(scenario_with(workload__arrival_rate=delta,
                                    workload__packet_size=size,
                                    fog__energy_per_bit=gamma,
                                    fog__tx_energy_per_bit=rho,
                                    fog__idle_power=1.0,
                                    fog__tdp=sys.float_info.max,
                                    network__base_latency=base,
                                    network__return_fraction=back),
                      modification1_enabled=tx)
        # the TDP is the draw at one of the splits, so that split lies on
        # the bound and every split that draws more lies past it
        draw = term_rows(scn, [r_values[at % len(r_values)]])[0][2]
        tdp = draw if draw > scn.fog.idle_power else 1.5
        scn = replace(scn, fog=replace(scn.fog, tdp=tdp))
        expected = term_rows(scn, r_values)
        evaluation = model.evaluate(scn, np.asarray(r_values))
        rows = list(zip(*(column.tolist() for column in evaluation)))
        assert rows == expected
        assert [list(map(repr, row)) for row in rows] \
            == [list(map(repr, row)) for row in expected]
