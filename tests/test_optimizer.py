"""Dominance tooling, NSGA-II contracts, grid oracle, hypervolume."""

import itertools
import math
import random
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fogscope import model, optimizer
from fogscope.model import (CloudParams, FogNodeParams, NetworkParams,
                            ValidationError, WorkloadParams)
from fogscope.optimizer import (NoFeasibleSolution, OptConfig, OptProblem,
                                brute_force_front, crowding_distance,
                                dominates, hypervolume, non_dominated_sort,
                                optimize)
from fogscope.scenario import Scenario, default_scenario


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 1, 1), (2, 2, 2))

    def test_incomparable_both_ways(self):
        assert not dominates((1, 3, 0), (3, 1, 0))
        assert not dominates((3, 1, 0), (1, 3, 0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1, 1), (1, 1, 1))

    def test_weak_improvement_in_one_component(self):
        assert dominates((1, 1, 0), (1, 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            dominates((1, 2), (1, 2, 3))
        assert str(exc.value) == "a, b: must have equal length"
        assert exc.value.field == "a, b"


# neither function takes these: they are not n vectors of numbers of one
# common length >= 1
MALFORMED_POINTS = [[()], [(), (), ()], [1.0, 2.0], [1.0, 2.0, 3.0],
                    [(1.0, 2.0), (3.0,)], [("a", 1.0)], [(1 + 2j, 1.0)],
                    [({}, 1.0)], [(10**400, 1.0), (1.0, 2.0)]]
MALFORMED_IDS = ["one-empty", "three-empty", "two-scalars", "three-scalars",
                 "ragged", "not-numbers", "complex", "dict", "huge-int"]
NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_IDS = ["nan", "inf", "minus-inf"]


class TestNonDominatedSort:
    def test_four_point_example(self):
        ranks = non_dominated_sort([(1, 1), (1, 2), (2, 1), (2, 2)])
        assert ranks == [0, 1, 1, 2]

    def test_single_point(self):
        assert non_dominated_sort([(5, 5, 5)]) == [0]

    def test_identical_points_all_rank_zero(self):
        assert non_dominated_sort([(3, 3)] * 5) == [0] * 5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match=r"^points: must be nonempty$"):
            non_dominated_sort([])

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError) as exc:
            non_dominated_sort([(1.0, 2.0), (0.5, value), (2.0, 1.0)])
        assert str(exc.value) == "points: must have finite coordinates"
        assert exc.value.field == "points"

    @pytest.mark.parametrize("points", MALFORMED_POINTS, ids=MALFORMED_IDS)
    def test_malformed_rejected(self, points):
        with pytest.raises(ValueError, match=r"^points: must be vectors of "
                           r"numbers of one common length >= 1$"):
            non_dominated_sort(points)


class TestCrowdingDistance:
    def test_three_point_example(self):
        dist = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert dist[0] == float("inf")
        assert dist[2] == float("inf")
        assert dist[1] == pytest.approx(2.0)

    def test_small_fronts_all_infinite(self):
        assert crowding_distance([]) == []
        assert crowding_distance([(1, 2)]) == [float("inf")]
        assert crowding_distance([(1, 2), (2, 1)]) == [float("inf")] * 2

    @pytest.mark.parametrize("front", MALFORMED_POINTS, ids=MALFORMED_IDS)
    def test_malformed_rejected(self, front):
        with pytest.raises(ValueError, match=r"^front: must be vectors of "
                           r"numbers of one common length >= 1$"):
            crowding_distance(front)

    def test_degenerate_objective_contributes_zero(self):
        # second objective has zero range; only the first spreads points
        dist = crowding_distance([(0, 5), (1, 5), (2, 5)])
        assert dist[1] == pytest.approx((2 - 0) / 2)

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError) as exc:
            crowding_distance([(value, 1.0), (1.0, 2.0), (0.5, 3.0)])
        assert str(exc.value) == "front: must have finite coordinates"
        assert exc.value.field == "front"

    @pytest.mark.parametrize("front", [
        [(-1e308, 1.0), (0.0, 2.0), (1e308, 3.0)],
        [(1.0, 1e308), (2.0, -1e308)],
    ], ids=["three-points", "two-points-second-objective"])
    def test_range_beyond_the_float_range_rejected(self, front):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                crowding_distance(front)
        assert str(exc.value) == \
            "front: must have a finite range in each objective"
        assert exc.value.field == "front"

    def test_largest_finite_range_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = crowding_distance([(0.0, 0.0), (1.0, 1.0),
                                      (sys.float_info.max, 2.0)])
        assert dist == [math.inf, 2.0, math.inf]


@st.composite
def objective_sets(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    dim = draw(st.integers(min_value=2, max_value=3))
    rows = draw(st.lists(
        st.tuples(*[st.floats(min_value=0, max_value=100) for _ in range(dim)]),
        min_size=n, max_size=n))
    return rows


@given(objective_sets(), st.integers(min_value=0, max_value=11),
       st.floats(min_value=0.01, max_value=10))
def test_adding_dominated_point_preserves_rank_zero(points, idx, bump):
    base = points[idx % len(points)]
    dominated = tuple(v + bump for v in base)
    ranks = non_dominated_sort(points)
    with_extra = non_dominated_sort(points + [dominated])
    rank0_before = {i for i, rk in enumerate(ranks) if rk == 0}
    rank0_after = {i for i, rk in enumerate(with_extra[:len(points)]) if rk == 0}
    assert rank0_before == rank0_after
    assert with_extra[-1] != 0


@given(objective_sets(), st.integers(min_value=0, max_value=2),
       st.floats(min_value=0.001, max_value=1000))
def test_rank_invariance_under_positive_scaling(points, axis, scale):
    dim = len(points[0])
    axis = axis % dim
    scaled = [tuple(v * scale if d == axis else v for d, v in enumerate(p))
              for p in points]
    # rounding can merge two distinct values, e.g. 5e-324 * 0.5 == 0.0
    pairs = itertools.combinations(
        [(p[axis], q[axis]) for p, q in zip(points, scaled)], 2)
    assume(all((a < b) == (c < d) and (a == b) == (c == d)
               for (a, c), (b, d) in pairs))
    assert non_dominated_sort(points) == non_dominated_sort(scaled)


class TestOptimizeContracts:
    def test_seed_reproducibility(self):
        prob = OptProblem(scenario=default_scenario())
        cfg = OptConfig(population_size=24, generations=15, seed=99)
        assert optimize(prob, cfg) == optimize(prob, cfg)

    def test_rank_zero_mutually_non_dominated(self):
        prob = OptProblem(scenario=default_scenario())
        front = optimize(prob, OptConfig(population_size=32, generations=20,
                                         seed=5))
        rank0 = [vec.as_tuple() for _, vec in front.rank_zero()]
        for i, a in enumerate(rank0):
            for j, b in enumerate(rank0):
                if i != j:
                    assert not dominates(a, b)

    def test_members_sorted_by_rank_then_crowding(self):
        prob = OptProblem(scenario=default_scenario())
        front = optimize(prob, OptConfig(population_size=32, generations=10,
                                         seed=6))
        keys = list(zip(front.ranks, [-c for c in front.crowding]))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("gens, kept", [(1, 6), (2, 9)])
    def test_returned_ranks_are_those_of_the_members(self, gens, kept):
        # early populations hold many ranks and some infeasible members,
        # which must not shift those ranks
        front = optimize(OptProblem(scenario=_tx_chain_scenario()),
                         OptConfig(population_size=16, generations=gens,
                                   seed=4))
        assert len(front.members) == kept
        assert max(front.ranks) > 0
        assert front.ranks == non_dominated_sort(
            [vec.as_tuple() for _, vec in front.members])

    def test_crowding_is_computed_once_per_generation(self, monkeypatch):
        # the initial population's crowding, then each selection's, which
        # the next tournaments read (Deb et al. 2002)
        calls = []

        def counted(*args):
            calls.append(args)
            return crowd(*args)

        crowd = optimizer._crowd
        monkeypatch.setattr(optimizer, "_crowd", counted)
        optimize(OptProblem(scenario=default_scenario()),
                 OptConfig(population_size=8, generations=5, seed=1))
        assert len(calls) == 5 + 1

    def test_one_front_generations_build_no_matrix(self, monkeypatch):
        # every split of the default scenario trades throughput against
        # power, so `_one_trade_off` settles each generation as one front;
        # so it does in the benchmark's tx-term and TDP-bound searches,
        # where infeasible members rank by their violation; in the tx
        # chain a larger split dominates, so fronts are peeled
        calls = []

        def counted(*args):
            calls.append(args)
            return counts(*args)

        counts = optimizer._no_worse_counts
        monkeypatch.setattr(optimizer, "_no_worse_counts", counted)
        cfg = OptConfig(population_size=200, generations=100, seed=3)
        scenario = default_scenario()
        tx_term = replace(scenario, modification1_enabled=True, fog=replace(
            scenario.fog, tx_energy_per_bit=2.0e-8))
        tdp_bound = replace(scenario, fog=replace(scenario.fog, tdp=2.0607))
        for searched in (scenario, tx_term, tdp_bound):
            optimize(OptProblem(scenario=searched), cfg)
            assert calls == []
        optimize(OptProblem(scenario=_tx_chain_scenario()), cfg)
        assert calls

    def test_one_front_generations_skip_the_per_rank_crowding(
            self, monkeypatch):
        # the per-rank kernel counts each rank's members with np.bincount;
        # every generation of the default search is one front, and every
        # generation of the TDP-bound search holds infeasible members,
        # which rank after the feasible ones
        bincounts, per_rank = [], []

        def counted_bincount(*args, **kwargs):
            bincounts.append(args)
            return bincount(*args, **kwargs)

        def counted_crowd(*args):
            before = len(bincounts)
            result = crowd(*args)
            per_rank.append(len(bincounts) > before)
            return result

        bincount, crowd = np.bincount, optimizer._crowd
        monkeypatch.setattr(np, "bincount", counted_bincount)
        monkeypatch.setattr(optimizer, "_crowd", counted_crowd)
        cfg = OptConfig(population_size=200, generations=100, seed=3)
        optimize(OptProblem(scenario=default_scenario()), cfg)
        # the first population's crowding, then one per generation
        assert per_rank == [False] * 101
        assert bincounts == []
        per_rank.clear()
        scenario = default_scenario()
        tdp_bound = replace(scenario, fog=replace(scenario.fog, tdp=2.0607))
        optimize(OptProblem(scenario=tdp_bound), cfg)
        assert per_rank == [True] * 101

    def test_members_have_distinct_splits(self):
        # every child mutates with a wide sigma, so many clamp to 0 or 1
        front = optimize(OptProblem(scenario=default_scenario()),
                         OptConfig(population_size=40, generations=30,
                                   mutation_rate=1.0, mutation_sigma=0.5,
                                   seed=15))
        rs = [r for r, _ in front.members]
        assert {0.0, 1.0} <= set(rs)
        assert len(rs) == len(set(rs))

    def test_rank_zero_satisfies_linear_tradeoff(self):
        s = default_scenario()
        prob = OptProblem(scenario=s)
        front = optimize(prob, OptConfig(population_size=32, generations=25,
                                         seed=3))
        gamma = s.fog.energy_per_bit
        full = gamma * s.workload.bit_rate + s.fog.idle_power
        for _, vec in front.rank_zero():
            expected = full - gamma * vec.throughput_to_cloud_bps
            assert abs(vec.fog_power_w - expected) <= 1e-9 * max(1.0, full)

    def test_front_spans_most_of_the_throughput_range(self):
        s = default_scenario()
        front = optimize(OptProblem(scenario=s),
                         OptConfig(population_size=50, generations=50, seed=2))
        bs = [vec.throughput_to_cloud_bps for _, vec in front.rank_zero()]
        assert (max(bs) - min(bs)) >= 0.9 * s.workload.bit_rate

    def test_infeasible_region_excluded_from_front(self):
        # power crosses the TDP bound at r = 0.5
        s = default_scenario()
        gamma = 2 * (s.fog.tdp - s.fog.idle_power) / s.workload.bit_rate
        hot = replace(s, fog=replace(s.fog, energy_per_bit=gamma))
        front = optimize(OptProblem(scenario=hot),
                         OptConfig(population_size=32, generations=25, seed=8))
        for _, vec in front.members:
            assert vec.fog_power_w <= hot.fog.tdp + 1e-9

    def test_no_feasible_solution(self):
        s = default_scenario()
        impossible = replace(
            s,
            fog=replace(s.fog, energy_per_bit=1e-3, tx_energy_per_bit=1e-3),
            modification1_enabled=True,
        )
        with pytest.raises(NoFeasibleSolution):
            optimize(OptProblem(scenario=impossible),
                     OptConfig(population_size=16, generations=5, seed=1))

    def test_config_invariants(self):
        with pytest.raises(ValidationError):
            OptConfig(population_size=3)
        with pytest.raises(ValidationError):
            OptConfig(population_size=11)
        with pytest.raises(ValidationError):
            OptConfig(generations=0)
        with pytest.raises(ValidationError):
            OptConfig(crossover_rate=1.2)
        with pytest.raises(ValidationError):
            OptConfig(mutation_sigma=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"population_size": 11},
         "population_size: must be even and within [4, 4000]"),
        ({"generations": 0}, "generations: must be within [1, 100000]"),
        ({"population_size": 4000, "generations": 101},
         "generations: must be at most 100 at population_size 4000"),
        ({"crossover_rate": 1.2}, "crossover_rate: must be within [0, 1]"),
        ({"mutation_rate": -0.1}, "mutation_rate: must be within [0, 1]"),
        ({"mutation_sigma": math.nan},
         "mutation_sigma: must be finite and > 0"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"population_size": 200.0}, "population_size: must be an integer"),
        ({"population_size": True}, "population_size: must be an integer"),
        ({"generations": 5.0}, "generations: must be an integer"),
        ({"generations": True}, "generations: must be an integer"),
        ({"generations": np.True_}, "generations: must be an integer"),
        # random.Random seeds a float by its hash: 3.0 would repeat seed 3
        ({"seed": 3.5}, "seed: must be an integer"),
        ({"seed": 3.0}, "seed: must be an integer"),
        ({"seed": True}, "seed: must be an integer"),
        ({"seed": "x"}, "seed: must be an integer"),
    ], ids=["pop", "gens", "work", "crossover", "mutation", "sigma", "seed",
            "pop-float", "pop-bool", "gens-float", "gens-bool",
            "gens-numpy-bool", "seed-float", "seed-integral-float",
            "seed-bool", "seed-str"])
    def test_error_names_its_field(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            OptConfig(**kwargs)
        assert str(exc.value) == message
        assert exc.value.field == message.partition(":")[0]

    def test_numpy_integers_accepted(self):
        cfg = OptConfig(population_size=np.int64(8),
                        generations=np.int32(2), seed=np.uint8(1))
        front = optimize(OptProblem(scenario=default_scenario()), cfg)
        assert front == optimize(OptProblem(scenario=default_scenario()),
                                 OptConfig(population_size=8, generations=2,
                                           seed=1))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_mutation_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValidationError, match="mutation_sigma"):
            OptConfig(mutation_sigma=sigma)


class TestPopulationCap:
    """Ranking builds matrices of (2 x population)^2 entries, so an
    oversized population is an input error of OptConfig.  Each test reads
    the cap first; none runs a population at the cap."""

    def test_cap_admits_the_benchmark_and_readme_populations(self):
        # perfbench's search workload runs --pop 200; README shows 100
        assert optimizer._MAX_POPULATION >= 200

    def test_population_at_the_cap_is_accepted(self):
        cap = optimizer._MAX_POPULATION
        assert OptConfig(population_size=cap).population_size == cap

    @pytest.mark.parametrize("over", [1, 2])
    def test_population_over_the_cap_is_rejected(self, over):
        cap = optimizer._MAX_POPULATION
        with pytest.raises(ValidationError, match=f"population_size: .*{cap}"):
            OptConfig(population_size=cap + over)


class TestGenerationCap:
    """The search runs every generation it is given, so an unbounded
    generation count is an input error of OptConfig.  Each test reads the
    cap first; none runs a search at the cap."""

    def test_cap_admits_the_benchmark_and_readme_generations(self):
        # perfbench's search workload and README both run --gens 100
        assert optimizer._MAX_GENERATIONS >= 100

    def test_generations_at_the_cap_are_accepted(self):
        cap = optimizer._MAX_GENERATIONS
        assert OptConfig(generations=cap).generations == cap

    @pytest.mark.parametrize("over", [1, 100_000_000])
    def test_generations_over_the_cap_are_rejected(self, over):
        cap = optimizer._MAX_GENERATIONS
        with pytest.raises(ValidationError, match=f"generations: .*{cap}"):
            OptConfig(generations=cap + over)


class TestSearchWorkCap:
    """Ranking compares about population^2 pairs per generation, so the
    two caps alone admit runs of about a day (--pop 4000 --gens 100000);
    population^2 x generations is an input error of OptConfig above a
    third cap.  Each test reads the caps first; none runs a search."""

    def test_cap_admits_the_benchmark_readme_and_either_cap(self):
        cap = optimizer._MAX_SEARCH_WORK
        # perfbench runs --pop 200 --gens 100; README shows 100 x 100, and
        # each single cap is reached at the other's default of 100
        assert 200 ** 2 * 100 <= cap
        assert optimizer._MAX_POPULATION ** 2 * 100 <= cap
        assert 100 ** 2 * optimizer._MAX_GENERATIONS <= cap

    @pytest.mark.parametrize("pop", [4, 200, 1000])
    def test_generations_at_the_cap_are_accepted(self, pop):
        gens = min(optimizer._MAX_SEARCH_WORK // pop ** 2,
                   optimizer._MAX_GENERATIONS)
        cfg = OptConfig(population_size=pop, generations=gens)
        assert cfg.generations == gens

    @pytest.mark.parametrize("pop", [200, 1000, optimizer._MAX_POPULATION])
    def test_generations_over_the_cap_are_rejected(self, pop):
        limit = optimizer._MAX_SEARCH_WORK // pop ** 2
        assert limit < optimizer._MAX_GENERATIONS
        with pytest.raises(
                ValidationError,
                match=f"generations: must be at most {limit} at "
                      f"population_size {pop}"):
            OptConfig(population_size=pop, generations=limit + 1)

    def test_both_caps_at_once_are_rejected(self):
        with pytest.raises(ValidationError, match="generations: "):
            OptConfig(population_size=optimizer._MAX_POPULATION,
                      generations=optimizer._MAX_GENERATIONS)


def _fixed_latency_scenario() -> Scenario:
    """Zero processing energy and r-independent average latency.

    Power-of-two parameters keep every term exact in binary floating
    point: the fog and cloud latency slopes cancel, so the average
    latency is 0.125 at every dyadic split and only the throughput
    varies.
    """
    return Scenario(
        workload=WorkloadParams(arrival_rate=64.0, packet_size=16384.0),
        fog=FogNodeParams(proc_capability=256.0, energy_per_bit=0.0,
                          idle_power=2.0, tdp=10.0),
        network=NetworkParams(uplink_throughput=2.0 ** 22,
                              downlink_throughput=2.0 ** 22,
                              return_fraction=0.0),
        cloud=CloudParams(proc_capability=2.0 ** 22),
        name="fixed-latency",
    )


def _tx_chain_scenario() -> Scenario:
    """`_fixed_latency_scenario` with the tx term: each larger split
    dominates every smaller one, and splits below 0.875 break the TDP."""
    s = _fixed_latency_scenario()
    return replace(s, modification1_enabled=True,
                   fog=replace(s.fog, tx_energy_per_bit=2.0 ** -18, tdp=2.5))


class TestBruteForceFront:
    def test_half_step_grid_evaluates_three_points(self):
        front = brute_force_front(OptProblem(scenario=default_scenario()), 0.5)
        rs = sorted(r for r, _ in front.members)
        assert rs == [0.0, 0.5, 1.0]
        assert front.ranks == [0, 0, 0]

    def test_monotone_reduction_collapses_to_single_point(self):
        front = brute_force_front(OptProblem(scenario=_fixed_latency_scenario()),
                                  0.25)
        assert len(front.members) == 1
        r, vec = front.members[0]
        assert r == 1.0
        assert vec.throughput_to_cloud_bps == 0.0
        assert vec.avg_latency_s == 0.125

    def test_grid_oracle_confirms_ga_front(self):
        prob = OptProblem(scenario=default_scenario())
        ga = optimize(prob, OptConfig(population_size=40, generations=30,
                                      seed=17))
        grid = brute_force_front(prob, 1e-2)
        grid_pts = [vec.as_tuple() for _, vec in grid.members]
        spans = [max(p[d] for p in grid_pts) - min(p[d] for p in grid_pts)
                 or 1.0 for d in range(3)]
        for _, vec in ga.rank_zero():
            g = vec.as_tuple()
            for p in grid_pts:
                scaled_p = [p[d] / spans[d] for d in range(3)]
                scaled_g = [g[d] / spans[d] for d in range(3)]
                beyond = (all(a <= b + 1e-6 for a, b in zip(scaled_p, scaled_g))
                          and any(a < b - 1e-6
                                  for a, b in zip(scaled_p, scaled_g)))
                assert not beyond

    def test_step_bounds(self):
        prob = OptProblem(scenario=default_scenario())
        for step in (0.0, 1.5):
            with pytest.raises(ValidationError) as exc:
                brute_force_front(prob, step)
            assert str(exc.value) == "grid_step: must be within (0, 1]"
            assert exc.value.field == "grid_step"

    @pytest.mark.parametrize("step", ["x", None, True, [0.5]],
                             ids=["str", "none", "bool", "list"])
    def test_step_that_is_not_a_number_is_rejected(self, step):
        prob = OptProblem(scenario=default_scenario())
        for call in (lambda: brute_force_front(prob, step),
                     lambda: optimizer.grid_steps(step)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == "grid_step: must be a number"
            assert exc.value.field == "grid_step"

    def test_grid_beyond_the_cap_is_rejected_before_it_is_made(self,
                                                               monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        prob = OptProblem(scenario=default_scenario())
        # 1e-9 asks for 1,000,000,001 points; 1 / 5e-324 overflows a float
        for step in (1e-9, 0.99 / (optimizer.MAX_GRID_POINTS - 1), 5e-324):
            with pytest.raises(ValidationError) as exc:
                brute_force_front(prob, step)
            assert exc.value.field == "grid_step"
            assert str(optimizer.MAX_GRID_POINTS) in str(exc.value)

    @pytest.mark.parametrize("step, accepted", [
        (0.1, True), (0.099, True), (0.09, False)])
    def test_cap_counts_the_rounded_grid(self, monkeypatch, step, accepted):
        # 1 / 0.099 rounds to 10 steps, 11 points; 1 / 0.09 to 11 steps
        monkeypatch.setattr(optimizer, "MAX_GRID_POINTS", 11)
        prob = OptProblem(scenario=default_scenario())
        if accepted:
            assert brute_force_front(prob, step).members
        else:
            with pytest.raises(ValidationError, match="at most 11 grid points"):
                brute_force_front(prob, step)

    def test_ten_thousand_steps_keep_working(self):
        front = brute_force_front(OptProblem(scenario=default_scenario()), 1e-4)
        assert max(r for r, _ in front.members) <= 1.0
        assert len(front.members) <= 10_001


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([(1.0, 1.0, 1.0)], (4.0, 4.0, 4.0)) \
            == pytest.approx(27.0)

    def test_two_point_union_3d(self):
        pts = [(1.0, 1.0, 1.0), (0.0, 2.0, 2.0)]
        assert hypervolume(pts, (4.0, 4.0, 4.0)) == pytest.approx(31.0)

    def test_two_point_union_2d(self):
        pts = [(0.0, 2.0), (2.0, 0.0)]
        # two 2x4 slabs overlapping in a 2x2 square
        assert hypervolume(pts, (4.0, 4.0)) == pytest.approx(8 + 8 - 4)

    def test_points_beyond_reference_ignored(self):
        assert hypervolume([(5.0, 1.0, 1.0)], (4.0, 4.0, 4.0)) == 0.0

    def test_dominated_points_do_not_add_volume(self):
        base = hypervolume([(1.0, 1.0, 1.0)], (4.0, 4.0, 4.0))
        extra = hypervolume([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], (4.0, 4.0, 4.0))
        assert base == pytest.approx(extra)

    def test_against_box_counting_oracle(self):
        rng = np.random.default_rng(12345)
        ref = (1.0, 1.0, 1.0)
        for _ in range(5):
            pts = [tuple(rng.uniform(0, 0.9, 3)) for _ in range(8)]
            cells = 48
            centers = (np.arange(cells) + 0.5) / cells
            mesh = np.stack(np.meshgrid(centers, centers, centers,
                                        indexing="ij"), axis=-1).reshape(-1, 3)
            covered = np.zeros(len(mesh), dtype=bool)
            for p in pts:
                covered |= np.all(mesh >= np.asarray(p), axis=1)
            oracle = covered.mean()  # box [0,1]^3 has unit volume
            assert hypervolume(pts, ref) == pytest.approx(oracle, abs=0.02)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hypervolume([(1.0,) * 4], (2.0,) * 4)

    @pytest.mark.parametrize("points, reference", [
        ([(0.5, 0.5, 0.5)], (1.0, 1.0)),
        ([(0.5, 0.5)], (1.0, 1.0, 1.0)),
        ([(0.5, 0.5), (2.0, 0.5, 0.5)], (1.0, 1.0)),  # beyond the reference
    ])
    def test_point_and_reference_lengths_must_match(self, points, reference):
        with pytest.raises(ValueError, match="equal length"):
            hypervolume(points, reference)

    @pytest.mark.parametrize("points, reference", [
        ([(-math.inf, 0.0, 0.0)], (1.0, 1.0, 1.0)),
        ([(0.5, -math.inf)], (1.0, 1.0)),
        ([(math.nan, 0.5, 0.5)], (1.0, 1.0, 1.0)),
        ([(0.5, 0.5), (2.0, math.nan)], (1.0, 1.0)),
        ([(0.5, 0.5, 0.5)], (1.0, math.nan, 1.0)),
        ([(0.5, 0.5, 0.5)], (math.inf, 1.0, 1.0)),
        ([], (1.0, -math.inf)),
    ], ids=["minus-inf", "minus-inf-2d", "nan", "nan-beyond", "nan-reference",
            "inf-reference", "empty-minus-inf-reference"])
    def test_non_finite_coordinates_rejected(self, points, reference):
        with pytest.raises(ValueError, match="finite"):
            hypervolume(points, reference)

    @pytest.mark.parametrize("points, reference, field", [
        ([(0.5, 0.5)], (1.0, 1.0, 1.0), "points"),
        ([(2.0, math.nan)], (1.0, 1.0), "points"),
        ([(-math.inf, 0.5)], (1.0, 1.0), "points"),
        ([(0.5, 0.5)], (math.inf, 1.0), "reference"),
        ([(1.0,) * 4], (2.0,) * 4, "reference"),
        ([("x", 1.0)], (2.0, 2.0), "points"),
        ([(None, 1.0)], (2.0, 2.0), "points"),
        ([1.0, 2.0], (2.0, 2.0), "points"),
        ([(10**400, 1.0)], (2.0, 2.0), "points"),
        ([(0.5, 0.5)], None, "reference"),
        ([(0.5, 0.5)], (1j, 1.0), "reference"),
    ], ids=["length", "nan-beyond", "minus-inf", "inf-reference",
            "four-objectives", "string", "none", "flat", "huge-int",
            "no-reference", "complex-reference"])
    def test_input_errors_are_validation_errors_naming_their_field(
            self, points, reference, field):
        with pytest.raises(ValidationError, match=f"^{field}: ") as error:
            hypervolume(points, reference)
        assert error.value.field == field

    @pytest.mark.parametrize("points, reference", [
        ([(1.0, 2.0)], (1e308, 1e308)),
        ([(-1e308, -1e308, 0.0), (1.0, 1.0, 0.0)], (1e308, 1e308, 1.0)),
    ], ids=["area-overflows", "infinite-area-times-zero-depth"])
    def test_a_volume_beyond_the_float_range_is_refused(self, points,
                                                        reference):
        # finite input whose box overflows: inf, or inf * 0.0 = nan
        with pytest.raises(ValidationError,
                           match="^hypervolume: must be finite"):
            hypervolume(points, reference)

    @pytest.mark.parametrize("point", [(math.inf, 0.5, 0.5),
                                       (-math.inf, 2.0, 0.5),
                                       (1.0, 0.5, 0.5)])
    def test_point_at_or_beyond_the_reference_adds_nothing(self, point):
        assert hypervolume([point, (0.5, 0.5, 0.5)], (1.0, 1.0, 1.0)) \
            == hypervolume([(0.5, 0.5, 0.5)], (1.0, 1.0, 1.0))


@settings(max_examples=25)
@given(objective_sets())
def test_returned_rank_zero_never_dominated_property(points):
    ranks = non_dominated_sort(points)
    rank0 = [p for p, rk in zip(points, ranks) if rk == 0]
    for a in rank0:
        assert not any(dominates(b, a) for b in points)


@st.composite
def eighths_point_sets(draw):
    """2-D or 3-D points whose coordinates are multiples of 0.125 in [0, 1).

    The size is drawn first: left to itself, hypothesis keeps lists short.
    """
    dim = draw(st.integers(min_value=2, max_value=3))
    size = draw(st.integers(min_value=0, max_value=200))
    # one draw per point: its coordinates are the octal digits of a code
    codes = draw(st.lists(st.integers(min_value=0, max_value=8 ** dim - 1),
                          min_size=size, max_size=size))
    return [tuple(((code >> (3 * d)) & 7) * 0.125 for d in range(dim))
            for code in codes]


def compressed_grid_volume(points, reference):
    """Hypervolume by coordinate compression: the distinct coordinates of
    each axis cut the box below the reference into cells, and a cell
    counts when some point weakly dominates its lower corner."""
    axes = [sorted({p[d] for p in points} | {reference[d]})
            for d in range(len(reference))]
    volume = 0.0
    for cell in itertools.product(*[range(len(axis) - 1) for axis in axes]):
        corner = [axis[k] for axis, k in zip(axes, cell)]
        if any(all(v <= c for v, c in zip(p, corner)) for p in points):
            size = 1.0
            for axis, k in zip(axes, cell):
                size *= axis[k + 1] - axis[k]
            volume += size
    return volume


@settings(max_examples=200)
@given(eighths_point_sets())
def test_hypervolume_equals_the_compressed_grid_oracle(points):
    # every width, product and sum here is a multiple of 2**-9 in [0, 1],
    # so both sides are exact and must agree bit for bit
    reference = (1.0,) * (len(points[0]) if points else 3)
    assert hypervolume(points, reference) == \
        compressed_grid_volume(points, reference)


@st.composite
def binding_tdp_scenarios(draw):
    """Random scenarios, with or without the tx term, whose TDP lies
    between the fog power at r = 0 and at r = 1."""
    rate = draw(st.floats(min_value=1.0, max_value=1e3))
    size = draw(st.floats(min_value=100.0, max_value=1e5))
    gamma = draw(st.floats(min_value=1e-8, max_value=1e-5))
    tx = draw(st.floats(min_value=1e-8, max_value=1e-5))
    tx_enabled = draw(st.booleans())
    bits = rate * size
    p0 = (tx * bits if tx_enabled else 0.0) + 1.0
    p1 = gamma * bits + 1.0
    lo, hi = min(p0, p1), max(p0, p1)
    tdp = lo + draw(st.floats(min_value=0.05, max_value=0.95)) * (hi - lo)
    if tdp <= 1.0:  # both ends draw the same power; the TDP cannot bind
        tdp = hi + 1.0
    return Scenario(
        workload=WorkloadParams(arrival_rate=rate, packet_size=size),
        fog=FogNodeParams(
            proc_capability=draw(st.floats(min_value=1.0, max_value=1e3)),
            energy_per_bit=gamma, idle_power=1.0, tdp=tdp,
            tx_energy_per_bit=tx),
        network=NetworkParams(
            uplink_throughput=draw(st.floats(min_value=1e4, max_value=1e7)),
            downlink_throughput=draw(st.floats(min_value=1e4, max_value=1e7))),
        cloud=CloudParams(
            proc_capability=draw(st.floats(min_value=1e5, max_value=1e8))),
        modification1_enabled=tx_enabled,
        name="random",
    )


@settings(max_examples=60, deadline=None)
@given(binding_tdp_scenarios(),
       st.sampled_from([0.5, 0.25, 0.1, 2.0 ** -6, 0.01]))
def test_grid_oracle_keeps_exactly_the_non_dominated_feasible_points(
        scn, step):
    front = brute_force_front(OptProblem(scenario=scn), step)
    ev = model.evaluate(scn, np.linspace(0.0, 1.0, round(1 / step) + 1))
    feasible = {r: (b, p, lat) for r, b, p, lat, ok in zip(
        ev.r.tolist(), ev.throughput_bps.tolist(), ev.fog_power_w.tolist(),
        ev.avg_latency_s.tolist(), ev.feasible.tolist()) if ok}
    members = {r: vec.as_tuple() for r, vec in front.members}
    assert len(members) == len(front.members)
    assert front.ranks == [0] * len(members)
    for r, vec in members.items():
        assert feasible[r] == vec
        assert not any(dominates(other, vec) for other in feasible.values())
    for r, vec in feasible.items():
        if r not in members:
            assert any(dominates(m, vec) for m in members.values())


def box_muller(x, y):
    """The normal pair that CPython's ``gauss`` makes of its two draws x
    (the angle) and y (the radius), through ``math``."""
    angle, radius = 2.0 * math.pi * x, math.sqrt(-2.0 * math.log(1.0 - y))
    return math.cos(angle) * radius, math.sin(angle) * radius


def test_box_muller_pairs_are_gauss_pairs():
    ours, twin = random.Random(7), random.Random(7)
    for _ in range(1000):
        expected = box_muller(twin.random(), twin.random())
        assert (ours.gauss(0.0, 1.0), ours.gauss(0.0, 1.0)) == expected


def _tournament(ranks, crowding, u, v):
    n = len(ranks)
    i, j = int(u * n), int(v * n)
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def _blend_crossover(a, b, rate, test, w1, w2):
    if test < rate:
        spread = abs(a - b)
        low = min(a, b) - 0.5 * spread
        width = max(a, b) + 0.5 * spread - low
        a, b = low + width * w1, low + width * w2
    return min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)


def _mutate(x, rate, test, normal, sigma):
    if test < rate:
        x += normal * sigma
    return min(max(x, 0.0), 1.0)


def scalar_offspring(rng, parents, ranks, crowding, cfg):
    """The reference variation loop, one member at a time on floats:
    tournaments, blend crossover and mutation as NSGA-II draws them, 11
    ``random()`` values a pair whether they are used or not."""
    parents, ranks, crowding = parents.tolist(), ranks.tolist(), \
        crowding.tolist()
    children = []
    while len(children) < cfg.population_size:
        u = [rng.random() for _ in range(11)]
        p1 = parents[_tournament(ranks, crowding, *u[0:2])]
        p2 = parents[_tournament(ranks, crowding, *u[2:4])]
        pair = _blend_crossover(p1, p2, cfg.crossover_rate, *u[4:7])
        for child, test, normal in zip(pair, u[7:9], box_muller(*u[9:11])):
            children.append(_mutate(child, cfg.mutation_rate, test, normal,
                                    cfg.mutation_sigma))
    return children


@st.composite
def variation_cases(draw):
    """Parents, ranks and crowding of 4 to 400 members drawn with ties
    from small pools (crowding with inf and NaN, parents with -0.0 and
    values outside [0, 1]), and rates of 0, 1 and between."""
    size = 2 * draw(st.integers(min_value=2, max_value=200))
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice
    parent_pool = draw(st.lists(
        st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-0.5, 1.5),
        min_size=1, max_size=6))
    crowd_pool = draw(st.lists(
        st.sampled_from([0.0, math.inf, math.nan]) | st.floats(0.0, 4.0),
        min_size=1, max_size=6))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cfg = OptConfig(population_size=size, crossover_rate=draw(rate),
                    mutation_rate=draw(rate),
                    mutation_sigma=draw(st.sampled_from([0.05, 0.5, 2.0])),
                    seed=draw(st.integers(0, 2 ** 32)))
    ranks = pick(draw(st.integers(min_value=1, max_value=5)), size)
    return (cfg, pick(parent_pool, size), ranks.astype(np.int64),
            pick(crowd_pool, size))


@settings(max_examples=200, deadline=None)
@given(variation_cases())
def test_offspring_equal_the_scalar_loop(case):
    cfg, parents, ranks, crowding = case
    ours, twin = random.Random(cfg.seed), random.Random(cfg.seed)
    children = optimizer._offspring(ours, parents, ranks, crowding, cfg)
    expected = scalar_offspring(twin, parents, ranks, crowding, cfg)
    # float.hex tells -0.0 from 0.0
    assert list(map(float.hex, children.tolist())) == \
        list(map(float.hex, expected))
    assert ours.getstate() == twin.getstate()


class _Recording:
    """Array stand-in of any length: entry i is ``value(i)``; the index
    arrays read are recorded."""

    def __init__(self, n, value):
        self.n, self.value, self.reads = n, value, []

    def __len__(self):
        return self.n

    def __getitem__(self, idx):
        self.reads.append(idx.tolist())
        return self.value(idx)


@pytest.mark.parametrize("n", [4, 200, 4000, 3 * 2 ** 30, 2 ** 31 + 1])
@pytest.mark.parametrize("seed", range(50))
def test_index_draws_match_generator_integers(seed, n):
    # each pair's two tournaments draw their indices as int(u * n) of the
    # first four of its 11 random() values u, in a stream shared with the
    # blend and the mutation; a draw that reads other bits (randrange,
    # choice) or more than one value per index must fail here, not change
    # fronts quietly
    script = random.Random(1000 + seed)
    rate = [0.0, 0.5, 1.0]
    cfg = OptConfig(population_size=2 * script.randint(2, 40),
                    crossover_rate=script.choice(rate),
                    mutation_rate=script.choice(rate))
    ours, twin = random.Random(seed), random.Random(seed)
    # rank i is i and every crowding 0.0, so the lower index wins; even
    # members are 0.25 and odd ones 0.75, so two unequal parents blend
    # over [0, 1] exactly, and two equal ones stay as they are
    parents = _Recording(n, lambda i: np.where(i % 2, 0.75, 0.25))
    ranks = _Recording(n, lambda i: i)
    crowding = _Recording(n, lambda i: 0.0 * i)
    children = optimizer._offspring(ours, parents, ranks, crowding, cfg)
    expected, expected_children = [], []
    for _ in range(cfg.population_size // 2):
        u = [twin.random() for _ in range(11)]
        picks = [int(x * n) for x in u[:4]]
        expected += picks
        pair = [0.75 if min(picks[k:k + 2]) % 2 else 0.25 for k in (0, 2)]
        if u[4] < cfg.crossover_rate and pair[0] != pair[1]:
            pair = u[5:7]
        for child, test, normal in zip(pair, u[7:9], box_muller(*u[9:11])):
            if test < cfg.mutation_rate:
                child = min(max(child + normal * cfg.mutation_sigma, 0.0),
                            1.0)
            expected_children.append(child)
    first, second = ranks.reads
    assert [k for pair in zip(first, second) for k in pair] == expected
    assert all(0 <= i < n for i in expected)
    assert parents.reads == [list(map(min, zip(first, second)))]
    assert children.tolist() == expected_children
    assert ours.random() == twin.random()


@st.composite
def tied_point_sets(draw):
    """Point sets with ties, duplicate rows and infinite coordinates."""
    dim = draw(st.integers(min_value=1, max_value=3))
    coord = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf])
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=10))
    dupes = draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows + dupes))


@settings(max_examples=200)
@given(tied_point_sets())
def test_dominance_matrix_equals_pairwise_dominates(points):
    # the no-worse matrix and the dominator counts it gives
    le, counts = optimizer._no_worse_counts(np.array(points, dtype=float))
    assert le.tolist() == [[all(x <= y for x, y in zip(a, b))
                            for b in points] for a in points]
    assert counts.tolist() == [sum(dominates(a, b) for a in points)
                               for b in points]


@st.composite
def trade_off_chains(draw):
    """One to four objectives: points in strictly ascending first
    objective with one later objective falling, which no point dominates
    when it falls strictly; and near misses: a flat step in the falling
    objective, duplicate rows, a tie in the first objective, an infinite
    row."""
    dim = draw(st.integers(min_value=1, max_value=4))
    # -0.0 and 0.0 are one value to `unique`, as to ==: 7 distinct levels
    n = draw(st.integers(min_value=1, max_value=7))
    level = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1e308,
                             math.inf])
    columns = [sorted(draw(st.lists(level, min_size=n, max_size=n,
                                    unique=True)))]
    falling = draw(st.integers(min_value=1, max_value=max(1, dim - 1)))
    for k in range(1, dim):
        values = st.lists(level, min_size=n, max_size=n,
                          unique=k == falling and draw(st.booleans()))
        columns.append(sorted(draw(values), reverse=True) if k == falling
                       else draw(values))
    rows = list(zip(*columns))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    if draw(st.booleans()):
        tied = draw(st.sampled_from(rows))
        rows.append((tied[0], *draw(st.tuples(*[level] * (dim - 1)))))
    special = draw(st.none() | st.sampled_from([math.inf, -math.inf]))
    if special is not None:
        row = list(draw(st.tuples(*[level] * dim)))
        row[draw(st.integers(min_value=0, max_value=dim - 1))] = special
        rows.append(tuple(row))
    return draw(st.permutations(rows))


@settings(max_examples=300)
@given(tied_point_sets() | trade_off_chains())
# one near miss of each kind: a tie in the first objective, a flat step in
# the falling objective, a change of falling objective between steps
@example([(1.0, 2.0), (1.0, 1.0)])
@example([(0.0, 1.0), (1.0, 1.0)])
@example([(0.0, 2.0, 0.0), (1.0, 1.0, 5.0), (2.0, 3.0, 4.0)])
def test_ranks_equal_pairwise_peeling(points):
    expected = peel(len(points), lambda i, j: dominates(points[i], points[j]))
    # `non_dominated_sort` refuses infinite coordinates, which the kernel ranks
    assert optimizer._ranks(np.array(points, dtype=float)).tolist() == expected
    if np.isfinite(points).all():
        assert non_dominated_sort(points) == expected


def test_many_objectives_rank_as_pairwise_peeling():
    # at 256 points the equal-point key has base 2**8, so nine objectives
    # overflow int64: a key not re-ranked would drop its first digit and
    # count the first two points, which differ only there, as equal
    rng = np.random.default_rng(9)
    rest = rng.integers(0, 3, (234, 9))
    points = np.concatenate([np.zeros((1, 9)), np.eye(1, 9), rest,
                             rest[:20]]).tolist()
    dom = [[dominates(a, b) for b in points] for a in points]
    assert non_dominated_sort(points) == \
        peel(len(points), lambda i, j: dom[i][j])


def test_dense_ranks_hold_40000_distinct_values():
    # int16 ranks hold 32,767 points; a fine grid oracle ranks more
    values = np.arange(40_000.0)[::-1]
    assert optimizer._dense_ranks(values).tolist() == \
        list(range(39_999, -1, -1))


@st.composite
def mixed_populations(draw):
    """2n members with tied objectives and violations: some infeasible,
    all feasible or all infeasible.  Objectives may also take some of
    -inf, -0.0 and inf, and splits repeat, so that dropping repeated
    splits, as `optimize` does, leaves gaps between the ranks."""
    n = draw(st.integers(min_value=1, max_value=8))
    special = draw(st.sets(st.sampled_from(["-inf", "-0.0", "inf"])))
    level = st.sampled_from([0.0, 1.0, 2.0, 3.0, *map(float, sorted(special))])
    objs = draw(st.lists(st.tuples(level, level, level),
                         min_size=2 * n, max_size=2 * n))
    violations = draw(st.sampled_from([[0.0, 0.0, 0.5, 1.0, 2.0], [0.0],
                                       [0.5, 1.0, 2.0]]))
    violation = draw(st.lists(st.sampled_from(violations),
                              min_size=2 * n, max_size=2 * n))
    crowding = draw(st.lists(
        st.floats(min_value=0.0, max_value=2.0) | st.just(math.inf),
        min_size=2 * n, max_size=2 * n))
    splits = draw(st.lists(st.integers(min_value=0, max_value=2 * n - 1),
                           min_size=2 * n, max_size=2 * n))
    viol = np.array(violation)
    pop = optimizer._Population(np.array(splits) / (2 * n),
                                np.array(objs, dtype=float), viol == 0.0, viol)
    return n, pop, np.array(crowding)


@settings(max_examples=200)
@given(mixed_populations())
def test_selected_members_keep_their_ranks(case):
    n, combined, crowding = case
    ranks = optimizer._constrained_ranks(combined)
    keep = np.lexsort((-crowding, ranks))[:n]
    selected = combined.take(keep)
    carried = ranks[keep]
    assert carried.tolist() == optimizer._constrained_ranks(selected).tolist()
    # and the feasible members keep them once the infeasible are dropped
    feasible = selected.take(selected.feasible)
    if len(feasible.r):
        assert carried[selected.feasible].tolist() == \
            optimizer._ranks(feasible.objs).tolist()


def peel(n, beats):
    """Ranks of n members from fronts peeled one by one, where
    ``beats(i, j)`` says whether member i dominates member j."""
    ranks = [None] * n
    rank = 0
    while None in ranks:
        unranked = [j for j, r in enumerate(ranks) if r is None]
        for j in [j for j in unranked
                  if not any(beats(i, j) for i in unranked)]:
            ranks[j] = rank
        rank += 1
    return ranks


def peeled_constrained_ranks(pop):
    """Fronts peeled one by one under Deb's constrained dominance, decided
    pair by pair: a feasible member dominates by its objectives and
    dominates every infeasible one; an infeasible member dominates the
    infeasible ones with a larger violation."""
    objs, feasible = pop.objs.tolist(), pop.feasible.tolist()
    violation = pop.violation.tolist()

    def beats(i, j):
        if feasible[i] and feasible[j]:
            return dominates(objs[i], objs[j])
        if feasible[i] or feasible[j]:
            return feasible[i]
        return violation[i] < violation[j]

    return peel(len(objs), beats)


@settings(max_examples=200)
@given(mixed_populations())
def test_constrained_ranks_equal_peeling_pairwise_dominance(case):
    _, pop, _ = case
    ranks = optimizer._constrained_ranks(pop)
    # `_crowding` counts each rank's members with np.bincount, which takes
    # no float, and an all-feasible population's ranks come from `_ranks`
    assert ranks.dtype == np.int64
    assert ranks.tolist() == peeled_constrained_ranks(pop)


def front_crowding(objs):
    """Crowding distance within one front of n x m objectives, one
    objective at a time (Deb et al. 2002): the reference for the per-rank
    kernel."""
    n = len(objs)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = hi - lo
        if span > 0:
            gaps = (objs[order[2:], m] - objs[order[:-2], m]) / span
            dist[order[1:-1]] += gaps
    return dist


# spans and gaps of -inf and inf levels are NaN, in the kernel as in the
# reference, and numpy warns of each
INF_SPANS = "ignore:invalid value encountered:RuntimeWarning"


@settings(max_examples=200)
@pytest.mark.filterwarnings(INF_SPANS)
@given(mixed_populations())
def test_crowding_is_computed_within_each_rank(case):
    _, pop, _ = case
    ranks = optimizer._constrained_ranks(pop)
    crowding = optimizer._crowd(pop, ranks)
    for rank in np.unique(ranks):
        idx = np.flatnonzero(ranks == rank)
        # a rank is all feasible or all infeasible, and infeasible members
        # crowd by their violation alone
        points = pop.objs[idx] if pop.feasible[idx[0]] \
            else pop.violation[idx, None]
        assert crowding[idx].tobytes() == front_crowding(points).tobytes()


@settings(max_examples=300)
@pytest.mark.filterwarnings(INF_SPANS)
@given(mixed_populations())
def test_crowding_equals_the_per_front_reference(case):
    _, pop, _ = case
    zeros = np.zeros(len(pop.objs), dtype=np.int64)
    one_front = optimizer._crowding(pop.objs, zeros)
    assert one_front.tobytes() == front_crowding(pop.objs).tobytes()
    # `crowding_distance` refuses infinite coordinates, which the kernel takes
    if np.isfinite(pop.objs).all():
        assert np.array(crowding_distance(pop.objs)).tobytes() == \
            one_front.tobytes()
    # the final front: feasible members, one per split, whose ranks can
    # leave gaps
    ranks = optimizer._constrained_ranks(pop)
    pop, ranks = pop.take(pop.feasible), ranks[pop.feasible]
    first = np.unique(pop.r, return_index=True)[1]
    pop, ranks = pop.take(first), ranks[first]
    expected = {}
    for rank in np.unique(ranks):
        idx = np.flatnonzero(ranks == rank)
        expected.update(zip(pop.r[idx].tolist(),
                            front_crowding(pop.objs[idx]).tolist()))
    front = optimizer._build_front(pop, ranks)
    assert np.array(front.crowding).tobytes() == \
        np.array([expected[r] for r, _ in front.members]).tobytes()


@st.composite
def one_front_sets(draw):
    """n x m objectives for the one-front kernel, n of 0 to 3, 400 or
    between, drawn from a small pool of levels, so that points repeat; the
    levels may hold -0.0 beside 0.0, -inf, inf and NaN."""
    n = draw(st.sampled_from([0, 1, 2, 3, 400]) | st.integers(0, 40))
    pool = draw(st.lists(
        st.sampled_from([-math.inf, -0.0, 0.0, 1.0, math.inf, math.nan])
        | st.floats(-2.0, 2.0), min_size=1, max_size=6))
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice
    return pick(np.array(pool), (n, draw(st.integers(1, 3))))


@settings(max_examples=300)
@pytest.mark.filterwarnings(INF_SPANS)
@given(one_front_sets())
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
@example(np.array([[-math.inf], [0.5], [math.inf], [math.nan]]))
def test_one_front_crowding_equals_the_per_front_reference(objs):
    ranks = np.zeros(len(objs), dtype=np.int64)
    assert optimizer._crowding(objs, ranks).tobytes() == \
        front_crowding(objs).tobytes()
