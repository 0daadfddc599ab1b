"""Evolutionary multiobjective search over the workload split.

NSGA-II scheme: fast non-dominated sorting, crowding distance, binary
tournament selection, blend crossover and Gaussian mutation on the single
decision variable r in [0, 1].  Candidates whose fog power lands above
the TDP are handled with constrained dominance (always ranked below every
feasible candidate, among themselves by violation size).

`brute_force_front` evaluates a regular r-grid and keeps the exact
non-dominated subset; it serves as the independent oracle for `optimize`.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import model
from .model import MAX_GRID_POINTS, ObjectiveVector, _require, _require_int

if TYPE_CHECKING:
    import numpy as np

    from .scenario import Scenario


# largest population: a generation that `_one_trade_off` cannot settle
# compares every pair of the 2n parents and children, so a run at the cap
# peaks near 170 MiB, against 36 MiB when every generation is one front
_MAX_POPULATION = 4000
# largest generation count: the loop has no other stop, so an unbounded
# count runs until the process is killed
_MAX_GENERATIONS = 100_000
# largest population_size**2 * generations, since ranking work grows with
# the square of the population: 100 generations at the population cap
_MAX_SEARCH_WORK = _MAX_POPULATION ** 2 * 100


class NoFeasibleSolution(Exception):
    """Every sampled workload split violated the TDP bound."""


@dataclass(eq=False, repr=False)
class OptProblem:
    """The search problem: the scenario whose split ``r`` is searched."""

    scenario: "Scenario"


@dataclass(frozen=True, eq=False, repr=False)
class OptConfig:
    """NSGA-II settings; each is checked when the config is made."""

    population_size: int = 100
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "generations"):
            _require_int(getattr(self, name), name)
        _require(4 <= self.population_size <= _MAX_POPULATION
                 and not self.population_size % 2,
                 f"must be even and within [4, {_MAX_POPULATION}]",
                 "population_size")
        _require(1 <= self.generations <= _MAX_GENERATIONS,
                 f"must be within [1, {_MAX_GENERATIONS}]", "generations")
        limit = _MAX_SEARCH_WORK // self.population_size ** 2
        _require(self.generations <= limit, f"must be at most {limit} at "
                 f"population_size {self.population_size}", "generations")
        for name in ("crossover_rate", "mutation_rate"):
            _require(0.0 <= getattr(self, name) <= 1.0,
                     "must be within [0, 1]", name)
        _require(math.isfinite(self.mutation_sigma) and self.mutation_sigma > 0,
                 "must be finite and > 0", "mutation_sigma")
        # random.Random seeds with abs(seed): -1 would repeat seed 1's run
        _require_int(self.seed, "seed", 0)


@dataclass(repr=False)
class ParetoFront:
    """Ranked candidate set; members sorted by (rank, -crowding)."""

    members: list[tuple[float, ObjectiveVector]]
    ranks: list[int]
    crowding: list[float]

    def rank_zero(self) -> list[tuple[float, ObjectiveVector]]:
        return [m for m, rk in zip(self.members, self.ranks) if rk == 0]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    _require(len(a) == len(b), "must have equal length", "a, b")
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def _count_dtype(n: int) -> type:
    """The narrowest of int16 and int32 that holds every count up to n."""
    import numpy as np
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values: equal values share a
    rank, and the ranks order as the values do."""
    import numpy as np
    inverse = np.unique(values, return_inverse=True)[1]
    return inverse.astype(_count_dtype(len(values)))


def _no_worse_counts(objs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean matrix M with M[i, j] true iff point i is no worse than
    point j in every objective, and each point's dominator count.

    Each objective is compared through its dense ranks, which order as the
    values do and compare faster than floats.  The points no worse than j
    are its dominators and the points equal to it, j included, so its
    count is its column sum less its equals.
    """
    import numpy as np
    n = len(objs)
    ranks = [_dense_ranks(col) for col in objs.T]
    le = np.less_equal.outer(ranks[0], ranks[0])
    for col in ranks[1:]:
        le &= np.less_equal.outer(col, col)
    # equal points share every dense rank, so they share one key: the
    # ranks as the digits of a base-n number, re-ranked before it overflows
    key = ranks[0].astype(np.int64)
    for col in ranks[1:]:
        if (int(key.max(initial=0)) + 1) * n > 2 ** 63:
            key = _dense_ranks(key).astype(np.int64)
        key = key * n + col
    inverse, equal = np.unique(key, return_inverse=True, return_counts=True)[1:]
    # a bool sums as int64; its uint8 view sums into the narrow counts
    counts = le.view(np.uint8).sum(axis=0, dtype=_count_dtype(n))
    counts -= equal[inverse]
    return le, counts


def _one_trade_off(objs: np.ndarray) -> bool:
    """Whether no point dominates another, from one sort by the first
    objective (Kung, Luccio & Preparata, JACM 1975): it holds when each
    point equals its predecessor, or rises strictly in the first objective
    and falls strictly in another, the same one at every step.  Then any
    two distinct points trade the first objective against that one.
    Two distinct points with one first objective fail in either order, so
    the sort need not be stable.
    """
    import numpy as np
    # one row per objective, the points in order: each comparison and
    # reduction runs along a contiguous row
    ordered = objs.T.take(objs[:, 0].argsort(), axis=1)
    before, after = ordered[:, :-1], ordered[:, 1:]
    same = (before == after).all(axis=0)
    return bool(((after[0] > before[0]) | same).all()
                and ((after[1:] < before[1:]) | same).all(axis=1).any())


def _ranks(objs: np.ndarray) -> np.ndarray:
    """Non-domination ranks.  All are 0 when `_one_trade_off` holds;
    otherwise fronts are peeled off the no-worse matrix: a front's rows
    are subtracted from the counts, since a front member no worse than an
    unranked point dominates it (its equals share a front).
    """
    import numpy as np
    if _one_trade_off(objs):
        return np.zeros(len(objs), dtype=np.int64)
    le, counts = _no_worse_counts(objs)
    ranks = np.full(len(counts), -1, dtype=np.int64)
    current, remaining = 0, len(counts)
    while remaining:
        front = (counts == 0) & (ranks == -1)
        if not front.any():  # pragma: no cover - defensive
            raise RuntimeError("non-dominated sort failed to make progress")
        ranks[front] = current
        remaining -= int(np.count_nonzero(front))
        if remaining:
            counts -= le[front].view(np.uint8).sum(axis=0, dtype=counts.dtype)
        current += 1
    return ranks


def _points(points: Sequence[Sequence[float]], name: str) -> np.ndarray:
    """`points` as an n x m finite float array, m >= 1; shape (0,) if none."""
    import numpy as np
    rows = model._float_array(points)
    _require(rows.shape == (0,) or rows.ndim == 2 and rows.shape[1] > 0,
             "must be vectors of numbers of one common length >= 1", name)
    _require(np.isfinite(rows).all(), "must have finite coordinates", name)
    return rows


def non_dominated_sort(points: Sequence[Sequence[float]]) -> list[int]:
    """Per-point non-domination rank; rank 0 is the non-dominated set."""
    objs = _points(points, "points")
    _require(len(objs) > 0, "must be nonempty", "points")
    return _ranks(objs).tolist()


def _crowding(objs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """`crowding_distance` of each point within its rank.  One stable sort
    per objective, by rank and then value, puts each rank at the same
    positions in every objective's order."""
    import numpy as np
    if len(ranks) and not ranks.any():
        # one front: a stable sort by value, each end infinite, and every
        # point between them adds its gap unless the span is 0 or NaN
        dist = np.zeros(len(ranks))
        for column in objs.T:
            order = column.argsort(kind="stable")
            values = column[order]
            dist[order[0]] = dist[order[-1]] = np.inf
            span = values[-1] - values[0]
            if span > 0:
                dist[order[1:-1]] += (values[2:] - values[:-2]) / span
        return dist
    # a rank that no point holds (`optimize` drops repeated splits) counts
    # 0: its first and last are other ranks' edges (-1 the very last)
    counts = np.bincount(ranks)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    edge = np.concatenate((first, last))
    dist = np.zeros(len(ranks))
    for column in objs.T:
        order = np.lexsort((column, ranks))
        values = column[order]
        dist[order[edge]] = np.inf
        span = np.repeat(values[last] - values[first], counts)
        span[edge] = 0  # an edge adds no gap
        at = np.flatnonzero(span > 0)
        dist[order[at]] += (values[at + 1] - values[at - 1]) / span[at]
    return dist


def crowding_distance(front: Sequence[Sequence[float]]) -> list[float]:
    """Crowding distances within one front (Deb et al. 2002): in each
    objective, the first and last point in ascending order (ties by index)
    get infinity, and each point between them adds the gap between its two
    neighbours over the objective's range, unless that range is 0.
    So a front of one or two points is all infinity."""
    import numpy as np
    objs = _points(front, "front")
    with np.errstate(over="ignore"):
        _require(not len(objs) or np.isfinite(np.ptp(objs, axis=0)).all(),
                 "must have a finite range in each objective", "front")
    return _crowding(objs, np.zeros(len(objs), dtype=np.int64)).tolist()


# ---------------------------------------------------------------------------
# NSGA-II machinery
# ---------------------------------------------------------------------------

class _Population(NamedTuple):
    r: np.ndarray
    objs: np.ndarray        # n x 3 objective vectors
    feasible: np.ndarray
    violation: np.ndarray   # fog power above the TDP; 0 where feasible

    def take(self, idx) -> "_Population":
        return _Population(*(field[idx] for field in self))

    def concat(self, other: "_Population") -> "_Population":
        import numpy as np
        return _Population(*(np.concatenate(pair) for pair in zip(self, other)))


def _evaluate(problem: OptProblem, r: np.ndarray) -> _Population:
    import numpy as np
    ev = model.evaluate(problem.scenario, r)
    objs = np.column_stack((ev.throughput_bps, ev.fog_power_w,
                            ev.avg_latency_s))
    violation = np.where(ev.feasible, 0.0,
                         ev.fog_power_w - problem.scenario.fog.tdp)
    return _Population(ev.r, objs, ev.feasible, violation)


def _constrained_ranks(pop: _Population) -> np.ndarray:
    """Non-domination ranks under Deb-style constrained dominance: a
    feasible member dominates by its objectives and dominates every
    infeasible one; an infeasible member dominates those with a larger
    violation, which excludes the feasible ones (violation 0).

    So the feasible members rank by their objectives alone, and the
    infeasible ones follow the last feasible rank in the order of their
    violations, equal violations sharing a rank: the ranks that peeling
    the constrained dominance matrix gives.  With no infeasible member
    these are the objectives' ranks, returned without the split.
    """
    import numpy as np
    feasible = pop.feasible
    if feasible.all():
        return _ranks(pop.objs)
    ranks = np.empty(len(feasible), dtype=np.int64)
    ranks[feasible] = _ranks(pop.objs[feasible])
    first = ranks[feasible].max(initial=-1) + 1
    ranks[~feasible] = first + _dense_ranks(pop.violation[~feasible])
    return ranks


def _crowd(pop: _Population, ranks: np.ndarray) -> np.ndarray:
    """`_crowding` within each rank, where an infeasible member's
    coordinates are its violation, repeated in every objective."""
    import numpy as np
    objs = pop.objs
    if not pop.feasible.all():
        objs = np.where(pop.feasible[:, None], objs, pop.violation[:, None])
    return _crowding(objs, ranks)


def _clip(x: np.ndarray) -> np.ndarray:
    """``min(max(x, 0.0), 1.0)`` elementwise: -0.0 and NaN pass as they are."""
    import numpy as np
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _draws(rng: random.Random, n: int) -> np.ndarray:
    """The next n ``rng.random()`` values, in order, called from one
    C-level loop rather than a Python one."""
    import numpy as np
    return np.fromiter(starmap(rng.random, repeat((), n)), float, n)


def _offspring(rng: random.Random, parents: np.ndarray, ranks: np.ndarray,
               crowding: np.ndarray, cfg: OptConfig) -> np.ndarray:
    """One generation's children, in pairs: binary tournaments, blend
    crossover and Gaussian mutation, each clipped to [0, 1].

    Each pair takes 11 ``random()`` values, used or not: four tournament
    uniforms, the crossover test and two blend weights, each child's
    mutation test, and a Box-Muller pair (angle, then radius, as CPython's
    ``gauss`` draws them).  Array operations do a member-by-member loop's
    IEEE operations, so each child is that loop's float, as the tests check.
    """
    import numpy as np
    u = _draws(rng, 11 * (cfg.population_size // 2)).reshape(-1, 11)
    # a tournament picks i and j as int(u * n): the lower rank wins, then
    # the larger crowding, else i.  int(random() * n) is uniform up to a
    # relative bias of order n / 2**53, below 2**-41 at the population cap
    i, j = (u[:, :4] * len(ranks)).astype(np.int64).reshape(-1, 2).T
    ri, rj, ci, cj = ranks[i], ranks[j], crowding[i], crowding[j]
    # ~(ci >= cj) is ci < cj or a NaN on either side: (ci != cj) & ~(ci > cj)
    j_wins = np.where(ri != rj, ri > rj, ~(ci >= cj))
    pairs = parents[np.where(j_wins, j, i)].reshape(-1, 2)
    a, b = pairs.T
    # min(a, b) and max(a, b) return a unless b is smaller, or larger
    spread = np.abs(a - b)
    low = np.where(b < a, b, a) - 0.5 * spread
    width = np.where(b > a, b, a) + 0.5 * spread - low
    pairs = np.where(u[:, 4:5] < cfg.crossover_rate,
                     low[:, None] + width[:, None] * u[:, 5:7], pairs)
    children = _clip(pairs.ravel())
    # child k of the flat order is child k % 2 of pair k // 2, and it
    # mutates by the cosine (k even) or sine of its pair's Box-Muller pair,
    # only through math, value by value: np.log rounds some values otherwise
    mutants = np.flatnonzero(u[:, 7:9] < cfg.mutation_rate)
    sigma = cfg.mutation_sigma
    children[mutants] = [
        min(max(x + (math.sin if k & 1 else math.cos)(2.0 * math.pi * angle)
                * math.sqrt(-2.0 * math.log(1.0 - y)) * sigma, 0.0), 1.0)
        for k, x, (angle, y) in zip(mutants.tolist(),
                                    children[mutants].tolist(),
                                    u[mutants >> 1, 9:].tolist())]
    return children


def optimize(problem: OptProblem, cfg: OptConfig) -> ParetoFront:
    """Run the NSGA-II loop and return the ranked final population.

    Deterministic given cfg.seed.  Only feasible members are returned,
    one per split; raises NoFeasibleSolution when the final population
    contains none.
    Each generation's offspring are evaluated as one batch after all of
    them are drawn; evaluation draws nothing from the RNG.

    Ranks and crowding carry over from one generation's selection to the
    next tournaments, as Deb et al. (2002) assign them while filling the
    next population.  Every dominator of a selected member has a lower
    rank, so it is selected too, and the member's rank among the selected
    is unchanged.  Every draw is ``random()`` of one
    ``random.Random(cfg.seed)``, whose sequence CPython keeps for a seed,
    so the result does not depend on the numpy version.
    """
    import numpy as np
    rng = random.Random(int(cfg.seed))  # random.Random refuses a numpy int
    size = cfg.population_size
    pop = _evaluate(problem, _draws(rng, size))
    ranks = _constrained_ranks(pop)
    crowding = _crowd(pop, ranks)

    for _ in range(cfg.generations):
        children = _offspring(rng, pop.r, ranks, crowding, cfg)
        combined = pop.concat(_evaluate(problem, children))
        ranks = _constrained_ranks(combined)
        crowding = _crowd(combined, ranks)
        keep = np.lexsort((-crowding, ranks))[:size]
        pop, ranks, crowding = combined.take(keep), ranks[keep], crowding[keep]

    if not pop.feasible.any():
        raise NoFeasibleSolution(
            "no workload split within the TDP bound was found")
    # infeasible members never dominate feasible ones, so the feasible
    # members keep their ranks without the infeasible; a repeated split
    # has its first member's objectives, so dropping it moves no rank
    pop, ranks = pop.take(pop.feasible), ranks[pop.feasible]
    first = np.unique(pop.r, return_index=True)[1]
    return _build_front(pop.take(first), ranks[first])


def _build_front(pop: _Population, ranks: np.ndarray) -> ParetoFront:
    import numpy as np
    crowding = _crowding(pop.objs, ranks)
    order = np.lexsort((-crowding, ranks))
    r, objs = pop.r[order].tolist(), pop.objs[order].tolist()
    return ParetoFront(
        members=[(x, ObjectiveVector(*vec)) for x, vec in zip(r, objs)],
        ranks=ranks[order].tolist(),
        crowding=crowding[order].tolist(),
    )


def grid_steps(grid_step: float) -> int:
    """brute_force_front's r-grid steps, round(1/step); ValidationError for
    a step that is not a number, outside (0, 1] or of more than
    MAX_GRID_POINTS points."""
    _require(isinstance(grid_step, numbers.Real)
             and not isinstance(grid_step, bool), "must be a number",
             "grid_step")
    _require(0 < grid_step <= 1, "must be within (0, 1]", "grid_step")
    # 1 / 5e-324 is inf, which round refuses
    steps = max(1, round(min(1.0 / grid_step, MAX_GRID_POINTS)))
    _require(steps < MAX_GRID_POINTS, f"must give at most {MAX_GRID_POINTS} "
             f"grid points, got {grid_step!r}", "grid_step")
    return steps


def brute_force_front(problem: OptProblem, grid_step: float) -> ParetoFront:
    """Exact non-dominated subset of grid_steps(step) + 1 evenly spaced r
    over [0, 1] (oracle path), less infeasible points: empty when no grid
    point is feasible."""
    import numpy as np
    pop = _evaluate(problem, np.linspace(0.0, 1.0, grid_steps(grid_step) + 1))
    pop = pop.take(pop.feasible)
    if not len(pop.r):
        return ParetoFront(members=[], ranks=[], crowding=[])
    # the non-dominated subset is rank 0 by construction
    pop = pop.take(_no_worse_counts(pop.objs)[1] == 0)
    return _build_front(pop, np.zeros(len(pop.r), dtype=np.int64))


# ---------------------------------------------------------------------------
# Hypervolume (minimization, 2 or 3 objectives)
# ---------------------------------------------------------------------------

def hypervolume(points: Sequence[Sequence[float]],
                reference: Sequence[float]) -> float:
    """Dominated hypervolume of a point set w.r.t. a reference (minimization).

    Supports 2 and 3 objectives; points at or beyond the reference in any
    coordinate, ``inf`` included, contribute nothing.  Raises
    ValidationError for coordinates that are not floats, for a point whose
    length is not the reference's, for non-finite coordinates (a NaN
    anywhere, a reference that is not finite, or a point within the
    reference that is not), and for a volume beyond the float range.  One
    sweep in ascending third objective (Fonseca, Paquete & Lopez-Ibanez,
    CEC 2006) keeps the 2-D staircase of the points seen so far and its
    area, so a set of n points costs O(n log n) comparisons.
    """
    ref = pts = None
    with suppress(TypeError, ValueError, OverflowError):
        ref = tuple(map(float, reference))
        pts = [tuple(map(float, p)) for p in points]
    _require(ref is not None, "must be a sequence of floats", "reference")
    _require(pts is not None, "must be sequences of floats", "points")
    _require(all(len(p) == len(ref) for p in pts),
             "must each be of equal length to the reference", "points")
    _require(all(map(math.isfinite, ref)), f"must be finite, got {ref!r}",
             "reference")
    within = [p for p in pts if all(v < r for v, r in zip(p, ref))]
    _require(not any(map(math.isnan, chain(*pts)))
             and all(map(math.isfinite, chain(*within))),
             "must be finite within the reference, and never NaN", "points")
    pts = within
    if not pts:
        return 0.0
    if len(ref) == 2:
        # one slab of depth 1.0 at z = 0: its volume is the area, exactly
        ref += (1.0,)
        pts = [p + (0.0,) for p in pts]
    _require(len(ref) == 3, "must have 2 or 3 objectives", "reference")
    pts.sort(key=lambda p: p[2])
    # the staircase: mutually non-dominated points, x ascending and y
    # descending, between two sentinels that nothing dominates or removes
    xs, ys = [-math.inf, ref[0]], [ref[1], -math.inf]
    area = volume = 0.0
    prev_z = pts[0][2]
    for x, y, z in pts:
        volume += area * (z - prev_z)
        prev_z = z
        lo = bisect_left(xs, x)
        if ys[bisect_right(xs, x, lo) - 1] <= y:
            continue  # weakly dominated by a point with no larger x
        # the area only this point covers, in vertical strips that end at
        # the next staircase x: up to the left neighbour's y, then up to
        # the y of each point it removes; no strip is negative, so the
        # running area never cancels
        top, left, end = ys[lo - 1], x, lo
        while ys[end] >= y:
            area += (xs[end] - left) * (top - y)
            left, top = xs[end], ys[end]
            end += 1
        area += (xs[end] - left) * (top - y)
        xs[lo:end] = [x]
        ys[lo:end] = [y]
    volume += area * (ref[2] - prev_z)
    _require(math.isfinite(volume), f"must be finite, got {volume!r}: the "
             "box of the points and the reference overflows", "hypervolume")
    return volume
