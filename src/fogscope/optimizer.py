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
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import model
from .model import ObjectiveVector, _require

if TYPE_CHECKING:
    import numpy as np

    from .scenario import Scenario


# largest population: ranking compares every pair of the 2n parents and
# children, and a generation at the cap peaks near 162 MiB
_MAX_POPULATION = 4000
# largest generation count: the loop has no other stop, so an unbounded
# count runs until the process is killed
_MAX_GENERATIONS = 100_000
# largest population_size**2 * generations, since ranking work grows with
# the square of the population: 100 generations at the population cap
_MAX_SEARCH_WORK = _MAX_POPULATION ** 2 * 100


class NoFeasibleSolution(Exception):
    """Every sampled workload split violated the TDP bound."""


@dataclass(frozen=True)
class OptProblem:
    scenario: "Scenario"


@dataclass(frozen=True)
class OptConfig:
    population_size: int = 100
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
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
        _require(self.seed >= 0, "must be >= 0", "seed")


@dataclass(frozen=True)
class ParetoFront:
    """Ranked candidate set; members sorted by (rank, -crowding)."""

    members: list[tuple[float, ObjectiveVector]]
    ranks: list[int]
    crowding: list[float]

    def rank_zero(self) -> list[tuple[float, ObjectiveVector]]:
        return [m for m, rk in zip(self.members, self.ranks) if rk == 0]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return not_worse and strictly_better


def _dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """Boolean matrix M with M[i, j] true iff point i dominates point j.

    i dominates j when i is no worse everywhere (``le[i, j]``) and j is
    not also no worse everywhere, which would make the two equal.
    """
    import numpy as np
    cols = np.ascontiguousarray(objs.T)
    le = np.less_equal.outer(cols[0], cols[0])
    for col in cols[1:]:
        le &= np.less_equal.outer(col, col)
    dom = np.invert(le.T, order="C")
    dom &= le
    return dom


def _ranks_from_matrix(dom: np.ndarray) -> np.ndarray:
    """Peel non-dominated fronts off a dominance matrix."""
    import numpy as np
    n = dom.shape[0]
    dominator_count = dom.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    current = 0
    remaining = n
    while remaining:
        front = (dominator_count == 0) & (ranks == -1)
        if not front.any():  # pragma: no cover - defensive
            raise RuntimeError("non-dominated sort failed to make progress")
        ranks[front] = current
        dominator_count -= dom[front].sum(axis=0)
        remaining -= int(front.sum())
        current += 1
    return ranks


def non_dominated_sort(points: Sequence[Sequence[float]]) -> list[int]:
    """Per-point non-domination rank; rank 0 is the non-dominated set."""
    import numpy as np
    if len(points) == 0:
        raise ValueError("points must be nonempty")
    objs = np.asarray(points, dtype=float)
    return _ranks_from_matrix(_dominance_matrix(objs)).tolist()


def crowding_distance(front: Sequence[Sequence[float]]) -> list[float]:
    """Crowding distances within one front.

    Boundary points of every objective get infinity; interior points sum
    the neighbor gaps normalized by the objective range.  An objective
    with zero range contributes nothing (avoids 0/0).
    """
    import numpy as np
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    objs = np.asarray(front, dtype=float)
    dist = np.zeros(n)
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = hi - lo
        if span > 0:
            gaps = (objs[order[2:], m] - objs[order[:-2], m]) / span
            dist[order[1:-1]] += gaps
    return dist.tolist()


def _crowding_by_rank(points: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its own rank."""
    import numpy as np
    crowding = np.zeros(len(ranks))
    for rank in range(int(ranks.max()) + 1):
        idx = np.flatnonzero(ranks == rank)
        crowding[idx] = crowding_distance(points[idx])
    return crowding


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


def _constrained_dominance_matrix(pop: _Population) -> np.ndarray:
    """Deb-style constrained dominance across a population: a feasible
    member dominates by its objectives and dominates every infeasible
    one; an infeasible member dominates those with a larger violation,
    which excludes the feasible ones (violation 0)."""
    import numpy as np
    dom = _dominance_matrix(pop.objs)
    if pop.feasible.all():
        return dom
    viol = pop.violation
    return np.where(pop.feasible[:, None], dom | ~pop.feasible[None, :],
                    viol[:, None] < viol[None, :])


def _crowd(pop: _Population, ranks: np.ndarray) -> np.ndarray:
    import numpy as np
    # infeasible members crowd by their violation alone
    points = np.where(pop.feasible[:, None], pop.objs, pop.violation[:, None])
    return _crowding_by_rank(points, ranks)


def _tournament(rng: random.Random, ranks: list[int],
                crowding: list[float]) -> int:
    # int(random() * n) is uniform up to a relative bias of order
    # n / 2**53, below 2**-41 at the population cap
    n = len(ranks)
    i, j = int(rng.random() * n), int(rng.random() * n)
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def _blend_crossover(rng: random.Random, a: float, b: float,
                     rate: float) -> tuple[float, float]:
    if rng.random() < rate:
        spread = abs(a - b)
        low = min(a, b) - 0.5 * spread
        width = max(a, b) + 0.5 * spread - low
        a, b = low + width * rng.random(), low + width * rng.random()
    return min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)


def _mutate(rng: random.Random, x: float, rate: float,
            sigma: float) -> float:
    if rng.random() < rate:
        x += rng.gauss(0.0, sigma)
    return min(max(x, 0.0), 1.0)


def optimize(problem: OptProblem, cfg: OptConfig) -> ParetoFront:
    """Run the NSGA-II loop and return the ranked final population.

    Deterministic given cfg.seed.  Only feasible members are returned,
    one per split; raises NoFeasibleSolution when the final population
    contains none.
    Each generation's offspring are evaluated as one batch after all of
    them are drawn; evaluation draws nothing from the RNG.

    Ranks carry over from one generation's selection to the next: every
    dominator of a selected member has a lower rank, so it is selected
    too, and the member's rank among the selected is unchanged.  Only
    crowding is recomputed.  Every draw comes from one
    ``random.Random(cfg.seed)``, so the result does not depend on the
    numpy version.  CPython keeps ``random()``'s sequence for a seed;
    mutation also relies on ``gauss``, as `simulate`'s noisy uplink does.
    """
    import numpy as np
    rng = random.Random(cfg.seed)
    size = cfg.population_size
    pop = _evaluate(problem, np.array([rng.random() for _ in range(size)]))
    ranks = _ranks_from_matrix(_constrained_dominance_matrix(pop))

    for _ in range(cfg.generations):
        # plain lists: the tournaments read single entries
        rank_list = ranks.tolist()
        crowding = _crowd(pop, ranks).tolist()
        parents = pop.r.tolist()
        children: list[float] = []
        while len(children) < size:
            p1 = parents[_tournament(rng, rank_list, crowding)]
            p2 = parents[_tournament(rng, rank_list, crowding)]
            c1, c2 = _blend_crossover(rng, p1, p2, cfg.crossover_rate)
            children.append(_mutate(rng, c1, cfg.mutation_rate,
                                    cfg.mutation_sigma))
            children.append(_mutate(rng, c2, cfg.mutation_rate,
                                    cfg.mutation_sigma))
        combined = pop.concat(_evaluate(problem, np.array(children)))
        ranks = _ranks_from_matrix(_constrained_dominance_matrix(combined))
        keep = np.lexsort((-_crowd(combined, ranks), ranks))[:size]
        pop, ranks = combined.take(keep), ranks[keep]

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
    crowding = _crowding_by_rank(pop.objs, ranks)
    order = np.lexsort((-crowding, ranks))
    r, objs = pop.r[order].tolist(), pop.objs[order].tolist()
    return ParetoFront(
        members=[(x, ObjectiveVector(*vec)) for x, vec in zip(r, objs)],
        ranks=ranks[order].tolist(),
        crowding=crowding[order].tolist(),
    )


def brute_force_front(problem: OptProblem, grid_step: float) -> ParetoFront:
    """Exact non-dominated subset of a regular r-grid (oracle path).

    The grid is ``round(1/step) + 1`` evenly spaced points over [0, 1].
    Infeasible grid points are dropped; the result is empty when no grid
    point is feasible.
    """
    import numpy as np
    _require(0 < grid_step <= 1, "must be within (0, 1]", "grid_step")
    steps = max(1, round(1.0 / grid_step))
    pop = _evaluate(problem, np.linspace(0.0, 1.0, steps + 1))
    pop = pop.take(pop.feasible)
    if not len(pop.r):
        return ParetoFront(members=[], ranks=[], crowding=[])
    # the non-dominated subset is rank 0 by construction
    pop = pop.take(~_dominance_matrix(pop.objs).any(axis=0))
    return _build_front(pop, np.zeros(len(pop.r), dtype=np.int64))


# ---------------------------------------------------------------------------
# Hypervolume (minimization, 2 or 3 objectives)
# ---------------------------------------------------------------------------

def hypervolume(points: Sequence[Sequence[float]],
                reference: Sequence[float]) -> float:
    """Dominated hypervolume of a point set w.r.t. a reference (minimization).

    Supports 2 and 3 objectives; points at or beyond the reference in any
    coordinate contribute nothing, and the others must be finite.  One
    sweep in ascending third objective (Fonseca, Paquete & Lopez-Ibanez,
    CEC 2006) keeps the 2-D staircase of the points seen so far and its
    area, so a set of n points costs O(n log n) comparisons.
    """
    ref = tuple(float(v) for v in reference)
    pts = [tuple(float(v) for v in p) for p in points]
    if any(len(p) != len(ref) for p in pts):
        raise ValueError("points and reference must have equal length")
    pts = [p for p in pts if all(v < r for v, r in zip(p, ref))]
    if not pts:
        return 0.0
    if len(ref) == 2:
        # one slab of depth 1.0 at z = 0: its volume is the area, exactly
        ref += (1.0,)
        pts = [p + (0.0,) for p in pts]
    if len(ref) != 3:
        raise ValueError("hypervolume supports 2 or 3 objectives")
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
    return volume + area * (ref[2] - prev_z)
