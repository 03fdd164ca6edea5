"""Placement of control modules onto edge servers.

The problem is a small generalized assignment: each module may run on at
most one server, servers have finite capacity headroom, and the objective
is the summed affinity of the chosen placements. Instances stay tiny (a
handful of servers and modules), so an exact branch and bound is
affordable; a greedy heuristic covers anything larger. The scores do not
depend on load, so prepare builds them once per instance and the solvers
take them with the current headrooms.

A re-solve usually meets headrooms it has met before. The exact search reads
a headroom h only through comparisons before + load <= h + CAPACITY_SLACK,
where before + load is always one subset of the module loads summed in
module order from 0.0. prepare sorts all 2^m - 1 such sums, duplicates kept,
and solve keys each call by how many of them fit under each server's limit:
two headroom lists with equal keys take every branch alike, so they get the
same plan and the same objective bits, and solve_exact runs once per key.
The table holds 2^m - 1 floats; the enumeration guard bounds m by 23 (one
server), 64 MiB. Instances past the guard get no table and go to greedy.

A plan is the choice vector both solvers build, one resource index (or -1)
per module, so no module can be placed twice; the binary placement matrix
that the JSON output shows is derived from it. Instances are checked where
they are built, by load_instance, instance_from_dict and the run config's
allocator section; the solvers trust them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EXACT_SEARCH_LIMIT = 10**7
CAPACITY_SLACK = 1e-9  # float-tolerant feasibility comparisons


class AllocationError(ValueError):
    """Malformed instance."""


@dataclass(frozen=True)
class EdgeResource:
    id: str
    capacity: float
    current_load: float = 0.0
    bandwidth_mbps: float = 100.0
    compute_rating: float = 1.0

    def __post_init__(self):
        if self.capacity < 0:
            raise AllocationError(f"resource {self.id}: capacity must be >= 0")
        if self.current_load < 0:
            raise AllocationError(f"resource {self.id}: current_load must be >= 0")
        if self.bandwidth_mbps <= 0:
            raise AllocationError(f"resource {self.id}: bandwidth must be positive")
        if not (0.0 < self.compute_rating <= 1.0):
            raise AllocationError(f"resource {self.id}: compute_rating must be in (0,1]")

    @property
    def headroom(self) -> float:
        return self.capacity - self.current_load


@dataclass(frozen=True)
class ControlModule:
    id: str
    load: float
    intensity: float = 0.5

    def __post_init__(self):
        if self.load <= 0:
            raise AllocationError(f"module {self.id}: load must be positive")
        if not (0.0 < self.intensity <= 1.0):
            raise AllocationError(f"module {self.id}: intensity must be in (0,1]")


@dataclass(frozen=True)
class AffinityWeights:
    bandwidth: float = 0.5
    cpu: float = 0.5

    def __post_init__(self):
        if self.bandwidth < 0 or self.cpu < 0:
            raise AllocationError("affinity weights must be >= 0")
        if self.bandwidth + self.cpu <= 0:
            raise AllocationError("at least one affinity weight must be positive")


def affinity(
    module: ControlModule,
    resource: EdgeResource,
    weights: AffinityWeights,
    max_bandwidth: float,
) -> float:
    """Placement score: weighted bandwidth and compute quality, scaled by intensity.

    Bandwidth is normalized by the instance-wide maximum so the score is
    unit-free; more intense modules amplify the gap between servers.
    """
    quality = (
        weights.bandwidth * resource.bandwidth_mbps / max_bandwidth
        + weights.cpu * resource.compute_rating
    )
    return quality * (1.0 + module.intensity)


@dataclass(frozen=True)
class AssignmentPlan:
    """Choice vector with its objective value.

    choice[j] = i places module j on resource i; choice[j] = -1 leaves it
    unassigned (it runs at the cloud).
    """

    resource_ids: tuple[str, ...]
    module_ids: tuple[str, ...]
    choice: tuple[int, ...]
    objective: float

    @property
    def x(self) -> tuple[tuple[int, ...], ...]:
        """The binary placement matrix: x[i][j] = 1 places module j on resource i."""
        return tuple(tuple(int(c == i) for c in self.choice) for i in range(len(self.resource_ids)))

    def assignment(self) -> dict[str, str]:
        """module id -> resource id for every placed module, in x's row-major order."""
        placed = sorted((i, j) for j, i in enumerate(self.choice) if i >= 0)
        return {self.module_ids[j]: self.resource_ids[i] for i, j in placed}

    def unassigned(self) -> list[str]:
        return [m for m, c in zip(self.module_ids, self.choice) if c < 0]


def validate(
    plan: AssignmentPlan,
    modules: list[ControlModule],
    resources: list[EdgeResource],
) -> list[str]:
    """Capacity violations in the plan, empty iff it is feasible. The plan's
    ids are trusted to be the instance's: it was solved from this instance."""
    violations = []
    for i, res in enumerate(resources):
        assigned = sum(modules[j].load for j, c in enumerate(plan.choice) if c == i)
        total = res.current_load + assigned
        if total > res.capacity + CAPACITY_SLACK:
            violations.append(
                f"resource {res.id} over capacity: {total:.6f} > {res.capacity:.6f}"
            )
    return violations


def check_instance(modules: list[ControlModule], resources: list[EdgeResource]) -> None:
    """Reject an instance with no resources or with duplicate ids."""
    if not resources:
        raise AllocationError("instance has no resources")
    if len({r.id for r in resources}) != len(resources):
        raise AllocationError("duplicate resource ids")
    if len({m.id for m in modules}) != len(modules):
        raise AllocationError("duplicate module ids")


@dataclass(frozen=True)
class ScoredInstance:
    """The part of an instance that does not depend on load, built by prepare.

    score[i][j] is the affinity of module j on resource i; ranked[j] lists
    the resources by descending score[i][j], lower index first on equal
    scores, and best[j] is the first of those scores. greedy_order is the
    heaviest-first module order, load ties by module id. sums is the exact
    solver's sorted subset-sum table, None past the enumeration guard, and
    plans holds the plan solve has found for each key (see solve).
    """

    resource_ids: tuple[str, ...]
    module_ids: tuple[str, ...]
    loads: tuple[float, ...]
    score: tuple[tuple[float, ...], ...]
    ranked: tuple[tuple[int, ...], ...]
    best: tuple[float, ...]
    greedy_order: tuple[int, ...]
    sums: np.ndarray | None = field(compare=False, repr=False)
    plans: dict[bytes, AssignmentPlan] = field(compare=False, repr=False)


def _subset_sums(loads: tuple[float, ...]) -> np.ndarray:
    """Every nonempty subset's loads summed in module order from 0.0, as solve_exact
    sums them, sorted with duplicates kept."""
    sums = np.empty(2 ** len(loads) - 1)
    size = 0
    for load in loads:
        load = 0.0 + load  # an int load as the search adds it, a float one unchanged
        # the subsets that end at this module: each earlier one plus it, then it alone
        np.add(sums[:size], load, out=sums[size:2 * size])
        sums[2 * size] = load
        size = 2 * size + 1
    sums.sort()
    return sums


def prepare(
    modules: list[ControlModule],
    resources: list[EdgeResource],
    weights: AffinityWeights,
) -> ScoredInstance:
    """Score an instance once; between re-solves only the headrooms change."""
    exact = (len(resources) + 1) ** len(modules) <= EXACT_SEARCH_LIMIT
    loads = tuple(m.load for m in modules)
    max_bw = max(r.bandwidth_mbps for r in resources)
    score = tuple(tuple(affinity(m, r, weights, max_bw) for m in modules) for r in resources)
    ranked = tuple(
        tuple(sorted(range(len(resources)), key=lambda i: (-score[i][j], i)))
        for j in range(len(modules))
    )
    return ScoredInstance(
        resource_ids=tuple(r.id for r in resources),
        module_ids=tuple(m.id for m in modules),
        loads=loads,
        score=score,
        ranked=ranked,
        best=tuple(score[order[0]][j] for j, order in enumerate(ranked)),
        greedy_order=tuple(sorted(range(len(modules)), key=lambda j: (-modules[j].load, modules[j].id))),
        sums=_subset_sums(loads) if exact else None,
        plans={},
    )


def solve_exact(scored: ScoredInstance, headroom: list[float]) -> AssignmentPlan:
    """The best plan over all (n+1)^m placements, by branch and bound.

    headroom[i] is resource i's capacity minus its current load. Ties on the
    objective resolve to the lexicographically smallest row-major placement
    matrix, which keeps the result unique.

    Each module tries its servers best first, then no server. A branch is
    cut when its bound, the running total plus each remaining module's best
    score added left to right, is below the best leaf so far. Float addition
    is monotone, so the bound is at least every leaf total under it: no tied
    leaf is cut, and the plan and objective equal full enumeration's.
    """
    n, m = len(scored.resource_ids), len(scored.module_ids)
    loads, score, ranked, best = scored.loads, scored.score, scored.ranked, scored.best
    limit = [h + CAPACITY_SLACK for h in headroom]

    # choice[j] = resource index for module j, or -1 for unassigned; used[i]
    # is restored, not decremented, so it is the path's loads summed in
    # module order, as full enumeration sums them
    best_score = float("-inf")
    best_choice: list[int] = []
    choice = [-1] * m
    used = [0.0] * n

    def flat_key(ch: list[int]) -> tuple[int, ...]:
        return tuple(1 if ch[j] == i else 0 for i in range(n) for j in range(m))

    def descend(j: int, total: float) -> None:
        nonlocal best_score, best_choice
        if j == m:
            # the first leaf always beats -inf; the matrix key only breaks ties
            if total > best_score or (
                total == best_score and flat_key(choice) < flat_key(best_choice)
            ):
                best_score = total
                best_choice = choice.copy()
            return
        bound = total
        for b in best[j:]:
            bound += b
        if bound < best_score:
            return
        load = loads[j]
        for i in ranked[j]:
            before = used[i]
            if before + load <= limit[i]:
                choice[j] = i
                used[i] = before + load
                descend(j + 1, total + score[i][j])
                used[i] = before
        choice[j] = -1
        descend(j + 1, total)

    descend(0, 0.0)
    return AssignmentPlan(scored.resource_ids, scored.module_ids, tuple(best_choice), best_score)


def solve_greedy(scored: ScoredInstance, headroom: list[float]) -> AssignmentPlan:
    """Place heaviest modules first, each on its best feasible server.

    Load ties fall back to module id; among feasible servers the highest
    affinity wins, earliest in instance order on ties.
    """
    choice = [-1] * len(scored.module_ids)
    used = [0.0] * len(scored.resource_ids)
    total = 0.0
    for j in scored.greedy_order:
        load = scored.loads[j]
        for i in scored.ranked[j]:
            if used[i] + load <= headroom[i] + CAPACITY_SLACK:
                choice[j] = i
                used[i] += load
                total += scored.score[i][j]
                break
    return AssignmentPlan(scored.resource_ids, scored.module_ids, tuple(choice), total)


def solve(scored: ScoredInstance, headroom: list[float]) -> AssignmentPlan:
    """Exact when the enumeration guard allows it, greedy otherwise.

    An exact call is keyed by the number of subset sums in scored.sums that
    fit under each server's limit, and a key met before returns the plan it
    got then. The key is exact: solve_exact compares a sum s with a limit
    only by s <= limit, and with the sums sorted, equal counts mean the same
    sums pass, so equal keys give equal plans, objective bits included.
    """
    if scored.sums is None:
        return solve_greedy(scored, headroom)
    key = np.searchsorted(scored.sums, [h + CAPACITY_SLACK for h in headroom], side="right").tobytes()
    plan = scored.plans.get(key)
    if plan is None:
        plan = scored.plans[key] = solve_exact(scored, headroom)
    return plan


def instance_from_dict(data: dict) -> tuple[list[ControlModule], list[EdgeResource], AffinityWeights]:
    """Build and check an instance; any fault in it is an AllocationError."""
    try:
        resources = [EdgeResource(**r) for r in data["resources"]]
        modules = [ControlModule(**m) for m in data["modules"]]
        weights = AffinityWeights(**data.get("weights", {}))
        check_instance(modules, resources)
    except (KeyError, TypeError) as exc:
        raise AllocationError(f"malformed instance: {exc}") from exc
    return modules, resources, weights


def plan_to_dict(plan: AssignmentPlan) -> dict:
    return {
        "resource_ids": list(plan.resource_ids),
        "module_ids": list(plan.module_ids),
        "x": [list(row) for row in plan.x],
        "objective": plan.objective,
        "assignment": plan.assignment(),
        "unassigned": plan.unassigned(),
    }


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise AllocationError(f"expected a finite number, got {text}")
    return value


def _finite_int(text: str) -> int:
    # the solver mixes every number with floats, so an int must fit one; it stays an int
    _finite(text)
    return int(text)


def load_instance(path) -> tuple[list[ControlModule], list[EdgeResource], AffinityWeights]:
    """Read an instance file; any fault in the file is an AllocationError naming it."""
    try:
        with open(path) as f:
            # NaN and Infinity reach parse_constant, 1e999 parse_float, 400-digit ints parse_int
            data = json.load(f, parse_constant=_finite, parse_float=_finite, parse_int=_finite_int)
            return instance_from_dict(data)
    except OSError as exc:
        raise AllocationError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and AllocationError
        raise AllocationError(f"{path}: {exc}") from exc
