import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloop.allocator import (
    CAPACITY_SLACK,
    AffinityWeights,
    AllocationError,
    AssignmentPlan,
    ControlModule,
    EdgeResource,
    affinity,
    instance_from_dict,
    load_instance,
    plan_to_dict,
    prepare,
    solve,
    solve_exact,
    solve_greedy,
    validate,
)

import oracles


def random_instance(rng, max_resources=3, max_modules=3):
    n = int(rng.integers(1, max_resources + 1))
    m = int(rng.integers(0, max_modules + 1))
    resources = []
    for i in range(n):
        capacity = round(float(rng.uniform(0.5, 6.0)), 3)
        resources.append(
            EdgeResource(
                f"r{i}",
                capacity=capacity,
                current_load=round(float(rng.uniform(0.0, 0.8 * capacity)), 3),
                bandwidth_mbps=round(float(rng.uniform(10.0, 200.0)), 1),
                compute_rating=round(float(rng.uniform(0.1, 1.0)), 2),
            )
        )
    modules = [
        ControlModule(
            f"m{j}",
            load=round(float(rng.uniform(0.2, 3.0)), 3),
            intensity=round(float(rng.uniform(0.1, 1.0)), 2),
        )
        for j in range(m)
    ]
    weights = AffinityWeights(
        bandwidth=round(float(rng.uniform(0.1, 1.0)), 2),
        cpu=round(float(rng.uniform(0.1, 1.0)), 2),
    )
    return modules, resources, weights


def solved(solver, modules, resources, weights):
    """A solver's plan for the instance at its resources' current headroom."""
    return solver(prepare(modules, resources, weights), [r.headroom for r in resources])


def score_matrix(modules, resources, weights):
    max_bw = max(r.bandwidth_mbps for r in resources)
    return [
        [oracles.affinity_score(m, r, weights, max_bw) for m in modules]
        for r in resources
    ]


# -- model classes -----------------------------------------------------------------


def test_input_validation():
    with pytest.raises(AllocationError):
        EdgeResource("r", capacity=-1.0)
    with pytest.raises(AllocationError):
        EdgeResource("r", capacity=1.0, current_load=-0.1)
    with pytest.raises(AllocationError):
        EdgeResource("r", capacity=1.0, compute_rating=0.0)
    with pytest.raises(AllocationError):
        ControlModule("m", load=0.0)
    with pytest.raises(AllocationError):
        ControlModule("m", load=1.0, intensity=1.5)
    with pytest.raises(AllocationError):
        AffinityWeights(bandwidth=0.0, cpu=0.0)
    with pytest.raises(AllocationError):
        AffinityWeights(bandwidth=-1.0, cpu=1.0)


def test_affinity_favors_better_servers_and_scales_with_intensity():
    w = AffinityWeights(0.5, 0.5)
    light = ControlModule("m", load=1.0, intensity=0.2)
    heavy = ControlModule("m", load=1.0, intensity=1.0)
    good = EdgeResource("g", capacity=5.0, bandwidth_mbps=100.0, compute_rating=1.0)
    poor = EdgeResource("p", capacity=5.0, bandwidth_mbps=50.0, compute_rating=0.5)
    assert affinity(light, good, w, 100.0) > affinity(light, poor, w, 100.0)
    gap_light = affinity(light, good, w, 100.0) - affinity(light, poor, w, 100.0)
    gap_heavy = affinity(heavy, good, w, 100.0) - affinity(heavy, poor, w, 100.0)
    assert gap_heavy > gap_light


def test_plan_validation_and_accessors():
    plan = AssignmentPlan(("r0", "r1"), ("m0", "m1"), (0, -1), 1.5)
    assert plan.x == ((1, 0), (0, 0))
    assert plan.assignment() == {"m0": "r0"}
    assert plan.unassigned() == ["m1"]
    modules = [ControlModule("m0", load=1.0), ControlModule("m1", load=1.0)]
    assert validate(plan, modules, [EdgeResource("r0", 1.0), EdgeResource("r1", 1.0)]) == []


def test_validate_flags_overload():
    modules = [ControlModule("m0", load=3.0)]
    resources = [
        EdgeResource("r0", capacity=2.0),
        EdgeResource("r1", capacity=4.0),
    ]
    overloaded = AssignmentPlan(("r0", "r1"), ("m0",), (0,), 0.0)
    problems = validate(overloaded, modules, resources)
    assert any("over capacity" in p for p in problems)
    assert validate(AssignmentPlan(("r0", "r1"), ("m0",), (1,), 0.0), modules, resources) == []


# -- exact solver against brute force ---------------------------------------------


def test_exact_solver_matches_brute_force_on_seeded_instances():
    rng = np.random.default_rng(420)
    for case in range(60):
        modules, resources, weights = random_instance(rng)
        plan = solved(solve_exact, modules, resources, weights)
        score = score_matrix(modules, resources, weights)
        choice, objective = oracles.brute_force_assignment(modules, resources, score)
        want_x = tuple(
            tuple(1 if choice[j] == i else 0 for j in range(len(modules)))
            for i in range(len(resources))
        )
        assert plan.x == want_x, f"case {case}: {plan.x} != {want_x}"
        assert plan.objective == objective
        assert validate(plan, modules, resources) == []


def test_exact_tie_break_is_lexicographic_on_the_matrix():
    # two identical resources: both placements score the same, so the
    # lexicographically smaller row-major matrix (module on r1) wins
    modules = [ControlModule("m0", load=1.0, intensity=0.5)]
    resources = [
        EdgeResource("r0", capacity=4.0, bandwidth_mbps=100.0, compute_rating=1.0),
        EdgeResource("r1", capacity=4.0, bandwidth_mbps=100.0, compute_rating=1.0),
    ]
    plan = solved(solve_exact, modules, resources, AffinityWeights())
    assert plan.x == ((0,), (1,))


def test_exact_tie_break_matches_brute_force_when_many_leaves_tie():
    # identical resources and identical modules: every placement with the
    # same number of modules on edges scores the same
    for n in range(1, 4):
        for m in range(1, 4):
            for capacity in (1.0, 2.0, 3.0, 10.0):
                resources = [
                    EdgeResource(f"r{i}", capacity=capacity, current_load=0.5,
                                 bandwidth_mbps=80.0, compute_rating=0.7)
                    for i in range(n)
                ]
                modules = [ControlModule(f"m{j}", load=1.0, intensity=0.4) for j in range(m)]
                weights = AffinityWeights(0.5, 0.5)
                plan = solved(solve_exact, modules, resources, weights)
                score = score_matrix(modules, resources, weights)
                choice, objective = oracles.brute_force_assignment(modules, resources, score)
                want_x = tuple(
                    tuple(1 if choice[j] == i else 0 for j in range(m)) for i in range(n)
                )
                assert plan.x == want_x, (n, m, capacity)
                assert plan.objective == objective


def test_exact_keeps_a_tie_at_large_weights():
    # both (1, 0, 1, 0, 0) and (0, 0, 1, 0, 1) score 58684648096150.98 here;
    # a bound with an absolute slack cut the first and returned the second,
    # because at this magnitude 1e-9 is below one ulp of the totals
    weights = AffinityWeights(6265308139876.466, 4406253865323.9795)
    resources = [
        EdgeResource(f"r{i}", capacity=c, bandwidth_mbps=bw, compute_rating=rating)
        for i, (c, bw, rating) in enumerate([(3.0, 81.4313, 0.4006), (2.0, 67.241285, 0.615),
                                             (3.0, 45.11726, 0.5)])
    ]
    modules = [
        ControlModule(f"m{j}", load=1.0, intensity=intensity)
        for j, intensity in enumerate([0.4, 0.92, 0.195295, 0.44, 0.4])
    ]
    plan = solved(solve_exact, modules, resources, weights)
    choice, objective = oracles.brute_force_assignment(
        modules, resources, score_matrix(modules, resources, weights)
    )
    assert plan.choice == tuple(choice) == (1, 0, 1, 0, 0)
    assert plan.objective.hex() == objective.hex()


def test_exact_matches_brute_force_at_the_churn_shape_with_tight_headroom():
    # up to 4 servers and 3 to 5 modules, about what alloc-churn re-solves, and
    # current loads that leave room for only some of the modules in most cases
    rng = np.random.default_rng(2024)
    for case in range(100):
        modules = []
        while len(modules) < 3:
            modules, resources, weights = random_instance(rng, max_resources=4, max_modules=5)
        resources = [
            dataclasses.replace(r, current_load=round(r.capacity * float(rng.uniform(0.2, 0.8)), 3))
            for r in resources
        ]
        plan = solved(solve_exact, modules, resources, weights)
        choice, objective = oracles.brute_force_assignment(
            modules, resources, score_matrix(modules, resources, weights)
        )
        assert plan.choice == tuple(choice), f"case {case}"
        assert plan.objective.hex() == objective.hex(), f"case {case}"
        assert validate(plan, modules, resources) == []


def module_order_sums(loads):
    """Each nonempty subset's loads summed in module order from 0.0, as the exact search sums them."""
    sums = []
    for mask in range(1, 2 ** len(loads)):
        total = 0.0
        for j, load in enumerate(loads):
            if mask >> j & 1:
                total += load
        sums.append(total)
    return sums


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solve_answers_each_headroom_key_as_a_fresh_solve_exact(seed):
    # the churn shape with tight headrooms, re-solved on a sequence of headroom
    # lists. Each server's headroom comes from a pool of three: a tight one,
    # or one that puts a subset sum on its limit or a few ulps either side,
    # so keys repeat (answered from the memo) and each limit's edge is met
    rng = np.random.default_rng(seed)
    modules = []
    while len(modules) < 3:
        modules, resources, weights = random_instance(rng, max_resources=4, max_modules=5)
    sums = module_order_sums([mod.load for mod in modules])
    pools = []
    for res in resources:
        pool = [res.capacity * float(rng.uniform(0.2, 0.8))]
        for _ in range(2):
            h, ulps = float(rng.choice(sums)) - CAPACITY_SLACK, int(rng.integers(-3, 4))
            for _ in range(abs(ulps)):
                h = float(np.nextafter(h, np.copysign(np.inf, ulps)))
            pool.append(h)
        pools.append(pool)
    scored = prepare(modules, resources, weights)
    by_key = {}
    for _ in range(12):
        headroom = [pool[int(rng.integers(0, 3))] for pool in pools]
        plan, want = solve(scored, headroom), solve_exact(scored, headroom)
        assert (plan.choice, plan.objective.hex()) == (want.choice, want.objective.hex()), headroom
        # how many sums fit under each server's limit; equal keys, identical plans
        key = tuple(sum(s <= h + CAPACITY_SLACK for s in sums) for h in headroom)
        assert by_key.setdefault(key, want) == want, (key, headroom)
    assert len(scored.plans) == len(by_key)  # one exact search per key


def test_exact_leaves_unplaceable_modules_unassigned():
    modules = [ControlModule("m0", load=10.0)]
    resources = [EdgeResource("r0", capacity=2.0)]
    plan = solved(solve_exact, modules, resources, AffinityWeights())
    assert plan.unassigned() == ["m0"]
    assert plan.objective == 0.0


def test_exact_handles_empty_module_list():
    plan = solved(solve_exact, [], [EdgeResource("r0", capacity=1.0)], AffinityWeights())
    assert plan.x == ((),)
    assert plan.objective == 0.0


def test_exact_guard_rejects_oversized_instances():
    resources = [EdgeResource(f"r{i}", capacity=100.0) for i in range(9)]
    modules = [ControlModule(f"m{j}", load=0.1) for j in range(8)]
    # (9 + 1)^8 placements pass the enumeration limit, so solve hands them to greedy
    fallback = solved(solve, modules, resources, AffinityWeights())
    assert fallback == solved(solve_greedy, modules, resources, AffinityWeights())
    assert validate(fallback, modules, resources) == []
    assert fallback.unassigned() == []


def test_duplicate_ids_rejected():
    # an instance is checked where it is built; the solvers trust it
    resource, module = {"id": "r", "capacity": 9.0}, {"id": "m", "load": 1.0}
    with pytest.raises(AllocationError, match="duplicate resource ids"):
        instance_from_dict({"resources": [resource, resource], "modules": []})
    with pytest.raises(AllocationError, match="duplicate module ids"):
        instance_from_dict({"resources": [resource], "modules": [module, module]})
    with pytest.raises(AllocationError, match="no resources"):
        instance_from_dict({"resources": [], "modules": []})


# -- objective invariances -----------------------------------------------------------


def test_scaling_both_weights_preserves_the_argmax():
    rng = np.random.default_rng(77)
    for _ in range(25):
        modules, resources, weights = random_instance(rng)
        scaled = AffinityWeights(weights.bandwidth * 7.5, weights.cpu * 7.5)
        a = solved(solve_exact, modules, resources, weights)
        b = solved(solve_exact, modules, resources, scaled)
        assert a.x == b.x
        assert b.objective == pytest.approx(7.5 * a.objective)


# -- greedy ---------------------------------------------------------------------------


def test_greedy_is_feasible_and_never_beats_exact():
    rng = np.random.default_rng(31)
    for _ in range(60):
        modules, resources, weights = random_instance(rng)
        greedy = solved(solve_greedy, modules, resources, weights)
        exact = solved(solve_exact, modules, resources, weights)
        assert validate(greedy, modules, resources) == []
        assert greedy.objective <= exact.objective + 1e-9


def test_greedy_places_heaviest_first_and_prefers_best_server():
    resources = [
        EdgeResource("small", capacity=3.0, bandwidth_mbps=100.0, compute_rating=1.0),
        EdgeResource("big", capacity=5.0, bandwidth_mbps=50.0, compute_rating=0.5),
    ]
    modules = [
        ControlModule("light", load=1.0, intensity=0.5),
        ControlModule("heavy", load=3.0, intensity=0.5),
    ]
    plan = solved(solve_greedy, modules, resources, AffinityWeights())
    # heavy goes first and takes the best server it fits on ("small" at 3.0);
    # light then only fits on "big"
    assert plan.assignment() == {"heavy": "small", "light": "big"}


def test_greedy_tie_on_equal_affinity_takes_instance_order():
    resources = [
        EdgeResource("first", capacity=2.0, bandwidth_mbps=80.0, compute_rating=0.9),
        EdgeResource("second", capacity=2.0, bandwidth_mbps=80.0, compute_rating=0.9),
    ]
    plan = solved(solve_greedy, [ControlModule("m", load=1.0)], resources, AffinityWeights())
    assert plan.assignment() == {"m": "first"}


# -- rebalancing ------------------------------------------------------------------------


def test_rebalance_moves_load_off_a_withdrawn_server():
    # a re-solve sees a withdrawn server as capacity 0
    modules = [ControlModule("m0", load=1.0, intensity=0.5)]
    resources = [
        EdgeResource("r0", capacity=4.0, bandwidth_mbps=100.0, compute_rating=1.0),
        EdgeResource("r1", capacity=4.0, bandwidth_mbps=10.0, compute_rating=0.2),
    ]
    plan = solved(solve_exact, modules, resources, AffinityWeights())
    assert plan.assignment() == {"m0": "r0"}
    withdrawn = [
        EdgeResource("r0", capacity=0.0, bandwidth_mbps=100.0, compute_rating=1.0),
        resources[1],
    ]
    assert solved(solve, modules, withdrawn, AffinityWeights()).assignment() == {"m0": "r1"}


def test_capacity_zero_server_never_receives_load():
    rng = np.random.default_rng(13)
    for _ in range(20):
        modules, resources, weights = random_instance(rng)
        dead = [EdgeResource(r.id, 0.0, 0.0, r.bandwidth_mbps, r.compute_rating) for r in resources]
        plan = solved(solve_exact, modules, dead, weights)
        assert plan.unassigned() == [m.id for m in modules]


# -- serialization -----------------------------------------------------------------------


INSTANCE_JSON = """
{
  "resources": [
    {"id": "r0", "capacity": 2.0, "current_load": 0.5, "bandwidth_mbps": 100.0,
     "compute_rating": 1.0},
    {"id": "r1", "capacity": 1.0, "bandwidth_mbps": 50.0}
  ],
  "modules": [
    {"id": "m0", "load": 1.0},
    {"id": "m1", "load": 1.0, "intensity": 1.0},
    {"id": "m2", "load": 5.0, "intensity": 0.2}
  ],
  "weights": {"bandwidth": 0.7, "cpu": 0.3}
}
"""

EXPECTED_MODULES = [
    ControlModule("m0", load=1.0, intensity=0.5),
    ControlModule("m1", load=1.0, intensity=1.0),
    ControlModule("m2", load=5.0, intensity=0.2),
]
EXPECTED_RESOURCES = [
    EdgeResource("r0", capacity=2.0, current_load=0.5, bandwidth_mbps=100.0, compute_rating=1.0),
    EdgeResource("r1", capacity=1.0, current_load=0.0, bandwidth_mbps=50.0, compute_rating=1.0),
]


def test_instance_and_plan_round_trip(tmp_path):
    # an instance written by hand loads to the expected objects, and its plan
    # comes back out of JSON unchanged
    data = json.loads(INSTANCE_JSON)
    modules, resources, weights = instance_from_dict(data)
    assert modules == EXPECTED_MODULES
    assert resources == EXPECTED_RESOURCES
    assert weights == AffinityWeights(bandwidth=0.7, cpu=0.3)
    path = tmp_path / "instance.json"
    path.write_text(INSTANCE_JSON)
    assert load_instance(path) == (modules, resources, weights)
    del data["weights"]
    assert instance_from_dict(data)[2] == AffinityWeights()

    plan = solved(solve_exact, modules, resources, weights)
    # m1 (more intense) takes the better server, m0 the other, m2 fits nowhere
    assert json.loads(json.dumps(plan_to_dict(plan))) == {
        "resource_ids": ["r0", "r1"],
        "module_ids": ["m0", "m1", "m2"],
        "x": [[0, 1, 0], [1, 0, 0]],
        "objective": plan.objective,
        "assignment": {"m1": "r0", "m0": "r1"},
        "unassigned": ["m2"],
    }
    assert plan.objective == pytest.approx(2.0 + 0.65 * 1.5)


def test_malformed_instance_rejected():
    with pytest.raises(AllocationError):
        instance_from_dict({"resources": [{"capacity": 1.0}], "modules": []})
    with pytest.raises(AllocationError):
        instance_from_dict({"modules": []})
    with pytest.raises(AllocationError, match="malformed instance"):
        instance_from_dict({"resources": [{"id": "r", "capacity": 1.0}], "modules": [],
                            "weights": {"gpu": 1}})
