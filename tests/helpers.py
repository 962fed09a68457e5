"""Shared instance factories and brute-force oracles for the test suite."""

import numpy as np

from edgeplan import milp
from edgeplan.core import (
    ProblemInstance,
    Scenario,
    UncertaintyModel,
    demand_from_g,
    enumerate_vertices,
    provisioning_cost,
)
from edgeplan.evaluation import solve_recourse_batch


def tiny_instance(gamma=0, k=0, **overrides):
    """One area, one node: p=0.1, C=8, h=0.3, d=1, beta=0.1, P=0.5, demand 5+3g."""
    fields = dict(price=[0.1], capacity=[8.0], placement_cost=[0.3], storage_cost=[0.0],
                  initial_placement=[0], delay=[[1.0]], beta=0.1, unmet_penalty=[0.5],
                  budget=100.0, nominal_demand=[5.0], demand_deviation=[3.0],
                  uncertainty=UncertaintyModel(gamma, k))
    fields.update(overrides)
    return ProblemInstance(**fields)


def unit_example(gamma=0, k=0, **overrides):
    """The hand-solvable case p=0.04, h=0.1, C=10, d=2; serving nominal costs 1.3."""
    fields = dict(price=[0.04], capacity=[10.0], placement_cost=[0.1], storage_cost=[0.0],
                  initial_placement=[0], delay=[[2.0]], beta=0.1, unmet_penalty=[0.5],
                  budget=20.0, nominal_demand=[5.0], demand_deviation=[0.0],
                  uncertainty=UncertaintyModel(gamma, k))
    fields.update(overrides)
    return ProblemInstance(**fields)


def random_instance(rng, num_areas, num_nodes, gamma=None, k=None, **overrides):
    """Small random instance with enumerable vertices; economics keep both
    serving and dropping competitive so worst cases are nontrivial."""
    gamma = int(rng.integers(0, num_areas + 1)) if gamma is None else gamma
    k = int(rng.integers(0, num_nodes + 1)) if k is None else k
    fields = dict(
        price=rng.uniform(0.05, 0.3, num_nodes),
        capacity=rng.uniform(3, 10, num_nodes),
        placement_cost=rng.uniform(0.1, 0.6, num_nodes),
        storage_cost=rng.uniform(0.0, 0.2, num_nodes),
        initial_placement=rng.integers(0, 2, num_nodes),
        delay=rng.uniform(1, 6, (num_areas, num_nodes)),
        beta=0.1,
        unmet_penalty=rng.uniform(0.4, 1.2, num_areas),
        budget=float(rng.uniform(3, 12)),
        nominal_demand=rng.uniform(1, 6, num_areas),
        demand_deviation=rng.uniform(0, 4, num_areas),
        uncertainty=UncertaintyModel(gamma, k),
    )
    fields.update(overrides)
    return ProblemInstance(**fields)


def sparse_eligibility(rng, num_areas, num_nodes):
    """A random eligibility mask with at least one ineligible pair that still
    leaves every area an eligible node; needs two or more nodes."""
    mask = rng.integers(0, 2, (num_areas, num_nodes)).astype(np.int8)
    keep = rng.integers(0, num_nodes, num_areas)
    mask[np.arange(num_areas), keep] = 1
    i = int(rng.integers(num_areas))
    mask[i, (keep[i] + 1 + int(rng.integers(num_nodes - 1))) % num_nodes] = 0
    return mask


def random_plan(rng, instance):
    """A random budget- and capacity-feasible first-stage plan."""
    t = rng.integers(0, 2, instance.num_nodes).astype(np.int8)
    y = np.floor(rng.uniform(0, 1, instance.num_nodes) * instance.capacity) * t
    # walk nodes and drop procurement until the budget holds
    from edgeplan.core import FirstStagePlan
    order = rng.permutation(instance.num_nodes)
    for j in order:
        while (instance.price @ y + instance.node_cost @ t > instance.budget
               and y[j] > 0):
            y[j] -= 1
    for j in order:
        if instance.price @ y + instance.node_cost @ t <= instance.budget:
            break
        t[j], y[j] = 0, 0.0
    return FirstStagePlan(t, y)


def vertex_scenarios(instance):
    pairs = enumerate_vertices(instance.uncertainty, instance.num_areas,
                               instance.num_nodes)
    return [Scenario(demand_from_g(instance, g), z) for g, z in pairs]


def brute_force_worst(instance, plan):
    """Max over enumerated vertices of the recourse LP optimum (no provisioning)."""
    return max(out.second_stage_cost
               for out in solve_recourse_batch(instance, plan, vertex_scenarios(instance)))


def exhaustive_two_stage(instance, scenarios):
    """Brute-force min over integer plans of provisioning + worst pooled recourse.

    Only usable for one- or two-node instances with small capacities.
    """
    from itertools import product
    from edgeplan.core import FirstStagePlan
    nj = instance.num_nodes
    caps = [int(np.floor(c)) for c in instance.capacity]
    best = np.inf
    for t_bits in product((0, 1), repeat=nj):
        ranges = [range(0, (caps[j] if t_bits[j] else 0) + 1) for j in range(nj)]
        for y_vals in product(*ranges):
            plan = FirstStagePlan(np.array(t_bits, dtype=np.int8),
                                  np.array(y_vals, dtype=float))
            if provisioning_cost(instance, plan) > instance.budget + 1e-9:
                continue
            worst = max(out.second_stage_cost
                        for out in solve_recourse_batch(instance, plan, scenarios))
            best = min(best, provisioning_cost(instance, plan) + worst)
    return best


def stop_at_limit(monkeypatch, names, loosen=0.0):
    """Make `milp.Handle.solve`, one-shot or re-solve, return each model named
    in `names` as a MIP stopped at its limit: the real optimum as the
    incumbent, with the dual bound moved `loosen` (relative) away from it.
    Returns the MIP gaps those solves got."""
    real_solve = milp.Handle.solve
    gaps = []

    def limited(handle):
        result = real_solve(handle)
        model = handle._model
        if model.name not in names:
            return result
        gaps.append(handle._highs.getOptionValue("mip_rel_gap")[1])
        sense = -1.0 if model.maximize else 1.0
        bound = result.dual_bound - sense * loosen * abs(result.dual_bound)
        gap = abs(result.objective - bound) / max(1e-12, abs(result.objective))
        return milp.SolveResult("limit", result.objective, result.values, bound, gap)

    monkeypatch.setattr(milp.Handle, "solve", limited)
    return gaps
