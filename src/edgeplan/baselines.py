"""Comparison planners: deterministic, two-stage stochastic, and greedy.

All three emit the same FirstStagePlan shape as the robust solvers, so
the evaluation pipeline treats every method identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import milp
from .ccg import _add_recourse_block, _build_first_stage, _extract_plan, _recourse_cost
from .core import FirstStagePlan, ProblemInstance, Scenario

SCENARIO_CAP = 2000


@dataclass(frozen=True)
class BaselineSolution:
    """A baseline plan; `status` is the solver's, or "heuristic" for greedy."""

    plan: FirstStagePlan
    objective: float
    status: str


def solve_deterministic(instance: ProblemInstance, *, mip_gap: float | None = None,
                        time_limit: float | None = None) -> BaselineSolution:
    """Plan against nominal demand with every node up; no robustness."""
    nominal = Scenario(instance.nominal_demand, np.zeros(instance.num_nodes, dtype=np.int8))
    return _solve_weighted(instance, (nominal,), mip_gap, time_limit)


def _solve_weighted(instance: ProblemInstance, scenarios: tuple[Scenario, ...], mip_gap,
                    time_limit) -> BaselineSolution:
    """Extensive form with one recourse block per scenario, each weighted 1/n."""
    weight = 1.0 / len(scenarios)
    model = milp.Model("stochastic")
    t, y, (prov_ids, prov_coeffs) = _build_first_stage(model, instance)
    obj_ids, obj_coeffs = [prov_ids], [prov_coeffs]
    for scenario in scenarios:
        x, q = _add_recourse_block(model, instance, scenario, t, y, None)
        ids, coeffs = _recourse_cost(instance, x, q, weight=weight)
        obj_ids.append(ids)
        obj_coeffs.append(coeffs)
    model.set_objective(np.concatenate(obj_ids), np.concatenate(obj_coeffs))
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    return BaselineSolution(plan=_extract_plan(instance, result, t, y), objective=result.objective,
                            status=result.status)


def solve_stochastic(instance: ProblemInstance, scenarios, *, mip_gap: float | None = None,
                     time_limit: float | None = None) -> BaselineSolution:
    """Minimize provisioning plus the mean second-stage cost over equally
    likely scenarios (at most `SCENARIO_CAP`)."""
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValueError("scenario set is empty")
    if len(scenarios) > SCENARIO_CAP:
        raise ValueError(f"{len(scenarios)} scenarios exceed the cap of {SCENARIO_CAP}")
    return _solve_weighted(instance, scenarios, mip_gap, time_limit)


def heuristic_placement(instance: ProblemInstance) -> FirstStagePlan:
    """Greedy placement: big areas first, each walking its closest nodes.

    Areas are processed by decreasing nominal demand (ties: lowest index).
    An area walks its eligible nodes by increasing delay (ties: lowest
    index); on an unplaced node the placement charge is committed first if
    the budget allows, then whole capacity units are bought while budget,
    node capacity, and remaining demand last.  Spare bought units from
    earlier ceiling round-ups serve later areas for free.
    """
    nj = instance.num_nodes
    placed = np.zeros(nj, dtype=np.int8)
    bought = np.zeros(nj)
    used = np.zeros(nj)
    spent = 0.0
    budget = instance.budget
    tol = 1e-9
    area_order = sorted(range(instance.num_areas),
                        key=lambda i: (-instance.nominal_demand[i], i))
    for i in area_order:
        remaining = float(instance.nominal_demand[i])
        walk = sorted((j for j in range(nj) if instance.eligibility[i, j]),
                      key=lambda j: (instance.delay[i, j], j))
        for j in walk:
            if remaining <= tol:
                break
            if not placed[j]:
                if spent + instance.node_cost[j] > budget + tol:
                    continue
                placed[j] = 1
                spent += instance.node_cost[j]
            spare = bought[j] - used[j]
            if spare > tol:
                take = min(remaining, spare)
                used[j] += take
                remaining -= take
                if remaining <= tol:
                    break
            cap_left = instance.capacity[j] - bought[j]
            if cap_left <= tol:
                continue
            want = math.ceil(remaining - tol)
            afford = math.inf if instance.price[j] <= 0 else \
                math.floor((budget - spent + tol) / instance.price[j])
            buy = int(min(want, math.floor(cap_left + tol), afford))
            if buy <= 0:
                continue
            bought[j] += buy
            spent += buy * instance.price[j]
            take = min(remaining, float(buy))
            used[j] += take
            remaining -= take
    return FirstStagePlan(placed, bought)
