"""Comparison planners: deterministic, two-stage stochastic, and greedy.

All three emit the same FirstStagePlan shape as the robust solvers, so
the evaluation pipeline treats every method identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import milp
from .ccg import _add_recourse_block, _build_first_stage, _extract_plan
from .core import (
    FirstStagePlan,
    ProblemInstance,
    Scenario,
    sample_failures,
)

DEFAULT_SCENARIO_CAP = 2000


@dataclass(frozen=True)
class BaselineSolution:
    plan: FirstStagePlan
    objective: float
    wall_seconds: float


@dataclass(frozen=True)
class ScenarioSet:
    """Finitely supported scenario distribution for stochastic planning."""

    scenarios: tuple[Scenario, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if probs.ndim != 1 or len(probs) != len(self.scenarios):
            raise ValueError("need one probability per scenario")
        if len(self.scenarios) == 0:
            raise ValueError("scenario set is empty")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @staticmethod
    def uniform(scenarios) -> "ScenarioSet":
        scenarios = tuple(scenarios)
        n = len(scenarios)
        return ScenarioSet(scenarios, np.full(n, 1.0 / n) if n else np.empty(0))


def solve_deterministic(instance: ProblemInstance, *, mip_gap: float | None = None,
                        time_limit: float | None = None,
                        integral_procurement: bool = True) -> BaselineSolution:
    """Plan against nominal demand with every node up; no robustness."""
    start = time.perf_counter()
    nominal = Scenario(instance.nominal_demand, np.zeros(instance.num_nodes, dtype=np.int8))
    master = _solve_weighted(instance, [nominal], np.ones(1), mip_gap, time_limit,
                             integral_procurement)
    return BaselineSolution(plan=master[0], objective=master[1],
                            wall_seconds=time.perf_counter() - start)


def _solve_weighted(instance: ProblemInstance, scenarios, weights, mip_gap, time_limit,
                    integral_procurement) -> tuple[FirstStagePlan, float]:
    """Extensive form with probability-weighted recourse blocks.

    Weights are used raw (no renormalization), which keeps the objective
    monotone under scenario removal with sub-probability weights.
    """
    model = milp.Model("stochastic")
    t, y = _build_first_stage(model, instance, integral_procurement)
    obj_ids = [list(y), list(t)]
    obj_coeffs = [list(instance.price), list(instance.node_cost)]
    for n, scenario in enumerate(scenarios):
        x, q = _add_recourse_block(model, instance, scenario, t, y, None)
        w = float(weights[n])
        obj_ids.append(list(q))
        obj_coeffs.append(list(w * instance.unmet_penalty))
        obj_ids.append(list(x.ravel()))
        obj_coeffs.append(list(w * instance.beta * instance.delay.ravel()))
    model.set_objective(np.concatenate(obj_ids), np.concatenate(obj_coeffs))
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    milp.ensure_optimal(result, "stochastic extensive form")
    plan = _extract_plan(instance, result, t, y, integral_procurement)
    return plan, result.objective


def solve_stochastic(instance: ProblemInstance, training: ScenarioSet, *,
                     mip_gap: float | None = None, time_limit: float | None = None,
                     integral_procurement: bool = True,
                     scenario_cap: int = DEFAULT_SCENARIO_CAP) -> BaselineSolution:
    """Minimize provisioning plus expected second-stage cost over the set."""
    if training.num_scenarios > scenario_cap:
        raise ValueError(f"{training.num_scenarios} scenarios exceed the cap of {scenario_cap}")
    start = time.perf_counter()
    plan, objective = _solve_weighted(instance, training.scenarios, training.probabilities,
                                      mip_gap, time_limit, integral_procurement)
    return BaselineSolution(plan=plan, objective=objective,
                            wall_seconds=time.perf_counter() - start)


def make_training_scenarios(instance: ProblemInstance, num_scenarios: int, seed: int, *,
                            sigma_scale: float = 0.25,
                            cov: np.ndarray | None = None) -> ScenarioSet:
    """Demands from a truncated normal centered mid-box, failures uniform.

    With `cov` unset each area gets an independent truncated normal with
    standard deviation sigma_scale times its deviation; a full covariance
    matrix switches to rejection sampling with a clip fallback.
    """
    if num_scenarios < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(seed)
    lo = instance.nominal_demand
    hi = instance.nominal_demand + instance.demand_deviation
    center = 0.5 * (lo + hi)
    ni = instance.num_areas
    demands = np.empty((num_scenarios, ni))
    if cov is None:
        for i in range(ni):
            sigma = sigma_scale * instance.demand_deviation[i]
            if sigma <= 0:
                demands[:, i] = lo[i]
                continue
            a, b = (lo[i] - center[i]) / sigma, (hi[i] - center[i]) / sigma
            u = rng.uniform(size=num_scenarios)
            demands[:, i] = stats.truncnorm.ppf(u, a, b, loc=center[i], scale=sigma)
    else:
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (ni, ni):
            raise ValueError(f"covariance must be {(ni, ni)}, got {cov.shape}")
        filled = 0
        for _ in range(1000):
            draw = rng.multivariate_normal(center, cov, size=num_scenarios)
            keep = draw[np.all((draw >= lo) & (draw <= hi), axis=1)]
            take = min(len(keep), num_scenarios - filled)
            demands[filled:filled + take] = keep[:take]
            filled += take
            if filled == num_scenarios:
                break
        if filled < num_scenarios:  # heavy truncation: clip the remainder
            draw = rng.multivariate_normal(center, cov, size=num_scenarios - filled)
            demands[filled:] = np.clip(draw, lo, hi)
    failures = sample_failures(instance.num_nodes, instance.uncertainty.failure_budget,
                               num_scenarios, rng)
    scenarios = tuple(Scenario(demands[n], failures[n]) for n in range(num_scenarios))
    return ScenarioSet.uniform(scenarios)


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
