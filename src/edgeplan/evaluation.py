"""Out-of-sample evaluation: recourse replay, certification, sweeps.

Plans from any method are scored the same way: draw test scenarios, solve
the recourse LP per scenario (or replay an affine policy), and aggregate
average and worst empirical cost next to the exact certified worst case
from the subproblem oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import ccg, milp, topology
from .adr import AffinePolicy, evaluate_policy, solve_adr
from .baselines import (
    heuristic_placement,
    make_training_scenarios,
    solve_deterministic,
    solve_stochastic,
)
from .ccg import DEFAULT_EPS, DEFAULT_MAX_ITERATIONS, run_ccg, solve_extensive_form, trace_to_csv
from .core import (
    FirstStagePlan,
    ProblemInstance,
    RecourseOutcome,
    Scenario,
    UncertaintyModel,
    provisioning_cost,
    sample_failures,
    second_stage_cost,
)

DISTRIBUTIONS = ("lognormal", "normal", "uniform")
SWEEP_AXES = ("K", "gamma", "beta", "psi", "alpha", "budget", "dmax", "I", "J")
# planners, in the order the CLI lists them
METHODS = ("ccg-duality", "ccg-kkt", "adr", "extensive", "det", "so", "heu")


@dataclass(frozen=True)
class EvaluationConfig:
    num_scenarios: int = 1000
    distribution: str = "lognormal"
    k_test: int | None = None
    psi: float = 1.0
    seed: int = 0
    sigma: float = 0.25

    def __post_init__(self):
        if self.num_scenarios < 1:
            raise ValueError("need at least one scenario")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.psi <= 0:
            raise ValueError("psi must be positive")
        if self.k_test is not None and self.k_test < 0:
            raise ValueError("k_test must be nonnegative")


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    psi: float
    provisioning: float
    scenario_costs: np.ndarray   # provisioning + recourse, one entry per scenario
    recourse_costs: np.ndarray
    unmet_totals: np.ndarray
    average_cost: float
    worst_cost: float
    certified_worst: float


def solve_recourse(instance: ProblemInstance, plan: FirstStagePlan, scenario: Scenario,
                   *, psi: float = 1.0) -> RecourseOutcome:
    """Optimal allocation for a fixed plan and realized scenario.

    Always feasible (x=0, q=lambda); the scenario may lie outside the
    planning uncertainty set.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    model = milp.Model("recourse")
    x = model.add_vars((ni, nj), lb=0.0, ub=instance.eligibility * instance.capacity[None, :])
    q = model.add_vars(ni, lb=0.0)
    alive = plan.procurement * plan.placement * (1 - scenario.failures)
    for j in range(nj):
        model.add_constr(x[:, j], np.ones(ni), milp.LE, float(alive[j]))
    for i in range(ni):
        model.add_constr(np.append(x[i, :], q[i]), np.ones(nj + 1), milp.GE,
                         float(scenario.demand[i]))
    model.set_objective(np.concatenate([q, x.ravel()]),
                        np.concatenate([psi * instance.unmet_penalty,
                                        instance.beta * instance.delay.ravel()]))
    result = milp.solve(model)
    milp.ensure_optimal(result, "recourse LP")
    return RecourseOutcome(allocation=result.value(x), unmet=result.value(q),
                           second_stage_cost=result.objective)


def _truncated_lognormal(rng, lo, hi, median, sigma, size):
    if hi - lo <= 0:
        return np.full(size, lo)
    dist = stats.lognorm(s=sigma, scale=median)
    u = rng.uniform(dist.cdf(lo), dist.cdf(hi), size=size)
    return np.clip(dist.ppf(u), lo, hi)


def generate_test_scenarios(instance: ProblemInstance,
                            config: EvaluationConfig) -> list[Scenario]:
    """Demands i.i.d. per area on the deviation box, failures uniform.

    The lognormal family puts its median at the middle of the box;
    truncation is exact (inverse-cdf on the restricted range).
    """
    rng = np.random.default_rng(config.seed)
    n = config.num_scenarios
    lo = instance.nominal_demand
    hi = instance.nominal_demand + instance.demand_deviation
    ni = instance.num_areas
    demands = np.empty((n, ni))
    for i in range(ni):
        if hi[i] - lo[i] <= 0:
            demands[:, i] = lo[i]
        elif config.distribution == "lognormal":
            demands[:, i] = _truncated_lognormal(rng, lo[i], hi[i],
                                                 0.5 * (lo[i] + hi[i]), config.sigma, n)
        elif config.distribution == "normal":
            center = 0.5 * (lo[i] + hi[i])
            sigma = config.sigma * (hi[i] - lo[i])
            a, b = (lo[i] - center) / sigma, (hi[i] - center) / sigma
            u = rng.uniform(size=n)
            demands[:, i] = stats.truncnorm.ppf(u, a, b, loc=center, scale=sigma)
        else:
            demands[:, i] = rng.uniform(lo[i], hi[i], size=n)
    k_test = instance.uncertainty.failure_budget if config.k_test is None else config.k_test
    failures = sample_failures(instance.num_nodes, k_test, n, rng)
    return [Scenario(demands[r], failures[r]) for r in range(n)]


def certify_worst_case(instance: ProblemInstance, plan: FirstStagePlan, *,
                       psi: float = 1.0, oracle: str = "duality",
                       mip_gap: float | None = None,
                       time_limit: float | None = None) -> float:
    """Exact worst-case total cost of a plan over the uncertainty set."""
    scaled = instance if psi == 1.0 else \
        instance.replace(unmet_penalty=psi * instance.unmet_penalty)
    sub = ccg.worst_case_oracle(oracle)(scaled, plan, mip_gap=mip_gap, time_limit=time_limit)
    return provisioning_cost(instance, plan) + sub.value


def monte_carlo(instance: ProblemInstance, plan: FirstStagePlan, scenarios,
                psi: float = 1.0, *, method: str = "", policy: AffinePolicy | None = None,
                certify: bool = True, oracle: str = "duality") -> EvaluationReport:
    """Score a plan on a scenario list; costs are provisioning + recourse.

    By default each scenario is re-optimized with the recourse LP; passing
    an affine policy replays its coefficients instead (no re-optimization,
    and no feasibility repair, so costs reflect the policy as-is).
    """
    scenarios = list(scenarios)
    prov = provisioning_cost(instance, plan)
    recourse = np.empty(len(scenarios))
    unmet = np.empty(len(scenarios))
    for r, scenario in enumerate(scenarios):
        if policy is None:
            out = solve_recourse(instance, plan, scenario, psi=psi)
            recourse[r] = out.second_stage_cost
        else:
            out = evaluate_policy(instance, policy, scenario)
            recourse[r] = second_stage_cost(instance, out.allocation, out.unmet, psi=psi)
        unmet[r] = out.unmet.sum()
    totals = prov + recourse
    certified = certify_worst_case(instance, plan, psi=psi, oracle=oracle) \
        if certify else math.nan
    return EvaluationReport(
        method=method, psi=psi, provisioning=prov,
        scenario_costs=totals, recourse_costs=recourse, unmet_totals=unmet,
        average_cost=float(totals.mean()) if len(scenarios) else math.nan,
        worst_cost=float(totals.max()) if len(scenarios) else math.nan,
        certified_worst=certified)


def report_summary(report: EvaluationReport) -> dict:
    return {
        "method": report.method,
        "avg": report.average_cost,
        "worst": report.worst_cost,
        "certified_worst": report.certified_worst,
        "provisioning": report.provisioning,
    }


def report_to_csv(report: EvaluationReport) -> str:
    lines = ["scenario,total_cost,recourse_cost,unmet"]
    for r in range(len(report.scenario_costs)):
        lines.append(f"{r},{report.scenario_costs[r]:.12g},"
                     f"{report.recourse_costs[r]:.12g},{report.unmet_totals[r]:.12g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sensitivity sweeps

_AXIS_ALIASES = {
    "k": "K", "gamma": "gamma", "γ": "gamma", "beta": "beta", "β": "beta",
    "psi": "psi", "Ψ": "psi", "ψ": "psi", "alpha": "alpha", "α": "alpha",
    "b": "budget", "budget": "budget", "dmax": "dmax", "i": "I", "j": "J",
}


def normalize_axis(axis: str) -> str:
    key = axis.strip().lower()
    if key in _AXIS_ALIASES:
        return _AXIS_ALIASES[key]
    raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def _sized_family(base: ProblemInstance, axis: str, values, generator_seed):
    """Nested instances for I/J sweeps: slice the base arrays when every
    value fits, otherwise regenerate one family at the largest size so
    smaller sizes are prefixes (keeps the size axis monotone)."""
    need = int(max(values))
    if axis == "I" and need <= base.num_areas:
        parent = base
    elif axis == "J" and need <= base.num_nodes:
        parent = base
    elif generator_seed is None:
        raise ValueError(f"axis {axis} beyond the base instance needs generator_seed")
    else:
        parent = topology.generate_instance(
            num_areas=need if axis == "I" else base.num_areas,
            num_nodes=need if axis == "J" else base.num_nodes,
            seed=generator_seed)

    def cut(v: int) -> ProblemInstance:
        v = int(v)
        if v < 1:
            raise ValueError(f"axis {axis} needs positive sizes, got {v}")
        return parent.subset(areas=v) if axis == "I" else parent.subset(nodes=v)

    return cut


def _derive_instance(base: ProblemInstance, axis: str, value, sized_cut,
                     psi_mode: str) -> tuple[ProblemInstance, float]:
    """Instance and evaluation-psi for one sweep cell."""
    u = base.uncertainty
    if axis == "K":
        return base.replace(uncertainty=UncertaintyModel(u.gamma, int(value))), 1.0
    if axis == "gamma":
        return base.replace(uncertainty=UncertaintyModel(int(value), u.failure_budget)), 1.0
    if axis == "beta":
        return base.replace(beta=float(value)), 1.0
    if axis == "alpha":
        ratio = float(value)
        return base.replace(
            demand_deviation=ratio * base.nominal_demand,
            uncertainty=UncertaintyModel(u.gamma, u.failure_budget, deviation_ratio=ratio)), 1.0
    if axis == "budget":
        return base.replace(budget=float(value)), 1.0
    if axis == "dmax":
        return base.replace(dmax=float(value), eligibility=None), 1.0
    if axis == "psi":
        psi = float(value)
        if psi <= 0:
            raise ValueError("psi must be positive")
        if psi_mode == "both":
            return base.replace(unmet_penalty=psi * base.unmet_penalty), 1.0
        return base, psi
    return sized_cut(value), 1.0


@dataclass(frozen=True)
class PlanResult:
    """One planner's answer; `extras` is its plan.json metadata and
    `trace` the per-iteration CSV of CCG methods (None otherwise)."""

    plan: FirstStagePlan
    objective: float
    converged: bool
    extras: dict
    trace: str | None = None


def plan_with_method(instance: ProblemInstance, method: str, *, eps: float = DEFAULT_EPS,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS,
                     mip_gap: float | None = None, time_limit: float | None = None,
                     num_training: int = 100, seed: int = 0) -> PlanResult:
    """Run one of `METHODS` on an instance."""
    if method in ("ccg-duality", "ccg-kkt"):
        res = run_ccg(instance, oracle=method.split("-")[1], eps=eps,
                      max_iterations=max_iterations, mip_gap=mip_gap, time_limit=time_limit)
        last = res.state.trace[-1]
        extras = {"converged": res.converged, "iterations": last.iteration, "gap": last.gap,
                  "lower_bound": res.state.lower_bound, "message": res.message,
                  "wall_seconds": res.wall_seconds}
        return PlanResult(res.plan, res.objective, res.converged, extras,
                          trace_to_csv(res.state))
    if method == "adr":
        res = solve_adr(instance, mip_gap=mip_gap, time_limit=time_limit)
        extras = {"status": res.status, "worst_recourse": res.phi,
                  "wall_seconds": res.wall_seconds}
        return PlanResult(res.plan, res.objective, True, extras)
    if method == "extensive":
        res = solve_extensive_form(instance, mip_gap=mip_gap, time_limit=time_limit)
        extras = {"num_vertices": res.num_vertices, "wall_seconds": res.wall_seconds}
        return PlanResult(res.plan, res.objective, True, extras)
    if method == "det":
        res = solve_deterministic(instance, mip_gap=mip_gap, time_limit=time_limit)
        return PlanResult(res.plan, res.objective, True, {"wall_seconds": res.wall_seconds})
    if method == "so":
        training = make_training_scenarios(instance, num_training, seed)
        res = solve_stochastic(instance, training, mip_gap=mip_gap, time_limit=time_limit)
        extras = {"training_scenarios": num_training, "wall_seconds": res.wall_seconds}
        return PlanResult(res.plan, res.objective, True, extras)
    if method == "heu":
        start = time.perf_counter()
        plan = heuristic_placement(instance)
        nominal = Scenario(instance.nominal_demand,
                           np.zeros(instance.num_nodes, dtype=np.int8))
        out = solve_recourse(instance, plan, nominal)
        # greedy plans carry no solver objective; report the nominal-scenario total
        extras = {"objective_kind": "nominal-scenario total",
                  "wall_seconds": time.perf_counter() - start}
        return PlanResult(plan, provisioning_cost(instance, plan) + out.second_stage_cost,
                          True, extras)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def sensitivity_sweep(instance: ProblemInstance, axis: str, values, methods=("ccg-duality",),
                      *, eps: float = 1e-4, mip_gap: float | None = None,
                      time_limit: float | None = None, num_test_scenarios: int = 200,
                      num_training_scenarios: int = 100, seed: int = 0,
                      psi_mode: str = "both", generator_seed: int | None = None) -> list[dict]:
    """Re-plan and re-score along one parameter axis.

    Returns one row per (value, method); failures are recorded in the
    row's `error` column and the sweep keeps going.
    """
    axis = normalize_axis(axis)
    if psi_mode not in ("both", "evaluation"):
        raise ValueError("psi_mode must be 'both' or 'evaluation'")
    values = list(values)
    if not values:
        raise ValueError("no sweep values given")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    sized_cut = _sized_family(instance, axis, values, generator_seed) \
        if axis in ("I", "J") else None

    rows = []
    for value in values:
        try:
            inst_v, eval_psi = _derive_instance(instance, axis, value, sized_cut, psi_mode)
        except Exception as exc:
            for method in methods:
                rows.append(_sweep_row(axis, value, method, error=str(exc)))
            continue
        scenarios = None
        for method in methods:
            start = time.perf_counter()
            try:
                res = plan_with_method(
                    inst_v, method, eps=eps, mip_gap=mip_gap, time_limit=time_limit,
                    num_training=num_training_scenarios, seed=seed)
                plan = res.plan
                certified = certify_worst_case(inst_v, plan, psi=eval_psi,
                                               mip_gap=mip_gap, time_limit=time_limit)
                avg = worst = math.nan
                if num_test_scenarios > 0:
                    if scenarios is None:
                        scenarios = generate_test_scenarios(
                            inst_v, EvaluationConfig(num_scenarios=num_test_scenarios,
                                                     seed=seed))
                    report = monte_carlo(inst_v, plan, scenarios, psi=eval_psi,
                                         method=method, certify=False)
                    avg, worst = report.average_cost, report.worst_cost
                # a nonconverged plan keeps its numbers; the error says why
                rows.append(_sweep_row(
                    axis, value, method, objective=res.objective,
                    provisioning=provisioning_cost(inst_v, plan), average_cost=avg,
                    worst_cost=worst, certified_worst=certified,
                    wall_seconds=time.perf_counter() - start,
                    error="" if res.converged else res.extras["message"]))
            except Exception as exc:
                rows.append(_sweep_row(axis, value, method, error=str(exc),
                                       wall_seconds=time.perf_counter() - start))
    return rows


def _sweep_row(axis, value, method, *, objective=math.nan, provisioning=math.nan,
               average_cost=math.nan, worst_cost=math.nan, certified_worst=math.nan,
               wall_seconds=math.nan, error="") -> dict:
    return {
        "axis": axis, "value": value, "method": method, "objective": objective,
        "provisioning": provisioning, "average_cost": average_cost,
        "worst_cost": worst_cost, "certified_worst": certified_worst,
        "wall_seconds": wall_seconds, "error": error,
    }


def sweep_to_csv(rows) -> str:
    cols = ["axis", "value", "method", "objective", "provisioning", "average_cost",
            "worst_cost", "certified_worst", "wall_seconds", "error"]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append("" if math.isnan(v) else f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
