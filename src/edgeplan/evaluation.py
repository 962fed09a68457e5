"""Out-of-sample evaluation: recourse replay, certification, sweeps.

Plans from any method are scored the same way: draw test scenarios, solve
the recourse LP of every scenario (one LP per plan and one matrix of column
bounds in, one matrix of values out; most scenarios are read off the
optimal basis of an earlier one, and only the rest go to HiGHS), and
aggregate average and worst empirical cost next to the exact certified
worst case from the subproblem oracle.  A sweep cell certifies and replays
each distinct plan once.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import ccg, milp
from .adr import solve_adr
from .baselines import (
    BaselineSolution,
    heuristic_placement,
    solve_deterministic,
    solve_stochastic,
)
from .ccg import DEFAULT_EPS, DEFAULT_MAX_ITERATIONS, run_ccg, solve_extensive_form, trace_to_csv
from .core import (
    FirstStagePlan,
    ProblemInstance,
    RecourseOutcome,
    Scenario,
    ScenarioError,
    UncertaintyModel,
    csv_text,
    provisioning_cost,
    sample_failures,
)

DISTRIBUTIONS = ("lognormal", "normal", "uniform")
SWEEP_AXES = ("K", "gamma", "beta", "psi", "alpha", "budget", "dmax", "I", "J")
# planners, in the order the CLI lists them
METHODS = ("ccg-duality", "ccg-kkt", "adr", "extensive", "det", "so", "heu")
# spread of drawn demands: the lognormal shape, or the normal's standard
# deviation as a fraction of the demand deviation (the box width); the `so`
# planner trains on the normal draws
SIGMA = 0.25


@dataclass(frozen=True)
class EvaluationConfig:
    num_scenarios: int = 1000
    distribution: str = "lognormal"
    k_test: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.num_scenarios < 1:
            raise ValueError("need at least one scenario")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.k_test is not None and self.k_test < 0:
            raise ValueError("k_test must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    provisioning: float
    scenario_costs: np.ndarray   # provisioning + recourse, one entry per scenario
    recourse_costs: np.ndarray
    unmet_totals: np.ndarray
    average_cost: float
    worst_cost: float
    certified_worst: float


def _replay(instance: ProblemInstance, plan: FirstStagePlan, scenarios: list[Scenario]):
    """Solve the recourse LP of every scenario of a nonempty list.

    Returns the optima's values, one row per scenario (`milp.Handle.solve_each`,
    the last column 0 for `milp.PAD`), the ids of x (`PAD` on dead pairs) and
    of q, and the recourse costs, each the row's objective terms summed as a
    1-D dot product.  A scenario whose demand or failure vector does not
    match the instance raises `ScenarioError` before any model is built.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    for k, scenario in enumerate(scenarios):
        if scenario.demand.shape != (ni,) or scenario.failures.shape != (nj,):
            raise ScenarioError(
                f"scenario {k} has demands for {scenario.demand.size} areas and failures "
                f"for {scenario.failures.size} nodes; the instance has {ni} areas and "
                f"{nj} nodes")
    cap = instance.served_capacity
    model = milp.Model("recourse")
    x = model.add_masked_vars(cap > 0, ub=cap)
    q = model.add_vars(ni, lb=0.0)
    w = model.add_vars(nj, lb=0.0)
    r = model.add_vars(ni, lb=0.0)
    model.add_constr(np.column_stack([x.T, w]), np.append(np.ones(ni), -1.0), milp.LE, 0.0)
    model.add_constr(np.column_stack([x, q, r]), np.append(np.ones(nj + 1), -1.0), milp.GE, 0.0)
    ids, coeffs = ccg._recourse_cost(instance, x, q)
    model.set_objective(ids, coeffs)
    # the bounds of w (the live stock, 0 on a failed node) and r (the demand)
    lo = np.zeros((len(scenarios), nj + ni))
    hi = np.full((len(scenarios), nj + ni), np.inf)
    lo[:, nj:] = [scenario.demand for scenario in scenarios]
    hi[:, :nj] = plan.live_stock(instance) * (1.0 - np.array(
        [scenario.failures for scenario in scenarios]))
    values = milp.Handle(model).solve_each(np.append(w, r), lo, hi)
    # row by row: one matrix product may sum the terms in another order
    costs = np.array([row[ids] @ coeffs for row in values])
    return values, x, q, costs


def solve_recourse_batch(instance: ProblemInstance, plan: FirstStagePlan,
                         scenarios) -> list[RecourseOutcome]:
    """Optimal allocations for a fixed plan, one per realized scenario.

    One allocation LP is built and passed to HiGHS once.  Only served pairs
    (`ProblemInstance.served_capacity`) get an x_ij, boxed by that value; a
    dead pair is 0 in every optimum and reads 0 here.  A column w_j, bounded
    by the plan's live stock min(y_j, C_j t_j)(1 - z_j), caps node j's row
    sum_i x_ij - w_j <= 0, and a column r_i, bounded below by the demand,
    sets area i's cover row sum_j x_ij + q_i - r_i >= 0; q is unbounded
    above.  The plan and the scenario enter only through the bounds of w
    and r: every scenario's bounds are laid out in one matrix up front, and
    `milp.Handle.solve_each` bunches them: a scenario whose optimum the
    kept optimal basis of an earlier one gives is read off that basis
    without a HiGHS run, and every other scenario is re-solved, in order,
    from the basis the last HiGHS solve left.  A single scenario always
    goes to HiGHS.
    Where a scenario has several optimal allocations, the batch may return
    another one than a batch of one would, at the same cost.  Always
    feasible (x=0, q=lambda); scenarios may lie outside the planning
    uncertainty set, but a scenario sized for another instance raises
    `ScenarioError`.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    values, x, q, costs = _replay(instance, plan, scenarios)
    return [RecourseOutcome(allocation=row[x], unmet=row[q], second_stage_cost=cost)
            for row, cost in zip(values, costs)]


def solve_recourse(instance: ProblemInstance, plan: FirstStagePlan,
                   scenario: Scenario) -> RecourseOutcome:
    """Optimal allocation for a fixed plan and realized scenario: the batch of one."""
    return solve_recourse_batch(instance, plan, [scenario])[0]


def _truncated_lognormal(rng, lo, hi, median, sigma, size):
    # inverse cdf of the lognormal on [lo, hi]; a zero `lo` has cdf 0
    with np.errstate(divide="ignore"):
        u = rng.uniform(*ndtr(np.log(np.array([lo, hi]) / median) / sigma), size=size)
    return np.clip(np.exp(sigma * ndtri(u)) * median, lo, hi)


def generate_test_scenarios(instance: ProblemInstance,
                            config: EvaluationConfig) -> list[Scenario]:
    """Demands i.i.d. per area on the deviation box, failures uniform.

    The lognormal family puts its median at the middle of the box; the
    normal family centres there with standard deviation `SIGMA` times the
    area's demand deviation.  Truncation is exact (inverse-cdf on the
    restricted range).  An area with no deviation keeps its nominal demand.
    The `so` planner trains on the normal draws.
    """
    rng = np.random.default_rng(config.seed)
    n = config.num_scenarios
    lo = instance.nominal_demand
    hi = instance.nominal_demand + instance.demand_deviation
    ni = instance.num_areas
    demands = np.empty((n, ni))
    for i in range(ni):
        if instance.demand_deviation[i] <= 0:
            demands[:, i] = lo[i]
        elif config.distribution == "lognormal":
            demands[:, i] = _truncated_lognormal(rng, lo[i], hi[i],
                                                 0.5 * (lo[i] + hi[i]), SIGMA, n)
        elif config.distribution == "normal":
            center = 0.5 * (lo[i] + hi[i])
            sigma = SIGMA * instance.demand_deviation[i]
            # inverse cdf of the normal on [lo, hi]
            pa, pb = ndtr((lo[i] - center) / sigma), ndtr((hi[i] - center) / sigma)
            u = rng.uniform(size=n)
            demands[:, i] = np.clip(center + sigma * ndtri(pa + u * (pb - pa)), lo[i], hi[i])
        else:
            demands[:, i] = rng.uniform(lo[i], hi[i], size=n)
    k_test = instance.uncertainty.failure_budget if config.k_test is None else config.k_test
    failures = sample_failures(instance.num_nodes, k_test, n, rng)
    return [Scenario(demands[r], failures[r]) for r in range(n)]


def certify_worst_case(instance: ProblemInstance, plan: FirstStagePlan, *,
                       oracle: str = "duality", mip_gap: float | None = None,
                       time_limit: float | None = None) -> float:
    """Exact worst-case total cost of a plan over the uncertainty set; an
    oracle stopped at a limit certifies nothing and raises `SolverLimitError`."""
    sub = ccg.worst_case_oracle(oracle)(instance, plan, mip_gap=mip_gap, time_limit=time_limit)
    if sub.status != "optimal":
        raise milp.SolverLimitError(f"{oracle} oracle hit the solver limit before proving "
                                    "the worst case")
    return provisioning_cost(instance, plan) + sub.value


def monte_carlo(instance: ProblemInstance, plan: FirstStagePlan, scenarios, *,
                method: str = "", certify: bool = True) -> EvaluationReport:
    """Score a plan on a scenario list; costs are provisioning + recourse.

    Each scenario is re-optimized with the recourse LP (see
    `solve_recourse_batch`), whose costs and unmet totals are read off the
    one values matrix of the batch; with `certify`, the duality oracle
    certifies the worst case (see `certify_worst_case`).  To score at
    penalty scale psi, pass `instance.scaled_penalty(psi)`.  A scenario
    sized for another instance raises `ScenarioError`.
    """
    scenarios = list(scenarios)
    prov = provisioning_cost(instance, plan)
    recourse = unmet = np.empty(0)
    if scenarios:
        values, _, q, recourse = _replay(instance, plan, scenarios)
        unmet = np.array([row[q].sum() for row in values])
    totals = prov + recourse
    certified = certify_worst_case(instance, plan) if certify else math.nan
    return EvaluationReport(
        method=method, provisioning=prov,
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
    return csv_text(["scenario", "total_cost", "recourse_cost", "unmet"],
                    zip(range(len(report.scenario_costs)), report.scenario_costs,
                        report.recourse_costs, report.unmet_totals))


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


def _derive_instance(base: ProblemInstance, axis: str, value,
                     psi_mode: str) -> tuple[ProblemInstance, ProblemInstance]:
    """(planning, scoring) instances of one sweep cell: the base with one field
    changed, validated by the instance's own constructors.  Only psi-mode
    "evaluation" plans on the base and scores on the scaled penalties."""
    u = base.uncertainty
    if axis == "psi":
        scaled = base.scaled_penalty(float(value))
        return (scaled if psi_mode == "both" else base), scaled
    if axis == "K":
        cell = base.replace(uncertainty=UncertaintyModel(u.gamma, value))
    elif axis == "gamma":
        cell = base.replace(uncertainty=UncertaintyModel(value, u.failure_budget))
    elif axis == "beta":
        cell = base.replace(beta=float(value))
    elif axis == "alpha":
        ratio = float(value)
        cell = base.replace(
            demand_deviation=ratio * base.nominal_demand,
            uncertainty=UncertaintyModel(u.gamma, u.failure_budget, deviation_ratio=ratio))
    elif axis == "budget":
        cell = base.replace(budget=float(value))
    elif axis == "dmax":
        cell = base.replace(dmax=float(value), eligibility=None)
    elif axis == "I":
        cell = base.subset(areas=value)
    else:
        cell = base.subset(nodes=value)
    return cell, cell


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
    """Run one of `METHODS` on an instance; `extras["wall_seconds"]` times
    the whole planner call, model builds included.  A solver option HiGHS
    refuses raises `ValueError` before any method, MILP or not, plans."""
    milp.check_options(mip_gap=mip_gap, time_limit=time_limit)
    start = time.perf_counter()
    converged, extras, trace = True, {}, None
    if method in ("ccg-duality", "ccg-kkt"):
        res = run_ccg(instance, oracle=method.split("-")[1], eps=eps,
                      max_iterations=max_iterations, mip_gap=mip_gap, time_limit=time_limit)
        last = res.state.trace[-1]
        converged, trace = res.converged, trace_to_csv(res.state)
        extras = {"converged": res.converged, "iterations": last.iteration, "gap": last.gap,
                  "lower_bound": last.lower_bound, "message": res.message}
    elif method == "heu":
        plan = heuristic_placement(instance)
        nominal = Scenario(instance.nominal_demand,
                           np.zeros(instance.num_nodes, dtype=np.int8))
        out = solve_recourse(instance, plan, nominal)
        # greedy plans carry no solver objective; report the nominal-scenario total
        res = BaselineSolution(plan, provisioning_cost(instance, plan) + out.second_stage_cost,
                               "heuristic")
        extras = {"objective_kind": "nominal-scenario total"}
    else:
        if method == "adr":
            res = solve_adr(instance, mip_gap=mip_gap, time_limit=time_limit)
            extras = {"worst_recourse": res.phi}
        elif method == "extensive":
            res = solve_extensive_form(instance, mip_gap=mip_gap, time_limit=time_limit)
            extras = {"num_vertices": ccg.iteration_bound(instance)}
        elif method == "det":
            res = solve_deterministic(instance, mip_gap=mip_gap, time_limit=time_limit)
        elif method == "so":
            training = generate_test_scenarios(instance, EvaluationConfig(
                num_scenarios=num_training, distribution="normal", seed=seed))
            res = solve_stochastic(instance, training, mip_gap=mip_gap, time_limit=time_limit)
            extras = {"training_scenarios": num_training}
        else:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        extras["status"] = res.status
        if res.status == "limit":
            converged = False
            extras["message"] = f"{method} stopped at its solver limit before proving optimality"
    extras["wall_seconds"] = time.perf_counter() - start
    return PlanResult(res.plan, res.objective, converged, extras, trace)


def sensitivity_sweep(instance: ProblemInstance, axis: str, values, methods=("ccg-duality",),
                      *, eps: float = 1e-4, mip_gap: float | None = None,
                      time_limit: float | None = None, num_test_scenarios: int = 200,
                      num_training_scenarios: int = 100, seed: int = 0,
                      psi_mode: str = "both", workers: int = 1) -> list[dict]:
    """Re-plan and re-score along one parameter axis.

    Returns one row per (value, method), in input order; failures are
    recorded in the row's `error` column, with `limit` true when a solver
    limit raised them, and the sweep keeps going.  Each
    cell is the given instance with one field changed; an I/J value is a
    size within the instance, so a larger size, like a fractional K, gamma,
    I or J value, is an error in its own row.  A cell certifies and replays
    each distinct plan (placement and procurement, bit for bit) once, so a
    row whose plan an earlier method of the cell returned reuses its
    scores, and its `wall_seconds` covers the planning only.  With
    `workers` > 1 the values run on that many threads; every value's cell
    is computed the same way either way, so the rows do not depend on it.  A `workers` below 1, a
    negative `num_test_scenarios` or `seed`, a solver option or a planner
    input that a listed method cannot use is refused before any cell runs.
    """
    axis = normalize_axis(axis)
    if psi_mode not in ("both", "evaluation"):
        raise ValueError("psi_mode must be 'both' or 'evaluation'")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if num_test_scenarios < 0:
        raise ValueError(f"num_test_scenarios must be nonnegative, got {num_test_scenarios}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    milp.check_options(mip_gap=mip_gap, time_limit=time_limit)
    values = list(values)
    if not values:
        raise ValueError("no sweep values given")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    if "so" in methods and num_training_scenarios < 1:
        raise ValueError(f"so needs num_training_scenarios >= 1, got {num_training_scenarios}")
    if {"ccg-duality", "ccg-kkt"} & set(methods) and not eps > 0:
        raise ValueError(f"a CCG method needs a positive eps, got {eps}")

    def rows_of(value) -> list[dict]:
        try:
            planning, scoring = _derive_instance(instance, axis, value, psi_mode)
        except Exception as exc:
            return [_sweep_row(axis, value, method, error=str(exc)) for method in methods]
        rows = []
        scenarios = None
        # (certified, average, worst) of each plan scored so far, by its bytes
        scores = {}
        for method in methods:
            start = time.perf_counter()
            try:
                res = plan_with_method(
                    planning, method, eps=eps, mip_gap=mip_gap, time_limit=time_limit,
                    num_training=num_training_scenarios, seed=seed)
                plan = res.plan
                key = plan.placement.tobytes() + plan.procurement.tobytes()
                if key not in scores:
                    certified = certify_worst_case(scoring, plan, mip_gap=mip_gap,
                                                   time_limit=time_limit)
                    avg = worst = math.nan
                    if num_test_scenarios > 0:
                        if scenarios is None:
                            scenarios = generate_test_scenarios(
                                scoring, EvaluationConfig(num_scenarios=num_test_scenarios,
                                                          seed=seed))
                        report = monte_carlo(scoring, plan, scenarios, certify=False)
                        avg, worst = report.average_cost, report.worst_cost
                    scores[key] = certified, avg, worst
                certified, avg, worst = scores[key]
                # a nonconverged plan keeps its numbers; the error says why
                rows.append(_sweep_row(
                    axis, value, method, objective=res.objective,
                    provisioning=provisioning_cost(scoring, plan), average_cost=avg,
                    worst_cost=worst, certified_worst=certified,
                    wall_seconds=time.perf_counter() - start,
                    error="" if res.converged else res.extras["message"]))
            except Exception as exc:
                rows.append(_sweep_row(axis, value, method, error=str(exc),
                                       limit=isinstance(exc, milp.SolverLimitError),
                                       wall_seconds=time.perf_counter() - start))
        return rows

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_value = list(pool.map(rows_of, values))
    else:
        per_value = [rows_of(value) for value in values]
    return [row for rows in per_value for row in rows]


def _sweep_row(axis, value, method, *, objective=math.nan, provisioning=math.nan,
               average_cost=math.nan, worst_cost=math.nan, certified_worst=math.nan,
               wall_seconds=math.nan, error="", limit=False) -> dict:
    # sweep.csv leaves out `limit`
    return {
        "axis": axis, "value": value, "method": method, "objective": objective,
        "provisioning": provisioning, "average_cost": average_cost,
        "worst_cost": worst_cost, "certified_worst": certified_worst,
        "wall_seconds": wall_seconds, "error": error, "limit": limit,
    }


def sweep_to_csv(rows) -> str:
    cols = ["axis", "value", "method", "objective", "provisioning", "average_cost",
            "worst_cost", "certified_worst", "wall_seconds", "error"]
    return csv_text(cols, ([row.get(c, "") for c in cols] for row in rows))
