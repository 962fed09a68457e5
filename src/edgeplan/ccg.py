"""Exact two-stage robust planning by column-and-constraint generation.

The master MILP optimizes the first stage against a growing pool of
uncertainty vertices (lower bound); the subproblem finds the worst vertex
for the current plan (upper bound via its certified cost).  Two
interchangeable subproblem oracles are provided: a dual reformulation of
the inner allocation LP with linearized bilinear terms, and a KKT
(Fortuny-Amat) reformulation.  The extensive-form MILP over the full
vertex set serves as the exactness oracle for both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import milp
from .core import (
    EnumerationCapError,
    FirstStagePlan,
    ProblemInstance,
    Scenario,
    count_vertices,
    demand_from_g,
    enumerate_vertices,
    provisioning_cost,
)

DEFAULT_EPS = 1e-6
DEFAULT_MAX_ITERATIONS = 500
_DEGENERATE_UB = 1e-9


class NonconvergenceError(RuntimeError):
    """CCG stopped before closing the gap (iteration cap or stalled oracle)."""


@dataclass(frozen=True)
class MasterSolution:
    plan: FirstStagePlan
    eta: float
    lower_bound: float
    objective: float
    wall_seconds: float


@dataclass(frozen=True)
class SubproblemSolution:
    """Worst-case answer for a fixed plan.

    `value` is the inner-LP optimum at `worst_scenario`; `bound` is the
    solver's proven upper bound on the worst case over the whole set
    (equal to `value` at optimality, larger when a limit was hit and the
    certificate is degraded, i.e. `exact` is False).
    """

    worst_scenario: Scenario
    value: float
    bound: float
    exact: bool
    certificate: dict | None
    wall_seconds: float


@dataclass
class IterationRecord:
    iteration: int
    lower_bound: float
    upper_bound: float
    gap: float
    master_seconds: float
    subproblem_seconds: float
    scenario_repeated: bool


@dataclass
class CcgState:
    eps: float
    iteration: int = 0
    lower_bound: float = -np.inf
    upper_bound: float = np.inf
    pool: list[Scenario] = field(default_factory=list)
    trace: list[IterationRecord] = field(default_factory=list)


@dataclass(frozen=True)
class CcgResult:
    plan: FirstStagePlan
    objective: float
    state: CcgState
    converged: bool
    oracle: str
    message: str
    final_master_plan: FirstStagePlan
    wall_seconds: float


@dataclass(frozen=True)
class ExtensiveSolution:
    plan: FirstStagePlan
    objective: float
    num_vertices: int
    wall_seconds: float


def _gap_and_convergence(lb: float, ub: float, eps: float) -> tuple[float, bool]:
    # degenerate optimum near zero: relative gap is meaningless, fall back to absolute
    if not (np.isfinite(lb) and np.isfinite(ub)):
        return np.inf, False
    if abs(ub) < _DEGENERATE_UB:
        diff = abs(ub - lb)
        return diff, diff <= _DEGENERATE_UB
    gap = (ub - lb) / abs(ub)
    return gap, gap <= eps


def _build_first_stage(model: milp.Model, instance: ProblemInstance,
                       integral_procurement: bool) -> tuple[np.ndarray, np.ndarray]:
    j = instance.num_nodes
    t = model.add_vars(j, kind=milp.BINARY)
    y_kind = milp.INTEGER if integral_procurement else milp.CONTINUOUS
    y = model.add_vars(j, kind=y_kind, lb=0.0, ub=instance.capacity)
    # budget: p.y + h.t <= B
    model.add_constr(np.concatenate([y, t]),
                     np.concatenate([instance.price, instance.node_cost]),
                     milp.LE, instance.budget)
    # coupling: y_j <= C_j t_j
    for jj in range(j):
        model.add_constr([y[jj], t[jj]], [1.0, -instance.capacity[jj]], milp.LE, 0.0)
    return t, y


def _add_recourse_block(model: milp.Model, instance: ProblemInstance, scenario: Scenario,
                        t: np.ndarray, y: np.ndarray, eta: int | None,
                        weight: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Allocation block for one scenario; links eta (epigraph) when given.

    Returns the (x, q) id blocks so callers can place them in an objective
    (stochastic extensive forms) instead of an epigraph row.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    cap_ub = instance.eligibility * instance.capacity[None, :]
    x = model.add_vars((ni, nj), lb=0.0, ub=cap_ub)
    q = model.add_vars(ni, lb=0.0)
    z = scenario.failures
    for jj in range(nj):
        # allocation cannot exceed procurement at the node
        model.add_constr(np.append(x[:, jj], y[jj]), np.append(np.ones(ni), -1.0), milp.LE, 0.0)
        # failed nodes carry nothing; survivors at most placed capacity
        model.add_constr(np.append(x[:, jj], t[jj]),
                         np.append(np.ones(ni), -instance.capacity[jj] * (1.0 - z[jj])),
                         milp.LE, 0.0)
    for ii in range(ni):
        # demand is served or dropped
        model.add_constr(np.append(x[ii, :], q[ii]), np.ones(nj + 1), milp.GE, scenario.demand[ii])
    if eta is not None:
        # eta >= second-stage cost of this vertex
        ids = np.concatenate([[eta], q, x.ravel()])
        coeffs = np.concatenate([[1.0], -weight * instance.unmet_penalty,
                                 -weight * instance.beta * instance.delay.ravel()])
        model.add_constr(ids, coeffs, milp.GE, 0.0)
    return x, q


def _extract_plan(instance: ProblemInstance, result: milp.SolveResult,
                  t: np.ndarray, y: np.ndarray, integral_procurement: bool) -> FirstStagePlan:
    t_val = np.round(result.value(t)).astype(np.int8)
    y_val = np.asarray(result.value(y), dtype=float)
    y_val = np.round(y_val) if integral_procurement else np.maximum(y_val, 0.0)
    y_val = np.clip(y_val, 0.0, instance.capacity * t_val)
    return FirstStagePlan(t_val, y_val)


def _build_master_model(instance: ProblemInstance, pool: list[Scenario],
                        integral_procurement: bool) -> tuple[milp.Model, np.ndarray, np.ndarray, int]:
    model = milp.Model("ccg-master")
    t, y = _build_first_stage(model, instance, integral_procurement)
    eta = model.add_var(lb=0.0)
    for scenario in pool:
        _add_recourse_block(model, instance, scenario, t, y, eta)
    ids = np.concatenate([y, t, [eta]])
    coeffs = np.concatenate([instance.price, instance.node_cost, [1.0]])
    model.set_objective(ids, coeffs)
    return model, t, y, eta


def solve_master(instance: ProblemInstance, vertex_pool: list[Scenario], *,
                 mip_gap: float | None = None, time_limit: float | None = None,
                 integral_procurement: bool = True) -> MasterSolution:
    """Master MILP over the pooled vertices; its bound is the global LB."""
    model, t, y, eta = _build_master_model(instance, vertex_pool, integral_procurement)
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    milp.ensure_optimal(result, "CCG master (is the instance consistent?)")
    plan = _extract_plan(instance, result, t, y, integral_procurement)
    return MasterSolution(plan=plan, eta=float(result.value(eta)),
                          lower_bound=result.dual_bound, objective=result.objective,
                          wall_seconds=result.wall_seconds)


# ---------------------------------------------------------------------------
# duality-based subproblem


def _scenario_from_bits(instance: ProblemInstance, g_val: np.ndarray, z_val: np.ndarray) -> Scenario:
    g = np.clip(np.round(g_val), 0, 1)
    z = np.clip(np.round(z_val), 0, 1).astype(np.int8)
    return Scenario(demand_from_g(instance, g), z)


def _build_duality_model(instance: ProblemInstance, plan: FirstStagePlan, m_u: float):
    """Dual of the inner allocation LP with the worst-case selectors.

    max  lam_bar.s + lam_tilde.v + sum_j C_j t_j U_j - sum_j C_j t_j u1_j
         - sum_j y_j u2_j - sum_ij a_ij C_j pi_ij
    s.t. s_i - u1_j - u2_j - pi_ij <= beta d_ij          (column of x_ij)
         s_i <= P_i                                      (column of q_i)
         v_i = s_i g_i, U_j = z_j u1_j linearized with big-M
         sum g <= gamma, sum z <= failure_budget, g/z binary.

    Every dual vertex satisfies u1, u2, pi <= max_i P_i (each positive
    coordinate sits in a tight x-column row whose slack is bounded by s),
    so bounding u1 by any `m_u >= max P` is exact: a u1_j above
    max_i (s_i - beta d_ij)+ can be lowered without losing feasibility or
    objective.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    model = milp.Model("subproblem-duality", maximize=True)
    s = model.add_vars(ni, lb=0.0, ub=instance.unmet_penalty)
    v = model.add_vars(ni, lb=0.0, ub=instance.unmet_penalty)
    u1 = model.add_vars(nj, lb=0.0, ub=m_u)
    u2 = model.add_vars(nj, lb=0.0)
    uu = model.add_vars(nj, lb=0.0, ub=m_u)
    pi = model.add_vars((ni, nj), lb=0.0)
    g = model.add_vars(ni, kind=milp.BINARY)
    z = model.add_vars(nj, kind=milp.BINARY)

    for ii in range(ni):
        for jj in range(nj):
            model.add_constr([s[ii], u1[jj], u2[jj], pi[ii, jj]], [1.0, -1.0, -1.0, -1.0],
                             milp.LE, instance.beta * instance.delay[ii, jj])
    for ii in range(ni):
        # v_i = s_i g_i
        big = instance.unmet_penalty[ii]
        model.add_constr([v[ii], s[ii]], [1.0, -1.0], milp.LE, 0.0)
        model.add_constr([v[ii], g[ii]], [1.0, -big], milp.LE, 0.0)
        model.add_constr([v[ii], s[ii], g[ii]], [1.0, -1.0, -big], milp.GE, -big)
    for jj in range(nj):
        # U_j = z_j u1_j
        model.add_constr([uu[jj], u1[jj]], [1.0, -1.0], milp.LE, 0.0)
        model.add_constr([uu[jj], z[jj]], [1.0, -m_u], milp.LE, 0.0)
        model.add_constr([uu[jj], u1[jj], z[jj]], [1.0, -1.0, -m_u], milp.GE, -m_u)
    model.add_constr(g, np.ones(ni), milp.LE, instance.uncertainty.gamma)
    model.add_constr(z, np.ones(nj), milp.LE, instance.uncertainty.failure_budget)

    cap_t = instance.capacity * plan.placement
    ids = np.concatenate([s, v, uu, u1, u2, pi.ravel()])
    coeffs = np.concatenate([
        instance.nominal_demand,
        instance.demand_deviation,
        cap_t,
        -cap_t,
        -plan.procurement,
        -(instance.eligibility * instance.capacity[None, :]).ravel(),
    ])
    model.set_objective(ids, coeffs)
    return model, dict(s=s, v=v, u1=u1, u2=u2, U=uu, pi=pi, g=g, z=z)


def solve_subproblem_duality(instance: ProblemInstance, plan: FirstStagePlan, *,
                             mip_gap: float | None = None,
                             time_limit: float | None = None) -> SubproblemSolution:
    """Worst-case second-stage cost for a plan, via the dual MILP."""
    start = time.perf_counter()
    # any box at or above max P is exact (see _build_duality_model); the width
    # only decides which of tied worst-case vertices HiGHS returns, so changing
    # it changes which vertex CCG adds and with it the trace
    m_u = 10.0 * max(float(instance.unmet_penalty.max(initial=0.0)), 1.0)
    model, blocks = _build_duality_model(instance, plan, m_u)
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    if result.status not in ("optimal", "limit") or result.values is None:
        milp.ensure_optimal(result, "duality subproblem")
    scenario = _scenario_from_bits(instance, result.value(blocks["g"]), result.value(blocks["z"]))
    certificate = {name: result.value(blocks[name]) for name in ("s", "u1", "u2", "pi", "U", "v")}
    return SubproblemSolution(
        worst_scenario=scenario,
        value=result.objective,
        bound=result.dual_bound if np.isfinite(result.dual_bound) else result.objective,
        exact=result.status == "optimal",
        certificate=certificate,
        wall_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# KKT-based subproblem


def solve_subproblem_kkt(instance: ProblemInstance, plan: FirstStagePlan, *,
                         mip_gap: float | None = None,
                         time_limit: float | None = None) -> SubproblemSolution:
    """Worst-case second-stage cost via the inner LP's optimality system.

    Each complementarity pair gets one binary and two big-M rows; the
    primal-side constants come from capacities and demand ceilings, the
    dual-side constants from the penalty scale (every dual vertex is
    bounded by max P, see the duality oracle).
    """
    start = time.perf_counter()
    ni, nj = instance.num_areas, instance.num_nodes
    lam_bar, lam_tilde = instance.nominal_demand, instance.demand_deviation
    cap = instance.capacity
    acap = instance.eligibility * cap[None, :]
    p_max = float(instance.unmet_penalty.max(initial=0.0))
    demand_top = lam_bar + lam_tilde
    cap_t = cap * plan.placement

    model = milp.Model("subproblem-kkt", maximize=True)
    x = model.add_vars((ni, nj), lb=0.0, ub=acap)
    q = model.add_vars(ni, lb=0.0, ub=demand_top)
    s = model.add_vars(ni, lb=0.0, ub=instance.unmet_penalty)
    u1 = model.add_vars(nj, lb=0.0, ub=p_max)
    u2 = model.add_vars(nj, lb=0.0, ub=p_max)
    pi = model.add_vars((ni, nj), lb=0.0, ub=p_max)
    g = model.add_vars(ni, kind=milp.BINARY)
    z = model.add_vars(nj, kind=milp.BINARY)
    b1 = model.add_vars((ni, nj), kind=milp.BINARY)  # x > 0 forces tight stationarity
    b2 = model.add_vars(ni, kind=milp.BINARY)        # q > 0 forces s = P
    b3 = model.add_vars(nj, kind=milp.BINARY)        # u1 > 0 forces tight capacity
    b4 = model.add_vars(nj, kind=milp.BINARY)        # u2 > 0 forces tight procurement
    b5 = model.add_vars(ni, kind=milp.BINARY)        # s > 0 forces tight cover
    b6 = model.add_vars((ni, nj), kind=milp.BINARY)  # pi > 0 forces x at its box cap

    model.add_constr(g, np.ones(ni), milp.LE, instance.uncertainty.gamma)
    model.add_constr(z, np.ones(nj), milp.LE, instance.uncertainty.failure_budget)

    for jj in range(nj):
        # primal: sum_i x_ij <= y_j and <= C_j t_j (1 - z_j)
        model.add_constr(x[:, jj], np.ones(ni), milp.LE, plan.procurement[jj])
        model.add_constr(np.append(x[:, jj], z[jj]), np.append(np.ones(ni), cap_t[jj]),
                         milp.LE, cap_t[jj])
        # capacity slack <= C_j (1-b3); u1 <= p_max b3
        model.add_constr(np.concatenate([x[:, jj], [z[jj], b3[jj]]]),
                         np.concatenate([-np.ones(ni), [-cap_t[jj], cap[jj]]]),
                         milp.LE, cap[jj] - cap_t[jj])
        model.add_constr([u1[jj], b3[jj]], [1.0, -p_max], milp.LE, 0.0)
        # procurement slack <= y_j (1-b4); u2 <= p_max b4
        model.add_constr(np.append(x[:, jj], b4[jj]),
                         np.append(-np.ones(ni), plan.procurement[jj]), milp.LE, 0.0)
        model.add_constr([u2[jj], b4[jj]], [1.0, -p_max], milp.LE, 0.0)
    for ii in range(ni):
        # primal cover: sum_j x_ij + q_i >= lam_bar_i + lam_tilde_i g_i
        model.add_constr(np.concatenate([x[ii, :], [q[ii], g[ii]]]),
                         np.concatenate([np.ones(nj), [1.0, -lam_tilde[ii]]]),
                         milp.GE, lam_bar[ii])
        # cover slack <= M5 (1-b5); s <= P_i b5
        m5 = demand_top[ii] + float(acap[ii, :].sum())
        model.add_constr(np.concatenate([x[ii, :], [q[ii], g[ii], b5[ii]]]),
                         np.concatenate([np.ones(nj), [1.0, -lam_tilde[ii], m5]]),
                         milp.LE, lam_bar[ii] + m5)
        model.add_constr([s[ii], b5[ii]], [1.0, -instance.unmet_penalty[ii]], milp.LE, 0.0)
        # q > 0 forces the q-column tight (s_i = P_i): P_i - s_i <= P_i (1-b2)
        model.add_constr([s[ii], b2[ii]], [1.0, -instance.unmet_penalty[ii]], milp.GE, 0.0)
        model.add_constr([q[ii], b2[ii]], [1.0, -demand_top[ii]], milp.LE, 0.0)
    for ii in range(ni):
        for jj in range(nj):
            beta_d = instance.beta * instance.delay[ii, jj]
            # stationarity of x_ij: 0 <= beta d + u1 + u2 + pi - s <= M1 (1-b1)
            m1 = beta_d + 3.0 * p_max
            model.add_constr([u1[jj], u2[jj], pi[ii, jj], s[ii]], [1.0, 1.0, 1.0, -1.0],
                             milp.GE, -beta_d)
            model.add_constr([u1[jj], u2[jj], pi[ii, jj], s[ii], b1[ii, jj]],
                             [1.0, 1.0, 1.0, -1.0, m1], milp.LE, m1 - beta_d)
            model.add_constr([x[ii, jj], b1[ii, jj]], [1.0, -acap[ii, jj]], milp.LE, 0.0)
            # pi > 0 forces x at the box cap: a C - x <= a C (1-b6); pi <= p_max b6
            model.add_constr([x[ii, jj], b6[ii, jj]], [1.0, -acap[ii, jj]], milp.GE, 0.0)
            model.add_constr([pi[ii, jj], b6[ii, jj]], [1.0, -p_max], milp.LE, 0.0)

    ids = np.concatenate([q, x.ravel()])
    coeffs = np.concatenate([instance.unmet_penalty, instance.beta * instance.delay.ravel()])
    model.set_objective(ids, coeffs)

    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    if result.status not in ("optimal", "limit") or result.values is None:
        milp.ensure_optimal(result, "KKT subproblem")
    scenario = _scenario_from_bits(instance, result.value(g), result.value(z))
    certificate = {
        "x": result.value(x), "q": result.value(q), "s": result.value(s),
        "u1": result.value(u1), "u2": result.value(u2), "pi": result.value(pi),
    }
    return SubproblemSolution(
        worst_scenario=scenario,
        value=result.objective,
        bound=result.dual_bound if np.isfinite(result.dual_bound) else result.objective,
        exact=result.status == "optimal",
        certificate=certificate,
        wall_seconds=time.perf_counter() - start,
    )


_ORACLES = {"duality": solve_subproblem_duality, "kkt": solve_subproblem_kkt}


def worst_case_oracle(oracle: str):
    """The subproblem solver registered under `oracle` in `_ORACLES`."""
    if oracle not in _ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {sorted(_ORACLES)}")
    return _ORACLES[oracle]


def run_ccg(instance: ProblemInstance, oracle: str = "duality", eps: float = DEFAULT_EPS, *,
            max_iterations: int = DEFAULT_MAX_ITERATIONS, mip_gap: float | None = None,
            time_limit: float | None = None, integral_procurement: bool = True) -> CcgResult:
    """Alternate master and worst-case subproblem until the bounds meet.

    Starts from an empty vertex pool; iteration 0 solves the cut-free
    master (eta >= 0 only) and each iteration r >= 1 works with a pool of
    r vertices, so the counter never exceeds the vertex count.  Terminates
    when (UB-LB)/UB <= eps; the returned plan is the incumbent whose
    certified worst case equals the returned objective (the final upper
    bound).  Solver gaps default to one tenth of eps so bound noise cannot
    mask convergence.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iterations < 1:
        raise ValueError("need at least one iteration")
    subproblem = worst_case_oracle(oracle)
    gap_setting = mip_gap if mip_gap is not None else min(milp.DEFAULT_MIP_GAP, eps / 10.0)

    start = time.perf_counter()
    state = CcgState(eps=eps)
    seen: set[tuple] = set()
    incumbent: FirstStagePlan | None = None
    plan = FirstStagePlan.empty(instance.num_nodes)
    converged = False
    message = ""

    for r in range(0, max_iterations + 1):
        state.iteration = r
        master = solve_master(instance, state.pool, mip_gap=gap_setting,
                              time_limit=time_limit, integral_procurement=integral_procurement)
        plan = master.plan
        state.lower_bound = max(state.lower_bound, master.lower_bound)

        sub = subproblem(instance, plan, mip_gap=gap_setting, time_limit=time_limit)
        candidate = provisioning_cost(instance, plan) + sub.bound
        if candidate < state.upper_bound:
            state.upper_bound = candidate
            incumbent = plan

        key = sub.worst_scenario.key()
        repeated = key in seen
        gap, converged = _gap_and_convergence(state.lower_bound, state.upper_bound, eps)
        state.trace.append(IterationRecord(
            iteration=r, lower_bound=state.lower_bound, upper_bound=state.upper_bound,
            gap=gap, master_seconds=master.wall_seconds, subproblem_seconds=sub.wall_seconds,
            scenario_repeated=repeated))
        if converged:
            message = f"converged at iteration {r}"
            break
        if repeated:
            # a repeated vertex certifies LB=UB in exact arithmetic; reaching
            # this line means solver noise exceeded eps, so stop honestly
            message = f"stalled: repeated worst-case scenario at iteration {r} with gap {gap:.3e}"
            break
        seen.add(key)
        state.pool.append(sub.worst_scenario)
    else:
        gap = state.trace[-1].gap if state.trace else np.inf
        message = f"iteration cap {max_iterations} reached with gap {gap:.3e}"

    return CcgResult(
        plan=incumbent if incumbent is not None else plan,
        objective=state.upper_bound,
        state=state,
        converged=converged,
        oracle=oracle,
        message=message,
        final_master_plan=plan,
        wall_seconds=time.perf_counter() - start,
    )


def solve_extensive_form(instance: ProblemInstance, *, mip_gap: float | None = None,
                         time_limit: float | None = None, cap: int = 1_000_000,
                         integral_procurement: bool = True) -> ExtensiveSolution:
    """Monolithic MILP with one recourse block per uncertainty vertex.

    Exact by enumeration; refuses oversized vertex sets (`cap`).  Used as
    the ground-truth oracle for CCG and ADR tests.
    """
    pairs = enumerate_vertices(instance.uncertainty, instance.num_areas,
                               instance.num_nodes, cap=cap)
    scenarios = [Scenario(demand_from_g(instance, g), z) for g, z in pairs]
    model, t, y, eta = _build_master_model(instance, scenarios, integral_procurement)
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    milp.ensure_optimal(result, "extensive form")
    plan = _extract_plan(instance, result, t, y, integral_procurement)
    return ExtensiveSolution(plan=plan, objective=result.objective,
                             num_vertices=len(scenarios), wall_seconds=result.wall_seconds)


def iteration_bound(instance: ProblemInstance) -> int:
    """Vertex count of the uncertainty set; CCG needs at most this many iterations."""
    return count_vertices(instance.uncertainty, instance.num_areas, instance.num_nodes)


def trace_to_csv(state: CcgState) -> str:
    lines = ["iteration,LB,UB,gap,master_seconds,subproblem_seconds"]
    for rec in state.trace:
        lines.append(f"{rec.iteration},{rec.lower_bound:.12g},{rec.upper_bound:.12g},"
                     f"{rec.gap:.12g},{rec.master_seconds:.6f},{rec.subproblem_seconds:.6f}")
    return "\n".join(lines) + "\n"
