"""Exact two-stage robust planning by column-and-constraint generation.

The master MILP optimizes the first stage against a growing pool of
uncertainty vertices (lower bound); the subproblem finds the worst vertex
for the current plan (upper bound via its certified cost).  Two
interchangeable subproblem oracles reformulate the same LP, the replay's
allocation LP with its one live-stock row per node: its dual with
linearized bilinear terms (one dual per node), and a KKT (Fortuny-Amat)
system that complements the node, cover, x-column and q-column rows only.
Neither prices the box x_ij <= a_ij C_j, which the node row implies.  The
extensive-form MILP over the full vertex set serves as the exactness
oracle for both.  Each `run_ccg` call keeps its models live in HiGHS: one
master, grown by a recourse block per pooled vertex, and one oracle model,
edited for each plan (the duality oracle's costs, the KKT oracle's column
bounds).
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
    csv_text,
    demand_from_g,
    enumerate_vertices,
    provisioning_cost,
)

DEFAULT_EPS = 1e-6
DEFAULT_MAX_ITERATIONS = 500
# MIP gap of the first CCG masters; run_ccg tightens it toward the oracle's
_START_GAP = 1e-2
_DEGENERATE_UB = 1e-9
# recourse columns (vertices times L + I, L served pairs) the extensive form may build:
# on a 2-vCPU host, generated 7x7 (48,720) took 6-9 s and 300 MB, 8x8 (129,648) 41-51 s and 654 MB
EXTENSIVE_COLUMN_CAP = 250_000


@dataclass(frozen=True)
class MasterSolution:
    plan: FirstStagePlan
    eta: float
    lower_bound: float
    objective: float
    gap: float
    status: str


@dataclass(frozen=True)
class SubproblemSolution:
    """Worst-case answer for a fixed plan.

    `value` is the inner-LP optimum at `worst_scenario`; `bound` is the
    solver's proven upper bound on the worst case over the whole set
    (equal to `value` at optimality, larger when a limit stopped the
    solve with an incumbent, and then `status` is "limit", not "optimal").
    """

    worst_scenario: Scenario
    value: float
    bound: float
    status: str


@dataclass
class IterationRecord:
    iteration: int
    lower_bound: float
    upper_bound: float
    gap: float
    master_seconds: float
    subproblem_seconds: float
    scenario_repeated: bool
    master_gap: float
    master_solves: int
    master_status: str


@dataclass
class CcgState:
    pool: list[Scenario] = field(default_factory=list)
    trace: list[IterationRecord] = field(default_factory=list)


@dataclass(frozen=True)
class CcgResult:
    plan: FirstStagePlan
    objective: float
    state: CcgState
    converged: bool
    message: str


def _gap_and_convergence(lb: float, ub: float, eps: float) -> tuple[float, bool]:
    # degenerate optimum near zero: relative gap is meaningless, fall back to absolute
    if not (np.isfinite(lb) and np.isfinite(ub)):
        return np.inf, False
    if abs(ub) < _DEGENERATE_UB:
        diff = abs(ub - lb)
        return diff, diff <= _DEGENERATE_UB
    gap = (ub - lb) / abs(ub)
    return gap, gap <= eps


def _build_first_stage(model: milp.Model, instance: ProblemInstance
                       ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Plan columns t, y with the budget and coupling rows; also returns the
    (ids, coeffs) of the provisioning cost p.y + h.t for objectives."""
    j = instance.num_nodes
    t = model.add_vars(j, kind=milp.BINARY)
    y = model.add_vars(j, kind=milp.INTEGER, lb=0.0, ub=instance.capacity)
    provisioning = (np.concatenate([y, t]), np.concatenate([instance.price, instance.node_cost]))
    # budget: p.y + h.t <= B
    model.add_constr(*provisioning, milp.LE, instance.budget)
    # coupling: y_j <= C_j t_j
    model.add_constr(np.stack([y, t], axis=1),
                     np.stack([np.ones(j), -instance.capacity], axis=1), milp.LE, 0.0)
    return t, y, provisioning


def _recourse_cost(instance: ProblemInstance, x: np.ndarray, q: np.ndarray, *,
                   weight: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(ids, coeffs) of the second-stage cost weight * (P.q + beta d.x)."""
    return (np.concatenate([q, x.ravel()]),
            np.concatenate([weight * instance.unmet_penalty,
                            weight * instance.beta * instance.delay.ravel()]))


def _add_recourse_block(model: milp.Model, instance: ProblemInstance, scenario: Scenario,
                        t: np.ndarray, y: np.ndarray,
                        eta: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Allocation LP of one scenario against the plan columns t, y; returns
    the (x, q) id blocks, so that callers can price them in an objective
    (stochastic extensive forms) instead of linking eta.

    x_ij has a column, boxed by s_ij = `ProblemInstance.served_capacity`,
    only where its link bound min(lambda_i, s_ij)(1 - z_j) is positive;
    elsewhere (failed node, no demand, or a dead pair) it is `milp.PAD`.
    Rows, in order: one procurement row per node, sum_i x_ij <= y_j; one
    cover row per area; the epigraph row when eta is given; and one linking
    row of capacitated facility location per x column, x_ij <= link_ij t_j,
    in row-major pair order.  Some block optimum of every integral plan
    meets them (serving beyond demand or a dominated pair never lowers the
    cost, and t_j = 1 already caps x_ij at C_j), so only the LP relaxation
    tightens.  Placed capacity, sum_i x_ij <= C_j t_j (1 - z_j), needs no
    row: the caller's coupling row y_j <= C_j t_j (`_build_first_stage`)
    and the procurement row imply it.  A scenario sized for another
    instance raises `ScenarioError`.
    """
    scenario._check_size(instance)
    ni = instance.num_areas
    cap = instance.served_capacity
    link = np.minimum(scenario.demand[:, None], cap) * (1.0 - scenario.failures)[None, :]
    x = model.add_masked_vars(link > 0, ub=cap)
    q = model.add_vars(ni, lb=0.0)
    # node j serves within its procurement y_j
    model.add_constr(np.column_stack([x.T, y]), np.append(np.ones(ni), -1.0), milp.LE, 0.0)
    # demand is served or dropped
    model.add_constr(np.column_stack([x, q]), 1.0, milp.GE, scenario.demand)
    if eta is not None:
        # eta >= second-stage cost of this vertex
        ids, coeffs = _recourse_cost(instance, x, q)
        model.add_constr(np.append(eta, ids), np.append(1.0, -coeffs), milp.GE, 0.0)
    rows, cols = np.nonzero(link)
    model.add_constr(np.column_stack([x[rows, cols], t[cols]]),
                     np.column_stack([np.ones(rows.size), -link[rows, cols]]), milp.LE, 0.0)
    return x, q


def _extract_plan(instance: ProblemInstance, result: milp.SolveResult,
                  t: np.ndarray, y: np.ndarray) -> FirstStagePlan:
    t_val = np.round(result.value(t)).astype(np.int8)
    y_val = np.clip(np.round(result.value(y)), 0.0, instance.capacity * t_val)
    return FirstStagePlan(t_val, y_val)


class _Master:
    """A CCG master that grows: the first stage and eta, then one recourse
    block per pooled vertex, in pool order.  Its `milp.Handle`, opened with
    the first stage, passes HiGHS each later block."""

    def __init__(self, instance: ProblemInstance, time_limit: float | None):
        self.instance = instance
        self.model = milp.Model("ccg-master")
        self.t, self.y, (ids, coeffs) = _build_first_stage(self.model, instance)
        self.eta = self.model.add_var(lb=0.0)
        self.model.set_objective(np.append(ids, self.eta), np.append(coeffs, 1.0))
        self.vertices = 0
        self.handle = milp.Handle(self.model, time_limit=time_limit)

    def solve(self, vertex_pool: list[Scenario], mip_gap: float | None) -> MasterSolution:
        for scenario in vertex_pool[self.vertices:]:
            _add_recourse_block(self.model, self.instance, scenario, self.t, self.y, self.eta)
        self.vertices = len(vertex_pool)
        self.handle.set_mip_gap(mip_gap)
        result = self.handle.solve()
        plan = _extract_plan(self.instance, result, self.t, self.y)
        return MasterSolution(plan=plan, eta=float(result.value(self.eta)),
                              lower_bound=result.dual_bound, objective=result.objective,
                              gap=result.gap, status=result.status)


def solve_master(instance: ProblemInstance, vertex_pool: list[Scenario], *,
                 mip_gap: float | None = None, time_limit: float | None = None,
                 kept: dict | None = None) -> MasterSolution:
    """Master MILP over the pooled vertices; its dual bound is the global LB.

    `kept` holds the models of one `run_ccg` call.  The master kept there
    holds the pool of the previous call, a prefix of `vertex_pool`, and its
    first call's `time_limit`.  Every call grows the master by the new
    vertices and solves it at `mip_gap`; without `kept`, the master is new.
    """
    kept = {} if kept is None else kept
    if "ccg-master" not in kept:
        kept["ccg-master"] = _Master(instance, time_limit)
    return kept["ccg-master"].solve(vertex_pool, mip_gap)


# ---------------------------------------------------------------------------
# duality-based subproblem


def _worst_case_answer(instance: ProblemInstance, result: milp.SolveResult,
                       g: np.ndarray, z: np.ndarray) -> SubproblemSolution:
    """An oracle's answer: the worst vertex from its g/z bits.  A limit with an
    incumbent is a degraded answer whose bound exceeds its value."""
    g_val = np.clip(np.round(result.value(g)), 0, 1)
    z_val = np.clip(np.round(result.value(z)), 0, 1).astype(np.int8)
    return SubproblemSolution(worst_scenario=Scenario(demand_from_g(instance, g_val), z_val),
                              value=result.objective, bound=result.dual_bound,
                              status=result.status)


def _add_product(model: milp.Model, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                 big) -> None:
    """w = a b for a binary b and 0 <= a <= big, as its three McCormick row blocks."""
    n = w.size
    big = np.broadcast_to(big, w.shape)
    model.add_constr(np.column_stack([w, a]), [1.0, -1.0], milp.LE, 0.0)
    model.add_constr(np.column_stack([w, b]), np.column_stack([np.ones(n), -big]), milp.LE, 0.0)
    model.add_constr(np.column_stack([w, a, b]), np.column_stack([np.ones(n), -np.ones(n), -big]),
                     milp.GE, -big)


def _build_duality_model(instance: ProblemInstance, plan: FirstStagePlan, m_u: float):
    """Dual of the replay's allocation LP over the served pairs
    (`evaluation.solve_recourse_batch`, its w and r at their bounds:
    sum_i x_ij <= live_j (1 - z_j) per node, live = `FirstStagePlan.live_stock`,
    and one cover row per area) with the worst-case selectors:

    max  lam_bar.s + lam_tilde.v + sum_j live_j (U_j - u_j)
    s.t. s_i - u_j <= beta d_ij                          (column of x_ij)
         s_i <= P_i                                      (column of q_i)
         v_i = s_i g_i, U_j = z_j u_j linearized with big-M
         sum g <= gamma, sum z <= failure_budget, g/z binary.

    The replay's box x_ij <= a_ij C_j on a served pair gets no dual:
    live_j <= C_j, so the node row implies it.  As in the replay, only served
    pairs (`ProblemInstance.served_capacity`) have an x, here an x-column
    row: a dominated pair's holds anyway (s_i <= P_i < beta d_ij).

    u_j is priced at -live_j (1 - z_j) <= 0, so some optimum has
    u_j = max(0, max_i s_i - beta d_ij) <= max_i P_i, and bounding u by any
    `m_u >= max P` is exact.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    rows, cols = np.nonzero(instance.served_capacity)
    model = milp.Model("subproblem-duality", maximize=True)
    s = model.add_vars(ni, lb=0.0, ub=instance.unmet_penalty)
    v = model.add_vars(ni, lb=0.0, ub=instance.unmet_penalty)
    u = model.add_vars(nj, lb=0.0, ub=m_u)
    uu = model.add_vars(nj, lb=0.0, ub=m_u)
    g = model.add_vars(ni, kind=milp.BINARY)
    z = model.add_vars(nj, kind=milp.BINARY)

    # column of x_ij, one row per served (i, j) in row-major order
    model.add_constr(np.column_stack([s[rows], u[cols]]), [1.0, -1.0], milp.LE,
                     instance.beta * instance.delay[rows, cols])
    _add_product(model, v, s, g, instance.unmet_penalty)
    _add_product(model, uu, u, z, m_u)
    model.add_constr(g, np.ones(ni), milp.LE, instance.uncertainty.gamma)
    model.add_constr(z, np.ones(nj), milp.LE, instance.uncertainty.failure_budget)

    live = plan.live_stock(instance)
    model.set_objective(np.concatenate([s, v, uu, u]),
                        np.concatenate([instance.nominal_demand, instance.demand_deviation,
                                        live, -live]))
    return model, dict(s=s, v=v, u=u, U=uu, g=g, z=z)


def solve_subproblem_duality(instance: ProblemInstance, plan: FirstStagePlan, *,
                             mip_gap: float | None = None, time_limit: float | None = None,
                             kept: dict | None = None) -> SubproblemSolution:
    """Worst-case second-stage cost for a plan, via the dual MILP.

    The plan enters only through the costs of U and u (see
    `_build_duality_model`).  The model is built once per `kept`, the
    models of one `run_ccg` call, with its first call's `time_limit`; every
    call, the first included, prices U and u for its plan and solves.
    """
    kept = {} if kept is None else kept
    if "subproblem-duality" not in kept:
        # the tightest exact box (see _build_duality_model); a wider one gives the
        # same maximum with a weaker LP relaxation.  Among tied worst vertices the
        # width can change which one HiGHS returns, and with it the CCG trace
        m_u = float(instance.unmet_penalty.max(initial=0.0))
        model, blocks = _build_duality_model(instance, plan, m_u)
        kept["subproblem-duality"] = milp.Handle(model, time_limit=time_limit), blocks
    handle, blocks = kept["subproblem-duality"]
    stock = plan.live_stock(instance)
    handle.change_costs(np.concatenate([blocks["U"], blocks["u"]]),
                        np.concatenate([stock, -stock]))
    handle.set_mip_gap(mip_gap)
    result = handle.solve()
    return _worst_case_answer(instance, result, blocks["g"], blocks["z"])


# ---------------------------------------------------------------------------
# KKT-based subproblem


def _add_complement(model: milp.Model, a: np.ndarray, a_big, ids: np.ndarray, coeffs,
                    hi: np.ndarray, slack_big) -> None:
    """a_r = 0 or row r of coeffs.x[ids] <= hi tight, for 0 <= a <= a_big and
    a slack at most slack_big: one binary b per row, a <= a_big b and
    hi - coeffs.x <= slack_big (1 - b) (Fortuny-Amat)."""
    n = a.size
    a_big, slack_big = np.broadcast_to(a_big, (n,)), np.broadcast_to(slack_big, (n,))
    b = model.add_vars(n, kind=milp.BINARY)
    model.add_constr(np.column_stack([ids, b]),
                     np.column_stack([-np.broadcast_to(coeffs, ids.shape), slack_big]),
                     milp.LE, slack_big - hi)
    model.add_constr(np.column_stack([a, b]), np.column_stack([np.ones(n), -a_big]), milp.LE, 0.0)


def _build_kkt_model(instance: ProblemInstance, plan: FirstStagePlan):
    """Optimality system of the inner LP the duality oracle dualizes, the
    replay's (see `evaluation.solve_recourse_batch`, its w and r at their
    bounds): one row per node caps sum_i x_ij at the live stock
    min(y_j, C_j t_j)(1 - z_j), and one cover row per area.

    The plan enters only through the bounds of one column L_j per node,
    fixed at live_j = `FirstStagePlan.live_stock`.  The stock a failure
    takes, e_j = L_j z_j, is linearized with big-M C_j (live_j <= C_j), so
    the node row is sum_i x_ij + e_j - L_j <= 0, and at a binary z its right
    side is live_j (1 - z_j).  As in the replay, only the served pairs of
    `ProblemInstance.served_capacity` get an x_ij, which keeps the inner
    optimum (a dead pair is 0 in every one).  The model is primal
    feasibility (node and cover rows), dual feasibility (x-column rows
    s_i - u_j <= beta d_ij) and four complementarity blocks, built by
    `_add_complement`: u with the node rows, s with the cover rows, x with
    the x-column rows and q with the q-column rows s_i <= P_i.  The node
    row implies the box x_ij <= a_ij C_j, which is therefore only a column
    bound, with no complementarity.  Primal-side big-Ms come from
    capacities and demand ceilings, dual-side ones from max P, which bounds
    every dual vertex (see the duality oracle).
    """
    ni, nj = instance.num_areas, instance.num_nodes
    lam_bar, lam_tilde = instance.nominal_demand, instance.demand_deviation
    cap, pen = instance.capacity, instance.unmet_penalty
    acap = instance.served_capacity
    rows, cols = np.nonzero(acap)
    p_max = float(pen.max(initial=0.0))
    demand_top = lam_bar + lam_tilde
    live = plan.live_stock(instance)

    model = milp.Model("subproblem-kkt", maximize=True)
    x = model.add_masked_vars(acap > 0, ub=acap)
    q = model.add_vars(ni, lb=0.0, ub=demand_top)
    s = model.add_vars(ni, lb=0.0, ub=pen)
    u = model.add_vars(nj, lb=0.0, ub=p_max)
    g = model.add_vars(ni, kind=milp.BINARY)
    z = model.add_vars(nj, kind=milp.BINARY)
    stock = model.add_vars(nj, lb=live, ub=live)
    lost = model.add_vars(nj, lb=0.0, ub=cap)
    model.add_constr(g, np.ones(ni), milp.LE, instance.uncertainty.gamma)
    model.add_constr(z, np.ones(nj), milp.LE, instance.uncertainty.failure_budget)
    _add_product(model, lost, stock, z, cap)

    # node row: sum_i x_ij + e_j - L_j <= 0
    node = (np.column_stack([x.T, lost, stock]),
            np.column_stack([np.ones((nj, ni + 1)), -np.ones(nj)]), 0.0)
    # cover row: sum_j x_ij + q_i >= lam_bar_i + lam_tilde_i g_i, as a <= row
    cover = (np.column_stack([x, q, g]),
             np.column_stack([-np.ones((ni, nj + 1)), lam_tilde]), -lam_bar)
    # column of x_ij, one row per served (i, j) in row-major order
    beta_d = instance.beta * instance.delay[rows, cols]
    column = (np.column_stack([s[rows], u[cols]]), [1.0, -1.0], beta_d)
    for ids, coeffs, hi in (node, cover, column):
        model.add_constr(ids, coeffs, milp.LE, hi)
    _add_complement(model, u, p_max, *node, cap)
    _add_complement(model, s, pen, *cover, demand_top + acap.sum(axis=1))
    _add_complement(model, x[rows, cols], acap[rows, cols], *column, beta_d + p_max)
    # column of q_i, s_i <= P_i, is s's bound
    _add_complement(model, q, demand_top, s[:, None], 1.0, pen, pen)

    model.set_objective(*_recourse_cost(instance, x, q))
    return model, dict(L=stock, g=g, z=z)


def solve_subproblem_kkt(instance: ProblemInstance, plan: FirstStagePlan, *,
                         mip_gap: float | None = None, time_limit: float | None = None,
                         kept: dict | None = None) -> SubproblemSolution:
    """Worst-case second-stage cost via the inner LP's optimality system.

    The plan enters only through the bounds of L (see `_build_kkt_model`).
    The model is built once per `kept`, the models of one `run_ccg` call,
    with its first call's `time_limit`; every call, the first included,
    fixes L at its plan's live stock and solves.
    """
    kept = {} if kept is None else kept
    if "subproblem-kkt" not in kept:
        model, blocks = _build_kkt_model(instance, plan)
        kept["subproblem-kkt"] = milp.Handle(model, time_limit=time_limit), blocks
    handle, blocks = kept["subproblem-kkt"]
    live = plan.live_stock(instance)
    handle.change_col_bounds(blocks["L"], live, live)
    handle.set_mip_gap(mip_gap)
    result = handle.solve()
    return _worst_case_answer(instance, result, blocks["g"], blocks["z"])


_ORACLES = {"duality": solve_subproblem_duality, "kkt": solve_subproblem_kkt}


def worst_case_oracle(oracle: str):
    """The subproblem solver registered under `oracle` in `_ORACLES`."""
    if oracle not in _ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {sorted(_ORACLES)}")
    return _ORACLES[oracle]


def run_ccg(instance: ProblemInstance, oracle: str = "duality", eps: float = DEFAULT_EPS, *,
            max_iterations: int = DEFAULT_MAX_ITERATIONS, mip_gap: float | None = None,
            time_limit: float | None = None) -> CcgResult:
    """Alternate master and worst-case subproblem until the bounds meet.

    Starts from an empty vertex pool; iteration 0 solves the cut-free
    master (eta >= 0 only) and each iteration r >= 1 works with a pool of
    r vertices, so the counter never exceeds the vertex count.  Terminates
    when (UB-LB)/UB <= eps; the returned plan is the incumbent whose
    certified worst case equals the returned objective (the final upper
    bound).

    The oracle solves at the floor gap, `mip_gap` or else one tenth of eps
    (at most `milp.DEFAULT_MIP_GAP`), so bound noise cannot mask
    convergence.  The masters are inexact (Tsang, Shehadeh & Curtis, Oper.
    Res. Lett. 2023): the first solve at `_START_GAP` (never below the
    floor), and the master gap falls tenfold, down to the floor, after each
    iteration whose CCG gap is below twice it.  LB is the best master dual
    bound and UB the best certified worst case, both valid at any master
    gap and status.  A loose master's plan can draw a pooled vertex again
    without being optimal over the pool, so such a repeat re-solves that
    iteration's master at the floor, where the gap then stays, and calls
    the oracle again only if the plan changed; a repeat under a master at
    the floor, or stopped at its solver limit, stops the run.  A master or
    oracle stopped at its solver limit without a point (`SolverLimitError`)
    ends the run unconverged with the incumbent, or raises before there is
    one.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if max_iterations < 1:
        raise ValueError("need at least one iteration")
    subproblem = worst_case_oracle(oracle)
    floor = mip_gap if mip_gap is not None else min(milp.DEFAULT_MIP_GAP, eps / 10.0)
    master_gap = max(_START_GAP, floor)

    state = CcgState()
    seen: set[tuple] = set()
    lower, upper = -np.inf, np.inf
    incumbent: FirstStagePlan | None = None
    converged = False
    message = ""

    kept: dict = {}  # the master and oracle models of this call
    for r in range(0, max_iterations + 1):
        master_seconds = subproblem_seconds = 0.0
        plan = sub = None
        try:
            for master_solves in (1, 2):
                start = time.perf_counter()
                master = solve_master(instance, state.pool, mip_gap=master_gap,
                                      time_limit=time_limit, kept=kept)
                middle = time.perf_counter()
                lower = max(lower, master.lower_bound)
                if plan is None or not (np.array_equal(master.plan.placement, plan.placement) and
                                        np.array_equal(master.plan.procurement, plan.procurement)):
                    plan = master.plan
                    sub = subproblem(instance, plan, mip_gap=floor, time_limit=time_limit,
                                     kept=kept)
                    candidate = provisioning_cost(instance, plan) + sub.bound
                    if candidate < upper:
                        upper = candidate
                        incumbent = plan
                end = time.perf_counter()
                master_seconds += middle - start
                subproblem_seconds += end - middle
                key = sub.worst_scenario.key()
                repeated = key in seen
                gap, converged = _gap_and_convergence(lower, upper, eps)
                if converged or not repeated or master_gap <= floor or master.status == "limit":
                    break
                master_gap = floor
        except milp.SolverLimitError as exc:
            if incumbent is None:
                raise
            message = f"solver limit at iteration {r}, keeping the incumbent: {exc}"
            break

        state.trace.append(IterationRecord(
            iteration=r, lower_bound=lower, upper_bound=upper, gap=gap,
            master_seconds=master_seconds, subproblem_seconds=subproblem_seconds,
            scenario_repeated=repeated, master_gap=master.gap, master_solves=master_solves,
            master_status=master.status))
        if converged:
            message = f"converged at iteration {r}"
            break
        if repeated:
            # a repeated vertex under a master at the floor certifies LB=UB in
            # exact arithmetic; reaching this line means solver noise exceeded
            # eps, so stop honestly.  Under a master stopped at its limit it
            # proves nothing
            why = "master stopped at its solver limit" if master.status == "limit" else "stalled"
            message = f"{why}: repeated worst-case scenario at iteration {r} with gap {gap:.3e}"
            break
        seen.add(key)
        state.pool.append(sub.worst_scenario)
        if gap < 2.0 * master_gap:
            master_gap = max(master_gap / 10.0, floor)
    else:
        message = f"iteration cap {max_iterations} reached with gap {gap:.3e}"

    return CcgResult(
        plan=incumbent,
        objective=upper,
        state=state,
        converged=converged,
        message=message,
    )


def solve_extensive_form(instance: ProblemInstance, *, mip_gap: float | None = None,
                         time_limit: float | None = None) -> MasterSolution:
    """The master over every uncertainty vertex: one recourse block per vertex.

    Exact by enumeration; refuses, before building anything, a model of
    more than `EXTENSIVE_COLUMN_CAP` recourse columns.  Used as the
    ground-truth oracle for CCG and ADR tests.
    """
    columns = iteration_bound(instance) * (np.count_nonzero(instance.served_capacity)
                                           + instance.num_areas)
    if columns > EXTENSIVE_COLUMN_CAP:
        raise EnumerationCapError(f"extensive form infeasible: {columns} recourse columns "
                                  f"exceed the cap of {EXTENSIVE_COLUMN_CAP}")
    pairs = enumerate_vertices(instance.uncertainty, instance.num_areas, instance.num_nodes)
    return solve_master(instance, [Scenario(demand_from_g(instance, g), z) for g, z in pairs],
                        mip_gap=mip_gap, time_limit=time_limit)


def iteration_bound(instance: ProblemInstance) -> int:
    """Vertex count of the uncertainty set; CCG needs at most this many iterations."""
    return count_vertices(instance.uncertainty, instance.num_areas, instance.num_nodes)


def trace_to_csv(state: CcgState) -> str:
    return csv_text(
        ["iteration", "LB", "UB", "gap", "master_seconds", "subproblem_seconds", "master_gap",
         "master_solves", "master_status"],
        ([rec.iteration, rec.lower_bound, rec.upper_bound, rec.gap, f"{rec.master_seconds:.6f}",
          f"{rec.subproblem_seconds:.6f}", f"{rec.master_gap:.6g}", rec.master_solves,
          rec.master_status] for rec in state.trace))
