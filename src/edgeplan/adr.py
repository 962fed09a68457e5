"""Affine decision rules: a conservative single-MILP approximation.

Second-stage allocation and unmet demand are restricted to affine
functions of the uncertainty, x = A lam + B z + D and q = E lam + F z + G.
Substituting lam = lam_bar + lam_tilde*g turns every second-stage
constraint into a robust row

    const(decisions) + c(policy).g + w(policy).z <= 0   for all (g, z)

over the budgeted binary sets sum(g) <= gamma, sum(z) <= kappa.  Both
budget polytopes are integral, so the worst case equals the LP maximum
and strong duality replaces it:

    max{c.g} = min{gamma*mu + sum(eta) : mu + eta_e >= c_e, mu, eta >= 0}
    max{w.z} = min{kappa*v + sum(sigma) : v + sigma_l >= w_l, v, sigma >= 0}

Each robust row therefore contributes one aggregated constraint plus
I+J dual-feasibility rows and I+J+2 dual variables.  The result is an
upper bound on the exact two-stage optimum, tight when one of the two
budgets is at most one and the other is zero (the uncertainty set is
then a simplex, where affine policies are lossless).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import milp
from .core import (
    FirstStagePlan,
    ProblemInstance,
    RecourseOutcome,
    Scenario,
    UncertaintyModel,
    second_stage_cost,
)
from .ccg import _build_first_stage, _extract_plan


@dataclass(frozen=True)
class AffinePolicy:
    """Affine recourse maps; x is (I,J), q is (I,), inputs are lam (I,) and z (J,)."""

    A: np.ndarray  # (I, J, I) demand coefficients of x
    B: np.ndarray  # (I, J, J) failure coefficients of x
    D: np.ndarray  # (I, J) intercept of x
    E: np.ndarray  # (I, I) demand coefficients of q
    F: np.ndarray  # (I, J) failure coefficients of q
    G: np.ndarray  # (I,) intercept of q


@dataclass(frozen=True)
class AdrSolution:
    plan: FirstStagePlan
    policy: AffinePolicy
    objective: float
    phi: float
    duals: dict
    status: str
    wall_seconds: float


def evaluate_policy(instance: ProblemInstance, policy: AffinePolicy,
                    scenario: Scenario) -> RecourseOutcome:
    """Apply the affine maps to one scenario; no clamping, so feasibility
    (nonnegativity included) is a property of the policy, not this function."""
    lam = scenario.demand
    z = scenario.failures.astype(float)
    x = np.einsum("ijk,k->ij", policy.A, lam) + np.einsum("ijl,l->ij", policy.B, z) + policy.D
    q = policy.E @ lam + policy.F @ z + policy.G
    return RecourseOutcome(allocation=x, unmet=q,
                           second_stage_cost=second_stage_cost(instance, x, q))


def _expr(ids=(), coeffs=(), const=0.0):
    return list(ids), list(coeffs), const


def _extend(expr, ids, coeffs):
    expr[0].extend(int(v) for v in np.atleast_1d(ids))
    expr[1].extend(np.broadcast_to(coeffs, np.atleast_1d(ids).shape).tolist())


class _RobustRows:
    """Adds one dualized robust row per call and records the dual ids."""

    def __init__(self, model: milp.Model, uncertainty: UncertaintyModel,
                 num_areas: int, num_nodes: int):
        self.model = model
        self.gamma = float(uncertainty.gamma)
        self.kappa = float(uncertainty.failure_budget)
        self.ni = num_areas
        self.nj = num_nodes
        self.duals: dict[str, dict[str, list]] = {}

    def add(self, family: str, const, c_exprs, w_exprs) -> None:
        # const + max_g c.g + max_z w.z <= 0, with both maxima dualized
        m = self.model
        mu = m.add_var(lb=0.0)
        eta = m.add_vars(self.ni, lb=0.0)
        v = m.add_var(lb=0.0)
        sigma = m.add_vars(self.nj, lb=0.0)
        ids, coeffs, scalar = const
        row_ids = ids + [mu] + list(eta) + [v] + list(sigma)
        row_coeffs = coeffs + [self.gamma] + [1.0] * self.ni + [self.kappa] + [1.0] * self.nj
        m.add_constr(row_ids, row_coeffs, milp.LE, -scalar)
        for e, (c_ids, c_coeffs, c_scalar) in enumerate(c_exprs):
            m.add_constr([mu, eta[e]] + c_ids, [1.0, 1.0] + [-c for c in c_coeffs],
                         milp.GE, c_scalar)
        for l, (w_ids, w_coeffs, w_scalar) in enumerate(w_exprs):
            m.add_constr([v, sigma[l]] + w_ids, [1.0, 1.0] + [-c for c in w_coeffs],
                         milp.GE, w_scalar)
        rec = self.duals.setdefault(family, {"mu": [], "eta": [], "v": [], "sigma": []})
        rec["mu"].append(mu)
        rec["eta"].append(list(eta))
        rec["v"].append(v)
        rec["sigma"].append(list(sigma))


def assemble_adr_milp(instance: ProblemInstance, *, integral_procurement: bool = True
                      ) -> tuple[milp.Model, dict]:
    """Build the affine-policy MILP; returns the model and the id index."""
    ni, nj = instance.num_areas, instance.num_nodes
    lb, lt = instance.nominal_demand, instance.demand_deviation
    pen, cap = instance.unmet_penalty, instance.capacity
    beta_d = instance.beta * instance.delay
    acap = instance.eligibility * cap[None, :]

    model = milp.Model("adr")
    t, y = _build_first_stage(model, instance, integral_procurement)
    phi = model.add_var(lb=0.0)
    free = -np.inf
    a_v = model.add_vars((ni, nj, ni), lb=free)
    b_v = model.add_vars((ni, nj, nj), lb=free)
    d_v = model.add_vars((ni, nj), lb=free)
    e_v = model.add_vars((ni, ni), lb=free)
    f_v = model.add_vars((ni, nj), lb=free)
    g_v = model.add_vars(ni, lb=free)
    rows = _RobustRows(model, instance.uncertainty, ni, nj)

    def x0(i, j):
        # intercept of x_ij at nominal demand: D_ij + sum_k A_ijk lam_bar_k
        ex = _expr([d_v[i, j]], [1.0])
        _extend(ex, a_v[i, j, :], lb)
        return ex

    def q0(i):
        ex = _expr([g_v[i]], [1.0])
        _extend(ex, e_v[i, :], lb)
        return ex

    # worst-case cost epigraph: P.q + beta d.x <= phi
    const = _expr([phi], [-1.0])
    _extend(const, g_v, pen)
    for i in range(ni):
        _extend(const, e_v[i, :], pen[i] * lb)
        _extend(const, d_v[i, :], beta_d[i, :])
        for j in range(nj):
            _extend(const, a_v[i, j, :], beta_d[i, j] * lb)
    c_exprs = []
    for e in range(ni):
        ex = _expr()
        _extend(ex, e_v[:, e], pen * lt[e])
        _extend(ex, a_v[:, :, e].ravel(), (beta_d * lt[e]).ravel())
        c_exprs.append(ex)
    w_exprs = []
    for l in range(nj):
        ex = _expr()
        _extend(ex, f_v[:, l], pen)
        _extend(ex, b_v[:, :, l].ravel(), beta_d.ravel())
        w_exprs.append(ex)
    rows.add("epigraph", const, c_exprs, w_exprs)

    # demand cover: lam_i - sum_j x_ij - q_i <= 0
    for i in range(ni):
        const = _expr(const=lb[i])
        _extend(const, d_v[i, :], -1.0)
        _extend(const, [g_v[i]], -1.0)
        _extend(const, e_v[i, :], -lb)
        for j in range(nj):
            _extend(const, a_v[i, j, :], -lb)
        c_exprs = []
        for e in range(ni):
            ex = _expr(const=lt[i] if e == i else 0.0)
            _extend(ex, a_v[i, :, e], -lt[e])
            _extend(ex, [e_v[i, e]], -lt[e])
            c_exprs.append(ex)
        w_exprs = []
        for l in range(nj):
            ex = _expr()
            _extend(ex, b_v[i, :, l], -1.0)
            _extend(ex, [f_v[i, l]], -1.0)
            w_exprs.append(ex)
        rows.add("cover", const, c_exprs, w_exprs)

    # procurement: sum_i x_ij <= y_j, and capacity: sum_i x_ij <= C_j t_j (1 - z_j)
    for j in range(nj):
        for family in ("procurement", "capacity"):
            const = _expr()
            _extend(const, d_v[:, j], 1.0)
            for i in range(ni):
                _extend(const, a_v[i, j, :], lb)
            if family == "procurement":
                _extend(const, [y[j]], -1.0)
            else:
                _extend(const, [t[j]], -cap[j])
            c_exprs = []
            for e in range(ni):
                ex = _expr()
                _extend(ex, a_v[:, j, e], lt[e])
                c_exprs.append(ex)
            w_exprs = []
            for l in range(nj):
                ex = _expr()
                _extend(ex, b_v[:, j, l], 1.0)
                if family == "capacity" and l == j:
                    # the failed node's capacity row gains C_j t_j z_j
                    _extend(ex, [t[j]], cap[j])
                w_exprs.append(ex)
            rows.add(family, const, c_exprs, w_exprs)

    # box x_ij <= a_ij C_j and sign constraints x_ij >= 0
    for i in range(ni):
        for j in range(nj):
            for family, sign, shift in (("box", 1.0, -acap[i, j]), ("x_nonneg", -1.0, 0.0)):
                const = _expr(const=shift)
                _extend(const, [d_v[i, j]], sign)
                _extend(const, a_v[i, j, :], sign * lb)
                c_exprs = [_expr([a_v[i, j, e]], [sign * lt[e]]) for e in range(ni)]
                w_exprs = [_expr([b_v[i, j, l]], [sign]) for l in range(nj)]
                rows.add(family, const, c_exprs, w_exprs)

    # q_i >= 0
    for i in range(ni):
        const = _expr([g_v[i]], [-1.0])
        _extend(const, e_v[i, :], -lb)
        c_exprs = [_expr([e_v[i, e]], [-lt[e]]) for e in range(ni)]
        w_exprs = [_expr([f_v[i, l]], [-1.0]) for l in range(nj)]
        rows.add("q_nonneg", const, c_exprs, w_exprs)

    obj_ids = np.concatenate([y, t, [phi]])
    obj_coeffs = np.concatenate([instance.price, instance.node_cost, [1.0]])
    model.set_objective(obj_ids, obj_coeffs)
    index = {"t": t, "y": y, "phi": phi, "A": a_v, "B": b_v, "D": d_v,
             "E": e_v, "F": f_v, "G": g_v, "duals": rows.duals}
    return model, index


def solve_adr(instance: ProblemInstance, *, mip_gap: float | None = None,
              time_limit: float | None = None,
              integral_procurement: bool = True) -> AdrSolution:
    """Solve the affine-policy MILP; objective is an upper bound on the
    exact two-stage optimum (equal on simplex uncertainty sets)."""
    start = time.perf_counter()
    model, index = assemble_adr_milp(instance, integral_procurement=integral_procurement)
    result = milp.solve(model, mip_gap=mip_gap, time_limit=time_limit)
    milp.ensure_optimal(result, "affine policy model")
    plan = _extract_plan(instance, result, index["t"], index["y"], integral_procurement)
    policy = AffinePolicy(
        A=result.value(index["A"]), B=result.value(index["B"]), D=result.value(index["D"]),
        E=result.value(index["E"]), F=result.value(index["F"]), G=result.value(index["G"]))
    duals = {
        family: {
            "mu": np.array([result.values[i] for i in rec["mu"]]),
            "eta": np.array([[result.values[i] for i in row] for row in rec["eta"]]),
            "v": np.array([result.values[i] for i in rec["v"]]),
            "sigma": np.array([[result.values[i] for i in row] for row in rec["sigma"]]),
        }
        for family, rec in index["duals"].items()
    }
    return AdrSolution(plan=plan, policy=policy, objective=result.objective,
                       phi=float(result.values[index["phi"]]), duals=duals,
                       status=result.status, wall_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# model-size audit


@dataclass(frozen=True)
class SizeAudit:
    num_areas: int
    num_nodes: int
    reference_constraints: int
    reference_variables: int
    built_constraints: int
    built_variables: int

    @property
    def constraint_delta(self) -> int:
        return self.reference_constraints - self.built_constraints

    @property
    def variable_delta(self) -> int:
        return self.reference_variables - self.built_variables


def reference_counts(num_areas: int, num_nodes: int) -> tuple[int, int]:
    """Published closed-form model sizes (constraints, variables)."""
    i, j = num_areas, num_nodes
    constraints = i * j * (4 * i + 4 * j + 11) + 4 * i * (i + 1) + 3 * j * (j + 4) + 5
    variables = i * j * (2 * i + 2 * j + 13) + i * (3 * i + j + 3) + j * (2 * j + 7)
    return constraints, variables


def predicted_counts(num_areas: int, num_nodes: int) -> tuple[int, int]:
    """Closed-form sizes of the model this module actually assembles.

    2IJ+2I+2J+1 robust rows, each with I+J+1 constraints (aggregate plus
    dual feasibility) and I+J+2 dual variables, plus the first stage.
    """
    i, j = num_areas, num_nodes
    rows = 2 * i * j + 2 * i + 2 * j + 1
    constraints = 1 + j + rows * (i + j + 1)
    variables = (2 * j + 1) + (i * j * (i + j + 2)) + i * (i + 1) + rows * (i + j + 2)
    return constraints, variables


def audit_model_size(num_areas: int, num_nodes: int) -> SizeAudit:
    """Assemble a dummy instance of the given shape and count for real."""
    i, j = num_areas, num_nodes
    instance = ProblemInstance(
        price=np.ones(j), capacity=np.ones(j), placement_cost=np.ones(j),
        storage_cost=np.zeros(j), initial_placement=np.zeros(j),
        delay=np.ones((i, j)), beta=1.0, unmet_penalty=np.ones(i), budget=1.0,
        nominal_demand=np.ones(i), demand_deviation=np.ones(i),
        uncertainty=UncertaintyModel(gamma=min(1, i), failure_budget=min(1, j)))
    model, _ = assemble_adr_milp(instance)
    ref_c, ref_v = reference_counts(i, j)
    return SizeAudit(num_areas=i, num_nodes=j,
                     reference_constraints=ref_c, reference_variables=ref_v,
                     built_constraints=model.num_constraints,
                     built_variables=model.num_vars)


def policy_to_json(policy: AffinePolicy) -> str:
    ni, nj = policy.D.shape
    payload = {
        "num_areas": ni, "num_nodes": nj,
        "A": policy.A.tolist(), "B": policy.B.tolist(), "D": policy.D.tolist(),
        "E": policy.E.tolist(), "F": policy.F.tolist(), "G": policy.G.tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def policy_from_json(text: str) -> AffinePolicy:
    raw = json.loads(text)
    ni, nj = int(raw["num_areas"]), int(raw["num_nodes"])
    def arr(key, shape):
        a = np.asarray(raw[key], dtype=float)
        if a.shape != shape:
            raise ValueError(f"policy field {key} has shape {a.shape}, expected {shape}")
        a.setflags(write=False)
        return a
    return AffinePolicy(A=arr("A", (ni, nj, ni)), B=arr("B", (ni, nj, nj)),
                        D=arr("D", (ni, nj)), E=arr("E", (ni, ni)),
                        F=arr("F", (ni, nj)), G=arr("G", (ni,)))
