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

The robust rows come in five families: the cost epigraph, demand cover
per area, live stock sum_i x_ij <= y_j (1 - z_j) per node, sign x_ij >= 0
per served pair, and q >= 0 per area: L + 2I + J + 1 rows with L served
pairs.  A dead pair of `ProblemInstance.served_capacity` has the zero map,
with no A, B or D columns (`milp.PAD`) and no sign row.  That is the only
feasible map where a_ij C_j = 0; where beta d_ij > P_i, adding x_ij's map
to q_i's (E_i += A_ij, F_i += B_ij, G_i += D_ij) keeps every row and costs
no more.  A family of R rows gives its constant part as id/coefficient
arrays of shape (R, k), its demand part as (R, I, k) and its failure part
as (R, J, k); `_add_robust_rows` adds the family's duals as one block and
its aggregated, demand dual-feasibility and failure dual-feasibility rows
as one block each.
"""

from __future__ import annotations

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
    status: str


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


def _add_robust_rows(model: milp.Model, uncertainty: UncertaintyModel,
                     const, demand, failure) -> None:
    """Add one family of R robust rows `const + max_g c.g + max_z w.z <= 0`.

    Each part is (ids, coeffs, scalar), coeffs broadcasting against ids and
    the scalar against the part's rows: `const` has ids (R, k) and scalar
    (R,); c_e = coeffs.x[ids] + scalar with ids (R, I, k) and scalar (R, I);
    w_l likewise with ids (R, J, k).  Row r gets the dual columns
    [mu, eta (I), v, sigma (J)], contiguous and in row order.
    """
    c_ids, d_ids, f_ids = const[0], demand[0], failure[0]
    r, ni, nj = len(c_ids), d_ids.shape[1], f_ids.shape[1]
    duals = model.add_vars((r, ni + nj + 2), lb=0.0)
    weights = np.concatenate([[float(uncertainty.gamma)], np.ones(ni),
                              [float(uncertainty.failure_budget)], np.ones(nj)])
    model.add_constr(np.hstack([c_ids, duals]),
                     np.hstack([np.broadcast_to(const[1], c_ids.shape),
                                np.broadcast_to(weights, duals.shape)]),
                     milp.LE, -np.broadcast_to(const[2], r))
    # dual feasibility: mu + eta_e >= c_e and v + sigma_l >= w_l
    for lead, dual, (ids, coeffs, scalar) in ((duals[:, 0], duals[:, 1:ni + 1], demand),
                                              (duals[:, ni + 1], duals[:, ni + 2:], failure)):
        n, k = ids.shape[1:]
        block = np.concatenate([np.broadcast_to(lead[:, None, None], (r, n, 1)),
                                dual[:, :, None], ids], axis=2)
        signed = np.concatenate([np.ones((r, n, 2)), -np.broadcast_to(coeffs, ids.shape)], axis=2)
        model.add_constr(block.reshape(r * n, k + 2), signed.reshape(r * n, k + 2), milp.GE,
                         np.broadcast_to(scalar, (r, n)).ravel())


def assemble_adr_milp(instance: ProblemInstance) -> tuple[milp.Model, dict]:
    """Build the affine-policy MILP; returns the model and the id index."""
    ni, nj = instance.num_areas, instance.num_nodes
    lb, lt = instance.nominal_demand, instance.demand_deviation
    pen, beta_d = instance.unmet_penalty, instance.beta * instance.delay

    model = milp.Model("adr")
    t, y, (prov_ids, prov_coeffs) = _build_first_stage(model, instance)
    phi = model.add_var(lb=0.0)
    served = instance.served_capacity > 0
    a_v, b_v, d_v = (model.add_masked_vars(served, tail, lb=-np.inf) for tail in ((ni,), (nj,), ()))
    e_v = model.add_vars((ni, ni), lb=-np.inf)
    f_v = model.add_vars((ni, nj), lb=-np.inf)
    g_v = model.add_vars(ni, lb=-np.inf)
    u = instance.uncertainty

    # worst-case cost epigraph: P.q + beta d.x <= phi
    const = (np.concatenate([[phi], g_v, e_v.ravel(), d_v.ravel(), a_v.ravel()])[None],
             np.concatenate([[-1.0], pen, np.outer(pen, lb).ravel(), beta_d.ravel(),
                             (beta_d[:, :, None] * lb).ravel()]), 0.0)
    demand = (np.hstack([e_v.T, a_v.transpose(2, 0, 1).reshape(ni, -1)])[None],
              np.hstack([np.outer(lt, pen), (lt[:, None, None] * beta_d).reshape(ni, -1)]), 0.0)
    failure = (np.hstack([f_v.T, b_v.transpose(2, 0, 1).reshape(nj, -1)])[None],
               np.concatenate([pen, beta_d.ravel()]), 0.0)
    _add_robust_rows(model, u, const, demand, failure)

    # demand cover: lam_i - sum_j x_ij - q_i <= 0
    const = (np.hstack([d_v, g_v[:, None], e_v, a_v.reshape(ni, -1)]),
             np.concatenate([-np.ones(nj + 1), np.tile(-lb, nj + 1)]), lb)
    demand = (np.concatenate([a_v.transpose(0, 2, 1), e_v[:, :, None]], axis=2),
              -lt[:, None], np.diag(lt))
    failure = (np.concatenate([b_v.transpose(0, 2, 1), f_v[:, :, None]], axis=2), -1.0, 0.0)
    _add_robust_rows(model, u, const, demand, failure)

    # live stock per node j: sum_i x_ij <= y_j (1 - z_j).  Given the rows
    # 0 <= y_j <= C_j t_j of `_build_first_stage` (fractional t included), it
    # holds at a binary (g, z) exactly when sum_i x_ij <= y_j and
    # sum_i x_ij <= C_j t_j (1 - z_j) do, and the budget sets are integral, so
    # the robust rows agree; with the sign rows it also implies x_ij <= C_j.
    outflow = np.hstack([d_v.T, a_v.transpose(1, 0, 2).reshape(nj, -1)])
    const = (np.column_stack([outflow, y]),
             np.append(np.concatenate([np.ones(ni), np.tile(lb, ni)]), -1.0), 0.0)
    demand = (a_v.transpose(1, 2, 0), lt[:, None], 0.0)
    # z_j adds y_j to node j's row; other failures carry y_j at 0 (HiGHS drops it)
    failure = (np.dstack([b_v.transpose(1, 2, 0), np.repeat(y[:, None], nj, axis=1)]),
               np.dstack([np.ones((nj, nj, ni)), np.eye(nj)]), 0.0)
    _add_robust_rows(model, u, const, demand, failure)

    # sign per served (i, j): x_ij >= 0
    const = (np.concatenate([d_v[:, :, None], a_v], axis=2)[served],
             -np.concatenate([[1.0], lb]), 0.0)
    demand = (a_v[served][:, :, None], -lt[:, None], 0.0)
    failure = (b_v[served][:, :, None], -1.0, 0.0)
    _add_robust_rows(model, u, const, demand, failure)

    # q_i >= 0
    const = (np.hstack([g_v[:, None], e_v]), -np.concatenate([[1.0], lb]), 0.0)
    _add_robust_rows(model, u, const, (e_v[:, :, None], -lt[:, None], 0.0),
                     (f_v[:, :, None], -1.0, 0.0))

    model.set_objective(np.append(prov_ids, phi), np.append(prov_coeffs, 1.0))
    index = {"t": t, "y": y, "phi": phi, "A": a_v, "B": b_v, "D": d_v,
             "E": e_v, "F": f_v, "G": g_v}
    return model, index


def solve_adr(instance: ProblemInstance, *, mip_gap: float | None = None,
              time_limit: float | None = None) -> AdrSolution:
    """Solve the affine-policy MILP; objective is an upper bound on the
    exact two-stage optimum (equal on simplex uncertainty sets).  HiGHS
    solves it without presolve, which on this model costs more than it
    saves (the 6x6 model: about 57 ms with it, 22 ms without, same plan)."""
    model, index = assemble_adr_milp(instance)
    result = milp.Handle(model, mip_gap=mip_gap, time_limit=time_limit, presolve=False).solve()
    plan = _extract_plan(instance, result, index["t"], index["y"])
    policy = AffinePolicy(
        A=result.value(index["A"]), B=result.value(index["B"]), D=result.value(index["D"]),
        E=result.value(index["E"]), F=result.value(index["F"]), G=result.value(index["G"]))
    return AdrSolution(plan=plan, policy=policy, objective=result.objective,
                       phi=float(result.values[index["phi"]]),
                       status=result.status)


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


def predicted_counts(num_areas: int, num_nodes: int,
                     served_pairs: int | None = None) -> tuple[int, int]:
    """Closed-form sizes of the model this module actually assembles.

    With L served pairs (all I*J when not given): L+2I+J+1 robust rows,
    each with I+J+1 constraints (aggregate plus dual feasibility) and
    I+J+2 dual variables, plus the first stage; the maps take
    L(I+J+1) columns for x and I(J+I+1) for q.
    """
    i, j = num_areas, num_nodes
    n = i * j if served_pairs is None else served_pairs
    rows = n + 2 * i + j + 1
    constraints = 1 + j + rows * (i + j + 1)
    variables = (2 * j + 1) + n * (i + j + 1) + i * (j + i + 1) + rows * (i + j + 2)
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
