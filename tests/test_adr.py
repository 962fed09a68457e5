"""Affine policy model: evaluation, dualization correctness, size audit."""

import numpy as np
import pytest

from edgeplan import milp
from edgeplan.adr import (
    AffinePolicy,
    assemble_adr_milp,
    audit_model_size,
    evaluate_policy,
    predicted_counts,
    reference_counts,
    solve_adr,
)
from edgeplan.ccg import run_ccg
from edgeplan.core import Scenario, provisioning_cost
from edgeplan.evaluation import METHODS, plan_with_method
from edgeplan.topology import generate_instance
from helpers import random_instance, sparse_eligibility, tiny_instance, vertex_scenarios


def _zero_policy(ni, nj):
    return AffinePolicy(A=np.zeros((ni, nj, ni)), B=np.zeros((ni, nj, nj)),
                        D=np.zeros((ni, nj)), E=np.zeros((ni, ni)),
                        F=np.zeros((ni, nj)), G=np.zeros(ni))


def test_evaluate_zero_policy():
    inst = tiny_instance()
    out = evaluate_policy(inst, _zero_policy(1, 1), Scenario([6.0], [0]))
    assert np.all(out.allocation == 0) and np.all(out.unmet == 0)


def test_evaluate_constant_rule():
    pol = _zero_policy(2, 2)
    pol = AffinePolicy(A=pol.A, B=pol.B, D=np.full((2, 2), 3.5), E=pol.E,
                       F=pol.F, G=pol.G)
    inst = random_instance(np.random.default_rng(1), 2, 2, gamma=1, k=1)
    for scenario in vertex_scenarios(inst):
        out = evaluate_policy(inst, pol, scenario)
        assert np.all(out.allocation == 3.5)


def test_evaluate_tracking_rule():
    # q_i = lambda_i - lam_bar_i via E=I, G=-lam_bar
    inst = random_instance(np.random.default_rng(2), 3, 2, gamma=3, k=0)
    pol = _zero_policy(3, 2)
    pol = AffinePolicy(A=pol.A, B=pol.B, D=pol.D, E=np.eye(3), F=pol.F,
                       G=-inst.nominal_demand)
    for scenario in vertex_scenarios(inst):
        out = evaluate_policy(inst, pol, scenario)
        assert np.allclose(out.unmet, scenario.demand - inst.nominal_demand)


def test_published_size_formulas():
    assert reference_counts(1, 1) == (47, 33)
    assert reference_counts(2, 2) == (173, 128)
    assert reference_counts(3, 3) == (431, 309)


def test_size_audit_matches_documented_convention():
    for n in (1, 2, 3, 5):
        audit = audit_model_size(n, n)
        predicted = predicted_counts(n, n)
        assert (audit.built_constraints, audit.built_variables) == predicted
        assert (audit.reference_constraints,
                audit.reference_variables) == reference_counts(n, n)
    asym = audit_model_size(2, 3)
    assert (asym.built_constraints, asym.built_variables) == predicted_counts(2, 3)


def test_generated_model_counts_served_pairs():
    # at generator defaults nearly only the local pairs are served
    inst = generate_instance(10, 10, seed=0)
    served = int(np.count_nonzero(inst.served_capacity))
    assert served < 100
    model, _ = assemble_adr_milp(inst)
    assert (model.num_constraints, model.num_vars) == predicted_counts(10, 10, served)


def test_size_audit_known_values():
    audit = audit_model_size(2, 2)
    assert (audit.reference_constraints, audit.reference_variables) == (173, 128)
    # IJ+2I+J+1 = 11 robust rows of I+J+1 = 5 constraints and I+J+2 = 6
    # duals; the first stage adds 1+J = 3 rows and 2J+1 = 5 columns, the
    # maps IJ(I+J+2) + I(I+1) = 30 columns
    assert (audit.built_constraints, audit.built_variables) == (3 + 55, 5 + 30 + 66)
    assert audit.constraint_delta == 173 - 58
    assert audit.variable_delta == 128 - 101


def _assert_adr_matches_ccg(rng, gamma, k):
    # four trials with every pair eligible, then four with ineligible pairs
    for masked in (False, True):
        for trial in range(4):
            ni, nj = int(rng.integers(1, 4)), int(rng.integers(1 + masked, 4))
            mask = dict(eligibility=sparse_eligibility(rng, ni, nj)) if masked else {}
            inst = random_instance(rng, ni, nj, gamma=gamma, k=k, **mask)
            exact = run_ccg(inst, eps=1e-8).objective
            approx = solve_adr(inst).objective
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) / scale < 1e-6, f"masked={masked} trial {trial}"


def test_simplex_equality_single_deviation():
    _assert_adr_matches_ccg(np.random.default_rng(101), gamma=1, k=0)


def test_simplex_equality_single_failure():
    _assert_adr_matches_ccg(np.random.default_rng(103), gamma=0, k=1)


def test_upper_bound_on_general_sets():
    rng = np.random.default_rng(107)
    for _ in range(4):
        inst = random_instance(rng, 2, 2)
        exact = run_ccg(inst, eps=1e-8).objective
        approx = solve_adr(inst).objective
        assert approx >= exact - 1e-6


@pytest.mark.parametrize("gamma,k", [(1, 1), (2, 2)])
@pytest.mark.parametrize("shape,masked", [((2, 2), False), ((2, 3), False), ((3, 2), False),
                                          ((2, 3), True), ((3, 3), True)],
                         ids=["2x2", "2x3", "3x2", "2x3-masked", "3x3-masked"])
def test_solved_policy_feasible_at_all_vertices(shape, masked, gamma, k):
    # non-square shapes and budgets above one catch a transposed id block
    rng = np.random.default_rng(109)
    mask = dict(eligibility=sparse_eligibility(rng, *shape)) if masked else {}
    inst = random_instance(rng, *shape, gamma=gamma, k=k, **mask)
    sol = solve_adr(inst)
    # an ineligible pair has the zero map
    ineligible = inst.eligibility == 0
    assert ineligible.any() == masked
    for coeffs in (sol.policy.A, sol.policy.B, sol.policy.D):
        assert np.all(coeffs[ineligible] == 0)
    t = sol.plan.placement
    y = sol.plan.procurement
    tol = 1e-6
    for scenario in vertex_scenarios(inst):
        out = evaluate_policy(inst, sol.policy, scenario)
        x, q = out.allocation, out.unmet
        assert np.all(x >= -tol) and np.all(q >= -tol)
        assert np.all(x <= inst.eligibility * inst.capacity + tol)
        assert np.all(x.sum(axis=0) <= y + tol)
        assert np.all(x.sum(axis=0) <= inst.capacity * t * (1 - scenario.failures) + tol)
        assert np.all(x.sum(axis=1) + q >= scenario.demand - tol)
        cost = (inst.unmet_penalty @ q + inst.beta * (inst.delay * x).sum())
        assert cost <= sol.phi + 1e-5
    assert sol.objective == pytest.approx(provisioning_cost(inst, sol.plan) + sol.phi,
                                          abs=1e-6)


def test_only_adr_solves_without_presolve(monkeypatch):
    # presolve halves the ADR MILP and then costs more than it saves; every
    # other model keeps it
    solves = []
    solve = milp.Handle.solve

    def recording(handle):
        solves.append((handle._model.name, handle._highs.getOptionValue("presolve")[1]))
        return solve(handle)

    monkeypatch.setattr(milp.Handle, "solve", recording)
    inst = generate_instance(3, 3, seed=0)
    for method in METHODS:
        plan_with_method(inst, method, num_training=5)
    assert {name for name, _ in solves} >= {"adr", "stochastic", "ccg-master"}
    assert all(value == ("off" if name == "adr" else "choose") for name, value in solves)
