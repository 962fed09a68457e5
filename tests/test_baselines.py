"""Deterministic, stochastic, and greedy planners."""

import numpy as np
import pytest

from edgeplan.baselines import (
    SCENARIO_CAP,
    heuristic_placement,
    solve_deterministic,
    solve_stochastic,
)
from edgeplan.ccg import run_ccg
from edgeplan.core import ProblemInstance, Scenario, UncertaintyModel, provisioning_cost
from edgeplan.evaluation import EvaluationConfig, generate_test_scenarios
from helpers import random_instance, tiny_instance, unit_example, vertex_scenarios


def test_deterministic_worked_example():
    res = solve_deterministic(unit_example())
    assert res.objective == pytest.approx(1.3, abs=1e-7)
    assert res.plan.placement[0] == 1
    assert res.plan.procurement[0] == pytest.approx(5.0)


def test_deterministic_free_dropping():
    res = solve_deterministic(tiny_instance(unmet_penalty=[0.0]))
    assert res.plan.placement.sum() == 0
    assert res.plan.procurement.sum() == 0
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_deterministic_matches_ccg_without_uncertainty():
    rng = np.random.default_rng(51)
    for _ in range(4):
        inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               gamma=0, k=0)
        det = solve_deterministic(inst)
        robust = run_ccg(inst, eps=1e-8)
        assert det.objective == pytest.approx(robust.objective, abs=1e-5)


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        solve_stochastic(tiny_instance(), [])


def test_stochastic_single_scenario_equals_deterministic():
    inst = unit_example()
    nominal = Scenario(inst.nominal_demand, np.zeros(1, dtype=np.int8))
    so = solve_stochastic(inst, [nominal])
    det = solve_deterministic(inst)
    assert so.objective == pytest.approx(det.objective, abs=1e-8)
    assert np.array_equal(so.plan.placement, det.plan.placement)


def test_stochastic_duplication_invariance():
    rng = np.random.default_rng(53)
    inst = random_instance(rng, 2, 2)
    training = generate_test_scenarios(
        inst, EvaluationConfig(num_scenarios=6, distribution="normal", seed=1))
    one = solve_stochastic(inst, training)
    two = solve_stochastic(inst, training + training)
    assert one.objective == pytest.approx(two.objective, abs=1e-7)


def test_stochastic_expectation_below_worst_case():
    rng = np.random.default_rng(59)
    for _ in range(3):
        inst = random_instance(rng, 2, 2)
        so = solve_stochastic(inst, vertex_scenarios(inst))
        robust = run_ccg(inst, eps=1e-8)
        assert so.objective <= robust.objective + 1e-6


def test_stochastic_scenario_cap():
    inst = tiny_instance()
    nominal = Scenario(inst.nominal_demand, np.zeros(1, dtype=np.int8))
    with pytest.raises(ValueError):
        solve_stochastic(inst, [nominal] * (SCENARIO_CAP + 1))


def test_heuristic_single_node():
    plan = heuristic_placement(tiny_instance())
    assert plan.placement[0] == 1
    assert plan.procurement[0] == pytest.approx(5.0)


def test_heuristic_spill_to_second_node():
    inst = ProblemInstance(
        price=[0.1, 0.1], capacity=[24.0, 24.0], placement_cost=[0.3, 0.3],
        storage_cost=[0.0, 0.0], initial_placement=[0, 0],
        delay=[[1.0, 2.0], [1.0, 2.0]], beta=0.1, unmet_penalty=[0.5, 0.5],
        budget=100.0, nominal_demand=[20.0, 10.0], demand_deviation=[0.0, 0.0],
        uncertainty=UncertaintyModel(0, 0))
    plan = heuristic_placement(inst)
    assert np.array_equal(plan.placement, [1, 1])
    assert np.allclose(plan.procurement, [24.0, 6.0])


def test_heuristic_budget_boundary():
    # budget covers exactly one placement fee and nothing else
    plan = heuristic_placement(tiny_instance(budget=0.3))
    assert plan.placement.sum() == 1
    assert plan.procurement.sum() == 0


def test_heuristic_tie_breaks_lowest_index():
    inst = ProblemInstance(
        price=[0.1, 0.1], capacity=[8.0, 8.0], placement_cost=[0.2, 0.2],
        storage_cost=[0.0, 0.0], initial_placement=[0, 0],
        delay=[[3.0, 3.0]], beta=0.1, unmet_penalty=[0.5], budget=50.0,
        nominal_demand=[4.0], demand_deviation=[0.0],
        uncertainty=UncertaintyModel(0, 0))
    plan = heuristic_placement(inst)
    assert plan.placement[0] == 1 and plan.placement[1] == 0


def test_heuristic_deterministic_and_feasible():
    rng = np.random.default_rng(73)
    for _ in range(8):
        inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        plan = heuristic_placement(inst)
        again = heuristic_placement(inst)
        assert np.array_equal(plan.placement, again.placement)
        assert np.array_equal(plan.procurement, again.procurement)
        assert provisioning_cost(inst, plan) <= inst.budget + 1e-6
        assert np.all(plan.procurement <= inst.capacity * plan.placement + 1e-9)
        assert np.all(plan.procurement == np.round(plan.procurement))


def test_all_planners_emit_valid_plans():
    rng = np.random.default_rng(79)
    inst = random_instance(rng, 3, 3, gamma=1, k=1)
    training = generate_test_scenarios(
        inst, EvaluationConfig(num_scenarios=10, distribution="normal", seed=0))
    plans = [
        solve_deterministic(inst).plan,
        solve_stochastic(inst, training).plan,
        heuristic_placement(inst),
    ]
    for plan in plans:
        assert provisioning_cost(inst, plan) <= inst.budget + 1e-6
        assert np.all(plan.procurement <= inst.capacity * plan.placement + 1e-6)
        assert set(np.unique(plan.placement)) <= {0, 1}
