"""Recourse replay, Monte-Carlo scoring, certification, and sweeps."""

import csv
import hashlib
import io
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from edgeplan import evaluation, milp
from edgeplan.baselines import solve_deterministic
from edgeplan.ccg import run_ccg
from edgeplan.core import (
    FirstStagePlan,
    InstanceError,
    Scenario,
    ScenarioError,
    instance_to_json,
    second_stage_cost,
)
from edgeplan.evaluation import (
    METHODS,
    EvaluationConfig,
    certify_worst_case,
    generate_test_scenarios,
    monte_carlo,
    normalize_axis,
    plan_with_method,
    report_summary,
    report_to_csv,
    sensitivity_sweep,
    solve_recourse,
    solve_recourse_batch,
    sweep_to_csv,
)
from edgeplan.topology import generate_instance
from helpers import (
    random_instance,
    random_plan,
    stop_at_limit,
    tiny_instance,
    unit_example,
    vertex_scenarios,
)


def _plan(t, y):
    return FirstStagePlan(np.array(t, dtype=np.int8), np.array(y, dtype=float))


def _nominal(instance, failures=None):
    z = np.zeros(instance.num_nodes, dtype=np.int8) if failures is None \
        else np.array(failures, dtype=np.int8)
    return Scenario(instance.nominal_demand, z)


# -- recourse LP ------------------------------------------------------------

def test_recourse_empty_plan_pays_full_penalty():
    inst = tiny_instance()
    out = solve_recourse(inst, _plan([0], [0.0]), _nominal(inst))
    assert out.second_stage_cost == pytest.approx(2.5, abs=1e-8)
    assert out.unmet[0] == pytest.approx(5.0)
    assert np.allclose(out.allocation, 0.0)


def test_recourse_zero_demand_costs_nothing():
    inst = tiny_instance()
    out = solve_recourse(inst, _plan([1], [5.0]), Scenario([0.0], [0]))
    assert out.second_stage_cost == pytest.approx(0.0, abs=1e-9)


def test_recourse_spill_splits_cost():
    # demand 8, five units on hand: serve 5 at 0.1*1 each, drop 3 at 0.5 each
    inst = tiny_instance()
    out = solve_recourse(inst, _plan([1], [5.0]), Scenario([8.0], [0]))
    assert out.second_stage_cost == pytest.approx(2.0, abs=1e-8)
    assert out.allocation[0, 0] == pytest.approx(5.0)
    assert out.unmet[0] == pytest.approx(3.0)


def test_recourse_psi_scales_unmet_term_only():
    inst = tiny_instance()
    out = solve_recourse(inst.scaled_penalty(2.0), _plan([1], [5.0]), Scenario([8.0], [0]))
    assert out.second_stage_cost == pytest.approx(0.5 + 2.0 * 1.5, abs=1e-8)


def test_recourse_failed_node_strands_stock():
    inst = tiny_instance()
    out = solve_recourse(inst, _plan([1], [5.0]), _nominal(inst, failures=[1]))
    assert out.second_stage_cost == pytest.approx(2.5, abs=1e-8)


def test_recourse_caps_node_at_placed_capacity():
    # procurement above C t (a plan `evaluate` refuses) serves at most C, as in the master
    inst = tiny_instance(delay=[[1.0], [1.0]], unmet_penalty=[0.5, 0.5],
                         nominal_demand=[6.0, 6.0], demand_deviation=[0.0, 0.0])
    out = solve_recourse(inst, _plan([1], [12.0]), _nominal(inst))
    assert out.allocation.sum() == pytest.approx(8.0)
    assert out.second_stage_cost == pytest.approx(0.8 + 0.5 * 4.0, abs=1e-8)


def test_recourse_monotone_in_demand():
    rng = np.random.default_rng(83)
    inst = random_instance(rng, 3, 3, gamma=1, k=1)
    plan = random_plan(rng, inst)
    z = np.zeros(3, dtype=np.int8)
    costs = [solve_recourse(inst, plan, Scenario(scale * inst.nominal_demand, z)).second_stage_cost
             for scale in (0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))


def _dense_recourse(instance, plan, scenario, psi):
    """Recourse cost from a dense-array LP written without `edgeplan.milp`.

    Columns are x (area-major) then q; rows are node capacities, then demand
    cover written as -sum_j x_ij - q_i <= -lambda_i.
    """
    ni, nj = instance.num_areas, instance.num_nodes
    c = np.concatenate([instance.beta * instance.delay.ravel(), psi * instance.unmet_penalty])
    a = np.zeros((nj + ni, ni * nj + ni))
    for j in range(nj):
        a[j, j:ni * nj:nj] = 1.0
    for i in range(ni):
        a[nj + i, i * nj:(i + 1) * nj] = -1.0
        a[nj + i, ni * nj + i] = -1.0
    alive = np.minimum(plan.procurement, instance.capacity * plan.placement) \
        * (1 - scenario.failures)
    b = np.concatenate([alive, -scenario.demand])
    upper = np.concatenate([(instance.eligibility * instance.capacity[None, :]).ravel(),
                            np.full(ni, np.inf)])
    res = linprog(c, A_ub=a, b_ub=b, bounds=np.column_stack([np.zeros_like(upper), upper]),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _mixed_scenarios(seed):
    """3x4 instance, random plan, and 7 scenarios with all-failed and zero-demand ones."""
    rng = np.random.default_rng(seed)
    ni, nj = 3, 4
    eligibility = (rng.random((ni, nj)) < 0.7).astype(int)
    inst = random_instance(rng, ni, nj, gamma=ni, k=nj, eligibility=eligibility)
    plan = random_plan(rng, inst)
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=4, seed=seed))
    scenarios += [Scenario(inst.nominal_demand + inst.demand_deviation, np.ones(nj, dtype=np.int8)),
                  Scenario(np.zeros(ni), np.zeros(nj, dtype=np.int8)),
                  Scenario(np.zeros(ni), np.ones(nj, dtype=np.int8))]
    return inst, plan, scenarios


# (scenarios per call, calls): the 7 scenarios go in calls of 1, of 2 and of
# 3 (both with a remainder), or in one call
@pytest.mark.parametrize("batch,num_calls", [(1, 7), (2, 4), (3, 3), (None, 1)])
@pytest.mark.parametrize("psi", [0.3, 1.0, 1.7])
def test_recourse_batch_matches_dense_reference(monkeypatch, batch, num_calls, psi):
    inst, plan, scenarios = _mixed_scenarios(131)
    scored = inst.scaled_penalty(psi)
    built = []
    real_model = milp.Model

    def counted_model(name, **kwargs):
        built.append(name)
        return real_model(name, **kwargs)

    monkeypatch.setattr(milp, "Model", counted_model)
    step = batch or len(scenarios)
    outs = []
    for start in range(0, len(scenarios), step):
        outs += solve_recourse_batch(scored, plan, scenarios[start:start + step])
    assert len(outs) == len(scenarios)
    # one model per call, whatever the number of scenarios in it
    assert built == ["recourse"] * num_calls
    alive = np.minimum(plan.procurement, inst.capacity * plan.placement)
    box = inst.eligibility * inst.capacity[None, :]
    tol = 1e-7
    for out, s in zip(outs, scenarios):
        # the LP can be degenerate: check the allocation's feasibility, not its value
        x, q = out.allocation, out.unmet
        assert np.all(x >= -tol) and np.all(x <= box + tol) and np.all(q >= -tol)
        assert np.all(x.sum(axis=0) <= alive * (1 - s.failures) + tol)
        assert np.all(x.sum(axis=1) + q >= s.demand - tol)
        assert out.second_stage_cost == pytest.approx(second_stage_cost(scored, x, q),
                                                      rel=1e-9, abs=1e-12)
        ref = _dense_recourse(inst, plan, s, psi)
        assert abs(out.second_stage_cost - ref) <= 1e-9 * max(1.0, abs(ref))


def test_recourse_batch_keeps_no_row_of_its_first_scenario(monkeypatch):
    # the batch builds one LP and re-solves it for every scenario; a row or
    # bound holding the first scenario's zero demand and failed nodes (the
    # planning models' linking rows) would strand the full-demand one
    rng = np.random.default_rng(5)
    inst = random_instance(rng, 3, 4, gamma=3, k=4)
    ni, nj = inst.num_areas, inst.num_nodes
    plan = _plan(np.ones(nj), np.floor(inst.capacity))
    scenarios = [Scenario(np.zeros(ni), np.ones(nj, dtype=np.int8)),
                 Scenario(inst.nominal_demand + inst.demand_deviation,
                          np.zeros(nj, dtype=np.int8))]
    built = []
    real_model = milp.Model

    def recorded_model(name, **kwargs):
        built.append(real_model(name, **kwargs))
        return built[-1]

    # the binding's column-bound edit, which `milp.Handle.solve_each` calls
    # once per scenario
    edits = []
    real_edit = milp.highs._Highs.changeColsBounds

    def recorded_edit(h, num_cols, cols, lo, hi):
        edits.append(num_cols)
        return real_edit(h, num_cols, cols, lo, hi)

    monkeypatch.setattr(milp, "Model", recorded_model)
    monkeypatch.setattr(milp.highs._Highs, "changeColsBounds", recorded_edit)
    outs = solve_recourse_batch(inst, plan, scenarios)
    # one row per node and one cover row per area, over x on the served
    # pairs, q, and the level columns w and r; one edit of the J + I level
    # bounds per scenario
    num_served = np.count_nonzero(inst.served_capacity)
    assert [m.name for m in built] == ["recourse"]
    assert built[0].num_constraints == nj + ni
    assert built[0].num_vars == num_served + 2 * ni + nj
    assert edits == [nj + ni] * len(scenarios)
    assert outs[1].second_stage_cost > 0
    for out, s in zip(outs, scenarios):
        alone = solve_recourse(inst, plan, s).second_stage_cost
        assert out.second_stage_cost == pytest.approx(alone, rel=1e-9, abs=1e-12)
        ref = _dense_recourse(inst, plan, s, 1.0)
        assert abs(out.second_stage_cost - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("psi", [0.3, 1.0, 1.7])
def test_recourse_batch_gives_dead_pairs_no_column(monkeypatch, psi):
    # beta d_ij against P_i = (0.5, 1.0, 2.0) at psi 1: pair (0, 1) ties and
    # is kept, pairs (0, 2) and (1, 2) are dominated, and (2, 0), though
    # closest, is ineligible.  psi scales P, so it moves the served set:
    # 3 pairs at psi 0.3, 6 at 1.0 and 7 at 1.7
    inst = random_instance(np.random.default_rng(19), 3, 3, gamma=3, k=1, beta=0.5,
                           delay=np.array([[0.2, 1.0, 3.0], [0.5, 1.5, 3.0], [0.1, 0.4, 3.0]]),
                           unmet_penalty=np.array([0.5, 1.0, 2.0]),
                           capacity=np.array([3.0, 4.0, 5.0]),
                           eligibility=np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]]))
    assert inst.beta * inst.delay[0, 1] == inst.unmet_penalty[0]  # the tie is exact
    scored = inst.scaled_penalty(psi)
    served = scored.served_capacity > 0
    assert np.count_nonzero(served) == {0.3: 3, 1.0: 6, 1.7: 7}[psi]
    assert not served[2, 0] and served[0, 1] == (psi >= 1.0)
    plan = _plan([1, 1, 1], [3.0, 2.0, 5.0])
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=6, seed=3))
    scenarios += [Scenario(inst.nominal_demand + inst.demand_deviation,
                           np.array([1, 0, 0], dtype=np.int8))]
    built = []
    real_model = milp.Model

    def recorded_model(name, **kwargs):
        built.append(real_model(name, **kwargs))
        return built[-1]

    monkeypatch.setattr(milp, "Model", recorded_model)
    outs = solve_recourse_batch(scored, plan, scenarios)
    ni, nj = inst.num_areas, inst.num_nodes
    assert built[0].num_vars == np.count_nonzero(served) + 2 * ni + nj
    for out, s in zip(outs, scenarios):
        assert np.all(out.allocation[~served] == 0.0)
        ref = _dense_recourse(inst, plan, s, psi)
        assert abs(out.second_stage_cost - ref) <= 1e-9 * max(1.0, abs(ref))


def test_recourse_batch_is_deterministic():
    # each scenario re-solves from the previous basis: equal inputs give equal
    # bits, and another order may only move degenerate ties
    inst, plan, scenarios = _mixed_scenarios(137)
    first, again = (solve_recourse_batch(inst, plan, scenarios) for _ in range(2))
    for a, b in zip(first, again):
        assert a.second_stage_cost == b.second_stage_cost
        assert np.array_equal(a.allocation, b.allocation) and np.array_equal(a.unmet, b.unmet)
    reversed_costs = [out.second_stage_cost
                      for out in solve_recourse_batch(inst, plan, scenarios[::-1])][::-1]
    for a, cost in zip(first, reversed_costs):
        assert abs(a.second_stage_cost - cost) <= 1e-9 * max(1.0, abs(cost))


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_matches_one_scenario_at_a_time(n, seed):
    # a batch reads most rows off a kept basis instead of re-solving them;
    # each must agree with a batch of one, which HiGHS solves
    inst = generate_instance(n, n, seed=seed)
    plan = solve_deterministic(inst).plan
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=200, seed=seed))
    assert any(s.failures.any() for s in scenarios)
    report = monte_carlo(inst, plan, scenarios, certify=False)
    for cost, unmet, s in zip(report.recourse_costs, report.unmet_totals, scenarios):
        alone = solve_recourse(inst, plan, s)
        assert cost == pytest.approx(alone.second_stage_cost, rel=1e-12, abs=1e-12)
        assert unmet == pytest.approx(alone.unmet.sum(), rel=0, abs=1e-9)


@pytest.mark.parametrize("areas,nodes", [(3, 4), (4, 5)])
def test_replay_refuses_a_scenario_sized_for_another_instance(monkeypatch, areas, nodes):
    # a 4-area, 4-node instance; the second scenario has the wrong size, and
    # no model is built
    inst = random_instance(np.random.default_rng(3), 4, 4)
    plan = random_plan(np.random.default_rng(4), inst)
    scenarios = [_nominal(inst), Scenario(np.ones(areas), np.zeros(nodes, dtype=np.int8))]

    def refuse(*args, **kwargs):
        raise AssertionError("no model for a wrongly sized scenario")

    monkeypatch.setattr(milp, "Model", refuse)
    want = (f"scenario 1 has demands for {areas} areas and failures for {nodes} nodes; "
            "the instance has 4 areas and 4 nodes")
    with pytest.raises(ScenarioError, match=want):
        solve_recourse_batch(inst, plan, scenarios)
    with pytest.raises(ScenarioError, match=want):
        monte_carlo(inst, plan, scenarios, certify=False)


@pytest.mark.parametrize("nodes", [3, 5])
def test_scoring_refuses_a_plan_sized_for_another_instance(nodes):
    # a 4-node instance: every scorer names both node counts, rather than
    # failing inside numpy
    inst = random_instance(np.random.default_rng(3), 4, 4)
    plan = _plan(np.ones(nodes), np.ones(nodes))
    want = f"the plan has {nodes} nodes, the instance 4"
    scorers = [lambda: solve_recourse(inst, plan, _nominal(inst)),
               lambda: monte_carlo(inst, plan, [_nominal(inst)], certify=False),
               lambda: monte_carlo(inst, plan, [], certify=True),
               lambda: certify_worst_case(inst, plan, oracle="duality"),
               lambda: certify_worst_case(inst, plan, oracle="kkt")]
    for score in scorers:
        with pytest.raises(InstanceError, match=want):
            score()


def test_recourse_batch_of_nothing_solves_nothing(monkeypatch):
    inst = tiny_instance()

    def refuse(*args, **kwargs):
        raise AssertionError("no model for an empty batch")

    monkeypatch.setattr(milp, "Model", refuse)
    assert solve_recourse_batch(inst, _plan([1], [5.0]), []) == []


def test_monte_carlo_of_no_scenarios_is_nan():
    inst = tiny_instance()
    rep = monte_carlo(inst, _plan([1], [5.0]), [], certify=False)
    assert rep.recourse_costs.shape == (0,) and rep.unmet_totals.shape == (0,)
    assert math.isnan(rep.average_cost) and math.isnan(rep.worst_cost)


def test_monte_carlo_rejects_nonpositive_psi():
    # psi reaches monte_carlo as the scored instance, which refuses psi <= 0
    inst = tiny_instance()
    for psi in (0.0, -1.0):
        with pytest.raises(ValueError, match="psi"):
            monte_carlo(inst.scaled_penalty(psi), _plan([1], [5.0]), [_nominal(inst)],
                        certify=False)


# -- scenario generation ----------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EvaluationConfig(num_scenarios=0)
    with pytest.raises(ValueError):
        EvaluationConfig(distribution="gamma")
    with pytest.raises(ValueError):
        EvaluationConfig(k_test=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        EvaluationConfig(seed=-1)
    # a count or seed that is not whole is refused here, not later inside numpy
    for name in ("num_scenarios", "k_test", "seed"):
        for value in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value}"):
                EvaluationConfig(**{name: value})
    config = EvaluationConfig(num_scenarios=4.0, k_test=np.int64(1), seed=2.0)
    assert [type(v) for v in (config.num_scenarios, config.k_test, config.seed)] == [int] * 3


@pytest.mark.parametrize("distribution", evaluation.DISTRIBUTIONS)
def test_scenarios_respect_box_and_seed(distribution):
    inst = random_instance(np.random.default_rng(89), 3, 4, gamma=2, k=2)
    cfg = EvaluationConfig(num_scenarios=100, distribution=distribution, seed=7)
    scenarios = generate_test_scenarios(inst, cfg)
    assert len(scenarios) == 100
    lo, hi = inst.nominal_demand, inst.nominal_demand + inst.demand_deviation
    for s in scenarios:
        assert np.all(s.demand >= lo - 1e-9) and np.all(s.demand <= hi + 1e-9)
        assert s.failures.sum() <= 2
    again = generate_test_scenarios(inst, cfg)
    assert all(a.key() == b.key() for a, b in zip(scenarios, again))
    other = generate_test_scenarios(inst, EvaluationConfig(
        num_scenarios=100, distribution=distribution, seed=8))
    assert any(a.key() != b.key() for a, b in zip(scenarios, other))


# SHA-256 digests of the demand and failure bytes of 200 draws on
# generate_instance(6, 6, seed=0), pinned from scipy.stats' inverse cdfs
SCENARIO_DIGESTS = {
    ("lognormal", 0): "1865445ffb3c858b0c89adb96933d21679ae812ca21957dbd9166e704d49dd70",
    ("lognormal", 1): "8001ae954fde26b0ee450c2ae15ddb2d7c606d0a4990ec7c4710a7b058a3833e",
    ("uniform", 0): "98e769046b9f9988451edc8bc7b7d8626e41cb3243c1864e7a34f4fa036c8c52",
    ("uniform", 1): "5dcd5adc8ac25482dcc7aa16897cb9d5ef27b442600d8057c8f6d69307199e19",
}

# four normal draws on generate_instance(3, 3, seed=0) at seed 0, as
# scipy.stats.truncnorm.ppf gave them; the closed form differs in the last bits
NORMAL_DRAWS = [
    [39.58236760523973, 32.45245936761558, 12.857444262593013],
    [35.55461608123619, 33.85177435978218, 14.718237747906105],
    [31.344646293847852, 30.471649444635457, 13.94564502750052],
    [30.33884100322248, 31.571295124027042, 9.84019634826307],
]


@pytest.mark.parametrize("distribution, seed", list(SCENARIO_DIGESTS))
def test_scenarios_match_pinned_draws(distribution, seed):
    inst = generate_instance(6, 6, seed=0)
    scenarios = generate_test_scenarios(inst, EvaluationConfig(
        num_scenarios=200, distribution=distribution, seed=seed))
    data = (np.array([s.demand for s in scenarios]).tobytes()
            + np.array([s.failures for s in scenarios]).tobytes())
    assert hashlib.sha256(data).hexdigest() == SCENARIO_DIGESTS[distribution, seed]


def test_normal_draws_match_pinned_values_inside_the_box():
    inst = generate_instance(3, 3, seed=0)
    scenarios = generate_test_scenarios(inst, EvaluationConfig(
        num_scenarios=4, distribution="normal", seed=0))
    demands = np.array([s.demand for s in scenarios])
    assert np.allclose(demands, NORMAL_DRAWS, rtol=1e-15, atol=0)
    assert np.all(demands >= inst.nominal_demand)
    assert np.all(demands <= inst.nominal_demand + inst.demand_deviation)


def test_lognormal_draws_from_a_zero_lower_end():
    inst = random_instance(np.random.default_rng(5), 2, 2, nominal_demand=np.array([0.0, 2.0]),
                           demand_deviation=np.array([3.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=50))
    demands = np.array([s.demand for s in scenarios])
    assert np.all((demands >= 0.0) & (demands <= [3.0, 3.0]))
    assert np.all(demands[:, 0] > 0.0)


def test_scenarios_k_test_override():
    inst = random_instance(np.random.default_rng(97), 2, 4, gamma=1, k=3)
    calm = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=50, k_test=0))
    assert all(s.failures.sum() == 0 for s in calm)
    rough = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=50, k_test=4))
    assert max(s.failures.sum() for s in rough) > 3 - 1  # budget 4 reachable
    assert all(s.failures.sum() <= 4 for s in rough)


def test_scenarios_zero_deviation_pins_demand():
    inst = unit_example()
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=20))
    for s in scenarios:
        assert s.demand[0] == pytest.approx(5.0)


# -- monte carlo ------------------------------------------------------------

def test_monte_carlo_identical_scenarios_collapse():
    inst = tiny_instance()
    plan = _plan([1], [5.0])
    rep = monte_carlo(inst, plan, [_nominal(inst)] * 5, method="det")
    assert rep.average_cost == pytest.approx(rep.worst_cost)
    prov = 0.3 + 0.1 * 5
    assert rep.provisioning == pytest.approx(prov)
    assert rep.average_cost == pytest.approx(prov + 0.5, abs=1e-8)
    assert rep.method == "det"
    assert len(rep.scenario_costs) == 5


def test_monte_carlo_empty_plan_closed_form():
    inst = random_instance(np.random.default_rng(101), 3, 2, gamma=3, k=1)
    plan = _plan([0, 0], [0.0, 0.0])
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=30))
    rep = monte_carlo(inst, plan, scenarios, certify=False)
    for r, s in enumerate(scenarios):
        assert rep.scenario_costs[r] == pytest.approx(inst.unmet_penalty @ s.demand, abs=1e-7)
    assert math.isnan(rep.certified_worst)


def test_robust_plan_beats_deterministic_under_failures():
    # with one possible node failure the robust answer is to place nothing
    # (worst case 2.5); deterministic pays provisioning and loses it (2.8)
    inst = unit_example(k=1)
    robust = run_ccg(inst, eps=1e-8)
    det = solve_deterministic(inst)
    assert robust.objective == pytest.approx(2.5, abs=1e-7)
    down = [_nominal(inst, failures=[1])] * 3
    rep_aro = monte_carlo(inst, robust.plan, down, method="aro")
    rep_det = monte_carlo(inst, det.plan, down, method="det")
    assert rep_aro.average_cost == pytest.approx(2.5, abs=1e-7)
    assert rep_det.average_cost == pytest.approx(2.8, abs=1e-7)
    assert rep_det.certified_worst == pytest.approx(2.8, abs=1e-7)


def test_empirical_worst_within_certificate_on_set():
    # gamma = num_areas makes every box demand feasible for the planning set,
    # so sampled scenarios stay inside it and the certificate must dominate
    rng = np.random.default_rng(103)
    inst = random_instance(rng, 3, 3, gamma=3, k=1)
    plan = random_plan(rng, inst)
    scenarios = generate_test_scenarios(inst, EvaluationConfig(num_scenarios=150))
    rep = monte_carlo(inst, plan, scenarios)
    assert rep.worst_cost <= rep.certified_worst + 1e-6
    assert rep.average_cost <= rep.worst_cost + 1e-12


def test_worst_vertex_replay_attains_certificate():
    rng = np.random.default_rng(107)
    inst = random_instance(rng, 2, 2, gamma=1, k=1)
    plan = random_plan(rng, inst)
    rep = monte_carlo(inst, plan, vertex_scenarios(inst))
    assert rep.worst_cost == pytest.approx(rep.certified_worst, abs=1e-6)


# -- certification ----------------------------------------------------------

def test_certificate_matches_ccg_objective():
    rng = np.random.default_rng(109)
    for _ in range(3):
        inst = random_instance(rng, 2, 2)
        res = run_ccg(inst, eps=1e-8)
        assert certify_worst_case(inst, res.plan) == pytest.approx(res.objective, abs=1e-6)


def test_certificate_orders_det_after_robust():
    rng = np.random.default_rng(113)
    inst = random_instance(rng, 3, 3, gamma=2, k=1)
    robust = run_ccg(inst, eps=1e-6)
    det = solve_deterministic(inst)
    assert certify_worst_case(inst, det.plan) >= certify_worst_case(inst, robust.plan) - 1e-6


def test_certificate_empty_plan_closed_form():
    # nothing placed: worst case takes every nominal plus the gamma largest surges
    rng = np.random.default_rng(127)
    inst = random_instance(rng, 4, 2, gamma=2, k=1)
    plan = _plan([0, 0], [0.0, 0.0])
    surge = np.sort(inst.unmet_penalty * inst.demand_deviation)[::-1]
    expected = inst.unmet_penalty @ inst.nominal_demand + surge[:2].sum()
    for oracle in ("duality", "kkt"):
        assert certify_worst_case(inst, plan, oracle=oracle) == pytest.approx(expected, abs=1e-6)


def test_certificate_psi_scaling_on_empty_plan():
    inst = tiny_instance(gamma=1)
    plan = _plan([0], [0.0])
    base = certify_worst_case(inst, plan)
    assert base == pytest.approx(0.5 * 8.0, abs=1e-7)
    assert certify_worst_case(inst.scaled_penalty(2.0), plan) == pytest.approx(2 * base, abs=1e-6)


def test_certify_refuses_a_worst_case_stopped_at_a_limit(monkeypatch):
    # an oracle stopped at its limit holds an incumbent below the worst case
    inst = tiny_instance(gamma=1)
    plan = _plan([0], [0.0])
    real_solve = milp.Handle.solve

    def stopped(handle):
        result = real_solve(handle)
        if not handle._model.name.startswith("subproblem"):
            return result
        return milp.SolveResult("limit", result.objective - 1.0, result.values,
                                result.objective, 1.0)

    monkeypatch.setattr(milp.Handle, "solve", stopped)
    for oracle in ("duality", "kkt"):
        with pytest.raises(milp.SolverLimitError, match=oracle):
            certify_worst_case(inst, plan, oracle=oracle)
    # a sweep row carries the error instead of the incumbent
    (row,) = sensitivity_sweep(inst, "K", [0], methods=("det",), num_test_scenarios=0)
    assert "limit" in row["error"] and math.isnan(row["certified_worst"])


def test_sweep_cell_stopped_at_a_limit_keeps_its_numbers(monkeypatch):
    # the planners stop at their limits with an incumbent; the oracle does not
    inst = generate_instance(3, 3, seed=0)
    want = sensitivity_sweep(inst, "K", [1], methods=("det", "adr"), num_test_scenarios=5)
    stop_at_limit(monkeypatch, {"stochastic", "adr"}, loosen=0.1)
    got = sensitivity_sweep(inst, "K", [1], methods=("det", "adr"), num_test_scenarios=5)
    for row, ref in zip(got, want):
        assert row["error"] == f"{row['method']} stopped at its solver limit before " \
                               "proving optimality"
        assert not row["limit"]
        for key in ("objective", "provisioning", "average_cost", "worst_cost",
                    "certified_worst"):
            assert row[key] == ref[key], key


def test_sweep_cell_scores_each_distinct_plan_once(monkeypatch):
    # on generated 3x3 both CCG oracles return one plan, and det and heu
    # another: the cell certifies and replays each of the two once
    inst = generate_instance(3, 3, seed=0)
    methods = ("ccg-duality", "det", "ccg-kkt", "heu")
    alone = [row for m in methods
             for row in sensitivity_sweep(inst, "K", [1], methods=(m,), num_test_scenarios=20)]
    calls = {"certify": 0, "replay": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(evaluation, "certify_worst_case",
                        counted("certify", evaluation.certify_worst_case))
    # heu's planner replays its nominal scenario too; count the scoring replays
    monkeypatch.setattr(evaluation, "monte_carlo", counted("replay", evaluation.monte_carlo))
    rows = sensitivity_sweep(inst, "K", [1], methods=methods, num_test_scenarios=20)
    assert calls == {"certify": 2, "replay": 2}
    assert [r["method"] for r in rows] == list(methods)
    for row, ref in zip(rows, alone):
        assert not row["error"]
        assert {k: v for k, v in row.items() if k != "wall_seconds"} == \
            {k: v for k, v in ref.items() if k != "wall_seconds"}


def test_certify_rejects_unknown_oracle():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        certify_worst_case(inst, _plan([0], [0.0]), oracle="magic")


# -- report formats ---------------------------------------------------------

def test_report_summary_and_csv():
    inst = tiny_instance()
    rep = monte_carlo(inst, _plan([1], [5.0]), [_nominal(inst)] * 3, method="det")
    summary = report_summary(rep)
    assert set(summary) == {"method", "avg", "worst", "certified_worst", "provisioning"}
    text = report_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,total_cost,recourse_cost,unmet"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(rep.scenario_costs[0])


# -- sweeps -----------------------------------------------------------------

def test_normalize_axis_aliases():
    assert normalize_axis("K") == "K"
    assert normalize_axis("Γ") == "gamma"
    assert normalize_axis("β") == "beta"
    assert normalize_axis("Ψ") == "psi"
    assert normalize_axis("dmax") == "dmax"
    assert normalize_axis("i") == "I"
    with pytest.raises(ValueError):
        normalize_axis("zeta")


def test_sweep_failure_budget_monotone():
    inst = random_instance(np.random.default_rng(131), 2, 2, gamma=1, k=0)
    rows = sensitivity_sweep(inst, "K", [0, 1, 2], methods=("ccg-duality",),
                             eps=1e-6, num_test_scenarios=0)
    assert [r["value"] for r in rows] == [0, 1, 2]
    assert all(r["error"] == "" for r in rows)
    objs = [r["objective"] for r in rows]
    assert objs[0] <= objs[1] + 1e-7 <= objs[2] + 2e-7
    certs = [r["certified_worst"] for r in rows]
    assert all(abs(o - c) < 1e-5 for o, c in zip(objs, certs))


def test_sweep_gamma_monotone():
    inst = random_instance(np.random.default_rng(137), 3, 2, gamma=0, k=1)
    rows = sensitivity_sweep(inst, "gamma", [0, 1, 3], methods=("ccg-duality",),
                             eps=1e-6, num_test_scenarios=0)
    objs = [r["objective"] for r in rows]
    assert objs[0] <= objs[1] + 1e-7 <= objs[2] + 2e-7


def test_sweep_tighter_delay_cap_never_cheaper():
    inst = random_instance(np.random.default_rng(139), 2, 3, gamma=1, k=1,
                           delay=np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))
    rows = sensitivity_sweep(inst, "dmax", [6.0, 4.0, 2.0], methods=("ccg-duality",),
                             eps=1e-6, num_test_scenarios=0)
    assert all(r["error"] == "" for r in rows)
    objs = [r["objective"] for r in rows]
    assert objs[0] <= objs[1] + 1e-7 <= objs[2] + 2e-7


def test_sweep_records_per_cell_errors():
    inst = random_instance(np.random.default_rng(149), 2, 2, gamma=1, k=1)
    rows = sensitivity_sweep(inst, "K", [1, 99], methods=("det",),
                             num_test_scenarios=0)
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""
    assert math.isnan(rows[1]["objective"])


@pytest.mark.parametrize("kwargs", [
    dict(workers=0), dict(workers=-3), dict(num_test_scenarios=-5),
    dict(methods=("so", "det"), num_training_scenarios=0),
    dict(methods=("det", "so"), num_training_scenarios=-5),
    dict(methods=("det", "ccg-duality"), eps=0.0),
    dict(methods=("ccg-kkt",), eps=-1e-3),
])
def test_sweep_refuses_bad_workers_or_scenarios_before_any_cell(monkeypatch, kwargs):
    inst = random_instance(np.random.default_rng(149), 2, 2, gamma=1, k=1)
    cells = []
    monkeypatch.setattr(evaluation, "plan_with_method", lambda *a, **k: cells.append(a))
    with pytest.raises(ValueError, match="workers|num_test_scenarios|num_training|eps"):
        sensitivity_sweep(inst, "K", [0, 1], **{"methods": ("det",), **kwargs})
    assert cells == []


@pytest.mark.parametrize("kwargs,want", [
    (dict(num_test_scenarios=2.5), "num_test_scenarios must be a whole number, got 2.5"),
    (dict(seed=1.5), "seed must be a whole number, got 1.5"),
    (dict(methods=("so",), num_training_scenarios=2.5),
     "num_training_scenarios must be a whole number, got 2.5"),
    (dict(workers=1.5), "workers must be a whole number, got 1.5"),
], ids=["num_test_scenarios", "seed", "num_training_scenarios", "workers"])
def test_sweep_refuses_non_whole_inputs_before_any_cell(monkeypatch, kwargs, want):
    inst = random_instance(np.random.default_rng(149), 2, 2, gamma=1, k=1)
    cells = []
    monkeypatch.setattr(evaluation, "plan_with_method", lambda *a, **k: cells.append(a))
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        sensitivity_sweep(inst, "K", [0, 1], **{"methods": ("det",), **kwargs})
    assert cells == []


def test_sweep_ignores_planner_inputs_of_unlisted_methods():
    inst = random_instance(np.random.default_rng(149), 2, 2, gamma=1, k=1)
    rows = sensitivity_sweep(inst, "K", [1], methods=("det",), eps=0.0,
                             num_training_scenarios=0, num_test_scenarios=0)
    assert [r["error"] for r in rows] == [""]


def test_sweep_reports_nonconverged_cell():
    # a loose solver gap with a tiny eps makes CCG stall on a repeated vertex
    inst = generate_instance(6, 6, seed=0)
    rows = sensitivity_sweep(inst, "K", [2], methods=("ccg-duality",), eps=1e-9,
                             mip_gap=0.3, num_test_scenarios=0)
    (row,) = rows
    assert row["error"].startswith("stalled")
    assert math.isfinite(row["objective"])
    # the stalled run's objective is still a valid upper bound
    assert row["certified_worst"] <= row["objective"] * (1 + 1e-6)


def test_plan_with_method_covers_every_method():
    inst = random_instance(np.random.default_rng(173), 2, 2, gamma=1, k=1)
    for method in METHODS:
        res = plan_with_method(inst, method, eps=1e-6, num_training=5)
        assert res.converged and math.isfinite(res.objective), method
        assert (res.trace is not None) == method.startswith("ccg-"), method
        assert "wall_seconds" in res.extras
    with pytest.raises(ValueError):
        plan_with_method(inst, "simplex")


def test_sweep_psi_modes():
    inst = random_instance(np.random.default_rng(151), 2, 2, gamma=1, k=1)
    both = sensitivity_sweep(inst, "psi", [1.0, 3.0], methods=("det",),
                             num_test_scenarios=0, psi_mode="both")
    replan = [r["objective"] for r in both]
    assert replan[1] >= replan[0] - 1e-9
    fixed = sensitivity_sweep(inst, "psi", [1.0, 3.0], methods=("det",),
                              num_test_scenarios=0, psi_mode="evaluation")
    assert fixed[0]["objective"] == pytest.approx(fixed[1]["objective"], abs=1e-9)
    assert fixed[1]["certified_worst"] >= fixed[0]["certified_worst"] - 1e-9
    with pytest.raises(ValueError):
        sensitivity_sweep(inst, "psi", [1.0], psi_mode="bogus")


def test_sweep_psi_cell_plans_and_scores_by_mode():
    base = random_instance(np.random.default_rng(151), 2, 2, gamma=1, k=1)
    planning, scoring = evaluation._derive_instance(base, "psi", 2.0, "both")
    assert planning is scoring
    assert np.array_equal(scoring.unmet_penalty, 2.0 * base.unmet_penalty)
    planning, scoring = evaluation._derive_instance(base, "psi", 2.0, "evaluation")
    assert planning is base
    assert np.array_equal(scoring.unmet_penalty, 2.0 * base.unmet_penalty)


@pytest.mark.parametrize("axis,value,key", [("alpha", 0.3, "deviation"),
                                            ("budget", 5.0, "budget")])
def test_sweep_cell_changes_only_its_own_field(axis, value, key):
    base = generate_instance(4, 4, seed=0)
    planning, scoring = evaluation._derive_instance(base, axis, value, "both")
    assert planning is scoring
    doc, base_doc = instance_to_json(planning), instance_to_json(base)
    assert doc[key] == value != base_doc[key]
    assert {k: v for k, v in doc.items() if k != key} == \
        {k: v for k, v in base_doc.items() if k != key}


def test_sweep_alpha_and_budget_axes():
    # a wider demand box costs more, a smaller budget never less; alpha 0.6
    # and budget 20 are the generated instance itself
    inst = generate_instance(4, 4, seed=0)
    alpha = sensitivity_sweep(inst, "alpha", [0.0, 0.3, 0.6], num_test_scenarios=0)
    budget = sensitivity_sweep(inst, "budget", [0.0, 5.0, 20.0], num_test_scenarios=0)
    assert all(r["error"] == "" for r in alpha + budget)
    assert [r["objective"] for r in alpha] == pytest.approx([19.9855, 25.8220, 31.6863],
                                                            abs=1e-4)
    assert [r["objective"] for r in budget] == pytest.approx([44.9744, 31.6863, 31.6863],
                                                             abs=1e-4)


def test_sweep_area_axis_truncates_nested():
    inst = random_instance(np.random.default_rng(157), 3, 2, gamma=2, k=1)
    rows = sensitivity_sweep(inst, "I", [1, 2, 3], methods=("ccg-duality",),
                             eps=1e-6, num_test_scenarios=0)
    assert all(r["error"] == "" for r in rows)
    objs = [r["objective"] for r in rows]
    assert objs[0] <= objs[1] + 1e-7 <= objs[2] + 2e-7


def test_sweep_sizes_beyond_base_and_fractions_are_row_errors():
    inst = random_instance(np.random.default_rng(163), 2, 2, gamma=1, k=1)
    for axis, values in (("J", [2, 4]), ("K", [1, 1.5]), ("gamma", [1, 1.5]),
                         ("I", [2, 1.5]), ("J", [1, 1.5])):
        good, bad = sensitivity_sweep(inst, axis, values, methods=("det",),
                                      num_test_scenarios=0)
        assert good["error"] == "" and math.isfinite(good["objective"]), axis
        assert bad["error"] != "" and math.isnan(bad["objective"]), (axis, values[1])


def test_sweep_validation():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        sensitivity_sweep(inst, "K", [])
    with pytest.raises(ValueError):
        sensitivity_sweep(inst, "K", [0], methods=("simplex",))


def test_sweep_csv_layout():
    inst = random_instance(np.random.default_rng(167), 2, 2, gamma=1, k=1)
    rows = sensitivity_sweep(inst, "K", [0, 99, 1.5], methods=("det",),
                             num_test_scenarios=10)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("axis,value,method,objective,provisioning,average_cost,"
                        "worst_cost,certified_worst,wall_seconds,error")
    assert len(lines) == 4
    good = lines[1].split(",")
    assert good[0] == "K" and good[2] == "det" and good[-1] == ""
    bad = lines[2].split(",")
    assert bad[3] == ""  # nan objective serializes empty
    assert bad[-1] != ""
    # an error holding a comma stays one quoted cell
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert all(len(row) == 10 and None not in row for row in parsed)
    assert parsed[2]["error"] == "failure_budget must be a nonnegative integer, got 1.5"
