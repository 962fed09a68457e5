"""Master/subproblem oracles, the CCG loop, and the extensive form."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplan import ccg, milp
from edgeplan.adr import solve_adr
from edgeplan.ccg import (
    run_ccg,
    solve_extensive_form,
    solve_master,
    solve_subproblem_duality,
    solve_subproblem_kkt,
    trace_to_csv,
)
from edgeplan.core import (
    EnumerationCapError,
    FirstStagePlan,
    Scenario,
    UncertaintyModel,
    demand_from_g,
    provisioning_cost,
)
from edgeplan.evaluation import plan_with_method, solve_recourse, solve_recourse_batch
from edgeplan.topology import generate_instance
from helpers import (
    brute_force_worst,
    exhaustive_two_stage,
    random_instance,
    random_plan,
    stop_at_limit,
    tiny_instance,
    unit_example,
    vertex_scenarios,
)


def test_master_empty_pool_stays_home():
    sol = solve_master(tiny_instance(), [])
    assert sol.plan.placement.sum() == 0
    assert sol.plan.procurement.sum() == 0
    assert sol.eta == pytest.approx(0.0, abs=1e-9)
    assert sol.lower_bound == pytest.approx(0.0, abs=1e-9)


def test_master_single_nominal_vertex():
    inst = unit_example()
    sol = solve_master(inst, [Scenario([5.0], [0])])
    assert sol.plan.placement[0] == 1
    assert sol.plan.procurement[0] == pytest.approx(5.0)
    assert sol.lower_bound == pytest.approx(1.3, abs=1e-7)


def test_master_failed_vertex_forces_drop():
    inst = unit_example(k=1)
    sol = solve_master(inst, [Scenario([5.0], [1])])
    assert sol.plan.placement[0] == 0
    assert sol.lower_bound == pytest.approx(2.5, abs=1e-7)


def test_master_matches_exhaustive_plan_search():
    rng = np.random.default_rng(21)
    for trial in range(3):
        inst = random_instance(rng, 2, 2, capacity=np.array([4.0, 5.0]))
        pool = vertex_scenarios(inst)
        sol = solve_master(inst, pool)
        oracle = exhaustive_two_stage(inst, pool)
        assert sol.objective == pytest.approx(oracle, abs=1e-6), f"trial {trial}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4), st.integers(1, 4))
# fractional capacities: before integer bounds were rounded, HiGHS placed every node here
@example(746590, 2, 4, 2)
def test_master_linking_rows_keep_the_optimum(seed, ni, nj, pool_size):
    # the per-pair rows and missing dead-pair columns cut only fractional plans: for an
    # integral plan a planning block costs what the rowless replay LP costs
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, ni, nj, gamma=ni, k=nj,
                           nominal_demand=rng.uniform(1, 6, ni) * (rng.random(ni) < 0.8),
                           demand_deviation=rng.uniform(0, 4, ni) * (rng.random(ni) < 0.6),
                           eligibility=(rng.random((ni, nj)) < 0.8).astype(int))
    pool = [Scenario(demand_from_g(inst, rng.integers(0, 2, ni)),
                     rng.integers(0, 2, nj).astype(np.int8)) for _ in range(pool_size)]
    for plan in (random_plan(rng, inst) for _ in range(3)):
        for scenario in pool:
            model = milp.Model("fixed-plan")
            t = model.add_vars(nj, lb=plan.placement, ub=plan.placement)
            y = model.add_vars(nj, lb=plan.procurement, ub=plan.procurement)
            x, q = ccg._add_recourse_block(model, inst, scenario, t, y, None)
            model.set_objective(*ccg._recourse_cost(inst, x, q))
            block = milp.Handle(model).solve().objective
            replay = solve_recourse(inst, plan, scenario).second_stage_cost
            assert block == pytest.approx(replay, rel=1e-7, abs=1e-9)
    master = solve_master(inst, pool, mip_gap=1e-9)
    worst = max(out.second_stage_cost for out in solve_recourse_batch(inst, master.plan, pool))
    assert master.objective == pytest.approx(provisioning_cost(inst, master.plan) + worst,
                                             rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("with_eta", [False, True])
def test_recourse_block_row_count(with_eta):
    # J node rows, I cover rows, the epigraph row when eta is given, and one
    # linking row per positive link; placed capacity is implied, not a row.
    # Columns: one x per positive link and one q per area
    ni, nj = 4, 3
    inst = random_instance(np.random.default_rng(5), ni, nj,
                           nominal_demand=np.array([2.0, 0.0, 3.0, 1.0]),
                           demand_deviation=np.zeros(ni),
                           eligibility=np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1], [1, 0, 1]]))
    # node 1 fails and area 1 has no demand: links (0,0), (2,2), (3,0), (3,2) remain
    live = np.zeros((ni, nj), dtype=bool)
    live[[0, 2, 3, 3], [0, 2, 0, 2]] = True
    scenario = Scenario(inst.nominal_demand, np.array([0, 1, 0], dtype=np.int8))
    model = milp.Model()
    t, y, (ids, coeffs) = ccg._build_first_stage(model, inst)
    eta = model.add_var() if with_eta else None
    rows, cols = model.num_constraints, model.num_vars
    x, q = ccg._add_recourse_block(model, inst, scenario, t, y, eta)
    assert model.num_constraints - rows == nj + ni + with_eta + 4
    assert model.num_vars - cols == 4 + ni
    assert np.array_equal(x != milp.PAD, live)
    # a dead pair has no column and reads exactly 0
    if with_eta:
        model.set_objective(np.append(ids, eta), np.append(coeffs, 1.0))
    else:
        cost_ids, cost_coeffs = ccg._recourse_cost(inst, x, q)
        model.set_objective(np.append(ids, cost_ids), np.append(coeffs, cost_coeffs))
    result = milp.Handle(model).solve()
    allocation = result.value(x)
    assert np.all(allocation[~live] == 0.0) and np.all(allocation >= 0.0)
    assert allocation.sum() + result.value(q).sum() == pytest.approx(inst.nominal_demand.sum())


def test_subproblem_no_capacity_drops_everything():
    inst = tiny_instance(demand_deviation=[0.0])
    plan = FirstStagePlan(np.zeros(1, dtype=np.int8), np.zeros(1))
    for solver in (solve_subproblem_duality, solve_subproblem_kkt):
        sub = solver(inst, plan)
        assert sub.value == pytest.approx(2.5, abs=1e-7)


def test_subproblem_degenerate_set_equals_recourse():
    rng = np.random.default_rng(31)
    for _ in range(3):
        inst = random_instance(rng, 2, 2, gamma=0, k=0)
        plan = random_plan(rng, inst)
        nominal = Scenario(inst.nominal_demand, np.zeros(2, dtype=np.int8))
        direct = solve_recourse(inst, plan, nominal).second_stage_cost
        for solver in (solve_subproblem_duality, solve_subproblem_kkt):
            assert solver(inst, plan).value == pytest.approx(direct, abs=1e-6)


def test_subproblem_symmetric_failure():
    # two identical nodes each serving half the demand: one failure must hurt
    inst = random_instance(
        np.random.default_rng(0), 1, 2, gamma=0, k=1,
        price=np.array([0.1, 0.1]), capacity=np.array([6.0, 6.0]),
        placement_cost=np.array([0.3, 0.3]), storage_cost=np.zeros(2),
        initial_placement=np.zeros(2, dtype=np.int8),
        delay=np.array([[1.0, 1.0]]), nominal_demand=np.array([8.0]),
        demand_deviation=np.array([0.0]), unmet_penalty=np.array([0.9]))
    plan = FirstStagePlan(np.ones(2, dtype=np.int8), np.array([4.0, 4.0]))
    expected = brute_force_worst(inst, plan)
    for solver in (solve_subproblem_duality, solve_subproblem_kkt):
        sub = solver(inst, plan)
        assert sub.value == pytest.approx(expected, abs=1e-6)
        assert sub.worst_scenario.failures.sum() == 1


def test_subproblem_box_corner_when_penalties_dominate():
    # P far above every served marginal cost: worst demand maxes every area
    inst = random_instance(np.random.default_rng(4), 3, 2, gamma=3, k=0,
                           unmet_penalty=np.array([5.0, 5.0, 5.0]),
                           delay=np.full((3, 2), 1.0), beta=0.01)
    plan = random_plan(np.random.default_rng(1), inst)
    sub = solve_subproblem_duality(inst, plan)
    hi = inst.nominal_demand + inst.demand_deviation
    assert np.allclose(sub.worst_scenario.demand, hi)
    assert sub.value == pytest.approx(brute_force_worst(inst, plan), abs=1e-6)


def test_subproblem_targets_placed_node():
    inst = unit_example(k=1)
    plan = FirstStagePlan(np.array([1], dtype=np.int8), np.array([5.0]))
    for solver in (solve_subproblem_duality, solve_subproblem_kkt):
        sub = solver(inst, plan)
        assert sub.worst_scenario.failures[0] == 1
        assert sub.value == pytest.approx(2.5, abs=1e-7)


def test_subproblem_oracles_agree_with_brute_force():
    # besides feasible plans: procurement above placed capacity on a node,
    # and a node placed without procurement, where min(y, C t) matters
    rng = np.random.default_rng(42)
    cases = []
    for trial in range(12):
        inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        plan = random_plan(rng, inst)
        node = int(rng.integers(inst.num_nodes))
        t, y = plan.placement.copy(), plan.procurement.copy()
        if trial % 3 == 1:
            t[node], y[node] = 1, inst.capacity[node] + 5.0
        elif trial % 3 == 2:
            t[node], y[node] = 1, 0.0
        cases.append((inst, FirstStagePlan(t, y)))
    # one area, one node stocked above C = 8 against demand up to 11: the worst
    # case serves x = C, the box x <= a C that the KKT oracle does not complement
    cases.append((tiny_instance(gamma=1, demand_deviation=[6.0]),
                  FirstStagePlan(np.array([1], dtype=np.int8), np.array([12.0]))))
    for trial, (inst, plan) in enumerate(cases):
        expected = brute_force_worst(inst, plan)
        dual = solve_subproblem_duality(inst, plan)
        kkt = solve_subproblem_kkt(inst, plan)
        scale = max(1.0, abs(expected))
        assert abs(dual.value - expected) / scale < 1e-6, f"trial {trial}"
        assert abs(kkt.value - expected) / scale < 1e-6, f"trial {trial}"
        # the reported scenario really attains the reported value
        for sub in (dual, kkt):
            attained = solve_recourse(inst, plan, sub.worst_scenario).second_stage_cost
            assert attained == pytest.approx(sub.value, abs=1e-6)
    # the box case's worst vertex serves 8 at beta d = 0.1 and drops 3 at P = 0.5
    assert expected == pytest.approx(0.1 * 8.0 + 0.5 * 3.0)


def test_duality_box_at_max_penalty_is_exact():
    # u <= max P loses nothing: the oracle's box at max P and a 10x larger
    # box give the same optimum; odd trials at beta 0.3 have dead pairs
    rng = np.random.default_rng(7)
    tight = dead = 0
    for trial in range(20):
        inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                               beta=0.3 if trial % 2 else 0.1)
        plan = random_plan(rng, inst)
        p_max = float(inst.unmet_penalty.max())
        dead += int(np.count_nonzero(inst.served_capacity == 0))
        objectives = []
        for m_u in (p_max, 10.0 * max(p_max, 1.0)):
            model, blocks = ccg._build_duality_model(inst, plan, m_u)
            result = milp.Handle(model).solve()
            objectives.append(result.objective)
            if m_u == p_max:
                tight += bool(np.any(result.value(blocks["u"]) >= p_max - 1e-6))
        objectives.append(solve_subproblem_duality(inst, plan).value)
        assert objectives == pytest.approx([objectives[1]] * 3, rel=1e-9, abs=1e-9), \
            f"trial {trial}"
    assert tight > 0  # some trials put u on the box, where the bound matters
    assert dead > 0


def test_duality_model_has_one_dual_per_node_and_no_box_duals():
    # s, v, g per area and u, U, z per node; one x-column row per served pair,
    # three McCormick rows per product and the two budget rows
    inst = generate_instance(10, 10, seed=0)
    plan = plan_with_method(inst, "det").plan
    model, blocks = ccg._build_duality_model(inst, plan, float(inst.unmet_penalty.max()))
    assert np.count_nonzero(inst.served_capacity) == 10
    assert (model.num_vars, model.num_constraints) == (60, 10 + 3 * 10 + 3 * 10 + 2)
    assert sorted(blocks) == ["U", "g", "s", "u", "v", "z"]


def _passed_model(handle: milp.Handle) -> dict:
    """What HiGHS holds of a handle's model, as plain lists."""
    lp = handle._highs.getLp()
    matrix = lp.a_matrix_
    assert matrix.format_ == milp.highs.MatrixFormat.kColwise
    fields = {name: np.asarray(getattr(lp, name)).tolist()
              for name in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_")}
    fields.update({name: np.asarray(getattr(matrix, name)).tolist()
                   for name in ("start_", "index_", "value_")})
    fields["integrality_"] = [int(kind) for kind in lp.integrality_]
    return fields


@pytest.mark.parametrize("case", ["dmax-3x3", "random-pool"])
def test_live_master_is_the_master_a_fresh_build_gives(case):
    # after each appended vertex, HiGHS holds what a fresh build over the same
    # pool passes it, and both solve to the same bits
    rng = np.random.default_rng(25)
    if case == "dmax-3x3":
        # every served pair has zero delay: zero coefficients in the epigraph row
        inst = generate_instance(3, 3, seed=0, graph_nodes=12, dmax=8.0)
        assert np.all(inst.delay[inst.served_capacity > 0] == 0)
        vertices = vertex_scenarios(inst)
        pool = [vertices[k] for k in rng.choice(len(vertices), 6, replace=False)]
    else:
        inst = random_instance(rng, 3, 4, gamma=2, k=1)
        top = inst.nominal_demand + inst.demand_deviation
        pool = [Scenario(rng.uniform(0, top) * rng.integers(0, 2, 3), rng.integers(0, 2, 4))
                for _ in range(6)]
    kept = {}
    for r in range(len(pool) + 1):
        live = solve_master(inst, pool[:r], mip_gap=1e-9, kept=kept)
        built = {}
        fresh = solve_master(inst, pool[:r], mip_gap=1e-9, kept=built)
        assert kept["ccg-master"].handle is not built["ccg-master"].handle
        assert _passed_model(kept["ccg-master"].handle) == _passed_model(
            built["ccg-master"].handle), f"pool of {r}"
        assert (live.plan.placement.tolist(), live.plan.procurement.tolist(), live.eta,
                live.lower_bound, live.objective) == (
            fresh.plan.placement.tolist(), fresh.plan.procurement.tolist(), fresh.eta,
            fresh.lower_bound, fresh.objective), f"pool of {r}"


@pytest.mark.parametrize("oracle", ["duality", "kkt"])
def test_kept_oracle_answers_as_a_fresh_build(oracle):
    # one model per oracle, edited per plan (the duality oracle's U and u
    # re-priced, the KKT oracle's L re-bounded): the cut-free plan (no stock),
    # random plans, a repeat, at two gaps.  The reference is a one-shot solve
    # of a model built for the plan, with no edit through the handle
    rng = np.random.default_rng(31)
    inst = generate_instance(6, 6, seed=1)
    m_u = float(inst.unmet_penalty.max())
    solve, build = {
        "duality": (solve_subproblem_duality,
                    lambda plan: ccg._build_duality_model(inst, plan, m_u)),
        "kkt": (solve_subproblem_kkt, lambda plan: ccg._build_kkt_model(inst, plan)),
    }[oracle]
    plans = [FirstStagePlan(np.zeros(6), np.zeros(6))]
    plans += [random_plan(rng, inst) for _ in range(5)]
    plans.append(plans[2])
    kept = {}
    for k, plan in enumerate(plans):
        gap = 1e-2 if k % 3 == 1 else 1e-7
        live = solve(inst, plan, mip_gap=gap, kept=kept)
        model, blocks = build(plan)
        fresh = ccg._worst_case_answer(inst, milp.Handle(model, mip_gap=gap).solve(),
                                       blocks["g"], blocks["z"])
        assert (live.worst_scenario.key(), live.value, live.bound, live.status) == (
            fresh.worst_scenario.key(), fresh.value, fresh.bound, fresh.status), f"plan {k}"
    assert list(kept) == [f"subproblem-{oracle}"]


def test_kkt_model_complements_four_row_blocks():
    # x, b_x per served pair; q, s, g, b_s, b_q per area; u, z, b_u, the
    # stock L the plan fixes and e = L z per node.  Rows: node, cover and
    # x-column feasibility, two per complementarity pair (u-node, s-cover,
    # x-column, q-column), three McCormick rows for e and the two budget rows
    inst = generate_instance(10, 10, seed=0)
    plan = plan_with_method(inst, "det").plan
    kept = {}
    solve_subproblem_kkt(inst, plan, kept=kept)
    handle, blocks = kept["subproblem-kkt"]
    model = handle._model
    n_pairs, ni, nj = np.count_nonzero(inst.served_capacity), 10, 10
    assert n_pairs == 10
    sizes = (model.num_vars, model.num_constraints, int(np.concatenate(model._integer).sum()))
    assert sizes == (2 * n_pairs + 5 * ni + 5 * nj, 3 * n_pairs + 5 * ni + 6 * nj + 2,
                     n_pairs + 3 * ni + 2 * nj) == (120, 142, 60)
    assert sorted(blocks) == ["L", "g", "z"]


def _oracles_match_brute_force(inst, plan):
    expected = brute_force_worst(inst, plan)
    for solver in (solve_subproblem_duality, solve_subproblem_kkt):
        value = solver(inst, plan, mip_gap=1e-9).value
        assert value == pytest.approx(expected, rel=1e-7, abs=1e-7), solver.__name__


@pytest.mark.parametrize("offset", [1e-3, 0.0, -1e-3], ids=["above", "tie", "below"])
def test_pair_dropped_only_when_serving_costs_more_than_dropping(offset):
    # beta d_ij sits just above, at or just below P_i = 0.5 on the remote
    # pairs; only above is the pair dead.  Units cost less than the 1e-3 that
    # remote service saves below the tie, so plans stock for it.  The brute
    # force replays through solve_recourse_batch, which drops the same dead
    # pairs; test_evaluation checks that replay against an all-pairs LP.
    inst = random_instance(np.random.default_rng(3), 2, 2, gamma=1, k=1, beta=0.5,
                           price=np.array([1e-4, 1e-4]),
                           delay=np.array([[0.0, 1.0 + offset], [1.0 + offset, 0.0]]),
                           unmet_penalty=np.array([0.5, 0.5]), capacity=np.array([9.0, 9.0]),
                           nominal_demand=np.array([4.0, 3.0]),
                           demand_deviation=np.array([2.0, 2.0]), budget=20.0)
    assert inst.beta * 1.0 == inst.unmet_penalty[0]  # the tie is exact
    dead = inst.served_capacity == 0
    assert dead.tolist() == [[False, offset > 0], [offset > 0, False]]
    for t, y in (([1, 1], [4.0, 4.0]), ([1, 1], [9.0, 1.0]), ([1, 0], [7.0, 0.0])):
        _oracles_match_brute_force(inst, FirstStagePlan(np.array(t), np.array(y)))
    # a single failure makes a simplex set, where the affine policy is exact
    simplex = inst.replace(uncertainty=UncertaintyModel(0, 1))
    sol = solve_adr(simplex)
    assert sol.objective == pytest.approx(
        provisioning_cost(simplex, sol.plan) + brute_force_worst(simplex, sol.plan), rel=1e-7)
    assert sol.objective == pytest.approx(solve_extensive_form(simplex).objective, rel=1e-6)
    for coeffs in (sol.policy.A, sol.policy.B, sol.policy.D):
        assert np.all(coeffs[dead] == 0)


def test_dead_pairs_keep_oracles_and_adr_exact():
    # criterion-2-style instances at beta 0.3, where most pairs are dead
    rng = np.random.default_rng(2403)
    dead = pairs = 0
    for trial in range(12):
        ni, nj = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_instance(rng, ni, nj, beta=0.3)
        served = inst.served_capacity > 0
        dead, pairs = dead + int(np.count_nonzero(~served)), pairs + ni * nj
        _oracles_match_brute_force(inst, random_plan(rng, inst))
        sol = solve_adr(inst)
        exact = solve_extensive_form(inst).objective
        assert sol.objective >= exact - 1e-6 * max(1.0, abs(exact)), f"trial {trial}"
        for coeffs in (sol.policy.A, sol.policy.B, sol.policy.D):
            assert np.all(coeffs[~served] == 0), f"trial {trial}"
    assert 2 * dead > pairs


def test_run_ccg_nominal_example():
    res = run_ccg(unit_example())
    assert res.objective == pytest.approx(1.3, abs=1e-7)
    assert res.converged
    assert res.state.trace[-1].iteration <= 1  # labels 0 and 1 are "two iterations"
    assert res.plan.placement[0] == 1 and res.plan.procurement[0] == pytest.approx(5.0)


def test_run_ccg_failure_forces_no_placement():
    res = run_ccg(unit_example(k=1))
    assert res.objective == pytest.approx(2.5, abs=1e-7)
    assert res.plan.placement.sum() == 0


def test_run_ccg_demand_surge():
    res = run_ccg(tiny_instance(gamma=1))
    assert res.objective == pytest.approx(1.9, abs=1e-7)


def test_run_ccg_takes_upper_bounds_from_a_limited_oracle_bound(monkeypatch):
    # an oracle stopped at a limit proves only its bound: every UB is built
    # from that bound, so the value alone would have closed this gap
    inst = unit_example()
    totals = []

    def limited(instance, plan, **kwargs):
        sub = solve_subproblem_duality(instance, plan, **kwargs)
        totals.append(provisioning_cost(instance, plan) + sub.value)
        return ccg.SubproblemSolution(sub.worst_scenario, sub.value, sub.value + 1.0, "limit")

    monkeypatch.setitem(ccg._ORACLES, "duality", limited)
    res = run_ccg(inst)
    assert totals == pytest.approx([2.5, 1.3], abs=1e-7)
    assert [rec.upper_bound for rec in res.state.trace] == pytest.approx([3.5, 2.3], abs=1e-7)
    assert res.objective == pytest.approx(2.3, abs=1e-7)
    assert not res.converged and res.message.startswith("stalled")
    assert res.state.trace[-1].lower_bound == pytest.approx(1.3, abs=1e-7)


def test_run_ccg_keeps_its_incumbent_when_masters_stop_at_a_limit(monkeypatch):
    # every master stops at its limit holding the optimum of a 10% looser bound
    inst = generate_instance(5, 5, seed=0)
    exact = run_ccg(inst)
    gaps = stop_at_limit(monkeypatch, {"ccg-master"}, loosen=0.1)
    res = run_ccg(inst)
    trace = res.state.trace
    assert len(trace) > 1 and all(rec.lower_bound <= rec.upper_bound for rec in trace)
    assert trace[-1].lower_bound <= exact.objective + 1e-9 <= res.objective + 2e-9
    assert not res.converged and "solver limit" in res.message
    assert trace[-1].scenario_repeated
    assert [rec.master_status for rec in trace] == ["limit"] * len(trace)
    rows = trace_to_csv(res.state).strip().splitlines()
    assert rows[0].endswith(",master_status") and all(r.endswith(",limit") for r in rows[1:])
    # the iteration number is the pool size
    assert [rec.iteration for rec in trace] == list(range(len(res.state.pool) + 1))
    # a repeat under the loose master is not re-solved at the floor (1e-7)
    assert gaps == [1e-2] * len(trace)
    assert all(rec.master_solves == 1 for rec in trace)
    # the plan is the incumbent whose certified worst case is the objective
    worst = solve_subproblem_duality(inst, res.plan).value
    assert provisioning_cost(inst, res.plan) + worst == pytest.approx(res.objective, rel=1e-9)


@pytest.mark.parametrize("stopped", ["oracle", "master"])
def test_run_ccg_keeps_its_incumbent_when_a_later_solve_has_no_point(monkeypatch, stopped):
    # the third oracle call, or the third master, stops at its limit without a
    # point: two iterations have certified an incumbent, which the run keeps
    inst = generate_instance(6, 6, seed=0)
    name = {"oracle": "subproblem-duality", "master": "ccg-master"}[stopped]
    real_solve = milp.Handle.solve
    solves = []

    def third_has_no_point(handle):
        if handle._model.name == name:
            solves.append(name)
            if len(solves) == 3:
                raise milp.SolverLimitError(f"model {name!r} ended without a point: "
                                            "Time limit reached")
        return real_solve(handle)

    monkeypatch.setattr(milp.Handle, "solve", third_has_no_point)
    res = run_ccg(inst)
    trace = res.state.trace
    assert len(solves) == 3 and len(trace) == 2
    assert not res.converged
    assert res.message == (f"solver limit at iteration 2, keeping the incumbent: "
                           f"model {name!r} ended without a point: Time limit reached")
    assert res.objective == min(rec.upper_bound for rec in trace) < np.inf
    worst = solve_subproblem_duality(inst, res.plan).value
    assert provisioning_cost(inst, res.plan) + worst == pytest.approx(res.objective, rel=1e-9)
    # counted as third, the first such solve has no point: with no incumbent
    # yet, the error is the run's
    solves[:] = [name, name]
    with pytest.raises(milp.SolverLimitError, match=name):
        run_ccg(inst)


def _record_masters(monkeypatch) -> list[tuple[int, float]]:
    """Route run_ccg's masters through a recorder of (pool size, MIP gap)."""
    calls = []
    real = ccg.solve_master

    def recorded(instance, pool, **kwargs):
        calls.append((len(pool), kwargs["mip_gap"]))
        return real(instance, pool, **kwargs)

    monkeypatch.setattr(ccg, "solve_master", recorded)
    return calls


def test_run_ccg_matches_extensive_form(monkeypatch):
    rng = np.random.default_rng(77)
    calls = _record_masters(monkeypatch)
    for size in (2, 3):
        for trial in range(2):
            inst = random_instance(rng, size, size,
                                   gamma=int(rng.integers(0, 3)),
                                   k=int(rng.integers(0, 2)))
            ext = solve_extensive_form(inst)
            for oracle in ("duality", "kkt"):
                calls.clear()
                res = run_ccg(inst, oracle=oracle, eps=1e-7)
                scale = max(1.0, abs(ext.objective))
                where = f"size {size} trial {trial} oracle {oracle}"
                assert abs(res.objective - ext.objective) / scale < 1e-6, where
                # a loose master's dual bound is still a lower bound
                assert all(rec.lower_bound <= ext.objective + 1e-9 * scale
                           for rec in res.state.trace), where
                # the iteration number counts pool vertices, not master solves
                assert [pool for pool, _ in calls] == [
                    rec.iteration for rec in res.state.trace
                    for _ in range(rec.master_solves)], where


def test_master_gap_schedule(monkeypatch):
    calls = _record_masters(monkeypatch)
    floor = 1e-7  # eps / 10 at the default eps
    for n in (5, 6):
        calls.clear()
        res = run_ccg(generate_instance(n, n, seed=0))
        assert res.converged
        gaps = iter(gap for _, gap in calls)
        expected = ccg._START_GAP
        for rec in res.state.trace:
            row = [next(gaps) for _ in range(rec.master_solves)]
            assert row[0] == expected
            # a second solve re-solves a loose master at the floor
            assert row[1:] == [floor] * (len(row) - 1) and (len(row) == 1 or row[0] > floor)
            expected = max(row[-1] / 10, floor) if rec.gap < 2 * row[-1] else row[-1]
    # an explicit gap is the floor; at the start gap it leaves nothing to tighten
    calls.clear()
    res = run_ccg(generate_instance(5, 5, seed=0), mip_gap=1e-2)
    assert [gap for _, gap in calls] == [1e-2] * len(res.state.trace)
    assert all(rec.master_solves == 1 for rec in res.state.trace)


def test_loose_master_repeating_a_vertex_re_solves_at_the_floor(monkeypatch):
    # a loose master may return any plan within its gap; this one hands back
    # the previous plan, whose worst vertex is already pooled
    real, plans = ccg.solve_master, []

    def stale(instance, pool, **kwargs):
        sol = real(instance, pool, **kwargs)
        if pool and kwargs["mip_gap"] > 1e-7:
            sol = dataclasses.replace(sol, plan=plans[-1])
        plans.append(sol.plan)
        return sol

    monkeypatch.setattr(ccg, "solve_master", stale)
    oracle_plans = []

    def oracle(instance, plan, **kwargs):
        oracle_plans.append(plan.placement.tolist())
        return solve_subproblem_duality(instance, plan, **kwargs)

    monkeypatch.setitem(ccg._ORACLES, "duality", oracle)
    res = run_ccg(unit_example())
    assert res.converged and res.message == "converged at iteration 1"
    assert res.objective == pytest.approx(1.3, abs=1e-7)
    first, second = res.state.trace
    assert (first.master_solves, second.master_solves) == (1, 2)
    assert second.iteration == 1 and len(res.state.pool) == 1
    assert second.lower_bound == pytest.approx(1.3, abs=1e-7)
    # the stale plan, then the floor master's new one, each priced once
    assert [plan.placement.tolist() for plan in plans] == [[0], [0], [1]]
    assert oracle_plans == [[0], [0], [1]]


def test_bounds_monotone_and_sandwiched():
    rng = np.random.default_rng(13)
    for _ in range(4):
        inst = random_instance(rng, 3, 3)
        res = run_ccg(inst, eps=1e-7)
        trace = res.state.trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur.lower_bound >= prev.lower_bound - 1e-9
            assert cur.upper_bound <= prev.upper_bound + 1e-9
        assert all(t.lower_bound <= t.upper_bound + 1e-6 for t in trace)
        assert res.state.trace[-1].iteration <= ccg.iteration_bound(inst)


def test_repeated_scenario_means_convergence():
    rng = np.random.default_rng(19)
    for _ in range(6):
        inst = random_instance(rng, 3, 2)
        res = run_ccg(inst, eps=1e-6)
        for rec in res.state.trace:
            if rec.scenario_repeated:
                assert rec is res.state.trace[-1]
                assert rec.gap <= 1e-6 or not res.converged


def test_iteration_cap_flags_nonconvergence():
    rng = np.random.default_rng(23)
    for seed in range(40):
        inst = random_instance(np.random.default_rng(seed), 3, 3)
        full = run_ccg(inst, eps=1e-9)
        if full.state.trace[-1].iteration >= 2:
            capped = run_ccg(inst, eps=1e-9, max_iterations=1)
            assert not capped.converged
            assert "cap" in capped.message or "stalled" in capped.message
            # the incumbent bound is still a certified worst case
            assert capped.objective >= full.objective - 1e-6
            return
    pytest.skip("no multi-iteration instance found")


def test_relatively_complete_recourse_smoke():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng, 2, 2)
        plan = random_plan(rng, inst)
        demand = rng.uniform(inst.nominal_demand,
                             inst.nominal_demand + inst.demand_deviation)
        z = rng.integers(0, 2, 2).astype(np.int8)
        out = solve_recourse(inst, plan, Scenario(demand, z))
        assert out.second_stage_cost >= -1e-9


def test_extensive_degenerate_is_single_block():
    inst = unit_example()
    ext = solve_extensive_form(inst)
    assert ccg.iteration_bound(inst) == 1
    assert ext.objective == pytest.approx(1.3, abs=1e-7)


def test_extensive_refuses_oversized_sets():
    # 21,700 demand vertices times 211 failure vertices: 4,578,700, beyond both caps
    inst = random_instance(np.random.default_rng(5), 20, 20, gamma=5, k=2)
    with pytest.raises(EnumerationCapError):
        solve_extensive_form(inst)


def test_extensive_refuses_by_built_size_before_enumerating(monkeypatch):
    # 35,728 vertices, far below VERTEX_CAP, but up to 20 recourse columns
    # each: 10 served pairs and 10 areas
    inst = generate_instance(10, 10, seed=0)

    def refuse(*args):
        raise AssertionError("enumerated vertices of a model over the column cap")

    monkeypatch.setattr(ccg, "enumerate_vertices", refuse)
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError, match="714560 recourse columns"):
        solve_extensive_form(inst)
    assert time.perf_counter() - start < 1.0


def test_zero_demand_converges_at_iteration_zero():
    # UB is zero, so convergence is judged on the absolute gap
    inst = tiny_instance(gamma=1, k=1, nominal_demand=[0.0], demand_deviation=[0.0])
    res = run_ccg(inst)
    assert res.converged and res.message == "converged at iteration 0"
    assert res.objective == 0.0 and res.plan.placement.tolist() == [0]
    (rec,) = res.state.trace
    assert rec.lower_bound == 0.0 and rec.gap == 0.0
    # near zero a relative gap of 20% is an absolute 1e-10, within tolerance
    assert ccg._gap_and_convergence(4e-10, 5e-10, 1e-6) == pytest.approx((1e-10, True))
    assert ccg._gap_and_convergence(-1.0, 5e-10, 1e-6) == pytest.approx((1.0, False))


def test_trace_csv_format():
    res = run_ccg(unit_example())
    text = trace_to_csv(res.state)
    lines = text.strip().splitlines()
    assert lines[0] == ("iteration,LB,UB,gap,master_seconds,subproblem_seconds,"
                        "master_gap,master_solves,master_status")
    assert len(lines) == len(res.state.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 9


def test_run_ccg_rejects_bad_arguments():
    inst = tiny_instance()
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError):
            run_ccg(inst, eps=eps)
    with pytest.raises(ValueError):
        run_ccg(inst, oracle="magic")
    with pytest.raises(ValueError):
        run_ccg(inst, max_iterations=0)
