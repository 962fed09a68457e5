"""Release gate: nine end-to-end checks, one verdict line each.

Every test prints "[criterion N] PASS/FAIL - detail" before asserting, so
failure reports carry the verdict; the -v listing gives the one-line
per-criterion summary on green runs.  Criteria 8 and 9 are directional
performance checks on generated desk-scale instances; the rest are exact
agreements between independent solution paths.
"""

import time

import numpy as np
import pytest

from edgeplan import topology
from edgeplan.adr import audit_model_size, predicted_counts, solve_adr
from edgeplan.baselines import (
    heuristic_placement,
    solve_deterministic,
    solve_stochastic,
)
from edgeplan.ccg import (
    iteration_bound,
    run_ccg,
    solve_extensive_form,
    solve_subproblem_duality,
    solve_subproblem_kkt,
)
from edgeplan.core import Scenario
from edgeplan.evaluation import (
    EvaluationConfig,
    certify_worst_case,
    generate_test_scenarios,
    monte_carlo,
    sensitivity_sweep,
    solve_recourse,
)
from helpers import brute_force_worst, random_instance, random_plan


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


@pytest.fixture(scope="module")
def exactness_runs():
    """Ten small instances solved by extensive form and by CCG with both
    oracles; shared by the exactness and bound-behavior criteria."""
    rng = np.random.default_rng(2401)
    runs, triples = [], []
    start = time.perf_counter()
    for idx in range(10):
        n = (2, 3, 4)[idx % 3]
        inst = random_instance(rng, n, n, gamma=int(rng.integers(0, 3)),
                               k=int(rng.integers(0, 3)))
        exact = solve_extensive_form(inst, mip_gap=1e-9).objective
        for oracle in ("duality", "kkt"):
            res = run_ccg(inst, oracle=oracle, eps=1e-8)
            runs.append((inst, res))
            triples.append((oracle, res.objective, exact))
    return runs, triples, time.perf_counter() - start


def test_criterion_1_ccg_matches_extensive_form(exactness_runs):
    _, triples, elapsed = exactness_runs
    worst = max(_rel_err(obj, exact) for _, obj, exact in triples)
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(1, ok, f"max relative error {worst:.2e} over 10 instances x 2 oracles, "
                    f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_subproblem_triple_agreement():
    rng = np.random.default_rng(2402)
    worst = 0.0
    for _ in range(20):
        ni, nj = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_instance(rng, ni, nj)
        plan = random_plan(rng, inst)
        dual = solve_subproblem_duality(inst, plan, mip_gap=1e-9).value
        kkt = solve_subproblem_kkt(inst, plan, mip_gap=1e-9).value
        brute = brute_force_worst(inst, plan)
        worst = max(worst, _rel_err(dual, brute), _rel_err(kkt, brute),
                    _rel_err(dual, kkt))
    ok = worst <= 1e-6
    _verdict(2, ok, f"duality == kkt == vertex enumeration on 20 pairs, "
                    f"max relative error {worst:.2e}")


def test_criterion_3_bound_behavior(exactness_runs):
    runs, _, _ = exactness_runs
    problems = []
    for inst, res in runs:
        trace = res.state.trace
        lbs = [rec.lower_bound for rec in trace]
        ubs = [rec.upper_bound for rec in trace]
        if any(a > b + 1e-9 for a, b in zip(lbs, lbs[1:])):
            problems.append("LB decreased")
        if any(a < b - 1e-9 for a, b in zip(ubs, ubs[1:])):
            problems.append("UB increased")
        if any(lb > ub + 1e-6 * max(1.0, abs(ub)) for lb, ub in zip(lbs, ubs)):
            problems.append("LB crossed UB")
        if trace[-1].iteration > iteration_bound(inst):
            problems.append("iterations exceeded vertex count")
        for rec in trace:
            if rec.scenario_repeated and not (res.converged or rec.gap <= 1e-6):
                problems.append("repeated scenario without gap closure")
        if not res.converged:
            problems.append("run did not converge")
    ok = not problems
    _verdict(3, ok, f"monotone sandwiched bounds and vertex-count iteration cap "
                    f"on {len(runs)} runs" + (f"; issues: {sorted(set(problems))}"
                                              if problems else ""))


def test_criterion_4_adr_bounds_and_simplex_equality():
    rng = np.random.default_rng(2404)
    floor_violation = 0.0
    for idx in range(10):
        n = 2 + idx % 2
        inst = random_instance(rng, n, n)
        exact = run_ccg(inst, eps=1e-8).objective
        upper = solve_adr(inst, mip_gap=1e-9).objective
        floor_violation = max(floor_violation,
                              (exact - upper) / max(1.0, abs(exact)))
    eq_err = 0.0
    for idx in range(10):
        n = 2 + idx % 2
        gamma, k = ((1, 0) if idx < 5 else (0, 1))
        inst = random_instance(rng, n, n, gamma=gamma, k=k)
        exact = run_ccg(inst, eps=1e-8).objective
        upper = solve_adr(inst, mip_gap=1e-9).objective
        eq_err = max(eq_err, _rel_err(upper, exact))
    ok = floor_violation <= 1e-6 and eq_err <= 1e-6
    _verdict(4, ok, f"affine policy never undercut the exact optimum "
                    f"(worst slack {floor_violation:.2e}) and matched it on "
                    f"single-deviation and single-failure sets (max err {eq_err:.2e})")


def test_criterion_5_model_size_audit():
    published = {1: (47, 33), 2: (173, 128), 3: (431, 309), 5: (1535, 1025)}
    problems = []
    for n, expected in published.items():
        audit = audit_model_size(n, n)
        if (audit.reference_constraints, audit.reference_variables) != expected:
            problems.append(f"reference formula off at n={n}")
        if (audit.built_constraints, audit.built_variables) != predicted_counts(n, n):
            problems.append(f"assembled model off the documented closed form at n={n}")
    ok = not problems
    _verdict(5, ok, "reference formulas reproduce the published counts and the "
                    "assembled model matches its documented closed form exactly "
                    "for n in {1,2,3,5}" + (f"; issues: {problems}" if problems else ""))


def test_criterion_6_minimax_ordering_at_scale():
    start = time.perf_counter()
    min_margin = np.inf
    violations = []
    for seed in range(10):
        inst = topology.generate_instance(10, 10, seed=seed)
        plans = {
            "aro": run_ccg(inst, eps=1e-3, mip_gap=1e-4).plan,
            "det": solve_deterministic(inst).plan,
            "so": solve_stochastic(inst, generate_test_scenarios(inst, EvaluationConfig(
                num_scenarios=100, distribution="normal", seed=seed))).plan,
            "heu": heuristic_placement(inst),
        }
        certs = {name: certify_worst_case(inst, plan, mip_gap=1e-6)
                 for name, plan in plans.items()}
        for rival in ("det", "so", "heu"):
            margin = certs[rival] - certs["aro"]
            min_margin = min(min_margin, margin)
            if margin < -1e-6:
                violations.append(f"seed {seed}: {rival} beat aro by {-margin:.3g}")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 600.0
    _verdict(6, ok, f"certified worst case of the robust plan at or below det/so/heu "
                    f"on 10 size-10 instances (min margin {min_margin:.3g}), "
                    f"{elapsed:.0f}s (< 600s)"
                    + (f"; violations: {violations}" if violations else ""))


def test_criterion_7_recourse_always_solvable():
    rng = np.random.default_rng(2407)
    solved = 0
    for _ in range(50):
        ni, nj = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inst = random_instance(rng, ni, nj)
        hi = 2.0 * (inst.nominal_demand + inst.demand_deviation)
        cases = [
            (np.zeros(ni), np.ones(nj, dtype=np.int8)),
            (hi, np.ones(nj, dtype=np.int8)),
            (np.zeros(ni), np.zeros(nj, dtype=np.int8)),
        ]
        while len(cases) < 10:
            demand = rng.uniform(0.0, hi)
            failures = (rng.random(nj) < rng.random()).astype(np.int8)
            cases.append((demand, failures))
        for plan in (random_plan(rng, inst), random_plan(rng, inst)):
            for demand, failures in cases:
                out = solve_recourse(inst, plan, Scenario(demand, failures))
                expected = (inst.unmet_penalty @ out.unmet
                            + inst.beta * (inst.delay * out.allocation).sum())
                assert abs(out.second_stage_cost - expected) <= 1e-6 * max(1.0, expected)
                assert np.all(out.allocation.sum(axis=1) + out.unmet >= demand - 1e-6)
                solved += 1
    ok = solved == 500 * 2
    _verdict(7, ok, f"{solved} recourse solves, all optimal, including all-failed "
                    f"and zero-demand extremes")


def test_criterion_8_out_of_sample_and_axis_trends():
    wins = 0
    for seed in range(5):
        inst = topology.generate_instance(10, 10, seed=100 + seed)
        scenarios = generate_test_scenarios(
            inst, EvaluationConfig(num_scenarios=200, seed=seed))
        assert any(s.failures.sum() > 0 for s in scenarios)
        plans = {
            "aro": run_ccg(inst, eps=1e-2, mip_gap=1e-3).plan,
            "det": solve_deterministic(inst).plan,
            "heu": heuristic_placement(inst),
        }
        avg = {name: monte_carlo(inst, plan, scenarios, method=name,
                                 certify=False).average_cost
               for name, plan in plans.items()}
        if avg["aro"] <= avg["det"] + 1e-9 and avg["aro"] <= avg["heu"] + 1e-9:
            wins += 1

    base = topology.generate_instance(6, 6, seed=11)
    trend_specs = [
        ("K", [0, 1, 2], +1),
        ("gamma", [0, 2, 4], +1),
        ("beta", [0.05, 0.1, 0.2], +1),
        ("psi", [1.0, 1.5, 2.0], +1),
        ("dmax", [6.0, 12.0, 1e6], -1),
        ("J", [4, 5, 6], -1),
    ]
    broken = []
    for axis, values, direction in trend_specs:
        rows = sensitivity_sweep(base, axis, values, methods=("ccg-duality",),
                                 eps=1e-4, num_test_scenarios=0)
        errs = [r["error"] for r in rows if r["error"]]
        if errs:
            broken.append(f"{axis}: {errs[0]}")
            continue
        objs = [r["objective"] for r in rows]
        for a, b in zip(objs, objs[1:]):
            slack = 3e-4 * max(1.0, abs(a), abs(b))
            fine = a <= b + slack if direction > 0 else a >= b - slack
            if not fine:
                broken.append(f"{axis}: {objs}")
                break
    ok = wins >= 4 and not broken
    _verdict(8, ok, f"robust average beat det and heu on {wins}/5 seeds (need 4); "
                    f"objective monotone along K, gamma, beta, psi (up) and "
                    f"dmax, J (down)" + (f"; broken: {broken}" if broken else ""))


def test_criterion_9_convergence_at_paper_scale():
    inst = topology.generate_instance(20, 20, seed=0)
    start = time.perf_counter()
    res = run_ccg(inst, eps=1e-3)
    seconds = time.perf_counter() - start
    iterations = res.state.trace[-1].iteration
    ok = res.converged and iterations <= 50 and seconds < 1800.0
    _verdict(9, ok, f"size-20 default instance: converged={res.converged} in "
                    f"{iterations} iterations (cap 50), {seconds:.0f}s "
                    f"(< 1800s), objective {res.objective:.4f}")
