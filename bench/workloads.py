"""The benchmark's workloads: inputs made from a seed, one timed operation, its checks.

Every workload starts from the instance `generate_instance(n, n, seed=0)`
and relabels its areas and nodes with permutations drawn from the workload
seed.  A relabelled instance is the same problem, so it has the same optimum
and about the same solver work, while its arrays, and so the solver's column
order and search path, differ.  Generating a new instance per seed would
instead measure the instance: at 20x20, CCG needs 10 iterations at
generator seed 0 and 27 at seed 1 (about 6x the time), and at 14x14 a solve
takes 30 times as long as at 12x12.

An operation takes one to four seconds, so 10 to 30 fit in one run.
Operation k of an untraced run uses input k of a cycle of inputs made in
set-up (a relabelling, or a block of scenarios), so the median operation
of a run averages over many search paths instead of resting on one.
Traced runs use input 0 for every operation, so their counts repeat
exactly.

Checks run after the timed phase and feed the failure count.  Each
workload counts its own operations: one CCG solve; one scenario replay
each, plus one for the certification; one sweep cell each.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import traceback

import numpy as np
from scipy.optimize import linprog

from edgeplan import baselines, ccg, cli, core, evaluation, topology

EPS = 1e-3
# Objective of run_ccg(generate_instance(n, n, seed=0), eps=1e-3); relabelling keeps it.
CCG_REFERENCE = {10: 72.6188100802303}
RECOURSE_RTOL = 1e-9
CERTIFY_RTOL = 1e-6
REFERENCE_SAMPLE = 25
# Inputs in one workload's cycle; more operations than this never fit in a run.
CYCLE = 32
# The evaluate workload replays its test scenarios in this many blocks, one per operation.
BLOCKS = 8
SWEEP_METHODS = ("ccg-duality", "ccg-kkt", "adr", "so", "det", "heu")
# Test scenarios per sweep cell and training scenarios of the stochastic baseline.
SWEEP_SCENARIOS = 50
SWEEP_TRAINING = 20


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list[str] = dataclasses.field(default_factory=list)

    def __add__(self, other: "Outcome") -> "Outcome":
        return Outcome(self.attempted + other.attempted, self.failed + other.failed,
                       self.notes + other.notes)


def relabel(instance: core.ProblemInstance, *seed: int) -> core.ProblemInstance:
    """The instance with areas and nodes permuted by `np.random.default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    a = rng.permutation(instance.num_areas)
    n = rng.permutation(instance.num_nodes)
    return instance.replace(
        price=instance.price[n], capacity=instance.capacity[n],
        placement_cost=instance.placement_cost[n], storage_cost=instance.storage_cost[n],
        initial_placement=instance.initial_placement[n], delay=instance.delay[np.ix_(a, n)],
        unmet_penalty=instance.unmet_penalty[a], nominal_demand=instance.nominal_demand[a],
        demand_deviation=instance.demand_deviation[a],
        eligibility=instance.eligibility[np.ix_(a, n)])


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class CcgWorkload:
    """run_ccg with the duality oracle on relabellings of the 10x10 instance."""

    name = "ccg-10x10"

    def __init__(self, seed: int, toy: bool, workdir: str):
        self.seed, self.size = seed, (4 if toy else 10)
        self.operations = 1
        self._kkt: dict[tuple, float] = {}

    def setup(self) -> None:
        base = topology.generate_instance(self.size, self.size, seed=0)
        self.instances = [relabel(base, self.seed, k) for k in range(CYCLE)]

    def run(self, k: int) -> tuple[int, ccg.CcgResult]:
        k %= CYCLE
        return k, ccg.run_ccg(self.instances[k], oracle="duality", eps=EPS)

    def check(self, run: tuple[int, ccg.CcgResult]) -> Outcome:
        k, res = run
        notes = []
        gap = res.state.trace[-1].gap
        if not (res.converged and gap <= EPS):
            notes.append(f"not converged: gap {gap:.3e}: {res.message}")
        key = (k, tuple(res.plan.placement), tuple(res.plan.procurement))
        if key not in self._kkt:
            # the KKT oracle shares no code with the duality loop
            self._kkt[key] = evaluation.certify_worst_case(self.instances[k], res.plan,
                                                           oracle="kkt")
        if not _close(self._kkt[key], res.objective, EPS):
            notes.append(f"objective {res.objective!r} but KKT worst case {self._kkt[key]!r}")
        reference = CCG_REFERENCE.get(self.size)
        if reference is not None and not _close(res.objective, reference, EPS):
            notes.append(f"objective {res.objective!r}, reference {reference!r}")
        return Outcome(1, int(bool(notes)), notes)


def reference_recourse(instance: core.ProblemInstance, plan: core.FirstStagePlan,
                       scenario: core.Scenario, psi: float = 1.0) -> float:
    """Recourse cost from a dense-array LP, written independently of `edgeplan.milp`.

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
    alive = plan.procurement * plan.placement * (1 - scenario.failures)
    b = np.concatenate([alive, -scenario.demand])
    upper = np.concatenate([(instance.eligibility * instance.capacity[None, :]).ravel(),
                            np.full(ni, np.inf)])
    res = linprog(c, A_ub=a, b_ub=b, bounds=np.column_stack([np.zeros_like(upper), upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference recourse LP: {res.message}")
    return float(res.fun)


class EvaluateWorkload:
    """monte_carlo of the deterministic plan over blocks of lognormal test scenarios."""

    name = "evaluate-20x20"

    def __init__(self, seed: int, toy: bool, workdir: str):
        self.seed, self.size = seed, (4 if toy else 20)
        self.num_scenarios = 20 if toy else 1000
        self.block = self.num_scenarios // BLOCKS
        self.operations = self.block + 1
        self._kkt: float | None = None
        self._reference: dict[int, float] = {}

    def setup(self) -> None:
        base = topology.generate_instance(self.size, self.size, seed=0)
        self.instance = relabel(base, self.seed)
        self.plan = baselines.solve_deterministic(self.instance).plan
        config = evaluation.EvaluationConfig(num_scenarios=self.num_scenarios,
                                             distribution="lognormal", seed=self.seed)
        self.scenarios = evaluation.generate_test_scenarios(self.instance, config)
        count = min(REFERENCE_SAMPLE, self.num_scenarios)
        self.sample = np.unique(np.linspace(0, self.num_scenarios - 1, count).round().astype(int))

    def _scenarios(self, b: int) -> list[core.Scenario]:
        return self.scenarios[b * self.block:(b + 1) * self.block]

    def run(self, k: int) -> tuple[int, evaluation.EvaluationReport]:
        b = k % BLOCKS
        return b, evaluation.monte_carlo(self.instance, self.plan, self._scenarios(b),
                                         certify=True)

    def check(self, run: tuple[int, evaluation.EvaluationReport]) -> Outcome:
        b, report = run
        costs = np.asarray(report.recourse_costs, dtype=float)
        if costs.shape != (self.block,):
            return Outcome(self.operations, self.operations, [f"{costs.size} recourse costs"])
        # dropping every unit is feasible, so psi * P . lambda caps the optimum
        ceiling = np.array([s.demand for s in self._scenarios(b)]) @ self.instance.unmet_penalty
        slack = 1e-9 * np.maximum(1.0, ceiling)
        bad = set(np.flatnonzero(~((costs >= -slack) & (costs <= ceiling + slack))).tolist())
        notes = [f"{len(bad)} recourse costs outside [0, P.lambda]"] if bad else []
        for r in self.sample.tolist():
            if r // self.block != b:
                continue
            if r not in self._reference:
                self._reference[r] = reference_recourse(self.instance, self.plan,
                                                        self.scenarios[r])
            cost = costs[r - b * self.block]
            if not _close(cost, self._reference[r], RECOURSE_RTOL):
                bad.add(r - b * self.block)
                notes.append(f"scenario {r}: recourse {cost!r}, "
                             f"reference {self._reference[r]!r}")
        if self._kkt is None:
            self._kkt = evaluation.certify_worst_case(self.instance, self.plan, oracle="kkt")
        certify_failed = not _close(report.certified_worst, self._kkt, CERTIFY_RTOL)
        if certify_failed:
            notes.append(f"duality certificate {report.certified_worst!r}, KKT {self._kkt!r}")
        return Outcome(self.operations, len(bad) + certify_failed, notes)


@dataclasses.dataclass(frozen=True)
class SweepRun:
    exit_code: int
    outdir: str


def read_sweep(outdir: str) -> tuple[list[dict], list[str]]:
    """Rows of sweep.csv (numbers as floats) and any manifest hash mismatch."""
    with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in ("objective", "certified_worst"):
            row[col] = float(row[col]) if row[col] else math.nan
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    problems = [] if "sweep.csv" in files else ["manifest lists no sweep.csv"]
    for name, digest in files.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"manifest hash mismatch for {name}")
    return rows, problems


def check_sweep_rows(rows: list[dict]) -> Outcome:
    """One operation per method cell; a cell fails on an error or a broken cross-check."""
    by_method = {row["method"]: row for row in rows}
    failed: set[str] = set()
    notes = []
    for m in SWEEP_METHODS:
        row = by_method.get(m)
        if row is None or row["error"] or not (math.isfinite(row["objective"])
                                               and math.isfinite(row["certified_worst"])):
            failed.add(m)
            notes.append(f"{m}: {'missing' if row is None else row['error'] or 'no value'}")
    ccgs = [m for m in ("ccg-duality", "ccg-kkt") if m not in failed]
    if len(ccgs) == 2:
        a, b = (by_method[m]["objective"] for m in ccgs)
        if not _close(a, b, EPS):
            failed.add("ccg-kkt")
            notes.append(f"ccg objectives disagree: duality {a!r}, kkt {b!r}")
    others = [m for m in SWEEP_METHODS if not m.startswith("ccg-") and m not in failed]
    for c in ccgs:
        for m in others:
            if by_method[c]["certified_worst"] > by_method[m]["certified_worst"] * (1 + EPS):
                failed.add(c)
                notes.append(f"{c} certified worst {by_method[c]['certified_worst']!r} "
                             f"above {m} {by_method[m]['certified_worst']!r}")
    return Outcome(len(SWEEP_METHODS), len(failed), notes)


class SweepWorkload:
    """`edgeplan sweep` along K with every planner, through cli.main in-process."""

    name = "sweep-K2"

    def __init__(self, seed: int, toy: bool, workdir: str):
        self.seed, self.size = seed, (4 if toy else 6)
        self.workdir = workdir
        self.operations = len(SWEEP_METHODS)
        self._runs = 0

    def setup(self) -> None:
        base = topology.generate_instance(self.size, self.size, seed=0)
        self.instance_paths = []
        for k in range(CYCLE):
            path = os.path.join(self.workdir, f"instance-{k}.json")
            core.save_instance(relabel(base, self.seed, k), path)
            self.instance_paths.append(path)

    def run(self, k: int) -> SweepRun:
        self._runs += 1
        outdir = os.path.join(self.workdir, f"sweep-{self._runs}")
        os.makedirs(outdir)
        argv = ["sweep", "--instance", self.instance_paths[k % CYCLE], "--axis", "K",
                "--values", "2", "--methods", ",".join(SWEEP_METHODS), "--eps", str(EPS),
                "--scenarios", str(SWEEP_SCENARIOS), "--training-scenarios",
                str(SWEEP_TRAINING), "--seed", str(self.seed), "--out", outdir]
        return SweepRun(cli.main(argv), outdir)

    def check(self, run: SweepRun) -> Outcome:
        if run.exit_code != 0:
            return Outcome(self.operations, self.operations, [f"exit code {run.exit_code}"])
        rows, problems = read_sweep(run.outdir)
        if problems:
            return Outcome(self.operations, self.operations, problems)
        return check_sweep_rows(rows)


WORKLOADS = {w.name: w for w in (CcgWorkload, EvaluateWorkload, SweepWorkload)}


def check(workload, result) -> Outcome:
    """Outcome of one timed operation; an exception fails all its operations."""
    every = workload.operations
    if isinstance(result, Exception):
        return Outcome(every, every, [repr(result)])
    try:
        return workload.check(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Outcome(every, every, [f"check raised {exc!r}"])
