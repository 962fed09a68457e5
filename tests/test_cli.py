"""End-to-end command-line runs (in-process, via cli.main)."""

import hashlib
import json

import numpy as np
import pytest

from edgeplan import ccg, cli, evaluation
from edgeplan.ccg import run_ccg
from edgeplan.core import FirstStagePlan, load_instance, provisioning_cost, save_instance, save_plan
from edgeplan.milp import BackendError, SolverLimitError
from helpers import random_instance, stop_at_limit


def _gen(tmp_path, name, **flags):
    out = tmp_path / name
    argv = ["generate", "--out", str(out)]
    for key, val in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    assert cli.main(argv) == 0
    return out


def _small(tmp_path, name, **extra):
    flags = dict(areas=2, nodes=2, graph_nodes=12, seed=3)
    flags.update(extra)
    return _gen(tmp_path, name, **flags)


def _stderr_doc(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_generate_is_byte_identical(tmp_path):
    a = _small(tmp_path, "a")
    b = _small(tmp_path, "b")
    assert (a / "instance.json").read_bytes() == (b / "instance.json").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    digest = hashlib.sha256((a / "instance.json").read_bytes()).hexdigest()
    assert manifest["files"]["instance.json"] == digest
    assert manifest["command"] == "generate"
    assert manifest["config"]["seed"] == 3
    assert set(manifest["versions"]) == {"edgeplan", "python", "numpy", "scipy"}


def test_generate_prints_written_paths(tmp_path, capsys):
    out = _small(tmp_path, "gen")
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'instance.json'}" in stdout
    assert f"wrote {out / 'manifest.json'}" in stdout


def test_generate_rejects_bad_size(tmp_path, capsys):
    rc = cli.main(["generate", "--areas", "0", "--out", str(tmp_path / "bad")])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["exit_code"] == 3 and doc["command"] == "generate"


def test_generate_refuses_a_negative_seed(tmp_path, capsys):
    rc = cli.main(["generate", "--seed", "-1", "--out", str(tmp_path / "neg")])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["error"] == "TopologyError" and doc["exit_code"] == 3
    assert doc["message"] == "seed must be nonnegative, got -1"
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", ["evaluate", "solve-so", "sweep"])
def test_scenario_draws_refuse_a_negative_seed(tmp_path, capsys, command):
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")
    if command == "evaluate":
        plan = tmp_path / "plan.json"
        save_plan(FirstStagePlan(np.zeros(2, dtype=np.int8), np.zeros(2)), str(plan),
                  method="empty", objective=0.0)
        argv = ["evaluate", "--instance", inst, "--plan", str(plan), "--scenarios", "5"]
    elif command == "solve-so":
        argv = ["solve", "--instance", inst, "--method", "so", "--scenarios", "5"]
    else:
        # refused before any cell plans
        argv = ["sweep", "--instance", inst, "--axis", "K", "--values", "0",
                "--methods", "det", "--scenarios", "5"]
    out = tmp_path / "neg"
    capsys.readouterr()
    assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 3
    doc = _stderr_doc(capsys)
    assert doc["exit_code"] == 3 and doc["message"] == "seed must be nonnegative, got -1"
    assert not out.exists()


def test_solve_ccg_outputs(tmp_path):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "ccg"
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"),
                   "--method", "ccg-duality", "--eps", "1e-6", "--out", str(out)])
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["method"] == "ccg-duality"
    assert plan["converged"] is True
    assert len(plan["t"]) == 2 and len(plan["y"]) == 2
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == ("iteration,LB,UB,gap,master_seconds,subproblem_seconds,"
                        "master_gap,master_solves,master_status")
    assert len(trace) >= 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"plan.json", "trace.csv"}


def test_solve_deterministic_reproducible_modulo_timing(tmp_path):
    gen = _small(tmp_path, "gen")
    docs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert cli.main(["solve", "--instance", str(gen / "instance.json"),
                         "--method", "det", "--out", str(out)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        doc.pop("wall_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_adr_matches_ccg_on_budget_one_demand_set(tmp_path):
    # single-deviation demand budget, no failures: affine rules lose nothing
    gen = _small(tmp_path, "gen", gamma=1, k=0)
    objs = {}
    for method in ("adr", "ccg-duality"):
        out = tmp_path / method
        assert cli.main(["solve", "--instance", str(gen / "instance.json"),
                         "--method", method, "--eps", "1e-8", "--out", str(out)]) == 0
        objs[method] = json.loads((out / "plan.json").read_text())["objective"]
    assert objs["adr"] == pytest.approx(objs["ccg-duality"], rel=1e-6, abs=1e-7)


def test_solve_nonconvergence_exits_2_with_artifacts(tmp_path, capsys):
    # find a small instance that needs at least two cut rounds, then cap it
    inst_path = None
    for seed in range(40):
        inst = random_instance(np.random.default_rng(seed), 2, 2)
        full = run_ccg(inst, eps=1e-6)
        if full.state.trace[-1].iteration >= 2:
            inst_path = tmp_path / "inst.json"
            save_instance(inst, str(inst_path))
            break
    if inst_path is None:
        pytest.skip("no multi-round instance in the scanned seeds")
    out = tmp_path / "capped"
    rc = cli.main(["solve", "--instance", str(inst_path), "--method", "ccg-duality",
                   "--max-iterations", "1", "--eps", "1e-9", "--out", str(out)])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"] == "NonconvergenceError" and doc["exit_code"] == 2
    plan = json.loads((out / "plan.json").read_text())
    assert plan["converged"] is False


@pytest.mark.parametrize("method,model", [("det", "stochastic"), ("adr", "adr"),
                                          ("extensive", "ccg-master")])
def test_solve_writes_the_incumbent_of_a_planner_stopped_at_a_limit(tmp_path, capsys,
                                                                    monkeypatch, method, model):
    gen = _small(tmp_path, "gen")
    stop_at_limit(monkeypatch, {model}, loosen=0.1)
    out = tmp_path / method
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"), "--method", method,
                   "--out", str(out)])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"] == "NonconvergenceError" and doc["exit_code"] == 2
    assert doc["message"] == f"{method} stopped at its solver limit before proving optimality"
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "limit" and plan["message"] == doc["message"]
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"plan.json"}


def test_solve_writes_the_ccg_incumbent_when_a_later_oracle_has_no_point(tmp_path, capsys,
                                                                          monkeypatch):
    gen = _gen(tmp_path, "gen", areas=6, nodes=6, seed=0)
    real = ccg._ORACLES["duality"]
    calls = []

    def third_has_no_point(instance, plan, **kwargs):
        calls.append(plan)
        if len(calls) == 3:
            raise SolverLimitError("model 'subproblem-duality' ended without a point: "
                                   "Time limit reached")
        return real(instance, plan, **kwargs)

    monkeypatch.setitem(ccg._ORACLES, "duality", third_has_no_point)
    out = tmp_path / "ccg"
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"), "--method", "ccg-duality",
                   "--out", str(out)])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"] == "NonconvergenceError" and doc["exit_code"] == 2
    assert doc["message"].startswith("solver limit at iteration 2, keeping the incumbent: ")
    plan = json.loads((out / "plan.json").read_text())
    assert plan["converged"] is False and plan["message"] == doc["message"]
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 3
    assert set(json.loads((out / "manifest.json").read_text())["files"]) == {"plan.json",
                                                                              "trace.csv"}


def test_extensive_cap_exits_3_without_partial_output(tmp_path, capsys):
    gen = _gen(tmp_path, "gen", areas=20, nodes=20, seed=0)
    out = tmp_path / "huge"
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"),
                   "--method", "extensive", "--out", str(out)])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["error"] == "EnumerationCapError"
    assert not (out / "plan.json").exists()
    assert not (out / "manifest.json").exists()


def test_extensive_refuses_10x10_by_its_built_size(tmp_path, capsys):
    gen = _gen(tmp_path, "gen", areas=10, nodes=10, seed=0)
    capsys.readouterr()
    out = tmp_path / "ext"
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"),
                   "--method", "extensive", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "EnumerationCapError"
    assert not out.exists()


@pytest.mark.parametrize("error,code", [(SolverLimitError, 2), (BackendError, 4)])
def test_solver_errors_exit_with_their_codes(tmp_path, capsys, monkeypatch, error, code):
    gen = _small(tmp_path, "gen")

    def fail(*args, **kwargs):
        raise error("stopped")

    monkeypatch.setattr(evaluation, "plan_with_method", fail)
    out = tmp_path / "solve"
    rc = cli.main(["solve", "--instance", str(gen / "instance.json"), "--method", "det",
                   "--out", str(out)])
    assert rc == code
    assert _stderr_doc(capsys) == {"error": error.__name__, "message": "stopped",
                                   "command": "solve", "exit_code": code}
    assert not out.exists()


def test_evaluate_compares_plans(tmp_path):
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")
    plans = []
    for method in ("det", "heu"):
        out = tmp_path / method
        assert cli.main(["solve", "--instance", inst, "--method", method,
                         "--out", str(out)]) == 0
        plans.append(str(out / "plan.json"))
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--instance", inst, "--plan", plans[0],
                   "--plan", plans[1], "--scenarios", "20", "--out", str(out)])
    assert rc == 0
    comparison = (out / "comparison.csv").read_text().strip().splitlines()
    assert comparison[0] == "method,provisioning,avg,worst,certified_worst"
    assert len(comparison) == 3
    assert comparison[1].startswith("det,") and comparison[2].startswith("heu,")
    summary = json.loads((out / "summary.json").read_text())
    assert [s["method"] for s in summary] == ["det", "heu"]
    assert all(set(s) == {"method", "avg", "worst", "certified_worst", "provisioning"}
               for s in summary)
    per_scenario = (out / "eval_det.csv").read_text().strip().splitlines()
    assert per_scenario[0] == "scenario,total_cost,recourse_cost,unmet"
    assert len(per_scenario) == 21
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"eval_det.csv", "eval_heu.csv",
                                      "comparison.csv", "summary.json"}


def test_evaluate_deduplicates_plan_names(tmp_path):
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")
    solved = tmp_path / "det"
    assert cli.main(["solve", "--instance", inst, "--method", "det",
                     "--out", str(solved)]) == 0
    plan = str(solved / "plan.json")
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--instance", inst, "--plan", plan, "--plan", plan,
                   "--scenarios", "5", "--out", str(out)])
    assert rc == 0
    assert (out / "eval_det.csv").exists()
    assert (out / "eval_det_2.csv").exists()


def test_evaluate_requires_a_plan(tmp_path, capsys):
    gen = _small(tmp_path, "gen")
    rc = cli.main(["evaluate", "--instance", str(gen / "instance.json"),
                   "--out", str(tmp_path / "eval")])
    assert rc == 3
    assert "plan" in _stderr_doc(capsys)["message"]


def test_evaluate_rejects_plans_that_break_the_instance(tmp_path, capsys):
    gen = _gen(tmp_path, "gen", areas=4, nodes=4, budget=5)
    inst = str(gen / "instance.json")
    cap = load_instance(inst).capacity
    over_budget = FirstStagePlan(np.ones(4, dtype=np.int8), cap)
    uncoupled = FirstStagePlan(np.zeros(4, dtype=np.int8), np.array([3.0, 0.0, 0.0, 0.0]))
    for name, plan, reason in (("over_budget", over_budget, "exceeds budget"),
                               ("uncoupled", uncoupled, "exceeds placed capacity")):
        path = tmp_path / f"{name}.json"
        save_plan(plan, str(path), method=name, objective=0.0)
        out = tmp_path / f"eval_{name}"
        capsys.readouterr()
        rc = cli.main(["evaluate", "--instance", inst, "--plan", str(path),
                       "--scenarios", "5", "--out", str(out)])
        assert rc == 3
        doc = _stderr_doc(capsys)
        assert doc["error"] == "InstanceError" and reason in doc["message"]
        assert not (out / "manifest.json").exists()


def test_evaluate_scores_fractional_procurement(tmp_path):
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")
    plan = FirstStagePlan(np.array([1, 0], dtype=np.int8), np.array([2.5, 0.0]))
    path = tmp_path / "fractional.json"
    save_plan(plan, str(path), method="fractional", objective=0.0)
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--instance", inst, "--plan", str(path),
                   "--scenarios", "5", "--out", str(out)])
    assert rc == 0
    [summary] = json.loads((out / "summary.json").read_text())
    assert summary["provisioning"] == pytest.approx(
        provisioning_cost(load_instance(inst), plan), abs=1e-12)


def test_sweep_writes_rows(tmp_path):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--instance", str(gen / "instance.json"),
                   "--axis", "K", "--values", "0,1", "--methods", "det",
                   "--scenarios", "5", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("axis,value,method,")
    assert len(lines) == 3
    assert (out / "manifest.json").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    gen = _small(tmp_path, "gen", areas=4, nodes=4)
    inst = str(gen / "instance.json")

    def rows_of(axis, values, workers):
        out = tmp_path / f"{axis}-{workers}"
        rc = cli.main(["sweep", "--instance", inst, "--axis", axis,
                       "--values", values, "--methods", "det", "--scenarios", "4",
                       "--workers", str(workers),
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        stripped = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[8] = ""  # timing differs run to run
            stripped.append(",".join(cells))
        return stripped

    for axis, values in (("gamma", "0,1,2"), ("I", "2,3,4"), ("J", "2,3,4")):
        assert rows_of(axis, values, 1) == rows_of(axis, values, 3), axis


def test_sweep_exits_3_when_every_cell_fails(tmp_path, capsys):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--instance", str(gen / "instance.json"),
                   "--axis", "K", "--values", "99", "--methods", "det",
                   "--scenarios", "0", "--out", str(out)])
    assert rc == 3
    assert _stderr_doc(capsys)["error"] == "SweepFailed"
    assert (out / "sweep.csv").exists()  # rows with errors still land on disk


def test_sweep_exits_2_when_every_cell_stops_at_a_limit(tmp_path, capsys, monkeypatch):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "sweep"

    def limited(*args, **kwargs):
        raise SolverLimitError("stopped")

    monkeypatch.setattr(evaluation, "plan_with_method", limited)
    rc = cli.main(["sweep", "--instance", str(gen / "instance.json"),
                   "--axis", "K", "--values", "0,1", "--methods", "det,heu",
                   "--scenarios", "0", "--out", str(out)])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"] == "SweepFailed" and doc["exit_code"] == 2
    # the limit flag stays out of the file
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "error" and len(lines) == 5
    assert all(line.endswith(",stopped") for line in lines[1:])


@pytest.mark.parametrize("flags", [
    ["--workers", "0"], ["--workers", "-3"], ["--scenarios", "-5"],
    ["--values", ""], ["--values", "1,x"], ["--methods", "det,simplex"], ["--methods", ","],
    ["--methods", "so,det", "--training-scenarios", "-5"],
    ["--methods", "ccg-kkt,det", "--eps", "0"],
    # the solver options that `solve` refuses, checked by the same rule
    ["--time-limit", "-1"], ["--time-limit", "nan"], ["--gap", "-0.5"],
])
def test_sweep_bad_input_exits_3_and_writes_nothing(tmp_path, capsys, flags):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "sweep"
    argv = ["sweep", "--instance", str(gen / "instance.json"), "--axis", "K",
            "--values", "0,1", "--methods", "det", "--out", str(out)]
    assert cli.main(argv + flags) == 3
    assert _stderr_doc(capsys)["exit_code"] == 3
    assert not out.exists()


def test_sweep_nonconverged_cells_do_not_fail_the_run(tmp_path):
    gen = _gen(tmp_path, "gen", areas=6, nodes=6, seed=0)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--instance", str(gen / "instance.json"),
                   "--axis", "K", "--values", "2", "--methods", "ccg-duality",
                   "--eps", "1e-9", "--gap", "0.3", "--scenarios", "0", "--out", str(out)])
    assert rc == 0
    row = (out / "sweep.csv").read_text().strip().splitlines()[1].split(",")
    assert row[3] != "" and row[-1].startswith("stalled")


def test_audit_prints_table(tmp_path, capsys):
    assert cli.main(["audit"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("areas,nodes,reference_constraints")
    assert "2,2,173,128,58,101,115,27" in stdout
    out = tmp_path / "audit"
    assert cli.main(["audit", "--sizes", "1,2", "--out", str(out)]) == 0
    assert (out / "audit.csv").exists()
    doc = json.loads((out / "audit.json").read_text())
    assert doc[1]["built"] == {"constraints": 58, "variables": 101}
    assert doc[1]["reference"] == {"constraints": 173, "variables": 128}


@pytest.mark.parametrize("sizes", ["2.7", "1,2.5", "0", "inf"])
def test_audit_refuses_sizes_that_are_not_positive_whole_numbers(tmp_path, capsys, sizes):
    assert cli.main(["audit", "--sizes", sizes, "--out", str(tmp_path / "a")]) == 3
    assert "whole numbers" in _stderr_doc(capsys)["message"]
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("flags", [["--gap", "nan"], ["--time-limit", "-1"]])
def test_solve_refuses_bad_solver_options_for_a_planner_without_a_milp(tmp_path, capsys,
                                                                       flags):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "heu"
    assert cli.main(["solve", "--instance", str(gen / "instance.json"), "--method", "heu",
                     "--out", str(out)] + flags) == 3
    doc = _stderr_doc(capsys)
    assert doc["exit_code"] == 3 and "invalid solver option" in doc["message"]
    assert not out.exists()


def test_usage_errors_exit_3(tmp_path, capsys):
    assert cli.main(["solve"]) == 3
    assert _stderr_doc(capsys)["error"] == "UsageError"
    assert cli.main(["solve", "--instance", "x.json", "--method", "simplex",
                     "--out", str(tmp_path / "o")]) == 3
    assert _stderr_doc(capsys)["error"] == "UsageError"
    assert cli.main(["frobnicate"]) == 3


def test_missing_instance_file_exits_3(tmp_path, capsys):
    rc = cli.main(["solve", "--instance", str(tmp_path / "nope.json"),
                   "--method", "det", "--out", str(tmp_path / "o")])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["exit_code"] == 3


_MISSING = object()


@pytest.mark.parametrize("key, value", [
    (None, [1, 2]),  # a plan file holding a JSON array
    ("delays", _MISSING),
    ("areas", None),
    ("prices", {"a": 1}),
    ("beta", [1, 2]),
    ("gamma", float("inf")),
    ("capacities", "x"),
    ("delays", [[1.0, 2.0], [3.0]]),
    ("dmax", "far"),
], ids=["plan-array", "no-delays", "areas-null", "prices-object", "beta-list", "gamma-inf",
        "capacities-string", "delays-ragged", "dmax-string"])
def test_malformed_files_exit_3(tmp_path, capsys, key, value):
    inst = _small(tmp_path, "gen") / "instance.json"
    bad = tmp_path / "bad.json"
    if key is None:
        bad.write_text(json.dumps(value))
        argv = ["evaluate", "--instance", str(inst), "--plan", str(bad)]
    else:
        doc = json.loads(inst.read_text())
        if value is _MISSING:
            del doc[key]
        else:
            doc[key] = value
        bad.write_text(json.dumps(doc))
        argv = ["solve", "--instance", str(bad), "--method", "det"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    [line] = capsys.readouterr().err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "InstanceError" and doc["exit_code"] == 3
    assert str(bad) in doc["message"]
    if key is not None:
        assert key in doc["message"]
    assert not (tmp_path / "out").exists()


def test_evaluate_rejects_nonpositive_psi(tmp_path, capsys):
    gen = _small(tmp_path, "gen")
    plan = tmp_path / "plan.json"
    save_plan(FirstStagePlan(np.zeros(2, dtype=np.int8), np.zeros(2)), str(plan),
              method="empty", objective=0.0)
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--instance", str(gen / "instance.json"), "--plan", str(plan),
                   "--psi", "0", "--scenarios", "5", "--out", str(out)])
    assert rc == 3
    assert "psi" in _stderr_doc(capsys)["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("psi", ["nan", "inf"])
def test_non_finite_psi_is_refused_by_name(tmp_path, capsys, command, psi):
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")
    out = tmp_path / "out"
    if command == "evaluate":
        plan = tmp_path / "plan.json"
        save_plan(FirstStagePlan(np.zeros(2, dtype=np.int8), np.zeros(2)), str(plan),
                  method="empty", objective=0.0)
        argv = ["evaluate", "--instance", inst, "--plan", str(plan), "--psi", psi]
    else:
        argv = ["sweep", "--instance", inst, "--axis", "psi", "--values", psi,
                "--methods", "det"]
    capsys.readouterr()
    assert cli.main(argv + ["--scenarios", "5", "--out", str(out)]) == 3
    assert f"psi must be positive and finite, got {psi}" in _stderr_doc(capsys)["message"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
