"""End-to-end command-line runs (in-process, via cli.main)."""

import hashlib
import json

import numpy as np
import pytest

from edgeplan import cli
from edgeplan.ccg import run_ccg
from edgeplan.core import FirstStagePlan, load_instance, save_instance, save_plan
from helpers import random_instance


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
    assert trace[0] == "iteration,LB,UB,gap,master_seconds,subproblem_seconds"
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
    gen = _small(tmp_path, "gen")
    inst = str(gen / "instance.json")

    def rows_of(out, workers):
        rc = cli.main(["sweep", "--instance", inst, "--axis", "gamma",
                       "--values", "0,1,2", "--methods", "det", "--scenarios", "4",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        stripped = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[8] = ""  # timing differs run to run
            stripped.append(",".join(cells))
        return stripped

    assert rows_of(tmp_path / "serial", 1) == rows_of(tmp_path / "par", 3)


def test_sweep_exits_3_when_every_cell_fails(tmp_path, capsys):
    gen = _small(tmp_path, "gen")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--instance", str(gen / "instance.json"),
                   "--axis", "K", "--values", "99", "--methods", "det",
                   "--scenarios", "0", "--out", str(out)])
    assert rc == 3
    assert _stderr_doc(capsys)["error"] == "SweepFailed"
    assert (out / "sweep.csv").exists()  # rows with errors still land on disk


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
    assert "2,2,173,128,88,137,85,-9" in stdout
    out = tmp_path / "audit"
    assert cli.main(["audit", "--sizes", "1,2", "--out", str(out)]) == 0
    assert (out / "audit.csv").exists()
    doc = json.loads((out / "audit.json").read_text())
    assert doc[1]["built"] == {"constraints": 88, "variables": 137}
    assert doc[1]["reference"] == {"constraints": 173, "variables": 128}


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


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
