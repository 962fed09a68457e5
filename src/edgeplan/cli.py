"""Command-line front end for reproducible experiment runs.

Each command writes into one output directory and finishes with a
manifest.json recording the resolved configuration, library versions, and
a sha256 per written file.  Exit codes: 0 success, 2 nonconvergence or a
solver limit, 3 invalid input, 4 backend failure; a solve that stops
early with a plan writes it first.  Failures print a one-object error
JSON to stderr; files are written atomically, so a failed run never
leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import scipy

from . import __version__, adr, ccg, core, evaluation, topology
from .milp import (
    BackendError,
    InfeasibleModelError,
    SolverLimitError,
    UnboundedModelError,
)

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_BAD_INPUT = 3
EXIT_BACKEND = 4


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_BAD_INPUT, kind: str | None = None):
        super().__init__(message)
        self.exit_code = exit_code
        self.kind = kind or type(self).__name__


class _Parser(argparse.ArgumentParser):
    # usage mistakes must exit 3, not argparse's default 2 (reserved for
    # nonconvergence)
    def error(self, message):
        raise CliError(message, EXIT_BAD_INPUT, kind="UsageError")


def _emit_error(command: str, kind: str, message: str, exit_code: int) -> int:
    doc = {"error": kind, "message": message, "command": command, "exit_code": exit_code}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return exit_code


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _git_describe() -> str | None:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _write_manifest(outdir: str, command: str, args: argparse.Namespace,
                    filenames: list[str]) -> None:
    doc = {
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "versions": {
            "edgeplan": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "git": _git_describe(),
        "files": {name: _sha256(os.path.join(outdir, name)) for name in sorted(filenames)},
    }
    core.atomic_write_text(os.path.join(outdir, "manifest.json"), core.canonical_json(doc))


def _finish(outdir: str, command: str, args: argparse.Namespace, written: list[str]) -> None:
    _write_manifest(outdir, command, args, written)
    for name in written + ["manifest.json"]:
        print(f"wrote {os.path.join(outdir, name)}")


def _parse_values(raw: str) -> list[float]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise CliError("--values is empty")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"--values must be numbers: {exc}") from exc


def _parse_methods(raw: str) -> tuple[str, ...]:
    methods = tuple(p for chunk in raw.split(",") for p in chunk.split())
    if not methods:
        raise CliError("--methods is empty")
    return methods


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    instance = topology.generate_instance(
        args.areas, args.nodes, seed=args.seed, gamma=args.gamma,
        failure_budget=args.k, deviation_ratio=args.alpha, beta=args.beta,
        budget=args.budget, unmet_penalty=args.penalty, dmax=args.dmax,
        graph_nodes=args.graph_nodes, attachment=args.attachment)
    core.save_instance(instance, os.path.join(args.out, "instance.json"))
    _finish(args.out, "generate", args, ["instance.json"])
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = core.load_instance(args.instance)
    res = evaluation.plan_with_method(
        instance, args.method, eps=args.eps, max_iterations=args.max_iterations,
        mip_gap=args.gap, time_limit=args.time_limit, num_training=args.scenarios,
        seed=args.seed)
    written = ["plan.json"]
    core.save_plan(res.plan, os.path.join(args.out, "plan.json"),
                   method=args.method, objective=res.objective, **res.extras)
    if res.trace is not None:
        core.atomic_write_text(os.path.join(args.out, "trace.csv"), res.trace)
        written.append("trace.csv")
    _finish(args.out, "solve", args, written)
    if not res.converged:
        raise CliError(res.extras["message"], EXIT_NONCONVERGED, kind="NonconvergenceError")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    instance = core.load_instance(args.instance)
    if not args.plan:
        raise CliError("evaluate needs at least one --plan")
    loaded = []
    names: list[str] = []
    for path in args.plan:
        plan, meta = core.load_plan(path)
        plan.validate(instance)
        base = str(meta.get("method") or os.path.splitext(os.path.basename(path))[0])
        name, k = base, 2
        while name in names:
            name, k = f"{base}_{k}", k + 1
        names.append(name)
        loaded.append((name, plan))
    config = evaluation.EvaluationConfig(
        num_scenarios=args.scenarios, distribution=args.distribution,
        k_test=args.k_test, seed=args.seed)
    scenarios = evaluation.generate_test_scenarios(instance, config)
    scoring = instance.scaled_penalty(args.psi)

    written = []
    summaries = []
    for name, plan in loaded:
        report = evaluation.monte_carlo(scoring, plan, scenarios, method=name)
        fname = f"eval_{name}.csv"
        core.atomic_write_text(os.path.join(args.out, fname),
                               evaluation.report_to_csv(report))
        written.append(fname)
        summaries.append(evaluation.report_summary(report))

    cols = ["method", "provisioning", "avg", "worst", "certified_worst"]
    core.atomic_write_text(os.path.join(args.out, "comparison.csv"),
                           core.csv_text(cols, ([s[c] for c in cols] for s in summaries)))
    core.atomic_write_text(os.path.join(args.out, "summary.json"),
                           core.canonical_json(summaries))
    written += ["comparison.csv", "summary.json"]
    _finish(args.out, "evaluate", args, written)
    return EXIT_OK


def cmd_sweep(args) -> int:
    instance = core.load_instance(args.instance)
    values = _parse_values(args.values)
    methods = _parse_methods(args.methods)
    rows = evaluation.sensitivity_sweep(
        instance, args.axis, values, methods=methods, eps=args.eps, mip_gap=args.gap,
        time_limit=args.time_limit, num_test_scenarios=args.scenarios,
        num_training_scenarios=args.training_scenarios, seed=args.seed,
        psi_mode=args.psi_mode, workers=args.workers)
    core.atomic_write_text(os.path.join(args.out, "sweep.csv"),
                           evaluation.sweep_to_csv(rows))
    _finish(args.out, "sweep", args, ["sweep.csv"])
    # a nonconverged cell still has a plan and numbers, so it does not count
    if rows and all(r["error"] and math.isnan(r["objective"]) for r in rows):
        # cells that all stopped at a solver limit are a limit, not bad input
        code = EXIT_NONCONVERGED if all(r["limit"] for r in rows) else EXIT_BAD_INPUT
        raise CliError(f"every sweep cell failed; first error: {rows[0]['error']}",
                       code, kind="SweepFailed")
    return EXIT_OK


def cmd_audit(args) -> int:
    values = _parse_values(args.sizes)
    if not all(v.is_integer() and v >= 1 for v in values):
        raise CliError(f"--sizes must be positive whole numbers, got {args.sizes!r}")
    sizes = [int(v) for v in values]
    audits = [adr.audit_model_size(n, n) for n in sizes]
    table = core.csv_text(
        ["areas", "nodes", "reference_constraints", "reference_variables", "built_constraints",
         "built_variables", "constraint_delta", "variable_delta"],
        ([a.num_areas, a.num_nodes, a.reference_constraints, a.reference_variables,
          a.built_constraints, a.built_variables, a.constraint_delta, a.variable_delta]
         for a in audits))
    docs = [{
        "areas": a.num_areas, "nodes": a.num_nodes,
        "reference": {"constraints": a.reference_constraints, "variables": a.reference_variables},
        "built": {"constraints": a.built_constraints, "variables": a.built_variables},
        "delta": {"constraints": a.constraint_delta, "variables": a.variable_delta},
    } for a in audits]
    print(table, end="")
    if args.out:
        core.atomic_write_text(os.path.join(args.out, "audit.csv"), table)
        core.atomic_write_text(os.path.join(args.out, "audit.json"),
                               core.canonical_json(docs))
        _finish(args.out, "audit", args, ["audit.csv", "audit.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeplan",
                     description="Plan edge service placement under demand and "
                                 "failure uncertainty, then evaluate the plans.")
    parser.add_argument("--version", action="version", version=f"edgeplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance JSON")
    g.add_argument("--areas", "-I", type=int, default=20)
    g.add_argument("--nodes", "-J", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--gamma", type=int, default=5, help="demand deviation budget")
    g.add_argument("--k", type=int, default=2, help="failure budget")
    g.add_argument("--alpha", type=float, default=0.6, help="deviation fraction of nominal")
    g.add_argument("--beta", type=float, default=0.1)
    g.add_argument("--budget", type=float, default=20.0)
    g.add_argument("--penalty", type=float, default=0.5, help="unmet demand penalty")
    g.add_argument("--dmax", type=float, default=math.inf, help="eligibility delay cutoff")
    g.add_argument("--graph-nodes", type=int, default=100)
    g.add_argument("--attachment", type=int, default=2)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance with one method")
    s.add_argument("--instance", required=True)
    s.add_argument("--method", required=True, choices=evaluation.METHODS)
    s.add_argument("--eps", type=float, default=1e-6, help="relative gap target")
    s.add_argument("--gap", type=float, default=None,
                   help="solver MIP gap; for CCG, the oracle's gap and the floor of the "
                        "master gap, which starts at 1e-2 (default min(1e-6, eps/10))")
    s.add_argument("--time-limit", type=float, default=None, help="per-solve seconds")
    s.add_argument("--max-iterations", type=int, default=ccg.DEFAULT_MAX_ITERATIONS)
    s.add_argument("--seed", type=int, default=0, help="training draw seed (so)")
    s.add_argument("--scenarios", type=int, default=100, help="training scenarios (so)")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="score plan files on common test scenarios")
    e.add_argument("--instance", required=True)
    e.add_argument("--plan", action="append", default=[],
                   help="plan JSON path; repeatable")
    e.add_argument("--scenarios", type=int, default=1000)
    e.add_argument("--distribution", choices=evaluation.DISTRIBUTIONS, default="lognormal")
    e.add_argument("--k-test", type=int, default=None,
                   help="failure budget for test draws (default: instance K)")
    e.add_argument("--psi", type=float, default=1.0, help="evaluation penalty scale")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_evaluate)

    w = sub.add_parser("sweep", help="re-plan and re-score along one parameter axis")
    w.add_argument("--instance", required=True)
    w.add_argument("--axis", required=True)
    w.add_argument("--values", required=True, help="comma-separated numbers")
    w.add_argument("--methods", default="ccg-duality", help="comma-separated methods")
    w.add_argument("--eps", type=float, default=1e-4)
    w.add_argument("--gap", type=float, default=None)
    w.add_argument("--time-limit", type=float, default=None)
    w.add_argument("--scenarios", type=int, default=200, help="test scenarios per cell")
    w.add_argument("--training-scenarios", type=int, default=100)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--psi-mode", choices=("both", "evaluation"), default="both")
    w.add_argument("--workers", type=int, default=1)
    w.add_argument("--out", required=True, help="output directory")
    w.set_defaults(func=cmd_sweep)

    a = sub.add_parser("audit", help="compare built model sizes to the closed forms")
    a.add_argument("--sizes", default="1,2,3,5", help="comma-separated square sizes")
    a.add_argument("--out", default=None, help="optional output directory")
    a.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    command = "?"
    try:
        args = parser.parse_args(argv)
        command = args.command
        return args.func(args)
    except CliError as exc:
        return _emit_error(command, exc.kind, str(exc), exc.exit_code)
    except SolverLimitError as exc:
        return _emit_error(command, type(exc).__name__, str(exc), EXIT_NONCONVERGED)
    except BackendError as exc:
        return _emit_error(command, type(exc).__name__, str(exc), EXIT_BACKEND)
    except (core.InstanceError, core.ScenarioError, core.EnumerationCapError,
            topology.TopologyError, InfeasibleModelError, UnboundedModelError,
            ValueError, OSError) as exc:
        return _emit_error(command, type(exc).__name__, str(exc), EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
