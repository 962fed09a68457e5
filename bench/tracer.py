"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of the `edgeplan` modules with timing
wrappers for as long as it is installed, and restores them afterwards.  It
changes no argument and no return value: it only notes when a call started
and ended, which traced call enclosed it, and a few fields of what it
returned.  `layer_metrics` turns one list of spans into the per-layer
metrics named in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Model names that `milp.solve` sees (`Model.name`).  The stochastic
# extensive form serves two baselines, so its spans are split by the
# enclosing baseline span.
MODEL_KEYS = ("ccg-master", "subproblem-duality", "subproblem-kkt", "recourse", "adr",
              "stochastic-det", "stochastic-so")

# name -> unit, in the order reported.
PER_LAYER = {
    **{f"milp.solves.{k}": "count" for k in MODEL_KEYS},
    **{f"milp.solve_s.{k}": "s" for k in MODEL_KEYS},
    "milp.highs_mip_s": "s",
    "milp.highs_lp_s": "s",
    "milp.assembly_s": "s",
    "milp.mip_nodes": "count",
    "milp.cols_max": "count",
    "milp.rows_max": "count",
    "milp.failed": "count",
    "ccg.iterations": "count",
    "ccg.pool_size": "count",
    "ccg.master.calls": "count",
    "ccg.master.s": "s",
    "ccg.master.last_s": "s",
    "ccg.master.self_s": "s",
    "ccg.subproblem.calls": "count",
    "ccg.subproblem.solves": "count",
    "ccg.subproblem.s": "s",
    "ccg.subproblem.solves_per_call": "ratio",
    "evaluation.recourse.calls": "count",
    "evaluation.recourse.s": "s",
    "evaluation.recourse.self_s": "s",
    "evaluation.certify.calls": "count",
    "evaluation.certify.s": "s",
    "adr.build_s": "s",
    "adr.solve_s": "s",
    "adr.cols": "count",
    "adr.rows": "count",
    "baselines.deterministic.s": "s",
    "baselines.stochastic.s": "s",
    "baselines.heuristic.s": "s",
    "cli.self_s": "s",
    "topology.generate_s": "s",
    "process.cpu_s": "s",
    "process.solve_s": "s",
    "process.reference_s": "s",
    "trace.overhead_frac": "ratio",
}

# Combined across set-up and operations by max instead of by sum.
_MAX_KEYS = {"milp.cols_max", "milp.rows_max", "ccg.pool_size", "ccg.master.last_s",
             "adr.cols", "adr.rows"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def enclosing(self, *names: str) -> "Span | None":
        span = self.parent
        while span is not None and span.name not in names:
            span = span.parent
        return span


def _model_attrs(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    attrs = {"model": model.name, "cols": model.num_vars, "rows": model.num_constraints}
    attrs["status"] = getattr(result, "status", "raised")
    return attrs


def _mip_attrs(args, kwargs, result) -> dict:
    return {"nodes": int(getattr(result, "mip_node_count", 0) or 0)}


def _ccg_attrs(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"iterations": len(result.state.trace), "pool": len(result.state.pool)}


def _adr_build_attrs(args, kwargs, result) -> dict:
    if result is None:
        return {}
    model = result[0]
    return {"cols": model.num_vars, "rows": model.num_constraints}


def _no_attrs(args, kwargs, result) -> dict:
    return {}


def _targets(edgeplan) -> list[tuple[str, list[tuple[object, str]], object]]:
    """(span name, bindings, attribute reader) for every traced entry point.

    A function is wrapped at every binding a caller can reach it through:
    the module that defines it, modules that import it by name, and the
    oracle table `run_ccg` dispatches through.
    """
    adr, baselines, ccg, cli = edgeplan.adr, edgeplan.baselines, edgeplan.ccg, edgeplan.cli
    evaluation, milp, topology = edgeplan.evaluation, edgeplan.milp, edgeplan.topology
    oracles = getattr(ccg, "_ORACLES", {})
    return [
        ("milp.solve", [(milp, "solve")], _model_attrs),
        ("highs.mip", [(milp, "milp")], _mip_attrs),
        ("highs.lp", [(milp, "linprog")], _no_attrs),
        ("ccg.run", [(ccg, "run_ccg"), (evaluation, "run_ccg")], _ccg_attrs),
        ("ccg.master", [(ccg, "solve_master")], _no_attrs),
        ("ccg.subproblem", [(ccg, "solve_subproblem_duality"), (ccg, "solve_subproblem_kkt"),
                            (evaluation, "solve_subproblem_duality"),
                            (evaluation, "solve_subproblem_kkt"),
                            (oracles, "duality"), (oracles, "kkt")], _no_attrs),
        ("evaluation.recourse", [(evaluation, "solve_recourse")], _no_attrs),
        ("evaluation.certify", [(evaluation, "certify_worst_case")], _no_attrs),
        ("evaluation.sweep", [(evaluation, "sensitivity_sweep")], _no_attrs),
        ("adr.build", [(adr, "assemble_adr_milp")], _adr_build_attrs),
        ("adr.solve", [(adr, "solve_adr"), (evaluation, "solve_adr")], _no_attrs),
        ("baselines.deterministic", [(baselines, "solve_deterministic"),
                                     (evaluation, "solve_deterministic")], _no_attrs),
        ("baselines.stochastic", [(baselines, "solve_stochastic"),
                                  (evaluation, "solve_stochastic")], _no_attrs),
        ("baselines.heuristic", [(baselines, "heuristic_placement"),
                                 (evaluation, "heuristic_placement")], _no_attrs),
        ("cli.main", [(cli, "main")], _no_attrs),
        ("topology.generate", [(topology, "generate_instance")], _no_attrs),
    ]


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans while installed; `spans` lists them in end order."""

    def __init__(self, edgeplan):
        self._edgeplan = edgeplan
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    def _wrap(self, name: str, fn, read_attrs):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.attrs = read_attrs(args, kwargs, result)
                spans.append(span)

        return traced

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, bindings, read_attrs in _targets(self._edgeplan):
            wrappers: dict[int, object] = {}
            for owner, attr in bindings:
                fn = _get(owner, attr)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, read_attrs)
                self._saved.append((owner, attr, fn))
                _set(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            _set(owner, attr, fn)
        self._saved.clear()
        self._stack.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums, counts and maxima over one list of spans."""
    m: dict[str, float] = defaultdict(float)
    child_s: dict[tuple[int, str], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[(id(span.parent), span.name)] += span.seconds

    def self_s(span: Span, child: str) -> float:
        return span.seconds - child_s[(id(span), child)]

    last_master = None
    for span in spans:
        s, name, attrs = span.seconds, span.name, span.attrs
        if name == "milp.solve":
            key = attrs["model"]
            if key == "stochastic":
                baseline = span.enclosing("baselines.deterministic", "baselines.stochastic")
                key = "stochastic-det" if baseline and baseline.name.endswith("deterministic") \
                    else "stochastic-so"
            m[f"milp.solves.{key}"] += 1
            m[f"milp.solve_s.{key}"] += s
            m["milp.assembly_s"] += s - child_s[(id(span), "highs.mip")] \
                - child_s[(id(span), "highs.lp")]
            m["milp.cols_max"] = max(m["milp.cols_max"], attrs["cols"])
            m["milp.rows_max"] = max(m["milp.rows_max"], attrs["rows"])
            m["milp.failed"] += attrs["status"] != "optimal"
            if span.parent is not None and span.parent.name == "ccg.subproblem":
                m["ccg.subproblem.solves"] += 1
        elif name == "highs.mip":
            m["milp.highs_mip_s"] += s
            m["milp.mip_nodes"] += attrs["nodes"]
        elif name == "highs.lp":
            m["milp.highs_lp_s"] += s
        elif name == "ccg.run":
            m["ccg.iterations"] += attrs.get("iterations", 0)
            m["ccg.pool_size"] = max(m["ccg.pool_size"], attrs.get("pool", 0))
        elif name == "ccg.master":
            m["ccg.master.calls"] += 1
            m["ccg.master.s"] += s
            m["ccg.master.self_s"] += self_s(span, "milp.solve")
            last_master = span
        elif name == "ccg.subproblem":
            m["ccg.subproblem.calls"] += 1
            m["ccg.subproblem.s"] += s
        elif name == "evaluation.recourse":
            m["evaluation.recourse.calls"] += 1
            m["evaluation.recourse.s"] += s
            m["evaluation.recourse.self_s"] += self_s(span, "milp.solve")
        elif name == "evaluation.certify":
            m["evaluation.certify.calls"] += 1
            m["evaluation.certify.s"] += s
        elif name == "adr.build":
            m["adr.build_s"] += s
            m["adr.cols"] = max(m["adr.cols"], attrs.get("cols", 0))
            m["adr.rows"] = max(m["adr.rows"], attrs.get("rows", 0))
        elif name == "adr.solve":
            m["adr.solve_s"] += s
        elif name.startswith("baselines."):
            m[f"{name}.s"] += s
        elif name == "cli.main":
            m["cli.self_s"] += self_s(span, "evaluation.sweep")
        elif name == "topology.generate":
            m["topology.generate_s"] += s
    if last_master is not None:
        m["ccg.master.last_s"] = last_master.seconds
    return dict(m)


def combine(setup: dict[str, float], ops: list[dict[str, float]]) -> dict[str, float]:
    """Set-up metrics plus the mean operation, over every `PER_LAYER` name.

    Counts repeat exactly from one operation to the next, so their mean is
    the exact count of one operation.
    """
    out = {}
    for key in PER_LAYER:
        per_op = sum(op.get(key, 0.0) for op in ops) / len(ops) if ops else 0.0
        once = setup.get(key, 0.0)
        out[key] = max(once, per_op) if key in _MAX_KEYS else once + per_op
    calls = out["ccg.subproblem.calls"]
    out["ccg.subproblem.solves_per_call"] = out["ccg.subproblem.solves"] / calls if calls else 0.0
    return out
