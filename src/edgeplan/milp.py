"""Minimal LP/MILP construction layer over interchangeable solver backends.

Every optimization module in the package builds its model through this
layer, so swapping the solver means adding one adapter function here.
The default backend is HiGHS through scipy.  Models are solved from
scratch each time (no incremental API), which keeps the contract small
and the backends honest.

Dual values reported for LPs are shadow prices: the derivative of the
objective (in the model's own min/max sense) with respect to each
constraint's right-hand side as written.  For a minimization problem
that makes duals of ``>=`` rows nonnegative and duals of ``<=`` rows
nonpositive.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "=="

DEFAULT_MIP_GAP = 1e-6

BACKEND_ENV = "EDGEPLAN_BACKEND"
DEFAULT_BACKEND = "scipy-highs"


class BackendError(RuntimeError):
    """The solver backend failed or returned an unrecognized status."""


class InfeasibleModelError(RuntimeError):
    """A model that should have been feasible was proven infeasible."""


class UnboundedModelError(RuntimeError):
    """A model that should have been bounded was proven unbounded."""


class SolverLimitError(RuntimeError):
    """A solve stopped at its time or iteration limit without proving optimality."""


@dataclass
class _Row:
    ids: np.ndarray
    coeffs: np.ndarray
    sense: str
    rhs: float
    name: str


class Model:
    """A linear or mixed-integer linear model under construction.

    Variables are identified by dense integer ids in creation order;
    constraints likewise.  Bounds live on the variables, everything else
    is a linear row.
    """

    def __init__(self, name: str = "model", *, maximize: bool = False):
        self.name = name
        self.maximize = maximize
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._kind: list[str] = []
        self._vnames: list[str] = []
        self.rows: list[_Row] = []
        self._obj: dict[int, float] = {}
        self.objective_constant = 0.0

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    @property
    def is_mip(self) -> bool:
        return any(k != CONTINUOUS for k in self._kind)

    def add_var(self, name: str | None = None, *, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = np.inf) -> int:
        if kind not in (CONTINUOUS, INTEGER, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lb, ub = max(0.0, lb), min(1.0, ub)
        if not lb <= ub:
            raise ValueError(f"variable bounds crossed: [{lb}, {ub}]")
        vid = len(self._lb)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._kind.append(kind)
        self._vnames.append(name if name is not None else f"v{vid}")
        return vid

    def add_vars(self, shape, name: str | None = None, *, kind: str = CONTINUOUS,
                 lb=0.0, ub=np.inf) -> np.ndarray:
        """Add a block of variables; returns an integer id array of `shape`.

        `lb`/`ub` broadcast against `shape`, so per-variable bounds can be
        passed as arrays (e.g. capacity upper bounds for an allocation block).
        """
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        lb_arr = np.broadcast_to(np.asarray(lb, dtype=float), shape)
        ub_arr = np.broadcast_to(np.asarray(ub, dtype=float), shape)
        ids = np.empty(shape, dtype=np.int64)
        flat_lb, flat_ub = lb_arr.ravel(), ub_arr.ravel()
        flat_ids = ids.reshape(-1)
        prefix = name if name is not None else "v"
        for k in range(flat_ids.size):
            flat_ids[k] = self.add_var(f"{prefix}_{k}", kind=kind, lb=flat_lb[k], ub=flat_ub[k])
        return ids

    def add_constr(self, ids, coeffs, sense: str, rhs: float, name: str | None = None) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        ids = np.asarray(ids, dtype=np.int64).ravel()
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        if ids.shape != coeffs.shape:
            raise ValueError("ids and coeffs length mismatch")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vars):
            raise ValueError("constraint references undeclared variable")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite constraint coefficient")
        if not np.isfinite(rhs):
            raise ValueError("non-finite right-hand side")
        rid = len(self.rows)
        self.rows.append(_Row(ids, coeffs, sense, float(rhs), name if name is not None else f"c{rid}"))
        return rid

    def set_objective(self, ids, coeffs, *, constant: float = 0.0) -> None:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        if ids.shape != coeffs.shape:
            raise ValueError("ids and coeffs length mismatch")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vars):
            raise ValueError("objective references undeclared variable")
        obj: dict[int, float] = {}
        for vid, co in zip(ids.tolist(), coeffs.tolist()):
            obj[vid] = obj.get(vid, 0.0) + co
        self._obj = obj
        self.objective_constant = float(constant)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.num_vars)
        for vid, co in self._obj.items():
            c[vid] = co
        return c

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb, dtype=float), np.array(self._ub, dtype=float)

    def kinds(self) -> list[str]:
        return list(self._kind)

    def var_name(self, vid: int) -> str:
        return self._vnames[vid]

    def to_lp_string(self) -> str:
        """Render the model in the industry LP text format (for debugging)."""
        def clean(s: str) -> str:
            return re.sub(r"[^A-Za-z0-9_.]", "_", s)

        def term_str(co: float, vname: str, first: bool) -> str:
            sign = "-" if co < 0 else ("" if first else "+")
            return f"{sign} {abs(co):.17g} {vname} "

        out = [f"\\ {self.name}", "Maximize" if self.maximize else "Minimize"]
        c = self.objective_vector()
        parts, first = [" obj: "], True
        for vid in range(self.num_vars):
            if c[vid] != 0.0:
                parts.append(term_str(c[vid], clean(self._vnames[vid]), first))
                first = False
        if first:
            parts.append("0 " + (clean(self._vnames[0]) if self.num_vars else "x0"))
        out.append("".join(parts))
        out.append("Subject To")
        for row in self.rows:
            parts, first = [f" {clean(row.name)}: "], True
            for vid, co in zip(row.ids.tolist(), row.coeffs.tolist()):
                if co != 0.0:
                    parts.append(term_str(co, clean(self._vnames[vid]), first))
                    first = False
            if first:
                parts.append("0 " + (clean(self._vnames[0]) if self.num_vars else "x0"))
            sense = {LE: "<=", GE: ">=", EQ: "="}[row.sense]
            parts.append(f"{sense} {row.rhs:.17g}")
            out.append("".join(parts))
        out.append("Bounds")
        for vid in range(self.num_vars):
            lb, ub, nm = self._lb[vid], self._ub[vid], clean(self._vnames[vid])
            if lb == -np.inf and ub == np.inf:
                out.append(f" {nm} free")
            elif ub == np.inf:
                out.append(f" {lb:.17g} <= {nm}")
            elif lb == -np.inf:
                out.append(f" -inf <= {nm} <= {ub:.17g}")
            else:
                out.append(f" {lb:.17g} <= {nm} <= {ub:.17g}")
        generals = [clean(self._vnames[v]) for v in range(self.num_vars) if self._kind[v] == INTEGER]
        binaries = [clean(self._vnames[v]) for v in range(self.num_vars) if self._kind[v] == BINARY]
        if generals:
            out.append("General")
            out.extend(f" {g}" for g in generals)
        if binaries:
            out.append("Binary")
            out.extend(f" {b}" for b in binaries)
        out.append("End")
        return "\n".join(out) + "\n"


def write_lp(model: Model, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model.to_lp_string())


@dataclass
class SolveResult:
    """Outcome of one solve.

    `objective` and `dual_bound` are in the model's own sense; for a MIP
    stopped early, `dual_bound` is the proven bound and `gap` the relative
    distance between the two.  `constraint_duals[rid]` holds the shadow
    price of row `rid` for LPs solved to optimality, None otherwise.
    """

    status: str
    objective: float
    values: np.ndarray | None
    dual_bound: float
    gap: float
    wall_seconds: float
    constraint_duals: np.ndarray | None = None
    duality_residual: float = np.nan
    message: str = ""

    def value(self, ids) -> np.ndarray | float:
        """Primal values for an id array (shape preserved) or a single id."""
        if self.values is None:
            raise ValueError(f"no primal solution available (status={self.status})")
        if np.isscalar(ids):
            return float(self.values[ids])
        ids = np.asarray(ids, dtype=np.int64)
        return self.values[ids.ravel()].reshape(ids.shape)


def _status_from_scipy(code: int, message: str) -> str:
    if code == 0:
        return "optimal"
    if code == 1:
        return "limit"
    if code == 2:
        return "infeasible"
    if code == 3:
        return "unbounded"
    low = (message or "").lower()
    if "unbounded" in low:
        return "unbounded"
    if "infeasible" in low:
        return "infeasible"
    return "error"


def _solve_scipy(model: Model, mip_gap: float, time_limit: float | None) -> SolveResult:
    start = time.perf_counter()
    n = model.num_vars
    sign = -1.0 if model.maximize else 1.0
    c = sign * model.objective_vector()
    lb, ub = model.bounds_arrays()

    if model.is_mip:
        lo = np.empty(model.num_constraints)
        hi = np.empty(model.num_constraints)
        rows_idx: list[np.ndarray] = []
        cols_idx: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for rid, row in enumerate(model.rows):
            if row.sense == LE:
                lo[rid], hi[rid] = -np.inf, row.rhs
            elif row.sense == GE:
                lo[rid], hi[rid] = row.rhs, np.inf
            else:
                lo[rid], hi[rid] = row.rhs, row.rhs
            rows_idx.append(np.full(row.ids.size, rid, dtype=np.int64))
            cols_idx.append(row.ids)
            data.append(row.coeffs)
        if model.num_constraints:
            a = sparse.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
                shape=(model.num_constraints, n),
            ).tocsr()
            constraints = LinearConstraint(a, lo, hi)
        else:
            constraints = ()
        integrality = np.array([0 if k == CONTINUOUS else 1 for k in model.kinds()], dtype=np.int64)
        options: dict = {"mip_rel_gap": mip_gap}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        try:
            res = milp(c, constraints=constraints, integrality=integrality,
                       bounds=Bounds(lb, ub), options=options)
        except Exception as exc:  # pragma: no cover - defensive
            raise BackendError(f"scipy.milp failed: {exc}") from exc
        wall = time.perf_counter() - start
        status = _status_from_scipy(res.status, res.message)
        values = np.asarray(res.x, dtype=float) if res.x is not None else None
        if status in ("optimal", "limit") and values is not None:
            objective = sign * float(res.fun) + model.objective_constant
            raw_bound = getattr(res, "mip_dual_bound", None)
            dual_bound = (sign * float(raw_bound) + model.objective_constant
                          if raw_bound is not None and np.isfinite(raw_bound) else objective)
            gap = abs(objective - dual_bound) / max(1e-12, abs(objective))
        else:
            objective, dual_bound, gap, values = np.nan, np.nan, np.nan, None
        return SolveResult(status, objective, values, dual_bound, gap, wall, message=str(res.message))

    # Pure LP through linprog: split rows into <= and == systems and keep the
    # mapping so marginals land back on the original row ids with shadow-price
    # signs (d objective / d rhs in the model's sense).
    ub_ids = [rid for rid, row in enumerate(model.rows) if row.sense != EQ]
    eq_ids = [rid for rid, row in enumerate(model.rows) if row.sense == EQ]
    a_ub_r, a_ub_c, a_ub_d, b_ub = [], [], [], []
    a_eq_r, a_eq_c, a_eq_d, b_eq = [], [], [], []
    for k, rid in enumerate(eq_ids):
        row = model.rows[rid]
        a_eq_r.append(np.full(row.ids.size, k, dtype=np.int64))
        a_eq_c.append(row.ids)
        a_eq_d.append(row.coeffs)
        b_eq.append(row.rhs)
    for k, rid in enumerate(ub_ids):
        row = model.rows[rid]
        flip = 1.0 if row.sense == LE else -1.0
        a_ub_r.append(np.full(row.ids.size, k, dtype=np.int64))
        a_ub_c.append(row.ids)
        a_ub_d.append(flip * row.coeffs)
        b_ub.append(flip * row.rhs)

    def assemble(rs, cs, ds, nrows):
        if not nrows:
            return None
        return sparse.coo_matrix(
            (np.concatenate(ds) if ds else np.empty(0),
             (np.concatenate(rs) if rs else np.empty(0, dtype=np.int64),
              np.concatenate(cs) if cs else np.empty(0, dtype=np.int64))),
            shape=(nrows, n),
        ).tocsr()

    a_ub = assemble(a_ub_r, a_ub_c, a_ub_d, len(ub_ids))
    a_eq = assemble(a_eq_r, a_eq_c, a_eq_d, len(eq_ids))
    options: dict = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    try:
        res = linprog(c, A_ub=a_ub, b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=a_eq, b_eq=np.array(b_eq) if b_eq else None,
                      bounds=np.column_stack([lb, ub]), method="highs", options=options)
    except Exception as exc:  # pragma: no cover - defensive
        raise BackendError(f"scipy.linprog failed: {exc}") from exc
    wall = time.perf_counter() - start
    status = _status_from_scipy(res.status, res.message)
    if status != "optimal":
        return SolveResult(status, np.nan, None, np.nan, np.nan, wall, message=str(res.message))
    values = np.asarray(res.x, dtype=float)
    objective = sign * float(res.fun) + model.objective_constant

    duals = np.zeros(model.num_constraints)
    residual = float(res.fun)
    if a_ub is not None:
        marg = np.asarray(res.ineqlin.marginals, dtype=float)
        residual -= float(marg @ np.array(b_ub))
        for k, rid in enumerate(ub_ids):
            flip = 1.0 if model.rows[rid].sense == LE else -1.0
            duals[rid] = sign * flip * marg[k]
    if a_eq is not None:
        marg = np.asarray(res.eqlin.marginals, dtype=float)
        residual -= float(marg @ np.array(b_eq))
        for k, rid in enumerate(eq_ids):
            duals[rid] = sign * marg[k]
    low_m = np.asarray(res.lower.marginals, dtype=float)
    up_m = np.asarray(res.upper.marginals, dtype=float)
    finite_lb = np.isfinite(lb)
    finite_ub = np.isfinite(ub)
    residual -= float(low_m[finite_lb] @ lb[finite_lb]) + float(up_m[finite_ub] @ ub[finite_ub])
    return SolveResult(status, objective, values, objective, 0.0, wall,
                       constraint_duals=duals, duality_residual=abs(residual),
                       message=str(res.message))


_BACKENDS = {"scipy-highs": _solve_scipy}


def selected_backend() -> str:
    name = os.environ.get(BACKEND_ENV, DEFAULT_BACKEND)
    if name not in _BACKENDS:
        raise BackendError(
            f"unknown backend {name!r} (from {BACKEND_ENV}); known: {sorted(_BACKENDS)}")
    return name


def solve(model: Model, *, mip_gap: float | None = None, time_limit: float | None = None,
          backend: str | None = None) -> SolveResult:
    """Solve the model; never raises for infeasible/unbounded, see `SolveResult.status`.

    `mip_gap` is the relative optimality gap demanded from MIP solves
    (default 1e-6); `time_limit` is in seconds.
    """
    name = backend if backend is not None else selected_backend()
    if name not in _BACKENDS:
        raise BackendError(f"unknown backend {name!r}; known: {sorted(_BACKENDS)}")
    gap = DEFAULT_MIP_GAP if mip_gap is None else float(mip_gap)
    result = _BACKENDS[name](model, gap, time_limit)
    if result.status == "error":
        raise BackendError(f"backend {name} returned no usable status: {result.message}")
    return result


def extract_duals(model: Model, result: SolveResult) -> dict[int, float]:
    """Shadow prices per constraint id for an LP solved to optimality.

    Verifies strong duality (primal objective equals the dual objective
    assembled from row and bound marginals) to 1e-6 relative before
    returning, so a silent sign error in the backend cannot leak through.
    """
    if model.is_mip:
        raise ValueError("duals are defined for pure LPs only")
    if result.status != "optimal":
        raise ValueError(f"duals require an optimal solve, got {result.status}")
    if result.constraint_duals is None:
        raise ValueError("solve result carries no dual information")
    scale = max(1.0, abs(result.objective))
    if not result.duality_residual <= 1e-6 * scale:
        raise BackendError(
            f"strong duality violated: residual {result.duality_residual:.3e} on {model.name}")
    return {rid: float(result.constraint_duals[rid]) for rid in range(model.num_constraints)}


def ensure_optimal(result: SolveResult, what: str = "model") -> SolveResult:
    """Map non-optimal statuses onto the package's exception types."""
    if result.status == "optimal":
        return result
    if result.status == "infeasible":
        raise InfeasibleModelError(f"{what} is infeasible")
    if result.status == "unbounded":
        raise UnboundedModelError(f"{what} is unbounded")
    if result.status == "limit":
        raise SolverLimitError(f"{what} hit the solver limit before optimality")
    raise BackendError(f"{what} returned status {result.status}")
