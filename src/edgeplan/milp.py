"""Minimal LP/MILP construction layer over HiGHS.

Every optimization module in the package builds its model through this
layer.  Variables are dense integer ids in creation order, with bounds and
integrality stored per `add_vars` block; rows are `lo <= a.x <= hi`, added
one at a time or as a block of equal-length rows (a 2-D id array).  Each
solve assembles one sparse matrix and makes one `scipy.optimize.milp` call,
for LPs and MILPs alike.  Models are solved from scratch each time (no
incremental API), and results carry primal values and bounds only: no dual
values are reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
GE = ">="

DEFAULT_MIP_GAP = 1e-6


class BackendError(RuntimeError):
    """The solver backend failed or returned an unrecognized status."""


class InfeasibleModelError(RuntimeError):
    """A model that should have been feasible was proven infeasible."""


class UnboundedModelError(RuntimeError):
    """A model that should have been bounded was proven unbounded."""


class SolverLimitError(RuntimeError):
    """A solve stopped at its time or iteration limit without proving optimality."""


def _checked_terms(ids, coeffs, num_vars: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(ids, dtype=np.int64).ravel()
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if ids.shape != coeffs.shape:
        raise ValueError("ids and coeffs length mismatch")
    if ids.size and (ids.min() < 0 or ids.max() >= num_vars):
        raise ValueError(f"{what} references undeclared variable")
    return ids, coeffs


class Model:
    """A linear or mixed-integer linear model under construction.

    Variables are identified by dense integer ids in creation order;
    constraints likewise.  Bounds live on the variables, everything else
    is a linear row.
    """

    def __init__(self, name: str = "model", *, maximize: bool = False):
        self.name = name
        self.maximize = maximize
        self.num_vars = 0
        self._lb: list[np.ndarray] = []
        self._ub: list[np.ndarray] = []
        self._integer: list[np.ndarray] = []
        self._row_ids: list[np.ndarray] = []
        self._row_coeffs: list[np.ndarray] = []
        self._row_shapes: list[tuple[int, int]] = []  # (rows, length) per add_constr
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []
        self._obj = (np.empty(0, dtype=np.int64), np.empty(0))

    @property
    def num_constraints(self) -> int:
        return len(self._row_lo)

    def add_var(self, *, kind: str = CONTINUOUS, lb: float = 0.0, ub: float = np.inf) -> int:
        return int(self.add_vars(1, kind=kind, lb=lb, ub=ub)[0])

    def add_vars(self, shape, *, kind: str = CONTINUOUS, lb=0.0, ub=np.inf) -> np.ndarray:
        """Add a block of variables; returns an integer id array of `shape`.

        `lb`/`ub` broadcast against `shape`, so per-variable bounds can be
        passed as arrays (e.g. capacity upper bounds for an allocation block).
        """
        if kind not in (CONTINUOUS, INTEGER, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        lb_arr = np.array(np.broadcast_to(lb, shape), dtype=float).ravel()
        ub_arr = np.array(np.broadcast_to(ub, shape), dtype=float).ravel()
        if kind == BINARY:
            lb_arr, ub_arr = np.maximum(lb_arr, 0.0), np.minimum(ub_arr, 1.0)
        crossed = ~(lb_arr <= ub_arr)
        if crossed.any():
            lo, hi = lb_arr[crossed][0], ub_arr[crossed][0]
            raise ValueError(f"variable bounds crossed: [{lo}, {hi}]")
        start = self.num_vars
        self.num_vars += lb_arr.size
        self._lb.append(lb_arr)
        self._ub.append(ub_arr)
        self._integer.append(np.full(lb_arr.size, kind != CONTINUOUS, dtype=np.int64))
        return np.arange(start, self.num_vars, dtype=np.int64).reshape(shape)

    def add_constr(self, ids, coeffs, sense: str, rhs) -> None:
        """Add the row `coeffs.x[ids] <sense> rhs`, or a block of rows.

        A 2-D `ids` adds one row per line, in order: `coeffs` broadcasts
        against the block and `rhs` against the row count.
        """
        if sense not in (LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 2:
            shape, coeffs = ids.shape, np.broadcast_to(coeffs, ids.shape)
            rhs = np.broadcast_to(np.asarray(rhs, dtype=float), shape[:1]).tolist()
        else:
            shape, rhs = (1, ids.size), [float(rhs)]
        ids, coeffs = _checked_terms(ids, coeffs, self.num_vars, "constraint")
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite constraint coefficient")
        if not all(map(math.isfinite, rhs)):
            raise ValueError("non-finite right-hand side")
        self._row_ids.append(ids)
        self._row_coeffs.append(coeffs)
        self._row_shapes.append(shape)
        self._row_lo.extend(rhs if sense == GE else [-np.inf] * shape[0])
        self._row_hi.extend(rhs if sense == LE else [np.inf] * shape[0])

    def set_objective(self, ids, coeffs) -> None:
        """Replace the objective; coefficients of a repeated id are summed."""
        self._obj = _checked_terms(ids, coeffs, self.num_vars, "objective")


@dataclass
class SolveResult:
    """Outcome of one solve.

    `objective` and `dual_bound` are in the model's own sense; for a MIP
    stopped early, `dual_bound` is the proven bound and `gap` the relative
    distance between the two.  An LP solved to optimality has
    `dual_bound == objective` and `gap == 0`.
    """

    status: str
    objective: float
    values: np.ndarray | None
    dual_bound: float
    gap: float
    wall_seconds: float

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


def solve(model: Model, *, mip_gap: float | None = None,
          time_limit: float | None = None) -> SolveResult:
    """Solve the model; never raises for infeasible/unbounded, see `SolveResult.status`.

    `mip_gap` is the relative optimality gap demanded from MIP solves
    (default 1e-6); `time_limit` is in seconds.
    """
    start = time.perf_counter()
    n, m = model.num_vars, model.num_constraints
    sign = -1.0 if model.maximize else 1.0
    obj_ids, obj_coeffs = model._obj
    c = sign * np.bincount(obj_ids, weights=obj_coeffs, minlength=n)
    lb, ub = np.concatenate(model._lb), np.concatenate(model._ub)
    integrality = np.concatenate(model._integer)
    constraints = ()
    if m:
        shapes = np.array(model._row_shapes, dtype=np.int64)
        sizes = np.repeat(shapes[:, 1], shapes[:, 0])
        a = sparse.coo_matrix(
            (np.concatenate(model._row_coeffs),
             (np.repeat(np.arange(m, dtype=np.int64), sizes), np.concatenate(model._row_ids))),
            shape=(m, n),
        ).tocsr()
        constraints = LinearConstraint(a, np.array(model._row_lo), np.array(model._row_hi))
    options: dict = {"mip_rel_gap": DEFAULT_MIP_GAP if mip_gap is None else float(mip_gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    try:
        res = milp(c, constraints=constraints, integrality=integrality,
                   bounds=Bounds(lb, ub), options=options)
    except Exception as exc:  # pragma: no cover - defensive
        raise BackendError(f"scipy.milp failed: {exc}") from exc
    wall = time.perf_counter() - start
    status = _status_from_scipy(res.status, res.message)
    if status == "error":
        raise BackendError(f"HiGHS returned no usable status: {res.message}")
    values = np.asarray(res.x, dtype=float) if res.x is not None else None
    if status in ("optimal", "limit") and values is not None:
        objective = sign * float(res.fun)
        # LPs report no MIP bound: their optimum is its own bound
        raw_bound = res.mip_dual_bound
        dual_bound = (sign * float(raw_bound)
                      if raw_bound is not None and np.isfinite(raw_bound) else objective)
        gap = abs(objective - dual_bound) / max(1e-12, abs(objective))
    else:
        objective, dual_bound, gap, values = np.nan, np.nan, np.nan, None
    return SolveResult(status, objective, values, dual_bound, gap, wall)


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
