"""Minimal LP/MILP construction layer over HiGHS.

Every optimization module in the package builds its model through this
layer.  Variables are dense integer ids in creation order, with bounds and
integrality stored per `add_vars` block; `add_masked_vars` numbers a block
only on the true entries of a mask, with the id `PAD` elsewhere.  Rows are
`lo <= a.x <= hi`, added one at a time or as a block of rows (a 2-D id
array) in which `PAD` leaves a term out, so that a block's rows may differ
in length.  A `Handle` passes a model to HiGHS through scipy's bundled
binding, the package's one HiGHS call site, by one path: the columns and
rows the model gained since the handle last saw it, the whole model when
the handle opens and its growth at each solve, so a model can grow between
solves (CCG's master); `solve` opens a handle and solves once.  A handle
stays live: it re-solves after column-bound and cost edits or a new MIP
gap, an LP from the previous basis.  An LP handle also solves a whole
batch of column bounds in one call (`Handle.solve_each`: one bound matrix
in, one value matrix out), and bunches the batch: a row whose optimum the
basis of an earlier row already gives is read off that basis, with one
dense solve shared by all such rows and no HiGHS run (bunching, as in
Wets 1988 and Birge & Louveaux 2011).  A solve returns a point (the optimum,
or a MIP incumbent at a limit) or raises an error naming the model;
results carry no dual values.  Every HiGHS instance gets its options from
`check_options`, which also turns off HiGHS's feasibility-jump heuristic
(`mip_heuristic_run_feasibility_jump`): on HiGHS 1.12 it took most of the
time of the package's small MIPs (the 10x10 duality oracle took 3.6 ms
with it and 0.9 ms without, at the same optimum).  A handle opened with
`presolve=False` runs without HiGHS's presolve; only the ADR MILP asks
for that, because on it presolve costs more than it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy import sparse

# the oldest scipy whose HiGHS binding has every method called below
_SCIPY_FLOOR = "1.15"
# every method of the binding's `_Highs` that this module calls
_HIGHS_METHODS = ("addCols", "addRows", "changeColsBounds", "changeColsCost",
                 "changeColsIntegrality", "getBasicVariables", "getInfoValue",
                 "getModelStatus", "getSolution", "modelStatusToString", "run",
                 "setOptionValue")


def _old_scipy(lacking: str) -> ImportError:
    return ImportError(f"edgeplan needs scipy>={_SCIPY_FLOOR} for its bundled HiGHS binding; "
                       f"scipy {scipy.__version__} is installed, without {lacking}")


try:
    from scipy.optimize._highspy import _core as highs
except ImportError as exc:  # pragma: no cover - depends on the installed scipy
    raise _old_scipy("scipy.optimize._highspy._core") from exc
_lacking = [name for name in _HIGHS_METHODS if not hasattr(highs._Highs, name)]
if _lacking:  # pragma: no cover - depends on the installed scipy
    raise _old_scipy(", ".join(f"_Highs.{name}" for name in _lacking))

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
GE = ">="

DEFAULT_MIP_GAP = 1e-6
# the option that switches HiGHS's feasibility-jump heuristic (HiGHS 1.10 on);
# `check_options` turns it off
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"

# an id that stands for no variable: its term is left out of a row or an
# objective, and `SolveResult.value` reads it as 0
PAD = -1


class BackendError(RuntimeError):
    """The solver backend failed or returned an unrecognized status."""


class InfeasibleModelError(RuntimeError):
    """A model that should have been feasible was proven infeasible."""


class UnboundedModelError(RuntimeError):
    """A model that should have been bounded was proven unbounded."""


class SolverLimitError(RuntimeError):
    """A solve stopped at its time or iteration limit before it had a point."""


def _checked_terms(ids, coeffs, num_vars: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The terms as flat arrays, `PAD` terms left out."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if ids.shape != coeffs.shape:
        raise ValueError("ids and coeffs length mismatch")
    kept = ids != PAD
    if not kept.all():
        ids, coeffs = ids[kept], coeffs[kept]
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
        self._row_sizes: list = []  # term count of each row, one sequence per add_constr
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

        `lb`/`ub` broadcast against `shape`, so bounds may be per variable.
        An integer or binary block keeps its bounds rounded inward to
        integers, the same set of points: HiGHS 1.12's MIP presolve can
        return a wrong optimum for an integer column with a fractional bound
        (min 0.14 t + 0.2 y, y <= 8.33 t, t binary, y integer in [0, 8.33]
        comes back at t = 1).
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
        if kind != CONTINUOUS:
            empty = np.ceil(lb_arr) > np.floor(ub_arr)
            if empty.any():
                lo, hi = lb_arr[empty][0], ub_arr[empty][0]
                raise ValueError(f"no integer within the bounds [{lo}, {hi}]")
            lb_arr, ub_arr = np.ceil(lb_arr), np.floor(ub_arr)
        start = self.num_vars
        self.num_vars += lb_arr.size
        self._lb.append(lb_arr)
        self._ub.append(ub_arr)
        self._integer.append(np.full(lb_arr.size, kind != CONTINUOUS, dtype=np.int64))
        return np.arange(start, self.num_vars, dtype=np.int64).reshape(shape)

    def add_masked_vars(self, mask: np.ndarray, tail=(), *, lb=0.0, ub=np.inf) -> np.ndarray:
        """Continuous variables on the true entries of a boolean `mask`, a
        `tail` block each in row-major order: ids of shape `mask.shape + tail`,
        `PAD` off the mask.  `lb`/`ub` broadcast against that shape."""
        shape = mask.shape + tuple(tail)
        lb, ub = (np.broadcast_to(bound, shape)[mask] for bound in (lb, ub))
        ids = np.full(shape, PAD, dtype=np.int64)
        ids[mask] = self.add_vars(lb.shape, lb=lb, ub=ub)
        return ids

    def add_constr(self, ids, coeffs, sense: str, rhs) -> None:
        """Add the row `coeffs.x[ids] <sense> rhs`, or a block of rows.

        A 2-D `ids` adds one row per line, in order: `coeffs` broadcasts
        against the block and `rhs` against the row count.  A `PAD` id
        leaves its term out of the row.
        """
        if sense not in (LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 2:
            coeffs = np.broadcast_to(coeffs, ids.shape)
            rhs = np.broadcast_to(np.asarray(rhs, dtype=float), ids.shape[:1]).tolist()
            sizes = np.count_nonzero(ids != PAD, axis=1)
        else:
            rhs, sizes = [float(rhs)], [np.count_nonzero(ids != PAD)]
        ids, coeffs = _checked_terms(ids, coeffs, self.num_vars, "constraint")
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite constraint coefficient")
        if not all(map(math.isfinite, rhs)):
            raise ValueError("non-finite right-hand side")
        self._row_ids.append(ids)
        self._row_coeffs.append(coeffs)
        self._row_sizes.append(sizes)
        self._row_lo.extend(rhs if sense == GE else [-np.inf] * len(rhs))
        self._row_hi.extend(rhs if sense == LE else [np.inf] * len(rhs))

    def set_objective(self, ids, coeffs) -> None:
        """Replace the objective; coefficients of a repeated id are summed and
        a `PAD` term is left out."""
        self._obj = _checked_terms(ids, coeffs, self.num_vars, "objective")


@dataclass
class SolveResult:
    """A point from one solve: the optimum, or a MIP's incumbent at a time or
    iteration limit (status "limit").

    `objective` and `dual_bound` are in the model's own sense; at a limit,
    `dual_bound` is the proven bound (infinite if none) and `gap` the
    relative distance between the two.  An LP optimum has
    `dual_bound == objective` and `gap == 0`.
    """

    status: str
    objective: float
    values: np.ndarray
    dual_bound: float
    gap: float
    # `values` followed by one 0, which the id `PAD` (-1) reads
    _padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._padded = np.append(self.values, 0.0)
        self.values = self._padded[:-1]

    def value(self, ids) -> np.ndarray | float:
        """Primal values for an id array (shape preserved, `PAD` reads 0) or
        a single id."""
        return self._padded[ids]


# HiGHS model status -> (status of a point, error of a solve without one), else a
# backend error.  HiGHS reports "unbounded or infeasible" when presolve finds no
# bounded optimum without telling which; the package has always called that unbounded.
_STATUS = {
    highs.HighsModelStatus.kOptimal: ("optimal", BackendError),
    highs.HighsModelStatus.kInfeasible: (None, InfeasibleModelError),
    highs.HighsModelStatus.kUnbounded: (None, UnboundedModelError),
    highs.HighsModelStatus.kUnboundedOrInfeasible: (None, UnboundedModelError),
    highs.HighsModelStatus.kTimeLimit: ("limit", SolverLimitError),
    highs.HighsModelStatus.kIterationLimit: ("limit", SolverLimitError),
}


def check_options(*, mip_gap: float | None = None,
                  time_limit: float | None = None) -> highs._Highs:
    """A HiGHS instance set to these options; `ValueError` if HiGHS refuses one.

    Every instance also runs without feasibility jump
    (`mip_heuristic_run_feasibility_jump`), the primal heuristic HiGHS 1.10
    added before the root LP of every MIP: on HiGHS 1.12 it took most of
    the time of the package's small MIPs (the 10x10 duality oracle, 60
    columns and 20 binaries, solved in 3.6 ms with it and 0.9 ms without,
    at the same optimum).  An older HiGHS has neither the heuristic nor
    the option, and its refusal of the option passes.
    """
    h = highs._Highs()
    options = {"log_to_console": False,
               "mip_rel_gap": DEFAULT_MIP_GAP if mip_gap is None else float(mip_gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    for name, value in options.items():
        _set_option(h, name, value)
    # not through `_set_option`: a HiGHS before 1.10 refuses the name, and
    # with the console log off it says nothing
    h.setOptionValue(_FEASIBILITY_JUMP, False)
    return h


def _set_option(h: highs._Highs, name: str, value: float) -> None:
    # HiGHS's range check lets NaN through
    if math.isnan(value) or h.setOptionValue(name, value) == highs.HighsStatus.kError:
        raise ValueError(f"invalid solver option {name}={value!r}")


def _terms(model: Model, row_block: int, num_rows: int) -> tuple[np.ndarray, ...]:
    """The coefficients, row numbers and column ids of the `num_rows` rows
    the model gained from its `row_block`-th `add_constr` call on."""
    sizes = np.concatenate([np.empty(0, dtype=np.int64), *model._row_sizes[row_block:]])
    # the empty heads let a model without rows assemble too
    return (np.concatenate([np.empty(0), *model._row_coeffs[row_block:]]),
            np.repeat(np.arange(num_rows, dtype=np.int64), sizes),
            np.concatenate([np.empty(0, dtype=np.int64), *model._row_ids[row_block:]]))


def _matrix(model: Model, row_block: int, shape: tuple[int, int]) -> sparse.coo_matrix:
    """The model's rows from its `row_block`-th `add_constr` call on, as a
    sparse matrix of `shape`."""
    coeffs, rows, ids = _terms(model, row_block, shape[0])
    return sparse.coo_matrix((coeffs, (rows, ids)), shape=shape)


class Handle:
    """One model passed to HiGHS and kept there, re-solvable after edits.

    The handle keeps its `Model`, which may grow.  Opening the handle and
    each `solve` pass HiGHS the columns and rows added to the model since
    the handle last saw it (at the opening, all of them), new columns
    priced by the model's objective.  An existing column's cost changes
    only through `change_costs` (the CCG duality oracle's plan), its bounds
    through `change_col_bounds` (the CCG KKT oracle's plan) or, one set of
    bounds per LP solved, `solve_each` (the replay); `set_mip_gap`
    sets the gap of later solves.  An LP re-solve starts from the previous
    basis; `solve_each` reads what rows it can off an earlier row's
    optimal basis and runs HiGHS on the others.  `time_limit` bounds each
    solve on its own: HiGHS's run time adds up over the solves of one
    handle, but every solve gets the whole limit.  `presolve=False` turns HiGHS's presolve off for
    every solve of the handle: presolve pays for itself on most models,
    but on the ADR MILP it, and the root restarts that follow it, took
    about two thirds of the solve.  A handle belongs to the call that
    opened it: sweeps run cells on threads, so never cache or share one.
    """

    def __init__(self, model: Model, *, mip_gap: float | None = None,
                 time_limit: float | None = None, presolve: bool = True):
        self._model = model
        self._sign = -1.0 if model.maximize else 1.0
        self._highs = check_options(mip_gap=mip_gap, time_limit=time_limit)
        if not presolve:
            self._checked(self._highs.setOptionValue("presolve", "off"), "presolve option")
        self._seen = (0, 0, 0, 0)
        self._is_mip = False
        # the column bounds HiGHS holds, which `solve_each` checks read-off rows against
        self._col_lo = self._col_hi = np.empty(0)
        self._sync()

    @staticmethod
    def _checked(status, what: str) -> None:
        if status == highs.HighsStatus.kError:
            raise BackendError(f"HiGHS rejected the {what}")

    def _costs(self, start: int) -> np.ndarray:
        """HiGHS's (minimizing) costs of the model's columns from `start` on."""
        ids, coeffs = self._model._obj
        costs = np.bincount(ids, weights=coeffs, minlength=self._model.num_vars)
        return self._sign * costs[start:]

    def _sync(self) -> None:
        """Pass HiGHS the columns and rows added to the model since it last saw it."""
        model = self._model
        n0, m0, col_blocks, row_blocks = self._seen
        n, m = model.num_vars, model.num_constraints
        if n > n0:
            empty = np.empty(0, dtype=np.int32)
            lo, hi = (np.concatenate(b[col_blocks:]) for b in (model._lb, model._ub))
            self._checked(self._highs.addCols(n - n0, self._costs(n0), lo, hi,
                                              0, empty, empty, np.empty(0)), "added columns")
            self._col_lo, self._col_hi = np.append(self._col_lo, lo), np.append(self._col_hi, hi)
            integer = np.concatenate(model._integer[col_blocks:]).astype(bool)
            if integer.any():
                self._is_mip = True
                cols = np.arange(n0, n, dtype=np.int32)[integer]
                kinds = np.full(cols.size, int(highs.HighsVarType.kInteger), dtype=np.uint8)
                self._checked(self._highs.changeColsIntegrality(cols.size, cols, kinds),
                              "added integer columns")
        if m > m0:
            a = _matrix(model, row_blocks, (m - m0, n)).tocsr()
            self._checked(self._highs.addRows(m - m0, np.array(model._row_lo[m0:]),
                                              np.array(model._row_hi[m0:]), a.nnz,
                                              a.indptr[:-1].astype(np.int32),
                                              a.indices.astype(np.int32), a.data), "added rows")
        self._seen = (n, m, len(model._lb), len(model._row_ids))

    def change_col_bounds(self, cols, lo, hi) -> None:
        """Set `lo <= x <= hi` on the given columns, all three broadcast
        together, in one binding call."""
        cols, lo, hi = (a.ravel() for a in np.broadcast_arrays(cols, lo, hi))
        self._checked(self._highs.changeColsBounds(cols.size, cols.astype(np.int32),
                                                   lo.astype(float), hi.astype(float)),
                      "column-bound edit")
        self._col_lo[cols], self._col_hi[cols] = lo, hi

    def change_costs(self, cols, costs) -> None:
        """Set the objective coefficients of the given columns, in the
        model's own sense, in one binding call."""
        cols, costs = (a.ravel() for a in np.broadcast_arrays(cols, costs))
        self._checked(self._highs.changeColsCost(cols.size, cols.astype(np.int32),
                                                 self._sign * costs.astype(float)),
                      "cost edit")

    def set_mip_gap(self, mip_gap: float | None) -> None:
        """Demand this relative gap (default 1e-6) from later MIP solves."""
        _set_option(self._highs, "mip_rel_gap",
                    DEFAULT_MIP_GAP if mip_gap is None else float(mip_gap))

    def _run(self) -> str:
        """Run HiGHS and return the status of its point; without a point,
        raise the `_STATUS` error, naming the model."""
        self._highs.run()
        model_status = self._highs.getModelStatus()
        status, error = _STATUS.get(model_status, (None, BackendError))
        # an LP stopped early has no usable point; a MIP has one if it has an incumbent
        if not (status == "optimal" or status == "limit" and self._is_mip
                and self._highs.getInfoValue("objective_function_value")[1] != highs.kHighsInf):
            raise error(f"model {self._model.name!r} ended without a point: "
                        f"{self._highs.modelStatusToString(model_status)}")
        return status

    def solve(self) -> SolveResult:
        """Return the optimum or a MIP's incumbent at a limit; without a
        point, raise the `_STATUS` error, naming the model."""
        self._sync()
        status = self._run()
        values = self._highs.getSolution().col_value
        # one info value at a time: getInfo() copies all of them (11 us
        # against 1.6 us for these two reads, HiGHS 1.12 on a 2-vCPU host)
        objective = self._sign * self._highs.getInfoValue("objective_function_value")[1]
        # LPs report no MIP bound: their optimum is its own bound
        dual_bound = (self._sign * self._highs.getInfoValue("mip_dual_bound")[1] if self._is_mip
                      else objective)
        gap = abs(objective - dual_bound) / max(1e-12, abs(objective))
        return SolveResult(status, objective, values, dual_bound, gap)

    def solve_each(self, cols, lo, hi) -> np.ndarray:
        """Solve the LP once per row of `lo`/`hi` (broadcast together to
        2-D), each row setting `lo <= x <= hi` on `cols`.  Returns the
        optima's values, one row per row of bounds, with one more column,
        always 0, that the id `PAD` reads.  A MIP is refused.

        The batch is bunched.  After its first HiGHS solve, and after every
        later one that took no simplex iteration (that basis survived a
        bound change, so later rows likely share it), one pass
        (`_Bunch.read_off`) reads off that basis every row still unsolved
        that it solves.  The other rows go to HiGHS in input order, each
        starting from the basis the last HiGHS solve left, and one without
        an optimum raises as `solve` does.  A row with a crossed bound always
        goes to HiGHS, and a batch of one row never takes a pass.  Where a
        row has several optima, the one read off may differ from the one
        HiGHS would return.  Afterwards HiGHS holds the bounds of the last
        row it solved.
        """
        self._sync()
        if self._is_mip:
            raise ValueError(f"model {self._model.name!r} has integer columns; "
                             "solve_each re-solves LPs only")
        cols = np.asarray(cols, dtype=np.int32).ravel()
        lo, hi = np.broadcast_arrays(np.atleast_2d(lo), np.atleast_2d(hi))
        shape = (lo.shape[0], cols.size)
        lo, hi = (np.ascontiguousarray(np.broadcast_to(a, shape), dtype=float) for a in (lo, hi))
        values = np.zeros((lo.shape[0], self._model.num_vars + 1))
        read = np.zeros(lo.shape[0], dtype=bool)
        # a row with a crossed bound is never read off a basis
        crossed = (lo > hi).any(axis=1)
        bunch, held = None, None
        try:
            for t in range(lo.shape[0]):
                if read[t]:
                    continue
                self._checked(self._highs.changeColsBounds(cols.size, cols, lo[t], hi[t]),
                              "column-bound edit")
                held = t
                self._run()
                solution = self._highs.getSolution()
                values[t, :-1] = solution.col_value
                if t + 1 == lo.shape[0] or (bunch is not None and self._highs.getInfoValue(
                        "simplex_iteration_count")[1]):
                    continue
                rows = t + 1 + np.flatnonzero(~(read[t + 1:] | crossed[t + 1:]))
                bunch = bunch or _Bunch(self, cols, lo, hi)
                status, basic = self._highs.getBasicVariables()
                self._checked(status, "basis query")
                passed, block = bunch.read_off(basic, solution, t, rows)
                values[rows[passed], :-1] = block
                read[rows[passed]] = True
        finally:
            if held is not None:
                self._col_lo[cols], self._col_hi[cols] = lo[held], hi[held]
        return values


class _Bunch:
    """What the passes of one `Handle.solve_each` batch share: the LP's
    `[A, -I]` as a dense array, whose columns hold every basis (the model's
    columns, then its rows' activities), the bounds HiGHS holds on every
    variable, and the batch's bounds on `cols`, one column per row."""

    def __init__(self, handle: Handle, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        model = handle._model
        n, m = model.num_vars, model.num_constraints
        # built without scipy.sparse, whose assembly took five times as long
        # on the 6x6 replay LP
        coeffs, rows, ids = _terms(model, 0, m)
        self.a = np.bincount(rows * (n + m) + ids, weights=coeffs,
                             minlength=m * (n + m)).reshape(m, n + m)
        self.a[np.arange(m), n + np.arange(m)] = -1.0
        # HiGHS numbers basic row i as -1 - i, which indexes entry n + i here
        self.order = np.concatenate([np.arange(n), np.arange(n + m - 1, n - 1, -1)])
        self.var_lo = np.concatenate([handle._col_lo, model._row_lo])[:, None]
        self.var_hi = np.concatenate([handle._col_hi, model._row_hi])[:, None]
        # each variable's place in `cols`, -1 outside it
        self.slot = np.full(n + m, -1)
        self.slot[cols] = np.arange(cols.size)
        self.n, self.cols, self.lo, self.hi = n, cols, lo.T.copy(), hi.T.copy()

    def read_off(self, basic, solution, t: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of `rows` the basis HiGHS found for row `t` solves (`basic`,
        its `getBasicVariables`; `solution`, its optimum), and their values.

        Each nonbasic column of `cols` stays at the bound it sits at; one
        fixed in row `t` takes its upper bound if and only if its reduced
        cost is negative, which keeps the basis dual feasible in every row.
        The basic variables come from one dense solve.  A row is read off
        when they lie within its bounds to 1e-9 relative and every nonbasic
        bound taken is finite: the basis is then optimal for that row too.
        """
        basic = self.order[basic]
        z = np.concatenate([solution.col_value, solution.row_value])
        nonbasic = np.ones(z.size, dtype=bool)
        nonbasic[basic] = False
        moved = nonbasic[self.cols]
        j = self.cols[moved]
        lo_t, hi_t, z_j = self.lo[moved, t], self.hi[moved, t], z[j]
        upper = np.where(lo_t == hi_t, np.asarray(solution.col_dual)[j] < 0,
                         hi_t - z_j < z_j - lo_t)
        lo, hi = self.lo[:, rows], self.hi[:, rows]
        at = np.where(upper[:, None], hi[moved], lo[moved])
        # z keeps the values of the nonbasic variables that stay put
        z[basic] = z[j] = 0.0
        values = np.linalg.solve(self.a[:, basic], -(self.a @ z)[:, None] - self.a[:, j] @ at)
        k = self.slot[basic]
        edited = (k >= 0)[:, None]
        tol = 1e-9 * np.maximum(1.0, np.abs(values))
        inside = ((np.where(edited, lo[k], self.var_lo[basic]) - tol <= values)
                  & (values <= np.where(edited, hi[k], self.var_hi[basic]) + tol))
        read = np.isfinite(at).all(axis=0) & inside.all(axis=0)
        block = np.tile(z[:self.n], (np.count_nonzero(read), 1))
        block[:, j] = at[:, read].T
        is_col = basic < self.n
        block[:, basic[is_col]] = values[is_col][:, read].T
        return read, block


def solve(model: Model, *, mip_gap: float | None = None,
          time_limit: float | None = None, presolve: bool = True) -> SolveResult:
    """Solve the model once; see `Handle.solve` for what it returns or raises.

    `mip_gap` is the relative optimality gap demanded from MIP solves
    (default 1e-6); `time_limit` is in seconds; `presolve=False` runs HiGHS
    without its presolve (see `Handle`).
    """
    return Handle(model, mip_gap=mip_gap, time_limit=time_limit, presolve=presolve).solve()
