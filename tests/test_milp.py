"""Solver layer contract: statuses, bounds, determinism, model validation."""

import math

import numpy as np
import pytest

from edgeplan import milp
from edgeplan.adr import assemble_adr_milp
from edgeplan.ccg import solve_master, solve_subproblem_kkt
from edgeplan.evaluation import plan_with_method
from edgeplan.topology import generate_instance
from helpers import vertex_scenarios


def test_min_over_ge_row():
    m = milp.Model("lb")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 3.0)
    m.set_objective([x], [1.0])
    r = milp.Handle(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(3.0, abs=1e-9)
    assert r.value(x) == pytest.approx(3.0, abs=1e-9)
    # an LP optimum is its own bound
    assert r.dual_bound == r.objective and r.gap == 0.0


def test_integer_rounding():
    m = milp.Model("int", maximize=True)
    x = m.add_var(kind=milp.INTEGER)
    m.add_constr([x], [1.0], milp.LE, 2.5)
    m.set_objective([x], [1.0])
    r = milp.Handle(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_status():
    m = milp.Model("bad")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 1.0)
    m.add_constr([x], [1.0], milp.LE, 0.0)
    m.set_objective([x], [0.0])
    with pytest.raises(milp.InfeasibleModelError, match="'bad'"):
        milp.Handle(m).solve()


def test_unbounded_status():
    m = milp.Model("unb", maximize=True)
    x = m.add_var()
    m.set_objective([x], [1.0])
    with pytest.raises(milp.UnboundedModelError, match="'unb'"):
        milp.Handle(m).solve()


def test_resolve_determinism():
    rng = np.random.default_rng(3)
    m = milp.Model("det")
    x = m.add_vars(6, kind=milp.INTEGER, ub=9)
    c = rng.uniform(1, 2, 6)
    m.add_constr(x, np.ones(6), milp.GE, 17.0)
    m.add_constr(x[:3], rng.uniform(0.5, 1.5, 3), milp.LE, 11.0)
    m.set_objective(x, c)
    first = milp.Handle(m).solve().objective
    for _ in range(3):
        assert abs(milp.Handle(m).solve().objective - first) < 1e-9


def test_variable_bounds_respected():
    m = milp.Model("bounds", maximize=True)
    x = m.add_vars(3, lb=[0, 1, 2], ub=[5, 5, 2.5])
    m.set_objective(x, np.ones(3))
    r = milp.Handle(m).solve()
    assert np.allclose(r.value(x), [5, 5, 2.5])


def test_bad_bounds_rejected():
    m = milp.Model("badb")
    with pytest.raises(ValueError):
        m.add_var(lb=2.0, ub=1.0)
    with pytest.raises(ValueError):
        m.add_vars(3, lb=[0.0, 2.0, 0.0], ub=1.0)
    b = m.add_vars(2, kind=milp.BINARY, lb=-1.0, ub=[5.0, 0.5])
    m.set_objective(b, [-1.0, 1.0])
    assert np.array_equal(milp.Handle(m).solve().value(b), [1.0, 0.0])


def _fractional_bound_mip():
    """min h t + p y, y <= C t, with y integer in [0, C] and C fractional; the
    model and the id of t."""
    m = milp.Model("fractional-bound")
    t = m.add_var(kind=milp.BINARY)
    y = m.add_var(kind=milp.INTEGER, lb=0.0, ub=8.32978316069114)
    m.add_constr([y, t], [1.0, -8.32978316069114], milp.LE, 0.0)
    m.set_objective([t, y], [0.139881653011999, 0.20158537951791])
    return m, t


def test_integer_bounds_round_inward():
    # HiGHS 1.12's presolve answers t = 1 unless the bound on y is integral
    m, t = _fractional_bound_mip()
    r = milp.Handle(m).solve()
    assert r.objective == 0.0 and r.value(t) == 0.0
    m.add_vars(2, kind=milp.INTEGER, lb=[-1.5, 0.2], ub=[2.5, 3.0])
    assert np.array_equal(m._lb[-1], [-1.0, 1.0]) and np.array_equal(m._ub[-1], [2.0, 3.0])
    with pytest.raises(ValueError, match="no integer"):
        m.add_var(kind=milp.INTEGER, lb=0.2, ub=0.8)


def test_set_objective_sums_repeated_ids():
    m = milp.Model("repeat")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 2.0)
    m.set_objective([x, x], [1.0, 2.5])
    assert milp.Handle(m).solve().objective == pytest.approx(7.0, abs=1e-9)


def test_constraint_references_checked():
    m = milp.Model("refs")
    x = m.add_vars(2)
    with pytest.raises(ValueError):
        m.add_constr([5], [1.0], milp.LE, 1.0)
    with pytest.raises(ValueError):
        m.add_constr([[x[0], x[1]], [x[1], 5]], 1.0, milp.LE, 1.0)
    with pytest.raises(ValueError):
        m.add_constr(np.stack([x, x]), 1.0, milp.LE, [1.0, 2.0, 3.0])
    assert m.num_constraints == 0


def test_row_naming_a_column_twice_is_refused():
    # a row passes HiGHS its terms as stored, so it may name each column at
    # most once; HiGHS refuses a repeat when the handle opens or grows
    for block in (False, True):
        m = milp.Model("twice")
        x = m.add_vars(2)
        m.set_objective(x, [1.0, 1.0])
        if block:
            m.add_constr([[x[0], x[1]], [x[1], x[1]]], 1.0, milp.GE, 1.0)
        else:
            m.add_constr([x[0], x[1], x[0]], [1.0, 1.0, 1.0], milp.GE, 1.0)
        with pytest.raises(milp.BackendError, match="added rows"):
            milp.Handle(m)
    m = milp.Model("twice-grown")
    x = m.add_vars(2)
    m.set_objective(x, [1.0, 1.0])
    m.add_constr(x, [1.0, 1.0], milp.GE, 1.0)
    handle = milp.Handle(m)
    assert handle.solve().objective == pytest.approx(1.0, abs=1e-9)
    m.add_constr([x[1], x[1]], [1.0, 2.0], milp.GE, 3.0)
    with pytest.raises(milp.BackendError, match="added rows"):
        handle.solve()


def test_non_finite_rows_rejected():
    m = milp.Model("finite")
    x = m.add_vars(2)
    block = np.stack([x, x])
    with pytest.raises(ValueError, match="coefficient"):
        m.add_constr(x, [1.0, np.nan], milp.LE, 1.0)
    with pytest.raises(ValueError, match="right-hand side"):
        m.add_constr(x, [1.0, 1.0], milp.GE, np.inf)
    with pytest.raises(ValueError, match="coefficient"):
        m.add_constr(block, [[1.0, 1.0], [np.inf, 1.0]], milp.LE, 1.0)
    with pytest.raises(ValueError, match="right-hand side"):
        m.add_constr(block, 1.0, milp.LE, [1.0, np.nan])
    assert m.num_constraints == 0


def test_block_rows_match_single_rows():
    rng = np.random.default_rng(5)
    ids = np.array([[0, 1, 2], [2, 3, 0], [1, 3, 2]])
    coeffs = rng.uniform(0.5, 2.0, ids.shape)
    rhs = rng.uniform(4.0, 6.0, 3)
    cost = rng.uniform(1.0, 2.0, 4)
    optima = []
    for blocked in (False, True):
        m = milp.Model("block")
        x = m.add_vars(4, ub=10.0)
        if blocked:
            m.add_constr(x[ids], coeffs, milp.GE, rhs)
        else:
            for row in range(3):
                m.add_constr(x[ids[row]], coeffs[row], milp.GE, rhs[row])
        m.add_constr(x[:2], np.ones(2), milp.LE, 7.0)
        m.set_objective(x, cost)
        assert m.num_constraints == 4
        optima.append(milp.Handle(m).solve().objective)
    assert optima[0] == optima[1]


def test_pad_leaves_terms_out():
    # a padded block equals its ragged rows added one at a time
    rng = np.random.default_rng(6)
    cost = rng.uniform(1.0, 2.0, 3)
    optima = []
    for padded in (False, True):
        m = milp.Model("pad")
        x = m.add_vars(3, ub=10.0)
        if padded:
            m.add_constr([[x[0], milp.PAD, x[2]], [milp.PAD, x[1], milp.PAD]],
                         [[1.0, 5.0, 2.0], [5.0, 1.0, 5.0]], milp.GE, [4.0, 3.0])
        else:
            m.add_constr([x[0], x[2]], [1.0, 2.0], milp.GE, 4.0)
            m.add_constr([x[1]], [1.0], milp.GE, 3.0)
        m.set_objective(np.append(x, milp.PAD), np.append(cost, 9.0))
        assert m.num_constraints == 2
        result = milp.Handle(m).solve()
        optima.append(result.objective)
    assert optima[0] == optima[1]
    assert result.value(np.array([[x[1], milp.PAD]])).tolist() == [[result.value(x[1]), 0.0]]


def test_masked_vars_number_the_mask_in_row_major_order():
    m = milp.Model("masked")
    m.add_var()
    mask = np.array([[True, False, True], [False, False, True]])
    ub = np.arange(6.0).reshape(2, 3)
    x = m.add_masked_vars(mask, ub=ub)
    assert x.tolist() == [[1, milp.PAD, 2], [milp.PAD, milp.PAD, 3]]
    # bounds are read on the mask only
    assert np.concatenate(m._ub)[1:].tolist() == [0.0, 2.0, 5.0]
    # a tail gives each masked entry a block of ids
    block = m.add_masked_vars(mask, (2,), lb=-np.inf)
    assert block.shape == (2, 3, 2) and block[mask].ravel().tolist() == list(range(4, 10))
    assert (block[~mask] == milp.PAD).all() and m.num_vars == 10


def test_mip_gap_is_honored_loosely():
    # a loose gap may stop early but the dual bound stays valid
    rng = np.random.default_rng(11)
    m = milp.Model("gap", maximize=True)
    x = m.add_vars(12, kind=milp.BINARY)
    w = rng.uniform(1, 4, 12)
    m.add_constr(x, rng.uniform(1, 3, 12), milp.LE, 9.0)
    m.set_objective(x, w)
    exact = milp.Handle(m).solve().objective
    loose = milp.Handle(m, mip_gap=0.1).solve()
    assert loose.objective <= exact + 1e-9
    assert loose.dual_bound >= exact - 1e-9


def test_time_limit_reports_limit():
    # a zero time limit stops every solve before it has a point
    rng = np.random.default_rng(11)
    m = milp.Model("limited", maximize=True)
    x = m.add_vars(12, kind=milp.BINARY)
    m.add_constr(x, rng.uniform(1, 3, 12), milp.LE, 9.0)
    m.set_objective(x, rng.uniform(1, 4, 12))
    lp = milp.Model("limited-lp")
    v = lp.add_vars(5)
    lp.add_constr(v, np.ones(5), milp.GE, 3.0)
    lp.set_objective(v, rng.uniform(1, 2, 5))
    for model in (m, lp):
        with pytest.raises(milp.SolverLimitError, match=f"'{model.name}'.*[Tt]ime limit"):
            milp.Handle(model, time_limit=0.0).solve()
    # an out-of-range or NaN limit or gap is refused, not silently dropped;
    # an infinite limit is no limit
    assert milp.Handle(lp, time_limit=math.inf).solve().status == "optimal"
    with pytest.raises(ValueError, match="time_limit"):
        milp.Handle(lp, time_limit=-1.0).solve()
    with pytest.raises(ValueError, match="mip_rel_gap"):
        milp.Handle(m, mip_gap=-0.5).solve()
    with pytest.raises(ValueError, match="time_limit"):
        milp.Handle(lp, time_limit=math.nan).solve()
    with pytest.raises(ValueError, match="mip_rel_gap"):
        milp.Handle(m, mip_gap=math.nan).solve()


def test_handle_edits_match_fresh_solve():
    rng = np.random.default_rng(7)
    cost = rng.uniform(1.0, 2.0, 4)

    def build(cover, cap):
        # the GE row's level is column c, bounded below by cover; the LE
        # row's is column k, bounded above by cap
        m = milp.Model("edit")
        x = m.add_vars(4, ub=10.0)
        c = m.add_var(lb=cover)
        k = m.add_var(ub=cap)
        m.add_constr(np.append(x, c), [2.0, 0.5, 1.0, 3.0, -1.0], milp.GE, 0.0)
        m.add_constr([x[0], x[1], k], [1.0, 1.0, -1.0], milp.LE, 0.0)
        m.add_constr(x[1:], [1.0, 2.0, 1.0], milp.GE, 2.0)
        m.set_objective(x, cost)
        return m, [c, k]

    model, edited = build(5.0, 6.0)
    handle = milp.Handle(model)
    assert handle.solve().status == "optimal"
    # the lower bound of c and the upper bound of k, each taken to zero and back
    for cover, cap in ((7.0, 6.0), (4.0, 0.0), (0.0, 3.0), (0.0, 0.0), (9.0, 2.5),
                       (5.0, 6.0)):
        handle.change_col_bounds(edited, [cover, 0.0], [np.inf, cap])
        got = handle.solve()
        want = milp.Handle(build(cover, cap)[0]).solve()
        assert got.status == want.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=1e-12)
        # x is unique; the levels c and k need only respect their new bounds
        assert np.allclose(got.values[:4], want.values[:4], atol=1e-9)
        assert got.values[4] >= cover - 1e-9 and got.values[5] <= cap + 1e-9
    # a column the model does not have is refused, not ignored
    with pytest.raises(milp.BackendError, match="column-bound edit"):
        handle.change_col_bounds(6, 0.0, 1.0)


def _level_model():
    # the GE row's level is column c, the LE row's column k; their bounds
    # carry the edits
    m = milp.Model("levels")
    x = m.add_vars(4, ub=10.0)
    c = m.add_var()
    k = m.add_var()
    m.add_constr(np.append(x, c), [2.0, 0.5, 1.0, 3.0, -1.0], milp.GE, 0.0)
    m.add_constr([x[0], x[1], k], [1.0, 1.0, -1.0], milp.LE, 0.0)
    m.add_constr(x[1:], [1.0, 2.0, 1.0], milp.GE, 2.0)
    m.set_objective(x, [1.3, 1.1, 1.7, 1.9])
    return m, [c, k]


# (lower bound of c, upper bound of k) per solve, each taken to zero and back
_LEVEL_ROWS = [(7.0, 6.0), (4.0, 0.0), (0.0, 3.0), (0.0, 0.0), (9.0, 2.5), (5.0, 6.0)]


def _dense_rows(model: milp.Model) -> np.ndarray:
    """The model's rows as a dense matrix, from the terms `add_constr` stored."""
    coeffs, sizes, ids = milp._terms(model, 0)
    a = np.zeros((model.num_constraints, model.num_vars))
    a[np.repeat(np.arange(model.num_constraints), sizes), ids] = coeffs
    return a


def _assert_optima(model, edited, lo, hi, each):
    """Each row of `each` is an optimum of `model` under that row's bounds on
    `edited`: the objective within 1e-12 relative of a fresh edit and solve,
    every column and row activity within its bounds to 1e-9, and PAD 0."""
    a = _dense_rows(model)
    ids, coeffs = model._obj
    for row, row_lo, row_hi in zip(each, lo, hi):
        handle = milp.Handle(model)
        handle.change_col_bounds(edited, row_lo, row_hi)
        want = handle.solve().objective
        x = row[:-1]
        assert x[ids] @ coeffs == pytest.approx(want, rel=1e-12, abs=1e-12)
        col_lo, col_hi = np.concatenate(model._lb), np.concatenate(model._ub)
        col_lo[edited], col_hi[edited] = row_lo, row_hi
        assert np.all(x >= col_lo - 1e-9) and np.all(x <= col_hi + 1e-9)
        assert np.all(a @ x >= np.array(model._row_lo) - 1e-9)
        assert np.all(a @ x <= np.array(model._row_hi) + 1e-9)
    assert np.all(each[:, milp.PAD] == 0.0)


def _recorded_runs(monkeypatch) -> list:
    """A list that gains one entry per HiGHS run from now on."""
    runs = []
    real_run = milp.highs._Highs.run

    def recorded_run(h):
        runs.append(h)
        return real_run(h)

    monkeypatch.setattr(milp.highs._Highs, "run", recorded_run)
    return runs


def test_solve_each_matches_edit_then_solve():
    lo = [[cover, 0.0] for cover, _ in _LEVEL_ROWS]
    hi = [[np.inf, cap] for _, cap in _LEVEL_ROWS]
    model, edited = _level_model()
    each = milp.Handle(model).solve_each(edited, lo, hi)
    assert each.shape == (len(_LEVEL_ROWS), model.num_vars + 1)
    # a row read off a basis may be another optimum than HiGHS's (k costs
    # nothing), so each row is held to what an optimum is
    _assert_optima(model, edited, lo, hi, each)


def test_solve_each_of_no_rows_solves_nothing():
    model, edited = _level_model()
    values = milp.Handle(model).solve_each(edited, np.empty((0, 2)), np.empty((0, 2)))
    assert values.shape == (0, model.num_vars + 1)


def test_solve_each_raises_on_an_infeasible_row():
    # c >= 100 asks the GE row for more than x's boxes can give (65)
    model, edited = _level_model()
    with pytest.raises(milp.InfeasibleModelError, match="'levels' ended without a point"):
        milp.Handle(model).solve_each(edited, [[5.0, 0.0], [100.0, 0.0]],
                                      [[np.inf, 6.0], [np.inf, 6.0]])


def test_solve_each_runs_highs_once_for_identical_rows(monkeypatch):
    runs = _recorded_runs(monkeypatch)
    model, edited = _level_model()
    lo, hi = [[5.0, 0.0]] * 4, [[np.inf, 6.0]] * 4
    each = milp.Handle(model).solve_each(edited, lo, hi)
    assert len(runs) == 1
    _assert_optima(model, edited, lo, hi, each)


def test_solve_each_raises_on_an_infeasible_row_after_read_rows(monkeypatch):
    # the first basis solves rows 1 and 2; row 3 goes to HiGHS and fails
    runs = _recorded_runs(monkeypatch)
    model, edited = _level_model()
    with pytest.raises(milp.InfeasibleModelError, match="'levels' ended without a point"):
        milp.Handle(model).solve_each(edited, [[5.0, 0.0]] * 3 + [[100.0, 0.0]],
                                      [[np.inf, 6.0]] * 4)
    assert len(runs) == 2


@pytest.mark.parametrize("crossed", [([5.0, 0.0], [4.0, 6.0]), ([5.0, 7.0], [np.inf, 6.0])])
def test_solve_each_reads_no_row_with_crossed_bounds(crossed):
    # at (5, 6) c sits at its lower bound and k at its upper one, both
    # nonbasic: the first basis would give the crossed row the same point
    model, edited = _level_model()
    with pytest.raises(milp.InfeasibleModelError, match="'levels' ended without a point"):
        milp.Handle(model).solve_each(edited, [[5.0, 0.0], crossed[0]],
                                      [[np.inf, 6.0], crossed[1]])


def test_solve_each_reads_rows_off_within_earlier_bound_edits():
    # x_3 <= 1.5 set on the handle before the batch; the basis of (4, 0)
    # gives x_3 = 1.6 at (5, 6), inside the model's box of 10 but not 1.5
    model, edited = _level_model()
    handle = milp.Handle(model)
    handle.change_col_bounds(3, 0.0, 1.5)
    rows = [(4.0, 0.0), (5.0, 6.0), (4.0, 6.0), (4.0, 6.0)]
    lo, hi = [[cover, 0.0] for cover, _ in rows], [[np.inf, cap] for _, cap in rows]
    each = handle.solve_each(edited, lo, hi)
    assert np.all(each[:, 3] <= 1.5 + 1e-9)
    for row, row_lo, row_hi in zip(each, lo, hi):
        fresh = milp.Handle(model)
        fresh.change_col_bounds([3, *edited], [0.0, *row_lo], [1.5, *row_hi])
        want = fresh.solve().objective
        assert row[:4] @ [1.3, 1.1, 1.7, 1.9] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_solve_each_reads_rows_off_within_bounds_an_earlier_batch_left():
    # a one-row batch leaves x_3 <= 1.5 in HiGHS; the basis of (4, 0) gives
    # x_3 = 1.6 at (5, 6), inside the model's box of 10 but not 1.5
    model, edited = _level_model()
    handle = milp.Handle(model)
    handle.solve_each([3], [[0.0]], [[1.5]])
    rows = [(4.0, 0.0), (5.0, 6.0), (4.0, 6.0), (4.0, 6.0)]
    lo, hi = [[cover, 0.0] for cover, _ in rows], [[np.inf, cap] for _, cap in rows]
    each = handle.solve_each(edited, lo, hi)
    assert np.all(each[:, 3] <= 1.5 + 1e-9)


def test_solve_each_moves_a_fixed_column_by_its_reduced_cost():
    # one area, two nodes: serving from node 0 costs 1, from node 1 costs 3,
    # dropping costs 10, and the demand is 4.  Row 0 fails node 0 (w_0 in
    # [0, 0]), so its optimum, 12, leaves w_0 nonbasic with a negative
    # reduced cost.  Left at 0 in row 1, where both nodes live, w_0 would
    # read row 1 off that basis at 12; at its upper bound it forces HiGHS
    m = milp.Model("two-nodes")
    x = m.add_vars(2)
    q = m.add_var()
    w = m.add_vars(2)
    r = m.add_var()
    m.add_constr(np.column_stack([x, w]), [1.0, -1.0], milp.LE, 0.0)
    m.add_constr(np.append(x, [q, r]), [1.0, 1.0, 1.0, -1.0], milp.GE, 0.0)
    m.set_objective(np.append(x, q), [1.0, 3.0, 10.0])
    levels = np.append(w, r)
    lo, hi = [[0.0, 0.0, 4.0]] * 2, [[0.0, 5.0, np.inf], [5.0, 5.0, np.inf]]
    each = milp.Handle(m).solve_each(levels, lo, hi)
    assert each[:, np.append(x, q)] @ [1.0, 3.0, 10.0] == pytest.approx([12.0, 4.0])
    _assert_optima(m, levels, lo, hi, each)


def test_solve_each_refuses_a_mip():
    m = milp.Model("mip")
    y = m.add_var(kind=milp.INTEGER, ub=3.0)
    m.add_constr([y], [1.0], milp.GE, 1.5)
    m.set_objective([y], [1.0])
    with pytest.raises(ValueError, match="'mip' has integer columns"):
        milp.Handle(m).solve_each([y], [[0.0]], [[2.0]])


def test_handle_passes_what_its_model_gained():
    # columns (priced, some integer) and rows (over old and new columns, with
    # a PAD term) added after a solve reach HiGHS at the next one
    rng = np.random.default_rng(5)

    def build(grown):
        m = milp.Model("grow")
        x = m.add_vars(3, ub=4.0)
        m.add_constr(x, [1.0, 2.0, 1.0], milp.GE, 3.0)
        m.set_objective(x, [1.0, 1.5, 2.0])
        if grown:
            y = m.add_vars(2, kind=milp.INTEGER, ub=5.0)
            w = m.add_var(lb=0.5)
            m.add_constr(np.array([[x[0], y[0], milp.PAD], [x[2], y[1], w]]),
                         [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]], milp.GE, [2.5, 1.2])
            m.set_objective(np.concatenate([x, y, [w]]), [1.0, 1.5, 2.0, 0.7, 0.4, 0.1])
        return m

    model = build(False)
    handle = milp.Handle(model)
    want = milp.Handle(model).solve()
    assert handle.solve().objective == pytest.approx(want.objective, rel=1e-12)
    grown = build(True)
    y = model.add_vars(2, kind=milp.INTEGER, ub=5.0)
    w = model.add_var(lb=0.5)
    model.add_constr(np.array([[0, y[0], milp.PAD], [2, y[1], w]]),
                     [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]], milp.GE, [2.5, 1.2])
    model.set_objective(np.arange(6), [1.0, 1.5, 2.0, 0.7, 0.4, 0.1])
    got, want = handle.solve(), milp.Handle(grown).solve()
    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    # y is integral: the LP relaxation would buy 1.7 of y[1]
    assert np.allclose(got.values, want.values) and got.values[3:5].tolist() == [0.0, 2.0]
    # a cost edit on an old column, in the model's own sense
    costs = rng.uniform(0.5, 2.0, 6)
    handle.change_costs(np.arange(6), costs)
    grown.set_objective(np.arange(6), costs)
    want = milp.Handle(grown).solve()
    assert handle.solve().objective == pytest.approx(want.objective, rel=1e-12)
    with pytest.raises(milp.BackendError, match="cost edit"):
        handle.change_costs(6, 1.0)
    with pytest.raises(ValueError, match="mip_rel_gap"):
        handle.set_mip_gap(math.nan)


def _held_rows(handle: milp.Handle) -> np.ndarray:
    """The rows HiGHS holds for a solved handle, as a dense matrix."""
    lp = handle._highs.getLp()
    matrix = lp.a_matrix_
    # HiGHS holds the matrix column-wise once it has solved
    assert matrix.format_ == milp.highs.MatrixFormat.kColwise
    cols = np.repeat(np.arange(lp.num_col_), np.diff(matrix.start_))
    a = np.zeros((lp.num_row_, lp.num_col_))
    a[np.asarray(matrix.index_, dtype=np.int64), cols] = matrix.value_
    return a


def _kkt_handle() -> milp.Handle:
    inst = generate_instance(4, 4, seed=0)
    kept = {}
    solve_subproblem_kkt(inst, plan_with_method(inst, "det").plan, kept=kept)
    handle = kept["subproblem-kkt"][0]
    # `_add_product` lists [lost, stock], and lost has the higher ids
    coeffs, sizes, ids = milp._terms(handle._model, 0)
    starts = np.cumsum(sizes) - sizes
    assert any(np.any(np.diff(ids[a:a + k]) < 0) for a, k in zip(starts, sizes))
    return handle


def _grown_master_handle() -> milp.Handle:
    inst = generate_instance(3, 3, seed=1)
    pool = vertex_scenarios(inst)[:3]
    kept = {}
    solve_master(inst, pool[:1], kept=kept)
    rows = kept["ccg-master"].model.num_constraints
    solve_master(inst, pool, kept=kept)
    assert kept["ccg-master"].model.num_constraints > rows
    return kept["ccg-master"].handle


def _adr_handle() -> milp.Handle:
    model, _ = assemble_adr_milp(generate_instance(3, 3, seed=0))
    assert np.any(milp._terms(model, 0)[0] == 0.0)
    handle = milp.Handle(model, presolve=False)
    handle.solve()
    return handle


@pytest.mark.parametrize("build", [_kkt_handle, _grown_master_handle, _adr_handle],
                         ids=["kkt-unsorted-ids", "master-grown", "adr-zero-coefficients"])
def test_highs_holds_exactly_the_model_rows(build):
    # the rows go to HiGHS as stored: out of id order, in blocks added after
    # a solve, and with zero coefficients HiGHS drops
    handle = build()
    model = handle._model
    assert np.array_equal(_held_rows(handle), _dense_rows(model))
    lp = handle._highs.getLp()
    assert lp.row_lower_ == model._row_lo and lp.row_upper_ == model._row_hi


def test_time_limit_bounds_each_solve_of_a_live_handle():
    # HiGHS's run time adds up over the solves of one handle, but each solve
    # gets the whole limit: re-solves past it in total still end optimal
    rng = np.random.default_rng(11)
    weights = rng.uniform(1, 3, 12)

    def build(values):
        m = milp.Model("knapsack", maximize=True)
        x = m.add_vars(12, kind=milp.BINARY)
        m.add_constr(x, weights, milp.LE, 9.0)
        m.set_objective(x, values)
        return m, x

    limit = 0.05
    model, x = build(rng.uniform(1, 4, 12))
    handle = milp.Handle(model, time_limit=limit)
    for _ in range(1000):
        values = rng.uniform(1, 4, 12)
        handle.change_costs(x, values)
        got = handle.solve()
        assert got.status == "optimal"
        want = milp.Handle(build(values)[0]).solve()
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        if handle._highs.getRunTime() > 3 * limit:
            break
    assert handle._highs.getRunTime() > 3 * limit


def _knapsack(seed: int = 11) -> milp.Model:
    rng = np.random.default_rng(seed)
    m = milp.Model("knapsack", maximize=True)
    x = m.add_vars(12, kind=milp.BINARY)
    m.add_constr(x, rng.uniform(1, 3, 12), milp.LE, 9.0)
    m.set_objective(x, rng.uniform(1, 4, 12))
    return m


class _NoGetInfo:
    """A HiGHS instance that refuses `getInfo` and reports a stop at its
    solution limit as a time limit, a status the handle reads as a limit."""

    def __init__(self, h):
        self._h = h

    def __getattr__(self, name):
        if name == "getInfo":
            raise AssertionError("getInfo called")
        return getattr(self._h, name)

    def getModelStatus(self):
        status = self._h.getModelStatus()
        stopped = milp.highs.HighsModelStatus.kSolutionLimit
        return milp.highs.HighsModelStatus.kTimeLimit if status == stopped else status


@pytest.mark.parametrize("case", ["lp", "mip", "mip-at-limit"])
def test_solve_reads_the_info_it_needs_without_get_info(case):
    # the handle reads its objective and bound one info value at a time; its
    # result is what getInfo() reports of the same run
    if case == "lp":
        model = milp.Model("lp")
        v = model.add_vars(5)
        model.add_constr(v, np.arange(1.0, 6.0), milp.GE, 3.0)
        model.set_objective(v, [1.0, 1.5, 2.0, 3.0, 4.5])
    else:
        model = _knapsack()
    handle = milp.Handle(model)
    real = handle._highs
    if case == "mip-at-limit":
        # HiGHS stops at its first incumbent, short of the optimum
        real.setOptionValue("mip_max_improving_sols", 1)
    handle._highs = _NoGetInfo(real)
    result = handle.solve()
    info = real.getInfo()
    objective = -info.objective_function_value if model.maximize else info.objective_function_value
    bound = -info.mip_dual_bound if case != "lp" else objective
    status = "limit" if case == "mip-at-limit" else "optimal"
    assert (result.status, result.objective, result.dual_bound) == (status, objective, bound)
    assert result.values.tolist() == list(real.getSolution().col_value)
    assert result.gap == abs(objective - bound) / abs(objective)
    assert (result.gap > 1e-3) == (case == "mip-at-limit")


def _feasibility_jump(h) -> bool | None:
    """The feasibility-jump setting of a HiGHS instance, or None where its
    HiGHS (before 1.10) has no such option."""
    if h.getOptionType(milp._FEASIBILITY_JUMP)[0] == milp.highs.HighsStatus.kError:
        return None
    status, value = h.getOptionValue(milp._FEASIBILITY_JUMP)
    assert status == milp.highs.HighsStatus.kOk
    return value


def test_feasibility_jump_is_off_in_every_highs_instance():
    # a HiGHS that has the heuristic runs it by default
    default = milp.highs._Highs()
    default.setOptionValue("log_to_console", False)
    default_on = _feasibility_jump(default)
    assert default_on in (True, None)
    off = None if default_on is None else False
    assert _feasibility_jump(milp.check_options()) is off
    assert _feasibility_jump(milp.check_options(mip_gap=0.1, time_limit=5.0)) is off
    handle = milp.Handle(_knapsack(), mip_gap=1e-3)
    assert _feasibility_jump(handle._highs) is off
    # another option set later leaves it off
    handle.set_mip_gap(1e-2)
    handle.solve()
    assert _feasibility_jump(handle._highs) is off


def test_feasibility_jump_option_is_optional(monkeypatch, capfd):
    # a HiGHS without the option (before 1.10) refuses its name silently;
    # every instance still opens, solves and refuses bad options
    exact = milp.Handle(_knapsack()).solve()
    monkeypatch.setattr(milp, "_FEASIBILITY_JUMP", "no_such_option_in_any_highs")
    capfd.readouterr()
    milp.check_options(mip_gap=0.1, time_limit=5.0)
    assert capfd.readouterr() == ("", "")
    got = milp.Handle(_knapsack()).solve()
    assert got.status == "optimal" and got.objective == pytest.approx(exact.objective, rel=1e-9)
    with pytest.raises(ValueError, match="mip_rel_gap"):
        milp.Handle(_knapsack(), mip_gap=-0.5).solve()
    with pytest.raises(ValueError, match="time_limit"):
        milp.check_options(time_limit=-1.0)
    with pytest.raises(ValueError, match="mip_rel_gap"):
        milp.Handle(_knapsack()).set_mip_gap(math.nan)


def _presolve(handle: milp.Handle) -> str:
    status, value = handle._highs.getOptionValue("presolve")
    assert status == milp.highs.HighsStatus.kOk
    return value


def test_presolve_switch():
    assert _presolve(milp.Handle(_knapsack())) == "choose"
    assert _presolve(milp.Handle(_knapsack(), presolve=False)) == "off"
    # another option set later leaves it off
    handle = milp.Handle(_knapsack(), presolve=False)
    handle.set_mip_gap(1e-2)
    assert _presolve(handle) == "off"
    results = [milp.Handle(_fractional_bound_mip()[0], presolve=p).solve() for p in (True, False)]
    for r in results:
        assert r.status == "optimal" and r.objective == 0.0
    assert np.array_equal(results[0].values, results[1].values)
