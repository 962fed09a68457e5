"""Solver layer contract: statuses, bounds, determinism, model validation."""

import numpy as np
import pytest

from edgeplan import milp


def test_min_over_ge_row():
    m = milp.Model("lb")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 3.0)
    m.set_objective([x], [1.0])
    r = milp.solve(m)
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
    r = milp.solve(m)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_status():
    m = milp.Model("bad")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 1.0)
    m.add_constr([x], [1.0], milp.LE, 0.0)
    m.set_objective([x], [0.0])
    r = milp.solve(m)
    assert r.status == "infeasible"
    with pytest.raises(milp.InfeasibleModelError):
        milp.ensure_optimal(r)


def test_unbounded_status():
    m = milp.Model("unb", maximize=True)
    x = m.add_var()
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    assert r.status == "unbounded"
    with pytest.raises(milp.UnboundedModelError):
        milp.ensure_optimal(r)


def test_resolve_determinism():
    rng = np.random.default_rng(3)
    m = milp.Model("det")
    x = m.add_vars(6, kind=milp.INTEGER, ub=9)
    c = rng.uniform(1, 2, 6)
    m.add_constr(x, np.ones(6), milp.GE, 17.0)
    m.add_constr(x[:3], rng.uniform(0.5, 1.5, 3), milp.LE, 11.0)
    m.set_objective(x, c)
    first = milp.solve(m).objective
    for _ in range(3):
        assert abs(milp.solve(m).objective - first) < 1e-9


def test_variable_bounds_respected():
    m = milp.Model("bounds", maximize=True)
    x = m.add_vars(3, lb=[0, 1, 2], ub=[5, 5, 2.5])
    m.set_objective(x, np.ones(3))
    r = milp.solve(m)
    assert np.allclose(r.value(x), [5, 5, 2.5])


def test_bad_bounds_rejected():
    m = milp.Model("badb")
    with pytest.raises(ValueError):
        m.add_var(lb=2.0, ub=1.0)
    with pytest.raises(ValueError):
        m.add_vars(3, lb=[0.0, 2.0, 0.0], ub=1.0)
    b = m.add_vars(2, kind=milp.BINARY, lb=-1.0, ub=[5.0, 0.5])
    m.set_objective(b, [-1.0, 1.0])
    assert np.array_equal(milp.solve(m).value(b), [1.0, 0.0])


def test_set_objective_sums_repeated_ids():
    m = milp.Model("repeat")
    x = m.add_var()
    m.add_constr([x], [1.0], milp.GE, 2.0)
    m.set_objective([x, x], [1.0, 2.5])
    assert milp.solve(m).objective == pytest.approx(7.0, abs=1e-9)


def test_constraint_references_checked():
    m = milp.Model("refs")
    m.add_var()
    with pytest.raises(ValueError):
        m.add_constr([5], [1.0], milp.LE, 1.0)


def test_mip_gap_is_honored_loosely():
    # a loose gap may stop early but the dual bound stays valid
    rng = np.random.default_rng(11)
    m = milp.Model("gap", maximize=True)
    x = m.add_vars(12, kind=milp.BINARY)
    w = rng.uniform(1, 4, 12)
    m.add_constr(x, rng.uniform(1, 3, 12), milp.LE, 9.0)
    m.set_objective(x, w)
    exact = milp.solve(m).objective
    loose = milp.solve(m, mip_gap=0.1)
    assert loose.objective <= exact + 1e-9
    assert loose.dual_bound >= exact - 1e-9
