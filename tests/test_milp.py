"""Solver abstraction contract: statuses, duals, determinism, LP export."""

import numpy as np
import pytest

from edgeplan import milp


def test_min_over_ge_row():
    m = milp.Model("lb")
    x = m.add_var("x")
    m.add_constr([x], [1.0], milp.GE, 3.0)
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(3.0, abs=1e-9)
    assert r.value(x) == pytest.approx(3.0, abs=1e-9)


def test_integer_rounding():
    m = milp.Model("int", maximize=True)
    x = m.add_var("x", kind=milp.INTEGER)
    m.add_constr([x], [1.0], milp.LE, 2.5)
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_status():
    m = milp.Model("bad")
    x = m.add_var("x")
    m.add_constr([x], [1.0], milp.GE, 1.0)
    m.add_constr([x], [1.0], milp.LE, 0.0)
    m.set_objective([x], [0.0])
    r = milp.solve(m)
    assert r.status == "infeasible"
    with pytest.raises(milp.InfeasibleModelError):
        milp.ensure_optimal(r)


def test_unbounded_status():
    m = milp.Model("unb", maximize=True)
    x = m.add_var("x")
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    assert r.status == "unbounded"
    with pytest.raises(milp.UnboundedModelError):
        milp.ensure_optimal(r)


def test_dual_of_single_lower_bound_row():
    m = milp.Model("d")
    x = m.add_var("x")
    rid = m.add_constr([x], [1.0], milp.GE, 3.0)
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    assert milp.extract_duals(m, r)[rid] == pytest.approx(1.0, abs=1e-8)


def test_dual_scales_with_objective():
    m = milp.Model("d2")
    x = m.add_var("x")
    rid = m.add_constr([x], [1.0], milp.GE, 3.0)
    m.set_objective([x], [2.0])
    r = milp.solve(m)
    assert milp.extract_duals(m, r)[rid] == pytest.approx(2.0, abs=1e-8)


def test_duals_refused_for_mips():
    m = milp.Model("mip")
    x = m.add_var("x", kind=milp.INTEGER)
    m.add_constr([x], [1.0], milp.GE, 1.0)
    m.set_objective([x], [1.0])
    r = milp.solve(m)
    with pytest.raises(ValueError):
        milp.extract_duals(m, r)


def test_strong_duality_on_allocation_lp():
    # min 0.5q + 0.2x  s.t.  x + q >= 5 (cover), x <= 4 (capacity)
    m = milp.Model("alloc")
    x = m.add_var("x")
    q = m.add_var("q")
    cover = m.add_constr([x, q], [1.0, 1.0], milp.GE, 5.0)
    cap = m.add_constr([x], [1.0], milp.LE, 4.0)
    m.set_objective([q, x], [0.5, 0.2])
    r = milp.solve(m)
    assert r.objective == pytest.approx(1.3, abs=1e-9)
    duals = milp.extract_duals(m, r)
    # all optimal primal values sit strictly above their zero lower bounds,
    # so dual objective = rhs dot duals
    assert duals[cover] * 5.0 + duals[cap] * 4.0 == pytest.approx(r.objective, abs=1e-8)
    assert r.duality_residual is not None and r.duality_residual < 1e-6


def test_resolve_determinism():
    rng = np.random.default_rng(3)
    m = milp.Model("det")
    x = m.add_vars(6, "x", kind=milp.INTEGER, ub=9)
    c = rng.uniform(1, 2, 6)
    m.add_constr(x, np.ones(6), milp.GE, 17.0)
    m.add_constr(x[:3], rng.uniform(0.5, 1.5, 3), milp.LE, 11.0)
    m.set_objective(x, c)
    first = milp.solve(m).objective
    for _ in range(3):
        assert abs(milp.solve(m).objective - first) < 1e-9


def test_variable_bounds_respected():
    m = milp.Model("bounds", maximize=True)
    x = m.add_vars(3, "x", lb=[0, 1, 2], ub=[5, 5, 2.5])
    m.set_objective(x, np.ones(3))
    r = milp.solve(m)
    assert np.allclose(r.value(x), [5, 5, 2.5])


def test_bad_bounds_rejected():
    m = milp.Model("badb")
    with pytest.raises(ValueError):
        m.add_var("x", lb=2.0, ub=1.0)


def test_constraint_references_checked():
    m = milp.Model("refs")
    m.add_var("x")
    with pytest.raises(ValueError):
        m.add_constr([5], [1.0], milp.LE, 1.0)


def test_lp_export_roundtrips_names(tmp_path):
    m = milp.Model("exp")
    x = m.add_var("width")
    y = m.add_var("height", kind=milp.INTEGER, ub=7)
    m.add_constr([x, y], [2.0, 1.0], milp.LE, 10.0, "area")
    m.set_objective([x, y], [1.0, 1.0])
    text = m.to_lp_string()
    for token in ("width", "height", "area"):
        assert token in text
    path = tmp_path / "model.lp"
    milp.write_lp(m, str(path))
    assert path.read_text() == text


def test_unknown_backend_rejected(monkeypatch):
    monkeypatch.setenv(milp.BACKEND_ENV, "gurobi")
    m = milp.Model("b")
    x = m.add_var("x")
    m.set_objective([x], [1.0])
    with pytest.raises(milp.BackendError):
        milp.solve(m)


def test_mip_gap_is_honored_loosely():
    # a loose gap may stop early but the dual bound stays valid
    rng = np.random.default_rng(11)
    m = milp.Model("gap", maximize=True)
    x = m.add_vars(12, "x", kind=milp.BINARY)
    w = rng.uniform(1, 4, 12)
    m.add_constr(x, rng.uniform(1, 3, 12), milp.LE, 9.0)
    m.set_objective(x, w)
    exact = milp.solve(m).objective
    loose = milp.solve(m, mip_gap=0.1)
    assert loose.objective <= exact + 1e-9
    assert loose.dual_bound >= exact - 1e-9
