"""Data model, uncertainty vertices, cost functions, serialization."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplan import core
from edgeplan.core import (
    FirstStagePlan,
    InstanceError,
    Scenario,
    ScenarioError,
    UncertaintyModel,
    count_vertices,
    demand_from_g,
    enumerate_vertices,
    instance_from_json,
    instance_to_json,
    provisioning_cost,
    sample_failures,
)
from helpers import random_instance, sparse_eligibility, tiny_instance


def test_demand_from_g_full_deviation():
    inst = tiny_instance(gamma=1, nominal_demand=[10.0], demand_deviation=[6.0])
    assert demand_from_g(inst, [1.0])[0] == pytest.approx(16.0)


def test_demand_from_g_zero_vector():
    inst = tiny_instance()
    assert np.allclose(demand_from_g(inst, [0.0]), inst.nominal_demand)


def test_demand_from_g_partial_budget():
    inst = random_instance(np.random.default_rng(0), 2, 1, gamma=1, k=0,
                           nominal_demand=[5.0, 40.0], demand_deviation=[3.0, 24.0])
    assert np.allclose(demand_from_g(inst, [1.0, 0.0]), [8.0, 40.0])


def test_demand_from_g_rejects_bad_vectors():
    inst = tiny_instance(gamma=1)
    with pytest.raises(ScenarioError):
        demand_from_g(inst, [1.5])
    with pytest.raises(ScenarioError):
        demand_from_g(inst, [-0.2])
    two = random_instance(np.random.default_rng(1), 2, 1, gamma=1, k=0)
    with pytest.raises(ScenarioError):
        demand_from_g(two, [1.0, 1.0])  # exceeds the deviation budget


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=3, max_size=3),
       st.lists(st.floats(0, 1), min_size=3, max_size=3))
def test_demand_from_g_monotone(a, b):
    inst = random_instance(np.random.default_rng(7), 3, 2, gamma=3, k=0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    assert np.all(demand_from_g(inst, lo) <= demand_from_g(inst, hi) + 1e-12)


def test_vertex_count_small_cross():
    assert len(enumerate_vertices(UncertaintyModel(1, 1), 2, 2)) == 9


def test_vertex_count_degenerate():
    verts = enumerate_vertices(UncertaintyModel(0, 0), 4, 4)
    assert len(verts) == 1
    g, z = verts[0]
    assert not g.any() and not z.any()


def test_vertex_count_full_demand_box():
    assert len(enumerate_vertices(UncertaintyModel(3, 0), 3, 3)) == 8


def test_vertex_count_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ni = int(rng.integers(1, 8))
        nj = int(rng.integers(1, 8))
        u = UncertaintyModel(int(rng.integers(0, ni + 1)), int(rng.integers(0, nj + 1)))
        expected = count_vertices(u, ni, nj)
        if expected > 10_000:
            continue
        verts = enumerate_vertices(u, ni, nj)
        assert len(verts) == expected
        keys = {(tuple(g.tolist()), tuple(z.tolist())) for g, z in verts}
        assert len(keys) == len(verts)
        assert all(g.sum() <= u.gamma and z.sum() <= u.failure_budget for g, z in verts)


def test_vertex_enumeration_cap():
    with pytest.raises(core.EnumerationCapError):
        enumerate_vertices(UncertaintyModel(15, 15), 30, 30)


def test_sample_failures_respects_budget_and_seed():
    rng = np.random.default_rng(9)
    draws = sample_failures(6, 2, 500, rng)
    assert draws.shape == (500, 6)
    assert draws.sum(axis=1).max() <= 2
    again = sample_failures(6, 2, 500, np.random.default_rng(9))
    assert np.array_equal(draws, again)
    assert sample_failures(4, 0, 50, rng).sum() == 0


def test_provisioning_cost_examples():
    inst = tiny_instance()
    empty = FirstStagePlan(np.zeros(1, dtype=np.int8), np.zeros(1))
    assert provisioning_cost(inst, empty) == 0.0
    priced = tiny_instance(price=[0.04], placement_cost=[0.1])
    plan = FirstStagePlan(np.array([1], dtype=np.int8), np.array([5.0]))
    assert provisioning_cost(priced, plan) == pytest.approx(0.3)
    assert provisioning_cost(priced, plan) <= 20.0


def test_node_cost_combines_install_and_storage():
    inst = tiny_instance(placement_cost=[0.4], storage_cost=[0.2],
                         initial_placement=[1])
    assert inst.node_cost[0] == pytest.approx(0.2)  # already installed: storage only
    fresh = tiny_instance(placement_cost=[0.4], storage_cost=[0.2])
    assert fresh.node_cost[0] == pytest.approx(0.6)


def test_eligibility_derived_from_dmax():
    inst = tiny_instance(delay=[[4.0]], dmax=4.0)
    assert inst.eligibility[0, 0] == 1
    cut = tiny_instance(delay=[[4.1]], dmax=4.0)
    assert cut.eligibility[0, 0] == 0


def test_instance_validation_errors():
    with pytest.raises(InstanceError):
        tiny_instance(price=[-0.1])
    with pytest.raises(InstanceError):
        tiny_instance(uncertainty=UncertaintyModel(2, 0))  # gamma > I
    with pytest.raises(InstanceError):
        UncertaintyModel(1.5, 0)
    with pytest.raises(InstanceError):
        tiny_instance(budget=-5.0)


def _from_doc(**changes):
    return instance_from_json({**instance_to_json(tiny_instance()), **changes})


def _read_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    core.load_instance(str(path))


@pytest.mark.parametrize("build, error, match", [
    (lambda _: tiny_instance(price=[math.nan]), InstanceError, "price must be finite"),
    (lambda _: UncertaintyModel(1, 0, deviation_ratio=-0.5), InstanceError,
     "deviation_ratio must be a nonnegative real"),
    (lambda _: tiny_instance(delay=np.zeros((0, 1))), InstanceError,
     "need at least one area and one node"),
    (lambda _: tiny_instance(price=[0.1, 0.2]), InstanceError,
     "price must be a vector of length 1"),
    (lambda _: tiny_instance(initial_placement=[2]), InstanceError,
     "initial_placement entries must be bits"),
    (lambda _: tiny_instance(beta=-0.1), InstanceError, "beta must be a nonnegative real"),
    (lambda _: tiny_instance(dmax=math.nan), InstanceError,
     "dmax must be a number or infinity"),
    (lambda _: tiny_instance(uncertainty=(0, 0)), InstanceError,
     "uncertainty must be an UncertaintyModel"),
    (lambda _: tiny_instance(eligibility=[[1, 1]]), InstanceError,
     r"eligibility must have shape \(1, 1\)"),
    (lambda _: tiny_instance(eligibility=[[2]]), InstanceError,
     "eligibility entries must be bits"),
    (lambda _: FirstStagePlan([1, 0], [1.0]), InstanceError,
     "must be vectors of equal length"),
    (lambda _: FirstStagePlan([2], [1.0]), InstanceError, "placement entries must be bits"),
    (lambda _: FirstStagePlan([1, 0], [1.0, 0.0]).validate(tiny_instance()), InstanceError,
     "plan length does not match the instance"),
    (lambda _: Scenario([[1.0]], [0]), ScenarioError, "scenario fields must be vectors"),
    (lambda _: Scenario([1.0], [2]), ScenarioError, "failures entries must be bits"),
    (lambda _: demand_from_g(tiny_instance(), [0.0, 0.0]), ScenarioError,
     "g must have length 1"),
    (lambda _: _from_doc(areas=0), InstanceError, "'areas': must be a positive whole number"),
    (lambda _: _from_doc(prices=[0.1, 0.2]), InstanceError, "'prices': must have length 1"),
    (lambda _: _from_doc(delays=[[1.0, 2.0]]), InstanceError, "'delays': must be 1x1"),
    (_read_garbage, InstanceError, "not valid JSON"),
], ids=["nonfinite", "deviation-ratio", "empty", "vector-length", "placement-bits", "beta",
        "dmax-nan", "uncertainty-type", "eligibility-shape", "eligibility-bits",
        "plan-lengths", "plan-bits", "plan-vs-instance", "scenario-shape", "failure-bits",
        "g-length", "file-areas", "file-vector", "file-delays", "file-not-json"])
def test_refusals_name_what_is_wrong(tmp_path, build, error, match):
    with pytest.raises(error, match=match):
        build(tmp_path)


def test_replace_rederives_eligibility():
    inst = tiny_instance(delay=[[4.0]], dmax=10.0)
    tighter = inst.replace(dmax=3.0, eligibility=None)
    assert tighter.eligibility[0, 0] == 0
    assert inst.eligibility[0, 0] == 1


def test_subset_takes_prefixes_and_clamps_budgets():
    inst = random_instance(np.random.default_rng(5), 3, 4, gamma=3, k=4)
    inst = inst.replace(uncertainty=UncertaintyModel(3, 4, deviation_ratio=0.5))
    small = inst.subset(areas=2, nodes=3)
    assert (small.num_areas, small.num_nodes) == (2, 3)
    np.testing.assert_array_equal(small.delay, inst.delay[:2, :3])
    np.testing.assert_array_equal(small.eligibility, inst.eligibility[:2, :3])
    np.testing.assert_array_equal(small.price, inst.price[:3])
    np.testing.assert_array_equal(small.nominal_demand, inst.nominal_demand[:2])
    assert small.uncertainty == UncertaintyModel(2, 3, deviation_ratio=0.5)
    areas_only = inst.subset(areas=1)
    assert (areas_only.num_areas, areas_only.num_nodes) == (1, 4)
    assert areas_only.uncertainty.failure_budget == 4
    assert inst.subset().uncertainty == inst.uncertainty
    for bad in (dict(areas=0), dict(areas=4), dict(nodes=5)):
        with pytest.raises(InstanceError):
            inst.subset(**bad)


def test_instance_json_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 3, 4)
    # an eligibility that no dmax derives travels in the file
    masked = inst.replace(eligibility=sparse_eligibility(rng, 3, 4))
    path = tmp_path / "inst.json"
    for case in (inst, masked):
        core.save_instance(case, str(path))
        assert ("eligibility" in json.loads(path.read_text())) == (case is masked)
        back = core.load_instance(str(path))
        for field in ("price", "capacity", "placement_cost", "storage_cost",
                      "initial_placement", "delay", "unmet_penalty",
                      "nominal_demand", "demand_deviation", "eligibility"):
            assert np.allclose(getattr(case, field), getattr(back, field)), field
        assert case.uncertainty == back.uncertainty
        assert (case.beta, case.budget) == (back.beta, back.budget)
    # delays may also be given as a nested IxJ list
    nested = instance_from_json({**instance_to_json(inst), "delays": inst.delay.tolist()})
    assert np.array_equal(nested.delay, inst.delay)


def test_instance_json_roundtrip_with_alpha_and_dmax(tmp_path):
    nominal = np.array([5.0, 8.0])
    inst = random_instance(np.random.default_rng(3), 2, 2, gamma=1, k=1,
                           nominal_demand=nominal, demand_deviation=0.6 * nominal,
                           uncertainty=UncertaintyModel(1, 1, deviation_ratio=0.6),
                           dmax=5.0)
    path = tmp_path / "inst.json"
    core.save_instance(inst, str(path))
    back = core.load_instance(str(path))
    assert back.uncertainty.deviation_ratio == pytest.approx(0.6)
    assert back.dmax == pytest.approx(5.0)
    assert np.allclose(back.demand_deviation, inst.demand_deviation)


def test_plan_json_roundtrip(tmp_path):
    plan = FirstStagePlan(np.array([1, 0], dtype=np.int8), np.array([4.0, 0.0]))
    path = tmp_path / "plan.json"
    core.save_plan(plan, str(path), method="ccg-duality", objective=1.25, iterations=3)
    back, meta = core.load_plan(str(path))
    assert np.array_equal(back.placement, plan.placement)
    assert np.array_equal(back.procurement, plan.procurement)
    assert meta["method"] == "ccg-duality"
    assert meta["objective"] == pytest.approx(1.25)
    assert meta["iterations"] == 3


def test_second_stage_cost_formula():
    inst = tiny_instance(delay=[[2.0]])
    x = np.array([[5.0]])
    q = np.array([2.0])
    assert core.second_stage_cost(inst, x, q) == pytest.approx(0.5 * 2 + 0.1 * 2 * 5)
    assert core.second_stage_cost(inst.scaled_penalty(2.0), x, q) == pytest.approx(2 * 1.0 + 1.0)


def test_scaled_penalty_changes_no_other_field():
    inst = tiny_instance(unmet_penalty=[0.3])
    scaled = inst.scaled_penalty(1.7)
    assert scaled.unmet_penalty[0] == 1.7 * 0.3
    assert core.instance_to_json(scaled.replace(unmet_penalty=inst.unmet_penalty)) \
        == core.instance_to_json(inst)


def test_scenario_key_identity():
    a = Scenario([5.0, 6.0], [0, 1])
    b = Scenario([5.0, 6.0], [0, 1])
    c = Scenario([5.0, 6.5], [0, 1])
    assert a.key() == b.key()
    assert a.key() != c.key()


def test_csv_text_renders_every_cell_by_one_rule():
    cell = 'a "quoted", two-line\ncell'
    text = core.csv_text(["nan", "float", "int", "text"],
                         [[math.nan, 1 / 3, 10**13, cell], [np.float64(2.5), -math.inf, 0, ""]])
    assert text.startswith("nan,float,int,text\n,0.333333333333,10000000000000,")
    assert list(csv.reader(io.StringIO(text))) == [
        ["nan", "float", "int", "text"],
        ["", "0.333333333333", "10000000000000", cell],
        ["2.5", "-inf", "0", ""],
    ]


def test_canonical_json_writes_numpy_scalars_and_nonfinite_floats():
    doc = {"b": np.int64(3), "a": [np.float64(-math.inf), math.nan, (np.float64(0.5), 1)]}
    text = core.canonical_json(doc)
    assert json.loads(text) == {"a": ["-inf", "nan", [0.5, 1]], "b": 3}
    assert text == core.canonical_json(json.loads(text))


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "doc.json"
    core.atomic_write_text(str(path), "first")
    core.atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files
