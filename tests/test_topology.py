"""Scale-free topology generation and shortest-path delay matrices."""

import itertools

import numpy as np
import pytest

from edgeplan.core import InstanceError
from edgeplan.topology import (
    NetworkGraph,
    TopologyError,
    all_pairs_delays,
    generate_ba_graph,
    generate_instance,
)


def test_ba_edge_count_identity():
    g = generate_ba_graph(100, 2, seed=1)
    assert g.num_nodes == 100
    assert len(g.edges) == 2 * (100 - 2)


def test_ba_tree_case():
    g = generate_ba_graph(3, 1, seed=0)
    assert len(g.edges) == 2


def test_ba_delays_in_range():
    g = generate_ba_graph(60, 2, seed=7)
    weights = [w for _, _, w in g.edges]
    assert min(weights) >= 2.0 and max(weights) <= 10.0


def test_ba_rejects_bad_sizes():
    with pytest.raises(TopologyError):
        generate_ba_graph(2, 2, seed=0)
    with pytest.raises(TopologyError):
        generate_ba_graph(5, 0, seed=0)


def test_ba_simple_graph_and_determinism():
    a = generate_ba_graph(40, 3, seed=11)
    b = generate_ba_graph(40, 3, seed=11)
    assert a.edges == b.edges
    assert len({(u, v) for u, v, _ in a.edges}) == len(a.edges)
    assert all(u != v for u, v, _ in a.edges)
    c = generate_ba_graph(40, 3, seed=12)
    assert c.edges != a.edges


def test_path_graph_delay():
    g = NetworkGraph(3, ((0, 1, 2.0), (1, 2, 3.0)), seed=0)
    d = all_pairs_delays(g, [0], [2])
    assert d[0, 0] == pytest.approx(5.0)


def test_self_delay_zero():
    g = NetworkGraph(3, ((0, 1, 2.0), (1, 2, 3.0)), seed=0)
    d = all_pairs_delays(g, [0, 1, 2], [0, 1, 2])
    assert np.allclose(np.diag(d), 0.0)


def test_triangle_shortcut():
    g = NetworkGraph(3, ((0, 1, 2.0), (1, 2, 2.0), (0, 2, 10.0)), seed=0)
    d = all_pairs_delays(g, [0], [2])
    assert d[0, 0] == pytest.approx(4.0)


def test_disconnected_rejected():
    g = NetworkGraph(4, ((0, 1, 2.0), (2, 3, 2.0)), seed=0)
    with pytest.raises(TopologyError):
        all_pairs_delays(g, [0], [3])


def _floyd_warshall(graph: NetworkGraph) -> np.ndarray:
    n = graph.num_nodes
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in graph.edges:
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def test_delays_match_floyd_warshall():
    g = generate_ba_graph(25, 2, seed=3)
    oracle = _floyd_warshall(g)
    aps = [0, 5, 11, 17]
    ens = [2, 8, 14, 24]
    d = all_pairs_delays(g, aps, ens)
    for i, a in enumerate(aps):
        for j, e in enumerate(ens):
            assert d[i, j] == pytest.approx(oracle[a, e], abs=1e-9)


def test_delay_matrix_triangle_inequality():
    g = generate_ba_graph(20, 2, seed=5)
    nodes = list(range(20))
    d = all_pairs_delays(g, nodes, nodes)
    for a, b, c in itertools.islice(itertools.permutations(range(20), 3), 500):
        assert d[a, b] <= d[a, c] + d[c, b] + 1e-9


def test_generate_instance_parameter_domains():
    inst = generate_instance(20, 20, seed=4)
    assert inst.num_areas == 20 and inst.num_nodes == 20
    assert np.all((inst.price >= 0.02) & (inst.price <= 0.06))
    assert set(np.unique(inst.capacity)) <= {32.0, 48.0, 64.0}
    assert np.all((inst.placement_cost >= 0.1) & (inst.placement_cost <= 0.2))
    assert np.all(inst.storage_cost == 0.0)
    assert np.all((inst.nominal_demand >= 5.0) & (inst.nominal_demand <= 40.0))
    assert np.allclose(inst.demand_deviation, 0.6 * inst.nominal_demand)
    assert inst.beta == pytest.approx(0.1)
    assert inst.budget == pytest.approx(20.0)
    assert np.all(inst.unmet_penalty == 0.5)
    assert inst.uncertainty.gamma == 5 and inst.uncertainty.failure_budget == 2
    assert inst.eligibility.all()  # no delay cutoff by default


def test_generate_instance_budgets_clamped_to_size():
    inst = generate_instance(2, 1, seed=0)
    assert inst.uncertainty.gamma == 2
    assert inst.uncertainty.failure_budget == 1


def test_generate_instance_determinism_and_asymmetry():
    a = generate_instance(7, 4, seed=9)
    b = generate_instance(7, 4, seed=9)
    assert np.array_equal(a.delay, b.delay)
    assert np.array_equal(a.price, b.price)
    assert a.delay.shape == (7, 4)
    c = generate_instance(7, 4, seed=10)
    assert not np.array_equal(a.delay, c.delay)


def test_generate_instance_colocation_guard():
    with pytest.raises(InstanceError):
        generate_instance(60, 60, seed=0, graph_nodes=50)  # 60 anchors > 50 graph nodes
    big = generate_instance(60, 60, seed=0)  # shared anchors need only 60
    assert big.delay.shape == (60, 60)


def test_generate_instance_local_node_is_free():
    inst = generate_instance(8, 8, seed=21)
    assert np.allclose(np.diag(inst.delay), 0.0)
    off = inst.delay[~np.eye(8, dtype=bool)]
    assert off.min() >= 2.0  # distinct anchors sit at least one link apart

    wide = generate_instance(3, 6, seed=21)
    assert np.allclose(np.diag(wide.delay), 0.0)
    tall = generate_instance(6, 3, seed=21)
    assert np.allclose(np.diag(tall.delay), 0.0)
