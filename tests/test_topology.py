"""Scale-free topology generation and shortest-path delay matrices."""

import hashlib
import itertools

import numpy as np
import pytest

from edgeplan.core import InstanceError, save_instance
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
    # the whole graph must be connected, not only the anchors' component
    g = NetworkGraph(5, ((0, 1, 2.0), (1, 2, 3.0), (3, 4, 2.0)), seed=0)
    with pytest.raises(TopologyError, match="not connected"):
        all_pairs_delays(g, [0, 1], [2])


@pytest.mark.parametrize("second", [(0, 1, 3.0), (1, 0, 3.0)], ids=["same", "reversed"])
def test_repeated_edge_rejected(second):
    g = NetworkGraph(3, ((0, 1, 2.0), (1, 2, 1.0), second), seed=0)
    with pytest.raises(TopologyError, match=r"edge \(0, 1\) is repeated"):
        all_pairs_delays(g, [0], [1])


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


def test_negative_seed_is_refused_by_name():
    with pytest.raises(TopologyError, match="seed must be nonnegative, got -1"):
        generate_ba_graph(10, 2, seed=-1)
    with pytest.raises(TopologyError, match="got -3"):
        generate_instance(3, 3, seed=-3)


# SHA-256 digests of repr(graph.edges), as networkx 3.6.1's
# barabasi_albert_graph and numpy's delay draws built them
BA_DIGESTS = {
    (100, 2, 0): "843023a18d98069c1946d5ae6f899349bafe9c3e329f83112c61e563310014ff",
    (100, 2, 1): "c0f25b203f087c6bf830b881e996c238d552bcc65c0855bf86e0dda9a3d5a799",
    (100, 2, 2): "4dc9a357117c7b9ee612fdbfae6ce35a92043c28d2f406ff4383d958f10b5822",
    (50, 3, 0): "90d00c129186730338fad9b2c7c31e87e4dc01c62670fd3f20722bc62d8b311e",
    (50, 3, 1): "10d4b72a44051a3e8c166acd726b4fe2e2793454ad2545597b0a21b3be2324ec",
    (50, 3, 2): "808a80ef408faef50fc38eabc14430e71218e6c144c64e022404b0e3830d89c7",
    (30, 1, 0): "f3f03f926afbfca1af98926a8a44d072ddcabcd59c76027e0cb7bb0dbdedfde5",
    (30, 1, 1): "5d15f95f218ebac83f8d0688fabd1be593bff47401470b3a4bc6b39c433d7032",
    (30, 1, 2): "f30dee408c2696bf7ea1a6813760c7e44d113edf5b8d70e2649d450212291774",
}

# SHA-256 digests of save_instance(generate_instance(areas, nodes, seed=, dmax=)),
# pinned from the networkx-built graphs
INSTANCE_DIGESTS = {
    (5, 5, 0, np.inf): "c1bb4e97201dad4c7b8227ff4661a58a3fc695ed3924677b6d21e4bd42a1b292",
    (5, 5, 1, np.inf): "8916969871dbd0de4c697b83de7476cb8ef23a850e2827e97668d7dca62aa2f3",
    (10, 10, 0, np.inf): "342949a04fffbcef3c25484e5de9d5b684a86bf62329afdb8594ba8c53245295",
    (10, 10, 1, np.inf): "5d2dc404eccec19eb60894145acb25c8e2d0147fbbcab986335fe52cecf489d5",
    (20, 20, 0, np.inf): "b37d758d743ac626f514094422070e441ae09586ba0fe834cb9795eb0f22213e",
    (20, 20, 1, np.inf): "5fc3c6756c95f063e73d0caf601b75c58b94a80aac3cc265c342994df2e4b188",
    (6, 6, 0, 8.0): "6f49b5c275fd8447d99f0bd7441050e20492e128402f5e33293690199579a398",
}


@pytest.mark.parametrize("n, m, seed", list(BA_DIGESTS))
def test_ba_graph_matches_pinned_edges(n, m, seed):
    edges = generate_ba_graph(n, m, seed).edges
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == BA_DIGESTS[n, m, seed]


@pytest.mark.parametrize("areas, nodes, seed, dmax", list(INSTANCE_DIGESTS))
def test_generated_instance_file_matches_pinned_bytes(tmp_path, areas, nodes, seed, dmax):
    path = tmp_path / "instance.json"
    save_instance(generate_instance(areas, nodes, seed=seed, dmax=dmax), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == INSTANCE_DIGESTS[areas, nodes, seed, dmax]
