"""Random service topologies: scale-free graphs, shortest-path delays, instances."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from .core import InstanceError, ProblemInstance, UncertaintyModel

DELAY_RANGE = (2.0, 10.0)


class TopologyError(ValueError):
    """Graph construction or lookup failed (bad parameters, disconnected input)."""


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected weighted graph plus the seed that built it."""

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]  # (u, v, delay_ms)
    seed: int


def generate_ba_graph(n: int, m: int, seed: int) -> NetworkGraph:
    """Preferential-attachment graph with uniform link delays.

    Construction starts from an m-leaf star and attaches each of the
    remaining n-m-1 nodes to m existing nodes proportionally to degree,
    yielding exactly m*(n-m) edges.  Delays are drawn uniformly from
    `DELAY_RANGE`, one draw per edge, ordered by sorted edge key so the
    same seed reproduces the same weighted graph bit for bit.  The
    attachment draws are those of networkx's `barabasi_albert_graph`.
    """
    if m < 1 or n <= m:
        raise TopologyError(f"need n > m >= 1, got n={n}, m={m}")
    if seed < 0:
        raise TopologyError(f"seed must be nonnegative, got {seed}")
    draw = random.Random(seed).choice
    edges = [(0, v) for v in range(1, m + 1)]
    # every node once per incident edge, so a uniform pick is degree-proportional
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(draw(repeated))
        edges.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    edges.sort()
    rng = np.random.default_rng(seed)
    weights = rng.uniform(*DELAY_RANGE, len(edges))
    return NetworkGraph(n, tuple((u, v, float(w)) for (u, v), w in zip(edges, weights)), seed)


def all_pairs_delays(graph: NetworkGraph, ap_nodes, en_nodes) -> np.ndarray:
    """Shortest-path delay matrix d[i][j] between AP and EN anchor nodes.

    The whole graph must be connected, not just the anchors' component.
    """
    ap_nodes = [int(v) for v in ap_nodes]
    en_nodes = [int(v) for v in en_nodes]
    for v in ap_nodes + en_nodes:
        if v < 0 or v >= graph.num_nodes:
            raise TopologyError(f"node {v} outside the graph")
    n = graph.num_nodes
    ends = np.array([(u, v) for u, v, _ in graph.edges], dtype=np.int64).reshape(-1, 2)
    seen = set()
    for edge in ((min(u, v), max(u, v)) for u, v, _ in graph.edges):
        if edge in seen:
            raise TopologyError(f"edge {edge} is repeated")
        seen.add(edge)
    weights = np.array([w for _, _, w in graph.edges], dtype=float)
    adjacency = coo_matrix((weights, (ends[:, 0], ends[:, 1])), shape=(n, n)).tocsr()
    if n and csgraph.connected_components(adjacency, directed=False)[0] > 1:
        raise TopologyError("graph is not connected")
    d = csgraph.dijkstra(adjacency, directed=False, indices=ap_nodes)
    return d[:, en_nodes]


def generate_instance(num_areas: int, num_nodes: int, *, seed: int,
                      graph_nodes: int = 100, attachment: int = 2,
                      gamma: int = 5, failure_budget: int = 2,
                      deviation_ratio: float = 0.6, beta: float = 0.1,
                      budget: float = 20.0, unmet_penalty: float = 0.5,
                      dmax: float = math.inf) -> ProblemInstance:
    """Random instance over a scale-free topology with the default parameter table.

    Each area keeps an edge node at its own anchor: a single set of
    max(num_areas, num_nodes) distinct graph nodes carries the areas on its
    first num_areas entries and the edge nodes on its first num_nodes, so
    area i and node i share an anchor (zero local delay) for
    i < min(num_areas, num_nodes).  Serving an area locally then costs no
    delay charge while remote service pays the shortest-path toll, which is
    what makes placement decisions bite at the default penalty scale.
    Demands, prices, capacities and placement costs come from the fixed
    ranges of the README's table.  The service starts uninstalled
    everywhere: node charges are the placement costs alone.
    """
    if num_areas < 1 or num_nodes < 1:
        raise InstanceError("need at least one area and one node")
    gamma = min(int(gamma), num_areas)
    failure_budget = min(int(failure_budget), num_nodes)
    graph = generate_ba_graph(graph_nodes, attachment, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_areas, num_nodes]))
    need = max(num_areas, num_nodes)
    if need > graph_nodes:
        raise InstanceError(f"{need} anchors exceed {graph_nodes} graph nodes; grow the graph")
    anchors = rng.permutation(graph_nodes)[:need]
    ap_nodes, en_nodes = anchors[:num_areas], anchors[:num_nodes]
    delay = all_pairs_delays(graph, ap_nodes, en_nodes)

    nominal = rng.uniform(5.0, 40.0, num_areas)
    price = rng.uniform(0.02, 0.06, num_nodes)
    capacity = rng.choice(np.array([32.0, 48.0, 64.0]), num_nodes)
    placement_cost = rng.uniform(0.1, 0.2, num_nodes)

    return ProblemInstance(
        price=price,
        capacity=capacity,
        placement_cost=placement_cost,
        storage_cost=np.zeros(num_nodes),
        initial_placement=np.zeros(num_nodes, dtype=np.int8),
        delay=delay,
        beta=beta,
        unmet_penalty=np.full(num_areas, float(unmet_penalty)),
        budget=budget,
        nominal_demand=nominal,
        demand_deviation=deviation_ratio * nominal,
        uncertainty=UncertaintyModel(gamma, failure_budget, deviation_ratio=deviation_ratio),
        dmax=dmax,
    )
