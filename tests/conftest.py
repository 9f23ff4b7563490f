"""Shared graph zoo, instance generators, and independent oracles."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from swapbound.assignment import Assignment
from swapbound.circuits import Circuit, interaction_graph
from swapbound.graphs import Graph, induced_subgraph, is_connected, normalize_edge


# --- named small graphs -------------------------------------------------

def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """Hub at vertex 0 with n-1 leaves."""
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def tshape7() -> Graph:
    return graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])


@pytest.fixture
def paw4() -> Graph:
    return graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])


# --- exhaustive enumerations --------------------------------------------

def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield graph_from_edges(n, edges)


def connected_graphs(n: int):
    return (g for g in all_graphs(n) if is_connected(g))


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges):
            return True
    return False


def exhaustive_ged(g: Graph, h: Graph) -> int:
    """Minimum edge symmetric difference over every bijection."""
    assert g.n == h.n
    best = None
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
        cost = len(mapped.symmetric_difference(h.edges))
        if best is None or cost < best:
            best = cost
    return best


# --- random instance generators -----------------------------------------

def random_connected_graph(rng: np.random.Generator, n: int, extra_prob: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges."""
    perm = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = int(perm[i]), int(perm[j])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_prob:
                edges.add((u, v))
    return graph_from_edges(n, edges)


def random_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """Random two-qubit gate list with repeats and possibly idle qubits."""
    pool = list(itertools.combinations(range(n), 2))
    count = int(rng.integers(1, 2 * len(pool) + 1))
    picks = rng.integers(0, len(pool), size=count)
    return Circuit(n, tuple(pool[i] for i in picks))


def random_interaction_graph(rng: np.random.Generator, n: int):
    return interaction_graph(random_circuit(rng, n))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Wishart-style random density matrix (full rank a.s.)."""
    a = rng.normal(size=(dim, dim))
    m = a @ a.T + 1e-12 * np.eye(dim)
    return m / np.trace(m)


# --- scalar entropy oracles ----------------------------------------------

def scalar_entropy(probs) -> float:
    return float(-sum(p * math.log(p) for p in probs if p > 0.0))


def gibbs_probs(laplacian_eigenvalues, beta: float):
    shifted = [math.exp(-beta * (x - min(laplacian_eigenvalues))) for x in laplacian_eigenvalues]
    z = sum(shifted)
    return [x / z for x in shifted]


# --- test-only helpers the pipeline never calls ------------------------------


def graph_from_edges(n: int, edges) -> Graph:
    """Graph on ``n`` vertices; edges may come in either direction and repeat."""
    return Graph(n, frozenset(normalize_edge(int(u), int(v)) for u, v in edges))


def build_assignment(cg: Graph, ig_to_cg) -> Assignment:
    """IG vertex ``i`` on device node ``ig_to_cg[i]``, on the induced subgraph."""
    nodes = tuple(sorted(ig_to_cg))
    return Assignment(tuple(ig_to_cg), nodes, induced_subgraph(cg, nodes))


def relabel(g: Graph, mapping) -> Graph:
    """Graph with vertex i renamed to ``mapping[i]`` (a bijection on [0,n))."""
    assert sorted(mapping) == list(range(g.n)), "mapping is not a bijection"
    return Graph(g.n, frozenset(normalize_edge(mapping[u], mapping[v]) for u, v in g.edges))


def serialize_circuit(circuit: Circuit) -> str:
    """Circuit JSON that ``parse_circuit_json`` reads back."""
    return json.dumps(
        {
            "name": circuit.name,
            "qubits": circuit.num_qubits,
            "gates": [list(g) for g in circuit.two_qubit_gates],
        },
        indent=2,
    )


def serialize_device(spec) -> str:
    """Device JSON that ``parse_device`` reads back, up to edge ordering."""
    return json.dumps(
        {
            "name": spec.name,
            "num_qubits": spec.num_qubits,
            "edges": [list(e) for e in spec.coupling.edge_list],
        },
        indent=2,
    )
