import itertools
import random

import pytest

from swapbound.errors import ValidationError
from swapbound.graphs import (
    canonical_form,
    connected_components,
    graph_diameter,
    induced_subgraph,
    is_connected,
)

from conftest import (
    all_graphs,
    brute_force_isomorphic,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    relabel,
    star_graph,
)


def test_from_edges_normalizes_and_dedups():
    g = graph_from_edges(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edge_list == ((0, 1), (1, 2))
    assert g.degrees == (1, 2, 1)


def test_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(0, 3)])


def test_diameter_examples():
    assert graph_diameter(path_graph(4)) == 3
    assert graph_diameter(complete_graph(4)) == 1
    assert graph_diameter(star_graph(4)) == 2


def test_diameter_disconnected_raises():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="components"):
        graph_diameter(g)


def test_diameter_one_iff_complete():
    for n in range(2, 6):
        for g in all_graphs(n):
            if not is_connected(g):
                continue
            assert (graph_diameter(g) == 1) == g.is_complete()


def test_diameter_relabel_invariant():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    for perm in itertools.permutations(range(5)):
        assert graph_diameter(relabel(g, perm)) == graph_diameter(g)


def test_induced_subgraph_examples():
    p4 = path_graph(4)
    assert induced_subgraph(p4, [0, 1, 2]).edge_list == ((0, 1), (1, 2))
    assert induced_subgraph(complete_graph(4), [1, 2, 3]) == complete_graph(3)
    assert induced_subgraph(p4, [0, 2]).num_edges() == 0


def test_induced_subgraph_respects_list_order():
    p4 = path_graph(4)
    assert induced_subgraph(p4, [2, 1, 0]).edge_list == ((0, 1), (1, 2))
    assert induced_subgraph(p4, [3, 1, 2]).edge_list == ((0, 2), (1, 2))


def test_induced_subgraph_identity():
    for g in all_graphs(4):
        assert induced_subgraph(g, range(4)) == g


def test_induced_subgraph_rejects_duplicates():
    with pytest.raises(ValidationError):
        induced_subgraph(path_graph(4), [0, 0, 1])


def test_connected_components_named():
    g = graph_from_edges(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


def test_canonical_form_matches_brute_force_isomorphism():
    for n in (3, 4):
        graphs = list(all_graphs(n))
        for g, h in itertools.combinations(graphs, 2):
            same_key = canonical_form(g) == canonical_form(h)
            assert same_key == brute_force_isomorphic(g, h)


def test_canonical_form_refinement_path_agrees():
    # a 9-vertex graph with non-trivial colour classes; relabelings share one key
    g = graph_from_edges(9, [(i, i + 1) for i in range(8)] + [(0, 4), (2, 6)])
    base = canonical_form(g)
    for seed_perm in ((8, 7, 6, 5, 4, 3, 2, 1, 0), (1, 0, 3, 2, 5, 4, 7, 6, 8)):
        assert canonical_form(relabel(g, seed_perm)) == base


# Non-isomorphic simple graphs on n = 1..5 vertices (OEIS A000088).
NONISOMORPHIC_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


@pytest.mark.parametrize("n", sorted(NONISOMORPHIC_GRAPH_COUNTS))
def test_canonical_form_exact_on_every_small_graph(n):
    # Invariance under a relabeling puts each isomorphism class on few keys;
    # hitting the class count exactly then means one key per class.
    rng = random.Random(n)
    keys = set()
    for g in all_graphs(n):
        key = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == key
        keys.add(key)
    assert len(keys) == NONISOMORPHIC_GRAPH_COUNTS[n]


def test_canonical_form_separates_regular_graphs_refinement_cannot():
    # Colour refinement leaves every vertex of a regular graph in one class,
    # so only the ordering search can tell these pairs apart.
    ring = [(i, (i + 1) % 5) for i in range(5)]
    c10 = cycle_graph(10)
    two_c5 = graph_from_edges(10, ring + [(u + 5, v + 5) for u, v in ring])
    petersen = graph_from_edges(
        10, ring + [(i + 5, (i + 2) % 5 + 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    )
    prism = graph_from_edges(
        10, ring + [(u + 5, v + 5) for u, v in ring] + [(i, i + 5) for i in range(5)]
    )
    rng = random.Random(10)
    for g, h in ((c10, two_c5), (petersen, prism)):
        assert canonical_form(g) != canonical_form(h)
        for graph in (g, h):
            perm = list(range(10))
            rng.shuffle(perm)
            assert canonical_form(relabel(graph, perm)) == canonical_form(graph)


def test_canonical_form_agrees_with_networkx_isomorphism():
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    st = hypothesis.strategies

    @st.composite
    def graph_pairs(draw):
        n = draw(st.integers(6, 10))
        pairs = list(itertools.combinations(range(n), 2))

        def graph():
            mask = draw(st.integers(0, (1 << len(pairs)) - 1))
            return graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])

        g = graph()
        if draw(st.booleans()):  # an isomorphic copy, or an independent graph
            return g, relabel(g, draw(st.permutations(range(n))))
        return g, graph()

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graph_pairs())
    def check(pair):
        g, h = pair
        same_key = canonical_form(g) == canonical_form(h)
        assert same_key == nx.is_isomorphic(to_nx(g), to_nx(h))

    check()
