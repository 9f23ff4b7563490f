import itertools

import numpy as np
import pytest

from swapbound.assignment import (
    assign_qubits,
    connected_subsets,
    enumerate_connected_subgraph_classes,
    graph_edit_distance,
    max_swap_bound,
    most_connected_subgraph,
    vf2_embed,
)
from swapbound.circuits import Circuit, interaction_graph
from swapbound.errors import ValidationError
from swapbound.graphs import Graph, canonical_form, induced_subgraph, is_connected

from conftest import (
    all_graphs,
    build_assignment,
    complete_graph,
    cycle_graph,
    exhaustive_ged,
    graph_from_edges,
    path_graph,
    random_connected_graph,
    star_graph,
)


def ig_of(graph: Graph, repeats: dict | None = None):
    gates = []
    for e in graph.edge_list:
        gates.extend([e] * (repeats or {}).get(e, 1))
    return interaction_graph(Circuit(graph.n, tuple(gates)))


# --- connected subset enumeration ----------------------------------------

def test_connected_subsets_match_exhaustive_enumeration():
    rng = np.random.default_rng(67)
    cases = [random_connected_graph(rng, n, 0.35) for n in (5, 6, 7, 8)]
    cases += [path_graph(6), complete_graph(5), star_graph(7)]
    for g in cases:
        for k in range(1, g.n + 1):
            got = sorted(connected_subsets(g, k))
            expected = sorted(
                subset
                for subset in itertools.combinations(range(g.n), k)
                if is_connected(induced_subgraph(g, subset))
            )
            assert got == expected  # coverage and exact multiplicity
            assert len(set(got)) == len(got)


def test_class_counts_cover_all_subsets(tshape7):
    for k in range(1, 8):
        classes = enumerate_connected_subgraph_classes(tshape7, k)
        subsets = list(connected_subsets(tshape7, k))
        class_keys = [canonical_form(c.graph) for c in classes]
        assert len(set(class_keys)) == len(class_keys)  # one entry per class
        keys = {canonical_form(induced_subgraph(tshape7, s)) for s in subsets}
        assert keys == set(class_keys)  # and every subset falls in one
        for c in classes:
            assert c.representative_nodes in subsets
            assert c.graph == induced_subgraph(tshape7, c.representative_nodes)


def test_tshape_k4_has_exactly_two_classes(tshape7):
    classes = enumerate_connected_subgraph_classes(tshape7, 4)
    assert len(classes) == 2
    shapes = {canonical_form(c.graph) for c in classes}
    assert shapes == {canonical_form(path_graph(4)), canonical_form(star_graph(4))}


def test_single_class_hosts():
    assert len(enumerate_connected_subgraph_classes(path_graph(4), 4)) == 1
    assert len(enumerate_connected_subgraph_classes(complete_graph(4), 3)) == 1


def test_enumerate_rejects_oversize():
    with pytest.raises(ValidationError):
        enumerate_connected_subgraph_classes(path_graph(3), 4)


# --- vf2 -------------------------------------------------------------------

def test_vf2_p3_into_k3():
    assert vf2_embed(path_graph(3), complete_graph(3)) is not None


def test_vf2_claw_into_p4_fails():
    assert vf2_embed(star_graph(4), path_graph(4)) is None


def test_vf2_p4_into_tshape(tshape7):
    mapping = vf2_embed(path_graph(4), tshape7)
    assert mapping is not None


def test_vf2_embeddings_send_edges_to_edges():
    rng = np.random.default_rng(71)
    found = 0
    for _ in range(200):
        host = random_connected_graph(rng, int(rng.integers(4, 8)), 0.4)
        k = int(rng.integers(2, host.n + 1))
        pattern = random_connected_graph(rng, k, 0.3)
        mapping = vf2_embed(pattern, host)
        if mapping is None:
            continue
        found += 1
        assert len(set(mapping)) == pattern.n
        for u, v in pattern.edges:
            assert host.has_edge(mapping[u], mapping[v])
    assert found > 20


def test_vf2_finds_planted_embedding_always():
    rng = np.random.default_rng(73)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        pattern = random_connected_graph(rng, k, 0.4)
        # plant a relabeled copy inside a larger host, attach the rest as leaves
        n = k + int(rng.integers(1, 4))
        placement = [int(x) for x in rng.permutation(n)]
        planted, others = placement[:k], placement[k:]
        edges = {tuple(sorted((planted[u], planted[v]))) for u, v in pattern.edges}
        attached = list(planted)
        for o in others:
            anchor = attached[int(rng.integers(0, len(attached)))]
            edges.add(tuple(sorted((o, anchor))))
            attached.append(o)
        host = graph_from_edges(n, edges)
        assert vf2_embed(pattern, host) is not None


# --- graph edit distance ----------------------------------------------------

def test_ged_identical_is_zero():
    g = cycle_graph(5)
    result = graph_edit_distance(g, g)
    assert result.distance == 0
    assert result.best_bijection == (0, 1, 2, 3, 4)


def test_ged_p4_vs_claw_is_two():
    assert exhaustive_ged(path_graph(4), star_graph(4)) == 2
    assert graph_edit_distance(path_graph(4), star_graph(4)).distance == 2


def test_ged_matches_exhaustive_on_all_small_pairs():
    for n in (3, 4):
        graphs = list(all_graphs(n))
        for g in graphs:
            for h in graphs:
                expected = exhaustive_ged(g, h)
                result = graph_edit_distance(g, h)
                assert result.distance == expected
                mapped = {
                    tuple(sorted((result.best_bijection[u], result.best_bijection[v])))
                    for u, v in g.edges
                }
                assert len(mapped.symmetric_difference(h.edges)) == expected


def test_ged_returns_lexicographically_smallest_optimum():
    for n in (3, 4):
        rng = np.random.default_rng(79 + n)
        for _ in range(60):
            g = random_connected_graph(rng, n, 0.5)
            h = random_connected_graph(rng, n, 0.5)
            result = graph_edit_distance(g, h)
            optimal = [
                perm
                for perm in itertools.permutations(range(n))
                if len(
                    {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}.symmetric_difference(
                        h.edges
                    )
                )
                == result.distance
            ]
            assert result.best_bijection == min(optimal)


def test_ged_symmetry_and_triangle():
    rng = np.random.default_rng(83)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        g = random_connected_graph(rng, n, 0.4)
        h = random_connected_graph(rng, n, 0.4)
        f = random_connected_graph(rng, n, 0.4)
        dgh = graph_edit_distance(g, h).distance
        assert dgh == graph_edit_distance(h, g).distance
        assert dgh >= abs(g.num_edges() - h.num_edges())
        assert dgh <= graph_edit_distance(g, f).distance + graph_edit_distance(f, h).distance


def test_ged_size_mismatch():
    with pytest.raises(ValidationError):
        graph_edit_distance(path_graph(3), path_graph(4))


# --- assign_qubits -----------------------------------------------------------

def test_assign_isomorphic_path(tshape7):
    res = assign_qubits(ig_of(path_graph(3)), path_graph(4))
    assert res.method == "vf2"
    assert res.ged == 0
    a = res.assignment
    for u, v in path_graph(3).edges:
        assert a.cg_subgraph.has_edge(a.positions()[u], a.positions()[v])


def test_assign_paw_on_tshape_similarity(tshape7, paw4):
    res = assign_qubits(ig_of(paw4), tshape7)
    assert res.method == "similarity"
    assert res.ged == 1


def test_assign_k4_on_p4():
    res = assign_qubits(ig_of(complete_graph(4)), path_graph(4))
    assert res.method == "dense"  # complete interaction graphs take the shortcut
    assert res.ged == 3  # 6 edges minus the path's 3, exact for complete IGs


def test_assign_ged_zero_iff_vf2(tshape7):
    rng = np.random.default_rng(89)
    for _ in range(60):
        k = int(rng.integers(2, 5))
        pattern = random_connected_graph(rng, k, 0.35)
        ig = ig_of(pattern)
        if pattern.is_complete() and k >= 2:
            continue  # dense path reports exact GED but without the vf2 probe
        res = assign_qubits(ig, tshape7)
        assert (res.ged == 0) == (vf2_embed(pattern, tshape7) is not None)


def test_assign_rejects_oversized_circuit():
    with pytest.raises(ValidationError):
        assign_qubits(ig_of(path_graph(5)), path_graph(4))


def test_assign_rejects_class_budget_below_one(tshape7, paw4):
    with pytest.raises(ValidationError, match="class_budget must be >= 1"):
        assign_qubits(ig_of(paw4), tshape7, class_budget=0)


def test_assign_class_budget_forces_dense(tshape7, paw4):
    res = assign_qubits(ig_of(paw4), tshape7, class_budget=2)
    assert res.method == "dense"
    assert res.ged >= 1  # upper bound on the similarity search result


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return graph_from_edges(rows * cols, edges)


@pytest.mark.parametrize(
    "k, ged, ig_to_cg",
    [
        (5, 1, (0, 2, 1, 5, 4)),
        (6, 2, (0, 1, 2, 6, 5, 4)),
        (7, 2, (1, 3, 2, 6, 5, 4, 0)),
    ],
)
def test_assign_ring_chord_on_grid_ladder(k, ged, ig_to_cg):
    # The chord (0, 2) closes an odd cycle, so nothing embeds in the bipartite
    # grid and every connected k-subset of the 4x4 grid gets classed.
    ring_chord = graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)] + [(0, 2)])
    res = assign_qubits(ig_of(ring_chord), grid_graph(4, 4))
    assert (res.method, res.ged, res.assignment.ig_to_cg) == ("similarity", ged, ig_to_cg)


def test_assign_disconnected_ig_still_places(tshape7):
    # two components: vf2 image may induce a disconnected subgraph, so the
    # similarity fallback must deliver a connected host
    ig = interaction_graph(Circuit(4, ((0, 1), (2, 3))))
    res = assign_qubits(ig, tshape7)
    assert is_connected(res.assignment.cg_subgraph)


# --- most connected subgraph --------------------------------------------------

def test_most_connected_on_k5():
    nodes = most_connected_subgraph(complete_graph(5), 3)
    sub = induced_subgraph(complete_graph(5), nodes)
    assert sub.num_edges() == 3


def test_most_connected_on_p4():
    nodes = most_connected_subgraph(path_graph(4), 3)
    assert induced_subgraph(path_graph(4), nodes).num_edges() == 2


def test_most_connected_on_tshape_prefers_low_indices(tshape7):
    # claw {0,1,2,3} and the paths tie at 3 edges; index tie-break keeps the claw
    nodes = most_connected_subgraph(tshape7, 4)
    assert nodes == (0, 1, 2, 3)
    assert canonical_form(induced_subgraph(tshape7, nodes)) == canonical_form(star_graph(4))


def test_most_connected_matches_exhaustive_edge_count():
    rng = np.random.default_rng(97)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(4, 8)), 0.4)
        for k in range(2, g.n + 1):
            nodes = most_connected_subgraph(g, k)
            got = induced_subgraph(g, nodes).num_edges()
            best = max(
                induced_subgraph(g, s).num_edges() for s in connected_subsets(g, k)
            )
            # greedy plus exchange is a heuristic; it must stay within one
            # edge of optimal on these sizes and be connected
            assert is_connected(induced_subgraph(g, nodes))
            assert got >= best - 1


# --- max swap bound ------------------------------------------------------------

def test_max_swap_bound_formula():
    ig = ig_of(complete_graph(4))  # 6 unit-multiplicity gates
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    assert max_swap_bound(ig, a) == 6 * (3 - 1)


def test_max_swap_bound_complete_subgraph_is_zero():
    ig = ig_of(complete_graph(3))
    a = build_assignment(complete_graph(3), (0, 1, 2))
    assert max_swap_bound(ig, a) == 0


def test_max_swap_bound_counts_multiplicity():
    ig = ig_of(path_graph(3), repeats={(0, 1): 2})  # 3 gates over 2 edges
    a = build_assignment(path_graph(3), (0, 1, 2))
    assert max_swap_bound(ig, a) == 3 * (2 - 1)
