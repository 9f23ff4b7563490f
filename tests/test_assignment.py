import itertools

import numpy as np
import pytest

from swapbound.assignment import (
    Assignment,
    assign_qubits,
    connected_subsets,
    degree_floor,
    enumerate_connected_subgraph_classes,
    exchanges,
    graph_edit_distance,
    max_swap_bound,
    most_connected_subgraph,
    pending_interactions,
    vf2_embed,
)
from swapbound.circuits import Circuit, interaction_graph
from swapbound.errors import ValidationError
from swapbound.graphs import (
    Graph,
    bfs_distances,
    canonical_form,
    induced_subgraph,
    is_bipartite,
    is_connected,
)

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


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Independent edges: possibly disconnected, possibly empty."""
    return graph_from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


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


def test_enumerate_past_the_class_budget_is_none_and_classes_nothing(tshape7, monkeypatch):
    count = len(list(connected_subsets(tshape7, 4)))
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", count)
    assert len(enumerate_connected_subgraph_classes(tshape7, 4)) == 2  # at the budget
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", count - 1)
    monkeypatch.setattr("swapbound.assignment.canonical_form", lambda g: pytest.fail("classed"))
    assert enumerate_connected_subgraph_classes(tshape7, 4) is None
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", 2)
    assert enumerate_connected_subgraph_classes(tshape7, 4) is None


# --- the assignment ------------------------------------------------------------

def test_assignment_derives_the_induced_subgraph_and_positions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        # a random spanning tree plus extra edges, relabeled: any connected device
        n = draw(st.integers(1, 9))
        label = draw(st.permutations(range(n)))
        edges = [(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, n)]
        if n > 1:
            edges += draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
        cg = graph_from_edges(n, edges)
        subset = draw(st.sampled_from(list(connected_subsets(cg, draw(st.integers(1, n))))))
        return cg, tuple(draw(st.permutations(subset)))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        cg, ig_to_cg = case
        a = Assignment(ig_to_cg, cg)
        assert a.cg_subgraph_nodes == tuple(sorted(ig_to_cg))
        assert a.cg_subgraph == induced_subgraph(cg, a.cg_subgraph_nodes)
        assert tuple(a.cg_subgraph_nodes[x] for x in a.positions()) == ig_to_cg

    check()


@pytest.mark.parametrize(
    "ig_to_cg, match",
    [((0, 1, 1), "duplicate vertices"), ((0, 1, 4), "out of range"), ((0, 2), "disconnected")],
    ids=["repeated", "out_of_range", "disconnected"],
)
def test_assignment_rejects_a_repeated_out_of_range_or_disconnected_image(ig_to_cg, match):
    with pytest.raises(ValidationError, match=match):
        Assignment(ig_to_cg, path_graph(4))


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


def random_bipartite_graph(rng: np.random.Generator, n: int) -> Graph:
    """A random spanning tree plus random edges between its two colour classes."""
    tree = random_connected_graph(rng, n, 0.0)
    side = [d % 2 for d in bfs_distances(tree, 0)]
    cross = [(u, v) for u, v in itertools.combinations(range(n), 2) if side[u] != side[v]]
    return graph_from_edges(n, [*tree.edges, *(e for e in cross if rng.random() < 0.4)])


def test_vf2_returns_the_first_map_in_its_search_order():
    # the search places pattern vertices by (-degree, index) and tries host
    # vertices in ascending order, so it returns the lexicographically first
    # image sequence in that vertex order; every other host is bipartite, so
    # the reference also covers patterns with an odd cycle in such a host
    rng = np.random.default_rng(109)
    odd_in_bipartite = 0
    for i in range(200):
        n = int(rng.integers(3, 8))
        host = random_bipartite_graph(rng, n) if i % 2 else random_connected_graph(rng, n, 0.4)
        k = int(rng.integers(1, min(host.n, 5) + 1))
        pattern = random_graph(rng, k, 0.5)
        order = sorted(range(k), key=lambda v: (-pattern.degrees[v], v))
        expected = None
        for images in itertools.permutations(range(host.n), k):
            mapping = [0] * k
            for v, x in zip(order, images):
                mapping[v] = x
            if all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges):
                expected = tuple(mapping)
                break
        assert vf2_embed(pattern, host) == expected
        odd_in_bipartite += is_bipartite(host) and not is_bipartite(pattern)
    assert odd_in_bipartite > 10


def test_vf2_odd_cycles_do_not_embed_in_grids_or_trees():
    # a map keeping every edge would 2-colour the cycle, so the answer needs
    # no search, which for C21 in the 6x6 grid would take minutes
    binary_tree = graph_from_edges(15, [((v - 1) // 2, v) for v in range(1, 15)])
    for k in (3, 5, 7, 21):
        assert vf2_embed(cycle_graph(k), grid_graph(6, 6)) is None
        assert vf2_embed(cycle_graph(k), binary_tree) is None
    assert vf2_embed(cycle_graph(8), grid_graph(4, 4)) is not None


def test_vf2_embeds_a_long_path_without_recursing_per_vertex():
    assert vf2_embed(path_graph(3000), path_graph(3001)) == tuple(range(3000))


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


def test_ged_of_empty_graphs_is_zero():
    result = graph_edit_distance(Graph(0), Graph(0))
    assert (result.distance, result.best_bijection) == (0, ())


def test_ged_cutoff_keeps_the_result_above_the_distance_and_is_none_at_or_below():
    rng = np.random.default_rng(97)
    for _ in range(80):
        n = int(rng.integers(1, 7))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)))
        h = random_connected_graph(rng, n, 0.3)
        full = graph_edit_distance(g, h)
        for cutoff in range(full.distance + 4):
            expected = full if cutoff > full.distance else None
            assert graph_edit_distance(g, h, cutoff) == expected


def test_degree_floor_is_admissible():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        h = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        floor = degree_floor(sorted(g.degrees), sorted(h.degrees))
        assert abs(g.num_edges() - h.num_edges()) <= floor <= graph_edit_distance(g, h).distance


def test_ged_matches_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g: Graph):
        x = nx.Graph()
        x.add_nodes_from(range(g.n))
        x.add_edges_from(g.edges)
        return x

    rng = np.random.default_rng(103)
    for n in (2, 3, 4, 5, 6, 6, 7, 7):
        for _ in range(3):
            g = random_graph(rng, n, 0.4)
            h = random_connected_graph(rng, n, 0.3)
            # a vertex deletion and insertion cost more than any edge edits,
            # so networkx also minimises over vertex bijections alone
            vertex_cost = lambda attrs: n * n
            expected = nx.graph_edit_distance(
                to_nx(g), to_nx(h), node_del_cost=vertex_cost, node_ins_cost=vertex_cost
            )
            assert graph_edit_distance(g, h).distance == expected


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
        if pattern.is_complete():
            continue  # dense path reports exact GED but without the vf2 probe
        res = assign_qubits(ig, tshape7)
        assert (res.ged == 0) == (vf2_embed(pattern, tshape7) is not None)


def test_assign_rejects_oversized_circuit():
    with pytest.raises(ValidationError):
        assign_qubits(ig_of(path_graph(5)), path_graph(4))


def test_assign_class_budget_forces_dense(tshape7, paw4, monkeypatch):
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", 2)
    res = assign_qubits(ig_of(paw4), tshape7)
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


def exhaustive_assignment(ig_graph: Graph, cg: Graph) -> tuple[tuple[int, ...], int]:
    """``(ig_to_cg, ged)`` of the class with least ``(GED, -edges, representative)``."""
    best = None
    for c in enumerate_connected_subgraph_classes(cg, ig_graph.n):
        result = graph_edit_distance(ig_graph, c.graph)
        key = (result.distance, -c.graph.num_edges(), c.representative_nodes)
        if best is None or key < best[0]:
            best = (key, result)
    (distance, _, nodes), result = best
    return tuple(nodes[b] for b in result.best_bijection), distance


def test_grouped_similarity_search_picks_the_exhaustive_class():
    rng = np.random.default_rng(107)
    checked = disconnected = 0
    for _ in range(300):
        cg = random_connected_graph(rng, int(rng.integers(4, 10)), float(rng.uniform(0.05, 0.4)))
        k = int(rng.integers(2, min(cg.n, 6) + 1))
        pattern = random_graph(rng, k, float(rng.uniform(0.2, 0.8)))
        res = assign_qubits(ig_of(pattern), cg)
        if res.method != "similarity":
            continue
        checked += 1
        disconnected += not is_connected(pattern)
        assert (res.assignment.ig_to_cg, res.ged) == exhaustive_assignment(pattern, cg)
    assert checked >= 80 and disconnected >= 25


def ring_plus_chords(k: int) -> Graph:
    """A k-ring plus k // 2 chords drawn by numpy seed 0."""
    rng = np.random.default_rng(0)
    edges = {tuple(sorted((i, (i + 1) % k))) for i in range(k)}
    while len(edges) < k + k // 2:
        edges.add(tuple(sorted(int(v) for v in rng.choice(k, 2, replace=False))))
    return graph_from_edges(k, edges)


def test_assign_ring_plus_chords_k9_on_grid():
    # 2,032 connected 9-subsets in 92 classes; the degree floor leaves all
    # but 100 subsets unclassed, and 6 of the classes get a GED search
    res = assign_qubits(ig_of(ring_plus_chords(9)), grid_graph(4, 4))
    a = res.assignment
    assert (res.method, res.ged) == ("similarity", 2)
    assert a.cg_subgraph_nodes == (0, 1, 2, 4, 5, 6, 7, 8, 9)
    assert a.ig_to_cg == (9, 8, 4, 0, 1, 2, 6, 7, 5)


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


def test_most_connected_exchange_reaches_what_growth_misses():
    # a hub with four leaves, two of them joined: growth from the hub takes
    # the smallest leaves, (0, 1, 2) with 2 edges; exchanging 1 for 3 closes
    # the triangle
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)])
    best = max(induced_subgraph(g, s).num_edges() for s in connected_subsets(g, 3))
    nodes = most_connected_subgraph(g, 3)
    assert nodes == (0, 2, 3)
    assert induced_subgraph(g, nodes).num_edges() == best == 3


# --- routing model -------------------------------------------------------------

def test_routing_model_matches_its_plain_definitions():
    # An interaction is pending unless the subgraph has an edge between the
    # labels of its endpoints; the exchange across subgraph edge (x, y) swaps
    # the labels x and y wherever they sit in the placement.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        k = draw(st.integers(2, 8))
        pairs = st.sampled_from(list(itertools.combinations(range(k), 2)))
        # interactions in either orientation: the result keeps the tuples given
        edges = {(u, v) if draw(st.booleans()) else (v, u) for u, v in draw(st.sets(pairs))}
        sub = graph_from_edges(k, draw(st.sets(pairs)))
        return frozenset(edges), sub, tuple(draw(st.permutations(range(k))))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        edges, sub, pos = case
        pending = frozenset(e for e in edges if not sub.has_edge(pos[e[0]], pos[e[1]]))
        assert pending_interactions(edges, pos, sub.edges) == pending
        assert exchanges(pos, sub) == [
            tuple({x: y, y: x}.get(label, label) for label in pos) for x, y in sub.edge_list
        ]

    check()


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
