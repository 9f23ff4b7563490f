import itertools
from collections import deque

import numpy as np
import pytest

from swapbound.assignment import Assignment, assign_qubits, exchanges, pending_interactions
from swapbound.circuits import Circuit, interaction_graph
from swapbound.errors import SizeGuardError, ValidationError
from swapbound.graphs import Edge, Graph, normalize_edge
from swapbound.oracle import (
    _min_swaps,
    _SwapFloor,
    brute_force_min_swaps,
    brute_force_over_assignments,
)
from swapbound.uncomplexity import beta_sweep

from conftest import (
    build_assignment,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    random_connected_graph,
    relabel,
    star_graph,
)
from reference_spectral import remove_trivial_edges


def solvable_within(ig: Graph, a: Assignment, depth: int) -> bool:
    """Independent depth-limited DFS (no dedup): can we finish in <= depth swaps?"""
    sub = a.cg_subgraph

    def close(pos, remaining):
        return frozenset(
            e for e in remaining if normalize_edge(pos[e[0]], pos[e[1]]) not in sub.edges
        )

    def dfs(pos, remaining, budget):
        remaining = close(pos, remaining)
        if not remaining:
            return True
        if budget == 0:
            return False
        for x, y in sub.edge_list:
            u, v = pos.index(x), pos.index(y)
            npos = list(pos)
            npos[u], npos[v] = y, x
            if dfs(tuple(npos), remaining, budget - 1):
                return True
        return False

    return dfs(a.positions(), frozenset(ig.edges), depth)


def test_isomorphic_placement_is_zero():
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    assert brute_force_min_swaps(path_graph(4), a) == 0


def test_star_on_path_center_at_one():
    # hub at node 1 reaches nodes 0 and 2; one swap fetches the last leaf
    star = star_graph(4)
    a = build_assignment(path_graph(4), (1, 0, 2, 3))
    assert brute_force_min_swaps(star, a) == 1
    assert not solvable_within(star, a, 0)
    assert solvable_within(star, a, 1)


def test_k4_on_path_is_three():
    k4 = complete_graph(4)
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    assert brute_force_min_swaps(k4, a) == 3
    assert not solvable_within(k4, a, 2)
    assert solvable_within(k4, a, 3)


def test_over_assignments_examples():
    assert brute_force_over_assignments(path_graph(3), path_graph(4))[0] == 0
    count, best = brute_force_over_assignments(star_graph(4), path_graph(4))
    assert count == 1
    assert best.cg_subgraph_nodes == (0, 1, 2, 3)
    assert brute_force_over_assignments(complete_graph(4), path_graph(4))[0] == 3


@pytest.mark.parametrize(
    "cg",
    [
        graph_from_edges(4, [(0, 1), (2, 3)]),  # every component smaller than k
        graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]),  # one component large enough
    ],
)
def test_over_assignments_rejects_a_disconnected_coupling_graph(cg):
    # the same rule, and the same error, as assign_qubits
    ig = path_graph(3)
    with pytest.raises(ValidationError, match="coupling graph must be connected"):
        assign_qubits(interaction_graph(Circuit(3, ig.edge_list)), cg)
    with pytest.raises(ValidationError, match="coupling graph must be connected"):
        brute_force_over_assignments(ig, cg)


def test_over_assignments_past_the_class_budget_raises_before_any_search(
    tshape7, paw4, monkeypatch
):
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", 2)
    monkeypatch.setattr("swapbound.oracle._min_swaps", lambda *args: pytest.fail("searched"))
    # the paw's triangle has no image in the tree, so no placement is free
    with pytest.raises(SizeGuardError, match="guarded at 2 connected 4-subsets"):
        brute_force_over_assignments(paw4, tshape7)
    # the claw embeds on the hub: 0 swaps, which no placement beats
    count, a = brute_force_over_assignments(star_graph(4), tshape7)
    assert (count, a.ig_to_cg) == (0, (1, 0, 2, 3))


@pytest.mark.parametrize(
    "ig", [path_graph(5), graph_from_edges(3, [(0, 2)])], ids=["five_on_four", "three_on_four"]
)
def test_an_assignment_that_does_not_cover_the_interaction_graph_is_rejected(ig):
    # four placed qubits cover neither a five-vertex nor a three-vertex graph
    a = Assignment((0, 1, 2, 3), path_graph(4))
    message = "assignment does not cover the interaction graph"
    with pytest.raises(ValidationError, match=message):
        brute_force_min_swaps(ig, a)
    with pytest.raises(ValidationError, match=message):
        beta_sweep(interaction_graph(Circuit(ig.n, tuple(ig.edge_list))), a)


def test_size_guard():
    big = path_graph(9)
    a = build_assignment(path_graph(9), tuple(range(9)))
    with pytest.raises(SizeGuardError):
        brute_force_min_swaps(big, a)
    with pytest.raises(SizeGuardError):
        brute_force_over_assignments(big, path_graph(9))


def test_zero_iff_trivial_removal_empties():
    rng = np.random.default_rng(101)
    for _ in range(80):
        k = int(rng.integers(2, 6))
        cg = random_connected_graph(rng, int(rng.integers(k, 7)), 0.4)
        ig = random_connected_graph(rng, k, 0.4)
        nodes = map_random_assignment(rng, cg, k)
        a = build_assignment(cg, nodes)
        zero = brute_force_min_swaps(ig, a) == 0
        assert zero == (remove_trivial_edges(ig, a).num_edges() == 0)


def map_random_assignment(rng, cg: Graph, k: int) -> tuple[int, ...]:
    """Random connected k-subset of cg in random bijection order."""
    from swapbound.assignment import connected_subsets

    subsets = list(connected_subsets(cg, k))
    nodes = list(subsets[int(rng.integers(0, len(subsets)))])
    rng.shuffle(nodes)
    return tuple(int(x) for x in nodes)


def test_relabel_invariance():
    rng = np.random.default_rng(103)
    for _ in range(30):
        k = int(rng.integers(3, 6))
        ig = random_connected_graph(rng, k, 0.5)
        cg = random_connected_graph(rng, k, 0.5)
        a = build_assignment(cg, tuple(range(k)))
        base = brute_force_min_swaps(ig, a)
        perm = [int(x) for x in rng.permutation(k)]
        ig2 = relabel(ig, perm)
        cg2 = relabel(cg, perm)
        # identity assignment on the co-relabeled pair is the same instance
        a2 = build_assignment(cg2, tuple(range(k)))
        assert brute_force_min_swaps(ig2, a2) == base


def test_monotone_in_interaction_edges():
    rng = np.random.default_rng(107)
    for _ in range(40):
        k = int(rng.integers(3, 6))
        cg = random_connected_graph(rng, k, 0.4)
        ig = random_connected_graph(rng, k, 0.3)
        missing = [
            (u, v)
            for u, v in itertools.combinations(range(k), 2)
            if not ig.has_edge(u, v)
        ]
        if not missing:
            continue
        a = build_assignment(cg, tuple(range(k)))
        base = brute_force_min_swaps(ig, a)
        extra = missing[int(rng.integers(0, len(missing)))]
        grown = Graph(k, ig.edges | {extra})
        assert brute_force_min_swaps(grown, a) >= base


def reference_min_swaps(
    starts: list[tuple[int, ...]], remaining0: frozenset[Edge], sub: Graph
) -> tuple[int, tuple[int, ...]]:
    """The frozenset-state BFS the int-state oracle replaced, kept verbatim."""
    sub_edges = sub.edges
    queue: deque[tuple[tuple[int, ...], frozenset[Edge], int, int]] = deque()
    visited = set()
    for idx, pos in enumerate(starts):
        closed = pending_interactions(remaining0, pos, sub_edges)
        if not closed:
            return 0, starts[idx]
        state = (pos, closed)
        if state not in visited:
            visited.add(state)
            queue.append((pos, closed, idx, 0))

    while queue:
        pos, remaining, idx, depth = queue.popleft()
        for x, y in sub.edge_list:
            new_pos = list(pos)
            u = pos.index(x)
            v = pos.index(y)
            new_pos[u], new_pos[v] = y, x
            npos = tuple(new_pos)
            closed = pending_interactions(remaining, npos, sub_edges)
            if not closed:
                return depth + 1, starts[idx]
            state = (npos, closed)
            if state not in visited:
                visited.add(state)
                queue.append((npos, closed, idx, depth + 1))
    raise AssertionError("swap search exhausted without emptying the interaction set")


def test_int_state_bfs_matches_frozenset_reference():
    # Same count and same winning start, for one start and for all k!
    # starts (as brute_force_over_assignments passes them): pins the
    # tie-break, not only the optimum.
    rng = np.random.default_rng(109)
    for k in range(2, 7):
        every = list(itertools.permutations(range(k)))
        for _ in range(12):
            ig = random_connected_graph(rng, k, float(rng.uniform(0.1, 0.9)))
            sub = random_connected_graph(rng, k, float(rng.uniform(0.0, 0.5)))
            remaining0 = frozenset(ig.edges)
            one = [tuple(int(x) for x in rng.permutation(k))]
            for starts in (one, every):
                assert _min_swaps(starts, remaining0, sub) == reference_min_swaps(
                    starts, remaining0, sub
                )


def image_of(interactions, pos: tuple[int, ...], k: int) -> int:
    """The image layout, written out: bits ``x*k + y`` and ``y*k + x`` per interaction."""
    return sum((1 << pos[u] * k + pos[v]) | (1 << pos[v] * k + pos[u]) for u, v in interactions)


def test_swap_floor_is_admissible_consistent_and_positive():
    # The A* heuristic: never above the reference optimum at a start,
    # drops by at most one per swap along every subgraph edge, and is at
    # least one while anything is pending. Its gap >= 1 bits are exactly
    # the routing model's blocked interactions.
    rng = np.random.default_rng(113)
    for k in range(2, 8):
        for _ in range(8):
            ig = random_connected_graph(rng, k, float(rng.uniform(0.1, 0.9)))
            sub = random_connected_graph(rng, k, float(rng.uniform(0.0, 0.5)))
            edges = sorted(ig.edges)
            floor = _SwapFloor(edges, sub)
            gapped = sum(mask for _, mask in floor.gaps)

            for _ in range(3):
                pos = tuple(int(x) for x in rng.permutation(k))
                image = floor.image(pos)
                blocked = image_of(pending_interactions(edges, pos, sub.edges), pos, k)
                assert image == image_of(edges, pos, k) & gapped == blocked
                start_floor = floor(image)
                count, _ = reference_min_swaps([pos], frozenset(edges), sub)
                assert start_floor <= count
                for _ in range(count + 2):
                    h = floor(image)
                    assert (h >= 1) == (image != 0)
                    moves = floor.successors(image)
                    for nimage in moves:
                        assert h <= 1 + floor(nimage)
                    image = moves[int(rng.integers(0, len(moves)))]


def test_image_swaps_are_the_routing_model():
    # The oracle routes images, not placements: a swap across (x, y) is
    # two delta-swaps of the bit matrix, and closing is one mask. Each
    # successor is the image of what assignment.exchanges and
    # assignment.pending_interactions, the descent's routing model, give.
    rng = np.random.default_rng(127)
    for k in range(2, 9):
        for _ in range(10):
            ig = random_connected_graph(rng, k, float(rng.uniform(0.1, 0.9)))
            sub = random_connected_graph(rng, k, float(rng.uniform(0.0, 0.5)))
            pos = tuple(int(x) for x in rng.permutation(k))
            some = [e for e in ig.edge_list if rng.random() < 0.7]
            pending = pending_interactions(some, pos, sub.edges)
            floor = _SwapFloor(sorted(pending), sub)
            image = floor.image(pos)
            assert image == image_of(pending, pos, k)
            assert floor.successors(image) == [
                image_of(pending_interactions(pending, npos, sub.edges), npos, k)
                for npos in exchanges(pos, sub)
            ]


@pytest.mark.parametrize(
    "edges, sub, expected",
    [
        ([(0, 4)], path_graph(5), 3),
        (
            [(0, 2), (1, 3), (4, 5)],
            graph_from_edges(6, [(0, 4), (1, 4), (1, 5), (2, 4), (3, 4)]),
            2,
        ),
        (list(complete_graph(6).edge_list), cycle_graph(6), 5),
    ],
    ids=["largest-gap", "gap-sum", "pending-count"],
)
def test_swap_floor_terms_are_tight(edges, sub, expected):
    # Each case is decided by one of the three counts alone, and that
    # count equals the optimum from the identity placement: one gap of 3
    # on a 5-path; three gaps of 1 that one swap (two tokens moved) can
    # close at most two of; nine pending pairs of K6 on a 6-ring, where a
    # swap makes at most two pairs newly adjacent.
    floor = _SwapFloor(edges, sub)
    pos = tuple(range(sub.n))
    start_floor = floor(floor.image(pos))
    assert start_floor == expected == _min_swaps([pos], frozenset(edges), sub)[0]


@pytest.mark.parametrize(
    "k, device, expected",
    [
        (6, path_graph(6), 10),
        (6, cycle_graph(6), 5),
        (7, cycle_graph(7), 9),
        (8, cycle_graph(8), 13),
    ],
    ids=["K6@path6", "K6@ring6", "K7@ring7", "K8@ring8"],
)
def test_dense_placement_oracle(k, device, expected):
    ig = interaction_graph(Circuit(k, tuple(complete_graph(k).edge_list)))
    placed = assign_qubits(ig, device)
    assert placed.method == "dense"
    assert brute_force_min_swaps(ig.graph, placed.assignment) == expected


@pytest.mark.parametrize("k, expected", [(7, 15), (8, 21)], ids=["K7@line7", "K8@line8"])
def test_complete_graph_on_a_line(k, expected):
    # The counts the placement-keyed search gave; K8@line8 took over a
    # minute there, and the image search takes about a second.
    a = build_assignment(path_graph(k), tuple(range(k)))
    assert brute_force_min_swaps(complete_graph(k), a) == expected
