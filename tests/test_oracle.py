import itertools
from collections import deque

import numpy as np
import pytest

from swapbound.assignment import Assignment, assign_qubits, pending_interactions
from swapbound.circuits import Circuit, interaction_graph
from swapbound.errors import SizeGuardError
from swapbound.graphs import Edge, Graph, normalize_edge
from swapbound.oracle import (
    _min_swaps,
    _SwapFloor,
    brute_force_min_swaps,
    brute_force_over_assignments,
)

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

            def blocked(pos):
                still = pending_interactions(edges, pos, sub.edges)
                return sum(1 << b for b, e in enumerate(edges) if e in still)

            for _ in range(3):
                pos = tuple(int(x) for x in rng.permutation(k))
                pending = blocked(pos)
                assert pending == sum(mask for _, mask in floor.layers(pos))
                start_floor = floor(pending, floor.layers(pos))
                count, _ = reference_min_swaps([pos], frozenset(edges), sub)
                assert start_floor <= count
                for _ in range(count + 2):
                    h = floor(pending, floor.layers(pos))
                    assert (h >= 1) == (pending != 0)
                    moves = []
                    for x, y in sub.edge_list:
                        npos = list(pos)
                        npos[pos.index(x)], npos[pos.index(y)] = y, x
                        npos = tuple(npos)
                        npending = pending & blocked(npos)
                        assert h <= 1 + floor(npending, floor.layers(npos))
                        moves.append((npos, npending))
                    pos, pending = moves[int(rng.integers(0, len(moves)))]


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
    layers = floor.layers(pos)
    start_floor = floor(sum(mask for _, mask in layers), layers)
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
