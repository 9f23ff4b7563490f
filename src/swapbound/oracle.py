"""Exact minimum swap counts by breadth-first search.

The routing model matches the bound being validated: every interaction
whose endpoints sit on adjacent subgraph nodes executes for free, swaps
along subgraph edges cost one each, and gate ordering is ignored. States
are kept canonical by closing all executable interactions before
branching, which halves the space and makes deduplication sound.
"""

from __future__ import annotations

import itertools
from collections import deque

from .assignment import Assignment, enumerate_connected_subgraph_classes, pending_interactions
from .errors import SizeGuardError
from .graphs import Edge, Graph

ORACLE_MAX_VERTICES = 8


def _check_guard(k: int):
    if k > ORACLE_MAX_VERTICES:
        raise SizeGuardError(
            f"brute force is guarded at {ORACLE_MAX_VERTICES} vertices, got {k}"
        )


def _min_swaps(
    starts: list[tuple[int, ...]], remaining0: frozenset[Edge], sub: Graph
) -> tuple[int, tuple[int, ...]]:
    """BFS over (occupancy, remaining) states; returns (swaps, best start)."""
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


def brute_force_min_swaps(ig: Graph, a: Assignment) -> int:
    """Optimal swap count for a fixed initial assignment."""
    _check_guard(ig.n)
    count, _ = _min_swaps([a.positions()], frozenset(ig.edges), a.cg_subgraph)
    return count


def brute_force_over_assignments(ig: Graph, cg: Graph) -> tuple[int, Assignment]:
    """Optimal swap count over every connected placement of the right size.

    Minimizes over all connected-subgraph class representatives and all
    initial bijections onto each; intended for validation at small sizes.
    """
    _check_guard(ig.n)
    remaining0 = frozenset(ig.edges)
    best: tuple[int, Assignment] | None = None
    for cls in enumerate_connected_subgraph_classes(cg, ig.n):
        starts = [tuple(p) for p in itertools.permutations(range(ig.n))]
        count, start = _min_swaps(starts, remaining0, cls.graph)
        if best is None or count < best[0]:
            nodes = cls.representative_nodes
            assignment = Assignment(
                tuple(nodes[s] for s in start), nodes, cls.graph
            )
            best = (count, assignment)
            if count == 0:
                break
    if best is None:
        raise AssertionError("no candidate subgraphs enumerated")
    return best
