"""Exact minimum swap counts by breadth-first search.

The routing model matches the bound being validated: every interaction
whose endpoints sit on adjacent subgraph nodes executes for free, swaps
along subgraph edges cost one each, and gate ordering is ignored. States
are kept canonical by closing all executable interactions before
branching, which makes deduplication sound.

A state is one int, ``(placement << m) | pending``. Bit ``b`` of
``pending`` stands for the b-th of the ``m`` sorted interactions. Each
placement (IG vertex -> subgraph label) is interned once, together with
the mask of interactions it leaves blocked and its successor per
subgraph edge, so closing a state is one ``&``. K7 on a 7-ring needs 9
swaps and visits 212,950 states (about 0.45 s on a 2-core Xeon).
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
    """BFS over int states ``(placement << m) | pending``; returns (swaps, best start)."""
    edges = sorted(remaining0)
    m = len(edges)
    sub_edges = sub.edges
    placements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    blocked: list[int] = []
    successors: list[list[int] | None] = []

    def intern(pos: tuple[int, ...]) -> int:
        j = index.get(pos)
        if j is None:
            j = index[pos] = len(placements)
            placements.append(pos)
            still = pending_interactions(edges, pos, sub_edges)
            blocked.append(sum(1 << b for b, e in enumerate(edges) if e in still))
            successors.append(None)
        return j

    def expand(j: int) -> list[int]:
        pos = placements[j]
        out = []
        for x, y in sub.edge_list:
            new_pos = list(pos)
            new_pos[pos.index(x)], new_pos[pos.index(y)] = y, x
            out.append(intern(tuple(new_pos)))
        successors[j] = out
        return out

    full = (1 << m) - 1
    queue: deque[tuple[int, int, int]] = deque()
    visited: set[int] = set()
    for idx, pos in enumerate(starts):
        j = intern(pos)
        closed = blocked[j]
        if not closed:
            return 0, starts[idx]
        state = (j << m) | closed
        if state not in visited:
            visited.add(state)
            queue.append((state, idx, 0))

    while queue:
        state, idx, depth = queue.popleft()
        remaining = state & full
        j = state >> m
        for nj in successors[j] or expand(j):
            closed = remaining & blocked[nj]
            if not closed:
                return depth + 1, starts[idx]
            nstate = (nj << m) | closed
            if nstate not in visited:
                visited.add(nstate)
                queue.append((nstate, idx, depth + 1))
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
    starts = list(itertools.permutations(range(ig.n)))
    best: tuple[int, Assignment] | None = None
    for cls in enumerate_connected_subgraph_classes(cg, ig.n):
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
