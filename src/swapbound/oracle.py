"""Exact minimum swap counts by A* search.

The routing model matches the bound being validated: every interaction
whose endpoints sit on adjacent subgraph nodes executes for free, swaps
along subgraph edges cost one each, and gate ordering is ignored. States
are kept canonical by closing all executable interactions before
branching, which makes deduplication sound.

A state is one int, ``(placement << m) | pending``. Bit ``b`` of
``pending`` stands for the b-th of the ``m`` sorted interactions. Each
placement (IG vertex -> subgraph label) is interned once, together with
the mask of interactions it leaves blocked, their gaps ``d_e - 1``
(``d_e``: subgraph distance of the endpoints) and its successor per
subgraph edge, so closing a state is one ``&``.

The heuristic (``_SwapFloor``) is the largest of three counts over the
pending interactions: the largest gap; the gap sum over the two largest
interaction-graph degrees (a swap moves two tokens one hop); the pending
count over ``max(deg x + deg y - 2)`` over subgraph edges (the most pairs
a swap makes newly adjacent). Each drops by at most 1 per swap, so it is
consistent, and it is at least 1 while anything is pending. The heap key
``(depth + h, start index, -depth, state)`` makes this A* on
lexicographic ``(swaps, start index)`` costs: it returns the smallest
optimal start index, as the breadth-first search over the starts in order
did. A popped non-goal state has the least key and ``h == 1``, so a goal
is accepted when generated. K7 on a 7-ring (9 swaps): 2,648 expansions
and 13,977 labels, against 212,950 breadth-first states. K8 on an 8-ring
(13 swaps): 117,404 expansions, about 3 s and 135 MiB on a 2-core Xeon.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter

from . import assignment
from .assignment import (
    Assignment,
    connected_embedding,
    enumerate_connected_subgraph_classes,
    exchanges,
    pending_interactions,
)
from .errors import SizeGuardError, ValidationError
from .graphs import Edge, Graph, bfs_distances, is_connected

ORACLE_MAX_VERTICES = 8


def within_guard(k: int) -> bool:
    """Whether the oracle takes ``k`` qubits: at most ``ORACLE_MAX_VERTICES``."""
    return k <= ORACLE_MAX_VERTICES


def check_guard(k: int) -> None:
    """Raise :class:`SizeGuardError` for qubit counts outside :func:`within_guard`."""
    if not within_guard(k):
        raise SizeGuardError(f"brute force is guarded at {ORACLE_MAX_VERTICES} vertices, got {k}")


class _SwapFloor:
    """The A* heuristic: ``floor(pending, floor.layers(pos))`` swaps at least remain."""

    def __init__(self, edges: list[Edge], sub: Graph):
        self.edges = edges
        self.dist = [bfs_distances(sub, v) for v in range(sub.n)]
        ig_degrees = sorted(Counter(v for e in edges for v in e).values())
        self.gap_div = max(1, sum(ig_degrees[-2:]))
        deg = sub.degrees
        self.pair_div = max([1] + [deg[x] + deg[y] - 2 for x, y in sub.edge_list])

    def layers(self, pos: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """``(gap, mask)`` per gap >= 1, largest first: the blocked interactions."""
        masks: dict[int, int] = {}
        for b, (u, v) in enumerate(self.edges):
            gap = self.dist[pos[u]][pos[v]] - 1
            if gap > 0:
                masks[gap] = masks.get(gap, 0) | 1 << b
        return tuple(sorted(masks.items(), reverse=True))

    def __call__(self, pending: int, layers: tuple[tuple[int, int], ...]) -> int:
        top = total = 0
        for gap, mask in layers:
            hit = pending & mask
            if hit:
                top = top or gap
                total += gap * hit.bit_count()
        return max(top, -(-total // self.gap_div), -(-pending.bit_count() // self.pair_div))


def _min_swaps(
    starts: list[tuple[int, ...]], remaining0: frozenset[Edge], sub: Graph
) -> tuple[int, tuple[int, ...]]:
    """A* over int states ``(placement << m) | pending``; returns (swaps, best start)."""
    edges = sorted(remaining0)
    m = len(edges)
    sub_edges = sub.edges
    floor = _SwapFloor(edges, sub)
    placements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    blocked: list[int] = []
    layers: list[tuple[tuple[int, int], ...]] = []
    successors: list[list[int] | None] = []

    def intern(pos: tuple[int, ...]) -> int:
        j = index.get(pos)
        if j is None:
            j = index[pos] = len(placements)
            placements.append(pos)
            still = pending_interactions(edges, pos, sub_edges)
            blocked.append(sum(1 << b for b, e in enumerate(edges) if e in still))
            layers.append(floor.layers(pos))
            successors.append(None)
        return j

    def expand(j: int) -> list[int]:
        successors[j] = [intern(p) for p in exchanges(placements[j], sub)]
        return successors[j]

    full = (1 << m) - 1
    heap: list[tuple[int, int, int, int]] = []
    # Best label per state, (depth, start index) packed as one int.
    n = len(starts)
    label: dict[int, int] = {}
    for idx, pos in enumerate(starts):
        j = intern(pos)
        closed = blocked[j]
        if not closed:
            return 0, starts[idx]
        state = (j << m) | closed
        if state not in label:
            label[state] = idx
            heap.append((floor(closed, layers[j]), idx, 0, state))
    heapq.heapify(heap)

    while heap:
        _, idx, neg_depth, state = heapq.heappop(heap)
        depth = -neg_depth
        if label[state] != depth * n + idx:
            continue
        remaining = state & full
        j = state >> m
        depth += 1
        best = depth * n + idx
        for nj in successors[j] or expand(j):
            closed = remaining & blocked[nj]
            if not closed:
                return depth, starts[idx]
            nstate = (nj << m) | closed
            if best < label.get(nstate, best + 1):
                label[nstate] = best
                heapq.heappush(heap, (depth + floor(closed, layers[nj]), idx, -depth, nstate))
    raise AssertionError("swap search exhausted without emptying the interaction set")


def brute_force_min_swaps(ig: Graph, a: Assignment) -> int:
    """Optimal swap count for a fixed initial assignment."""
    check_guard(ig.n)
    count, _ = _min_swaps([a.positions()], frozenset(ig.edges), a.cg_subgraph)
    return count


def brute_force_over_assignments(ig: Graph, cg: Graph) -> tuple[int, Assignment]:
    """Optimal swap count over every connected placement of the right size.

    Minimizes over all connected-subgraph class representatives and all
    initial bijections onto each; intended for validation at small sizes.
    Past ``CLASS_BUDGET`` connected subsets it answers 0 with the placement
    of :func:`~swapbound.assignment.connected_embedding` if there is one,
    since no placement needs fewer swaps, and raises
    :class:`SizeGuardError` otherwise.
    """
    check_guard(ig.n)
    if not is_connected(cg):
        raise ValidationError("coupling graph must be connected")
    classes = enumerate_connected_subgraph_classes(cg, ig.n)
    if classes is None:
        embedding = connected_embedding(ig, cg)
        if embedding is not None:
            return 0, Assignment(embedding, cg)
        budget = assignment.CLASS_BUDGET
        raise SizeGuardError(f"class enumeration is guarded at {budget} connected {ig.n}-subsets")
    remaining0 = frozenset(ig.edges)
    starts = list(itertools.permutations(range(ig.n)))
    best: tuple[int, Assignment] | None = None
    for cls in classes:
        count, start = _min_swaps(starts, remaining0, cls.graph)
        if best is None or count < best[0]:
            nodes = cls.representative_nodes
            best = (count, Assignment(tuple(nodes[s] for s in start), cg))
            if count == 0:
                break
    return best
