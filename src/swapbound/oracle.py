"""Exact minimum swap counts by A* search.

The routing model matches the bound being validated: every interaction
whose endpoints sit on adjacent subgraph nodes executes for free, swaps
along subgraph edges cost one each, and gate ordering is ignored. States
are kept canonical by closing all executable interactions before
branching, which makes deduplication sound.

A state is the image of the pending interactions on the subgraph, the
placement dropped: a ``k x k`` bit matrix in one int, bit ``x*k + y`` set
when a pending interaction sits on subgraph nodes ``x`` and ``y``. Equal
images have the same future (swaps, closures, heuristic), so they are one
state. A swap across subgraph edge ``(x, y)`` is the transposition
``(x y)``: two delta-swaps, rows then columns. Closing is one ``&`` with
the pairs that are not subgraph edges, and the routing is done when the
image is 0. Start images come from ``assignment.pending_interactions``.

The heuristic (``_SwapFloor``) is the largest of three counts over the
pending interactions: the largest gap ``d - 1`` (``d``: subgraph distance
of the endpoints); the gap sum over the two largest interaction-graph
degrees (a swap moves two tokens one hop); the pending count over
``max(deg x + deg y - 2)`` over subgraph edges (the most pairs a swap
makes newly adjacent). Gap masks are built once per subgraph, so each
count is read off the image. Each drops by at most 1 per swap, so it is
consistent, and it is at least 1 while anything is pending. The heap key
``(depth + h, start index, -depth, image)`` makes this A* on
lexicographic ``(swaps, start index)`` costs: it returns the smallest
optimal start index, as the breadth-first search over the starts in order
did. A popped non-goal state has the least key and ``h == 1``, so a goal
is accepted when generated. On a 2-core Xeon, from the identity placement:
K7 on a 7-ring (9 swaps) takes 1,829 expansions and 5,272 labels; K8 on an
8-ring (13 swaps) 57,169 expansions, about 1 s and 35 MiB traced; K8 on an
8-line (21 swaps) 111,330 expansions, about 1.2 s and 14 MiB traced.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from collections.abc import Collection

from . import assignment
from .assignment import (
    Assignment,
    connected_embedding,
    enumerate_connected_subgraph_classes,
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
    """Pending images on one connected subgraph: starts, swaps and the heuristic."""

    def __init__(self, edges: Collection[Edge], sub: Graph):
        self.edges = edges
        self.sub_edges = sub.edges
        k = self.k = sub.n
        row, col = (1 << k) - 1, sum(1 << i * k for i in range(k))
        # A swap across (x, y) is the transposition (x y): swap rows, then columns.
        self.moves = [((y - x) * k, row << x * k, y - x, col << x) for x, y in sub.edge_list]
        masks: dict[int, int] = {}
        for x in range(k):
            for y, d in enumerate(bfs_distances(sub, x)):
                if d > 1:
                    masks[d - 1] = masks.get(d - 1, 0) | (1 << x * k + y)
        self.gaps = sorted(masks.items(), reverse=True)
        self.open = sum(masks.values())  # the pairs that are not subgraph edges
        # Each interaction is two bits, so the divisors are doubled.
        ig_degrees = sorted(Counter(v for e in edges for v in e).values())
        self.gap_div = 2 * max(1, sum(ig_degrees[-2:]))
        deg = sub.degrees
        self.pair_div = 2 * max([1] + [deg[x] + deg[y] - 2 for x, y in sub.edge_list])

    def image(self, pos: tuple[int, ...]) -> int:
        """The closed image of ``edges`` placed by ``pos`` (IG vertex -> subgraph label)."""
        k = self.k
        blocked = pending_interactions(self.edges, pos, self.sub_edges)
        return sum((1 << pos[u] * k + pos[v]) | (1 << pos[v] * k + pos[u]) for u, v in blocked)

    def successors(self, image: int) -> list[int]:
        """The closed image after a swap across each subgraph edge, in ``edge_list`` order."""
        out = []
        for rs, rm, cs, cm in self.moves:
            t = ((image >> rs) ^ image) & rm
            image2 = image ^ t ^ (t << rs)
            t = ((image2 >> cs) ^ image2) & cm
            out.append((image2 ^ t ^ (t << cs)) & self.open)
        return out

    def __call__(self, image: int) -> int:
        """At least this many swaps remain."""
        top = total = 0
        for gap, mask in self.gaps:
            hit = image & mask
            if hit:
                top = top or gap
                total += gap * hit.bit_count()
        return max(top, -(-total // self.gap_div), -(-image.bit_count() // self.pair_div))


def _min_swaps(
    starts: list[tuple[int, ...]], remaining0: frozenset[Edge], sub: Graph
) -> tuple[int, tuple[int, ...]]:
    """A* over pending images; returns (swaps, best start)."""
    floor = _SwapFloor(remaining0, sub)
    heap: list[tuple[int, int, int, int]] = []
    # Best label per image, (depth, start index) packed as one int.
    n = len(starts)
    label: dict[int, int] = {}
    for idx, pos in enumerate(starts):
        image = floor.image(pos)
        if not image:
            return 0, starts[idx]
        if image not in label:
            label[image] = idx
            heap.append((floor(image), idx, 0, image))
    heapq.heapify(heap)

    while heap:
        _, idx, neg_depth, image = heapq.heappop(heap)
        depth = -neg_depth
        if label[image] != depth * n + idx:
            continue
        depth += 1
        best = depth * n + idx
        for closed in floor.successors(image):
            if not closed:
                return depth, starts[idx]
            if best < label.get(closed, best + 1):
                label[closed] = best
                heapq.heappush(heap, (depth + floor(closed), idx, -depth, closed))
    raise AssertionError("swap search exhausted without emptying the interaction set")


def brute_force_min_swaps(ig: Graph, a: Assignment) -> int:
    """Optimal swap count for a fixed initial assignment."""
    check_guard(ig.n)
    if ig.n != a.cg_subgraph.n:
        raise ValidationError("assignment does not cover the interaction graph")
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
