"""Qubit assignment: place interaction-graph vertices onto device nodes.

The pipeline first looks for a subgraph monomorphism (every required
interaction lands on a coupler). Failing that, it enumerates the
isomorphism classes of connected induced subgraphs of the right size and
picks the one at minimal graph edit distance. Complete interaction
graphs, and instances whose class enumeration would blow past a budget,
fall back to a greedy most-connected-subgraph search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .circuits import InteractionGraph
from .errors import ValidationError
from .graphs import (
    Edge,
    Graph,
    canonical_form,
    graph_diameter,
    induced_subgraph,
    is_connected,
    normalize_edge,
)


@dataclass(frozen=True)
class Assignment:
    """Injective placement of IG vertices onto a connected CG node subset.

    ``cg_subgraph`` is the induced subgraph on ``cg_subgraph_nodes``
    (sorted ascending), relabeled to 0..k-1 in that order.
    """

    ig_to_cg: tuple[int, ...]
    cg_subgraph_nodes: tuple[int, ...]
    cg_subgraph: Graph

    def __post_init__(self):
        nodes = self.cg_subgraph_nodes
        if tuple(sorted(nodes)) != nodes:
            raise ValidationError("cg_subgraph_nodes must be sorted ascending")
        if len(set(self.ig_to_cg)) != len(self.ig_to_cg):
            raise ValidationError("assignment is not injective")
        if set(self.ig_to_cg) != set(nodes):
            raise ValidationError("assignment image must equal the chosen node set")
        if self.cg_subgraph.n != len(nodes):
            raise ValidationError("subgraph size differs from the chosen node set")
        if not is_connected(self.cg_subgraph):
            raise ValidationError("chosen CG subgraph is disconnected")

    def positions(self) -> tuple[int, ...]:
        """IG vertex -> subgraph label (index into cg_subgraph_nodes)."""
        index = {node: i for i, node in enumerate(self.cg_subgraph_nodes)}
        return tuple(index[c] for c in self.ig_to_cg)


def pending_interactions(
    edges, pos: Sequence[int], sub_edges: frozenset[Edge]
) -> frozenset[Edge]:
    """The routing model: interactions whose endpoints are not yet adjacent.

    An interaction executes for free once its endpoints sit on a subgraph
    edge; ``pos`` maps IG vertices to subgraph labels.
    """
    return frozenset(
        e for e in edges if normalize_edge(pos[e[0]], pos[e[1]]) not in sub_edges
    )


def exchanges(pos: Sequence[int], sub: Graph) -> list[tuple[int, ...]]:
    """The placement after a swap across each subgraph edge, in ``edge_list`` order."""
    out = []
    for x, y in sub.edge_list:
        new_pos = list(pos)
        new_pos[pos.index(x)], new_pos[pos.index(y)] = y, x
        out.append(tuple(new_pos))
    return out


@dataclass(frozen=True)
class SubgraphClass:
    representative_nodes: tuple[int, ...]
    graph: Graph


@dataclass(frozen=True)
class GedResult:
    distance: int
    best_bijection: tuple[int, ...]


@dataclass(frozen=True)
class AssignmentResult:
    assignment: Assignment
    ged: int
    method: str  # "vf2" | "similarity" | "dense"


def connected_subsets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All connected k-vertex subsets, each yielded exactly once, sorted.

    ESU-style growth: subsets are rooted at their minimum vertex and
    extended only through exclusive neighbors with larger indices, which
    makes the enumeration duplicate-free without a seen-set.
    """
    if not (1 <= k <= g.n):
        raise ValidationError(f"k must be in [1, {g.n}], got {k}")

    def extend(sub: list[int], ext: set[int], closed: frozenset[int], start: int):
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        work = set(ext)
        for w in sorted(ext):
            work.discard(w)
            fresh = {u for u in g.adjacency[w] if u > start and u not in closed}
            yield from extend(
                sub + [w], work | fresh, closed | {w} | set(g.adjacency[w]), start
            )

    for start in range(g.n):
        ext0 = {w for w in g.adjacency[start] if w > start}
        closed0 = frozenset({start} | set(g.adjacency[start]))
        yield from extend([start], ext0, closed0, start)


def _classes_from_subsets(cg: Graph, subsets: Sequence[tuple[int, ...]]) -> list[SubgraphClass]:
    classes: dict[tuple[int, int], SubgraphClass] = {}
    for subset in subsets:
        sub = induced_subgraph(cg, subset)
        classes.setdefault(canonical_form(sub), SubgraphClass(subset, sub))
    return sorted(classes.values(), key=lambda c: c.representative_nodes)


def enumerate_connected_subgraph_classes(cg: Graph, k: int) -> list[SubgraphClass]:
    """One entry per isomorphism class of connected induced k-subgraphs.

    The representative is the first subset of its class in
    ``connected_subsets`` order, which need not be the smallest: on the path
    2-0-3-1 at k = 3 it is ``(0, 2, 3)``, not ``(0, 1, 3)``. Entries are
    sorted by representative.
    """
    return _classes_from_subsets(cg, list(connected_subsets(cg, k)))


def vf2_embed(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """First injective map sending every pattern edge to a host edge.

    Non-induced monomorphism: extra host edges among image vertices are
    permitted. Deterministic search order: pattern vertices by descending
    degree (then index), host candidates by ascending index.
    """
    if pattern.n > host.n:
        return None
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degrees[v], v))
    mapping = [-1] * pattern.n
    used = [False] * host.n

    def extend(idx: int) -> bool:
        if idx == pattern.n:
            return True
        pv = order[idx]
        for hv in range(host.n):
            if used[hv] or host.degrees[hv] < pattern.degrees[pv]:
                continue
            if any(
                mapping[pw] >= 0 and not host.has_edge(hv, mapping[pw])
                for pw in pattern.adjacency[pv]
            ):
                continue
            mapping[pv] = hv
            used[hv] = True
            if extend(idx + 1):
                return True
            mapping[pv] = -1
            used[hv] = False
        return False

    return tuple(mapping) if extend(0) else None


def graph_edit_distance(g: Graph, h: Graph) -> GedResult:
    """Exact minimum edge-edit cost over vertex bijections (equal sizes).

    Depth-first branch and bound in lexicographic bijection order with an
    admissible remaining-edge-count bound, so the returned bijection is
    the lexicographically smallest optimal one. Edge insertion and
    deletion both cost 1; vertex operations are not modeled.
    """
    if g.n != h.n:
        raise ValidationError(f"size mismatch: {g.n} vs {h.n}")
    n = g.n
    if n == 0:
        return GedResult(0, ())

    # The identity is the lexicographically smallest bijection, so seeding
    # with it keeps the first-found-optimum tie-break intact under pruning.
    identity = tuple(range(n))
    best_cost = _bijection_cost(g, h, identity)
    best_bij = identity

    # g edges with at least one endpoint still unassigned after prefix v
    g_suffix_edges = [
        sum(1 for (a, b) in g.edges if a >= v or b >= v) for v in range(n + 1)
    ]

    mapping = [-1] * n
    inverse = [-1] * n  # host vertex -> assigned g vertex

    def dfs(v: int, cost: int, h_used: int):
        nonlocal best_cost, best_bij
        if v == n:
            if cost < best_cost:
                best_cost = cost
                best_bij = tuple(mapping)
            return
        remaining_h = h.num_edges() - h_used
        for x in range(n):
            if inverse[x] >= 0:
                continue
            added = 0
            closed_h = 0
            for w in g.adjacency[v]:
                if w < v and not h.has_edge(x, mapping[w]):
                    added += 1  # g edge (w,v) lands on a non-edge: delete
            for y in h.adjacency[x]:
                gw = inverse[y]
                if gw >= 0:
                    closed_h += 1
                    if not g.has_edge(v, gw):
                        added += 1  # h edge (y,x) has no g counterpart: insert
            bound = abs(g_suffix_edges[v + 1] - (remaining_h - closed_h))
            if cost + added + bound >= best_cost:
                continue
            mapping[v] = x
            inverse[x] = v
            dfs(v + 1, cost + added, h_used + closed_h)
            mapping[v] = -1
            inverse[x] = -1

    dfs(0, 0, 0)
    return GedResult(best_cost, best_bij)


def _bijection_cost(g: Graph, h: Graph, bijection: Sequence[int]) -> int:
    mapped = {normalize_edge(bijection[u], bijection[v]) for u, v in g.edges}
    return len(mapped.symmetric_difference(h.edges))


def most_connected_subgraph(cg: Graph, k: int) -> tuple[int, ...]:
    """Connected k-subset maximizing induced edge count (greedy + exchange).

    Deterministic: seed at the max-degree vertex, grow by the neighbor
    adding the most induced edges, then apply first-improvement single
    vertex exchanges that keep the subset connected. Ties always resolve
    to the smallest vertex index.
    """
    if not (1 <= k <= cg.n):
        raise ValidationError(f"k must be in [1, {cg.n}], got {k}")
    seed = max(range(cg.n), key=lambda v: (cg.degrees[v], -v))
    chosen = {seed}
    while len(chosen) < k:
        frontier = sorted({w for v in chosen for w in cg.adjacency[v]} - chosen)
        if not frontier:
            raise ValidationError("coupling graph is disconnected")
        gain = lambda w: sum(1 for x in cg.adjacency[w] if x in chosen)
        chosen.add(max(frontier, key=lambda w: (gain(w), -w)))

    def edge_count(nodes: set[int]) -> int:
        return sum(1 for u, v in cg.edges if u in nodes and v in nodes)

    improved = True
    while improved:
        improved = False
        current = edge_count(chosen)
        for v in sorted(chosen):
            for u in range(cg.n):
                if u in chosen:
                    continue
                trial = (chosen - {v}) | {u}
                if edge_count(trial) > current and is_connected(
                    induced_subgraph(cg, sorted(trial))
                ):
                    chosen = trial
                    improved = True
                    break
            if improved:
                break
    return tuple(sorted(chosen))


def _greedy_bijection(ig_graph: Graph, sub: Graph) -> tuple[int, ...]:
    """Degree-sorted pairing used on the dense shortcut path."""
    ig_order = sorted(range(ig_graph.n), key=lambda v: (-ig_graph.degrees[v], v))
    sub_order = sorted(range(sub.n), key=lambda v: (-sub.degrees[v], v))
    bij = [0] * ig_graph.n
    for igv, subv in zip(ig_order, sub_order):
        bij[igv] = subv
    return tuple(bij)


DEFAULT_CLASS_BUDGET = 100_000


def assign_qubits(
    ig: InteractionGraph,
    cg: Graph,
    *,
    class_budget: int = DEFAULT_CLASS_BUDGET,
) -> AssignmentResult:
    """Full placement pipeline, returning the assignment and its GED.

    Monomorphism first (GED 0); otherwise exact similarity search over
    connected-subgraph classes (minimal GED; ties prefer subgraphs with
    more edges, then the smallest class representative, see
    :func:`enumerate_connected_subgraph_classes`). Complete
    interaction graphs and enumerations exceeding ``class_budget`` subsets
    use the greedy dense shortcut instead; its reported GED is exact for
    complete IGs and an upper bound otherwise.
    """
    if class_budget < 1:
        raise ValidationError("class_budget must be >= 1")
    k = ig.graph.n
    if k > cg.n:
        raise ValidationError(f"circuit needs {k} qubits but device has {cg.n}")
    if k == 0:
        raise ValidationError("empty interaction graph")
    if not is_connected(cg):
        raise ValidationError("coupling graph must be connected")

    embedding = vf2_embed(ig.graph, cg)
    if embedding is not None:
        nodes = tuple(sorted(embedding))
        sub = induced_subgraph(cg, nodes)
        if is_connected(sub):
            return AssignmentResult(Assignment(tuple(embedding), nodes, sub), 0, "vf2")
        # Disconnected image (possible for disconnected IGs): fall through
        # to the similarity search, whose hosts are connected by construction.

    dense = ig.graph.is_complete() and k >= 2
    subsets: list[tuple[int, ...]] = []
    if not dense:
        for subset in connected_subsets(cg, k):
            subsets.append(subset)
            if len(subsets) > class_budget:
                dense = True
                break

    if dense:
        nodes = most_connected_subgraph(cg, k)
        sub = induced_subgraph(cg, nodes)
        bij = _greedy_bijection(ig.graph, sub)
        assignment = Assignment(tuple(nodes[b] for b in bij), nodes, sub)
        ged = _bijection_cost(ig.graph, sub, bij)
        return AssignmentResult(assignment, ged, "dense")

    best: tuple[int, int, tuple[int, ...]] | None = None
    best_class: SubgraphClass | None = None
    best_ged: GedResult | None = None
    for cls in _classes_from_subsets(cg, subsets):
        result = graph_edit_distance(ig.graph, cls.graph)
        key = (result.distance, -cls.graph.num_edges(), cls.representative_nodes)
        if best is None or key < best:
            best = key
            best_class = cls
            best_ged = result
    assert best_class is not None and best_ged is not None
    nodes = best_class.representative_nodes
    assignment = Assignment(
        tuple(nodes[b] for b in best_ged.best_bijection), nodes, best_class.graph
    )
    return AssignmentResult(assignment, best_ged.distance, "similarity")


def max_swap_bound(ig: InteractionGraph, a: Assignment) -> int:
    """Gate count (with multiplicity) times (subgraph diameter - 1).

    The worst case routes every gate across the widest stretch of the
    chosen subgraph; a diameter-1 (complete) subgraph needs no swaps.
    """
    diam = graph_diameter(a.cg_subgraph)
    return ig.gate_count() * max(diam - 1, 0)
