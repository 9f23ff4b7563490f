"""Qubit assignment: place interaction-graph vertices onto device nodes.

The pipeline first looks for a subgraph monomorphism (every required
interaction lands on a coupler). Failing that, it picks the isomorphism
class of connected induced subgraphs of the right size at minimal graph
edit distance. The connected subsets are grouped by an invariant (induced
edge count and degree sequence), and each group gets a degree floor on
the GED of its classes. Groups are classed in floor order, each GED search
starts from the best distance so far as its cutoff, and the search stops
at the first group that cannot win. Complete interaction graphs, and
instances whose class enumeration would blow past a budget, fall back to
a greedy most-connected-subgraph search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .circuits import InteractionGraph
from .errors import ValidationError
from .graphs import (
    Edge,
    Graph,
    canonical_form,
    graph_diameter,
    induced_subgraph,
    is_bipartite,
    is_connected,
    normalize_edge,
)


@dataclass(frozen=True)
class Assignment:
    """Injective placement of IG vertices onto a connected node subset of ``cg``.

    ``cg_subgraph_nodes`` is the image of ``ig_to_cg`` sorted ascending, and
    ``cg_subgraph`` the induced subgraph on it, relabeled to 0..k-1 in that order.
    """

    ig_to_cg: tuple[int, ...]
    cg: Graph
    cg_subgraph_nodes: tuple[int, ...] = field(init=False)
    cg_subgraph: Graph = field(init=False)

    def __post_init__(self):
        nodes = tuple(sorted(self.ig_to_cg))
        sub = induced_subgraph(self.cg, nodes)  # rejects repeated and out-of-range nodes
        if not is_connected(sub):
            raise ValidationError("chosen CG subgraph is disconnected")
        index = {node: i for i, node in enumerate(nodes)}
        object.__setattr__(self, "cg_subgraph_nodes", nodes)
        object.__setattr__(self, "cg_subgraph", sub)
        object.__setattr__(self, "_positions", tuple(index[c] for c in self.ig_to_cg))

    def positions(self) -> tuple[int, ...]:
        """IG vertex -> subgraph label (index into cg_subgraph_nodes)."""
        return self._positions


def pending_interactions(edges, pos: Sequence[int], sub_edges: frozenset[Edge]) -> frozenset[Edge]:
    """The routing model: interactions whose endpoints are not yet adjacent.

    An interaction executes for free once its endpoints sit on a subgraph
    edge; ``pos`` maps IG vertices to subgraph labels.
    """
    pending = []
    for e in edges:
        x, y = pos[e[0]], pos[e[1]]
        if ((x, y) if x < y else (y, x)) not in sub_edges:
            pending.append(e)
    return frozenset(pending)


def exchanges(pos: Sequence[int], sub: Graph) -> list[tuple[int, ...]]:
    """The placement after a swap across each subgraph edge, in ``edge_list`` order."""
    at = [0] * len(pos)  # subgraph label -> IG vertex; ``pos`` permutes the labels
    for u, x in enumerate(pos):
        at[x] = u
    out = []
    for x, y in sub.edge_list:
        new_pos = list(pos)
        new_pos[at[x]], new_pos[at[y]] = y, x
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
            yield from extend(sub + [w], work | fresh, closed | {w} | set(g.adjacency[w]), start)

    for start in range(g.n):
        ext0 = {w for w in g.adjacency[start] if w > start}
        closed0 = frozenset({start} | set(g.adjacency[start]))
        yield from extend([start], ext0, closed0, start)


CLASS_BUDGET = 100_000  # connected subsets a class enumeration may visit

_GroupKey = tuple[int, tuple[int, ...]]  # (induced edge count, sorted induced degrees)


def _subset_groups(cg: Graph, k: int) -> dict[_GroupKey, list[tuple[int, ...]]] | None:
    """Connected k-subsets grouped by an isomorphism invariant, or ``None``.

    ``None`` when ``cg`` has more than ``CLASS_BUDGET`` connected k-subsets:
    they are counted before any is keyed or classed, so an instance over the
    budget costs only the count. The key is the induced edge count and
    sorted induced degree sequence, read off adjacency bitmasks without
    building a graph. Isomorphic subsets share a key, so each class lies in
    one group, and a group lists its subsets in ``connected_subsets`` order.
    """
    subsets = []
    for subset in connected_subsets(cg, k):
        subsets.append(subset)
        if len(subsets) > CLASS_BUDGET:
            return None
    adj = [sum(1 << w for w in a) for a in cg.adjacency]
    groups: dict[_GroupKey, list[tuple[int, ...]]] = {}
    for subset in subsets:
        mask = sum(1 << v for v in subset)
        degrees = tuple(sorted((adj[v] & mask).bit_count() for v in subset))
        groups.setdefault((sum(degrees) // 2, degrees), []).append(subset)
    return groups


def _group_classes(cg: Graph, subsets: list[tuple[int, ...]]) -> list[SubgraphClass]:
    """The classes of one group, each represented by its first subset."""
    classes: dict[tuple[int, int], SubgraphClass] = {}
    for subset in subsets:
        sub = induced_subgraph(cg, subset)
        classes.setdefault(canonical_form(sub), SubgraphClass(subset, sub))
    return list(classes.values())


def enumerate_connected_subgraph_classes(cg: Graph, k: int) -> list[SubgraphClass] | None:
    """One entry per isomorphism class of connected induced k-subgraphs.

    ``None`` when ``cg`` has more than ``CLASS_BUDGET`` connected k-subsets:
    they are counted before any is classed. Classing runs group by group
    (see :func:`_subset_groups`), and every group is classed. The
    representative is the first subset of its class in ``connected_subsets``
    order, which need not be the smallest: on the path 2-0-3-1 at k = 3 it is
    ``(0, 2, 3)``, not ``(0, 1, 3)``. Entries are sorted by representative.
    """
    groups = _subset_groups(cg, k)
    if groups is None:
        return None
    classes = [c for subsets in groups.values() for c in _group_classes(cg, subsets)]
    return sorted(classes, key=lambda c: c.representative_nodes)


def vf2_embed(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """First injective map sending every pattern edge to a host edge.

    Non-induced monomorphism: extra host edges among image vertices are
    permitted. Deterministic search order: pattern vertices by descending
    degree (then index), host candidates by ascending index. A vertex with
    a mapped neighbour draws its candidates from that neighbour's image's
    sorted adjacency, which lists the same feasible candidates in the same
    order. The search keeps an explicit stack of candidate iterators, one
    per placed vertex, so its depth is not bounded by Python's recursion
    limit. A pattern with an odd cycle has no map into a bipartite host,
    which would 2-colour it, so that case answers ``None`` with no search.
    """
    if pattern.n > host.n or is_bipartite(host) and not is_bipartite(pattern):
        return None
    if pattern.n == 0:
        return ()
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degrees[v], v))
    mapping = [-1] * pattern.n
    used = [False] * host.n

    def candidates(pv: int):
        for pw in pattern.adjacency[pv]:
            if mapping[pw] >= 0:
                return iter(host.adjacency[mapping[pw]])
        return iter(range(host.n))

    stack = [candidates(order[0])]
    while stack:
        pv = order[len(stack) - 1]
        if mapping[pv] >= 0:  # back from a dead end below: free this choice
            used[mapping[pv]] = False
            mapping[pv] = -1
        for hv in stack[-1]:
            if used[hv] or host.degrees[hv] < pattern.degrees[pv]:
                continue
            if any(
                mapping[pw] >= 0 and not host.has_edge(hv, mapping[pw])
                for pw in pattern.adjacency[pv]
            ):
                continue
            mapping[pv] = hv
            used[hv] = True
            break
        else:
            stack.pop()
            continue
        if len(stack) == pattern.n:
            return tuple(mapping)
        stack.append(candidates(order[len(stack)]))
    return None


def connected_embedding(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """:func:`vf2_embed`'s map if its image induces a connected host subgraph.

    Such a placement leaves no interaction blocked, so it needs no swap.
    """
    embedding = vf2_embed(pattern, host)
    if embedding is None or not is_connected(induced_subgraph(host, sorted(embedding))):
        return None
    return embedding


def degree_floor(degrees_g: Sequence[int], degrees_h: Sequence[int]) -> int:
    """Admissible GED floor from two equal-length sorted degree sequences.

    Half their L1 distance, rounded up: one edge edit changes two degrees by
    1, and pairing sorted sequences minimises the L1 distance over all
    bijections. It is at least the edge-count difference.
    """
    return -(-sum(abs(a - b) for a, b in zip(degrees_g, degrees_h)) // 2)


def graph_edit_distance(g: Graph, h: Graph, cutoff: int | None = None) -> GedResult | None:
    """Exact minimum edge-edit cost over vertex bijections (equal sizes).

    Depth-first branch and bound in lexicographic bijection order with an
    admissible remaining-edge-count bound, so the returned bijection is
    the lexicographically smallest optimal one. Edge insertion and
    deletion both cost 1; vertex operations are not modeled.

    ``cutoff`` is an incumbent cost: the search keeps only bijections that
    cost less. It returns ``None`` when none does, and otherwise the same
    result as without a cutoff. Without one, the incumbent starts above
    every bijection's cost, so the first leaf, the identity, sets it.
    """
    if g.n != h.n:
        raise ValidationError(f"size mismatch: {g.n} vs {h.n}")
    n = g.n
    best_cost = g.num_edges() + h.num_edges() + 1 if cutoff is None else cutoff
    best_bij: tuple[int, ...] | None = None

    # g edges with at least one endpoint still unassigned after prefix v
    g_suffix_edges = [sum(1 for (a, b) in g.edges if a >= v or b >= v) for v in range(n + 1)]

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
    return None if best_bij is None else GedResult(best_cost, best_bij)


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


def assign_qubits(ig: InteractionGraph, cg: Graph) -> AssignmentResult:
    """Full placement pipeline, returning the assignment and its GED.

    Monomorphism first (GED 0); otherwise exact similarity search over
    connected-subgraph classes (minimal GED; ties prefer subgraphs with
    more edges, then the smallest class representative, see
    :func:`enumerate_connected_subgraph_classes`). Complete
    interaction graphs and enumerations exceeding ``CLASS_BUDGET`` subsets
    use the greedy dense shortcut instead; its reported GED is exact for
    complete IGs and an upper bound otherwise.

    The search classes only the groups of :func:`_subset_groups` that can
    still win. Each group gets the key ``(floor, -edges, least subset)``,
    with ``floor`` the :func:`degree_floor` of the IG and the group. No class
    in the group has a smaller ``(GED, -edges, representative)``, so groups
    are visited by key and the search stops at the first key above the best
    class so far. Each GED search gets the cutoff below which its class
    would win: the best distance, plus 1 when the class wins a distance tie.
    """
    k = ig.graph.n
    if k > cg.n:
        raise ValidationError(f"circuit needs {k} qubits but device has {cg.n}")
    if k == 0:
        raise ValidationError("empty interaction graph")
    if not is_connected(cg):
        raise ValidationError("coupling graph must be connected")

    embedding = connected_embedding(ig.graph, cg)
    if embedding is not None:
        return AssignmentResult(Assignment(embedding, cg), 0, "vf2")
    # A disconnected image (possible for disconnected IGs) falls through to
    # the similarity search, whose hosts are connected by construction.

    dense = ig.graph.is_complete()
    groups = None if dense else _subset_groups(cg, k)
    if groups is None:
        nodes = most_connected_subgraph(cg, k)
        sub = induced_subgraph(cg, nodes)
        bij = _greedy_bijection(ig.graph, sub)
        assignment = Assignment(tuple(nodes[b] for b in bij), cg)
        return AssignmentResult(assignment, _bijection_cost(ig.graph, sub, bij), "dense")

    ig_degrees = sorted(ig.graph.degrees)
    ranked = sorted(
        (degree_floor(ig_degrees, key[1]), -key[0], min(subsets), key)
        for key, subsets in groups.items()
    )
    best_key = None  # (GED, -edges, representative) of the best class so far
    for floor, neg_edges, least, key in ranked:
        if best_key is not None and (floor, neg_edges, least) > best_key:
            break  # neither this group nor a later one can win
        for cls in _group_classes(cg, groups[key]):
            rep = cls.representative_nodes
            cutoff = None
            if best_key is not None:
                cutoff = best_key[0] + ((neg_edges, rep) < best_key[1:])
                if cutoff <= floor:
                    continue
            ged = graph_edit_distance(ig.graph, cls.graph, cutoff)
            if ged is not None:  # below the cutoff, so this class wins
                best_key, best_ged = (ged.distance, neg_edges, rep), ged
    distance, _, nodes = best_key
    assignment = Assignment(tuple(nodes[b] for b in best_ged.best_bijection), cg)
    return AssignmentResult(assignment, distance, "similarity")


def max_swap_bound(ig: InteractionGraph, a: Assignment) -> int:
    """Gate count (with multiplicity) times (subgraph diameter - 1).

    The worst case routes every gate across the widest stretch of the
    chosen subgraph; a diameter-1 (complete) subgraph needs no swaps.
    """
    diam = graph_diameter(a.cg_subgraph)
    return ig.gate_count() * max(diam - 1, 0)
