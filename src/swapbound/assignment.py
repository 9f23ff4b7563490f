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
from itertools import accumulate
from operator import sub
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

    ESU-style growth (Wernicke, 2006): subsets are rooted at their minimum
    vertex and extended only through exclusive neighbors with larger
    indices, which makes the enumeration duplicate-free without a seen-set.
    The growth keeps an explicit stack, one frame per vertex of the growing
    path: the bitmask of extension vertices still to try, in ascending
    order, and the bitmask of vertices closed to later extensions. So its
    depth is not bounded by Python's recursion limit.
    """
    if not (1 <= k <= g.n):
        raise ValidationError(f"k must be in [1, {g.n}], got {k}")
    adj = g.masks
    for start in range(g.n):
        if k == 1:
            yield (start,)
            continue
        above = -1 << start + 1  # the vertices a subset rooted at start may add
        path = [start]
        exts = [adj[start] & above]
        closed = [adj[start] | 1 << start]
        while exts:
            ext = exts[-1]
            if not ext:
                exts.pop()
                closed.pop()
                path.pop()
            elif len(path) == k - 1:  # every extension completes a subset
                exts[-1] = 0
                while ext:
                    low = ext & -ext
                    ext ^= low
                    yield tuple(sorted(path + [low.bit_length() - 1]))
            else:
                low = ext & -ext
                exts[-1] = ext = ext ^ low
                w = low.bit_length() - 1
                path.append(w)
                exts.append(ext | adj[w] & above & ~closed[-1])
                closed.append(closed[-1] | low | adj[w])


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
    adj = cg.masks
    groups: dict[_GroupKey, list[tuple[int, ...]]] = {}
    for subset in subsets:
        mask = sum(1 << v for v in subset)
        degrees = tuple(sorted((adj[v] & mask).bit_count() for v in subset))
        groups.setdefault((sum(degrees) // 2, degrees), []).append(subset)
    return groups


def _group_classes(cg: Graph, subsets: list[tuple[int, ...]]) -> list[SubgraphClass]:
    """The classes of one group, each represented by its first subset.

    One canonical form per shape: subsets that induce the same labelled
    graph (translates on a grid, say) share a class, so only the first of
    them is classed. The memo lives for one call.
    """
    classes: dict[tuple[int, int], SubgraphClass] = {}
    seen: set[Graph] = set()
    for subset in subsets:
        sub = induced_subgraph(cg, subset)
        if sub not in seen:
            seen.add(sub)
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
    degree (then index), host candidates by ascending index. A vertex's
    candidates are the free host vertices of large enough degree that are
    adjacent to the image of every mapped neighbour: one bitmask, the AND
    of those images' :attr:`Graph.masks`. The search keeps an explicit
    stack of these bitmasks, one per placed vertex, so its depth is not
    bounded by Python's recursion limit. A pattern with an odd cycle has
    no map into a bipartite host, which would 2-colour it, so that case
    answers ``None`` with no search.
    """
    if pattern.n > host.n or is_bipartite(host) and not is_bipartite(pattern):
        return None
    n = pattern.n
    if n == 0:
        return ()
    order = sorted(range(n), key=lambda v: (-pattern.degrees[v], v))
    rank = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in pattern.adjacency[v] if rank[w] < i] for i, v in enumerate(order)]
    fit = {  # pattern degree -> the host vertices of at least that degree
        d: sum(1 << x for x, e in enumerate(host.degrees) if e >= d) for d in set(pattern.degrees)
    }
    masks, mapping = host.masks, [-1] * n
    cands = [0] * n  # depth -> host vertices still to try for order[depth], in ascending order
    cands[0] = fit[pattern.degrees[order[0]]]
    used = 0  # host vertices mapped above the current depth
    i = 0
    while True:
        c = cands[i]
        if not c:
            if i == 0:
                return None
            i -= 1
            used ^= 1 << mapping[order[i]]
            continue
        low = c & -c
        cands[i] = c ^ low
        mapping[order[i]] = low.bit_length() - 1
        if i == n - 1:
            return tuple(mapping)
        used |= low
        i += 1
        c = fit[pattern.degrees[order[i]]] & ~used
        for w in earlier[i]:
            c &= masks[mapping[w]]
        cands[i] = c


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
    bijections. It is at least the edge-count difference. The two
    sequences' cumulative counts (how many degrees are at most t, for each
    t) have the same L1 distance, so they may stand in for the sequences.
    """
    return -(-sum(map(abs, map(sub, degrees_g, degrees_h))) // 2)


BOUND_MIN_OPEN = 4  # fewest g-vertices left unmapped by a child for the sharper GED bound


def graph_edit_distance(g: Graph, h: Graph, cutoff: int | None = None) -> GedResult | None:
    """Exact minimum edge-edit cost over vertex bijections (equal sizes).

    Depth-first branch and bound in lexicographic bijection order, so the
    returned bijection is the lexicographically smallest optimal one. Edge
    insertion and deletion both cost 1; vertex operations are not modeled.
    The search maps g's vertices in index order, on an explicit stack, and
    counts the edits a child adds as popcounts of adjacency bitmasks.

    A child ``v -> x`` is pruned when its cost plus an admissible bound on
    the edits still to come reaches the incumbent. The bound is first the
    difference of the open edge counts. When that fails, and at least
    ``BOUND_MIN_OPEN`` g-vertices stay unmapped (a smaller subtree is
    cheaper to search than to bound), it is the bound of Riesen and Bunke
    (2009) used for exact search by Blumenthal and Gamper (2020): a cross
    term plus an inner term. The cross term is the L1 distance between
    the sorted counts of mapped neighbours of the unmapped g- and
    h-vertices: each unmapped vertex's edges to mapped ones are edited at
    least that often. The inner term is the :func:`degree_floor` of the
    degrees within the unmapped parts. The g-side of both is fixed per
    depth. The h-side is kept as cumulative counts, built once per search
    node and updated per child in O(deg x + max degree). No bound can
    prune before an incumbent exists, so until then none is computed.

    ``cutoff`` is an incumbent cost: the search keeps only bijections that
    cost less. It returns ``None`` when none does, and otherwise the same
    result as without a cutoff. Without one, the incumbent starts above
    every bijection's cost, so the first leaf, the identity, sets it.
    """
    if g.n != h.n:
        raise ValidationError(f"size mismatch: {g.n} vs {h.n}")
    n = g.n
    m_g, m_h = g.num_edges(), h.num_edges()
    best = m_g + m_h + 1 if cutoff is None else cutoff
    if n == 0:
        return GedResult(0, ()) if best > 0 else None
    h_adjacency, h_degrees = h.adjacency, h.degrees
    gadj, hadj = g.masks, h.masks
    back = [(gadj[v] & (1 << v) - 1).bit_count() for v in range(n)]  # g edges v closes
    g_open = [m_g - s for s in accumulate(back)]  # g edges still open after v
    width = max(g.degrees + h_degrees)  # cumulative counts run over t < width
    g_sides: list = [None] * n  # depth -> the g-side of the bound, built on first use

    def g_side(v: int):
        """Cumulative counts of the g-vertices after v: mapped, then unmapped neighbours."""
        cross, inner = [0] * (width + 1), [0] * (width + 1)
        for u in range(v + 1, n):
            cross[(gadj[u] & (2 << v) - 1).bit_count()] += 1
            inner[(gadj[u] >> v + 1).bit_count()] += 1
        return list(accumulate(cross[:width])), list(accumulate(inner[:width]))

    def h_side(used: int):
        """Each free h-vertex's mapped neighbours (-1 if mapped) and cumulative counts."""
        cross, inner = [0] * (width + 1), [0] * (width + 1)
        mapped = [-1] * n
        for y in range(n):
            if not used >> y & 1:
                mapped[y] = b = (hadj[y] & used).bit_count()
                cross[b] += 1
                inner[h_degrees[y] - b] += 1
        cross, inner = list(accumulate(cross[:width])), list(accumulate(inner[:width]))
        return mapped, cross, [c - 1 for c in cross], inner, [c - 1 for c in inner]

    mapping = [-1] * n
    costs = [0] * n  # depth -> cost of the mapped prefix
    shut = [0] * n  # depth -> h edges among the mapped h-vertices
    images = [0] * n  # depth -> h-images of the mapped g-neighbours of this depth's vertex
    cands = [0] * n  # depth -> h-vertices still to try, in ascending order
    sides: list = [None] * n  # depth -> the h-side at the current node, built on first use
    cands[0] = full = (1 << n) - 1
    used = 0  # h-vertices mapped above the current depth
    best_bij = None
    v = 0
    while True:
        c = cands[v]
        if not c:
            if v == 0:
                break
            v -= 1
            used ^= 1 << mapping[v]
            continue
        low = c & -c
        cands[v] = c ^ low
        x = low.bit_length() - 1
        kept = (images[v] & hadj[x]).bit_count()  # g edges to v that land on h edges
        closed = (hadj[x] & used).bit_count()  # h edges x closes
        cost = costs[v] + back[v] + closed - 2 * kept
        if cost + abs(g_open[v] - (m_h - shut[v] - closed)) >= best:
            continue
        mapping[v] = x
        if v == n - 1:  # the bound was exact, so this leaf beats the incumbent
            best, best_bij = cost, tuple(mapping)
            continue
        if v < n - BOUND_MIN_OPEN and best <= m_g + m_h:  # an incumbent exists, so it can prune
            if sides[v] is None:
                sides[v] = h_side(used)
                if g_sides[v] is None:
                    g_sides[v] = g_side(v)
            mapped, cross, cross_less, inner, inner_less = sides[v]
            b, i = mapped[x], h_degrees[x] - mapped[x]  # x leaves the free part
            cross, inner = cross[:b] + cross_less[b:], inner[:i] + inner_less[i:]
            for y in h_adjacency[x]:  # a free neighbour gains a mapped one and loses an inner one
                b = mapped[y]
                if b >= 0:
                    cross[b] -= 1
                    inner[h_degrees[y] - b - 1] += 1
            g_cross, g_inner = g_sides[v]
            cross = sum(map(abs, map(sub, cross, g_cross)))  # the L1 of the mapped-neighbour counts
            if cost + cross + degree_floor(inner, g_inner) >= best:
                continue
        used |= low
        v += 1
        costs[v], shut[v] = cost, shut[v - 1] + closed
        images[v] = sum(1 << mapping[w] for w in g.adjacency[v] if w < v)
        cands[v] = full & ~used
        sides[v] = None
    return None if best_bij is None else GedResult(best, best_bij)


def _bijection_cost(g: Graph, h: Graph, bijection: Sequence[int]) -> int:
    mapped = {normalize_edge(bijection[u], bijection[v]) for u, v in g.edges}
    return len(mapped.symmetric_difference(h.edges))


def most_connected_subgraph(cg: Graph, k: int) -> tuple[int, ...]:
    """Connected k-subset maximizing induced edge count (greedy + exchange).

    Deterministic: seed at the max-degree vertex, grow by the neighbor
    adding the most induced edges, then apply first-improvement single
    vertex exchanges that keep the subset connected. Ties always resolve
    to the smallest vertex index. The subset is one bitmask, so a vertex's
    count of chosen neighbours is a popcount of its :attr:`Graph.masks`.
    """
    if not (1 <= k <= cg.n):
        raise ValidationError(f"k must be in [1, {cg.n}], got {k}")
    masks = cg.masks
    chosen = 1 << max(range(cg.n), key=lambda v: (cg.degrees[v], -v))  # a bitmask
    current = 0  # induced edges of chosen
    for _ in range(k - 1):
        frontier = [w for w in range(cg.n) if masks[w] & chosen and not chosen >> w & 1]
        if not frontier:
            raise ValidationError("coupling graph is disconnected")
        w = max(frontier, key=lambda w: ((masks[w] & chosen).bit_count(), -w))
        current += (masks[w] & chosen).bit_count()
        chosen |= 1 << w

    improved = True
    while improved:
        improved = False
        for v in range(cg.n):
            if not chosen >> v & 1:
                continue
            rest = chosen ^ 1 << v
            lost = (masks[v] & rest).bit_count()
            for u in range(cg.n):
                if chosen >> u & 1:
                    continue
                count = current - lost + (masks[u] & rest).bit_count()
                if count > current and is_connected(
                    induced_subgraph(cg, [x for x in range(cg.n) if (rest | 1 << u) >> x & 1])
                ):
                    chosen, current, improved = rest | 1 << u, count, True
                    break
            if improved:
                break
    return tuple(x for x in range(cg.n) if chosen >> x & 1)


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
