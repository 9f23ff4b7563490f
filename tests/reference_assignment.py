"""Plain references for the placement's enumeration, classing and searches.

Each function is the straightforward form of one in ``swapbound.assignment``:
a recursive ESU over vertex sets, classing that takes the canonical form of
every subset, the dense search that recounts every induced edge of every
trial subset, and the GED search whose only bound is the count of
remaining edges. Tests check the library against them, order included.
"""

from __future__ import annotations

from swapbound.assignment import GedResult, SubgraphClass, connected_subsets
from swapbound.errors import ValidationError
from swapbound.graphs import Graph, canonical_form, induced_subgraph, is_connected


def recursive_connected_subsets(g: Graph, k: int):
    """Connected k-subsets by recursive ESU, in the library's order."""
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


def classes_of_every_subset(cg: Graph, k: int) -> list[SubgraphClass]:
    """One class per canonical form, represented by its first subset, sorted."""
    classes: dict[tuple[int, int], SubgraphClass] = {}
    for subset in connected_subsets(cg, k):
        sub = induced_subgraph(cg, subset)
        classes.setdefault(canonical_form(sub), SubgraphClass(subset, sub))
    return sorted(classes.values(), key=lambda c: c.representative_nodes)


def recounting_most_connected_subgraph(cg: Graph, k: int) -> tuple[int, ...]:
    """Greedy growth and first-improvement exchange, recounting every trial."""
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


def reference_graph_edit_distance(g: Graph, h: Graph, cutoff: int | None = None) -> GedResult | None:
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
