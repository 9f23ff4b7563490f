"""Plain references for the placement's enumeration, classing and dense search.

Each function is the straightforward form of one in ``swapbound.assignment``:
a recursive ESU over vertex sets, classing that takes the canonical form of
every subset, and the dense search that recounts every induced edge of
every trial subset. Tests check the library against them, order included.
"""

from __future__ import annotations

from swapbound.assignment import SubgraphClass, connected_subsets
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
