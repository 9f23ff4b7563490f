"""Simple undirected graphs on dense vertex ranges.

Vertices are integers in ``[0, n)``. Edges are unordered pairs without
self-loops or duplicates; every constructor normalizes to ``(min, max)``
tuples so that edge iteration order is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ValidationError

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph, normalizing edge direction and dropping duplicates."""
        normalized = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            normalized.add(normalize_edge(u, v))
        return cls(n, frozenset(normalized))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in sorted order (the deterministic iteration order)."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def num_edges(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from ``source``; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def graph_diameter(g: Graph) -> int:
    """Largest shortest-path hop count over all vertex pairs."""
    if g.n == 0:
        raise ValidationError("diameter of the empty graph is undefined")
    best = 0
    for source in range(g.n):
        dist = bfs_distances(g, source)
        if min(dist) < 0:
            comps = connected_components(g)
            raise ValidationError(f"graph is disconnected: components {comps}")
        best = max(best, max(dist))
    return best


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph on ``vertices``, relabeled to 0..k-1 in list order."""
    if len(set(vertices)) != len(vertices):
        raise ValidationError(f"duplicate vertices in {list(vertices)}")
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValidationError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vertices)}
    edges = set()
    for u, v in g.edges:
        if u in index and v in index:
            edges.add(normalize_edge(index[u], index[v]))
    return Graph(len(vertices), frozenset(edges))


def _refined_colors(g: Graph) -> list[int]:
    """Iterated degree refinement; color ids are label-invariant."""
    colors = list(g.degrees)
    for _ in range(g.n):
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in g.adjacency[v]))) for v in range(g.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[signatures[v]] for v in range(g.n)]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: equal keys iff graphs are isomorphic.

    The smallest upper-triangle adjacency bitstring, read column by column,
    over the vertex orderings that list the refinement colour classes in
    colour order (McKay and Piperno's refinement, without individualisation).
    The colours are label-invariant, so the minimum is too, and a bitstring
    determines its graph. The search prunes prefixes above the best found,
    and a vertex whose twin (same neighbours apart from each other) was
    already tried at the same position: exchanging twins is an automorphism.
    """
    n = g.n
    nbr = [sum(1 << w for w in a) for a in g.adjacency]
    twins = [
        sum(1 << u for u in range(n) if u != v and nbr[u] & ~(1 << v) == nbr[v] & ~(1 << u))
        for v in range(n)
    ]
    colors = _refined_colors(g)
    cells = [[u for u in range(n) if colors[u] == c] for c in sorted(colors)]
    total = n * (n - 1) // 2
    best = 1 << total  # above every bitstring

    def search(order: list[int], used: int, bits: int):
        nonlocal best
        j = len(order)
        if j == n:
            best = bits  # pruning lets only bitstrings <= best get here
            return
        limit = best >> (total - j * (j + 1) // 2)
        tried = 0
        for v in cells[j]:
            if used >> v & 1 or twins[v] & tried:
                continue
            tried |= 1 << v
            column = bits
            for u in order:
                column = column << 1 | (nbr[v] >> u & 1)
            if column <= limit:
                search(order + [v], used | 1 << v, column)

    search([], 0, 0)
    return (n, best)
