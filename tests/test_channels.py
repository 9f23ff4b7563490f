"""Edge erasure: the measurement that removes one executed interaction.

The descent erases the interactions ``assignment.pending_interactions``
no longer lists and re-derives the Gibbs state from the smaller graph;
these tests build the erased graph as ``Graph(g.n, g.edges - {e})``.
"""

import itertools
import math

import numpy as np
import pytest

from swapbound.graphs import Graph

from conftest import all_graphs, graph_from_edges, path_graph
from reference_spectral import graph_gibbs, von_neumann_entropy


def test_erase_edge_to_maximally_mixed():
    g = Graph(2, path_graph(2).edges - {(0, 1)})
    assert g.num_edges() == 0
    rho = graph_gibbs(g, 0.7)
    assert np.allclose(rho.entries, np.eye(2) / 2)


def test_erasing_everything_in_any_order_reaches_identity():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    for order in itertools.permutations(g.edge_list):
        cur = g
        for e in order:
            cur = Graph(cur.n, cur.edges - {e})
        assert cur.num_edges() == 0
        assert Graph(g.n, g.edges - set(order)) == cur
    rho = graph_gibbs(Graph(4), 3.0)
    assert np.allclose(rho.entries, np.eye(4) / 4)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Stated invariant is false under graph-level erasure: re-deriving the "
        "Gibbs state from the mutated graph is not a CP map on the original "
        "state, and at small beta the spectral variance can grow when a "
        "low-degree edge is removed (e.g. triangle plus isolated edge)."
    ),
)
def test_entropy_never_decreases_under_erasure_as_stated():
    betas = [1e-2, 1e-1, 0.3, 1.0, 10.0]
    for n in range(2, 6):
        for g in all_graphs(n):
            for e in g.edge_list:
                erased = Graph(g.n, g.edges - {e})
                for beta in betas:
                    before = von_neumann_entropy(graph_gibbs(g, beta))
                    after = von_neumann_entropy(graph_gibbs(erased, beta))
                    assert after >= before - 1e-12


def test_entropy_erasure_counterexample_and_large_beta_behavior():
    # Counterexample: triangle {0,1,2} plus isolated edge (3,4) at beta=0.1.
    g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    erased = Graph(g.n, g.edges - {(3, 4)})
    before = von_neumann_entropy(graph_gibbs(g, 0.1))
    after = von_neumann_entropy(graph_gibbs(erased, 0.1))
    assert after < before - 1e-6  # entropy drops: the stated invariant fails
    # The intended direction does hold at large beta (ground-space counting)
    # and for the fully erased end state (maximally mixed).
    assert von_neumann_entropy(graph_gibbs(erased, 50.0)) >= von_neumann_entropy(
        graph_gibbs(g, 50.0)
    )
    assert von_neumann_entropy(graph_gibbs(Graph(5), 0.1)) == pytest.approx(
        math.log(5), abs=1e-12
    )
