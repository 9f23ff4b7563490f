"""Density-matrix reference for the divergence the descent computes.

The pipeline evaluates the divergence only in ``uncomplexity._divergences``;
this module recomputes it from full matrices, with every eigendecomposition
taken fresh (never from the ``laplacian_spectrum`` cache), so tests can
check the engine against an independent route. ``reference_descent`` runs
one descent on that route, with no memo and no batching. All logarithms
are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swapbound.assignment import Assignment, exchanges, pending_interactions
from swapbound.errors import NumericalError, ValidationError
from swapbound.graphs import Edge, Graph, normalize_edge
from swapbound.spectral import (
    check_beta,
    entropy_of_probs,
    gibbs_weights,
    laplacian,
    laplacian_spectrum,
)
from swapbound.uncomplexity import EPS_IMP

from conftest import relabel

TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
SUPPORT_TOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Force exact storage symmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric, PSD, unit-trace matrix with its spectrum cached.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal columns. Raw eigenvalues may dip to -1e-10 from floating
    point drift; entropy computations clamp them at zero.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, entries: np.ndarray) -> "DensityMatrix":
        a = symmetrize(entries)
        if not np.all(np.isfinite(a)):
            raise NumericalError("density matrix has non-finite entries")
        trace = float(np.trace(a))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        w, v = np.linalg.eigh(a)
        if w.min() < EIG_FLOOR:
            raise ValidationError(f"eigenvalue {w.min()} below PSD floor {EIG_FLOOR}")
        return cls(a, w, v)

    @classmethod
    def from_spectrum(cls, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityMatrix":
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=float)
        entries = symmetrize((v * w) @ v.T)
        return cls(entries, w, v)


def gibbs_state(L: np.ndarray, beta: float) -> DensityMatrix:
    """rho = exp(-beta L) / Tr[exp(-beta L)] via the eigenbasis of L.

    The state shares eigenvectors with L; its eigenvalue on the i-th
    eigenvector is exp(-beta lam_i) / sum_k exp(-beta lam_k). Weights are
    shifted by the smallest Laplacian eigenvalue before exponentiating so
    that large beta underflows to the ground-space projector instead of
    overflowing.
    """
    beta = check_beta(beta)
    L = symmetrize(L)
    if not np.all(np.isfinite(L)):
        raise NumericalError("Laplacian has non-finite entries")
    w, v = np.linalg.eigh(L)
    p = gibbs_weights(w, beta)
    order = np.argsort(p)
    return DensityMatrix.from_spectrum(p[order], v[:, order])


def graph_gibbs(g: Graph, beta: float) -> DensityMatrix:
    """Gibbs state of a graph, from a fresh eigendecomposition of its Laplacian."""
    return gibbs_state(laplacian(g), beta)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -sum p_i ln p_i over clamped eigenvalues, with 0 ln 0 := 0."""
    return entropy_of_probs(rho.eigenvalues)


def _check_same_dim(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho ln rho] - Tr[rho ln sigma]; +inf outside sigma's support.

    The support condition is checked to tolerance 1e-10: probability mass
    of rho on sigma's null space beyond that returns ``math.inf`` (a legal
    value, not an error).
    """
    _check_same_dim(rho, sigma)
    p = np.maximum(rho.eigenvalues, 0.0)
    q = np.maximum(sigma.eigenvalues, 0.0)
    overlap = (rho.eigenvectors.T @ sigma.eigenvectors) ** 2
    null = q <= SUPPORT_TOL
    if null.any():
        escaped = float(p @ overlap[:, null].sum(axis=1))
        if escaped > SUPPORT_TOL:
            return math.inf
    plogp = float(np.sum(p[p > 0.0] * np.log(p[p > 0.0])))
    live = q > SUPPORT_TOL
    plogq = float((p @ overlap[:, live]) @ np.log(q[live]))
    return max(plogp - plogq, 0.0)


def _mixture_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    mix = (rho.entries + sigma.entries) / 2.0
    return entropy_of_probs(np.linalg.eigvalsh(mix))


def qjsd(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S((rho+sigma)/2) - (S(rho) + S(sigma)) / 2, in [0, ln 2]."""
    _check_same_dim(rho, sigma)
    value = _mixture_entropy(rho, sigma) - (
        von_neumann_entropy(rho) + von_neumann_entropy(sigma)
    ) / 2.0
    return max(value, 0.0)


def qjsd_via_qre(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Equivalent relative-entropy form: the mean divergence to the mixture.

    Agrees with :func:`qjsd` to 1e-9 on all inputs; kept as an independent
    route for cross-checking.
    """
    _check_same_dim(rho, sigma)
    mix = DensityMatrix.from_matrix((rho.entries + sigma.entries) / 2.0)
    return (
        quantum_relative_entropy(rho, mix) + quantum_relative_entropy(sigma, mix)
    ) / 2.0


def remove_trivial_edges(ig: Graph, a: Assignment) -> Graph:
    """Drop interaction edges already sitting on subgraph couplers."""
    return Graph(ig.n, pending_interactions(ig.edges, a.positions(), a.cg_subgraph.edges))


def placed_subgraph(sub: Graph, pos) -> Graph:
    """``sub`` relabeled so indices refer to IG vertices: vertex ``v`` sits on ``pos[v]``."""
    inverse = [0] * len(pos)
    for v, p in enumerate(pos):
        inverse[p] = v
    return relabel(sub, inverse)


def cg_in_ig_frame(a: Assignment) -> Graph:
    """The chosen subgraph relabeled so indices refer to IG vertices."""
    return placed_subgraph(a.cg_subgraph, a.positions())


def aligned_qjsd(ig_remaining: Graph, a: Assignment, beta: float) -> float:
    """Divergence between the interaction state and the aligned device state."""
    if ig_remaining.n != a.cg_subgraph.n:
        raise ValidationError("interaction graph and subgraph sizes differ")
    rho = graph_gibbs(ig_remaining, beta)
    sigma = graph_gibbs(cg_in_ig_frame(a), beta)
    return qjsd(rho, sigma)


# --- the small-beta limit ----------------------------------------------------


def small_beta_score(pending, sub: Graph, pos) -> int:
    """The integer score ``F`` the descent maximises as beta goes to 0.

    ``F(p) = sum_i deg_pending(i) * deg_sub(p(i)) + 2 * #(pending pairs p
    puts on couplers)``, which is ``tr(L_pending P L_sub P^T)``: the one
    placement-dependent term of ``||L~_pending - P L~_sub P^T||_F^2``, so
    to second order in beta the divergence falls by ``beta^2 / (4k)`` per
    unit of ``F`` (``uncomplexity``'s docstring).
    """
    degree = [0] * len(pos)
    for u, v in pending:
        degree[u] += 1
        degree[v] += 1
    on_couplers = sum(normalize_edge(pos[u], pos[v]) in sub.edges for u, v in pending)
    return sum(d * sub.degrees[p] for d, p in zip(degree, pos)) + 2 * on_couplers


# --- one descent run, plainly --------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """What one evaluated state chose, and how far its floats were from choosing otherwise."""

    edge: Edge
    forced: bool
    qjsd_before: float
    qjsd_after: float
    margin: float  # distance to the runner-up exchange or to the forcing threshold


def reference_descent(ig: Graph, sub: Graph, pos, beta: float, budget: int):
    """One descent run with no memo and no batching; returns ``(m, stall, decisions)``.

    Every iteration evaluates its state afresh: ``qjsd`` between the pending
    graph's Gibbs state and the placed subgraph's, each from a fresh
    ``eigh``, for the placement and every exchange. The routing model, the
    stall budget and the iteration cap are those of ``uncomplexity``.
    ``stall`` is the reason the run stalled, or ``None``; ``decisions`` has
    one entry per evaluated state, the last one unmade if the budget ran out.
    """
    remaining = pending_interactions(ig.edges, pos, sub.edges)
    max_iterations = budget + len(remaining) * max(len(sub.edge_list), 1)
    m, decisions = 0, []
    while remaining:
        if m >= max_iterations:
            return m, "iteration cap reached", decisions
        rho = graph_gibbs(Graph(ig.n, remaining), beta)
        swapped = exchanges(pos, sub)
        values = [qjsd(rho, graph_gibbs(placed_subgraph(sub, p), beta)) for p in [pos] + swapped]
        qjsd1, candidates = values[0], values[1:]
        best = min(range(len(candidates)), key=candidates.__getitem__)
        runner_up = sorted(candidates)[1:2] or [math.inf]
        margin = min(runner_up[0] - candidates[best], abs(candidates[best] - (qjsd1 - EPS_IMP)))
        forced = not candidates[best] < qjsd1 - EPS_IMP
        decisions.append(Decision(sub.edge_list[best], forced, qjsd1, candidates[best], margin))
        if forced:
            if budget <= 0:
                return m, "stall budget exhausted", decisions
            budget -= 1
        pos = swapped[best]
        m += 1
        remaining = pending_interactions(remaining, pos, sub.edges)
    return m, None, decisions


# --- the descent's Gibbs build and divergence batch, as first written ---------
#
# Verbatim copies of ``uncomplexity._gibbs`` and ``uncomplexity._divergences``
# and of the two spectral helpers ``_gibbs`` calls, from before their numpy
# calls were trimmed; only the names change, to carry an ``untrimmed_`` prefix.
# The engine must return bit-identical floats to these.


def untrimmed_entropy_of_probs(p) -> float:
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    nz = p[p > 0.0]
    return float(max(0.0, -np.sum(nz * np.log(nz))))


def untrimmed_gibbs_weights(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    shifted = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    total = shifted.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("partition function is non-finite or zero")
    return shifted / total


def untrimmed_gibbs(graph: Graph, beta: float) -> tuple[np.ndarray, float]:
    w, v = laplacian_spectrum(graph)
    p = untrimmed_gibbs_weights(w, beta)
    return (v * p) @ v.T, untrimmed_entropy_of_probs(p)


def untrimmed_divergences(
    rho: tuple[np.ndarray, float], sigma: tuple[np.ndarray, float], placements
) -> np.ndarray:
    (rho_m, s_rho), (sigma_m, s_sigma) = rho, sigma
    idx = np.asarray(placements)
    stacked = (rho_m + sigma_m[idx[:, :, None], idx[:, None, :]]) / 2.0
    q = np.maximum(np.linalg.eigvalsh(stacked), 0.0)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    entropies = np.maximum(-terms.sum(axis=1), 0.0)
    return np.maximum(entropies - (s_rho + s_sigma) / 2.0, 0.0)
