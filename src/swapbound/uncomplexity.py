"""Divergence-guided swap counting: the descent behind ``u_swap``.

Starting from a qubit assignment, interactions already sitting on
couplers are erased; the loop then repeatedly evaluates, for every edge
of the chosen subgraph, the divergence after exchanging the two occupants
across it. The best strictly improving exchange is applied (one swap),
newly executable interactions are erased, and the process repeats until
the interaction state is maximally mixed. The swap count across the whole
descent is the reported ``u_swap``.

A descent run that does not stall is a feasible schedule, so
``oracle <= u_swap`` holds by construction. The paper reads ``u_swap`` as
a lower bound; here that reading is empirical only, and it fails on some
instances (``oracle`` can be smaller than ``u_swap``).

Every iteration takes one swap path. The pending set is closed under the
placement at the start and after every swap, so when no exchange improves
the divergence there is nothing to erase either: the least-bad exchange
is then applied anyway (a forced swap) against a finite stall budget,
and runs that exhaust it are flagged rather than aborted.

A run evaluates each ``(pending set, placement)`` state once. The
divergences depend only on the pending graph's Gibbs state, the
subgraph's and the placement, and the first two are fixed until an
erasure; so the move chosen from a placement is kept until an erasure
changes the pending set. A fresh state costs one gather, which stacks the
mixtures for the placement and every exchange, and one batched
``eigvalsh``; the pending graph's Gibbs state is built once per pending
set. A revisit reuses the floats a fresh evaluation would return, for
the cost of a dict lookup.

A revisit is a cycle. The move from a state depends on the state alone
and the pending set only shrinks, so a run that comes back to a state
erases nothing from then on: it repeats the same moves until its stall
budget or the iteration cap ends it, stalled. The usual case is a forced
swap A -> B answered by the improving swap B -> A. The run still walks
the cycle to its end, so its ``m`` and trace do not depend on the memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .assignment import (
    DEFAULT_CLASS_BUDGET,
    Assignment,
    assign_qubits,
    exchanges,
    max_swap_bound,
    pending_interactions,
)
from .circuits import InteractionGraph
from .errors import SweepError, ValidationError
from .graphs import Edge, Graph
from .spectral import check_beta, entropy_of_probs, gibbs_weights, laplacian_spectrum

EPS_IMP = 1e-12  # strict-improvement margin per applied swap


def standard_beta_grid() -> tuple[float, ...]:
    """The 99-point sweep grid A*10^a, A in 1..9, a in -5..5, ascending."""
    return tuple(sorted(a * 10.0**e for a in range(1, 10) for e in range(-5, 6)))


@dataclass(frozen=True)
class SwapStep:
    edge: Edge  # subgraph edge whose occupants were exchanged
    qjsd_before: float
    qjsd_after: float
    forced: bool = False


@dataclass(frozen=True)
class EraseStep:
    edges: tuple[Edge, ...]  # interaction edges erased this round


@dataclass(frozen=True)
class StallStep:
    reason: str


TraceStep = Union[SwapStep, EraseStep, StallStep]


@dataclass(frozen=True)
class AlgoTrace:
    steps: tuple[TraceStep, ...]
    beta: float
    swap_count: int
    stalled: bool

    @property
    def iterations(self) -> int:
        """Loop iterations: every swap, plus the one that ended a stalled run."""
        return self.swap_count + self.stalled


@dataclass(frozen=True)
class SweepResult:
    beta_star: float
    m_star: int
    per_beta: tuple[tuple[float, int, bool], ...]  # (beta, m, stalled)
    trace: AlgoTrace  # the winning run's


@dataclass(frozen=True)
class BoundReport:
    u_swap: int
    beta_star: float
    m_swap_max: int
    ged: int
    assignment: Assignment
    trace: AlgoTrace
    stalled: bool
    method: str
    per_beta: tuple[tuple[float, int, bool], ...] | None = None
    # wall-clock times, left out of equality so equal inputs give equal reports
    assign_ms: float = field(default=0.0, compare=False)
    sweep_ms: float = field(default=0.0, compare=False)


def _gibbs(graph: Graph, beta: float) -> tuple[np.ndarray, float]:
    """The graph's Gibbs state ``exp(-beta L) / Z`` as a matrix, and its entropy.

    Deterministic in ``(graph, beta)``: a descent builds the pending graph's
    state once per pending set and reuses it until an erasure changes the set.
    """
    w, v = laplacian_spectrum(graph)
    p = gibbs_weights(w, beta)
    return (v * p) @ v.T, entropy_of_probs(p)


def _divergences(
    rho: tuple[np.ndarray, float], sigma: tuple[np.ndarray, float], placements
) -> np.ndarray:
    """The divergence between ``rho`` and ``sigma`` relabelled by each placement.

    One gather builds every mixture ``(rho + sigma[p][:, p]) / 2`` at once, and
    one batched ``eigvalsh`` takes all their spectra.
    """
    (rho_m, s_rho), (sigma_m, s_sigma) = rho, sigma
    idx = np.asarray(placements)
    stacked = (rho_m + sigma_m[idx[:, :, None], idx[:, None, :]]) / 2.0
    q = np.maximum(np.linalg.eigvalsh(stacked), 0.0)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    entropies = np.maximum(-terms.sum(axis=1), 0.0)
    return np.maximum(entropies - (s_rho + s_sigma) / 2.0, 0.0)


def swap_uncomplexity(
    ig: InteractionGraph,
    a: Assignment,
    beta: float,
    *,
    stall_budget: int | None = None,
) -> tuple[int, AlgoTrace]:
    """Swap count of the divergence descent at one inverse temperature.

    Returns ``(m, trace)``. A run that does not stall counts zero exactly
    when every interaction already sits on a coupler; a vanishing
    divergence alone, as in the ultra-high-temperature limit, never ends
    the descent.
    """
    if stall_budget is not None and stall_budget < 0:
        raise ValidationError("stall_budget must be >= 0")
    beta = check_beta(beta)
    graph = ig.graph
    if graph.n != a.cg_subgraph.n:
        raise ValidationError("assignment does not cover the interaction graph")
    sub = a.cg_subgraph
    sigma = _gibbs(sub, beta)
    pos = a.positions()
    remaining = pending_interactions(graph.edges, pos, sub.edges)
    steps: list[TraceStep] = []
    m = 0
    budget = stall_budget if stall_budget is not None else max_swap_bound(ig, a)
    max_iterations = budget + len(remaining) * max(len(sub.edge_list), 1)
    stalled = False
    rho = None  # the pending graph's Gibbs state, rebuilt when an erasure changes it
    moves = {}  # placement -> (best_i, qjsd1, best_val, next placement) for this pending set

    while remaining:
        if m >= max_iterations:
            steps.append(StallStep("iteration cap reached"))
            stalled = True
            break
        if pos not in moves:
            if rho is None:
                rho = _gibbs(Graph(graph.n, remaining), beta)
            swapped = exchanges(pos, sub)
            values = _divergences(rho, sigma, [pos] + swapped)
            best_i = int(np.argmin(values[1:]))  # first minimum = smallest edge
            moves[pos] = (best_i, float(values[0]), float(values[1 + best_i]), swapped[best_i])
        best_i, qjsd1, best_val, next_pos = moves[pos]
        forced = not best_val < qjsd1 - EPS_IMP  # a NaN divergence forces too
        if forced:
            if budget <= 0:
                steps.append(StallStep("stall budget exhausted"))
                stalled = True
                break
            budget -= 1
            steps.append(StallStep("no improving swap; applying least-bad candidate"))
        pos = next_pos
        m += 1
        steps.append(SwapStep(sub.edge_list[best_i], qjsd1, best_val, forced))
        still = pending_interactions(remaining, pos, sub.edges)
        if still != remaining:
            steps.append(EraseStep(tuple(sorted(remaining - still))))
            remaining, rho = still, None
            moves.clear()

    return m, AlgoTrace(tuple(steps), beta, m, stalled)


def beta_sweep(
    ig: InteractionGraph, a: Assignment, *, stall_budget: int | None = None
) -> SweepResult:
    """Minimum swap count over the standard grid; ties resolve to the smallest beta.

    Stalled runs are excluded from the minimum. If every run stalls,
    raises :class:`SweepError` carrying the per-beta results.
    """
    if stall_budget is None:
        stall_budget = max_swap_bound(ig, a)
    per_beta: list[tuple[float, int, bool]] = []
    best: AlgoTrace | None = None
    for b in standard_beta_grid():
        m, trace = swap_uncomplexity(ig, a, b, stall_budget=stall_budget)
        per_beta.append((b, m, trace.stalled))
        if not trace.stalled and (best is None or m < best.swap_count):
            best = trace
    if best is None:
        raise SweepError("every sweep run stalled", partial=per_beta)
    return SweepResult(best.beta, best.swap_count, tuple(per_beta), best)


def compute_bound(
    ig: InteractionGraph,
    cg: Graph,
    *,
    beta: float | None = None,
    class_budget: int = DEFAULT_CLASS_BUDGET,
    stall_budget: int | None = None,
) -> BoundReport:
    """The whole pipeline: assignment, max bound, then the divergence bound.

    The divergence bound is swept over the standard grid, or taken at one
    fixed ``beta``. A sweep in which every run stalls raises
    :class:`SweepError`.
    """
    t0 = time.perf_counter()
    placed = assign_qubits(ig, cg, class_budget=class_budget)
    assign_ms = (time.perf_counter() - t0) * 1000
    a = placed.assignment
    m_max = max_swap_bound(ig, a)
    if stall_budget is None:
        stall_budget = m_max
    t0 = time.perf_counter()
    if beta is None:
        sweep = beta_sweep(ig, a, stall_budget=stall_budget)
        trace, beta, per_beta = sweep.trace, sweep.beta_star, sweep.per_beta
    else:
        _, trace = swap_uncomplexity(ig, a, beta, stall_budget=stall_budget)
        per_beta = None
    sweep_ms = (time.perf_counter() - t0) * 1000
    m, stalled = trace.swap_count, trace.stalled
    return BoundReport(
        m, beta, m_max, placed.ged, a, trace, stalled, placed.method, per_beta, assign_ms, sweep_ms
    )
