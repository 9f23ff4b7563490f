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

When no exchange improves the divergence and nothing is executable, the
least-bad exchange is applied anyway against a finite stall budget; runs
that exhaust it are flagged rather than aborted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .assignment import (
    DEFAULT_CLASS_BUDGET,
    Assignment,
    assign_qubits,
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


def validate_beta_grid(grid: Sequence[float]) -> tuple[float, ...]:
    values = tuple(check_beta(b) for b in grid)
    if not values:
        raise ValidationError("beta grid is empty")
    if any(b <= 0.0 for b in values):
        raise ValidationError("beta grid values must be > 0")
    if any(b2 <= b1 for b1, b2 in zip(values, values[1:])):
        raise ValidationError("beta grid must be strictly increasing")
    return values


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
    iterations: int = 0


@dataclass(frozen=True)
class SweepResult:
    beta_star: float
    m_star: int
    per_beta: tuple[tuple[float, int, bool], ...]  # (beta, m, stalled)


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


def _row_entropies(eigenvalue_rows: np.ndarray) -> np.ndarray:
    p = np.maximum(eigenvalue_rows, 0.0)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return np.maximum(-terms.sum(axis=1), 0.0)


class _Engine:
    """Shared state for one run: subgraph spectrum, device state, caches."""

    def __init__(self, graph: Graph, sub: Graph, beta: float):
        self.k = graph.n
        self.beta = beta
        self.candidates = sub.edge_list
        w, v = laplacian_spectrum(sub)
        p_cg = gibbs_weights(np.asarray(w), beta)
        self.sigma0 = (np.asarray(v) * p_cg) @ np.asarray(v).T
        self.s_sigma = entropy_of_probs(p_cg)

    def rho_parts(self, remaining: frozenset[Edge]) -> tuple[np.ndarray, float]:
        w, v = laplacian_spectrum(Graph(self.k, remaining))
        p = gibbs_weights(np.asarray(w), self.beta)
        rho = (np.asarray(v) * p) @ np.asarray(v).T
        return rho, entropy_of_probs(p)

    def swapped(self, pos: list[int]) -> list[list[int]]:
        """The placement after exchanging the occupants of each candidate edge."""
        out = []
        for x, y in self.candidates:
            u = pos.index(x)
            v = pos.index(y)
            npos = list(pos)
            npos[u], npos[v] = y, x
            out.append(npos)
        return out

    def divergences(
        self, remaining: frozenset[Edge], placements: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """The divergence between the two states under each placement."""
        rho, s_rho = self.rho_parts(remaining)
        stacked = np.empty((len(placements), self.k, self.k))
        for i, p in enumerate(placements):
            stacked[i] = (rho + self.sigma0[np.ix_(p, p)]) / 2.0
        entropies = _row_entropies(np.linalg.eigvalsh(stacked))
        base = (s_rho + self.s_sigma) / 2.0
        return np.maximum(entropies - base, 0.0)


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
    engine = _Engine(graph, a.cg_subgraph, beta)
    pos = list(a.positions())
    sub_edges = a.cg_subgraph.edges
    remaining = pending_interactions(graph.edges, pos, sub_edges)
    steps: list[TraceStep] = []
    m = 0
    budget = stall_budget if stall_budget is not None else max_swap_bound(ig, a)
    max_iterations = budget + len(remaining) * max(len(engine.candidates), 1)
    stalled = False
    iterations = 0

    def erase_now() -> bool:
        nonlocal remaining
        still = pending_interactions(remaining, pos, sub_edges)
        newly = remaining - still
        if newly:
            remaining = still
            steps.append(EraseStep(tuple(sorted(newly))))
            return True
        return False

    while remaining:
        iterations += 1
        if iterations > max_iterations:
            steps.append(StallStep("iteration cap reached"))
            stalled = True
            break
        swapped = engine.swapped(pos)
        values = engine.divergences(remaining, [pos] + swapped)
        qjsd1 = float(values[0])
        best_i = int(np.argmin(values[1:]))  # first minimum = smallest edge
        best_val = float(values[1 + best_i])
        if best_val < qjsd1 - EPS_IMP:
            pos = swapped[best_i]
            m += 1
            steps.append(SwapStep(engine.candidates[best_i], qjsd1, best_val))
            erase_now()
            continue
        if erase_now():
            continue
        if budget <= 0:
            steps.append(StallStep("stall budget exhausted"))
            stalled = True
            break
        budget -= 1
        steps.append(StallStep("no improving swap; applying least-bad candidate"))
        pos = swapped[best_i]
        m += 1
        steps.append(SwapStep(engine.candidates[best_i], qjsd1, best_val, forced=True))
        erase_now()

    return m, AlgoTrace(tuple(steps), beta, m, stalled, iterations)


def _sweep(
    ig: InteractionGraph, a: Assignment, grid: Sequence[float] | None, stall_budget: int | None
) -> tuple[SweepResult, AlgoTrace]:
    """The sweep and the trace of its winning run."""
    values = standard_beta_grid() if grid is None else validate_beta_grid(grid)
    if stall_budget is None:
        stall_budget = max_swap_bound(ig, a)
    per_beta: list[tuple[float, int, bool]] = []
    best: tuple[int, float, AlgoTrace] | None = None
    for b in values:
        m, trace = swap_uncomplexity(ig, a, b, stall_budget=stall_budget)
        per_beta.append((b, m, trace.stalled))
        if not trace.stalled and (best is None or m < best[0]):
            best = (m, b, trace)
    if best is None:
        raise SweepError("every sweep run stalled", partial=per_beta)
    m_star, beta_star, trace = best
    return SweepResult(beta_star, m_star, tuple(per_beta)), trace


def beta_sweep(
    ig: InteractionGraph,
    a: Assignment,
    grid: Sequence[float] | None = None,
    *,
    stall_budget: int | None = None,
) -> SweepResult:
    """Minimum swap count over the grid; ties resolve to the smallest beta.

    Stalled runs are excluded from the minimum. If every run stalls,
    raises :class:`SweepError` carrying the per-beta results.
    """
    return _sweep(ig, a, grid, stall_budget)[0]


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
        sweep, trace = _sweep(ig, a, None, stall_budget)
        m, beta, stalled, per_beta = sweep.m_star, sweep.beta_star, False, sweep.per_beta
    else:
        m, trace = swap_uncomplexity(ig, a, beta, stall_budget=stall_budget)
        stalled, per_beta = trace.stalled, None
    sweep_ms = (time.perf_counter() - t0) * 1000
    return BoundReport(
        m, beta, m_max, placed.ged, a, trace, stalled, placed.method, per_beta, assign_ms, sweep_ms
    )
