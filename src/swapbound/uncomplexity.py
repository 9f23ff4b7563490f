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
is then applied anyway (a forced swap) against a stall budget, and runs
that exhaust it are flagged rather than aborted. The budget is
``m_swap_max``: the diameter schedule already routes every gate with that
many swaps, so a run that spends more forced swaps counts more than it
needs and cannot give a useful estimate.

A run evaluates each ``(pending set, placement)`` state once: at its
beta, the divergences depend only on the state and the subgraph, so the
move chosen from a placement is kept until an erasure changes the pending
set. A revisit costs a dict lookup and asks the routing model nothing,
since a kept move erased nothing when it was made.

A run is a generator (``_descent``) that only routes: it yields the
pending set and the placements of each fresh state and is sent their
divergences. One driver (``_sweep``) advances the runs of a grid in
lockstep and owns the Gibbs states: the subgraph's, built once for the
whole grid, and each run's pending graph's. Once per round, across
pending sets, it rebuilds the row of every run that yields a new set: a
spectrum per distinct set, then one ``_gibbs`` for all those rows. One
gather and one batched ``eigvalsh`` per round answer every run that asks.
numpy works on each row and matrix of a stack separately, so batching
changes no value. ``beta_sweep`` drives the 99-point grid,
``swap_uncomplexity`` and a fixed-beta ``compute_bound`` a grid of one point.

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
FORCING = StallStep("no improving swap; applying least-bad candidate")  # before a forced swap


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


def _gibbs(spectra, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs states ``exp(-beta L) / Z``, stacked, and entropies; a spectrum per beta or one."""
    w, v = map(np.array, zip(*spectra))  # stacked here, so freed before the divergences
    p = gibbs_weights(w, betas)
    return (v * p[:, None, :]) @ v.swapaxes(-1, -2), entropy_of_probs(p)


def _divergences(rho, sigma, ids, placements) -> np.ndarray:
    """Each asking run's divergences from its ``rho`` to its ``sigma`` relabelled per placement.

    ``rho`` and ``sigma`` stack one state per grid point; run ``ids[r]``
    gives ``placements[r]`` and gets row ``r`` of the result. One gather
    builds every mixture ``(rho + sigma[p][:, p]) / 2``, and one batched
    ``eigvalsh`` takes all their spectra.
    """
    (rho_m, s_rho), (sigma_m, s_sigma) = rho, sigma
    idx = np.asarray(placements)
    run = np.asarray(ids)[:, None]  # a run's placements gather from its own states
    stacked = sigma_m[run[..., None, None], idx[..., None], idx[:, :, None, :]]
    stacked += rho_m[run]
    stacked /= 2.0
    q = np.maximum(np.linalg.eigvalsh(stacked), 0.0)
    terms = q * np.log(np.where(q > 0.0, q, 1.0))  # 0 * log(1) is 0.0
    offset = (s_rho[ids] + s_sigma[ids])[:, None] / 2.0
    return np.maximum(-terms.sum(axis=-1) - offset, 0.0)


def swap_uncomplexity(ig: InteractionGraph, a: Assignment, beta: float) -> tuple[int, AlgoTrace]:
    """Swap count of the divergence descent at one inverse temperature.

    Returns ``(m, trace)``. A run that does not stall counts zero exactly
    when every interaction already sits on a coupler; a vanishing
    divergence alone, as in the ultra-high-temperature limit, never ends
    the descent.
    """
    trace = _sweep(ig, a, (beta,), max_swap_bound(ig, a)).trace
    return trace.swap_count, trace


def _descent(ig: InteractionGraph, a: Assignment, beta: float, budget: int):
    """One run: yields ``(pending set, placements)`` per fresh state, returns ``(m, trace)``."""
    graph = ig.graph
    if graph.n != a.cg_subgraph.n:
        raise ValidationError("assignment does not cover the interaction graph")
    sub = a.cg_subgraph
    pos = a.positions()
    remaining = pending_interactions(graph.edges, pos, sub.edges)
    steps: list[TraceStep] = []
    m = 0
    max_iterations = budget + len(remaining) * max(len(sub.edge_list), 1)
    stalled = False
    moves = {}  # placement -> (SwapStep, next placement) for this pending set

    while remaining:
        if m >= max_iterations:
            steps.append(StallStep("iteration cap reached"))
            stalled = True
            break
        fresh = pos not in moves
        if fresh:
            swapped = exchanges(pos, sub)
            values = yield remaining, [pos] + swapped
            qjsd1, best_val = values[0], min(values[1:])
            best_i = values.index(best_val, 1) - 1  # first minimum = smallest edge
            forced = not best_val < qjsd1 - EPS_IMP  # a NaN qjsd1 forces too
            moves[pos] = SwapStep(sub.edge_list[best_i], qjsd1, best_val, forced), swapped[best_i]
        step, next_pos = moves[pos]
        if step.forced:
            if budget <= 0:
                steps.append(StallStep("stall budget exhausted"))
                stalled = True
                break
            budget -= 1
            steps.append(FORCING)
        pos = next_pos
        m += 1
        steps.append(step)
        if fresh:  # a move still in the memo erased nothing when it was made
            still = pending_interactions(remaining, pos, sub.edges)
            if still != remaining:
                steps.append(EraseStep(tuple(sorted(remaining - still))))
                remaining = still
                moves.clear()

    return m, AlgoTrace(tuple(steps), beta, m, stalled)


def beta_sweep(ig: InteractionGraph, a: Assignment) -> SweepResult:
    """Minimum swap count over the standard grid; ties resolve to the smallest beta.

    The runs advance in lockstep. Stalled runs are excluded from the
    minimum. If every run stalls, raises :class:`SweepError`.
    """
    sweep = _sweep(ig, a, standard_beta_grid(), max_swap_bound(ig, a))
    if sweep.trace.stalled:
        raise SweepError("every sweep run stalled")
    return sweep


def _sweep(ig: InteractionGraph, a: Assignment, grid, budget: int) -> SweepResult:
    """The runs of ``grid`` with ``budget`` forced swaps each, advanced in lockstep.

    The result is the best run by ``(stalled, m, grid index)``: a run
    that stalled wins only when every run stalled.
    """
    betas = np.array([check_beta(b) for b in grid])
    sigma = _gibbs([laplacian_spectrum(a.cg_subgraph)], betas)
    rho = tuple(map(np.empty_like, sigma))  # row i: the Gibbs state of run i's pending graph
    built = [None] * len(grid)  # the pending set each row of rho holds
    runs = [_descent(ig, a, b, budget) for b in betas.tolist()]
    traces: list = [None] * len(grid)
    replies = dict.fromkeys(range(len(grid)))  # run index -> divergences; None starts a run
    while replies:
        asks = {}
        for i, values in replies.items():
            try:
                asks[i] = runs[i].send(values)
            except StopIteration as end:
                traces[i] = end.value[1]
        if not asks:
            break
        stale = [i for i, (pending, _) in asks.items() if pending is not built[i]]
        if stale:  # a spectrum per distinct new pending set, one Gibbs build for all their rows
            for i in stale:
                built[i] = asks[i][0]
            eig = {p: laplacian_spectrum(Graph(ig.graph.n, p)) for p in {built[i] for i in stale}}
            rho[0][stale], rho[1][stale] = _gibbs([eig[built[i]] for i in stale], betas[stale])
        placements = [p for _, p in asks.values()]  # 1 + |E_sub| each
        replies = dict(zip(asks, _divergences(rho, sigma, list(asks), placements).tolist()))
    best = min(traces, key=lambda t: (t.stalled, t.swap_count))  # min keeps the first
    per_beta = tuple((b, t.swap_count, t.stalled) for b, t in zip(grid, traces))
    return SweepResult(best.beta, best.swap_count, per_beta, best)


def compute_bound(ig: InteractionGraph, cg: Graph, *, beta: float | None = None) -> BoundReport:
    """The whole pipeline: assignment, max bound, then the divergence bound.

    The divergence bound is swept over the standard grid, or taken at one
    fixed ``beta``. A sweep in which every run stalls raises
    :class:`SweepError`.
    """
    t0 = time.perf_counter()
    placed = assign_qubits(ig, cg)
    assign_ms = (time.perf_counter() - t0) * 1000
    a = placed.assignment
    m_max = max_swap_bound(ig, a)
    t0 = time.perf_counter()
    sweep = _sweep(ig, a, standard_beta_grid() if beta is None else (beta,), m_max)
    trace, per_beta = sweep.trace, None
    if beta is None:
        if trace.stalled:
            exc = SweepError("every sweep run stalled")
            exc.ged, exc.method, exc.m_swap_max = placed.ged, placed.method, m_max
            raise exc
        beta, per_beta = sweep.beta_star, sweep.per_beta
    sweep_ms = (time.perf_counter() - t0) * 1000
    return BoundReport(
        trace.swap_count, beta, m_max, placed.ged, a, trace, trace.stalled, placed.method,
        per_beta, assign_ms, sweep_ms,
    )
