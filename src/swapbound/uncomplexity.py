"""Divergence-guided swap counting: the descent behind ``u_swap``.

Starting from a qubit assignment, interactions already sitting on couplers are
erased; the loop then repeatedly evaluates, for every edge of the chosen
subgraph, the divergence after exchanging the two occupants across it. The
best strictly improving exchange is applied (one swap), newly executable
interactions are erased, and the process repeats until the interaction state
is maximally mixed. The swap count is ``u_swap``. A run that does not stall is
a feasible schedule, so ``oracle <= u_swap`` holds by construction; the
paper's reading of ``u_swap`` as a lower bound is empirical only, and fails on
some instances.

The pending set is closed under the placement after every swap, so when no
exchange improves the divergence there is nothing to erase either: the
least-bad exchange is then applied anyway (a forced swap) against a stall
budget, and a run that exhausts it is flagged stalled, not aborted. The budget
is ``m_swap_max``: the diameter schedule routes every gate with that many
swaps, so a run that spends more cannot give a useful estimate.

At small beta the descent is a greedy integer router. A Laplacian's Gibbs
state, read as a density matrix (Braunstein, Ghosh and Severini, 2006), is
``I/k - beta L~/k + O(beta^2)`` with ``L~`` the traceless part of ``L``, and
the quantum Jensen-Shannon divergence of two such states (Majtey, Lamberti and
Prato, PRA 72, 052310, 2005; De Domenico and Biamonte, PRX 6, 041062, 2016) is
``D = beta^2/(8k) ||L~_pending - P L~_sub P^T||_F^2 + O(beta^3)`` (within 0.3%
at beta = 1e-3). A placement enters ``D`` only through the integer score
``F = tr(L_pending P L_sub P^T) = sum_i deg_pending(i) deg_sub(p(i)) + 2 X``,
``X`` the pending pairs it puts on couplers, at ``beta^2/(4k)`` a unit. Tested
for k <= 7: at beta <= 1e-3 each move maximises ``F``, and at 1e-5 a move is
forced exactly when no exchange raises ``F`` (a unit exceeds ``EPS_IMP``).

A run evaluates each ``(pending set, placement)`` state once and keeps its
move until an erasure changes the pending set; a revisit costs a dict lookup
and no routing, as a kept move erased nothing when made. A revisit is a cycle:
the move depends on the state alone and the pending set only shrinks, so the
run repeats its moves (typically a forced swap A -> B answered by B -> A)
until its stall budget or the iteration cap ends it, stalled. It walks the
cycle to the end, so ``m`` and the trace do not depend on the memo.

A run (``_descent``) only routes: it yields each fresh state's pending set and
placements and is sent their divergences. One driver (``_sweep``) advances a
grid's runs in lockstep and owns the Gibbs states: the subgraph's, built once
per grid, and a row per run for its pending graph, rebuilt by one ``_gibbs``
per round for every run that yields a new set. One gather and one batched
``eigvalsh`` per round answer every run; numpy treats each row and matrix of a
stack separately, so batching changes no value. ``beta_sweep`` and a swept
``compute_bound`` drive the 99-point grid, ``swap_uncomplexity`` and a
fixed-beta ``compute_bound`` a grid of one point.
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

    The divergence bound is swept over the standard grid, with every row in
    ``per_beta``, or taken at one fixed ``beta``. The report is the best
    run's, so it is ``stalled``, and gives no bound, exactly when every run
    stalled; it never raises :class:`SweepError`.
    """
    t0 = time.perf_counter()
    placed = assign_qubits(ig, cg)
    assign_ms = (time.perf_counter() - t0) * 1000
    a = placed.assignment
    m_max = max_swap_bound(ig, a)
    t0 = time.perf_counter()
    sweep = _sweep(ig, a, standard_beta_grid() if beta is None else (beta,), m_max)
    sweep_ms = (time.perf_counter() - t0) * 1000
    return BoundReport(
        sweep.m_star, sweep.beta_star, m_max, placed.ged, a, sweep.trace, sweep.trace.stalled,
        placed.method, sweep.per_beta if beta is None else None, assign_ms, sweep_ms,
    )
