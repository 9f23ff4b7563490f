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

A route is the set of a grid's runs that made the same moves so far: one
placement, pending set, stall budget, memo and step log. It evaluates each
``(pending set, placement)`` state once for all its runs and keeps the move until
an erasure changes the pending set; a revisit costs a dict lookup and no routing,
as a kept move erased nothing when made. A revisit is a cycle (the move depends on
the state alone; the pending set only shrinks), walked until the stall budget or
the iteration cap ends the route, stalled. Where its classes' moves part, it splits.

One driver (``_routes``) advances the routes in lockstep and owns the Gibbs
states: the subgraph's, once per grid, and a row per run for its pending graph,
rebuilt by one ``_gibbs`` per round. A route is a list of state classes, its runs
whose two rows and their entropies are the same bytes (at large beta the weights
past the ground state underflow and many collapse), regrouped when rebuilt. One
gather and one batched ``eigvalsh`` per round give each class of an asking route
its divergences, from its first run's rows: a class decides once, and a split
partitions the classes. numpy treats each row and matrix of a stack separately,
so neither batching nor sharing changes a value. ``beta_sweep`` and a swept
``compute_bound`` drive the 99-point grid, the fixed-beta calls a one-point grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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
from .errors import ValidationError
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
CAP, EXHAUSTED = StallStep("iteration cap reached"), StallStep("stall budget exhausted")


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
    """Each asking class's divergences from its ``rho`` to its ``sigma`` relabelled per placement.

    ``rho`` and ``sigma`` stack one state per grid point; row ``ids[r]`` of
    both gives ``placements[r]`` and gets row ``r`` of the result. The driver
    asks once per state class, with the rows of its first run. One gather
    builds every mixture ``(rho + sigma[p][:, p]) / 2``, and one batched
    ``eigvalsh`` takes all their spectra.
    """
    (rho_m, s_rho), (sigma_m, s_sigma) = rho, sigma
    k = sigma_m.shape[-1]
    idx = np.asarray(placements)
    ids = np.asarray(ids)
    rows = idx + (ids * k)[:, None, None]  # row p_i of its own sigma, among all the stack's
    stacked = sigma_m.reshape(-1, k)[rows[..., None], idx[..., None, :]]
    stacked += rho_m[ids, None]
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


@dataclass
class _Route:
    """Runs that made the same moves so far: one state, memo and step log for all of them.

    An erasure empties the memo, so a route that asks with an empty memo has a new
    pending set: its rows are rebuilt and its classes regrouped.
    """
    classes: list  # state classes: lists of grid indices whose two Gibbs rows are the same bytes
    pos: tuple
    pending: frozenset
    budget: int  # forced swaps left
    m: int = 0
    moves: dict = field(default_factory=dict)  # placement -> (swap, next placement)
    log: list = field(default_factory=list)  # steps; a swap is (edge, forced, [(class, *qjsds)])
    stalled: bool = False

    def trace(self, run: int, beta: float) -> AlgoTrace:
        """Run ``run``'s trace: the log, with its class's divergences in each swap."""
        steps = [SwapStep(s[0], *next(q for c, *q in s[2] if run in c), s[1])
                 if isinstance(s, tuple) else s for s in self.log]
        return AlgoTrace(tuple(steps), beta, self.m, self.stalled)


def _routes(ig: InteractionGraph, a: Assignment, betas: np.ndarray, budget: int) -> list[_Route]:
    """The runs of ``betas`` with ``budget`` forced swaps each, in the routes they end in."""
    graph, sub = ig.graph, a.cg_subgraph
    if graph.n != sub.n:
        raise ValidationError("assignment does not cover the interaction graph")
    pending = pending_interactions(graph.edges, a.positions(), sub.edges)
    routes = [_Route([list(range(len(betas)))], a.positions(), pending, budget)]
    if not pending:  # every run ends at once, so no Gibbs row is read
        return routes
    sigma = _gibbs([laplacian_spectrum(sub)], betas)
    rho = tuple(map(np.empty_like, sigma))  # row i: the Gibbs state of run i's pending graph
    ids = {}  # a sigma row's class: its bytes and entropy
    sigma_ids = [ids.setdefault(key, len(ids))
                 for key in zip(map(np.ndarray.tobytes, sigma[0]), sigma[1].tolist())]
    cap = budget + len(pending) * max(len(sub.edge_list), 1)
    while True:
        asking = []
        for route in routes:  # an ended route is skipped at once
            first = route.m + 1  # a route's first move in a round is the one it just evaluated
            while route.pending and not route.stalled:
                move = route.moves.get(route.pos)
                if route.m >= cap or move and move[0][1] and route.budget <= 0:  # forced, none left
                    route.log.append(CAP if route.m >= cap else EXHAUSTED)
                    route.stalled = True
                elif move is None:
                    asking.append((route, exchanges(route.pos, sub)))
                    break
                else:
                    swap, route.pos = move
                    route.budget -= swap[1]  # a forced swap spends the stall budget
                    route.log += (FORCING, swap) if swap[1] else (swap,)
                    route.m += 1
                    if route.m == first:  # a move still in the memo erased nothing when made
                        still = pending_interactions(route.pending, route.pos, sub.edges)
                        if still != route.pending:
                            route.log.append(EraseStep(tuple(sorted(route.pending - still))))
                            route.pending, route.moves = still, {}
        if not asking:
            return routes
        # an empty memo is a new pending set: a spectrum per set, a new row per run, new classes
        if stale := [r for r, _ in asking if not r.moves]:
            eig = {p: laplacian_spectrum(Graph(graph.n, p)) for p in {r.pending for r in stale}}
            owners = [j for j, r in enumerate(stale) for c in r.classes for _ in c]
            rows = [i for r in stale for c in r.classes for i in c]
            rho[0][rows], rho[1][rows] = built = _gibbs(
                [eig[stale[j].pending] for j in owners], betas[rows])
            # each rebuilt matrix as one void record, so ``tolist`` gives its bytes in one call
            rho_bytes = built[0].reshape(len(rows), -1).view(f"V{built[0][0].nbytes}")
            classes = {}  # (stale route, sigma id, rho bytes, rho entropy) -> the route's runs
            for j, i, m, e in zip(owners, rows, rho_bytes.ravel().tolist(), built[1].tolist()):
                classes.setdefault((j, sigma_ids[i], m, e), []).append(i)
            for r in stale:
                r.classes = []
            for key, c in classes.items():
                stale[key[0]].classes.append(c)
        # a divergence row per class of each asking route, from the class's first run
        candidates = np.array([[r.pos] + s for r, s in asking])
        placements = np.repeat(candidates, [len(r.classes) for r, _ in asking], axis=0)
        firsts = [c[0] for r, _ in asking for c in r.classes]
        values = iter(_divergences(rho, sigma, firsts, placements).tolist())
        for route, swapped in asking:
            parts = {}  # (edge index, forced) -> [(class, qjsd before, best qjsd)]
            for c in route.classes:
                v = next(values)
                best = min(v[1:])  # the first minimum; NaN forces
                key = v.index(best, 1) - 1, not best < v[0] - EPS_IMP
                parts.setdefault(key, []).append((c, v[0], best))
            copies = [replace(route, moves={**route.moves}, log=[*route.log])
                      for _ in range(len(parts) - 1)]  # a split: a memo and log per part
            for child, ((i, forced), part) in zip([route] + copies, parts.items()):
                child.classes = [p[0] for p in part]
                child.moves[child.pos] = (sub.edge_list[i], forced, part), swapped[i]
            routes += copies


def beta_sweep(ig: InteractionGraph, a: Assignment) -> SweepResult:
    """Minimum swap count over the standard grid; ties resolve to the smallest beta.

    The runs advance in lockstep. Stalled runs are excluded from the
    minimum. If every run stalls, returns the least-bad run, stalled.
    """
    return _sweep(ig, a, standard_beta_grid(), max_swap_bound(ig, a))


def _sweep(ig: InteractionGraph, a: Assignment, grid, budget: int) -> SweepResult:
    """The runs of ``grid``, ``budget`` forced swaps each; the best by ``(stalled, m, index)``."""
    betas = np.array([check_beta(b) for b in grid])
    owner = {run: r for r in _routes(ig, a, betas, budget) for c in r.classes for run in c}
    per_beta = tuple((b, owner[i].m, owner[i].stalled) for i, b in enumerate(grid))
    best = min(range(len(grid)), key=lambda i: (owner[i].stalled, owner[i].m))  # the first minimum
    trace = owner[best].trace(best, float(betas[best]))
    return SweepResult(trace.beta, trace.swap_count, per_beta, trace)


def compute_bound(ig: InteractionGraph, cg: Graph, *, beta: float | None = None) -> BoundReport:
    """The whole pipeline: assignment, max bound, then the divergence bound.

    The divergence bound is swept over the standard grid, with every row in
    ``per_beta``, or taken at one fixed ``beta``. The report is the best
    run's, so it is ``stalled``, and gives no bound, exactly when every run
    stalled.
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
